//! The model checker's scheduling chooser and schedule recorder.
//!
//! A controlled run is a free-running run whose picks can be overridden.
//! The scheduler (see [`crate::Scheduler`]) makes one pick at every
//! decision point: each [`crate::SimHandle::advance`] and finish of the
//! running thread, once every live thread has reached its first
//! `advance`. In a controlled run it asks [`ScheduleControl`] for that
//! pick and then uses the same park/wake hand-off as a free-running run;
//! the control itself never blocks anyone.
//!
//! The default pick is the same `(clock, id)`-minimal rule the free-running
//! scheduler uses, so a run with no overrides reproduces the standard
//! execution exactly. A schedule is a sparse map from decision
//! index to thread id; forcing a choice different from the default is a
//! *divergence* (a preemption the free-running scheduler would not take).
//!
//! The explorer in `elision-analysis` replays many such schedules to
//! enumerate interleavings. To make that sound, instrumented code reports
//! the shared cache lines each segment touches via
//! [`crate::SimHandle::note_access`]; the per-step footprints are stored
//! on the [`StepRecord`] and drive dynamic partial-order reduction.
//!
//! Controlled runs ignore fault plans (the chaos layer's extra-cycle and
//! preemption hooks are bypassed) — chaos explores timing, the model
//! checker explores orderings, and mixing the two would double-count.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// One shared-memory access performed during a schedule step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepAccess {
    /// Cache line index touched.
    pub line: u32,
    /// Whether the access can modify shared state (write/RMW/publication).
    pub write: bool,
}

/// One scheduling decision and the execution segment that followed it.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Thread granted at this decision point.
    pub chosen: usize,
    /// Thread the free-running `(clock, id)`-minimal rule would have picked.
    pub default: usize,
    /// Threads that had not yet finished at this decision point (sorted).
    pub enabled: Vec<usize>,
    /// Simulated clock of the chosen thread at grant time.
    pub clock: u64,
    /// Shared lines touched by the granted segment, in program order.
    pub accesses: Vec<StepAccess>,
}

/// Chooses every pick of a controlled run and records the schedule.
///
/// Construct one per run, hand it to
/// [`crate::SimBuilder::control`], and read back [`ScheduleControl::steps`]
/// after the run completes. Overrides index into the decision sequence; an
/// override whose target thread has already finished (or whose index is
/// never reached) is silently ignored, which keeps schedule minimization
/// robust when dropping earlier forced choices shortens the run.
pub struct ScheduleControl {
    threads: usize,
    overrides: BTreeMap<usize, usize>,
    max_steps: usize,
    /// The decisions so far. Only the running thread appends to it, so
    /// the lock is uncontended; it makes the log shareable via `&self`.
    steps: Mutex<Vec<StepRecord>>,
}

impl std::fmt::Debug for ScheduleControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleControl")
            .field("threads", &self.threads)
            .field("overrides", &self.overrides)
            .field("steps_taken", &self.steps_taken())
            .finish_non_exhaustive()
    }
}

impl ScheduleControl {
    /// Default runaway backstop on the number of decision steps.
    pub(crate) const DEFAULT_MAX_STEPS: usize = 200_000;

    /// New control for `threads` simulated threads replaying `overrides`.
    #[must_use]
    pub fn new(threads: usize, overrides: BTreeMap<usize, usize>) -> Self {
        Self::with_max_steps(threads, overrides, Self::DEFAULT_MAX_STEPS)
    }

    /// As [`ScheduleControl::new`] with an explicit step backstop.
    pub(crate) fn with_max_steps(
        threads: usize,
        overrides: BTreeMap<usize, usize>,
        max_steps: usize,
    ) -> Self {
        assert!(threads >= 1, "controlled run needs at least one thread");
        for (&idx, &tid) in &overrides {
            assert!(tid < threads, "override at step {idx} targets out-of-range thread {tid}");
        }
        Self { threads, overrides, max_steps, steps: Mutex::new(Vec::new()) }
    }

    /// Make and record the next decision: the override at this decision
    /// index if its target is still live, else the `(clock, id)`-minimal
    /// default. `clock_of(t)` is thread `t`'s clock, `None` once it has
    /// finished. Returns `None` when every thread has finished.
    ///
    /// # Panics
    ///
    /// Panics when the run exceeds its step backstop.
    pub(crate) fn pick(&self, clock_of: impl Fn(usize) -> Option<u64>) -> Option<usize> {
        let enabled: Vec<usize> = (0..self.threads).filter(|&t| clock_of(t).is_some()).collect();
        let default = enabled.iter().copied().min_by_key(|&t| (clock_of(t), t))?;
        let mut steps = self.steps.lock();
        let idx = steps.len();
        assert!(
            idx < self.max_steps,
            "controlled run exceeded {} decision steps (runaway schedule?)",
            self.max_steps
        );
        let chosen = match self.overrides.get(&idx) {
            Some(&want) if enabled.contains(&want) => want,
            _ => default,
        };
        let clock = clock_of(chosen).expect("chosen thread is live");
        steps.push(StepRecord { chosen, default, enabled, clock, accesses: Vec::new() });
        Some(chosen)
    }

    /// Record a shared-line access by the currently granted thread.
    pub(crate) fn note_access(&self, id: usize, line: u32, write: bool) {
        let mut steps = self.steps.lock();
        if let Some(step) = steps.last_mut() {
            debug_assert_eq!(step.chosen, id, "access noted by non-granted thread");
            step.accesses.push(StepAccess { line, write });
        }
    }

    /// Number of decisions taken so far; monotone over the serialized
    /// execution, so usable as a logical timestamp for history recording.
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.steps.lock().len()
    }

    /// The recorded schedule (one entry per decision point).
    #[must_use]
    pub fn steps(&self) -> Vec<StepRecord> {
        self.steps.lock().clone()
    }

    /// How many decisions differed from the default `(clock, id)` choice.
    #[cfg(test)]
    pub(crate) fn divergences(&self) -> usize {
        self.steps.lock().iter().filter(|s| s.chosen != s.default).count()
    }

    /// Number of simulated threads under control.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Two threads, two advances each: run one controlled schedule and
    /// return the per-step chosen/default/enabled records.
    fn run_toy(
        threads: usize,
        advances: usize,
        overrides: BTreeMap<usize, usize>,
    ) -> Vec<StepRecord> {
        let ctl = Arc::new(ScheduleControl::new(threads, overrides));
        let ctl_body = Arc::clone(&ctl);
        SimBuilder::new(threads).control(Arc::clone(&ctl)).run(move |ctx| {
            let _ = &ctl_body;
            for _ in 0..advances {
                ctx.handle.advance(10);
            }
        });
        ctl.steps()
    }

    #[test]
    fn empty_schedule_matches_window0_defaults() {
        let steps = run_toy(2, 2, BTreeMap::new());
        assert_eq!(steps.len(), 4);
        for s in &steps {
            assert_eq!(s.chosen, s.default, "unforced run must follow defaults");
        }
        // Equal costs: min-(clock, id) alternates t0, t1, t0, t1.
        let order: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn dense_prefix_dfs_enumerates_all_six_interleavings() {
        // 2 threads x 2 segments each => C(4,2) = 6 maximal interleavings.
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut queued: HashSet<Vec<usize>> = HashSet::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        queued.insert(Vec::new());
        let mut runs = 0;
        while let Some(prefix) = stack.pop() {
            let overrides: BTreeMap<usize, usize> = prefix.iter().copied().enumerate().collect();
            let steps = run_toy(2, 2, overrides);
            runs += 1;
            assert!(runs <= 64, "toy DFS exploded");
            let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
            assert_eq!(&choices[..prefix.len()], &prefix[..], "prefix must replay verbatim");
            seen.insert(choices.clone());
            for i in prefix.len()..steps.len() {
                for &t in &steps[i].enabled {
                    if t == choices[i] {
                        continue;
                    }
                    let mut child = choices[..i].to_vec();
                    child.push(t);
                    if queued.insert(child.clone()) {
                        stack.push(child);
                    }
                }
            }
        }
        assert_eq!(seen.len(), 6, "expected all C(4,2) interleavings, got {seen:?}");
        // Every execution schedules each thread exactly twice.
        for choices in &seen {
            assert_eq!(choices.len(), 4);
            assert_eq!(choices.iter().filter(|&&t| t == 0).count(), 2);
        }
    }

    #[test]
    fn overrides_divergences_are_counted_and_replayed() {
        // Force t1 to run both its segments first.
        let overrides: BTreeMap<usize, usize> = [(0, 1), (1, 1)].into_iter().collect();
        let ctl = Arc::new(ScheduleControl::new(2, overrides));
        SimBuilder::new(2).control(Arc::clone(&ctl)).run(move |ctx| {
            for _ in 0..2 {
                ctx.handle.advance(10);
            }
        });
        let steps = ctl.steps();
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(choices, vec![1, 1, 0, 0]);
        // Step 0 diverges (default t0); step 1 diverges too (after t1 ran
        // one segment its clock is ahead, default returns to t0).
        assert_eq!(ctl.divergences(), 2);
    }

    #[test]
    fn override_of_finished_thread_falls_back_to_default() {
        // t1 has only finished segments by step 3; forcing it is ignored.
        let overrides: BTreeMap<usize, usize> = [(0, 1), (1, 1), (2, 1)].into_iter().collect();
        let steps = run_toy(2, 2, overrides);
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(choices, vec![1, 1, 0, 0], "step 2 override must fall back to t0");
    }

    #[test]
    fn three_thread_enabled_sets_shrink_as_threads_finish() {
        let steps = run_toy(3, 1, BTreeMap::new());
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].enabled, vec![0, 1, 2]);
        assert_eq!(steps[1].enabled, vec![1, 2]);
        assert_eq!(steps[2].enabled, vec![2]);
    }
}
