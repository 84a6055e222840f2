//! A deterministic logical-time multicore simulator.
//!
//! The lock-elision paper this workspace reproduces ("Software-Improved
//! Hardware Lock Elision", PODC 2014) measures throughput, abort rates and
//! serialization dynamics of threads racing through critical sections on a
//! real 4-core/8-thread Haswell machine. This host has neither TSX hardware
//! nor multiple cores, so the workspace substitutes a *simulated* multicore:
//! every simulated thread owns a monotonically increasing logical clock
//! (measured in abstract "cycles"), every memory access / spin iteration /
//! transaction event advances that clock by a cost taken from a
//! [`CostModel`], and a scheduler only lets a thread run while its clock is
//! within a bounded window of the global minimum clock.
//!
//! The result is that critical sections genuinely *overlap in logical time*
//! regardless of how the host OS schedules the backing threads, which is
//! the property every experiment in the paper depends on. With
//! [`SimBuilder::window`] set to `0` the interleaving is fully
//! deterministic (exactly one thread — the lexicographically smallest
//! `(clock, thread id)` — runs at a time), which the test-suites use.
//!
//! # Quick example
//!
//! ```
//! use elision_sim::SimBuilder;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let outcome = SimBuilder::new(4).window(0).run({
//!     let hits = Arc::clone(&hits);
//!     move |ctx| {
//!         for _ in 0..100 {
//!             ctx.handle.advance(3);
//!             hits.fetch_add(1, Ordering::Relaxed);
//!         }
//!         ctx.id
//!     }
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 400);
//! assert_eq!(outcome.results, vec![0, 1, 2, 3]);
//! assert!(outcome.makespan >= 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod control;
mod cost;
mod fault;
mod rng;
mod sched;
mod slots;
mod stats;
mod trace;

pub use arrivals::{generate_arrivals, Arrival, ArrivalPhase, Zipf};
pub use control::{ScheduleControl, StepAccess, StepRecord};
pub use cost::CostModel;
pub use fault::{FaultPlan, FaultStats, PreemptSpec};
pub use rng::DetRng;
pub use sched::{Scheduler, SimHandle};
pub use slots::{CauseSlotRecorder, CauseSlotSeries, SlotRecorder, SlotSeries};
pub use stats::{AbortCause, AttemptKind, CauseHistogram, ConflictLineHistogram, OpCounters};
pub use trace::{TraceEvent, TraceRing};

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Per-thread context handed to each simulated thread's body.
#[derive(Debug)]
pub struct ThreadCtx {
    /// The simulated thread's index in `0..threads`.
    pub id: usize,
    /// Handle used to advance logical time (and thereby yield to peers).
    pub handle: SimHandle,
}

/// The result of running a simulation to completion.
#[derive(Debug)]
pub struct SimOutcome<R> {
    /// Per-thread return values, indexed by thread id.
    pub results: Vec<R>,
    /// Final logical clock of each thread.
    pub end_times: Vec<u64>,
    /// The simulated makespan: the largest per-thread end time.
    pub makespan: u64,
    /// Per-thread injected-fault counters; empty when the run had no
    /// fault plan attached.
    pub fault_stats: Vec<FaultStats>,
}

impl<R> SimOutcome<R> {
    /// Throughput in operations per 1000 simulated cycles, given a total
    /// operation count performed across all threads.
    ///
    /// Returns `0.0` for an empty (zero-cycle) run.
    pub fn throughput(&self, total_ops: u64) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            total_ops as f64 * 1000.0 / self.makespan as f64
        }
    }
}

/// Builder for a simulated multicore run.
///
/// A simulation consists of `threads` simulated threads all executing the
/// same closure (distinguished by [`ThreadCtx::id`]). The closure runs on a
/// real OS thread but is gated by the logical-clock scheduler: it must call
/// [`SimHandle::advance`] for every costed event, and may be blocked there
/// until slower peers catch up.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    threads: usize,
    window: u64,
    faults: FaultPlan,
    control: Option<Arc<ScheduleControl>>,
}

impl SimBuilder {
    /// Create a builder for `threads` simulated threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or greater than 64 (the HTM layer's
    /// conflict-bitmap width).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one simulated thread");
        assert!(
            threads <= sched::MAX_THREADS,
            "at most {} simulated threads are supported",
            sched::MAX_THREADS
        );
        SimBuilder { threads, window: 64, faults: FaultPlan::none(), control: None }
    }

    /// Set the bounded-lag window, in cycles.
    ///
    /// A thread may run while `clock <= min(live clocks) + window`. `0`
    /// selects *strict* mode: exactly one thread (the lexicographically
    /// smallest `(clock, id)`) runs at a time, making the whole simulation
    /// deterministic. Larger windows trade determinism for host speed.
    pub fn window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Attach a deterministic fault-injection plan (simulated preemption
    /// and clock jitter) to the run. See [`FaultPlan`]. The default plan
    /// injects nothing.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Serialize the run under a model-checker [`ScheduleControl`]: every
    /// [`SimHandle::advance`] becomes a decision point replayed from the
    /// control's schedule. Forces window 0 semantics and bypasses any
    /// attached fault plan (see the [`control`] module docs).
    pub fn control(mut self, control: Arc<ScheduleControl>) -> Self {
        self.control = Some(control);
        self
    }

    /// Number of simulated threads this builder will run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` once per simulated thread and collect the outcome.
    ///
    /// `body` is cloned per thread; shared state should be captured via
    /// `Arc`. The call blocks until every simulated thread finishes.
    ///
    /// # Panics
    ///
    /// Panics, naming the thread and its panic message, when a simulated
    /// thread panics; its parked peers are released rather than left
    /// waiting for it.
    pub fn run<R, F>(&self, body: F) -> SimOutcome<R>
    where
        R: Send + 'static,
        F: Fn(ThreadCtx) -> R + Clone + Send + 'static,
    {
        let sched = Arc::new(Scheduler::build(
            self.threads,
            self.window,
            self.faults,
            self.control.clone(),
        ));
        let mut joins = Vec::with_capacity(self.threads);
        for id in 0..self.threads {
            let body = body.clone();
            let handle = SimHandle::new(Arc::clone(&sched), id);
            let sched = Arc::clone(&sched);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("sim-{id}"))
                    .spawn(move || {
                        // Wait for all threads to be registered so the
                        // initial min-clock computation sees everyone.
                        handle.wait_for_start();
                        let run = panic::catch_unwind(AssertUnwindSafe(|| {
                            let r = body(ThreadCtx { id, handle: handle.clone() });
                            let end = handle.now();
                            handle.finish();
                            (r, end)
                        }));
                        if let Err(payload) = &run {
                            sched.poison(id, payload.as_ref());
                        }
                        run.ok()
                    })
                    .expect("spawning simulated thread"),
            );
        }
        sched.release_start();
        let runs: Vec<Option<(R, u64)>> = joins
            .into_iter()
            .map(|j| j.join().expect("simulated threads catch their own panics"))
            .collect();
        if let Some((id, msg)) = sched.first_panic() {
            panic!("simulated thread panicked (thread {id}): {msg}");
        }
        let (results, end_times): (Vec<R>, Vec<u64>) =
            runs.into_iter().map(|r| r.expect("no simulated thread panicked")).unzip();
        let makespan = end_times.iter().copied().max().unwrap_or(0);
        let fault_stats = (0..self.threads).filter_map(|id| sched.fault_stats(id)).collect();
        SimOutcome { results, end_times, makespan, fault_stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn single_thread_clock_accumulates() {
        let out = SimBuilder::new(1).window(0).run(|ctx| {
            for _ in 0..10 {
                ctx.handle.advance(7);
            }
            ctx.handle.now()
        });
        assert_eq!(out.results[0], 70);
        assert_eq!(out.makespan, 70);
    }

    #[test]
    fn threads_progress_in_lockstep_with_zero_window() {
        // With window 0, at any advance the running thread is the global
        // minimum, so observing a peer's clock far ahead is impossible.
        let n = 4;
        let sched_times: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let out = SimBuilder::new(n).window(0).run({
            let times = Arc::clone(&sched_times);
            move |ctx| {
                let mut max_lead = 0i64;
                for _ in 0..500 {
                    ctx.handle.advance(1);
                    times[ctx.id].store(ctx.handle.now(), Ordering::SeqCst);
                    let me = ctx.handle.now() as i64;
                    for t in times.iter() {
                        let other = t.load(Ordering::SeqCst) as i64;
                        if other > 0 {
                            max_lead = max_lead.max(me - other);
                        }
                    }
                }
                max_lead
            }
        });
        for lead in out.results {
            // A thread can lead a peer by at most one step's cost (the
            // peer may not have republished its clock yet).
            assert!(lead <= 2, "thread led by {lead} cycles in strict mode");
        }
    }

    #[test]
    fn makespan_is_max_thread_time() {
        let out = SimBuilder::new(3).window(16).run(|ctx| {
            let steps = (ctx.id as u64 + 1) * 10;
            for _ in 0..steps {
                ctx.handle.advance(2);
            }
            ctx.handle.now()
        });
        assert_eq!(out.makespan, 60);
        assert_eq!(out.end_times, vec![20, 40, 60]);
    }

    #[test]
    fn uneven_finish_does_not_deadlock() {
        // Thread 0 finishes immediately; the others must still be able to
        // advance past it.
        let out = SimBuilder::new(4).window(0).run(|ctx| {
            if ctx.id == 0 {
                return 0;
            }
            for _ in 0..1000 {
                ctx.handle.advance(1);
            }
            ctx.handle.now()
        });
        assert_eq!(out.results[0], 0);
        for id in 1..4 {
            assert_eq!(out.results[id], 1000);
        }
    }

    #[test]
    fn throughput_helper() {
        let out = SimBuilder::new(2).window(0).run(|ctx| {
            for _ in 0..50 {
                ctx.handle.advance(10);
            }
        });
        assert_eq!(out.makespan, 500);
        let thr = out.throughput(100);
        assert!((thr - 200.0).abs() < 1e-9);
    }

    #[test]
    fn fault_plan_extends_makespan_deterministically() {
        let run = |plan: FaultPlan| {
            SimBuilder::new(2).window(0).faults(plan).run(|ctx| {
                for _ in 0..200 {
                    ctx.handle.advance(5);
                }
                ctx.handle.now()
            })
        };
        let base = run(FaultPlan::none());
        assert!(base.fault_stats.is_empty(), "inactive plan records no stats");
        let plan = FaultPlan::none().with_preempt(100, 400).with_jitter(100).with_seed(11);
        let a = run(plan);
        let b = run(plan);
        assert_eq!(a.end_times, b.end_times, "same seed, same schedule");
        assert_eq!(a.fault_stats, b.fault_stats, "same seed, same stats");
        assert!(a.makespan > base.makespan, "faults must cost simulated time");
        assert!(a.fault_stats.iter().any(|s| s.preemptions > 0));
    }

    #[test]
    fn zero_cost_advance_is_allowed() {
        let out = SimBuilder::new(2).window(0).run(|ctx| {
            for _ in 0..10 {
                ctx.handle.advance(0);
                ctx.handle.advance(1);
            }
        });
        assert_eq!(out.makespan, 10);
    }

    /// Log `(id, clock)` after every advance of a 3-thread run with uneven
    /// costs, zero-cost first advances and a thread that finishes without
    /// advancing.
    fn logged_run(builder: SimBuilder) -> (Vec<(usize, u64)>, Vec<u64>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = builder.run({
            let log = Arc::clone(&log);
            move |ctx| {
                if ctx.id == 2 {
                    return;
                }
                for i in 0..40u64 {
                    let cost = if i == 0 { 0 } else { 1 + (i * (ctx.id as u64 + 3)) % 7 };
                    ctx.handle.advance(cost);
                    log.lock().push((ctx.id, ctx.handle.now()));
                }
            }
        });
        let log = log.lock().clone();
        (log, out.end_times)
    }

    #[test]
    fn controlled_run_without_overrides_is_the_window0_run() {
        let free = logged_run(SimBuilder::new(3).window(0));
        let ctl = Arc::new(ScheduleControl::new(3, BTreeMap::new()));
        let controlled = logged_run(SimBuilder::new(3).control(Arc::clone(&ctl)));
        assert_eq!(free, controlled);
        assert!(ctl.steps().iter().all(|s| s.chosen == s.default));
    }

    /// Run `f` on a helper thread and return its panic message, failing
    /// instead of hanging if it has not returned within a bounded time.
    fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let msg = panic::catch_unwind(AssertUnwindSafe(f)).err().map(|p| {
                p.downcast_ref::<String>().cloned().unwrap_or_else(|| "non-string".to_string())
            });
            tx.send(msg).expect("test thread is waiting");
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("run hung after a simulated thread panicked")
            .expect("run must panic when a simulated thread does")
    }

    /// Three threads of 100 advances each; thread 1 panics after 10.
    fn panicking_run(builder: SimBuilder) {
        builder.run(|ctx| {
            for i in 0..100 {
                assert!(!(ctx.id == 1 && i == 10), "gave up");
                ctx.handle.advance(1);
            }
        });
    }

    #[test]
    fn panicking_thread_fails_the_run_instead_of_hanging() {
        for window in [0, 16] {
            let msg = panic_message_of(move || panicking_run(SimBuilder::new(3).window(window)));
            assert!(msg.ends_with("(thread 1): gave up"), "{msg}");
        }
        let ctl = Arc::new(ScheduleControl::new(3, BTreeMap::new()));
        let msg = panic_message_of(move || panicking_run(SimBuilder::new(3).control(ctl)));
        assert!(msg.ends_with("(thread 1): gave up"), "{msg}");
    }

    #[test]
    fn step_backstop_fails_the_run_instead_of_hanging() {
        // Equal costs rotate the turn 0, 1, 2, 0, 1; thread 1 makes the
        // sixth pick, which overruns the backstop.
        let ctl = Arc::new(ScheduleControl::with_max_steps(3, BTreeMap::new(), 5));
        let msg = panic_message_of(move || panicking_run(SimBuilder::new(3).control(ctl)));
        assert!(msg.contains("(thread 1): controlled run exceeded 5 decision steps"), "{msg}");
    }
}
