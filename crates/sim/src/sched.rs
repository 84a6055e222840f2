//! The bounded-lag min-clock scheduler.
//!
//! Every simulated thread owns a logical clock. The scheduler's single
//! invariant is the *bounded-lag* rule: a thread may only proceed past an
//! [`SimHandle::advance`] call while
//!
//! ```text
//! clock(self) <= min(clock(t) for live t) + window
//! ```
//!
//! With `window == 0` the rule tightens to "only the thread the last pick
//! named runs". A free-running run picks the lexicographically smallest
//! `(clock, id)`, which yields a fully deterministic interleaving; a
//! controlled run asks its [`ScheduleControl`] for each pick instead (see
//! the [`crate::control`] module), and makes the first one only once every
//! live thread has reached its first `advance`.
//!
//! # Parking
//!
//! Every run, free or controlled, uses one hand-off protocol. After
//! bumping its clock (or finishing), a thread makes the pick and issues
//! *directed* wakeups to the peers it makes runnable — exactly one thread
//! (the one picked) at window 0, every thread back inside the lag window
//! otherwise. A thread the rule does not admit parks on its own
//! mutex/condvar pair. A free-running pick is one scan of the clocks; a
//! controlled pick is the control's choice, published in `turn`.
//!
//! No wakeup is lost: a parker takes its own mutex, publishes its parked
//! flag, and re-checks runnability *before* waiting; a waker publishes its
//! new clock (or `turn`) first and then takes the target's mutex to
//! notify. Everything is `SeqCst`, so either the waker's scan sees the
//! parked flag (and notifies under the mutex, which the parker holds until
//! it waits), or the parker's runnability re-check sees the waker's
//! change.
//!
//! A panicking simulated thread poisons the scheduler, which wakes every
//! parker; parked peers then unwind out of `advance` instead of waiting for
//! a thread that will never hand off again.

use crate::control::ScheduleControl;
use crate::fault::{FaultPlan, FaultStats, FaultThreadState};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum number of simulated threads (bounded by the conflict-bitmap
/// width used in the HTM layer).
pub(crate) const MAX_THREADS: usize = 64;

/// Sentinel clock value marking a finished thread.
const DONE: u64 = u64::MAX;

/// The unwind payload of a parked peer released by a poisoned scheduler.
struct Poisoned;

/// Pads an atomic to its own cache line to avoid host-level false sharing.
#[derive(Debug)]
#[repr(align(128))]
struct PaddedClock(AtomicU64);

/// One thread's parking place, padded like the clocks so parkers never
/// false-share. Only its owner waits on `cv`; anyone may notify.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Parker {
    /// True while the owner is inside `park` (set and cleared under
    /// `mutex`, read lock-free by wakers).
    parked: AtomicBool,
    mutex: Mutex<()>,
    cv: Condvar,
}

/// The shared scheduler state for one simulation run.
#[derive(Debug)]
pub struct Scheduler {
    window: u64,
    times: Vec<PaddedClock>,
    /// Per-thread parking places for the directed-wakeup protocol.
    parkers: Vec<Parker>,
    /// The start gate (cold path: crossed once per thread per run).
    start: Mutex<bool>,
    start_cv: Condvar,
    /// Per-thread fault-schedule state; empty when no faults are injected.
    /// Each entry is only ever locked by its own thread, so the mutexes are
    /// uncontended — they exist to make the state shareable via `&self`.
    faults: Vec<Mutex<FaultThreadState>>,
    /// When set, the model checker makes every window-0 pick.
    control: Option<Arc<ScheduleControl>>,
    /// Controlled runs: the thread the last pick named (`usize::MAX`
    /// before the first pick).
    turn: AtomicUsize,
    /// Controlled runs: threads that have neither reached their first
    /// `advance` nor finished.
    unarrived: AtomicUsize,
    /// Set once a simulated thread panics.
    poisoned: AtomicBool,
    /// The first panicking thread and its panic message.
    first_panic: Mutex<Option<(usize, String)>>,
}

impl Scheduler {
    /// Create a scheduler for `threads` simulated threads with the given
    /// bounded-lag `window`.
    pub fn new(threads: usize, window: u64) -> Self {
        Self::build(threads, window, FaultPlan::none(), None)
    }

    /// Create a scheduler that injects the faults described by `plan` (see
    /// [`FaultPlan`]; an inactive plan is free), or, given a `control`,
    /// one whose picks that [`ScheduleControl`] makes. Controlled runs are
    /// always window 0 and never inject faults: the clock still accrues
    /// per-thread costs (it feeds the default min-clock pick and the final
    /// makespan).
    pub(crate) fn build(
        threads: usize,
        window: u64,
        plan: FaultPlan,
        control: Option<Arc<ScheduleControl>>,
    ) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        if let Some(ctl) = &control {
            assert_eq!(ctl.threads(), threads, "control sized for a different thread count");
        }
        let faults = if plan.is_active() && control.is_none() {
            (0..threads).map(|tid| Mutex::new(FaultThreadState::new(plan, tid))).collect()
        } else {
            Vec::new()
        };
        Scheduler {
            window: if control.is_some() { 0 } else { window },
            times: (0..threads).map(|_| PaddedClock(AtomicU64::new(0))).collect(),
            parkers: (0..threads).map(|_| Parker::default()).collect(),
            start: Mutex::new(false),
            start_cv: Condvar::new(),
            faults,
            control,
            turn: AtomicUsize::new(usize::MAX),
            unarrived: AtomicUsize::new(threads),
            poisoned: AtomicBool::new(false),
            first_panic: Mutex::new(None),
        }
    }

    /// The faults injected so far into thread `id`, or `None` when the run
    /// has no fault plan.
    pub fn fault_stats(&self, id: usize) -> Option<FaultStats> {
        self.faults.get(id).map(|f| f.lock().stats())
    }

    /// Number of simulated threads.
    pub fn threads(&self) -> usize {
        self.times.len()
    }

    /// Open the start gate, releasing all simulated threads.
    pub fn release_start(&self) {
        let mut started = self.start.lock();
        *started = true;
        self.start_cv.notify_all();
    }

    fn wait_for_start(&self) {
        let mut started = self.start.lock();
        while !*started {
            self.start_cv.wait(&mut started);
        }
    }

    /// Read thread `id`'s clock (`u64::MAX` once finished).
    pub(crate) fn time_of(&self, id: usize) -> u64 {
        self.times[id].0.load(Ordering::SeqCst)
    }

    /// The smallest live clock and the id holding it (ties broken by the
    /// smaller id). Returns `(DONE, 0)` when every thread has finished.
    fn min_clock(&self) -> (u64, usize) {
        let mut best = DONE;
        let mut best_id = 0;
        for (id, t) in self.times.iter().enumerate() {
            let v = t.0.load(Ordering::SeqCst);
            if v < best {
                best = v;
                best_id = id;
            }
        }
        (best, best_id)
    }

    fn is_runnable(&self, id: usize, my_time: u64) -> bool {
        if self.poisoned.load(Ordering::SeqCst) {
            return true;
        }
        if self.control.is_some() {
            return self.turn.load(Ordering::SeqCst) == id;
        }
        let (min, min_id) = self.min_clock();
        if min == DONE {
            return true;
        }
        if self.window == 0 {
            (my_time, id) <= (min, min_id)
        } else {
            my_time <= min.saturating_add(self.window)
        }
    }

    /// Notify thread `target` if it is parked. Taking the parker's mutex
    /// before notifying orders this wakeup after the parker has either
    /// re-checked runnability (seeing the caller's prior clock change) or
    /// entered the condvar wait — so no wakeup is lost.
    fn wake(&self, target: usize) {
        let p = &self.parkers[target];
        if p.parked.load(Ordering::SeqCst) {
            let _g = p.mutex.lock();
            p.cv.notify_one();
        }
    }

    /// Directed wakeups after a clock change by (or finish of) `id` in a
    /// free-running run: scan the clocks once and notify exactly the peers
    /// the new state makes runnable — the new lexicographic minimum at
    /// window 0, every thread back inside the lag window otherwise.
    /// Returns the scanned `(min, min_id)` so `advance` can reuse it for
    /// its own runnability check without a second scan.
    fn wake_runnable(&self, id: usize) -> (u64, usize) {
        let (min, min_id) = self.min_clock();
        if min == DONE {
            // Everyone finished; defensively release any parked stragglers
            // (is_runnable is vacuously true for them now).
            for t in 0..self.parkers.len() {
                self.wake(t);
            }
        } else if self.window == 0 {
            // Exactly one thread is runnable: the minimum. Skip the
            // self-notify when the caller kept the baton.
            if min_id != id {
                self.wake(min_id);
            }
        } else {
            let cap = min.saturating_add(self.window);
            for t in 0..self.parkers.len() {
                if t != id && self.times[t].0.load(Ordering::SeqCst) <= cap {
                    self.wake(t);
                }
            }
        }
        (min, min_id)
    }

    /// Make the pick that follows a clock change by (or the finish of)
    /// `id`, now at clock `t`, wake whom it admits, and report whether `id`
    /// may keep running.
    fn hand_off(&self, id: usize, t: u64) -> bool {
        if let Some(ctl) = &self.control {
            // Only the thread the last pick named runs, so one that does
            // not hold the turn is arriving: at its first `advance`, or
            // finishing without one. The last to arrive makes the first
            // pick; until then every arrived thread parks.
            if self.turn.load(Ordering::SeqCst) != id
                && self.unarrived.fetch_sub(1, Ordering::SeqCst) != 1
            {
                return false;
            }
            let clock_of = |tid| Some(self.time_of(tid)).filter(|&c| c != DONE);
            let Some(next) = ctl.pick(clock_of) else {
                return true;
            };
            self.turn.store(next, Ordering::SeqCst);
            if next != id {
                self.wake(next);
            }
            return next == id;
        }
        let (min, min_id) = self.wake_runnable(id);
        if min == DONE {
            true
        } else if self.window == 0 {
            (t, id) <= (min, min_id)
        } else {
            t <= min.saturating_add(self.window)
        }
    }

    /// Block until the bounded-lag rule readmits thread `id` at clock `t`.
    /// Unwinds instead when the scheduler has been poisoned.
    fn park(&self, id: usize, t: u64) {
        let p = &self.parkers[id];
        let mut guard = p.mutex.lock();
        p.parked.store(true, Ordering::SeqCst);
        // Re-check under the mutex: a waker that missed our parked flag
        // has already published its change, so this check sees it.
        while !self.is_runnable(id, t) {
            p.cv.wait(&mut guard);
        }
        p.parked.store(false, Ordering::SeqCst);
        drop(guard);
        if self.poisoned.load(Ordering::SeqCst) {
            std::panic::resume_unwind(Box::new(Poisoned));
        }
    }

    fn advance(&self, id: usize, cost: u64) {
        let cost = match self.faults.get(id) {
            Some(f) => {
                let now = self.times[id].0.load(Ordering::SeqCst);
                cost + f.lock().extra_cycles(now, cost)
            }
            None => cost,
        };
        let t = self.times[id].0.fetch_add(cost, Ordering::SeqCst) + cost;
        // Single-thread fast path: alone, a free run's bounded-lag rule is
        // always satisfied and there is no one to wake (fill phases and
        // single-thread baselines take this branch on every advance).
        if self.times.len() == 1 && self.control.is_none() {
            return;
        }
        if !self.hand_off(id, t) {
            self.park(id, t);
        }
    }

    fn finish(&self, id: usize) {
        self.times[id].0.store(DONE, Ordering::SeqCst);
        self.hand_off(id, DONE);
    }

    /// Record that thread `id` panicked with `payload` and release every
    /// parked peer. Only the first panic is kept; the peers' own unwinds
    /// (payload [`Poisoned`]) come after it.
    pub(crate) fn poison(&self, id: usize, payload: &(dyn Any + Send)) {
        self.first_panic.lock().get_or_insert_with(|| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (id, msg)
        });
        self.poisoned.store(true, Ordering::SeqCst);
        for t in 0..self.parkers.len() {
            self.wake(t);
        }
    }

    /// The first panicking thread and its panic message, if any panicked.
    pub(crate) fn first_panic(&self) -> Option<(usize, String)> {
        self.first_panic.lock().clone()
    }
}

/// A per-thread handle onto the scheduler.
///
/// Cloning is cheap; clones share the same underlying clock.
#[derive(Debug, Clone)]
pub struct SimHandle {
    sched: Arc<Scheduler>,
    id: usize,
}

impl SimHandle {
    /// Create a handle for simulated thread `id`.
    pub fn new(sched: Arc<Scheduler>, id: usize) -> Self {
        assert!(id < sched.threads());
        SimHandle { sched, id }
    }

    /// The simulated thread id this handle represents.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total number of simulated threads in this run.
    pub fn threads(&self) -> usize {
        self.sched.threads()
    }

    /// The thread's current logical clock, in cycles.
    pub fn now(&self) -> u64 {
        self.sched.time_of(self.id)
    }

    /// Advance the thread's logical clock by `cost` cycles, blocking while
    /// the bounded-lag rule forbids this thread from running.
    ///
    /// This is the simulation's only yield point: all simulated work —
    /// memory accesses, spin iterations, transaction bookkeeping, pure
    /// compute — must be accounted through it.
    pub fn advance(&self, cost: u64) {
        self.sched.advance(self.id, cost);
    }

    /// Block until the start gate opens (all simulated threads spawned).
    pub(crate) fn wait_for_start(&self) {
        self.sched.wait_for_start();
    }

    /// Whether this run is serialized under a [`ScheduleControl`].
    pub fn controlled(&self) -> bool {
        self.sched.control.is_some()
    }

    /// Report a shared-line access for model-checker footprints. A no-op
    /// outside controlled runs, so instrumentation can call this
    /// unconditionally on hot paths.
    pub fn note_access(&self, line: u32, write: bool) {
        if let Some(ctl) = &self.sched.control {
            ctl.note_access(self.id, line, write);
        }
    }

    /// Decision steps taken so far in a controlled run (0 otherwise).
    /// Monotone over the serialized execution, so usable as a logical
    /// timestamp for operation-history recording.
    pub fn steps_taken(&self) -> u64 {
        self.sched.control.as_ref().map_or(0, |c| c.steps_taken() as u64)
    }

    /// Mark the thread finished, excluding it from min-clock computation
    /// so peers may run ahead freely.
    pub(crate) fn finish(&self) {
        self.sched.finish(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_clock_ignores_finished_threads() {
        // NOTE: `advance` may park the calling thread, so scheduler unit
        // tests only drive the non-blocking entry points.
        let s = Scheduler::new(3, 0);
        s.release_start();
        s.finish(0);
        s.finish(1);
        let (min, id) = s.min_clock();
        assert_eq!((min, id), (0, 2), "live thread 2 holds the minimum");
        assert_eq!(s.time_of(0), u64::MAX, "finished threads report DONE");
        // With every peer finished, thread 2 (the minimum) is runnable.
        assert!(s.is_runnable(2, 0));
    }

    #[test]
    fn runnable_respects_window() {
        let s = Scheduler::new(2, 8);
        s.release_start();
        // Thread 0 at 0, thread 1 at 0: both runnable.
        assert!(s.is_runnable(0, 0));
        assert!(s.is_runnable(1, 0));
        // Push thread 0 to 9 while thread 1 is at 0: 9 > 0 + 8.
        assert!(!s.is_runnable(0, 9));
        assert!(s.is_runnable(0, 8));
    }

    #[test]
    fn strict_mode_breaks_ties_by_id() {
        let s = Scheduler::new(2, 0);
        s.release_start();
        // Both clocks 0: only thread 0 is runnable.
        assert!(s.is_runnable(0, 0));
        assert!(!s.is_runnable(1, 0));
    }

    #[test]
    fn all_done_is_runnable() {
        let s = Scheduler::new(2, 0);
        s.release_start();
        s.finish(0);
        s.finish(1);
        assert!(s.is_runnable(0, DONE));
    }

    #[test]
    fn wake_runnable_reports_the_minimum() {
        let s = Scheduler::new(3, 0);
        s.release_start();
        s.times[0].0.store(10, Ordering::SeqCst);
        s.times[2].0.store(4, Ordering::SeqCst);
        // No peers are parked, so this only scans and reports.
        assert_eq!(s.wake_runnable(0), (0, 1));
        s.times[1].0.store(7, Ordering::SeqCst);
        assert_eq!(s.wake_runnable(0), (4, 2));
    }

    #[test]
    fn directed_wakeup_is_not_lost() {
        // One thread parks (not runnable), a peer then advances past it;
        // the parked thread must be released by the directed wakeup. This
        // is the race the Dekker-style flag/clock ordering closes.
        for _ in 0..200 {
            let s = Arc::new(Scheduler::new(2, 0));
            s.release_start();
            // Thread 1 at clock 5: not runnable while thread 0 is at 0.
            let parker = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    s.times[1].0.store(5, Ordering::SeqCst);
                    if !s.is_runnable(1, 5) {
                        s.park(1, 5);
                    }
                })
            };
            // Thread 0 races ahead to 6 and issues the directed wakeup.
            let waker = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    s.times[0].0.store(6, Ordering::SeqCst);
                    s.wake_runnable(0);
                })
            };
            waker.join().expect("waker");
            parker.join().expect("parker must be woken");
        }
    }
}
