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
    pub fn run<R, F>(&self, body: F) -> SimOutcome<R>
    where
        R: Send + 'static,
        F: Fn(ThreadCtx) -> R + Clone + Send + 'static,
    {
        let sched = Arc::new(match &self.control {
            Some(ctl) => Scheduler::with_control(self.threads, Arc::clone(ctl)),
            None => Scheduler::with_faults(self.threads, self.window, self.faults),
        });
        let mut joins = Vec::with_capacity(self.threads);
        for id in 0..self.threads {
            let body = body.clone();
            let handle = SimHandle::new(Arc::clone(&sched), id);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("sim-{id}"))
                    .spawn(move || {
                        // Wait for all threads to be registered so the
                        // initial min-clock computation sees everyone.
                        handle.wait_for_start();
                        let r = body(ThreadCtx { id, handle: handle.clone() });
                        let end = handle.now();
                        handle.finish();
                        (r, end)
                    })
                    .expect("spawning simulated thread"),
            );
        }
        sched.release_start();
        let mut results = Vec::with_capacity(self.threads);
        let mut end_times = Vec::with_capacity(self.threads);
        for j in joins {
            let (r, end) = j.join().expect("simulated thread panicked");
            results.push(r);
            end_times.push(end);
        }
        let makespan = end_times.iter().copied().max().unwrap_or(0);
        let fault_stats = (0..self.threads).filter_map(|id| sched.fault_stats(id)).collect();
        SimOutcome { results, end_times, makespan, fault_stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
}
