//! Property-based chaos tests: correctness of every elision scheme under
//! *arbitrary* seeded fault plans.
//!
//! The deterministic fault layers (scheduler preemption/jitter, HTM abort
//! storms, capacity squeezes, hot lines) are sampled from wide parameter
//! ranges; for each sampled configuration the schemes must preserve their
//! core guarantees:
//!
//! * **Mutual exclusion / no lost updates**: a shared counter incremented
//!   non-atomically inside the critical section ends at exactly
//!   `threads * ops`.
//! * **Termination**: every operation completes within a (very generous)
//!   attempt bound — no livelock or starvation.
//! * **SLR consistency**: a two-variable invariant maintained inside the
//!   critical section is never observed broken by a *committed*
//!   execution, even though lazy subscription sacrifices opacity for
//!   in-flight (doomed, sandboxed) transactions.
//! * **Reproducibility**: the whole run — including the injected fault
//!   schedule — is a pure function of the seeds.

use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind, Watchdog};
use elision_htm::{harness, HtmConfig, HtmFaults, MemoryBuilder};
use elision_sim::{FaultPlan, OpCounters};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary scheduler-level fault plan (possibly inactive).
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..4, 50u64..500, 100u64..3_000, 0u32..400, 0u64..1_000).prop_map(
        |(mode, interval, pause, jitter, seed)| {
            let mut p = FaultPlan::none().with_seed(seed);
            if mode & 1 != 0 {
                p = p.with_preempt(interval, pause);
            }
            if mode & 2 != 0 {
                p = p.with_jitter(jitter);
            }
            p
        },
    )
}

/// Arbitrary HTM-level faults (possibly inactive).
fn htm_faults() -> impl Strategy<Value = HtmFaults> {
    (
        0u32..8,
        (500u64..4_000, 100u64..2_000, 50u32..900),
        (500u64..4_000, 100u64..2_000),
        50u32..600,
    )
        .prop_map(|(mask, (sp, sd, s_pm), (qp, qd), hot_pm)| {
            let mut f = HtmFaults::none();
            if mask & 1 != 0 {
                f = f.with_storm(sp, sd, s_pm);
            }
            if mask & 2 != 0 {
                f = f.with_squeeze(qp, qd, 16, 8);
            }
            if mask & 4 != 0 {
                f = f.with_hot_line(0, hot_pm);
            }
            f
        })
}

fn scheme_kind() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Hle),
        Just(SchemeKind::HleRetries),
        Just(SchemeKind::HleScm),
        Just(SchemeKind::OptSlr),
        Just(SchemeKind::SlrScm),
    ]
}

fn lock_kind() -> impl Strategy<Value = LockKind> {
    prop_oneof![Just(LockKind::Ttas), Just(LockKind::Mcs), Just(LockKind::Ticket)]
}

fn scheme_cfg() -> impl Strategy<Value = SchemeConfig> {
    prop_oneof![Just(SchemeConfig::paper()), Just(SchemeConfig::hardened())]
}

/// Generous per-operation attempt cap: the speculative budget is 10, so
/// anything near this bound is a livelock, not a tuning artifact.
const ATTEMPT_CAP: u32 = 2_000;

/// Shared-counter stress under the given faults; returns (final counter,
/// summed counters, merged watchdog, makespan).
fn stress(
    kind: SchemeKind,
    lock: LockKind,
    cfg: SchemeConfig,
    plan: FaultPlan,
    faults: HtmFaults,
    threads: usize,
    ops: u64,
) -> (u64, OpCounters, Watchdog, u64) {
    let mut b = MemoryBuilder::new();
    let counter = b.alloc_isolated(0);
    let scheme = make_scheme(kind, lock, cfg, &mut b, threads);
    let mem = Arc::new(b.freeze(threads));
    let htm = HtmConfig::deterministic().with_faults(faults);
    let (results, makespan, _) =
        harness::run_arc_faulted(threads, htm, 5, plan, Arc::clone(&mem), move |s| {
            let mut w = Watchdog::new(0);
            for _ in 0..ops {
                let started = s.now();
                let out = scheme.execute(s, |s| {
                    let v = s.load(counter)?;
                    s.work(3)?;
                    s.store(counter, v + 1)
                });
                w.record(out.attempts, s.now().saturating_sub(started));
            }
            (s.counters, w)
        });
    let counters = OpCounters::sum(results.iter().map(|(c, _)| c));
    let mut watchdog = Watchdog::new(0);
    for (_, w) in &results {
        watchdog.merge(w);
    }
    (mem.read_direct(counter), counters, watchdog, makespan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// No lost updates and no starvation, for any scheme x lock x config
    /// under arbitrary combined fault plans.
    #[test]
    fn atomicity_and_termination_under_arbitrary_faults(
        kind in scheme_kind(),
        lock in lock_kind(),
        cfg in scheme_cfg(),
        plan in fault_plan(),
        faults in htm_faults(),
    ) {
        let threads = 3;
        let ops = 25u64;
        let (count, counters, watchdog, _) =
            stress(kind, lock, cfg, plan, faults, threads, ops);
        prop_assert_eq!(count, threads as u64 * ops,
            "{} over {} lost updates under {:?} + {:?}", kind, lock, plan, faults);
        prop_assert_eq!(counters.completed(), threads as u64 * ops);
        prop_assert!(watchdog.max_attempts() <= ATTEMPT_CAP,
            "an operation needed {} attempts", watchdog.max_attempts());
        // Attempt accounting must balance under every fault plan: each
        // attempt the watchdog saw is exactly one speculative commit, one
        // non-speculative run, or one abort — and every abort carries
        // exactly one classified cause.
        prop_assert_eq!(
            watchdog.total_attempts(),
            counters.speculative + counters.nonspeculative + counters.aborted,
            "attempt accounting out of balance for {} over {}", kind, lock);
        prop_assert_eq!(counters.causes.total(), counters.aborted,
            "every abort must have exactly one classified cause");
    }

    /// Committed SLR executions never observe a broken invariant, even
    /// though doomed in-flight transactions may (they are sandboxed and
    /// can never commit).
    #[test]
    fn slr_commits_are_consistent_under_arbitrary_faults(
        plan in fault_plan(),
        faults in htm_faults(),
        cfg in scheme_cfg(),
    ) {
        let threads = 3;
        let ops = 20u64;
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(1);
        let y = b.alloc_isolated(2);
        let scheme = make_scheme(SchemeKind::OptSlr, LockKind::Ttas, cfg, &mut b, threads);
        let mem = Arc::new(b.freeze(threads));
        let htm = HtmConfig::deterministic().with_faults(faults);
        let (results, _, _) =
            harness::run_arc_faulted(threads, htm, 11, plan, Arc::clone(&mem), move |s| {
                let mut observed = Vec::new();
                for _ in 0..ops {
                    let out = scheme.execute(s, |s| {
                        let a = s.load(x)?;
                        s.work(5)?;
                        let b = s.load(y)?;
                        // Maintain the invariant y == 2*x.
                        s.store(x, a + 1)?;
                        s.work(5)?;
                        s.store(y, 2 * (a + 1))?;
                        Ok((a, b))
                    });
                    observed.push(out.value);
                }
                observed
            });
        for pairs in &results {
            for &(a, b) in pairs {
                prop_assert_eq!(b, 2 * a,
                    "a committed execution observed a broken invariant");
            }
        }
        let fx = mem.read_direct(x);
        let fy = mem.read_direct(y);
        prop_assert_eq!(fx, 1 + threads as u64 * ops);
        prop_assert_eq!(fy, 2 * fx);
    }

    /// The full run — counters, final state, makespan — is a pure
    /// function of the seeds, whatever faults are injected.
    #[test]
    fn faulted_runs_reproduce_exactly(
        kind in scheme_kind(),
        plan in fault_plan(),
        faults in htm_faults(),
    ) {
        let run = || stress(kind, LockKind::Mcs, SchemeConfig::hardened(), plan, faults, 3, 15);
        let (count_a, counters_a, watchdog_a, makespan_a) = run();
        let (count_b, counters_b, watchdog_b, makespan_b) = run();
        prop_assert_eq!(count_a, count_b);
        prop_assert_eq!(counters_a, counters_b);
        prop_assert_eq!(makespan_a, makespan_b);
        prop_assert_eq!(watchdog_a.max_attempts(), watchdog_b.max_attempts());
        prop_assert_eq!(watchdog_a.percentile(99), watchdog_b.percentile(99));
    }
}
