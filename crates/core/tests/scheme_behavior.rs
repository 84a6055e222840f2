//! Behavioural tests of individual scheme decision branches.

use elision_core::{
    make_grouped_scm, make_lock, make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind,
};
use elision_htm::{harness, HtmConfig, MemoryBuilder, VarId};
use std::sync::Arc;

#[test]
fn speculative_success_costs_one_attempt() {
    for kind in [
        SchemeKind::Hle,
        SchemeKind::HleRetries,
        SchemeKind::HleScm,
        SchemeKind::OptSlr,
        SchemeKind::SlrScm,
    ] {
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(0);
        let scheme = make_scheme(kind, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
        let mem = b.freeze(1);
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            let out = scheme.execute(s, |s| s.store(x, 1));
            assert_eq!(out.attempts, 1, "{kind}");
            assert!(!out.nonspeculative, "{kind}");
            assert_eq!(s.counters.speculative, 1, "{kind}");
            assert_eq!(s.counters.aborted, 0, "{kind}");
        });
    }
}

#[test]
fn nolock_records_no_counters() {
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let scheme = make_scheme(SchemeKind::NoLock, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
    let mem = b.freeze(1);
    harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
        let out = scheme.execute(s, |s| s.store(x, 5));
        assert!(!out.nonspeculative);
        assert_eq!(s.counters.completed(), 0);
        assert_eq!(s.stats.begins, 0, "NoLock must not start transactions");
    });
}

#[test]
fn retry_budget_bounds_speculative_attempts() {
    // Every access aborts spuriously: every speculative attempt dies. The
    // schemes must give up after exactly their budget and complete under
    // the lock.
    for (kind, expected_attempts) in [
        (SchemeKind::Hle, 2u32),         // 1 speculative + 1 non-speculative
        (SchemeKind::HleRetries, 11u32), // 10 speculative + 1 non-speculative
        (SchemeKind::OptSlr, 11u32),
    ] {
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(0);
        let scheme = make_scheme(kind, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
        let mem = b.freeze(1);
        let cfg = HtmConfig::deterministic().with_spurious(0.0, 1.0);
        harness::run(1, cfg, 1, mem, move |s| {
            let out = scheme.execute(s, |s| s.store(x, 1));
            assert!(out.nonspeculative, "{kind}");
            assert_eq!(out.attempts, expected_attempts, "{kind}");
            assert_eq!(s.counters.aborted as u32, expected_attempts - 1, "{kind}");
            assert_eq!(s.counters.nonspeculative, 1, "{kind}");
        });
    }
}

#[test]
fn scm_budget_counts_only_aux_holder_retries() {
    // Under a total spurious storm, the SCM thread takes the aux lock
    // after the first abort and then burns its retry budget as holder:
    // 1 (pre-aux) + max_retries (as holder) speculative attempts + the
    // final locked run.
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let scheme = make_scheme(SchemeKind::HleScm, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
    let mem = b.freeze(1);
    let cfg = HtmConfig::deterministic().with_spurious(0.0, 1.0);
    harness::run(1, cfg, 1, mem, move |s| {
        let out = scheme.execute(s, |s| s.store(x, 1));
        assert!(out.nonspeculative);
        assert_eq!(out.attempts, 12, "1 + 10 holder retries + locked run");
    });
}

#[test]
fn slr_status_tuning_skips_hopeless_retries() {
    // Capacity aborts clear the retry hint: with tuning on, opt SLR gives
    // up after the first abort; with tuning off it burns the full budget.
    fn attempts(tuning: bool) -> u32 {
        let mut b = MemoryBuilder::new().words_per_line(1);
        let vars = b.alloc_array(16, 0);
        b.pad_to_line();
        let cfg = SchemeConfig { slr_status_tuning: tuning, ..SchemeConfig::paper() };
        let scheme = make_scheme(SchemeKind::OptSlr, LockKind::Ttas, cfg, &mut b, 1);
        let mem = b.freeze(1);
        let htm = HtmConfig::deterministic().with_capacity(64, 4);
        let (mut out, ..) = harness::run(1, htm, 1, mem, move |s| {
            let o = scheme.execute(s, |s| {
                for k in 0..8 {
                    s.store(VarId::from_index(vars.index() + k), 1)?;
                }
                Ok(())
            });
            o.attempts
        });
        out.pop().expect("one result")
    }
    assert_eq!(attempts(true), 2, "tuned: first capacity abort ends speculation");
    assert_eq!(attempts(false), 11, "untuned: full 10-attempt budget");
}

#[test]
fn scm_releases_aux_lock_on_both_paths() {
    // Whether the SCM operation ends speculatively or under the main
    // lock, the auxiliary lock must be free afterwards.
    for spurious in [0.0, 1.0] {
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(0);
        let aux = make_lock(LockKind::Mcs, &mut b, 1);
        let main = make_lock(LockKind::Ttas, &mut b, 1);
        let scheme = Arc::new(
            Scheme::new(
                SchemeKind::HleScm,
                SchemeConfig::paper(),
                Arc::clone(&main),
                Some(Arc::clone(&aux)),
            )
            .expect("aux supplied"),
        );
        let mem = b.freeze(1);
        let cfg = HtmConfig::deterministic().with_spurious(spurious, 0.0);
        harness::run(1, cfg, 1, mem, move |s| {
            // Force the serializing path on the storm config by having the
            // first attempt abort.
            scheme.execute(s, |s| s.store(x, 1));
            assert!(!aux.is_locked(s).unwrap(), "aux lock leaked (spurious={spurious})");
            assert!(!main.is_locked(s).unwrap(), "main lock leaked (spurious={spurious})");
        });
    }
}

#[test]
fn grouped_scm_state_is_consistent_after_storms() {
    let threads = 4;
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let scheme = make_grouped_scm(LockKind::Mcs, 8, SchemeConfig::paper(), &mut b, threads);
    let mem = b.freeze(threads);
    let cfg = HtmConfig::deterministic().with_spurious(0.4, 0.002);
    let (_, mem, _) = harness::run(threads, cfg, 5, mem, move |s| {
        for _ in 0..40 {
            scheme.execute(s, |s| {
                let v = s.load(x)?;
                s.store(x, v + 1)
            });
        }
    });
    assert_eq!(mem.read_direct(x), threads as u64 * 40);
    assert!(!mem.any_residual_bits());
}

#[test]
fn grouped_scm_spreads_lineless_aborts_across_aux_locks() {
    // Capacity aborts carry no conflict line; before the round-robin fix
    // every such abort serialized on aux[0], defeating the grouping.
    let mut b = MemoryBuilder::new().words_per_line(1);
    let vars = b.alloc_array(16, 0);
    b.pad_to_line();
    let scheme = make_grouped_scm(LockKind::Ttas, 4, SchemeConfig::paper(), &mut b, 1);
    let probe = Arc::clone(&scheme);
    let mem = b.freeze(1);
    let htm = HtmConfig::deterministic().with_capacity(64, 4);
    harness::run(1, htm, 1, mem, move |s| {
        for _ in 0..8 {
            scheme.execute(s, |s| {
                for k in 0..8 {
                    s.store(VarId::from_index(vars.index() + k), 1)?;
                }
                Ok(())
            });
        }
    });
    let traffic = probe.aux_acquisitions();
    assert_eq!(traffic.len(), 4, "one traffic counter per auxiliary lock");
    assert_eq!(traffic.iter().sum::<u64>(), 8, "one aux acquisition per operation");
    assert!(
        traffic.iter().filter(|&&c| c > 0).count() >= 2,
        "line-less aborts must spread over multiple aux locks: {traffic:?}"
    );
}

#[test]
fn labels_and_display() {
    assert_eq!(SchemeKind::GroupedScm.label(), "grouped-SCM");
    assert_eq!(format!("{}", SchemeKind::OptSlr), "opt SLR");
    assert!(SchemeKind::GroupedScm.uses_aux());
    assert!(!SchemeKind::Hle.uses_aux());
    assert_eq!(SchemeKind::ALL.len(), 6, "figures compare the paper's six schemes");
}

#[test]
fn hle_retries_over_fair_lock_waits_for_drain() {
    // HLE-retries turns fair locks into TTAS-style locks (paper §2): a
    // thread that aborts waits for the lock to drain instead of
    // enqueueing. Verify it still completes and stays correct under
    // contention.
    let threads = 4;
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let scheme =
        make_scheme(SchemeKind::HleRetries, LockKind::Mcs, SchemeConfig::paper(), &mut b, threads);
    let mem = b.freeze(threads);
    let (_, mem, _) = harness::run(threads, HtmConfig::deterministic(), 5, mem, move |s| {
        for _ in 0..50 {
            scheme.execute(s, |s| {
                let v = s.load(x)?;
                s.work(4)?;
                s.store(x, v + 1)
            });
        }
    });
    assert_eq!(mem.read_direct(x), threads as u64 * 50);
}
