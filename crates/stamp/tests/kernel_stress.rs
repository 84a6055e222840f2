//! Stress and robustness tests for the STAMP kernels: every kernel must
//! verify under hostile HTM configurations, odd thread counts, and the
//! extension scheme.

use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::FaultPlan;
use elision_stamp::{build_kernel, run_kernel, KernelKind, StampParams};
use std::sync::Arc;

#[test]
fn kernels_verify_with_odd_thread_counts() {
    for kind in [KernelKind::Genome, KernelKind::Intruder, KernelKind::VacationLow] {
        for threads in [1usize, 3, 5, 7] {
            let run = run_kernel(
                kind,
                SchemeKind::HleScm,
                LockKind::Mcs,
                threads,
                &StampParams::quick(),
                HtmConfig::deterministic(),
            );
            assert!(run.makespan > 0, "{kind} with {threads} threads");
        }
    }
}

#[test]
fn kernels_verify_under_spurious_storm() {
    let storm = HtmConfig::deterministic().with_spurious(0.25, 0.001);
    for kind in KernelKind::ALL {
        let run =
            run_kernel(kind, SchemeKind::OptSlr, LockKind::Ttas, 4, &StampParams::quick(), storm);
        assert!(run.txn_stats.aborts_spurious > 0, "{kind}: storm did not fire");
    }
}

#[test]
fn kernels_verify_under_tight_capacity() {
    // Labyrinth's big transactions must overflow and fall back; everything
    // still verifies.
    let tight = HtmConfig::deterministic().with_capacity(48, 16);
    for kind in [KernelKind::Labyrinth, KernelKind::Yada, KernelKind::VacationHigh] {
        let run =
            run_kernel(kind, SchemeKind::OptSlr, LockKind::Ttas, 4, &StampParams::quick(), tight);
        if kind == KernelKind::Labyrinth {
            assert!(run.txn_stats.aborts_capacity > 0, "labyrinth should hit the capacity limit");
            assert!(
                run.counters.frac_nonspeculative() > 0.3,
                "capacity-bound labyrinth should mostly fall back, got {:.3}",
                run.counters.frac_nonspeculative()
            );
        }
    }
}

/// Seeded preemption and jitter make the threads' clocks lag one another
/// by up to a preemption pause.
#[test]
fn kernels_verify_with_bounded_lag_window() {
    let (threads, params) = (4, StampParams::quick());
    let plan = FaultPlan::none().with_preempt(500, 2_000).with_jitter(300).with_seed(32);
    for kind in [KernelKind::Ssca2, KernelKind::KmeansLow, KernelKind::Yada] {
        let mut b = MemoryBuilder::new();
        let kernel = build_kernel(kind, &mut b, threads, &params);
        let scheme =
            make_scheme(SchemeKind::SlrScm, LockKind::Clh, SchemeConfig::paper(), &mut b, threads);
        let mem = Arc::new(b.freeze(threads));
        kernel.init(&mem);
        let k = Arc::clone(&kernel);
        let cfg = HtmConfig::deterministic();
        let (completed, ..) =
            harness::run_arc_faulted(threads, cfg, params.seed, plan, Arc::clone(&mem), move |s| {
                k.run_thread(s, &scheme, threads);
                s.counters.completed()
            });
        kernel.verify(&mem).unwrap_or_else(|e| panic!("{kind}: verification failed: {e}"));
        assert!(completed.iter().sum::<u64>() > 0, "{kind}");
    }
}

#[test]
fn stamp_contention_ordering_holds() {
    // vacation-high (more queries over a smaller key space) must abort
    // more than vacation-low under the same scheme.
    let high = run_kernel(
        KernelKind::VacationHigh,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        HtmConfig::deterministic(),
    );
    let low = run_kernel(
        KernelKind::VacationLow,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        HtmConfig::deterministic(),
    );
    let rate = |r: &elision_stamp::StampRun| {
        r.counters.aborted as f64 / r.counters.completed().max(1) as f64
    };
    assert!(
        rate(&high) > rate(&low),
        "vacation_high should conflict more ({:.3} vs {:.3})",
        rate(&high),
        rate(&low)
    );
}

#[test]
fn intruder_queue_contention_shows_up() {
    // Intruder's shared queues make it the high-contention kernel: its
    // abort rate under SLR should exceed ssca2's by a wide margin.
    let intruder = run_kernel(
        KernelKind::Intruder,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        HtmConfig::deterministic(),
    );
    let ssca2 = run_kernel(
        KernelKind::Ssca2,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        HtmConfig::deterministic(),
    );
    let rate = |r: &elision_stamp::StampRun| {
        r.counters.aborted as f64 / r.counters.completed().max(1) as f64
    };
    assert!(rate(&intruder) > 2.0 * rate(&ssca2));
}
