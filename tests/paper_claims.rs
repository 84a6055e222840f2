//! Integration tests asserting the paper's *qualitative* claims across
//! the whole stack — small versions of the figure pipelines with the
//! expected orderings checked programmatically. (The quantitative
//! reproduction lives in the `fig*` binaries and EXPERIMENTS.md.)

use elision_bench::{run_tree_bench, TreeBenchResult, TreeBenchSpec};
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_structures::OpMix;

fn run(
    scheme: SchemeKind,
    lock: LockKind,
    size: usize,
    mix: OpMix,
    threads: usize,
) -> TreeBenchResult {
    let mut spec = TreeBenchSpec::new(scheme, lock, threads, size, mix);
    spec.ops_per_thread = 250;
    run_tree_bench(&spec)
}

/// §4: with an HLE MCS lock, virtually all operations complete
/// non-speculatively after an initial abort.
#[test]
fn claim_mcs_lemming_effect() {
    let r = run(SchemeKind::Hle, LockKind::Mcs, 64, OpMix::MODERATE, 8);
    assert!(
        r.counters.frac_nonspeculative() > 0.9,
        "expected near-total serialization, got {:.3}",
        r.counters.frac_nonspeculative()
    );
}

/// §4: the TTAS lock recovers from aborts — a large fraction of
/// operations still completes speculatively under contention, and almost
/// all do on large trees.
#[test]
fn claim_ttas_recovers() {
    let small = run(SchemeKind::Hle, LockKind::Ttas, 64, OpMix::MODERATE, 8);
    assert!(
        small.counters.frac_nonspeculative() < 0.9,
        "TTAS should keep speculating under contention, got {:.3}",
        small.counters.frac_nonspeculative()
    );
    let large = run(SchemeKind::Hle, LockKind::Ttas, 4096, OpMix::MODERATE, 8);
    assert!(
        large.counters.frac_nonspeculative() < small.counters.frac_nonspeculative(),
        "serialization must shrink with tree size ({:.3} vs {:.3})",
        large.counters.frac_nonspeculative(),
        small.counters.frac_nonspeculative()
    );
}

/// §6/§7: SCM restores speculation for fair locks — most operations
/// complete speculatively, and throughput beats plain HLE.
#[test]
fn claim_scm_rescues_mcs() {
    let hle = run(SchemeKind::Hle, LockKind::Mcs, 128, OpMix::MODERATE, 8);
    let scm = run(SchemeKind::HleScm, LockKind::Mcs, 128, OpMix::MODERATE, 8);
    assert!(
        scm.counters.frac_nonspeculative() < 0.3,
        "SCM should keep MCS speculative, got {:.3}",
        scm.counters.frac_nonspeculative()
    );
    assert!(
        scm.throughput > 1.5 * hle.throughput,
        "SCM should clearly beat plain HLE on MCS ({:.2} vs {:.2})",
        scm.throughput,
        hle.throughput
    );
}

/// §5/§7: SLR also rescues fair locks (higher concurrency, no lock in
/// the read set until commit).
#[test]
fn claim_slr_rescues_mcs() {
    let hle = run(SchemeKind::Hle, LockKind::Mcs, 128, OpMix::MODERATE, 8);
    let slr = run(SchemeKind::OptSlr, LockKind::Mcs, 128, OpMix::MODERATE, 8);
    assert!(
        slr.throughput > 1.5 * hle.throughput,
        "SLR should clearly beat plain HLE on MCS ({:.2} vs {:.2})",
        slr.throughput,
        hle.throughput
    );
}

/// §7.1: on a lookups-only workload with an unfair lock, plain HLE is
/// already good — the software schemes don't need to improve it.
#[test]
fn claim_lookup_only_ttas_hle_is_good_enough() {
    let hle = run(SchemeKind::Hle, LockKind::Ttas, 1024, OpMix::LOOKUP_ONLY, 8);
    let std = run(SchemeKind::Standard, LockKind::Ttas, 1024, OpMix::LOOKUP_ONLY, 8);
    assert!(
        hle.throughput > 2.0 * std.throughput,
        "HLE should shine on read-only workloads ({:.2} vs {:.2})",
        hle.throughput,
        std.throughput
    );
    assert!(hle.counters.frac_nonspeculative() < 0.1);
}

/// §7 (Figure 9): the software-assisted schemes scale with the thread
/// count on a 128-node tree, for both lock families.
#[test]
fn claim_software_schemes_scale() {
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for scheme in [SchemeKind::HleScm, SchemeKind::OptSlr] {
            let t1 = run(scheme, lock, 128, OpMix::MODERATE, 1);
            let t8 = run(scheme, lock, 128, OpMix::MODERATE, 8);
            assert!(
                t8.throughput > 1.5 * t1.throughput,
                "{scheme}/{lock}: no scaling ({:.2} -> {:.2})",
                t1.throughput,
                t8.throughput
            );
        }
    }
}

/// §7 (Figure 9): plain HLE over MCS does *not* scale — its 8-thread
/// gain is a small fraction of what SCM extracts from the same lock.
/// (Short quiescent windows let a little speculation through, here and
/// on hardware, so the 1→8 ratio is bounded rather than exactly 1.)
#[test]
fn claim_plain_hle_mcs_does_not_scale() {
    let t1 = run(SchemeKind::Hle, LockKind::Mcs, 128, OpMix::MODERATE, 1);
    let t8 = run(SchemeKind::Hle, LockKind::Mcs, 128, OpMix::MODERATE, 8);
    let hle_gain = t8.throughput / t1.throughput;
    assert!(
        hle_gain < 2.5,
        "HLE-MCS unexpectedly scaled ({:.2} -> {:.2})",
        t1.throughput,
        t8.throughput
    );
    let scm1 = run(SchemeKind::HleScm, LockKind::Mcs, 128, OpMix::MODERATE, 1);
    let scm8 = run(SchemeKind::HleScm, LockKind::Mcs, 128, OpMix::MODERATE, 8);
    let scm_gain = scm8.throughput / scm1.throughput;
    assert!(
        scm_gain > 1.6 * hle_gain,
        "SCM should scale far better than plain HLE on MCS ({scm_gain:.2} vs {hle_gain:.2})"
    );
}

/// §3.1/§7.1: spurious aborts alone trigger the MCS lemming effect even
/// on a read-only workload; SCM is immune.
#[test]
fn claim_spurious_aborts_trigger_fair_lock_lemming() {
    let htm = HtmConfig::deterministic().with_spurious(0.02, 0.0);
    let mut hle_spec =
        TreeBenchSpec::new(SchemeKind::Hle, LockKind::Mcs, 8, 512, OpMix::LOOKUP_ONLY);
    hle_spec.ops_per_thread = 250;
    hle_spec.htm = htm;
    let hle = run_tree_bench(&hle_spec);
    let mut scm_spec = hle_spec;
    scm_spec.scheme = SchemeKind::HleScm;
    let scm = run_tree_bench(&scm_spec);
    assert!(
        hle.counters.frac_nonspeculative() > 0.5,
        "spurious aborts should serialize HLE-MCS, got {:.3}",
        hle.counters.frac_nonspeculative()
    );
    assert!(
        scm.counters.frac_nonspeculative() < 0.2,
        "SCM should shrug off spurious aborts, got {:.3}",
        scm.counters.frac_nonspeculative()
    );
}

/// Appendix A: the unadapted ticket lock cannot elide (every elided
/// attempt fails the restore check), while the adapted one can.
#[test]
fn claim_unadapted_ticket_cannot_elide() {
    let adapted = run(SchemeKind::Hle, LockKind::Ticket, 256, OpMix::MODERATE, 4);
    let unadapted = run(SchemeKind::Hle, LockKind::TicketUnadapted, 256, OpMix::MODERATE, 4);
    assert_eq!(
        unadapted.counters.speculative, 0,
        "unadapted ticket lock must never commit speculatively"
    );
    assert!(adapted.counters.speculative > 0, "adapted ticket lock must elide");
}
