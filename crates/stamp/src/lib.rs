//! STAMP-style application kernels over the simulated HTM.
//!
//! The paper's Figure 11 evaluates the elision schemes on the STAMP
//! benchmark suite with every transaction replaced by a critical section
//! under one global lock. This crate re-implements the eight evaluated
//! applications (bayes is excluded, as in the paper) as Rust kernels over
//! the simulated transactional memory. Each kernel preserves the original
//! application's *transaction profile* — length, read/write-set size and
//! contention level — which is what Figure 11's relative numbers depend
//! on:
//!
//! | kernel | txn length | r/w set | contention |
//! |---|---|---|---|
//! | genome | short | small | moderate (hash buckets) |
//! | intruder | short | small | high (shared queues) |
//! | kmeans-high | short | small | high (few centroids) |
//! | kmeans-low | short | small | low (many centroids) |
//! | labyrinth | very long | large | low-moderate (path overlap) |
//! | yada | long | medium | moderate (cavity overlap) |
//! | ssca2 | tiny | tiny | very low |
//! | vacation-high | medium | medium | moderate |
//! | vacation-low | medium | small | low |
//!
//! Every kernel ships a cheap `verify` that checks a conservation
//! property of the final state against the generated input, so the whole
//! Figure 11 pipeline is self-checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod genome;
mod intruder;
mod kmeans;
mod labyrinth;
mod runner;
mod ssca2;
mod util;
mod vacation;
mod yada;

pub use runner::{build_kernel, run_kernel, Kernel, KernelKind, StampParams, StampRun};

#[cfg(test)]
mod tests {
    use super::*;
    use elision_core::{LockKind, SchemeKind};
    use elision_htm::HtmConfig;

    fn quick_run(kind: KernelKind, scheme: SchemeKind, lock: LockKind, threads: usize) -> StampRun {
        run_kernel(kind, scheme, lock, threads, &StampParams::quick(), HtmConfig::deterministic())
    }

    #[test]
    fn every_kernel_verifies_single_threaded_standard() {
        for kind in KernelKind::ALL {
            let run = quick_run(kind, SchemeKind::Standard, LockKind::Ttas, 1);
            assert!(run.makespan > 0, "{kind} did no work");
            assert_eq!(run.counters.speculative, 0);
        }
    }

    #[test]
    fn every_kernel_verifies_under_hle_scm_mcs() {
        for kind in KernelKind::ALL {
            let run = quick_run(kind, SchemeKind::HleScm, LockKind::Mcs, 4);
            assert!(run.counters.completed() > 0, "{kind} completed nothing");
        }
    }

    #[test]
    fn every_kernel_verifies_under_opt_slr_ttas() {
        for kind in KernelKind::ALL {
            let run = quick_run(kind, SchemeKind::OptSlr, LockKind::Ttas, 4);
            assert!(run.counters.completed() > 0, "{kind} completed nothing");
        }
    }

    #[test]
    fn every_kernel_verifies_under_plain_hle() {
        for kind in KernelKind::ALL {
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                let run = quick_run(kind, SchemeKind::Hle, lock, 2);
                assert!(run.counters.completed() > 0, "{kind}/{lock} completed nothing");
            }
        }
    }

    #[test]
    fn kmeans_contention_profiles_differ() {
        // High contention (few clusters) must abort more than low
        // contention (many clusters) under the same scheme.
        let high = quick_run(KernelKind::KmeansHigh, SchemeKind::OptSlr, LockKind::Ttas, 4);
        let low = quick_run(KernelKind::KmeansLow, SchemeKind::OptSlr, LockKind::Ttas, 4);
        assert!(
            high.counters.aborted >= low.counters.aborted,
            "kmeans_high aborted {} < kmeans_low {}",
            high.counters.aborted,
            low.counters.aborted
        );
    }

    #[test]
    fn ssca2_is_mostly_conflict_free() {
        let run = quick_run(KernelKind::Ssca2, SchemeKind::OptSlr, LockKind::Ttas, 4);
        assert!(
            run.counters.frac_nonspeculative() < 0.1,
            "ssca2 should run speculatively (frac_nonspec {})",
            run.counters.frac_nonspeculative()
        );
    }

    #[test]
    fn labyrinth_has_long_transactions() {
        // Routing transactions read large grid regions: per-completed-op
        // simulated time must dwarf ssca2's tiny transactions.
        let lab = quick_run(KernelKind::Labyrinth, SchemeKind::Standard, LockKind::Ttas, 2);
        let ssca = quick_run(KernelKind::Ssca2, SchemeKind::Standard, LockKind::Ttas, 2);
        let per_op = |r: &StampRun| r.makespan as f64 / r.counters.completed() as f64;
        assert!(per_op(&lab) > 5.0 * per_op(&ssca));
    }

    #[test]
    fn runs_are_deterministic_in_strict_mode() {
        let a = quick_run(KernelKind::Genome, SchemeKind::HleScm, LockKind::Mcs, 3);
        let b = quick_run(KernelKind::Genome, SchemeKind::HleScm, LockKind::Mcs, 3);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.counters, b.counters);
    }
}
