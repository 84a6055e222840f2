//! **Software-improved hardware lock elision** (Afek, Levy, Morrison —
//! PODC 2014), reproduced over a simulated best-effort HTM.
//!
//! Hardware lock elision runs lock-protected critical sections as
//! hardware transactions, but a single abort forces a real lock
//! acquisition that conflicts with the lock word in every concurrent
//! transaction's read set — serializing everything (the *lemming
//! effect*). This crate implements the paper's two software remedies:
//!
//! * **SLR** (software-assisted lock removal): transactions never touch
//!   the lock until commit time, when they read it and self-abort if it
//!   is held. Higher concurrency, sacrifices opacity (safely: doomed
//!   transactions are sandboxed and can never commit).
//! * **SCM** (software-assisted conflict management): aborted threads
//!   serialize on an auxiliary lock and rejoin the speculative run,
//!   leaving non-conflicting threads undisturbed. Retains opacity, works
//!   with fair locks, and provides the first starvation-free HLE scheme.
//!
//! alongside the baselines the paper compares against (plain HLE,
//! HLE-with-retries, standard locking) and over the four lock families it
//! discusses (TTAS, MCS, HLE-adapted ticket and CLH).
//!
//! # Example
//!
//! ```
//! use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind};
//! use elision_htm::{harness, HtmConfig, MemoryBuilder};
//!
//! let threads = 4;
//! let mut b = MemoryBuilder::new();
//! let counter = b.alloc_isolated(0);
//! let scheme = make_scheme(
//!     SchemeKind::HleScm,
//!     LockKind::Mcs,
//!     SchemeConfig::paper(),
//!     &mut b,
//!     threads,
//! );
//! let mem = b.freeze(threads);
//! let (_, mem, _) = harness::run(threads, HtmConfig::deterministic(), 1, mem, move |s| {
//!     for _ in 0..100 {
//!         scheme.execute(s, |s| {
//!             let v = s.load(counter)?;
//!             s.store(counter, v + 1)
//!         });
//!     }
//! });
//! assert_eq!(mem.read_direct(counter), 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod factory;
mod scheme;
mod watchdog;

pub use factory::{make_grouped_scm, make_lock, make_scheme, make_scheme_with_aux, LockKind};
pub use scheme::{
    BackoffPolicy, BreakerConfig, ExecOutcome, LazyMode, Scheme, SchemeConfig, SchemeError,
    SchemeKind,
};
pub use watchdog::{LatencyHistogram, Watchdog};

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::{harness, HtmConfig, MemoryBuilder, VarId};
    use elision_sim::{FaultPlan, OpCounters};
    use std::sync::Arc;

    /// Run `threads` threads under the fault plan `faults`, each
    /// performing `ops` non-atomic increments of a shared counter under
    /// the scheme; return (final counter, summed counters).
    fn counter_stress(
        scheme_kind: SchemeKind,
        lock: LockKind,
        threads: usize,
        ops: u64,
        faults: FaultPlan,
    ) -> (u64, OpCounters) {
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let scheme = make_scheme(scheme_kind, lock, SchemeConfig::paper(), &mut b, threads);
        let mem = Arc::new(b.freeze(threads));
        let cfg = HtmConfig::deterministic();
        let (results, ..) =
            harness::run_arc_faulted(threads, cfg, 3, faults, Arc::clone(&mem), move |s| {
                for _ in 0..ops {
                    scheme.execute(s, |s| {
                        let v = s.load(counter)?;
                        s.work(3)?;
                        s.store(counter, v + 1)
                    });
                }
                s.counters
            });
        (mem.read_direct(counter), OpCounters::sum(results.iter()))
    }

    #[test]
    fn every_scheme_preserves_atomicity_on_ttas() {
        for kind in SchemeKind::ALL {
            let (count, c) = counter_stress(kind, LockKind::Ttas, 4, 50, FaultPlan::none());
            assert_eq!(count, 200, "{kind} lost updates");
            assert_eq!(c.completed(), 200, "{kind} miscounted completions");
        }
    }

    #[test]
    fn every_scheme_preserves_atomicity_on_mcs() {
        for kind in SchemeKind::ALL {
            let (count, c) = counter_stress(kind, LockKind::Mcs, 4, 50, FaultPlan::none());
            assert_eq!(count, 200, "{kind} lost updates");
            assert_eq!(c.completed(), 200, "{kind} miscounted completions");
        }
    }

    #[test]
    fn every_scheme_preserves_atomicity_on_adapted_fair_locks() {
        for lock in [LockKind::Ticket, LockKind::Clh] {
            for kind in [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr] {
                let (count, _) = counter_stress(kind, lock, 3, 40, FaultPlan::none());
                assert_eq!(count, 120, "{kind} over {lock} lost updates");
            }
        }
    }

    /// Seeded preemption and jitter make the threads' clocks lag one
    /// another by up to a preemption pause.
    #[test]
    fn schemes_survive_bounded_lag_windows() {
        let faults = FaultPlan::none().with_preempt(250, 1_200).with_jitter(300).with_seed(48);
        for kind in SchemeKind::ALL {
            let (count, _) = counter_stress(kind, LockKind::Ttas, 6, 40, faults);
            assert_eq!(count, 240, "{kind} lost updates under preemption and jitter");
        }
    }

    #[test]
    fn standard_scheme_is_fully_nonspeculative() {
        let (_, c) = counter_stress(SchemeKind::Standard, LockKind::Mcs, 3, 30, FaultPlan::none());
        assert_eq!(c.nonspeculative, 90);
        assert_eq!(c.speculative, 0);
        assert_eq!(c.aborted, 0);
        assert!((c.attempts_per_op() - 1.0).abs() < 1e-12);
    }

    /// Disjoint per-thread data: elision schemes must run everything
    /// speculatively (no conflicts, no spurious aborts configured).
    fn disjoint_stress(scheme_kind: SchemeKind, lock: LockKind) -> OpCounters {
        let threads = 4;
        let mut b = MemoryBuilder::new();
        let slots: Vec<VarId> = (0..threads).map(|_| b.alloc_isolated(0)).collect();
        let scheme = make_scheme(scheme_kind, lock, SchemeConfig::paper(), &mut b, threads);
        let mem = b.freeze(threads);
        let (results, mem, _) =
            harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
                let my = slots[s.tid()];
                for _ in 0..60 {
                    scheme.execute(s, |s| {
                        let v = s.load(my)?;
                        s.work(4)?;
                        s.store(my, v + 1)
                    });
                }
                s.counters
            });
        for t in 0..threads {
            // slots were captured; re-derive per-thread totals from memory
            let _ = t;
        }
        drop(mem);
        OpCounters::sum(results.iter())
    }

    #[test]
    fn conflict_free_workloads_stay_fully_speculative() {
        for kind in [
            SchemeKind::Hle,
            SchemeKind::HleRetries,
            SchemeKind::HleScm,
            SchemeKind::OptSlr,
            SchemeKind::SlrScm,
        ] {
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                let c = disjoint_stress(kind, lock);
                assert_eq!(c.nonspeculative, 0, "{kind}/{lock} serialized needlessly");
                assert_eq!(c.speculative, 240);
                assert_eq!(c.aborted, 0, "{kind}/{lock} aborted without conflicts");
            }
        }
    }

    #[test]
    fn slr_commits_across_a_nonspeculative_critical_section() {
        // T0 holds the real lock for a long, disjoint critical section;
        // T1 (opt SLR) starts speculating meanwhile and must be able to
        // commit once T0 releases — without T0's acquisition aborting it
        // (lock removal's whole point). We verify T1 completed
        // speculatively.
        let mut b = MemoryBuilder::new();
        let a = b.alloc_isolated(0);
        let z = b.alloc_isolated(0);
        let main = make_lock(LockKind::Ttas, &mut b, 2);
        let standard = Arc::new(
            Scheme::new(SchemeKind::Standard, SchemeConfig::paper(), Arc::clone(&main), None)
                .expect("Standard needs no aux lock"),
        );
        let slr = Arc::new(
            Scheme::new(SchemeKind::OptSlr, SchemeConfig::paper(), Arc::clone(&main), None)
                .expect("OptSlr needs no aux lock"),
        );
        let mem = b.freeze(2);
        let (results, mem, _) = harness::run(2, HtmConfig::deterministic(), 3, mem, move |s| {
            if s.tid() == 0 {
                let out = standard.execute(s, |s| {
                    let v = s.load(a)?;
                    s.work(500)?;
                    s.store(a, v + 1)
                });
                (out.nonspeculative, out.attempts)
            } else {
                s.work(100).unwrap();
                let out = slr.execute(s, |s| {
                    let v = s.load(z)?;
                    s.work(30)?;
                    s.store(z, v + 1)
                });
                (out.nonspeculative, out.attempts)
            }
        });
        assert!(results[0].0, "T0 ran under the real lock");
        assert!(!results[1].0, "SLR thread should have committed speculatively");
        assert_eq!(mem.read_direct(a), 1);
        assert_eq!(mem.read_direct(z), 1);
    }

    #[test]
    fn hle_on_mcs_serializes_after_one_abort_scm_recovers() {
        // A moderately conflicting workload: threads mostly touch private
        // slots but hit a shared word every 4th op. Plain HLE over MCS
        // must degenerate to (almost) fully non-speculative execution,
        // while HLE-SCM keeps most operations speculative — the paper's
        // central claim (Figures 2 and 10).
        fn run(kind: SchemeKind) -> OpCounters {
            let threads = 4;
            let ops = 120u64;
            let mut b = MemoryBuilder::new();
            let shared = b.alloc_isolated(0);
            let slots: Vec<VarId> = (0..threads).map(|_| b.alloc_isolated(0)).collect();
            let scheme = make_scheme(kind, LockKind::Mcs, SchemeConfig::paper(), &mut b, threads);
            let mem = b.freeze(threads);
            let (results, ..) =
                harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
                    let my = slots[s.tid()];
                    for i in 0..ops {
                        scheme.execute(s, |s| {
                            let target = if i % 4 == 0 { shared } else { my };
                            let v = s.load(target)?;
                            s.work(6)?;
                            s.store(target, v + 1)
                        });
                    }
                    s.counters
                });
            OpCounters::sum(results.iter())
        }
        let hle = run(SchemeKind::Hle);
        let scm = run(SchemeKind::HleScm);
        assert!(
            hle.frac_nonspeculative() > 0.5,
            "HLE-MCS should suffer the lemming effect (got {:.2})",
            hle.frac_nonspeculative()
        );
        assert!(
            scm.frac_nonspeculative() < 0.2,
            "HLE-SCM should restore speculation (got {:.2})",
            scm.frac_nonspeculative()
        );
        assert!(scm.frac_nonspeculative() < hle.frac_nonspeculative());
    }

    #[test]
    fn scm_true_nesting_variant_works() {
        let threads = 4;
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let cfg = SchemeConfig { scm_true_nesting: true, ..SchemeConfig::paper() };
        let scheme = make_scheme(SchemeKind::HleScm, LockKind::Mcs, cfg, &mut b, threads);
        let mem = b.freeze(threads);
        let (_, mem, _) = harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
            for _ in 0..50 {
                scheme.execute(s, |s| {
                    let v = s.load(counter)?;
                    s.store(counter, v + 1)
                });
            }
        });
        assert_eq!(mem.read_direct(counter), 200);
    }

    #[test]
    fn scm_with_unfair_aux_still_correct() {
        let threads = 4;
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let scheme = make_scheme_with_aux(
            SchemeKind::SlrScm,
            LockKind::Ttas,
            LockKind::Ttas,
            SchemeConfig::paper(),
            &mut b,
            threads,
        );
        let mem = b.freeze(threads);
        let (_, mem, _) = harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
            for _ in 0..50 {
                scheme.execute(s, |s| {
                    let v = s.load(counter)?;
                    s.store(counter, v + 1)
                });
            }
        });
        assert_eq!(mem.read_direct(counter), 200);
    }

    #[test]
    fn outcome_reports_attempts() {
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(0);
        let scheme =
            make_scheme(SchemeKind::Standard, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
        let mem = b.freeze(1);
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            let out = scheme.execute(s, |s| s.store(x, 1));
            assert_eq!(out.attempts, 1);
            assert!(out.nonspeculative);
        });
    }

    #[test]
    fn schemes_tolerate_spurious_abort_storms() {
        // 20% of transactions spuriously abort: every scheme must still
        // complete all operations correctly (failure injection).
        let threads = 4;
        let ops = 40u64;
        for kind in [
            SchemeKind::Hle,
            SchemeKind::HleRetries,
            SchemeKind::HleScm,
            SchemeKind::OptSlr,
            SchemeKind::SlrScm,
        ] {
            let mut b = MemoryBuilder::new();
            let counter = b.alloc_isolated(0);
            let scheme = make_scheme(kind, LockKind::Mcs, SchemeConfig::paper(), &mut b, threads);
            let mem = b.freeze(threads);
            let cfg = HtmConfig::deterministic().with_spurious(0.2, 0.001);
            let (_, mem, _) = harness::run(threads, cfg, 9, mem, move |s| {
                for _ in 0..ops {
                    scheme.execute(s, |s| {
                        let v = s.load(counter)?;
                        s.store(counter, v + 1)
                    });
                }
            });
            assert_eq!(
                mem.read_direct(counter),
                threads as u64 * ops,
                "{kind} under spurious storm"
            );
        }
    }

    #[test]
    fn grouped_scm_is_correct_under_contention() {
        let threads = 6;
        let mut b = MemoryBuilder::new();
        let counters: Vec<VarId> = (0..4).map(|_| b.alloc_isolated(0)).collect();
        let scheme = make_grouped_scm(LockKind::Mcs, 4, SchemeConfig::paper(), &mut b, threads);
        let mem = b.freeze(threads);
        let counters2 = counters.clone();
        let (_, mem, _) = harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
            for i in 0..60u64 {
                let target = counters2[(s.tid() as u64 + i) as usize % counters2.len()];
                scheme.execute(s, |s| {
                    let v = s.load(target)?;
                    s.work(4)?;
                    s.store(target, v + 1)
                });
            }
        });
        let total: u64 = counters.iter().map(|&c| mem.read_direct(c)).sum();
        assert_eq!(total, threads as u64 * 60);
    }

    #[test]
    fn grouped_scm_outperforms_single_aux_on_partitioned_conflicts() {
        // Four independent hot words with long critical sections: the
        // regime where partitioning the serializing path pays off (the
        // `ablation_grouped` binary maps the full spectrum, including
        // regimes where grouping loses).
        fn run(grouped: bool) -> u64 {
            let threads = 8;
            let ops = 80u64;
            let mut b = MemoryBuilder::new();
            let hot: Vec<VarId> = (0..4).map(|_| b.alloc_isolated(0)).collect();
            let scheme = if grouped {
                make_grouped_scm(LockKind::Ttas, 16, SchemeConfig::paper(), &mut b, threads)
            } else {
                make_scheme(
                    SchemeKind::HleScm,
                    LockKind::Ttas,
                    SchemeConfig::paper(),
                    &mut b,
                    threads,
                )
            };
            let mem = b.freeze(threads);
            let hot2 = hot.clone();
            let (_, mem, makespan) =
                harness::run(threads, HtmConfig::deterministic(), 3, mem, move |s| {
                    // Threads pair up on a hot word: 0,4 -> word 0; ...
                    let target = hot2[s.tid() % hot2.len()];
                    for _ in 0..ops {
                        scheme.execute(s, |s| {
                            let v = s.load(target)?;
                            s.work(80)?;
                            s.store(target, v + 1)
                        });
                    }
                });
            let total: u64 = hot.iter().map(|&h| mem.read_direct(h)).sum();
            assert_eq!(total, threads as u64 * ops, "lost updates");
            makespan
        }
        let single = run(false);
        let grouped = run(true);
        assert!(
            grouped < single,
            "grouped SCM should finish sooner on partitioned conflicts ({grouped} vs {single})"
        );
    }

    #[test]
    fn scm_without_aux_is_a_typed_error() {
        let mut b = MemoryBuilder::new();
        let main = make_lock(LockKind::Ttas, &mut b, 2);
        for kind in [SchemeKind::HleScm, SchemeKind::SlrScm, SchemeKind::GroupedScm] {
            let err = Scheme::new(kind, SchemeConfig::paper(), Arc::clone(&main), None)
                .expect_err("SCM without aux must be rejected");
            assert_eq!(err, SchemeError::MissingAuxLock(kind));
            assert!(err.to_string().contains("auxiliary lock"), "useful message: {err}");
        }
        let err = Scheme::new_grouped(SchemeConfig::paper(), Arc::clone(&main), Vec::new())
            .expect_err("grouped SCM without aux must be rejected");
        assert_eq!(err, SchemeError::NoAuxLocks);
        // Non-SCM kinds never need the aux lock.
        assert!(Scheme::new(SchemeKind::Hle, SchemeConfig::paper(), main, None).is_ok());
    }

    #[test]
    fn out_of_range_breaker_config_is_a_typed_error() {
        let mut b = MemoryBuilder::new();
        let main = make_lock(LockKind::Ttas, &mut b, 2);
        // trip_permille above 1000 can never trip: the window's abort
        // fraction is at most 1000 permille.
        let mut cfg = SchemeConfig::hardened();
        cfg.breaker =
            Some(BreakerConfig { trip_permille: 1001, ..BreakerConfig::default_policy() });
        let err = Scheme::new(SchemeKind::Hle, cfg, Arc::clone(&main), None)
            .expect_err("untrippable breaker threshold must be rejected");
        assert_eq!(err, SchemeError::InvalidConfig { knob: "breaker.trip_permille", value: 1001 });
        assert!(err.to_string().contains("trip_permille"), "useful message: {err}");

        let mut cfg = SchemeConfig::hardened();
        cfg.breaker = Some(BreakerConfig { window_attempts: 0, ..BreakerConfig::default_policy() });
        let err = Scheme::new_grouped(cfg, Arc::clone(&main), vec![Arc::clone(&main)])
            .expect_err("empty breaker window must be rejected");
        assert_eq!(err, SchemeError::InvalidConfig { knob: "breaker.window_attempts", value: 0 });

        // The boundary (trip at exactly 1000 permille = only when every
        // attempt aborted) and the presets are valid.
        let mut cfg = SchemeConfig::hardened();
        cfg.breaker =
            Some(BreakerConfig { trip_permille: 1000, ..BreakerConfig::default_policy() });
        assert!(Scheme::new(SchemeKind::Hle, cfg, Arc::clone(&main), None).is_ok());
        assert_eq!(SchemeConfig::paper().validate(), Ok(()));
        assert_eq!(SchemeConfig::hardened().validate(), Ok(()));
    }

    /// Like `counter_stress` but with an arbitrary scheme config and HTM
    /// fault injection; returns (counter value, summed counters, scheme).
    fn chaos_counter_stress(
        scheme_kind: SchemeKind,
        lock: LockKind,
        scheme_cfg: SchemeConfig,
        faults: elision_htm::HtmFaults,
        threads: usize,
        ops: u64,
    ) -> (u64, OpCounters, Arc<Scheme>) {
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let scheme = make_scheme(scheme_kind, lock, scheme_cfg, &mut b, threads);
        let mem = b.freeze(threads);
        let cfg = HtmConfig::deterministic().with_faults(faults);
        let scheme2 = Arc::clone(&scheme);
        let (results, mem, _) = harness::run(threads, cfg, 7, mem, move |s| {
            for _ in 0..ops {
                scheme2.execute(s, |s| {
                    let v = s.load(counter)?;
                    s.work(3)?;
                    s.store(counter, v + 1)
                });
            }
            s.counters
        });
        (mem.read_direct(counter), OpCounters::sum(results.iter()), scheme)
    }

    #[test]
    fn hardened_config_stays_correct_under_abort_storms() {
        let faults = elision_htm::HtmFaults::none().with_storm(4000, 1500, 800);
        for kind in SchemeKind::ALL {
            for cfg in [SchemeConfig::paper(), SchemeConfig::hardened()] {
                let (count, c) = {
                    let (count, c, _) =
                        chaos_counter_stress(kind, LockKind::Mcs, cfg, faults, 4, 40);
                    (count, c)
                };
                assert_eq!(count, 160, "{kind} lost updates under storm (cfg {cfg:?})");
                assert_eq!(c.completed(), 160, "{kind} miscounted under storm");
            }
        }
    }

    #[test]
    fn breaker_trips_under_sustained_storm_and_stays_quiet_without() {
        let cfg = SchemeConfig {
            breaker: Some(BreakerConfig {
                window_attempts: 16,
                trip_permille: 600,
                cooldown_ops: 8,
            }),
            ..SchemeConfig::paper()
        };
        // Permanent storm: nearly every speculative attempt aborts.
        let storm = elision_htm::HtmFaults::none().with_storm(10, 10, 950);
        let (count, _, scheme) =
            chaos_counter_stress(SchemeKind::HleRetries, LockKind::Mcs, cfg, storm, 4, 60);
        assert_eq!(count, 240, "lost updates under permanent storm");
        assert!(scheme.breaker_trips() > 0, "breaker never tripped under a 95% abort storm");

        // No faults: conflict-heavy but mostly-committing workload must
        // not trip a 60%-abort-rate breaker.
        let calm = elision_htm::HtmFaults::none();
        let (count, _, scheme) =
            chaos_counter_stress(SchemeKind::HleScm, LockKind::Mcs, cfg, calm, 2, 40);
        assert_eq!(count, 80);
        assert_eq!(scheme.breaker_trips(), 0, "breaker tripped on a calm run");
    }

    #[test]
    fn backoff_preserves_atomicity_and_adds_no_attempts_when_calm() {
        let cfg = SchemeConfig {
            backoff: Some(BackoffPolicy {
                base_cycles: 32,
                max_cycles: 2048,
                jitter_permille: 500,
            }),
            ..SchemeConfig::paper()
        };
        let faults = elision_htm::HtmFaults::none().with_hot_line(0, 300);
        for kind in [SchemeKind::HleRetries, SchemeKind::OptSlr, SchemeKind::SlrScm] {
            let (count, c, _) = chaos_counter_stress(kind, LockKind::Ttas, cfg, faults, 4, 40);
            assert_eq!(count, 160, "{kind} lost updates with backoff under hot line");
            assert_eq!(c.completed(), 160);
        }
    }

    #[test]
    fn backoff_delays_grow_then_cap() {
        let bp = BackoffPolicy { base_cycles: 100, max_cycles: 1000, jitter_permille: 0 };
        let mut rng = elision_sim::DetRng::new(1, 1);
        assert_eq!(bp.delay(1, &mut rng), 100);
        assert_eq!(bp.delay(2, &mut rng), 200);
        assert_eq!(bp.delay(3, &mut rng), 400);
        assert_eq!(bp.delay(5, &mut rng), 1000, "capped");
        assert_eq!(bp.delay(64, &mut rng), 1000, "shift-overflow saturates at the cap");
        let jittered = BackoffPolicy { jitter_permille: 1000, ..bp };
        for attempt in 1..=8 {
            let d = jittered.delay(attempt, &mut rng);
            let raw = (100u64 << (attempt - 1).min(48)).min(1000);
            assert!(d >= raw && d <= 2 * raw, "jitter within [raw, 2*raw]: {d} vs {raw}");
        }
    }

    #[test]
    fn capacity_overflow_falls_back_to_lock() {
        // A critical section writing more lines than the write set can
        // hold must complete non-speculatively under every elision scheme.
        let mut b = MemoryBuilder::new().words_per_line(1);
        let vars = b.alloc_array(32, 0);
        b.pad_to_line();
        let scheme =
            make_scheme(SchemeKind::OptSlr, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
        let mem = b.freeze(1);
        let cfg = HtmConfig::deterministic().with_capacity(64, 8);
        harness::run(1, cfg, 1, mem, move |s| {
            let out = scheme.execute(s, |s| {
                for k in 0..32 {
                    s.store(VarId::from_index(vars.index() + k), 1)?;
                }
                Ok(())
            });
            assert!(out.nonspeculative, "capacity overflow must fall back");
            // SLR status tuning: capacity aborts skip the retry budget.
            assert_eq!(out.attempts, 2, "status tuning should give up immediately");
        });
    }
}
