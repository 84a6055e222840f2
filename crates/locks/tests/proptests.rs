//! Property-based tests: mutual exclusion and elision safety for every
//! lock family under randomized critical-section lengths, thread counts
//! and seeded fault plans.

use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_locks::{ClhLock, McsLock, RawLock, TicketLock, TtasLock};
use elision_sim::FaultPlan;
use proptest::prelude::*;
use std::sync::Arc;

fn build_lock(kind: u8, b: &mut MemoryBuilder, threads: usize) -> Arc<dyn RawLock> {
    match kind % 4 {
        0 => Arc::new(TtasLock::new(b)),
        1 => Arc::new(McsLock::new(b, threads)),
        2 => Arc::new(TicketLock::new(b, threads)),
        _ => Arc::new(ClhLock::new(b, threads)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Non-atomic read-modify-write inside the lock must never lose an
    /// update, for any lock, any CS length, any thread count, with or
    /// without seeded preemption and clock jitter.
    #[test]
    fn mutual_exclusion(
        kind in 0u8..4,
        threads in 2usize..6,
        cs_work in 0u64..24,
        ops in 10u64..60,
        faulted in any::<bool>(),
        fault_seed in 0u64..1_000,
    ) {
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let lock = build_lock(kind, &mut b, threads);
        let mem = Arc::new(b.freeze(threads));
        let plan = if faulted {
            FaultPlan::none().with_preempt(300, 1_000).with_jitter(300).with_seed(fault_seed)
        } else {
            FaultPlan::none()
        };
        let cfg = HtmConfig::deterministic();
        harness::run_arc_faulted(threads, cfg, 5, plan, Arc::clone(&mem), move |s| {
            for _ in 0..ops {
                lock.acquire(s).unwrap();
                let v = s.load(counter).unwrap();
                s.work(cs_work).unwrap();
                s.store(counter, v + 1).unwrap();
                lock.release(s).unwrap();
            }
        });
        prop_assert_eq!(mem.read_direct(counter), threads as u64 * ops);
    }

    /// Elided critical sections never leak lock-word changes: after any
    /// number of solo elided round trips, the lock still reports free and
    /// a plain acquire/release pair still works.
    #[test]
    fn elision_restores_lock_state(kind in 0u8..4, rounds in 1usize..20) {
        let mut b = MemoryBuilder::new();
        let data = b.alloc_isolated(0);
        let lock = build_lock(kind, &mut b, 1);
        let mem = b.freeze(1);
        harness::run(1, HtmConfig::deterministic(), 5, mem, move |s| {
            for _ in 0..rounds {
                let r = s.attempt(|s| {
                    lock.elided_acquire(s)?;
                    let v = s.load(data)?;
                    s.store(data, v + 1)?;
                    lock.elided_release(s)?;
                    Ok(())
                });
                assert!(r.is_ok(), "solo elision must commit");
                assert!(!lock.is_locked(s).unwrap(), "lock state leaked by elision");
            }
            lock.acquire(s).unwrap();
            assert!(lock.is_locked(s).unwrap());
            lock.release(s).unwrap();
            assert!(!lock.is_locked(s).unwrap());
            assert_eq!(s.load(data).unwrap(), rounds as u64);
        });
    }

    /// Mixing elided and non-speculative users of the same lock is safe:
    /// eliders either commit without the lock or fall back; counts add up.
    #[test]
    fn mixed_elided_and_standard_users(
        kind in 0u8..4,
        threads in 2usize..5,
        ops in 10u64..40,
    ) {
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let lock = build_lock(kind, &mut b, threads);
        let mem = b.freeze(threads);
        let (_, mem, _) = harness::run(threads, HtmConfig::deterministic(), 5, mem, move |s| {
            for _ in 0..ops {
                if s.tid() % 2 == 0 {
                    // Speculative user with a fallback loop.
                    let r = s.attempt(|s| {
                        lock.elided_acquire(s)?;
                        let v = s.load(counter)?;
                        s.store(counter, v + 1)?;
                        lock.elided_release(s)?;
                        Ok(())
                    });
                    if r.is_err() {
                        lock.acquire(s).unwrap();
                        let v = s.load(counter).unwrap();
                        s.store(counter, v + 1).unwrap();
                        lock.release(s).unwrap();
                    }
                } else {
                    lock.acquire(s).unwrap();
                    let v = s.load(counter).unwrap();
                    s.work(5).unwrap();
                    s.store(counter, v + 1).unwrap();
                    lock.release(s).unwrap();
                }
            }
        });
        prop_assert_eq!(mem.read_direct(counter), threads as u64 * ops);
    }
}
