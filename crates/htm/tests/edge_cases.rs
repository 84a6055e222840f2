//! Edge cases of the transaction machinery that the scheme and lock
//! layers depend on but exercise only indirectly.

use elision_htm::{harness, AbortReason, HtmConfig, MemoryBuilder};

#[test]
fn empty_transaction_commits() {
    let mut b = MemoryBuilder::new();
    let _ = b.alloc(0);
    let mem = b.freeze(1);
    harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
        s.begin();
        s.commit().unwrap();
        assert_eq!(s.stats.commits, 1);
    });
}

#[test]
fn two_elided_locks_in_one_transaction() {
    // The true-nesting SCM variant can elide the main lock while the
    // (never-elided) aux lock stays untouched; more generally several
    // XACQUIREs may nest flatly. Both must be restored for commit.
    let mut b = MemoryBuilder::new();
    let lock_a = b.alloc_isolated(0);
    let lock_b = b.alloc_isolated(0);
    let mem = b.freeze(1);
    harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
        // Both restored: commits.
        s.begin();
        s.elide_rmw(lock_a, |_| 1).unwrap();
        s.elide_rmw(lock_b, |_| 1).unwrap();
        s.store(lock_b, 0).unwrap();
        s.store(lock_a, 0).unwrap();
        s.commit().unwrap();
        // Only one restored: restore check fails.
        s.begin();
        s.elide_rmw(lock_a, |_| 1).unwrap();
        s.elide_rmw(lock_b, |_| 1).unwrap();
        s.store(lock_a, 0).unwrap();
        let err = s.commit().unwrap_err();
        assert_eq!(err.reason, AbortReason::HleRestore);
        assert_eq!(s.memory().read_direct(lock_a), 0);
        assert_eq!(s.memory().read_direct(lock_b), 0);
    });
}

#[test]
fn rmw_on_elided_var_stays_an_illusion() {
    // The adapted ticket/CLH releases CAS the elided lock word back; the
    // CAS must operate on the illusion and must not promote the line into
    // the write set (which would make concurrent eliders conflict).
    let mut b = MemoryBuilder::new();
    let lock = b.alloc_isolated(7);
    let mem = b.freeze(2);
    let (results, mem, _) = harness::run(2, HtmConfig::deterministic(), 1, mem, move |s| {
        let r = s.attempt(|s| {
            let old = s.elide_rmw(lock, |v| v + 1)?;
            assert_eq!(old, 7);
            // Illusion visible to self...
            assert_eq!(s.load(lock)?, 8);
            // ...CAS it back on the illusion.
            let prev = s.cas(lock, 8, 7)?;
            assert_eq!(prev, 8);
            Ok(())
        });
        r.is_ok()
    });
    assert_eq!(results, vec![true, true], "concurrent elided CAS must not conflict");
    assert_eq!(mem.read_direct(lock), 7);
}

#[test]
fn nontransactional_read_does_not_doom_elider() {
    // An elided lock lives in the READ set only: a plain read of the lock
    // word (e.g. a TTAS arrival testing the lock) must not abort eliders.
    let mut b = MemoryBuilder::new();
    let lock = b.alloc_isolated(0);
    let mem = b.freeze(2);
    let (results, ..) = harness::run(2, HtmConfig::deterministic(), 1, mem, move |s| {
        if s.tid() == 0 {
            s.begin();
            s.elide_rmw(lock, |_| 1).unwrap();
            for _ in 0..100 {
                if s.work(5).is_err() {
                    return false;
                }
            }
            s.store(lock, 0).unwrap();
            s.commit().is_ok()
        } else {
            for _ in 0..40 {
                let v = s.load(lock).unwrap();
                assert_eq!(v, 0, "elided acquisition must stay invisible");
                s.work(10).unwrap();
            }
            true
        }
    });
    assert!(results[0], "plain reads of the lock doomed the elider");
}

#[test]
fn failed_nontxn_cas_still_dooms_speculative_writers() {
    // Even a CAS that loses still issued a coherence request for the
    // line: a speculative writer of that line must abort.
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(5);
    let mem = b.freeze(2);
    let (results, ..) = harness::run(2, HtmConfig::deterministic(), 1, mem, move |s| {
        if s.tid() == 0 {
            s.begin();
            s.store(x, 9).unwrap();
            for _ in 0..10_000 {
                if s.work(1).is_err() {
                    return Some(s.last_abort().reason);
                }
            }
            None
        } else {
            s.work(200).unwrap();
            let old = s.cas(x, 42, 43).unwrap(); // fails: x == 5
            assert_eq!(old, 5);
            None
        }
    });
    assert_eq!(results[0], Some(AbortReason::Conflict));
}

#[test]
fn stale_doom_does_not_kill_next_transaction() {
    // T1 aborts T0's transaction; T0's *next* transaction must be
    // unaffected by the stale doom word.
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let y = b.alloc_isolated(0);
    let mem = b.freeze(2);
    let (results, ..) = harness::run(2, HtmConfig::deterministic(), 1, mem, move |s| {
        if s.tid() == 0 {
            // First transaction: gets doomed.
            s.begin();
            s.load(x).unwrap();
            let mut doomed = false;
            for _ in 0..10_000 {
                if s.work(1).is_err() {
                    doomed = true;
                    break;
                }
            }
            assert!(doomed, "setup: first transaction should have been doomed");
            // Second transaction on unrelated data: must commit cleanly.
            let r = s.attempt(|s| {
                let v = s.load(y)?;
                s.store(y, v + 1)
            });
            r.is_ok()
        } else {
            s.work(200).unwrap();
            s.store(x, 1).unwrap();
            true
        }
    });
    assert!(results[0], "stale doom leaked into the next transaction");
}

#[test]
fn conflict_line_is_reported_in_abort_status() {
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let mem = b.freeze(2);
    let (results, mem, _) = harness::run(2, HtmConfig::deterministic(), 1, mem, move |s| {
        if s.tid() == 0 {
            s.begin();
            s.load(x).unwrap();
            for _ in 0..10_000 {
                if s.work(1).is_err() {
                    return s.last_abort().conflict_line;
                }
            }
            None
        } else {
            s.work(200).unwrap();
            s.store(x, 1).unwrap();
            None
        }
    });
    let expected = mem.line_of(x);
    assert_eq!(results[0], Some(expected.raw()), "abort status must name the conflicting line");
}

#[test]
fn work_and_spin_never_fail_outside_transactions() {
    let mut b = MemoryBuilder::new();
    let _ = b.alloc(0);
    let mem = b.freeze(1);
    harness::run(1, HtmConfig::deterministic().with_spurious(1.0, 1.0), 1, mem, move |s| {
        // Even with maximal spurious-abort settings, non-transactional
        // bookkeeping operations cannot fail.
        for _ in 0..100 {
            s.work(3).unwrap();
            s.spin().unwrap();
        }
    });
}
