//! The test-and-test-and-set spinlock (paper Figure 1).

use crate::{FallbackOutcome, RawLock, TXN_SPIN_BUDGET};
use elision_htm::{codes, HwSubscription, MemoryBuilder, Strand, TxResult, VarId};

const FREE: u64 = 0;
const HELD: u64 = 1;

/// A TTAS spinlock over one simulated word (0 = free, 1 = held).
///
/// Under elision this is the paper's Figure 1: the test-and-set is
/// `XACQUIRE`-prefixed, so a successful acquisition only places the lock
/// word in the transaction's read set, and the release (restoring 0)
/// elides the write entirely.
#[derive(Debug)]
pub struct TtasLock {
    word: VarId,
}

impl TtasLock {
    /// Allocate a TTAS lock on its own cache line.
    pub fn new(b: &mut MemoryBuilder) -> Self {
        TtasLock { word: b.alloc_lock_word(FREE) }
    }

    /// The lock word (for tests and instrumentation).
    pub fn word(&self) -> VarId {
        self.word
    }
}

impl RawLock for TtasLock {
    fn acquire(&self, s: &mut Strand) -> TxResult<()> {
        loop {
            // Test...
            s.spin_until(self.word, TXN_SPIN_BUDGET, |v| v == FREE)?;
            // ...and test-and-set.
            if s.swap(self.word, HELD)? == FREE {
                s.note_lock_acquire(self.word);
                return Ok(());
            }
        }
    }

    fn release(&self, s: &mut Strand) -> TxResult<()> {
        s.store(self.word, FREE)?;
        s.note_lock_release(self.word);
        Ok(())
    }

    fn is_locked(&self, s: &mut Strand) -> TxResult<bool> {
        Ok(s.load(self.word)? == HELD)
    }

    fn elided_acquire(&self, s: &mut Strand) -> TxResult<()> {
        let old = s.elide_rmw(self.word, |_| HELD)?;
        if old != FREE {
            // The elided TAS observed the lock held: on hardware the
            // thread would spin inside the transaction until the holder's
            // release doomed it; we abort straight away.
            return Err(s.xabort(codes::LOCK_BUSY, true));
        }
        Ok(())
    }

    fn elided_release(&self, s: &mut Strand) -> TxResult<()> {
        s.store(self.word, FREE)
    }

    fn fallback_acquire(&self, s: &mut Strand) -> TxResult<FallbackOutcome> {
        // Re-execute the TAS non-transactionally, exactly once: this is
        // the globally visible store that dooms every eliding peer.
        if s.swap(self.word, HELD)? == FREE {
            s.note_lock_acquire(self.word);
            Ok(FallbackOutcome::Acquired)
        } else {
            Ok(FallbackOutcome::Busy)
        }
    }

    fn lock_word(&self) -> VarId {
        self.word
    }

    fn hw_subscription(&self) -> Option<HwSubscription> {
        Some(HwSubscription::ValueIs { word: self.word, free: FREE })
    }

    fn wait_until_free(&self, s: &mut Strand) -> TxResult<()> {
        s.spin_until(self.word, TXN_SPIN_BUDGET, |v| v == FREE)
    }

    fn name(&self) -> &'static str {
        "TTAS"
    }

    fn is_fair(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use elision_htm::{harness, HtmConfig, MemoryBuilder};
    use elision_sim::FaultPlan;
    use std::sync::Arc;

    #[test]
    fn provides_mutual_exclusion() {
        let (count, _) =
            testutil::mutex_stress::<TtasLock, _>(4, 200, FaultPlan::none(), |b, _| {
                TtasLock::new(b)
            });
        assert_eq!(count, 800);
    }

    /// The seeded fault plan makes the threads' clocks lag one another by
    /// up to a preemption pause, so lock handoffs land at points that
    /// equal-cost lockstep never reaches.
    #[test]
    fn provides_mutual_exclusion_with_lag_window() {
        let (count, _) =
            testutil::mutex_stress::<TtasLock, _>(8, 100, testutil::shuffled(), |b, _| {
                TtasLock::new(b)
            });
        assert_eq!(count, 800);
    }

    #[test]
    fn solo_elision_commits() {
        assert!(testutil::solo_elided_roundtrip(|b, _| TtasLock::new(b)));
    }

    #[test]
    fn elided_acquire_aborts_when_held() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(TtasLock::new(&mut b));
        let word = lock.word();
        let mem = b.freeze(1);
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            // Take the lock for real, then try to elide it.
            s.store(word, super::HELD).unwrap();
            s.begin();
            let err = lock.elided_acquire(s).unwrap_err();
            assert_eq!(err, elision_htm::Abort);
            assert!(s.last_abort().is_explicit(codes::LOCK_BUSY));
        });
    }

    #[test]
    fn fallback_acquire_reports_busy_or_acquired() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(TtasLock::new(&mut b));
        let mem = b.freeze(1);
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            assert_eq!(lock.fallback_acquire(s).unwrap(), FallbackOutcome::Acquired);
            assert!(lock.is_locked(s).unwrap());
            assert_eq!(lock.fallback_acquire(s).unwrap(), FallbackOutcome::Busy);
            lock.release(s).unwrap();
            assert!(!lock.is_locked(s).unwrap());
        });
    }

    #[test]
    fn metadata() {
        let mut b = MemoryBuilder::new();
        let lock = TtasLock::new(&mut b);
        assert_eq!(lock.name(), "TTAS");
        assert!(!lock.is_fair());
    }
}
