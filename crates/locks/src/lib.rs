//! Simulated spin locks with HLE-compatible elided paths.
//!
//! The paper evaluates its schemes over two lock families:
//!
//! * the unfair **TTAS** (test-and-test-and-set) spinlock, which recovers
//!   from the lemming effect on its own because any thread that observes
//!   the lock free may immediately re-attempt elision, and
//! * **fair locks** — MCS, ticket, CLH — whose queues "remember" a
//!   conflict: after a single abort every queued and newly arriving thread
//!   runs non-speculatively until a quiescent period drains the queue.
//!
//! Ticket and CLH locks additionally violate HLE's requirement that the
//! release restore the lock word to its pre-acquire value; the paper's
//! Appendix A adapts them (the release first tries to CAS the lock back to
//! its original state). Both the adapted versions and — for demonstration
//! — the incompatible originals are provided.
//!
//! All locks implement [`RawLock`], whose elided entry points run inside a
//! transaction started by the caller (the elision scheme).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clh;
mod mcs;
mod ticket;
mod ttas;

pub use clh::ClhLock;
pub use mcs::McsLock;
pub use ticket::TicketLock;
pub use ttas::TtasLock;

use elision_htm::{HwSubscription, Strand, TxResult, VarId};

/// Result of re-executing the elided acquisition non-transactionally
/// after an abort (the hardware's HLE fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackOutcome {
    /// The lock was acquired; run the critical section non-speculatively.
    Acquired,
    /// The lock was busy (possible only for try-style locks like TTAS);
    /// the thread should wait and re-attempt elision, per Figure 1.
    Busy,
}

/// A lock usable both non-speculatively and under HLE-style elision.
///
/// The elided methods must be called inside a transaction (begun by the
/// elision scheme); the plain methods must be called outside one.
/// Implementations keep any per-thread state (queue nodes) in simulated
/// memory indexed by [`Strand::tid`], so a single shared instance serves
/// all simulated threads.
pub trait RawLock: Send + Sync {
    /// Standard blocking acquisition (non-speculative).
    ///
    /// # Errors
    ///
    /// Never fails outside a transaction; the `TxResult` is for
    /// signature uniformity.
    fn acquire(&self, s: &mut Strand) -> TxResult<()>;

    /// Standard release.
    ///
    /// # Errors
    ///
    /// Never fails outside a transaction.
    fn release(&self, s: &mut Strand) -> TxResult<()>;

    /// Whether the lock is currently held (a transactional read of the
    /// lock state — this is the subscription read used by SLR and SCM).
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    fn is_locked(&self, s: &mut Strand) -> TxResult<bool>;

    /// The elided (`XACQUIRE`) acquisition: places the lock in the read
    /// set with a local "held" illusion. Aborts the transaction (with
    /// [`elision_htm::codes::LOCK_BUSY`] or
    /// [`elision_htm::codes::QUEUE_BUSY`]) when the lock is observed busy,
    /// modelling the in-transaction wait that real hardware would
    /// eventually time out of.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the transaction aborted (including the busy case).
    fn elided_acquire(&self, s: &mut Strand) -> TxResult<()>;

    /// The elided (`XRELEASE`) release: must restore the lock word to its
    /// pre-acquire value or the commit will fail the restore check.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the transaction aborted.
    fn elided_release(&self, s: &mut Strand) -> TxResult<()>;

    /// Re-execute the acquisition non-transactionally once, as the HLE
    /// hardware does after an abort. TTAS returns [`FallbackOutcome::Busy`]
    /// when the test-and-set fails; queue locks enqueue and block until
    /// acquired.
    ///
    /// # Errors
    ///
    /// Never fails outside a transaction.
    fn fallback_acquire(&self, s: &mut Strand) -> TxResult<FallbackOutcome>;

    /// Busy-wait (outside any transaction) until the lock *appears* free,
    /// so that a new elision attempt is sensible. Used by the plain-HLE
    /// and HLE-retries schemes between attempts.
    ///
    /// # Errors
    ///
    /// Never fails outside a transaction.
    fn wait_until_free(&self, s: &mut Strand) -> TxResult<()>;

    /// The lock's primary word — its identity for the trace, sanitizer
    /// and lint layers (the word SLR/SCM subscription reads observe:
    /// TTAS's state word, the queue locks' tail/next word).
    fn lock_word(&self) -> VarId;

    /// A descriptor the hardware commit-time subscription extension
    /// (arXiv 1407.6968) can evaluate atomically with commit: "this lock
    /// is free" expressed over raw words, with no software read involved.
    /// `None` means the lock's free condition is not expressible in the
    /// descriptor forms the simulated hardware supports, and schemes must
    /// fall back to software subscription.
    fn hw_subscription(&self) -> Option<HwSubscription> {
        None
    }

    /// A short human-readable name ("TTAS", "MCS", ...).
    fn name(&self) -> &'static str;

    /// Whether the lock provides FIFO fairness.
    fn is_fair(&self) -> bool;
}

/// In-transaction spin budget before an elided wait self-aborts
/// (modelling timer/interrupt aborts of stuck transactions).
pub(crate) const TXN_SPIN_BUDGET: u32 = 64;

#[cfg(test)]
pub(crate) mod testutil {
    use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, Strand};
    use elision_sim::FaultPlan;
    use std::sync::Arc;

    /// Seeded preemption plus clock jitter: de-synchronises the threads'
    /// clocks so a stress visits interleavings that equal-cost lockstep
    /// never reaches, while staying deterministic.
    pub fn shuffled() -> FaultPlan {
        FaultPlan::none().with_preempt(400, 1_500).with_jitter(300).with_seed(31)
    }

    /// Run a mutual-exclusion stress under the fault plan `faults`:
    /// `threads` threads each perform `ops` non-atomic increments of a
    /// shared counter inside the lock. Returns the final counter value
    /// (must equal `threads * ops`) and the memory.
    pub fn mutex_stress<L, F>(
        threads: usize,
        ops: u64,
        faults: FaultPlan,
        build: F,
    ) -> (u64, Arc<Memory>)
    where
        L: super::RawLock + 'static,
        F: FnOnce(&mut MemoryBuilder, usize) -> L,
    {
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let lock = Arc::new(build(&mut b, threads));
        let mem = Arc::new(b.freeze(threads));
        harness::run_arc_faulted(
            threads,
            HtmConfig::deterministic(),
            7,
            faults,
            Arc::clone(&mem),
            move |s: &mut Strand| {
                for _ in 0..ops {
                    lock.acquire(s).unwrap();
                    let v = s.load(counter).unwrap();
                    s.work(5).unwrap();
                    s.store(counter, v + 1).unwrap();
                    lock.release(s).unwrap();
                }
            },
        );
        (mem.read_direct(counter), mem)
    }

    /// Run a single-threaded elided critical section and return whether
    /// the transaction committed.
    pub fn solo_elided_roundtrip<L>(build: impl FnOnce(&mut MemoryBuilder, usize) -> L) -> bool
    where
        L: super::RawLock + 'static,
    {
        let mut b = MemoryBuilder::new();
        let data = b.alloc_isolated(0);
        let lock = Arc::new(build(&mut b, 1));
        let mem = b.freeze(1);
        let (mut results, mem, _) =
            harness::run(1, HtmConfig::deterministic(), 7, mem, move |s: &mut Strand| {
                let r = s.attempt(|s| {
                    lock.elided_acquire(s)?;
                    let v = s.load(data)?;
                    s.store(data, v + 1)?;
                    lock.elided_release(s)?;
                    Ok(())
                });
                r.is_ok()
            });
        let ok = results.pop().expect("one result");
        if ok {
            assert_eq!(mem.read_direct(data), 1, "committed data must be visible");
        }
        ok
    }
}
