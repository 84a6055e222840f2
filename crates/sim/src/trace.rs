//! A lightweight bounded execution trace.
//!
//! Debugging a lock-elision pathology usually means asking "what did this
//! thread do around the time throughput collapsed?". Each simulated
//! thread can carry a [`TraceRing`] that records timestamped events
//! (transaction begins/commits/aborts, lock transitions, custom markers)
//! in a bounded ring — cheap enough to leave on during experiments, and
//! dumpable as aligned text after the run.

use crate::stats::AbortCause;
use std::collections::VecDeque;
use std::fmt;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transaction began.
    TxnBegin,
    /// A transaction committed.
    TxnCommit,
    /// A transaction aborted, classified by the telemetry taxonomy (the
    /// same [`AbortCause`] the histograms and JSON emitters use, so the
    /// trace never drifts from the aggregate counters).
    TxnAbort(AbortCause),
    /// A lock was acquired non-speculatively; the payload is the raw
    /// index of the lock's primary word (the lock's identity).
    LockAcquire(u32),
    /// A lock was released non-speculatively; the payload is the raw
    /// index of the lock's primary word.
    LockRelease(u32),
    /// A user-defined marker with a label and value.
    Custom(&'static str, u64),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TxnBegin => write!(f, "txn-begin"),
            TraceEvent::TxnCommit => write!(f, "txn-commit"),
            TraceEvent::TxnAbort(cause) => write!(f, "txn-abort({})", cause.label()),
            TraceEvent::LockAcquire(word) => write!(f, "lock-acquire({word})"),
            TraceEvent::LockRelease(word) => write!(f, "lock-release({word})"),
            TraceEvent::Custom(label, v) => write!(f, "{label}={v}"),
        }
    }
}

/// A bounded ring of timestamped [`TraceEvent`]s.
///
/// Older events are dropped once `capacity` is reached; `dropped()`
/// reports how many.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<(u64, TraceEvent)>,
    dropped: u64,
}

impl TraceRing {
    /// Create a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a trace ring needs room for at least one event");
        TraceRing { capacity, events: VecDeque::with_capacity(capacity), dropped: 0 }
    }

    /// Record `event` at logical time `now`.
    pub fn record(&mut self, now: u64, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((now, event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the trace as aligned text, one event per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("... {} earlier events dropped ...\n", self.dropped));
        }
        for (t, ev) in &self.events {
            out.push_str(&format!("{t:>12}  {ev}\n"));
        }
        out
    }

    /// Count retained events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut r = TraceRing::new(8);
        r.record(10, TraceEvent::TxnBegin);
        r.record(20, TraceEvent::TxnCommit);
        let seq: Vec<_> = r.events().cloned().collect();
        assert_eq!(seq, vec![(10, TraceEvent::TxnBegin), (20, TraceEvent::TxnCommit)]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = TraceRing::new(3);
        for t in 0..5 {
            r.record(t, TraceEvent::Custom("step", t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().cloned().expect("nonempty");
        assert_eq!(first.0, 2);
    }

    #[test]
    fn dump_mentions_drops_and_events() {
        let mut r = TraceRing::new(2);
        r.record(1, TraceEvent::TxnBegin);
        r.record(2, TraceEvent::TxnAbort(AbortCause::DataConflict));
        r.record(3, TraceEvent::LockAcquire(7));
        let d = r.dump();
        assert!(d.contains("1 earlier events dropped"));
        assert!(d.contains("txn-abort(data_conflict)"));
        assert!(d.contains("lock-acquire(7)"));
    }

    #[test]
    fn count_filters() {
        let mut r = TraceRing::new(10);
        r.record(1, TraceEvent::TxnBegin);
        r.record(2, TraceEvent::TxnAbort(AbortCause::FaultInjected));
        r.record(3, TraceEvent::TxnBegin);
        r.record(4, TraceEvent::TxnCommit);
        assert_eq!(r.count(|e| matches!(e, TraceEvent::TxnBegin)), 2);
        assert_eq!(r.count(|e| matches!(e, TraceEvent::TxnAbort(_))), 1);
    }

    #[test]
    #[should_panic(expected = "room for at least one")]
    fn zero_capacity_rejected() {
        TraceRing::new(0);
    }
}
