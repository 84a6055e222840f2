//! A transactional bounded FIFO queue (ring buffer), used by the
//! STAMP-style `intruder` kernel's packet pipeline.

use elision_htm::{Memory, MemoryBuilder, Placer, RecordArena, Strand, TxResult, VarId, VarRole};

/// A bounded FIFO of `u64` values over simulated memory.
///
/// Head/tail counters increase monotonically; the slot of position `p` is
/// `p % capacity`. All operations are intended to run inside a critical
/// section (single global lock in the benchmarks), so no internal
/// synchronization beyond transactional accesses is needed.
#[derive(Debug, Clone)]
pub struct SimQueue {
    head: VarId,
    tail: VarId,
    slots: RecordArena,
    cap: usize,
}

impl SimQueue {
    /// Allocate a queue with room for `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(b: &mut MemoryBuilder, capacity: usize) -> Self {
        assert!(capacity > 0);
        let head = b.alloc_isolated(0);
        let tail = b.alloc_isolated(0);
        b.pad_to_line();
        let slots = RecordArena::contiguous(b.alloc_array(capacity, 0).index(), 1);
        b.pad_to_line();
        SimQueue { head, tail, slots, cap: capacity }
    }

    /// Like [`SimQueue::new`], but allocated through `p`'s placement
    /// policy: head/tail as `"queue.head"`/`"queue.tail"` metadata and
    /// the ring slots as a `"queue.slot"` record region (one word per
    /// record).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_placed(p: &mut Placer, capacity: usize) -> Self {
        assert!(capacity > 0);
        let head = p.meta("queue.head", 0);
        let tail = p.meta("queue.tail", 0);
        let slots = p.records("queue.slot", VarRole::Data, capacity, 1, 0);
        SimQueue { head, tail, slots, cap: capacity }
    }

    fn slot(&self, pos: u64) -> VarId {
        self.slots.word(pos % self.cap as u64, 0)
    }

    /// Append `value`; returns `false` when full.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    ///
    /// # Examples
    ///
    /// ```
    /// use elision_htm::{harness, HtmConfig, MemoryBuilder};
    /// use elision_structures::SimQueue;
    ///
    /// let mut b = MemoryBuilder::new();
    /// let q = SimQueue::new(&mut b, 4);
    /// let mem = b.freeze(1);
    /// let qq = q.clone();
    /// harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
    ///     assert!(qq.push(s, 1).unwrap());
    ///     assert_eq!(qq.pop(s).unwrap(), Some(1));
    ///     assert_eq!(qq.pop(s).unwrap(), None);
    /// });
    /// ```
    pub fn push(&self, s: &mut Strand, value: u64) -> TxResult<bool> {
        let h = s.load(self.head)?;
        let t = s.load(self.tail)?;
        if t - h >= self.cap as u64 {
            return Ok(false);
        }
        s.store(self.slot(t), value)?;
        s.store(self.tail, t + 1)?;
        Ok(true)
    }

    /// Pop the oldest value, if any.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn pop(&self, s: &mut Strand) -> TxResult<Option<u64>> {
        let h = s.load(self.head)?;
        let t = s.load(self.tail)?;
        if h == t {
            return Ok(None);
        }
        let v = s.load(self.slot(h))?;
        s.store(self.head, h + 1)?;
        Ok(Some(v))
    }

    /// Current length.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn len(&self, s: &mut Strand) -> TxResult<u64> {
        let h = s.load(self.head)?;
        let t = s.load(self.tail)?;
        Ok(t - h)
    }

    /// Whether the queue is empty.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn is_empty(&self, s: &mut Strand) -> TxResult<bool> {
        Ok(self.len(s)? == 0)
    }

    /// Direct (quiescent) length.
    pub fn len_direct(&self, mem: &Memory) -> u64 {
        mem.read_direct(self.tail) - mem.read_direct(self.head)
    }

    /// Fill with `values` directly (pre-run setup).
    pub fn fill_direct(&self, mem: &Memory, values: impl IntoIterator<Item = u64>) {
        let mut t = mem.read_direct(self.tail);
        for v in values {
            assert!(t - mem.read_direct(self.head) < self.cap as u64, "queue overflow in setup");
            mem.write_direct(self.slot(t), v);
            t += 1;
        }
        mem.write_direct(self.tail, t);
    }
}
