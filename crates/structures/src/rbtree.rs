//! A transactional red-black tree (the paper's main data-structure
//! benchmark, Section 4).
//!
//! The tree is a textbook CLRS red-black tree with parent pointers and a
//! real sentinel node, laid out in an arena of one-cache-line nodes in
//! simulated memory. All operations go through a [`Strand`], so every
//! node visit is a costed, conflict-tracked access — a critical section
//! traversing the tree has exactly the read/write-set footprint the paper
//! reasons about (larger trees → longer critical sections → lower
//! conflict probability, §4).
//!
//! Nodes are recycled through *per-thread free lists* (with stealing on
//! exhaustion), mirroring the thread-cached allocator (jemalloc) the
//! paper runs under — a single shared free list would serialize all
//! speculative inserts on the allocator and mask the effects being
//! measured.

use elision_htm::{Memory, MemoryBuilder, Placer, RecordArena, Strand, TxResult, VarId, VarRole};

const KEY: u32 = 0;
const LEFT: u32 = 1;
const RIGHT: u32 = 2;
const PARENT: u32 = 3;
const COLOR: u32 = 4;
/// Words per node; one default cache line.
const STRIDE: u32 = 8;

const BLACK: u64 = 0;
const RED: u64 = 1;

/// A transactional red-black tree storing `u64` keys.
#[derive(Debug, Clone)]
pub struct RbTree {
    /// Var holding the root node index (or the sentinel).
    root: VarId,
    /// Per-thread free-list heads.
    free: Vec<VarId>,
    /// The node arena (contiguous for [`RbTree::new`]; placement-policy
    /// controlled for [`RbTree::new_placed`]).
    arena: RecordArena,
    /// Number of usable nodes (the sentinel is node `cap`).
    cap: usize,
    /// Sentinel node index.
    nil: u64,
}

impl RbTree {
    /// Allocate a tree arena able to hold `capacity` keys, with free
    /// lists partitioned across `threads` simulated threads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `threads` is zero.
    pub fn new(b: &mut MemoryBuilder, capacity: usize, threads: usize) -> Self {
        assert!(capacity > 0 && threads > 0);
        b.pad_to_line();
        let base = b.len() as u32;
        // capacity nodes + 1 sentinel.
        b.alloc_array((capacity + 1) * STRIDE as usize, 0);
        let root = b.alloc_isolated(capacity as u64);
        let free: Vec<VarId> = (0..threads).map(|_| b.alloc_isolated(u64::MAX)).collect();
        let arena = RecordArena::contiguous(base, STRIDE);
        let tree = RbTree { root, free, arena, cap: capacity, nil: capacity as u64 };
        // Build the initial free lists directly (pre-run setup):
        // round-robin nodes across the per-thread pools, chained via LEFT.
        // We cannot use a Strand yet, so thread the lists through the
        // builder-initialized values by writing after freeze — instead we
        // record the chain in the node KEY/LEFT initial values here.
        // MemoryBuilder has no post-alloc writes, so the chain is encoded
        // by `init_freelists` after freezing.
        tree
    }

    /// Like [`RbTree::new`], but every allocation goes through `p`'s
    /// placement policy: nodes as a `"rbtree.node"` record region, the
    /// root as `"rbtree.root"` metadata and the per-thread free-list
    /// heads as one `"rbtree.free"` record region (so the static advisor
    /// can reason about pool heads collectively — which thread's pool an
    /// allocation hits is scheduling-dependent).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `threads` is zero.
    pub fn new_placed(p: &mut Placer, capacity: usize, threads: usize) -> Self {
        assert!(capacity > 0 && threads > 0);
        let arena = p.records("rbtree.node", VarRole::Data, capacity + 1, STRIDE, 0);
        let root = p.meta("rbtree.root", capacity as u64);
        let free_arena = p.records("rbtree.free", VarRole::Meta, threads, 1, u64::MAX);
        let free = (0..threads as u64).map(|t| free_arena.word(t, 0)).collect();
        RbTree { root, free, arena, cap: capacity, nil: capacity as u64 }
    }

    /// Finish setup after the memory is frozen: chain the free lists and
    /// paint the sentinel black. Must be called exactly once, before any
    /// simulated thread touches the tree.
    pub fn init(&self, mem: &Memory) {
        let threads = self.free.len();
        let mut heads = vec![u64::MAX; threads];
        for n in (0..self.cap as u64).rev() {
            let pool = (n as usize) % threads;
            mem.write_direct(self.field(n, LEFT), heads[pool]);
            heads[pool] = n;
        }
        for (t, &h) in heads.iter().enumerate() {
            mem.write_direct(self.free[t], h);
        }
        mem.write_direct(self.root, self.nil);
        mem.write_direct(self.field(self.nil, COLOR), BLACK);
    }

    /// The sentinel ("null") node index.
    pub fn nil(&self) -> u64 {
        self.nil
    }

    /// Maximum number of keys the arena can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn field(&self, node: u64, f: u32) -> VarId {
        debug_assert!(node <= self.nil, "node index out of range");
        self.arena.word(node, f)
    }

    fn get(&self, s: &mut Strand, node: u64, f: u32) -> TxResult<u64> {
        s.load(self.field(node, f))
    }

    fn set(&self, s: &mut Strand, node: u64, f: u32, v: u64) -> TxResult<()> {
        s.store(self.field(node, f), v)
    }

    // ------------------------------------------------------------------
    // allocation
    // ------------------------------------------------------------------

    fn alloc_node(&self, s: &mut Strand, key: u64) -> TxResult<u64> {
        let me = s.tid() % self.free.len();
        let pools = self.free.len();
        for k in 0..pools {
            let pool = self.free[(me + k) % pools];
            let head = s.load(pool)?;
            if head == u64::MAX {
                continue; // empty pool: steal from the next one
            }
            let next = self.get(s, head, LEFT)?;
            s.store(pool, next)?;
            self.set(s, head, KEY, key)?;
            self.set(s, head, LEFT, self.nil)?;
            self.set(s, head, RIGHT, self.nil)?;
            self.set(s, head, PARENT, self.nil)?;
            self.set(s, head, COLOR, RED)?;
            return Ok(head);
        }
        panic!("red-black tree arena exhausted (capacity {})", self.cap);
    }

    fn free_node(&self, s: &mut Strand, node: u64) -> TxResult<()> {
        let pool = self.free[s.tid() % self.free.len()];
        let head = s.load(pool)?;
        self.set(s, node, LEFT, head)?;
        s.store(pool, node)
    }

    /// Redistribute all free nodes evenly across the per-thread pools via
    /// direct writes. Call at a quiescent point (e.g. after a
    /// single-threaded fill phase, which drains the pools unevenly and
    /// would otherwise force runtime threads onto the conflict-prone
    /// steal path).
    pub fn rebalance_freelists(&self, mem: &Memory) {
        let threads = self.free.len();
        let mut nodes = Vec::new();
        for &pool in &self.free {
            let mut n = mem.read_direct(pool);
            while n != u64::MAX {
                nodes.push(n);
                n = mem.read_direct(self.field(n, LEFT));
            }
        }
        let mut heads = vec![u64::MAX; threads];
        for (i, &n) in nodes.iter().enumerate() {
            let pool = i % threads;
            mem.write_direct(self.field(n, LEFT), heads[pool]);
            heads[pool] = n;
        }
        for (t, &h) in heads.iter().enumerate() {
            mem.write_direct(self.free[t], h);
        }
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// Whether `key` is present.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn contains(&self, s: &mut Strand, key: u64) -> TxResult<bool> {
        let mut x = s.load(self.root)?;
        while x != self.nil {
            let k = self.get(s, x, KEY)?;
            if key == k {
                return Ok(true);
            }
            x = self.get(s, x, if key < k { LEFT } else { RIGHT })?;
        }
        Ok(false)
    }

    fn find(&self, s: &mut Strand, key: u64) -> TxResult<u64> {
        let mut x = s.load(self.root)?;
        while x != self.nil {
            let k = self.get(s, x, KEY)?;
            if key == k {
                return Ok(x);
            }
            x = self.get(s, x, if key < k { LEFT } else { RIGHT })?;
        }
        Ok(self.nil)
    }

    // ------------------------------------------------------------------
    // insertion
    // ------------------------------------------------------------------

    /// Insert `key`; returns `false` if it was already present.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    ///
    /// # Examples
    ///
    /// ```
    /// use elision_htm::{harness, HtmConfig, MemoryBuilder};
    /// use elision_structures::RbTree;
    ///
    /// let mut b = MemoryBuilder::new();
    /// let tree = RbTree::new(&mut b, 16, 1);
    /// let mem = b.freeze(1);
    /// tree.init(&mem);
    /// let t = tree.clone();
    /// let (results, ..) = harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
    ///     let fresh = t.insert(s, 7)?;
    ///     let dup = t.insert(s, 7)?;
    ///     Ok::<_, elision_htm::Abort>((fresh, dup))
    /// });
    /// assert_eq!(results[0], Ok((true, false)));
    /// ```
    pub fn insert(&self, s: &mut Strand, key: u64) -> TxResult<bool> {
        let mut y = self.nil;
        let mut x = s.load(self.root)?;
        while x != self.nil {
            y = x;
            let k = self.get(s, x, KEY)?;
            if key == k {
                return Ok(false);
            }
            x = self.get(s, x, if key < k { LEFT } else { RIGHT })?;
        }
        let z = self.alloc_node(s, key)?;
        self.set(s, z, PARENT, y)?;
        if y == self.nil {
            s.store(self.root, z)?;
        } else {
            let yk = self.get(s, y, KEY)?;
            self.set(s, y, if key < yk { LEFT } else { RIGHT }, z)?;
        }
        self.insert_fixup(s, z)?;
        Ok(true)
    }

    fn insert_fixup(&self, s: &mut Strand, mut z: u64) -> TxResult<()> {
        loop {
            let p = self.get(s, z, PARENT)?;
            if p == self.nil || self.get(s, p, COLOR)? == BLACK {
                break;
            }
            let pp = self.get(s, p, PARENT)?;
            if p == self.get(s, pp, LEFT)? {
                let uncle = self.get(s, pp, RIGHT)?;
                if uncle != self.nil && self.get(s, uncle, COLOR)? == RED {
                    self.set(s, p, COLOR, BLACK)?;
                    self.set(s, uncle, COLOR, BLACK)?;
                    self.set(s, pp, COLOR, RED)?;
                    z = pp;
                } else {
                    if z == self.get(s, p, RIGHT)? {
                        z = p;
                        self.rotate_left(s, z)?;
                    }
                    let p = self.get(s, z, PARENT)?;
                    let pp = self.get(s, p, PARENT)?;
                    self.set(s, p, COLOR, BLACK)?;
                    self.set(s, pp, COLOR, RED)?;
                    self.rotate_right(s, pp)?;
                }
            } else {
                let uncle = self.get(s, pp, LEFT)?;
                if uncle != self.nil && self.get(s, uncle, COLOR)? == RED {
                    self.set(s, p, COLOR, BLACK)?;
                    self.set(s, uncle, COLOR, BLACK)?;
                    self.set(s, pp, COLOR, RED)?;
                    z = pp;
                } else {
                    if z == self.get(s, p, LEFT)? {
                        z = p;
                        self.rotate_right(s, z)?;
                    }
                    let p = self.get(s, z, PARENT)?;
                    let pp = self.get(s, p, PARENT)?;
                    self.set(s, p, COLOR, BLACK)?;
                    self.set(s, pp, COLOR, RED)?;
                    self.rotate_left(s, pp)?;
                }
            }
        }
        let r = s.load(self.root)?;
        // Blacken the root only when needed: an unconditional write here
        // would put the root's line in every inserter's write set and doom
        // all concurrent readers.
        if self.get(s, r, COLOR)? != BLACK {
            self.set(s, r, COLOR, BLACK)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // removal
    // ------------------------------------------------------------------

    /// Remove `key`; returns `false` if it was absent.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn remove(&self, s: &mut Strand, key: u64) -> TxResult<bool> {
        let z = self.find(s, key)?;
        if z == self.nil {
            return Ok(false);
        }
        // CLRS delete, adjusted so the sentinel is never *written*: the
        // fixup's parent-of-x is threaded explicitly instead of being
        // stored into the sentinel's parent field, which would otherwise
        // make every pair of concurrent deletions conflict.
        let mut y = z;
        let mut y_color = self.get(s, y, COLOR)?;
        let x;
        let x_parent;
        let zl = self.get(s, z, LEFT)?;
        let zr = self.get(s, z, RIGHT)?;
        if zl == self.nil {
            x = zr;
            x_parent = self.get(s, z, PARENT)?;
            self.transplant(s, z, zr)?;
        } else if zr == self.nil {
            x = zl;
            x_parent = self.get(s, z, PARENT)?;
            self.transplant(s, z, zl)?;
        } else {
            y = self.minimum(s, zr)?;
            y_color = self.get(s, y, COLOR)?;
            x = self.get(s, y, RIGHT)?;
            if self.get(s, y, PARENT)? == z {
                x_parent = y;
                if x != self.nil {
                    self.set(s, x, PARENT, y)?;
                }
            } else {
                x_parent = self.get(s, y, PARENT)?;
                let yr = self.get(s, y, RIGHT)?;
                self.transplant(s, y, yr)?;
                let zr = self.get(s, z, RIGHT)?;
                self.set(s, y, RIGHT, zr)?;
                self.set(s, zr, PARENT, y)?;
            }
            self.transplant(s, z, y)?;
            let zl = self.get(s, z, LEFT)?;
            self.set(s, y, LEFT, zl)?;
            self.set(s, zl, PARENT, y)?;
            let zc = self.get(s, z, COLOR)?;
            if self.get(s, y, COLOR)? != zc {
                self.set(s, y, COLOR, zc)?;
            }
        }
        self.free_node(s, z)?;
        if y_color == BLACK {
            self.delete_fixup(s, x, x_parent)?;
        }
        Ok(true)
    }

    fn transplant(&self, s: &mut Strand, u: u64, v: u64) -> TxResult<()> {
        let up = self.get(s, u, PARENT)?;
        if up == self.nil {
            s.store(self.root, v)?;
        } else if u == self.get(s, up, LEFT)? {
            self.set(s, up, LEFT, v)?;
        } else {
            self.set(s, up, RIGHT, v)?;
        }
        if v != self.nil {
            self.set(s, v, PARENT, up)?;
        }
        Ok(())
    }

    fn minimum(&self, s: &mut Strand, mut x: u64) -> TxResult<u64> {
        loop {
            let l = self.get(s, x, LEFT)?;
            if l == self.nil {
                return Ok(x);
            }
            x = l;
        }
    }

    /// `x` may be the sentinel; `p` is always `x`'s (real) parent, threaded
    /// explicitly so the sentinel's fields are never written or read.
    fn delete_fixup(&self, s: &mut Strand, mut x: u64, mut p: u64) -> TxResult<()> {
        loop {
            let root = s.load(self.root)?;
            if x == root || (x != self.nil && self.get(s, x, COLOR)? == RED) {
                break;
            }
            if x == self.get(s, p, LEFT)? {
                let mut w = self.get(s, p, RIGHT)?;
                if self.get(s, w, COLOR)? == RED {
                    self.set(s, w, COLOR, BLACK)?;
                    self.set(s, p, COLOR, RED)?;
                    self.rotate_left(s, p)?;
                    w = self.get(s, p, RIGHT)?;
                }
                let wl = self.get(s, w, LEFT)?;
                let wr = self.get(s, w, RIGHT)?;
                let wl_black = wl == self.nil || self.get(s, wl, COLOR)? == BLACK;
                let wr_black = wr == self.nil || self.get(s, wr, COLOR)? == BLACK;
                if wl_black && wr_black {
                    self.set(s, w, COLOR, RED)?;
                    x = p;
                    p = self.get(s, x, PARENT)?;
                } else {
                    if wr_black {
                        if wl != self.nil {
                            self.set(s, wl, COLOR, BLACK)?;
                        }
                        self.set(s, w, COLOR, RED)?;
                        self.rotate_right(s, w)?;
                        w = self.get(s, p, RIGHT)?;
                    }
                    let pc = self.get(s, p, COLOR)?;
                    self.set(s, w, COLOR, pc)?;
                    self.set(s, p, COLOR, BLACK)?;
                    let wr = self.get(s, w, RIGHT)?;
                    if wr != self.nil {
                        self.set(s, wr, COLOR, BLACK)?;
                    }
                    self.rotate_left(s, p)?;
                    x = s.load(self.root)?;
                }
            } else {
                let mut w = self.get(s, p, LEFT)?;
                if self.get(s, w, COLOR)? == RED {
                    self.set(s, w, COLOR, BLACK)?;
                    self.set(s, p, COLOR, RED)?;
                    self.rotate_right(s, p)?;
                    w = self.get(s, p, LEFT)?;
                }
                let wl = self.get(s, w, LEFT)?;
                let wr = self.get(s, w, RIGHT)?;
                let wl_black = wl == self.nil || self.get(s, wl, COLOR)? == BLACK;
                let wr_black = wr == self.nil || self.get(s, wr, COLOR)? == BLACK;
                if wl_black && wr_black {
                    self.set(s, w, COLOR, RED)?;
                    x = p;
                    p = self.get(s, x, PARENT)?;
                } else {
                    if wl_black {
                        if wr != self.nil {
                            self.set(s, wr, COLOR, BLACK)?;
                        }
                        self.set(s, w, COLOR, RED)?;
                        self.rotate_left(s, w)?;
                        w = self.get(s, p, LEFT)?;
                    }
                    let pc = self.get(s, p, COLOR)?;
                    self.set(s, w, COLOR, pc)?;
                    self.set(s, p, COLOR, BLACK)?;
                    let wl = self.get(s, w, LEFT)?;
                    if wl != self.nil {
                        self.set(s, wl, COLOR, BLACK)?;
                    }
                    self.rotate_right(s, p)?;
                    x = s.load(self.root)?;
                }
            }
        }
        if x != self.nil && self.get(s, x, COLOR)? != BLACK {
            self.set(s, x, COLOR, BLACK)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // rotations
    // ------------------------------------------------------------------

    fn rotate_left(&self, s: &mut Strand, x: u64) -> TxResult<()> {
        let y = self.get(s, x, RIGHT)?;
        let yl = self.get(s, y, LEFT)?;
        self.set(s, x, RIGHT, yl)?;
        if yl != self.nil {
            self.set(s, yl, PARENT, x)?;
        }
        let xp = self.get(s, x, PARENT)?;
        self.set(s, y, PARENT, xp)?;
        if xp == self.nil {
            s.store(self.root, y)?;
        } else if x == self.get(s, xp, LEFT)? {
            self.set(s, xp, LEFT, y)?;
        } else {
            self.set(s, xp, RIGHT, y)?;
        }
        self.set(s, y, LEFT, x)?;
        self.set(s, x, PARENT, y)
    }

    fn rotate_right(&self, s: &mut Strand, x: u64) -> TxResult<()> {
        let y = self.get(s, x, LEFT)?;
        let yr = self.get(s, y, RIGHT)?;
        self.set(s, x, LEFT, yr)?;
        if yr != self.nil {
            self.set(s, yr, PARENT, x)?;
        }
        let xp = self.get(s, x, PARENT)?;
        self.set(s, y, PARENT, xp)?;
        if xp == self.nil {
            s.store(self.root, y)?;
        } else if x == self.get(s, xp, RIGHT)? {
            self.set(s, xp, RIGHT, y)?;
        } else {
            self.set(s, xp, LEFT, y)?;
        }
        self.set(s, y, RIGHT, x)?;
        self.set(s, x, PARENT, y)
    }

    // ------------------------------------------------------------------
    // validation (direct reads; quiescent memory only)
    // ------------------------------------------------------------------

    /// In-order key listing, via direct (non-simulated) reads.
    pub fn collect(&self, mem: &Memory) -> Vec<u64> {
        let mut out = Vec::new();
        self.collect_rec(mem, mem.read_direct(self.root), &mut out);
        out
    }

    fn collect_rec(&self, mem: &Memory, n: u64, out: &mut Vec<u64>) {
        if n == self.nil {
            return;
        }
        self.collect_rec(mem, mem.read_direct(self.field(n, LEFT)), out);
        out.push(mem.read_direct(self.field(n, KEY)));
        self.collect_rec(mem, mem.read_direct(self.field(n, RIGHT)), out);
    }

    /// Check every red-black invariant via direct reads. Returns the
    /// number of keys on success.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self, mem: &Memory) -> Result<usize, String> {
        let root = mem.read_direct(self.root);
        if root != self.nil {
            if mem.read_direct(self.field(root, COLOR)) != BLACK {
                return Err("root is not black".into());
            }
            if mem.read_direct(self.field(root, PARENT)) != self.nil {
                return Err("root has a parent".into());
            }
        }
        let mut count = 0;
        self.validate_rec(mem, root, None, None, &mut count)?;
        Ok(count)
    }

    /// Returns the black height of the subtree.
    fn validate_rec(
        &self,
        mem: &Memory,
        n: u64,
        lo: Option<u64>,
        hi: Option<u64>,
        count: &mut usize,
    ) -> Result<usize, String> {
        if n == self.nil {
            return Ok(1);
        }
        *count += 1;
        let key = mem.read_direct(self.field(n, KEY));
        if let Some(lo) = lo {
            if key <= lo {
                return Err(format!("BST order violated at key {key}"));
            }
        }
        if let Some(hi) = hi {
            if key >= hi {
                return Err(format!("BST order violated at key {key}"));
            }
        }
        let color = mem.read_direct(self.field(n, COLOR));
        let l = mem.read_direct(self.field(n, LEFT));
        let r = mem.read_direct(self.field(n, RIGHT));
        for child in [l, r] {
            if child != self.nil {
                if mem.read_direct(self.field(child, PARENT)) != n {
                    return Err(format!("broken parent link under key {key}"));
                }
                if color == RED && mem.read_direct(self.field(child, COLOR)) == RED {
                    return Err(format!("red-red violation at key {key}"));
                }
            }
        }
        let lh = self.validate_rec(mem, l, lo, Some(key), count)?;
        let rh = self.validate_rec(mem, r, Some(key), hi, count)?;
        if lh != rh {
            return Err(format!("black-height mismatch at key {key}: {lh} vs {rh}"));
        }
        Ok(lh + usize::from(color == BLACK))
    }
}
