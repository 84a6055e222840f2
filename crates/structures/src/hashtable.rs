//! A transactional chained hash table (the paper's second data-structure
//! benchmark; its transactions are always short, "zooming in" on the
//! short-transaction end of the red-black-tree workload spectrum).

use elision_htm::{Memory, MemoryBuilder, Placer, RecordArena, Strand, TxResult, VarId, VarRole};

const KEY: u32 = 0;
const VALUE: u32 = 1;
const NEXT: u32 = 2;
const STRIDE: u32 = 4;

const NONE: u64 = u64::MAX;

/// A fixed-bucket chained hash table mapping `u64` keys to `u64` values.
#[derive(Debug, Clone)]
pub struct HashTable {
    /// Bucket heads (node index or `NONE`), one single-word record per
    /// bucket (contiguous under [`HashTable::new`], placement-policy
    /// controlled under [`HashTable::new_placed`]).
    buckets: RecordArena,
    n_buckets: usize,
    /// Per-thread free-list heads.
    free: Vec<VarId>,
    /// The node arena.
    arena: RecordArena,
    cap: usize,
}

impl HashTable {
    /// Allocate a table with `n_buckets` buckets and room for `capacity`
    /// entries, free-lists partitioned across `threads`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(b: &mut MemoryBuilder, n_buckets: usize, capacity: usize, threads: usize) -> Self {
        assert!(n_buckets > 0 && capacity > 0 && threads > 0);
        b.pad_to_line();
        let buckets = RecordArena::contiguous(b.alloc_array(n_buckets, NONE).index(), 1);
        b.pad_to_line();
        let base = b.len() as u32;
        b.alloc_array(capacity * STRIDE as usize, 0);
        let free: Vec<VarId> = (0..threads).map(|_| b.alloc_isolated(NONE)).collect();
        HashTable {
            buckets,
            n_buckets,
            free,
            arena: RecordArena::contiguous(base, STRIDE),
            cap: capacity,
        }
    }

    /// Like [`HashTable::new`], but every allocation goes through `p`'s
    /// placement policy: bucket heads as a `"hash.bucket"` record region
    /// (one word per record — packed policies co-locate many buckets per
    /// line, padded isolates each), nodes as `"hash.node"`, and the
    /// per-thread free-list heads as one `"hash.free"` region.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new_placed(p: &mut Placer, n_buckets: usize, capacity: usize, threads: usize) -> Self {
        assert!(n_buckets > 0 && capacity > 0 && threads > 0);
        let buckets = p.records("hash.bucket", VarRole::Data, n_buckets, 1, NONE);
        let arena = p.records("hash.node", VarRole::Data, capacity, STRIDE, 0);
        let free_arena = p.records("hash.free", VarRole::Meta, threads, 1, NONE);
        let free = (0..threads as u64).map(|t| free_arena.word(t, 0)).collect();
        HashTable { buckets, n_buckets, free, arena, cap: capacity }
    }

    /// Chain the free lists; call once after freezing, before use.
    pub fn init(&self, mem: &Memory) {
        let threads = self.free.len();
        let mut heads = vec![NONE; threads];
        for n in (0..self.cap as u64).rev() {
            let pool = (n as usize) % threads;
            mem.write_direct(self.field(n, NEXT), heads[pool]);
            heads[pool] = n;
        }
        for (t, &h) in heads.iter().enumerate() {
            mem.write_direct(self.free[t], h);
        }
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    fn field(&self, node: u64, f: u32) -> VarId {
        self.arena.word(node, f)
    }

    /// The bucket index `key` hashes to (Fibonacci hashing spreads
    /// sequential keys across buckets). Public so workload generators
    /// can construct bucket-disjoint key sets.
    pub fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.n_buckets
    }

    fn bucket_var(&self, key: u64) -> VarId {
        self.buckets.word(self.bucket_of(key) as u64, 0)
    }

    fn alloc_node(&self, s: &mut Strand, key: u64, value: u64) -> TxResult<u64> {
        let me = s.tid() % self.free.len();
        let pools = self.free.len();
        for k in 0..pools {
            let pool = self.free[(me + k) % pools];
            let head = s.load(pool)?;
            if head == NONE {
                continue;
            }
            let next = s.load(self.field(head, NEXT))?;
            s.store(pool, next)?;
            s.store(self.field(head, KEY), key)?;
            s.store(self.field(head, VALUE), value)?;
            s.store(self.field(head, NEXT), NONE)?;
            return Ok(head);
        }
        panic!("hash-table arena exhausted (capacity {})", self.cap);
    }

    fn free_node(&self, s: &mut Strand, node: u64) -> TxResult<()> {
        let pool = self.free[s.tid() % self.free.len()];
        let head = s.load(pool)?;
        s.store(self.field(node, NEXT), head)?;
        s.store(pool, node)
    }

    /// Redistribute free nodes evenly across the per-thread pools via
    /// direct writes (see `RbTree::rebalance_freelists`). Quiescent use
    /// only.
    pub fn rebalance_freelists(&self, mem: &Memory) {
        let threads = self.free.len();
        let mut nodes = Vec::new();
        for &pool in &self.free {
            let mut n = mem.read_direct(pool);
            while n != NONE {
                nodes.push(n);
                n = mem.read_direct(self.field(n, NEXT));
            }
        }
        let mut heads = vec![NONE; threads];
        for (i, &n) in nodes.iter().enumerate() {
            let pool = i % threads;
            mem.write_direct(self.field(n, NEXT), heads[pool]);
            heads[pool] = n;
        }
        for (t, &h) in heads.iter().enumerate() {
            mem.write_direct(self.free[t], h);
        }
    }

    /// Look up `key`.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn get(&self, s: &mut Strand, key: u64) -> TxResult<Option<u64>> {
        let mut n = s.load(self.bucket_var(key))?;
        while n != NONE {
            if s.load(self.field(n, KEY))? == key {
                return Ok(Some(s.load(self.field(n, VALUE))?));
            }
            n = s.load(self.field(n, NEXT))?;
        }
        Ok(None)
    }

    /// Insert or update `key`; returns the previous value if any.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    ///
    /// # Examples
    ///
    /// ```
    /// use elision_htm::{harness, HtmConfig, MemoryBuilder};
    /// use elision_structures::HashTable;
    ///
    /// let mut b = MemoryBuilder::new();
    /// let table = HashTable::new(&mut b, 8, 16, 1);
    /// let mem = b.freeze(1);
    /// table.init(&mem);
    /// let t = table.clone();
    /// harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
    ///     assert_eq!(t.put(s, 3, 30).unwrap(), None);
    ///     assert_eq!(t.put(s, 3, 33).unwrap(), Some(30));
    ///     assert_eq!(t.get(s, 3).unwrap(), Some(33));
    /// });
    /// ```
    pub fn put(&self, s: &mut Strand, key: u64, value: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_var(key);
        let mut n = s.load(bucket)?;
        while n != NONE {
            if s.load(self.field(n, KEY))? == key {
                let old = s.load(self.field(n, VALUE))?;
                s.store(self.field(n, VALUE), value)?;
                return Ok(Some(old));
            }
            n = s.load(self.field(n, NEXT))?;
        }
        let node = self.alloc_node(s, key, value)?;
        let head = s.load(bucket)?;
        s.store(self.field(node, NEXT), head)?;
        s.store(bucket, node)?;
        Ok(None)
    }

    /// Remove `key`; returns its value if it was present.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn remove(&self, s: &mut Strand, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_var(key);
        let mut prev = NONE;
        let mut n = s.load(bucket)?;
        while n != NONE {
            if s.load(self.field(n, KEY))? == key {
                let next = s.load(self.field(n, NEXT))?;
                if prev == NONE {
                    s.store(bucket, next)?;
                } else {
                    s.store(self.field(prev, NEXT), next)?;
                }
                let val = s.load(self.field(n, VALUE))?;
                self.free_node(s, n)?;
                return Ok(Some(val));
            }
            prev = n;
            n = s.load(self.field(n, NEXT))?;
        }
        Ok(None)
    }

    /// Collect all `(key, value)` pairs via direct reads (quiescent only).
    pub fn collect(&self, mem: &Memory) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for bkt in 0..self.n_buckets as u64 {
            let mut n = mem.read_direct(self.buckets.word(bkt, 0));
            while n != NONE {
                out.push((
                    mem.read_direct(self.field(n, KEY)),
                    mem.read_direct(self.field(n, VALUE)),
                ));
                n = mem.read_direct(self.field(n, NEXT));
            }
        }
        out.sort_unstable();
        out
    }
}
