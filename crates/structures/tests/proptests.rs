//! Property-based tests: the transactional structures against
//! std-library models, under arbitrary operation sequences.

use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_structures::{HashTable, RbTree, SortedList};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0u64..64).prop_map(SetOp::Insert),
        (0u64..64).prop_map(SetOp::Remove),
        (0u64..64).prop_map(SetOp::Contains),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The red-black tree behaves exactly like `BTreeSet` and keeps every
    /// red-black invariant after every prefix of any operation sequence.
    #[test]
    fn rbtree_equals_btreeset(ops in prop::collection::vec(set_op(), 1..120)) {
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, 80, 1);
        let mem = b.freeze(1);
        tree.init(&mem);
        let t = tree.clone();
        let ops2 = ops.clone();
        let (results, mem, _) = harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            let mut model = BTreeSet::new();
            for op in &ops2 {
                match *op {
                    SetOp::Insert(k) => assert_eq!(t.insert(s, k).unwrap(), model.insert(k)),
                    SetOp::Remove(k) => assert_eq!(t.remove(s, k).unwrap(), model.remove(&k)),
                    SetOp::Contains(k) => {
                        assert_eq!(t.contains(s, k).unwrap(), model.contains(&k))
                    }
                }
            }
            model.into_iter().collect::<Vec<_>>()
        });
        prop_assert_eq!(&tree.collect(&mem), &results[0]);
        let n = tree.validate(&mem).map_err(TestCaseError::fail)?;
        prop_assert_eq!(n, results[0].len());
    }

    /// The hash table behaves exactly like `HashMap`.
    #[test]
    fn hashtable_equals_hashmap(
        ops in prop::collection::vec((0u64..48, 0u64..1000, 0u8..3), 1..120),
        buckets in 1usize..24,
    ) {
        let mut b = MemoryBuilder::new();
        let table = HashTable::new(&mut b, buckets, 64, 1);
        let mem = b.freeze(1);
        table.init(&mem);
        let t = table.clone();
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            let mut model: HashMap<u64, u64> = HashMap::new();
            for &(k, v, kind) in &ops {
                match kind {
                    0 => assert_eq!(t.put(s, k, v).unwrap(), model.insert(k, v)),
                    1 => assert_eq!(t.remove(s, k).unwrap(), model.remove(&k)),
                    _ => assert_eq!(t.get(s, k).unwrap(), model.get(&k).copied()),
                }
            }
            let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
            expected.sort_unstable();
            assert_eq!(t.collect(s.memory()), expected);
        });
    }

    /// The sorted list stays sorted, unique and model-equal.
    #[test]
    fn sorted_list_equals_btreeset(ops in prop::collection::vec(set_op(), 1..80)) {
        let mut b = MemoryBuilder::new();
        let list = SortedList::new(&mut b, 72, 1);
        let mem = b.freeze(1);
        list.init(&mem);
        let l = list.clone();
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            let mut model = BTreeSet::new();
            for op in &ops {
                match *op {
                    SetOp::Insert(k) => assert_eq!(l.insert(s, k).unwrap(), model.insert(k)),
                    SetOp::Remove(k) => assert_eq!(l.remove(s, k).unwrap(), model.remove(&k)),
                    SetOp::Contains(k) => {
                        assert_eq!(l.contains(s, k).unwrap(), model.contains(&k))
                    }
                }
            }
            let got = l.collect(s.memory());
            let expected: Vec<u64> = model.into_iter().collect();
            assert_eq!(got, expected);
        });
    }

    /// Aborted structure operations leave no trace: run a random op
    /// sequence inside one transaction, abort, and the structure must be
    /// byte-identical to before.
    #[test]
    fn aborted_tree_ops_roll_back(
        warm in prop::collection::vec(0u64..64, 0..30),
        ops in prop::collection::vec(set_op(), 1..40),
    ) {
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, 128, 1);
        let mem = b.freeze(1);
        tree.init(&mem);
        let t = tree.clone();
        let warm2 = warm.clone();
        let (_, mem, _) = harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            for &k in &warm2 {
                t.insert(s, k).unwrap();
            }
            let before = t.collect(s.memory());
            s.begin();
            for op in &ops {
                match *op {
                    SetOp::Insert(k) => { t.insert(s, k).unwrap(); }
                    SetOp::Remove(k) => { t.remove(s, k).unwrap(); }
                    SetOp::Contains(k) => { t.contains(s, k).unwrap(); }
                }
            }
            let _ = s.xabort(9, false);
            assert_eq!(t.collect(s.memory()), before, "abort leaked structure changes");
        });
        tree.validate(&mem).map_err(TestCaseError::fail)?;
    }
}
