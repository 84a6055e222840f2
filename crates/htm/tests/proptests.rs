//! Property-based tests of the HTM substrate.

use elision_htm::{
    harness, HtmConfig, MemoryBuilder, PlacementConfig, PlacementPolicy, Placer, VarId, VarRole,
};
use proptest::prelude::*;

/// One step of a random single-threaded transactional program.
#[derive(Debug, Clone)]
enum Step {
    Load(u8),
    Store(u8, u64),
    Cas(u8, u64, u64),
    FetchAdd(u8, u64),
    Swap(u8, u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u8>().prop_map(Step::Load),
        (any::<u8>(), 0u64..100).prop_map(|(v, x)| Step::Store(v, x)),
        (any::<u8>(), 0u64..100, 0u64..100).prop_map(|(v, e, n)| Step::Cas(v, e, n)),
        (any::<u8>(), 1u64..10).prop_map(|(v, d)| Step::FetchAdd(v, d)),
        (any::<u8>(), 0u64..100).prop_map(|(v, x)| Step::Swap(v, x)),
    ]
}

const VARS: usize = 16;

fn var(i: u8) -> VarId {
    VarId::from_index((i as usize % VARS) as u32)
}

fn apply_model(model: &mut [u64; VARS], step: &Step) {
    match *step {
        Step::Load(_) => {}
        Step::Store(v, x) => model[v as usize % VARS] = x,
        Step::Cas(v, e, n) => {
            let slot = &mut model[v as usize % VARS];
            if *slot == e {
                *slot = n;
            }
        }
        Step::FetchAdd(v, d) => {
            let slot = &mut model[v as usize % VARS];
            *slot = slot.wrapping_add(d);
        }
        Step::Swap(v, x) => model[v as usize % VARS] = x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A committed transaction's effects equal a sequential model's; an
    /// aborted transaction's effects are invisible.
    #[test]
    fn committed_txns_match_model_aborted_txns_vanish(
        steps in prop::collection::vec(step_strategy(), 1..40),
        commit in any::<bool>(),
    ) {
        let mut b = MemoryBuilder::new().words_per_line(4);
        b.alloc_array(VARS, 0);
        let mem = b.freeze(1);
        let steps2 = steps.clone();
        let (_, mem, _) = harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            for st in &steps2 {
                match *st {
                    Step::Load(v) => { s.load(var(v)).unwrap(); }
                    Step::Store(v, x) => s.store(var(v), x).unwrap(),
                    Step::Cas(v, e, n) => { s.cas(var(v), e, n).unwrap(); }
                    Step::FetchAdd(v, d) => { s.fetch_add(var(v), d).unwrap(); }
                    Step::Swap(v, x) => { s.swap(var(v), x).unwrap(); }
                }
            }
            if commit {
                s.commit().unwrap();
            } else {
                let _ = s.xabort(1, false);
            }
        });
        let mut model = [0u64; VARS];
        if commit {
            for st in &steps {
                apply_model(&mut model, st);
            }
        }
        for (i, &expected) in model.iter().enumerate() {
            prop_assert_eq!(mem.read_direct(VarId::from_index(i as u32)), expected);
        }
        prop_assert!(!mem.any_residual_bits());
    }

    /// Transactional reads observe the transaction's own earlier writes
    /// (read-your-writes) for arbitrary programs.
    #[test]
    fn read_your_writes(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let mut b = MemoryBuilder::new().words_per_line(4);
        b.alloc_array(VARS, 0);
        let mem = b.freeze(1);
        let steps2 = steps.clone();
        harness::run(1, HtmConfig::deterministic(), 1, mem, move |s| {
            let mut model = [0u64; VARS];
            s.begin();
            for st in &steps2 {
                match *st {
                    Step::Load(v) => {
                        assert_eq!(s.load(var(v)).unwrap(), model[v as usize % VARS]);
                    }
                    Step::Store(v, x) => s.store(var(v), x).unwrap(),
                    Step::Cas(v, e, n) => {
                        let old = s.cas(var(v), e, n).unwrap();
                        assert_eq!(old, model[v as usize % VARS]);
                    }
                    Step::FetchAdd(v, d) => {
                        let old = s.fetch_add(var(v), d).unwrap();
                        assert_eq!(old, model[v as usize % VARS]);
                    }
                    Step::Swap(v, x) => {
                        let old = s.swap(var(v), x).unwrap();
                        assert_eq!(old, model[v as usize % VARS]);
                    }
                }
                apply_model(&mut model, st);
            }
            s.commit().unwrap();
        });
    }

    /// Under any spurious-abort rate, a retry loop still completes every
    /// operation exactly once (no lost or duplicated updates), and all
    /// conflict bitmaps drain.
    #[test]
    fn retry_loops_survive_any_spurious_rate(
        rate in 0.0f64..0.9,
        per_access in 0.0f64..0.05,
        threads in 1usize..5,
    ) {
        let mut b = MemoryBuilder::new();
        let counter = b.alloc_isolated(0);
        let mem = b.freeze(threads);
        let cfg = HtmConfig::deterministic().with_spurious(rate, per_access);
        let ops = 30u64;
        let (_, mem, _) = harness::run(threads, cfg, 11, mem, move |s| {
            for _ in 0..ops {
                loop {
                    let r = s.attempt(|s| {
                        let v = s.load(counter)?;
                        s.store(counter, v + 1)
                    });
                    if r.is_ok() {
                        break;
                    }
                }
            }
        });
        prop_assert_eq!(mem.read_direct(counter), threads as u64 * ops);
        prop_assert!(!mem.any_residual_bits());
    }
}

fn policy_strategy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::Packed),
        Just(PlacementPolicy::Padded),
        Just(PlacementPolicy::IndexAware),
        any::<u64>().prop_map(PlacementPolicy::Randomized),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential check of the two line-assignment implementations:
    /// the static [`LayoutMap`] the placement layer hands to the
    /// analysis code, and the memory's own hot-path [`Memory::line_of`]
    /// (a shift for power-of-two line widths, a division otherwise).
    /// They must agree for every allocated word under every policy,
    /// stride, and line width — including non-power-of-two widths.
    #[test]
    fn layout_map_matches_memory_line_of(
        wpl in 1usize..17,
        policy in policy_strategy(),
        lockco in any::<bool>(),
        regions in prop::collection::vec((1u32..7, 1usize..10), 1..4),
        metas in 0usize..3,
    ) {
        let b = MemoryBuilder::new().words_per_line(wpl);
        let cfg = PlacementConfig::new(policy).with_coresident_locks(lockco);
        let mut p = Placer::new(b, cfg);
        let mut meta_vars = Vec::new();
        for m in 0..metas {
            meta_vars.push(p.meta(&format!("meta{m}"), 0));
        }
        let mut arenas = Vec::new();
        for (i, &(stride, count)) in regions.iter().enumerate() {
            arenas.push((p.records(&format!("r{i}"), VarRole::Data, count, stride, 0), count, stride));
        }
        let (b, layout) = p.finish();
        prop_assert_eq!(layout.words_per_line(), wpl as u32);
        let mem = b.freeze(1);
        // Every word: the static map and the hot path agree.
        for w in 0..layout.words() {
            prop_assert_eq!(
                mem.line_of(VarId::from_index(w)).raw(),
                layout.line_of_word(w),
                "word {} under wpl {}", w, wpl
            );
        }
        // Every placed variable resolves back to its own line.
        for v in &meta_vars {
            prop_assert_eq!(mem.line_of(*v).raw(), layout.line_of(*v));
        }
        for (arena, count, stride) in &arenas {
            for r in 0..*count as u64 {
                for f in 0..*stride {
                    let v = arena.word(r, f);
                    prop_assert_eq!(mem.line_of(v).raw(), layout.line_of(v));
                }
            }
        }
    }
}
