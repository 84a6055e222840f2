//! Cross-crate correctness: every scheme must preserve atomicity and
//! structure invariants on every lock family, under simulated preemption
//! and clock jitter, abort storms and mixed structures — the safety net
//! under all performance claims.

use elision_core::{make_scheme, LazyMode, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::FaultPlan;
use elision_structures::{HashTable, OpAction, OpResponse, RbTree, SimQueue, SortedList};
use std::sync::Arc;

const SCHEMES: [SchemeKind; 6] = [
    SchemeKind::Standard,
    SchemeKind::Hle,
    SchemeKind::HleRetries,
    SchemeKind::HleScm,
    SchemeKind::OptSlr,
    SchemeKind::SlrScm,
];

const LOCKS: [LockKind; 4] = [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh];

/// A mixed critical section moving items between a tree, a table and a
/// queue: an item is "minted" into the tree, later migrated tree→table,
/// then table→queue, then consumed. Conservation: minted == in-tree +
/// in-table + in-queue + consumed.
fn mixed_structures_run(
    scheme_kind: SchemeKind,
    lock: LockKind,
    faults: FaultPlan,
    htm: HtmConfig,
) {
    let threads = 4;
    let ops = 120u64;
    let mut b = MemoryBuilder::new();
    let tree = RbTree::new(&mut b, 4096, threads);
    let table = HashTable::new(&mut b, 64, 4096, threads);
    let queue = SimQueue::new(&mut b, 4096);
    let consumed = b.alloc_isolated(0);
    let minted = b.alloc_isolated(0);
    let scheme = make_scheme(scheme_kind, lock, SchemeConfig::paper(), &mut b, threads);
    let mem = Arc::new(b.freeze(threads));
    tree.init(&mem);
    table.init(&mem);

    let t = tree.clone();
    let tab = table.clone();
    let q = queue.clone();
    harness::run_arc_faulted(threads, htm, 77, faults, Arc::clone(&mem), move |s| {
        for i in 0..ops {
            let kind = s.rng.below(4);
            let key = (s.tid() as u64) << 32 | i; // unique keys per thread
            let migrate_key = s.rng.below(2) << 32 | s.rng.below(ops);
            scheme.execute(s, |s| {
                match kind {
                    0 => {
                        // Mint a fresh item into the tree.
                        if t.insert(s, key)? {
                            let m = s.load(minted)?;
                            s.store(minted, m + 1)?;
                        }
                    }
                    1 => {
                        // Migrate tree -> table.
                        if t.remove(s, migrate_key)? {
                            let dup = tab.put(s, migrate_key, 1)?;
                            assert!(dup.is_none(), "item duplicated during migration");
                        }
                    }
                    2 => {
                        // Migrate table -> queue.
                        if tab.remove(s, migrate_key)?.is_some() {
                            let ok = q.push(s, migrate_key)?;
                            assert!(ok, "queue overflow");
                        }
                    }
                    _ => {
                        // Consume from the queue.
                        if q.pop(s)?.is_some() {
                            let c = s.load(consumed)?;
                            s.store(consumed, c + 1)?;
                        }
                    }
                }
                Ok(())
            });
        }
    });

    let in_tree = tree.validate(&mem).unwrap_or_else(|e| panic!("{scheme_kind}/{lock}: {e}"));
    let in_table = table.collect(&mem).len() as u64;
    let in_queue = queue.len_direct(&mem);
    let total = in_tree as u64 + in_table + in_queue + mem.read_direct(consumed);
    assert_eq!(total, mem.read_direct(minted), "{scheme_kind}/{lock}: items leaked or duplicated");
}

#[test]
fn mixed_structures_all_schemes_ttas_mcs() {
    for scheme in SCHEMES {
        for lock in [LockKind::Ttas, LockKind::Mcs] {
            mixed_structures_run(scheme, lock, FaultPlan::none(), HtmConfig::deterministic());
        }
    }
}

#[test]
fn mixed_structures_adapted_fair_locks() {
    for lock in [LockKind::Ticket, LockKind::Clh] {
        for scheme in [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::SlrScm] {
            mixed_structures_run(scheme, lock, FaultPlan::none(), HtmConfig::deterministic());
        }
    }
}

/// Seeded preemption and jitter make the threads' clocks lag one another
/// by up to a preemption pause.
#[test]
fn mixed_structures_with_lag_window() {
    let faults = FaultPlan::none().with_preempt(400, 1_500).with_jitter(300).with_seed(32);
    for scheme in [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr] {
        mixed_structures_run(scheme, LockKind::Ttas, faults, HtmConfig::deterministic());
    }
}

#[test]
fn mixed_structures_under_spurious_storm() {
    let storm = HtmConfig::deterministic().with_spurious(0.3, 0.002);
    for scheme in [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr, SchemeKind::SlrScm] {
        mixed_structures_run(scheme, LockKind::Mcs, FaultPlan::none(), storm);
    }
}

#[test]
fn mixed_structures_under_tight_capacity() {
    // Write sets larger than 12 lines abort: long operations must fall
    // back to the lock and still be atomic.
    let tight = HtmConfig::deterministic().with_capacity(256, 12);
    for scheme in [SchemeKind::Hle, SchemeKind::OptSlr, SchemeKind::SlrScm] {
        mixed_structures_run(scheme, LockKind::Ttas, FaultPlan::none(), tight);
    }
}

/// The per-thread op histories plus the sorted final contents of every
/// structure after a deterministic run of one scheme × lock
/// cell.
type DifferentialState = (Vec<Vec<(OpAction, OpResponse)>>, Vec<(u64, u64)>, Vec<u64>, Vec<u64>);

/// Run the differential workload on one cell. Per-thread key ranges are
/// disjoint (plus a shared never-written probe key), so each operation's
/// response and the final structure contents are independent of how the
/// threads interleave: any divergence from the TTAS baseline is a scheme
/// bug (lost update, duplicated insert, stale speculative read), never a
/// legitimate reordering.
fn differential_cell(scheme_kind: SchemeKind, lock: LockKind) -> DifferentialState {
    differential_cell_cfg(scheme_kind, lock, SchemeConfig::paper(), HtmConfig::deterministic())
}

/// [`differential_cell`] with explicit scheme/HTM configuration, so the
/// lazy-subscription variants (unfenced model, dangerous-instruction
/// screen, hardware commit-time subscription) run the identical workload.
fn differential_cell_cfg(
    scheme_kind: SchemeKind,
    lock: LockKind,
    cfg: SchemeConfig,
    htm: HtmConfig,
) -> DifferentialState {
    let threads = 4;
    let sections = 24usize;
    let mut b = MemoryBuilder::new();
    let table = HashTable::new(&mut b, 16, 512, threads);
    let list = SortedList::new(&mut b, 512, threads);
    let tree = RbTree::new(&mut b, 512, threads);
    let scheme = make_scheme(scheme_kind, lock, cfg, &mut b, threads);
    let mem = Arc::new(b.freeze(threads));
    table.init(&mem);
    list.init(&mem);
    tree.init(&mem);

    let (tab, li, tr) = (table.clone(), list.clone(), tree.clone());
    let (hists, _, _) = harness::run(threads, htm, 9, Arc::clone(&mem), move |s| {
        let tid = s.tid() as u64;
        let mut hist = Vec::with_capacity(sections);
        for k in 0..sections {
            let k64 = k as u64;
            // Cycle over five private keys so puts, gets and removes
            // observe this thread's own earlier writes.
            let key = 1 + tid * 1_000 + k64 % 5;
            let (action, response) = match k % 7 {
                0 => (
                    OpAction::MapPut(key, tid * 100 + k64),
                    OpResponse::Value(
                        scheme.execute(s, |s| tab.put(s, key, tid * 100 + k64)).value,
                    ),
                ),
                1 => (
                    OpAction::MapGet(key),
                    OpResponse::Value(scheme.execute(s, |s| tab.get(s, key)).value),
                ),
                2 => (
                    OpAction::SetInsert(key),
                    OpResponse::Flag(scheme.execute(s, |s| li.insert(s, key)).value),
                ),
                3 => (
                    OpAction::SetInsert(key),
                    OpResponse::Flag(scheme.execute(s, |s| tr.insert(s, key)).value),
                ),
                4 => (
                    OpAction::MapRemove(key),
                    OpResponse::Value(scheme.execute(s, |s| tab.remove(s, key)).value),
                ),
                5 => (
                    OpAction::SetContains(key),
                    OpResponse::Flag(scheme.execute(s, |s| tr.contains(s, key)).value),
                ),
                // A key no thread ever writes: contends on shared
                // bucket lines yet always answers `None`.
                _ => (
                    OpAction::MapGet(7_777),
                    OpResponse::Value(scheme.execute(s, |s| tab.get(s, 7_777)).value),
                ),
            };
            hist.push((action, response));
        }
        hist
    });
    let mut final_table = table.collect(&mem);
    final_table.sort_unstable();
    (hists, final_table, list.collect(&mem), tree.collect(&mem))
}

/// Differential check: every scheme × lock cell must
/// produce exactly the op-result history and final structure state of
/// the Standard/TTAS baseline.
#[test]
fn every_cell_matches_the_ttas_baseline() {
    let baseline = differential_cell(SchemeKind::Standard, LockKind::Ttas);
    assert!(
        baseline.0.iter().all(|h| h.len() == 24) && !baseline.1.is_empty(),
        "baseline produced a trivial history; the differential would be vacuous"
    );
    for scheme in SCHEMES {
        for lock in LOCKS {
            if scheme == SchemeKind::Standard && lock == LockKind::Ttas {
                continue;
            }
            let got = differential_cell(scheme, lock);
            assert_eq!(
                got.0, baseline.0,
                "{scheme}/{lock}: op-result history diverged from Standard/TTAS"
            );
            assert_eq!(
                got.1, baseline.1,
                "{scheme}/{lock}: final hashtable state diverged from Standard/TTAS"
            );
            assert_eq!(
                got.2, baseline.2,
                "{scheme}/{lock}: final list state diverged from Standard/TTAS"
            );
            assert_eq!(
                got.3, baseline.3,
                "{scheme}/{lock}: final rbtree state diverged from Standard/TTAS"
            );
        }
    }
}

/// The lazy-subscription variants of arXiv 1407.6968: how the
/// subscription check is modelled (software read-set join, unfenced
/// hardware sample, hardware commit-time evaluation) and whether the
/// dangerous-instruction screen is armed. Label, mode, screen.
const LAZY_VARIANTS: [(&str, LazyMode, bool); 4] = [
    ("unfenced", LazyMode::Unfenced, false),
    ("dangerous_abort", LazyMode::ReadSet, true),
    ("hardware_commit", LazyMode::HardwareCommit, false),
    ("both", LazyMode::HardwareCommit, true),
];

/// Differential check for the lazy-subscription variants: on both lazy
/// schemes and every lock family, the unfenced (unfixed-hardware) model
/// and both hardware fixes must reproduce the Standard/TTAS baseline
/// exactly. The fixes may only change *when transactions abort*, never
/// what committed operations compute; and on this benign workload even
/// the unfenced model's racy window must not alter a single response.
#[test]
fn lazy_fix_variants_match_the_ttas_baseline() {
    let baseline = differential_cell(SchemeKind::Standard, LockKind::Ttas);
    for scheme in [SchemeKind::OptSlr, SchemeKind::SlrScm] {
        for lock in LOCKS {
            for (label, mode, screen) in LAZY_VARIANTS {
                let got = differential_cell_cfg(
                    scheme,
                    lock,
                    SchemeConfig::paper().with_lazy_mode(mode),
                    HtmConfig::deterministic().with_dangerous_abort(screen),
                );
                assert_eq!(
                    got.0, baseline.0,
                    "{scheme}/{lock}/{label}: op-result history diverged from Standard/TTAS"
                );
                assert_eq!(
                    got.1, baseline.1,
                    "{scheme}/{lock}/{label}: final hashtable state diverged from Standard/TTAS"
                );
                assert_eq!(
                    got.2, baseline.2,
                    "{scheme}/{lock}/{label}: final list state diverged from Standard/TTAS"
                );
                assert_eq!(
                    got.3, baseline.3,
                    "{scheme}/{lock}/{label}: final rbtree state diverged from Standard/TTAS"
                );
            }
        }
    }
}

/// The hardware commit-time subscription turns commit-while-locked into
/// `codes::SUBSCRIPTION` retry aborts: under full contention those
/// aborts must drain into the fallback path, not livelock.
#[test]
fn lazy_fix_variants_all_conflict_progress() {
    for (label, mode, screen) in LAZY_VARIANTS {
        for lock in LOCKS {
            let threads = 6;
            let ops = 60u64;
            let mut b = MemoryBuilder::new();
            let hot = b.alloc_isolated(0);
            let cfg = SchemeConfig::paper().with_lazy_mode(mode);
            let s = make_scheme(SchemeKind::OptSlr, lock, cfg, &mut b, threads);
            let mem = b.freeze(threads);
            let htm = HtmConfig::deterministic().with_dangerous_abort(screen);
            let (_, mem, _) = harness::run(threads, htm, 3, mem, move |st| {
                for _ in 0..ops {
                    s.execute(st, |st| {
                        let v = st.load(hot)?;
                        st.work(3)?;
                        st.store(hot, v + 1)
                    });
                }
            });
            assert_eq!(
                mem.read_direct(hot),
                threads as u64 * ops,
                "OptSlr/{lock}/{label}: lost updates under full contention"
            );
        }
    }
}

/// Progress under a pathological all-conflict workload: every operation
/// writes the same word; nothing may livelock or starve.
#[test]
fn all_conflict_progress() {
    for scheme in SCHEMES {
        for lock in LOCKS {
            let threads = 6;
            let ops = 60u64;
            let mut b = MemoryBuilder::new();
            let hot = b.alloc_isolated(0);
            let s = make_scheme(scheme, lock, SchemeConfig::paper(), &mut b, threads);
            let mem = b.freeze(threads);
            let (_, mem, _) =
                harness::run(threads, HtmConfig::deterministic(), 3, mem, move |st| {
                    for _ in 0..ops {
                        s.execute(st, |st| {
                            let v = st.load(hot)?;
                            st.work(3)?;
                            st.store(hot, v + 1)
                        });
                    }
                });
            assert_eq!(
                mem.read_direct(hot),
                threads as u64 * ops,
                "{scheme}/{lock}: lost updates under full contention"
            );
        }
    }
}
