//! Layer microbenchmarks driven from the crates' public APIs, and the
//! decomposition check that adds them back up.
//!
//! These repeat what the criterion shims under `crates/bench/benches`
//! measure (solo `Strand` accesses, lock round trips, solo
//! `Scheme::execute`), plus the scheduler's window-0 handoff and the cost
//! of spawning a simulation, plain and controlled. Each figure is the
//! median of three timed repetitions.

use crate::round::CellTiming;
use crate::workloads::SOLO_SIZE;
use elision_core::{make_lock, make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{HtmConfig, Memory, MemoryBuilder, Strand, VarId};
use elision_sim::{DetRng, ScheduleControl, Scheduler, SimBuilder, SimHandle};
use elision_structures::{key_domain, OpMix, RbTree, TreeOp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The largest |residual| share at which the `tree-solo` decomposition
/// counts as predicting the measured host time.
pub const DECOMP_TOLERANCE: f64 = 0.25;

/// Median over three repetitions of the wall nanoseconds per unit of
/// `run`, which performs `units` units each time.
fn ns_per(units: u64, mut run: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[1]
}

/// A strand on a one-thread scheduler driven from the calling thread,
/// as the criterion shims build it: nothing ever parks.
fn solo_strand(mem: Memory) -> Strand {
    let sched = Arc::new(Scheduler::new(1, 0));
    sched.release_start();
    Strand::new(Arc::new(mem), SimHandle::new(sched, 0), HtmConfig::deterministic(), 1)
}

/// Window-0 `advance(1)` across `threads` simulated threads: with equal
/// costs every advance hands the baton to the next thread.
fn handoff_ns(threads: usize, advances: u64) -> f64 {
    let per_thread = advances / threads as u64;
    ns_per(per_thread * threads as u64, || {
        SimBuilder::new(threads).window(0).run(move |ctx| {
            for _ in 0..per_thread {
                ctx.handle.advance(1);
            }
        });
    })
}

fn spawn_us(controlled: bool) -> f64 {
    const CALLS: u64 = 100;
    ns_per(CALLS, || {
        for _ in 0..CALLS {
            let builder = SimBuilder::new(2).window(0);
            let builder = if controlled {
                builder.control(Arc::new(ScheduleControl::new(2, BTreeMap::new())))
            } else {
                builder
            };
            black_box(builder.run(|ctx| ctx.id));
        }
    }) / 1000.0
}

fn htm_ns() -> [(&'static str, f64); 4] {
    const N: u64 = 200_000;
    let mut b = MemoryBuilder::new();
    let base = b.alloc_array(64, 0);
    let mut s = solo_strand(b.freeze(1));
    let v = base;
    let load = ns_per(N, || {
        for _ in 0..N {
            black_box(s.load(v).expect("plain load"));
        }
    });
    let store = ns_per(N, || {
        for i in 0..N {
            s.store(v, i).expect("plain store");
        }
    });
    const T: u64 = 20_000;
    let lines: Vec<VarId> = (0..8).map(|k| VarId::from_index(base.index() + k * 8)).collect();
    let txn16 = ns_per(T, || {
        for _ in 0..T {
            s.begin();
            for &l in &lines {
                let x = s.load(l).expect("solo txn load");
                s.store(l, x + 1).expect("solo txn store");
            }
            s.commit().expect("solo txn commits");
        }
    });
    let txn0 = ns_per(T, || {
        for _ in 0..T {
            s.begin();
            s.commit().expect("solo txn commits");
        }
    });
    [("htm.load_ns", load), ("htm.store_ns", store), ("htm.txn16_ns", txn16), ("htm.txn0_ns", txn0)]
}

fn lock_ns(kind: LockKind) -> (f64, f64) {
    const N: u64 = 100_000;
    let mut b = MemoryBuilder::new();
    let lock = make_lock(kind, &mut b, 1);
    let mut s = solo_strand(b.freeze(1));
    let acq_rel = ns_per(N, || {
        for _ in 0..N {
            lock.acquire(&mut s).expect("solo acquire");
            lock.release(&mut s).expect("solo release");
        }
    });
    let elided = ns_per(N, || {
        for _ in 0..N {
            s.begin();
            lock.elided_acquire(&mut s).expect("solo elided acquire");
            lock.elided_release(&mut s).expect("solo elided release");
            s.commit().expect("solo txn commits");
        }
    });
    (acq_rel, elided)
}

/// Solo `Scheme::execute` around an empty critical section on TTAS.
fn execute_ns(kind: SchemeKind) -> f64 {
    const N: u64 = 50_000;
    let mut b = MemoryBuilder::new();
    let scheme = make_scheme(kind, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
    let mut s = solo_strand(b.freeze(1));
    ns_per(N, || {
        for _ in 0..N {
            black_box(scheme.execute(&mut s, |_| Ok(())));
        }
    })
}

/// A `MODERATE`-mix red-black-tree call on a `tree-solo`-sized tree,
/// plain and inside a bare transaction (net of an empty one).
fn tree_op_ns(seed: u64, txn0_ns: f64) -> (f64, f64) {
    const N: u64 = 20_000;
    let domain = key_domain(SOLO_SIZE);
    let mut b = MemoryBuilder::new();
    let tree = RbTree::new(&mut b, domain as usize + 16, 1);
    let mem = b.freeze(1);
    tree.init(&mem);
    let mut s = solo_strand(mem);
    let mut rng = DetRng::new(seed, 0x7EE);
    let mut filled = 0;
    while filled < SOLO_SIZE {
        if tree.insert(&mut s, rng.below(domain)).expect("plain insert") {
            filled += 1;
        }
    }
    let mut call = |s: &mut Strand| {
        let key = rng.below(domain);
        match OpMix::MODERATE.draw(&mut rng) {
            TreeOp::Insert => tree.insert(s, key),
            TreeOp::Delete => tree.remove(s, key),
            TreeOp::Lookup => tree.contains(s, key),
        }
    };
    let plain = ns_per(N, || {
        for _ in 0..N {
            black_box(call(&mut s).expect("plain tree call"));
        }
    });
    let txn = ns_per(N, || {
        for _ in 0..N {
            s.begin();
            black_box(call(&mut s).expect("solo txn tree call"));
            s.commit().expect("solo txn commits");
        }
    });
    (plain, txn - txn0_ns)
}

/// Every microbenchmark, by per-layer metric name.
pub fn microbench(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("sim.handoff_ns.t2", handoff_ns(2, 10_000));
    m.insert("sim.handoff_ns.t8", handoff_ns(8, 10_000));
    m.insert("sim.spawn_us", spawn_us(false));
    m.insert("sim.controlled_spawn_us", spawn_us(true));
    m.extend(htm_ns());
    for (kind, acq_rel, elided) in [
        (LockKind::Ttas, "locks.acq_rel_ns.ttas", "locks.elided_rt_ns.ttas"),
        (LockKind::Mcs, "locks.acq_rel_ns.mcs", "locks.elided_rt_ns.mcs"),
    ] {
        let (a, e) = lock_ns(kind);
        m.insert(acq_rel, a);
        m.insert(elided, e);
    }
    for (name, kind) in [
        ("core.solo_execute_ns.standard", SchemeKind::Standard),
        ("core.solo_execute_ns.hle", SchemeKind::Hle),
        ("core.solo_execute_ns.hle_scm", SchemeKind::HleScm),
        ("core.solo_execute_ns.opt_slr", SchemeKind::OptSlr),
    ] {
        m.insert(name, execute_ns(kind));
    }
    let (plain, txn) = tree_op_ns(seed, m["htm.txn0_ns"]);
    m.insert("structures.solo_op_ns.plain", plain);
    m.insert("structures.solo_op_ns.txn", txn);
    m
}

/// Host nanoseconds per operation the solo layer costs predict for a
/// cell: one `Scheme::execute` plus `calls_per_op` structure calls, in a
/// transaction for eliding schemes and plain under the lock otherwise.
pub fn predicted_ns_per_op(
    cell: &CellTiming,
    calls_per_op: f64,
    micro: &BTreeMap<&'static str, f64>,
) -> f64 {
    let call = if cell.transactional {
        micro["structures.solo_op_ns.txn"]
    } else {
        micro["structures.solo_op_ns.plain"]
    };
    micro[cell.scheme_layer] + calls_per_op * call
}
