//! The lemming effect, live: why fair locks and HLE don't mix, and how
//! SCM fixes it.
//!
//! ```text
//! cargo run --release -p elision-bench --example lemming_effect
//! ```
//!
//! Eight threads hammer a small red-black tree under an MCS lock. With
//! plain HLE a single abort sends every thread into the MCS queue, where
//! fairness "remembers" the conflict: each queued thread acquires the
//! lock for real, and the globally visible acquisition keeps aborting
//! every newly speculating thread. The run degenerates into a serial
//! execution (watch `frac-nonspec` hit ~1.0). With the paper's
//! software-assisted conflict management, aborted threads serialize on an
//! auxiliary lock instead and *rejoin the speculative run* — concurrency
//! is restored without giving up the MCS lock's fairness.

use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::OpCounters;
use elision_structures::{key_domain, OpMix, RbTree, TreeOp};
use std::sync::Arc;

const THREADS: usize = 8;
const TREE_SIZE: usize = 64;
const OPS_PER_THREAD: u64 = 400;

fn main() {
    println!("Workload: {TREE_SIZE}-node tree, 10% insert / 10% delete / 80% lookup, {THREADS} threads, MCS lock\n");
    let mut baseline = None;
    for kind in [SchemeKind::Standard, SchemeKind::Hle, SchemeKind::HleRetries, SchemeKind::HleScm]
    {
        let (throughput, c) = run_under(kind);
        let speedup = baseline.map(|b: f64| throughput / b).unwrap_or(1.0);
        if kind == SchemeKind::Standard {
            baseline = Some(throughput);
        }
        println!(
            "{:<12} speedup-vs-standard {:>5.2}   frac-nonspec {:>5.3}   aborted attempts {:>6}",
            kind.label(),
            speedup,
            c.frac_nonspeculative(),
            c.aborted,
        );
    }
    println!(
        "\nHLE gains nothing over the standard MCS lock (everything serializes after \
         the first abort); HLE-retries barely helps because the queue must fully \
         drain before anyone can speculate again; HLE-SCM recovers the concurrency."
    );
}

fn run_under(kind: SchemeKind) -> (f64, OpCounters) {
    let domain = key_domain(TREE_SIZE);
    let mut b = MemoryBuilder::new();
    let tree = RbTree::new(&mut b, domain as usize + 64, THREADS);
    let scheme = make_scheme(kind, LockKind::Mcs, SchemeConfig::paper(), &mut b, THREADS);
    let mem = Arc::new(b.freeze(THREADS));
    tree.init(&mem);
    {
        let fill_tree = tree.clone();
        harness::run(1, HtmConfig::deterministic(), 7, Arc::clone(&mem), move |s| {
            let mut filled = 0;
            while filled < TREE_SIZE {
                let key = s.rng.below(domain);
                if fill_tree.insert(s, key).expect("fill") {
                    filled += 1;
                }
            }
        });
        tree.rebalance_freelists(&mem);
    }
    let tree2 = tree.clone();
    let (results, _, makespan) =
        harness::run(THREADS, HtmConfig::haswell(), 42, Arc::clone(&mem), move |s| {
            for _ in 0..OPS_PER_THREAD {
                let op = OpMix::MODERATE.draw(&mut s.rng);
                let key = s.rng.below(domain);
                scheme.execute(s, |s| match op {
                    TreeOp::Insert => tree2.insert(s, key).map(|_| ()),
                    TreeOp::Delete => tree2.remove(s, key).map(|_| ()),
                    TreeOp::Lookup => tree2.contains(s, key).map(|_| ()),
                });
            }
            s.counters
        });
    let total = OPS_PER_THREAD * THREADS as u64;
    (total as f64 * 1000.0 / makespan as f64, OpCounters::sum(results.iter()))
}
