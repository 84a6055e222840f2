//! Quickstart: protect a shared red-black tree with one global lock and
//! run it under every elision scheme the paper evaluates.
//!
//! ```text
//! cargo run --release -p elision-bench --example quickstart
//! ```
//!
//! The program builds a simulated 8-thread multicore, wraps a TTAS lock
//! in each scheme in turn, runs the same mixed workload, and prints the
//! paper's key metrics: throughput (in simulated cycles), the fraction of
//! operations that had to take the real lock, and the average number of
//! attempts per critical section.

use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::OpCounters;
use elision_structures::{key_domain, OpMix, RbTree, TreeOp};
use std::sync::Arc;

const THREADS: usize = 8;
const TREE_SIZE: usize = 256;
const OPS_PER_THREAD: u64 = 500;

fn main() {
    println!("scheme       ops/kcycle   frac-nonspec   attempts/op");
    println!("------------------------------------------------------");
    for kind in SchemeKind::ALL {
        let (throughput, counters) = run_under(kind);
        println!(
            "{:<12} {:>10.2} {:>14.3} {:>13.2}",
            kind.label(),
            throughput,
            counters.frac_nonspeculative(),
            counters.attempts_per_op(),
        );
    }
    println!(
        "\nReading the table: 'Standard' serializes everything (frac-nonspec 1); \
         plain HLE speculates but falls back on aborts; the paper's SCM and SLR \
         schemes keep almost every operation speculative."
    );
}

/// Build the world, fill the tree, run the workload; returns throughput
/// in operations per thousand simulated cycles plus the S/A/N counters.
fn run_under(kind: SchemeKind) -> (f64, OpCounters) {
    let domain = key_domain(TREE_SIZE);
    let mut b = MemoryBuilder::new();
    let tree = RbTree::new(&mut b, domain as usize + 64, THREADS);
    let scheme = make_scheme(kind, LockKind::Ttas, SchemeConfig::paper(), &mut b, THREADS);
    let mem = Arc::new(b.freeze(THREADS));
    tree.init(&mem);

    // Fill the tree to its target size (single simulated thread).
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

    // The measured phase: every thread runs the paper's moderate mix
    // (10% insert / 10% delete / 80% lookup).
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

    tree.validate(&mem).expect("tree invariants must hold after the run");
    let total = OPS_PER_THREAD * THREADS as u64;
    (total as f64 * 1000.0 / makespan as f64, OpCounters::sum(results.iter()))
}
