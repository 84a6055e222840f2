//! Shared measurement pipeline behind the `elision` binary.
//!
//! Each entry of the [`experiments`] registry regenerates one figure of
//! the paper, one ablation or one verification gate: it sweeps its
//! parameter grid, runs the simulated benchmark, and prints the same
//! rows/series the paper plots (plus optional CSV and JSON). This
//! library holds the common pieces: the red-black-tree and hash-table
//! benchmark drivers (fill phase + measured phase), seed averaging,
//! speedup computation, table printing and a tiny CLI parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod servicebench;
pub mod sweep;
pub mod treebench;

pub use chaos::ChaosProfile;
pub use cli::CliArgs;
pub use sweep::{Cell, Sweep, SweepOutcome, TimingLog};
pub use treebench::{
    run_hash_bench, run_tree_bench, run_tree_bench_avg, HashBenchSpec, TreeBenchResult,
    TreeBenchSpec,
};

/// The paper's thread-count maximum (4 cores x 2 hyperthreads).
pub const PAPER_THREADS: usize = 8;

/// Tree-size sweep used by the spectrum figures (the paper sweeps
/// 2..512K; the simulator covers the same dynamic range with a cap chosen
/// for host runtime — the curves' shape settles well before the cap).
pub fn size_sweep(quick: bool, full: bool) -> Vec<usize> {
    if quick {
        vec![8, 128, 2048]
    } else if full {
        vec![2, 8, 32, 128, 512, 2048, 8192, 32768]
    } else {
        vec![2, 8, 32, 128, 512, 2048, 8192]
    }
}
