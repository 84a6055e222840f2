//! A tour of the STAMP kernels: run three representative applications
//! (tiny, medium and very long transactions) under the main schemes and
//! print runtimes normalized to standard locking — a miniature of the
//! paper's Figure 11.
//!
//! ```text
//! cargo run --release -p elision-bench --example stamp_tour
//! ```

use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_stamp::{run_kernel, KernelKind, StampParams};

fn main() {
    let kernels = [KernelKind::Ssca2, KernelKind::VacationHigh, KernelKind::Labyrinth];
    let schemes = [SchemeKind::Standard, SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr];
    let threads = 8;

    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock (normalized runtime; lower is better) ---", lock.label());
        print!("{:<16}", "kernel");
        for s in schemes {
            print!("{:>12}", s.label());
        }
        println!();
        for kernel in kernels {
            print!("{:<16}", kernel.label());
            let mut baseline = 0.0;
            for scheme in schemes {
                let run = run_kernel(
                    kernel,
                    scheme,
                    lock,
                    threads,
                    &StampParams::quick(),
                    HtmConfig::haswell(),
                );
                if scheme == SchemeKind::Standard {
                    baseline = run.makespan as f64;
                }
                print!("{:>12.3}", run.makespan as f64 / baseline);
            }
            println!();
        }
        println!();
    }
    println!(
        "ssca2's tiny transactions elide well everywhere; vacation shows the \
         scheme gaps; labyrinth's huge transactions favour lock removal (SLR), \
         which avoids aborting the long-running reader on every lock hand-off."
    );
}
