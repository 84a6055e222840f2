//! Same-host benchmark of the elision simulator's host speed.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload tree-contended --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats its workload's fixed, seed-derived input in rounds until
//! `--seconds` have passed (at least three rounds). Host metrics are
//! medians over rounds; simulated metrics come from the first round, and
//! every later round must reproduce its simulated outputs byte for byte.
//! `--trace 1` interleaves traced rounds with untraced ones, runs the
//! layer microbenchmarks, and prints the per-layer metrics instead of the
//! end-to-end ones. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hostbench reads Linux /proc and the 64-bit Linux clock_gettime ABI");

mod cells;
mod layers;
mod modelcheck;
mod procfs;
mod report;
mod round;
mod service;
mod trace;
mod workloads;

use round::Round;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let name = args.workload.name();
    println!(
        "== hostbench {name}: seed {}, {} s, trace {}, {} host CPUs ==",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let micro = args.trace.then(|| layers::microbench(args.seed));
    let sink: trace::Sink = Arc::new(Mutex::new(Vec::new()));
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let ticks_before = procfs::cpu_ticks();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // Every input runs at least once, however long that takes.
    let parts = args.workload.parts();
    while untraced.len() < parts || started.elapsed() < budget {
        let part = untraced.len() % parts;
        untraced.push(args.workload.round(args.seed, part, None));
        if args.trace {
            traced.push(args.workload.round(args.seed, part, Some(&sink)));
        }
    }

    // The spans, and the first round's simulated outputs for diffing
    // against another commit, go to `out/` beside this crate.
    let spans = std::mem::take(&mut *sink.lock().expect("span sink poisoned"));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let sim_path = dir.join(format!("sim-{name}-{}.txt", args.seed));
    let digests: String = untraced[..parts].iter().map(|r| r.digest.as_str()).collect();
    let spans_path = dir.join(format!("spans-{name}-{}.tsv", args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&sim_path, digests))
        .and_then(|()| if args.trace { trace::write_tsv(&spans_path, &spans) } else { Ok(()) });
    if let Err(e) = written {
        eprintln!("warning: could not write to {}: {e}", dir.display());
    }

    let mut out = report::Report::build(args.workload, &untraced, &traced, &spans, micro.as_ref());
    // Steal slows every handoff; it explains a slow run without being one
    // of its metrics.
    match (ticks_before, procfs::cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => out.note(format!(
            "host CPU steal during the rounds: {:.1}% of all CPU time",
            (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
        )),
        _ => out.note("host CPU steal: /proc/stat steal is missing".to_string()),
    }
    out.print(args.trace);
}
