//! The simulated-ops/sec perf gate.

use super::{Driver, Experiment};
use crate::metrics::{parse, Json, SCHEMA_VERSION};
use crate::report::{f2, Table};
use crate::sweep::{Cell, SweepOutcome};
use crate::{run_tree_bench_avg, CliArgs, TreeBenchSpec};
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;
use std::path::PathBuf;

/// Fraction of the blessed ops/sec below which the gate fails. 0.75
/// tolerates a 25% drop — generous enough to absorb host jitter between
/// CI runners, tight enough to catch a real hot-path regression.
const TOLERANCE_FRAC: f64 = 0.75;

/// Flags specific to this experiment, peeled off before the shared parser
/// (which exits on flags it does not know) sees the command line.
struct GateArgs {
    bless: bool,
    /// Emit metrics only, skipping the baseline comparison. For runs whose
    /// wall clock is not comparable to the baseline's — e.g. the CI
    /// determinism check at `--jobs 4`, where cells time-share cores and
    /// per-cell wall times inflate (the gate proper runs at `--jobs 1`).
    no_gate: bool,
    /// Repetitions of the whole sweep; the gated ops/sec figure uses the
    /// repetition with the *lowest* total wall time (best-of-N). Slow
    /// outliers come from OS scheduling noise, never from the code being
    /// faster than it is, so the minimum is the low-variance estimator of
    /// the true cost. The metrics artifact is identical across reps (the
    /// sweep is deterministic), so reps only spend wall clock.
    reps: usize,
    label: String,
    baseline: PathBuf,
    rest: Vec<String>,
}

fn parse_gate_args(argv: Vec<String>) -> GateArgs {
    let mut out = GateArgs {
        bless: false,
        no_gate: false,
        reps: 3,
        label: "blessed".to_string(),
        baseline: PathBuf::from("results/BENCH_SIM_HOTPATH_BASELINE.json"),
        rest: Vec::new(),
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bless" => out.bless = true,
            "--no-gate" => out.no_gate = true,
            "--reps" => {
                out.reps =
                    it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or_else(
                        || {
                            eprintln!("error: --reps needs a positive count");
                            std::process::exit(2);
                        },
                    );
            }
            "--label" => {
                out.label = it.next().unwrap_or_else(|| {
                    eprintln!("error: --label needs a name");
                    std::process::exit(2);
                });
            }
            "--baseline" => {
                out.baseline = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("error: --baseline needs a path");
                    std::process::exit(2);
                }));
            }
            _ => out.rest.push(a),
        }
    }
    out
}

/// perf_gate — the simulated-ops/sec performance trajectory gate.
///
/// Runs the standard scheme × lock sweep (Standard/HLE/HLE+SCM/Opt-SLR
/// over TTAS and MCS) through the sweep orchestrator and splits its output
/// into two deliberately separate artifacts:
///
/// * `BENCH_SIM_HOTPATH.json` (`--metrics DIR`): the *deterministic*
///   per-cell metrics — simulated throughput, makespan, attempts and
///   abort causes. A pure function of the specs, byte-identical at any
///   `--jobs` value; CI diffs a `--jobs 4` run against `--jobs 1`.
/// * host-wall-clock **simulated ops/sec** (simulated operations
///   completed per host second, summed over per-cell wall times so the
///   figure is independent of sweep-level parallelism; best of `--reps`
///   sweep repetitions, default 3, to shed OS scheduling noise):
///   inherently nondeterministic, so it is *never* written into the
///   metrics file. It is compared against the tracked baseline instead.
///
/// The tracked baseline lives at `results/BENCH_SIM_HOTPATH_BASELINE.json`
/// (override with `--baseline PATH`). The gate fails (exit 1) when the
/// measured ops/sec drops below `tolerance_frac` (0.75 = a >25% drop) of
/// the blessed figure; `--bless` refreshes the baseline instead of
/// comparing, appending the measurement to the file's `history` array
/// (label it with `--label NAME`) so the perf trajectory across hot-path
/// work stays on record. See EXPERIMENTS.md for the update procedure.
pub(super) fn perf_gate(exp: &'static Experiment, argv: Vec<String>) {
    let gate = parse_gate_args(argv);
    let args = CliArgs::parse_from(gate.rest.clone());
    let mut d = Driver::new(exp, &args);
    let ops = if args.quick { 150 } else { 400 };
    let size = 512;

    println!("== perf gate: simulated ops/sec over the scheme × lock sweep ==");
    println!("{} threads, size {size}, {ops} ops/thread, {} seed(s)\n", args.threads, args.seeds);

    let schemes = [SchemeKind::Standard, SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr];
    let locks = [LockKind::Ttas, LockKind::Mcs];
    let build_cells = || {
        let mut cells = Vec::new();
        for &scheme in &schemes {
            for &lock in &locks {
                let args = &args;
                cells.push(Cell::new(
                    format!("{scheme}/{}", lock.label()),
                    args.threads,
                    move || {
                        let mut spec =
                            TreeBenchSpec::new(scheme, lock, args.threads, size, OpMix::MODERATE);
                        spec.ops_per_thread = ops;
                        (scheme, lock, run_tree_bench_avg(&spec, args.seeds))
                    },
                ));
            }
        }
        cells
    };
    // Best-of-N: keep the repetition with the lowest total wall time (the
    // results themselves are deterministic, so any rep's outcome carries
    // the same metrics — only the wall-clock side differs).
    fn total_wall<T>(o: &SweepOutcome<T>) -> u64 {
        o.timings.iter().map(|t| t.wall_ms).sum()
    }
    let mut outcome = d.pool.run(build_cells());
    for _ in 1..gate.reps {
        let rerun = d.pool.run(build_cells());
        if total_wall(&rerun) < total_wall(&outcome) {
            outcome = rerun;
        }
    }
    d.timing.absorb(&outcome);

    // Deterministic metrics: one row per cell, byte-identical across
    // --jobs (the sweep merges in canonical order; nothing wall-clock
    // based goes in here).
    let mut table = Table::new(&["scheme", "lock", "sim-throughput", "attempts/op", "wall-ms"]);
    let mut report = d.metrics();
    let mut total_sim_ops = 0u64;
    let mut total_wall_ms = 0u64;
    for ((scheme, lock, r), t) in outcome.results.iter().zip(&outcome.timings) {
        table.row(vec![
            scheme.to_string(),
            lock.label().to_string(),
            f2(r.throughput),
            f2(r.counters.attempts_per_op()),
            t.wall_ms.to_string(),
        ]);
        report.push_result(
            vec![
                ("scheme", Json::Str(scheme.to_string())),
                ("lock", Json::Str(lock.label().to_string())),
                ("makespan", Json::Uint(r.makespan)),
            ],
            r,
        );
        total_sim_ops += r.counters.completed();
        total_wall_ms += t.wall_ms;
    }
    d.table(&table, "perf_gate");
    d.finish(&report.to_json());

    // Simulated ops/sec: completed simulated operations per host second,
    // over the *sum* of per-cell wall times so `--jobs` does not change
    // the figure's meaning.
    let ops_per_sec = total_sim_ops as f64 * 1000.0 / (total_wall_ms.max(1)) as f64;
    println!(
        "\nsimulated ops/sec: {ops_per_sec:.0} ({total_sim_ops} ops over {total_wall_ms} ms, \
         best of {} rep(s))",
        gate.reps
    );

    if gate.bless {
        bless(&gate, &args, exp.name, ops_per_sec);
        return;
    }
    if gate.no_gate {
        println!("baseline comparison skipped (--no-gate)");
        return;
    }
    compare(&gate, ops_per_sec);
}

/// Write (or refresh) the tracked baseline, appending to its history.
fn bless(gate: &GateArgs, args: &CliArgs, name: &str, ops_per_sec: f64) {
    let history = match std::fs::read_to_string(&gate.baseline) {
        Ok(text) => {
            let doc = parse(&text).expect("existing baseline must parse");
            doc.get("history").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
        }
        Err(_) => Vec::new(),
    };
    let mut history = history;
    history.push(Json::obj(vec![
        ("label", Json::Str(gate.label.clone())),
        ("ops_per_sec", Json::Float(ops_per_sec)),
    ]));
    let doc = Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("kind", Json::Str("perf_baseline".to_string())),
        ("binary", Json::Str(name.to_string())),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::Uint(args.threads as u64)),
                ("seeds", Json::Uint(args.seeds)),
                ("quick", Json::Bool(args.quick)),
                ("reps", Json::Uint(gate.reps as u64)),
            ]),
        ),
        ("tolerance_frac", Json::Float(TOLERANCE_FRAC)),
        ("ops_per_sec", Json::Float(ops_per_sec)),
        ("history", Json::Arr(history)),
    ]);
    if let Some(dir) = gate.baseline.parent() {
        std::fs::create_dir_all(dir).expect("creating baseline directory");
    }
    std::fs::write(&gate.baseline, doc.render()).expect("writing baseline");
    println!("blessed baseline {} at {ops_per_sec:.0} ops/sec", gate.baseline.display());
}

/// Compare against the tracked baseline; exit 1 on a >25% drop.
fn compare(gate: &GateArgs, ops_per_sec: f64) {
    let text = match std::fs::read_to_string(&gate.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: no baseline at {} ({e}); run with --bless to create one",
                gate.baseline.display()
            );
            std::process::exit(1);
        }
    };
    let doc = parse(&text).unwrap_or_else(|e| {
        eprintln!("error: baseline {} is not valid JSON: {e}", gate.baseline.display());
        std::process::exit(1);
    });
    let blessed = doc
        .get("ops_per_sec")
        .and_then(|v| match v {
            Json::Float(x) => Some(*x),
            Json::Uint(x) => Some(*x as f64),
            _ => None,
        })
        .unwrap_or_else(|| {
            eprintln!("error: baseline lacks an ops_per_sec figure");
            std::process::exit(1);
        });
    let ratio = ops_per_sec / blessed.max(f64::MIN_POSITIVE);
    println!("baseline: {blessed:.0} ops/sec -> ratio {ratio:.2}x (gate at {TOLERANCE_FRAC}x)");
    if ratio < TOLERANCE_FRAC {
        eprintln!(
            "PERF GATE FAILED: {ops_per_sec:.0} ops/sec is below {TOLERANCE_FRAC}x the \
             blessed {blessed:.0}; investigate, or --bless a new baseline if intentional"
        );
        std::process::exit(1);
    }
    println!("perf gate passed");
}
