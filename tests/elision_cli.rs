//! Command-line contract of the `elision` binary: usage errors exit 2
//! before any work starts, and `bench_summary` skips documents that are
//! not metrics reports.

use elision_bench::metrics::{parse, Json, MetricsReport};
use elision_bench::CliArgs;
use std::process::{Command, Output};

fn elision(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_elision")).args(args).output().expect("spawning elision")
}

#[test]
fn unknown_experiment_exits_2_listing_valid_names() {
    let out = elision(&["fig99", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in ["fig2_lemming", "model_check", "perf_gate", "bench_summary"] {
        assert!(stderr.contains(name), "usage error omits {name}: {stderr}");
    }
}

#[test]
fn chaos_is_a_usage_error_where_it_would_be_ignored() {
    let out = elision(&["diag_aborts", "--quick", "--chaos", "storm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not apply --chaos"), "{stderr}");
}

/// A directory holding the tracked perf baseline (`"kind":
/// "perf_baseline"`) next to a report summarises the report alone.
#[test]
fn bench_summary_skips_the_perf_baseline() {
    let dir = std::env::temp_dir().join(format!("elision_cli_summary_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    let baseline = include_str!("../results/BENCH_SIM_HOTPATH_BASELINE.json");
    std::fs::write(dir.join("BENCH_SIM_HOTPATH_BASELINE.json"), baseline).unwrap();
    let report = MetricsReport::new("fig2_lemming", &CliArgs::default());
    std::fs::write(dir.join("fig2_lemming.json"), report.to_json().render()).unwrap();

    let out = elision(&["bench_summary", dir.to_str().expect("utf-8 scratch path")]);
    let summary = std::fs::read_to_string(dir.join("BENCH_SUMMARY.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = parse(&summary.expect("BENCH_SUMMARY.json written")).expect("valid JSON");
    let reports = summary.get("reports").and_then(Json::as_arr).expect("reports array");
    let binaries: Vec<_> = reports.iter().map(|r| r.get("binary").and_then(Json::as_str)).collect();
    assert_eq!(binaries, [Some("fig2_lemming")]);
}
