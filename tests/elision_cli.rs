//! Command-line contract of the `elision` binary: usage errors exit 2
//! before any work starts, and `bench_summary` skips documents that are
//! not metrics reports and reads the analysis reports' `cells`.

use elision_bench::metrics::{parse, Json, MetricsReport, SCHEMA_VERSION};
use elision_bench::CliArgs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn elision(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_elision")).args(args).output().expect("spawning elision")
}

/// An empty scratch directory unique to this process and `name`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elision_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}

/// Run `bench_summary` over `dir`, remove `dir`, and return the parsed
/// `BENCH_SUMMARY.json`.
fn summarise(dir: &Path) -> Json {
    let out = elision(&["bench_summary", dir.to_str().expect("utf-8 scratch path")]);
    let summary = std::fs::read_to_string(dir.join("BENCH_SUMMARY.json"));
    let _ = std::fs::remove_dir_all(dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    parse(&summary.expect("BENCH_SUMMARY.json written")).expect("valid JSON")
}

fn report_binaries(summary: &Json) -> Vec<Option<&str>> {
    let reports = summary.get("reports").and_then(Json::as_arr).expect("reports array");
    reports.iter().map(|r| r.get("binary").and_then(Json::as_str)).collect()
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
    let dir = scratch_dir("summary");
    let baseline = include_str!("../results/BENCH_SIM_HOTPATH_BASELINE.json");
    std::fs::write(dir.join("BENCH_SIM_HOTPATH_BASELINE.json"), baseline).unwrap();
    let report = MetricsReport::new("fig2_lemming", &CliArgs::default());
    std::fs::write(dir.join("fig2_lemming.json"), report.to_json().render()).unwrap();

    assert_eq!(report_binaries(&summarise(&dir)), [Some("fig2_lemming")]);
}

/// The model_check and lazy_safety reports carry `cells`, not `rows`:
/// the summary lists them and folds their findings into `lint_totals`.
#[test]
fn bench_summary_reads_analysis_reports() {
    let dir = scratch_dir("cells");
    let finding = Json::obj(vec![
        ("lint", Json::Str("zombie-commit".to_string())),
        ("message", Json::Str("t1 committed a stale read".to_string())),
    ]);
    let cell = |findings: Vec<Json>| {
        Json::obj(vec![
            ("cell", Json::Str("opt_slr/ttas".to_string())),
            ("findings", Json::Arr(findings)),
        ])
    };
    let report = Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str("lazy_safety".to_string())),
        ("config", Json::obj(vec![("threads", Json::Uint(2))])),
        ("cells", Json::Arr(vec![cell(vec![finding]), cell(Vec::new())])),
    ]);
    std::fs::write(dir.join("LAZY_SAFETY.json"), report.render()).unwrap();

    let summary = summarise(&dir);
    assert_eq!(report_binaries(&summary), [Some("lazy_safety")]);
    assert_eq!(summary.get("total_rows").and_then(Json::as_u64), Some(2));
    let zombies = summary.get("lint_totals").and_then(|t| t.get("zombie-commit"));
    assert_eq!(zombies.and_then(Json::as_u64), Some(1));
}
