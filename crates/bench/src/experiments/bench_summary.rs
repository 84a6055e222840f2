//! Merging per-experiment reports into `BENCH_SUMMARY.json`.

use super::Experiment;
use crate::metrics::{parse, Json, SCHEMA_VERSION};
use elision_analysis::LintId;
use elision_sim::AbortCause;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// Validate one timing report's schema; returns its summary entry and
/// total wall-clock milliseconds.
fn validate_timing(path: &Path, doc: &Json) -> (Json, u64) {
    let ctx = path.display();
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing schema_version")));
    if version != SCHEMA_VERSION {
        fail(&format!("{ctx}: schema_version {version} (expected {SCHEMA_VERSION})"));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("timing") {
        fail(&format!("{ctx}: TIMING_ file without kind == \"timing\""));
    }
    let binary = doc
        .get("binary")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing binary name")))
        .to_string();
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing jobs")));
    let wall_ms = doc
        .get("wall_ms")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing wall_ms")));
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing cells array")));
    let entry = Json::obj(vec![
        ("binary", Json::Str(binary)),
        ("jobs", Json::Uint(jobs)),
        ("wall_ms", Json::Uint(wall_ms)),
        ("cells", Json::Uint(cells.len() as u64)),
    ]);
    (entry, wall_ms)
}

/// Validate one report's schema; returns (binary, config, rows). A
/// report's rows are its `rows` array, or else its `cells` array.
fn validate(path: &Path, doc: &Json) -> (String, Json, Vec<Json>) {
    let ctx = path.display();
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing schema_version")));
    if version != SCHEMA_VERSION {
        fail(&format!("{ctx}: schema_version {version} (expected {SCHEMA_VERSION})"));
    }
    let binary = doc
        .get("binary")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing binary name")))
        .to_string();
    let config =
        doc.get("config").cloned().unwrap_or_else(|| fail(&format!("{ctx}: missing config")));
    // The analysis reports (MODELCHECK, LAZY_SAFETY) list `cells` where
    // the sweep reports list `rows`.
    let rows = doc
        .get("rows")
        .or_else(|| doc.get("cells"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing rows (or cells) array")))
        .to_vec();
    (binary, config, rows)
}

/// Merge per-experiment `--metrics` JSON reports into one `BENCH_SUMMARY.json`.
///
/// Usage: `elision bench_summary <DIR>` (defaults to `results`). Reads
/// every `*.json` in the directory (except a previous summary), skips
/// documents with a `kind` field (such as the perf gate's baseline),
/// validates the schema, and writes `<DIR>/BENCH_SUMMARY.json`
/// containing one entry per report — binary name, its config, its row
/// count — plus an abort-cause histogram summed over every row of every
/// report and a lint histogram summed over every row's `findings` (the
/// elision_lint report, and the model_check and lazy_safety reports,
/// whose rows are their `cells`). Files are processed in sorted
/// name order, so the summary is deterministic.
///
/// `TIMING_<binary>.json` files (written by the sweep orchestrator) are
/// merged separately into `TIMING_SUMMARY.json` — per-binary wall-clock
/// milliseconds, host jobs and cell counts plus the sweep total. Wall
/// time varies run to run, so the timing summary shares the `TIMING_`
/// prefix the determinism gates exclude, and `BENCH_SUMMARY.json` itself
/// stays byte-reproducible.
pub(super) fn bench_summary(exp: &'static Experiment, argv: Vec<String>) {
    let summary_name = format!("{}.json", exp.report);
    let timing_summary_name = format!("TIMING_{}.json", exp.timing);
    let dir = argv.into_iter().next().map_or_else(|| PathBuf::from("results"), PathBuf::from);
    let entries = match fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => fail(&format!("cannot read {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut timing_paths: Vec<PathBuf> = Vec::new();
    for p in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if p.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let Some(name) = p.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
            continue;
        };
        if name == summary_name || name == timing_summary_name {
            continue;
        }
        if name.starts_with("TIMING_") {
            timing_paths.push(p);
        } else {
            paths.push(p);
        }
    }
    paths.sort();
    timing_paths.sort();

    let mut reports = Vec::new();
    let mut total_rows = 0u64;
    let mut cause_totals = vec![0u64; AbortCause::ALL.len()];
    let mut lint_totals = vec![0u64; LintId::ALL.len()];
    let mut service_cells: Vec<Json> = Vec::new();
    for path in &paths {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("reading {}: {e}", path.display())));
        let doc =
            parse(&text).unwrap_or_else(|e| fail(&format!("parsing {}: {e}", path.display())));
        // Reports carry no `kind`; documents that do (the perf gate's
        // `perf_baseline`, timing files) are not reports.
        if let Some(kind) = doc.get("kind").and_then(Json::as_str) {
            println!("skipped {} (kind {kind:?} is not a report)", path.display());
            continue;
        }
        let (binary, config, rows) = validate(path, &doc);
        for row in &rows {
            if let Some(causes) = row.get("abort_causes") {
                for (i, cause) in AbortCause::ALL.iter().enumerate() {
                    cause_totals[i] +=
                        causes.get(cause.label()).and_then(Json::as_u64).unwrap_or(0);
                }
            }
            // The static-analysis (elision_lint) and analysis
            // (model_check, lazy_safety) reports attach a "findings"
            // array per row; tally them by lint so the summary carries
            // the layout-health and verification trajectory alongside
            // the abort causes.
            if let Some(findings) = row.get("findings").and_then(Json::as_arr) {
                for finding in findings {
                    let label = finding.get("lint").and_then(Json::as_str);
                    for (i, lint) in LintId::ALL.iter().enumerate() {
                        if label == Some(lint.label()) {
                            lint_totals[i] += 1;
                        }
                    }
                }
            }
            // The open-loop service report (SERVICE.json) carries tail
            // percentiles per cell; surface them in the summary so the
            // latency trajectory rides alongside the abort causes.
            if binary == "SERVICE" {
                let latency = row.get("latency");
                let pick =
                    |k: &str| latency.and_then(|l| l.get(k)).and_then(Json::as_u64).unwrap_or(0);
                let cell = format!(
                    "{}/{}/{}/{}",
                    row.get("scheme").and_then(Json::as_str).unwrap_or("?"),
                    row.get("lock").and_then(Json::as_str).unwrap_or("?"),
                    row.get("shards").and_then(Json::as_u64).unwrap_or(0),
                    row.get("load").and_then(Json::as_str).unwrap_or("?"),
                );
                service_cells.push(Json::obj(vec![
                    ("cell", Json::Str(cell)),
                    ("p50", Json::Uint(pick("p50"))),
                    ("p99", Json::Uint(pick("p99"))),
                    ("p999", Json::Uint(pick("p999"))),
                    (
                        "lock_word_aborts",
                        Json::Uint(row.get("lock_word_aborts").and_then(Json::as_u64).unwrap_or(0)),
                    ),
                ]));
            }
        }
        total_rows += rows.len() as u64;
        reports.push(Json::obj(vec![
            ("binary", Json::Str(binary)),
            ("config", config),
            ("rows", Json::Uint(rows.len() as u64)),
        ]));
        println!("merged {}", path.display());
    }

    if reports.is_empty() {
        fail(&format!("no metrics reports (*.json) found in {}", dir.display()));
    }
    let n_reports = reports.len();
    let summary = Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("reports", Json::Arr(reports)),
        ("total_rows", Json::Uint(total_rows)),
        (
            "abort_cause_totals",
            Json::Obj(
                AbortCause::ALL
                    .iter()
                    .zip(&cause_totals)
                    .map(|(c, &n)| (c.label().to_string(), Json::Uint(n)))
                    .collect(),
            ),
        ),
        ("findings_total", Json::Uint(lint_totals.iter().sum())),
        (
            "lint_totals",
            Json::Obj(
                LintId::ALL
                    .iter()
                    .zip(&lint_totals)
                    .filter(|&(_, &n)| n > 0)
                    .map(|(l, &n)| (l.label().to_string(), Json::Uint(n)))
                    .collect(),
            ),
        ),
        (
            "service_tail_latency",
            Json::obj(vec![
                ("cells", Json::Uint(service_cells.len() as u64)),
                (
                    "worst_p999",
                    Json::Uint(
                        service_cells
                            .iter()
                            .filter_map(|c| c.get("p999").and_then(Json::as_u64))
                            .max()
                            .unwrap_or(0),
                    ),
                ),
                ("percentiles", Json::Arr(service_cells)),
            ]),
        ),
    ]);
    let out = dir.join(&summary_name);
    fs::write(&out, summary.render())
        .unwrap_or_else(|e| fail(&format!("writing {}: {e}", out.display())));
    println!("wrote {} ({n_reports} reports, {total_rows} rows)", out.display());

    // Wall-clock trajectory: merged separately so the main summary stays
    // byte-reproducible run to run.
    if !timing_paths.is_empty() {
        let mut timing_entries = Vec::new();
        let mut total_wall_ms = 0u64;
        for path in &timing_paths {
            let text = fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("reading {}: {e}", path.display())));
            let doc =
                parse(&text).unwrap_or_else(|e| fail(&format!("parsing {}: {e}", path.display())));
            let (entry, wall_ms) = validate_timing(path, &doc);
            total_wall_ms += wall_ms;
            timing_entries.push(entry);
            println!("merged {}", path.display());
        }
        let n_binaries = timing_entries.len();
        let timing_summary = Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("kind", Json::Str("timing_summary".to_string())),
            ("binaries", Json::Arr(timing_entries)),
            ("total_wall_ms", Json::Uint(total_wall_ms)),
        ]);
        let out = dir.join(&timing_summary_name);
        fs::write(&out, timing_summary.render())
            .unwrap_or_else(|e| fail(&format!("writing {}: {e}", out.display())));
        println!("wrote {} ({n_binaries} binaries, {total_wall_ms} ms wall total)", out.display());
    }
}
