//! `modelcheck`: bounded DPOR exploration of a fixed subset of the
//! scheme × lock × structure cells at `Bounds::quick`, plus the two
//! seeded-bug fixtures, which must be caught.
//!
//! Every explored schedule spawns a fresh controlled simulation, so this
//! workload measures the analysis passes and the controlled scheduler;
//! no tree workload touches that code. The explorer's own runs are
//! opaque from outside, so the simulated results of this workload come
//! from each subset cell's *default schedule* (a controlled run with no
//! forced choices) at a larger, seeded operation count.

use crate::cells::{run_cell, CellSpec};
use crate::round::Round;
use crate::trace::{self, Sink, SpanLog};
use crate::workloads::cell_seed;
use elision_analysis::explore::{explore_and_minimize, explore_cell, Bounds, ExploreSpec, Mode};
use elision_analysis::testkit::{broken_slr_explore, double_release_explore};
use elision_analysis::LintId;
use elision_core::{LockKind, SchemeConfig, SchemeKind};
use elision_htm::HtmConfig;
use elision_structures::StructureKind;

/// The explored subset: three schemes, three lock families and three
/// structures, chosen to keep a round near three host seconds.
const CELLS: [(SchemeKind, LockKind, StructureKind); 3] = [
    (SchemeKind::Hle, LockKind::Ttas, StructureKind::HashTable),
    (SchemeKind::OptSlr, LockKind::Ticket, StructureKind::Queue),
    (SchemeKind::HleScm, LockKind::Clh, StructureKind::RbTree),
];

/// Operations per thread of each default-schedule run.
const DEFAULT_RUN_OPS: u64 = 1280;
/// Elements in each default-schedule run's structure after its fill.
const DEFAULT_RUN_SIZE: usize = 256;

/// Simulated operations in one explored run: threads × sections for
/// the subset cells, one critical section per thread for the fixtures.
const OPS_PER_EXPLORED_RUN: u64 = 6;
const OPS_PER_FIXTURE_RUN: u64 = 2;

pub fn round(seed: u64, round: &mut Round, sink: Option<&Sink>) {
    let mut log = sink.map(|_| SpanLog::new());
    for (i, &(scheme, lock, structure)) in CELLS.iter().enumerate() {
        let spec =
            ExploreSpec { seed: cell_seed(seed, i), ..ExploreSpec::quick(scheme, lock, structure) };
        assert_eq!(spec.threads as u64 * spec.sections as u64, OPS_PER_EXPLORED_RUN);
        let key = format!("explore/{}/{}/{}", scheme.label(), lock.label(), structure.label());
        let span = trace::open(&mut log, "analysis.explore_cell", 0, 0);
        let (report, wall) = round.measure(|| explore_cell(&spec));
        trace::close(&mut log, span);
        let problems = report
            .findings
            .iter()
            .map(|f| format!("finding on a correct cell: {}", f.finding))
            .collect();
        explored(round, &key, OPS_PER_EXPLORED_RUN, report.executions, report.runs, wall, problems);
        round.record(format!(
            "{key} seed={} executions={} runs={} truncated={}",
            spec.seed, report.executions, report.runs, report.truncated
        ));
    }

    type Fixture =
        fn(&std::collections::BTreeMap<usize, usize>) -> elision_analysis::testkit::ExploreRun;
    let fixtures: [(&str, Fixture, &[LintId]); 2] = [
        ("seeded/broken-slr", broken_slr_explore, &[LintId::CommitWhileLockHeld, LintId::DataRace]),
        ("seeded/double-release", double_release_explore, &[LintId::ReleaseWithoutAcquire]),
    ];
    for (key, fixture, expected) in fixtures {
        let span = trace::open(&mut log, "analysis.explore_cell", 0, 0);
        let ((stats, findings), wall) =
            round.measure(|| explore_and_minimize(Mode::Dpor, &Bounds::quick(), fixture));
        trace::close(&mut log, span);
        let mut problems = Vec::new();
        if !findings.iter().any(|f| expected.contains(&f.finding.lint)) {
            problems.push(format!("seeded bug not caught (expected one of {expected:?})"));
        }
        explored(round, key, OPS_PER_FIXTURE_RUN, stats.executions, stats.runs, wall, problems);
        let lints: Vec<_> = findings.iter().map(|f| (f.finding.lint, f.forced.len())).collect();
        round.record(format!(
            "{key} executions={} runs={} findings={lints:?}",
            stats.executions, stats.runs
        ));
    }
    if let (Some(log), Some(sink)) = (log, sink) {
        log.into_sink(sink);
    }

    for (i, &(scheme, lock, structure)) in CELLS.iter().enumerate() {
        let spec = CellSpec {
            scheme,
            lock,
            structure,
            threads: 2,
            size: DEFAULT_RUN_SIZE,
            ops_per_thread: DEFAULT_RUN_OPS,
            htm: HtmConfig::deterministic(),
            scheme_cfg: SchemeConfig::explore(),
            controlled: true,
            seed: cell_seed(seed, CELLS.len() + i),
        };
        run_cell(&spec, round, sink);
    }
}

/// Account one exploration: its unique executions are the schedules
/// checked, and each of its runs simulated `ops_per_run` operations.
fn explored(
    round: &mut Round,
    key: &str,
    ops_per_run: u64,
    executions: usize,
    runs: usize,
    wall: f64,
    problems: Vec<String>,
) {
    round.check(key, executions as u64, problems);
    round.schedules += executions as u64;
    round.ops += runs as u64 * ops_per_run;
    let layer = &mut round.layer;
    layer.executions += executions as u64;
    layer.runs += runs as u64;
    layer.explore_s += wall;
}
