//! The verification gates: the opacity/race sanitizer sweep, the bounded
//! model checker and the lazy-subscription safety matrix.

use super::Driver;
use crate::metrics::{Json, MetricsReport, SCHEMA_VERSION};
use crate::report::Table;
use crate::sweep::Cell;
use crate::ChaosProfile;
use elision_analysis::driver::{sanitize_run, SanReport, SanitizeSpec};
use elision_analysis::explore::{
    explore_and_minimize, explore_cell, Bounds, CellReport, ExploreFinding, ExploreSpec,
    ExploreStats, Mode,
};
use elision_analysis::testkit::{broken_slr_explore, broken_slr_schedule, double_release_explore};
use elision_analysis::testkit::{double_release_schedule, ExploreRun};
use elision_analysis::testkit::{lazy_race_explore, lazy_zombie_explore, LazyFixes};
use elision_analysis::{Finding, LintId};
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_structures::history::StructureKind;
use std::collections::BTreeMap;

/// One finding as JSON: `lint` and `message`; then, for an explored
/// counterexample, its `forced` schedule and `diagram`; then, if
/// `sites`, the witnessing accesses.
pub(super) fn finding_json(
    finding: &Finding,
    counterexample: Option<&ExploreFinding>,
    sites: bool,
) -> Json {
    let mut pairs = vec![
        ("lint", Json::Str(finding.lint.label().to_string())),
        ("message", Json::Str(finding.message.clone())),
    ];
    if let Some(c) = counterexample {
        let forced = c.forced.iter().map(|&(step, thread)| {
            Json::obj(vec![
                ("step", Json::Uint(step as u64)),
                ("thread", Json::Uint(thread as u64)),
            ])
        });
        pairs.push(("forced", Json::Arr(forced.collect())));
        pairs
            .push(("diagram", Json::Arr(c.diagram.iter().map(|l| Json::Str(l.clone())).collect())));
    }
    if sites {
        let sites = finding.sites.iter().map(|s| {
            Json::obj(vec![
                ("tid", Json::Uint(s.tid as u64)),
                ("var", s.var.map_or(Json::Null, |v| Json::Uint(u64::from(v)))),
                ("line", s.line.map_or(Json::Null, |l| Json::Uint(u64::from(l)))),
                ("time", Json::Uint(s.time)),
                ("seq", Json::Uint(s.seq as u64)),
            ])
        });
        pairs.push(("sites", Json::Arr(sites.collect())));
    }
    Json::obj(pairs)
}

/// The explorer's statistics and minimized findings as a cell report.
fn explored((stats, findings): (ExploreStats, Vec<ExploreFinding>)) -> CellReport {
    CellReport {
        executions: stats.executions,
        runs: stats.runs,
        truncated: stats.truncated,
        findings,
    }
}

/// Run the opacity/race sanitizer and lock-discipline lints over the
/// whole scheme × lock matrix, under the default configuration and
/// under injected chaos, then verify the sanitizer still *catches*
/// violations by replaying the seeded known-bad schedules.
///
/// Panics if any clean cell produces a finding, any cell's counters fail
/// to add up, or a seeded violation goes undetected. Findings are
/// printed with full access provenance and serialized into the metrics
/// JSON (`--metrics <dir>`).
pub(super) fn sanitize_all(d: &mut Driver<'_>) {
    let args = d.args;
    let threads = args.threads.clamp(2, 4);
    let ops = if args.quick { 16 } else { 32 };

    let schemes = SchemeKind::ALL;
    let locks: &[LockKind] = if args.quick {
        &[LockKind::Ttas, LockKind::Mcs]
    } else {
        &[LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh]
    };
    let chaos: Vec<(ChaosProfile, u32)> = if args.quick {
        vec![(ChaosProfile::Storm, 1), (ChaosProfile::Preempt, 1), (ChaosProfile::Full, 1)]
    } else {
        ChaosProfile::ALL
            .iter()
            .copied()
            .filter(|p| *p != ChaosProfile::None)
            .map(|p| (p, 2))
            .collect()
    };

    println!("== Sanitizer sweep: every scheme x lock, default + chaos, window=0 ==");
    println!("{threads} threads, {ops} ops/thread\n");

    // Build the full default + chaos grid as sweep cells; sanitize_run is
    // pure per cell, so the matrix parallelizes like any figure sweep.
    // Keys double as the post-pass labels so ordering stays canonical.
    let mut keys: Vec<(SchemeKind, LockKind, &str, u32, String)> = Vec::new();
    let mut cells = Vec::new();
    let grid = [(ChaosProfile::None, 0)].into_iter().chain(chaos);
    for (profile, level) in grid {
        let (plan, htm_faults) = profile.at_intensity(level, 0x5A17_AB1E);
        for &scheme in &schemes {
            for &lock in locks {
                let mut what = format!("{}/{}", scheme.label(), lock.label());
                if profile != ChaosProfile::None {
                    what = format!("{what} {profile}@{level}");
                }
                keys.push((scheme, lock, profile.label(), level, what.clone()));
                cells.push(Cell::new(what, threads, move || {
                    let mut spec = SanitizeSpec::new(scheme, lock);
                    spec.threads = threads;
                    spec.ops_per_thread = ops;
                    if profile != ChaosProfile::None {
                        spec.htm = HtmConfig::deterministic().with_faults(htm_faults);
                        spec.faults = plan;
                    }
                    sanitize_run(&spec)
                }));
            }
        }
    }
    let outcome = d.sweep(cells);

    let mut report = d.metrics();
    let mut table = Table::new(&["cell", "san-events", "trace-events", "findings", "counters"]);
    for ((scheme, lock, profile, level, what), r) in keys.iter().zip(&outcome.results) {
        check_sanitized(r, what, &mut table);
        report.push_row(Json::obj(vec![
            ("scheme", Json::Str(scheme.label().to_string())),
            ("lock", Json::Str(lock.label().to_string())),
            ("profile", Json::Str(profile.to_string())),
            ("level", Json::Uint(u64::from(*level))),
            ("san_events", Json::Uint(r.san_events as u64)),
            ("trace_events", Json::Uint(r.trace_events as u64)),
            ("makespan", Json::Uint(r.makespan)),
            ("hot_total", Json::Uint(r.hot_total)),
            ("expected_total", Json::Uint(r.expected_total)),
            (
                "findings",
                Json::Arr(r.findings.iter().map(|f| finding_json(f, None, true)).collect()),
            ),
        ]));
    }

    table.print();
    println!("\n{} cells clean under the sanitizer", keys.len());

    println!("\n-- seeded negative schedules --");
    check_seeded(
        "broken-slr",
        &broken_slr_schedule().findings,
        &[LintId::DataRace, LintId::CommitWhileLockHeld, LintId::SlrUnsubscribedCommit],
        &mut report,
    );
    check_seeded(
        "double-release",
        &double_release_schedule().findings,
        &[LintId::ReleaseWithoutAcquire],
        &mut report,
    );

    d.finish(&report.to_json());
    println!("\nall sanitizer assertions passed");
}

/// Post-pass over one sanitized cell: print, tabulate, assert clean.
fn check_sanitized(r: &SanReport, what: &str, table: &mut Table) {
    table.row(vec![
        what.to_string(),
        r.san_events.to_string(),
        r.trace_events.to_string(),
        r.findings.len().to_string(),
        if r.counters_ok() { "ok".to_string() } else { "MISMATCH".to_string() },
    ]);
    for f in &r.findings {
        println!("  FINDING {what}: {f}");
    }
    assert!(
        r.counters_ok(),
        "{what}: counters corrupted (hot {} / targets {} / expected {})",
        r.hot_total,
        r.target_sum,
        r.expected_total
    );
    assert!(r.findings.is_empty(), "{what}: sanitizer reported {} finding(s)", r.findings.len());
}

/// A seeded schedule must trip every expected lint, with provenance.
fn check_seeded(name: &str, findings: &[Finding], expected: &[LintId], report: &mut MetricsReport) {
    for lint in expected {
        let hit = findings.iter().find(|f| f.lint == *lint);
        let hit = hit.unwrap_or_else(|| {
            panic!("seeded schedule {name}: expected {lint} was not detected: {findings:#?}")
        });
        assert!(
            !hit.sites.is_empty(),
            "seeded schedule {name}: {lint} finding carries no access provenance"
        );
        println!("  seeded {name}: caught {hit}");
    }
    report.push_row(Json::obj(vec![
        ("seeded", Json::Str(name.to_string())),
        ("expected", Json::Arr(expected.iter().map(|l| Json::Str(l.to_string())).collect())),
        ("findings", Json::Arr(findings.iter().map(|f| finding_json(f, None, true)).collect())),
    ]));
}

/// Bounded model checking over the scheme × lock matrix: drive every
/// cell through *all* interleavings of a small configuration (DPOR with
/// the explorer's divergence/step bounds), run every execution through
/// the race/opacity/lint passes plus the linearizability oracle, and
/// fail on any finding.
///
/// Two seeded known-bad workloads (an eager/unsubscribed SLR commit and
/// a double lock release) are swept alongside the correct cells; each
/// MUST produce at least one finding, with a minimized counterexample of
/// at most 12 forced schedule steps, proving the explorer actually
/// catches schedule-dependent violations rather than vacuously passing.
///
/// Results are rendered as a table and, with `--metrics DIR`, written as
/// `MODELCHECK.json`. The report deliberately contains no job counts,
/// timestamps or wall-clock data, so it is byte-identical across
/// `--jobs` values (host timing goes to `TIMING_model_check.json`,
/// which the determinism gates exclude).
pub(super) fn model_check(d: &mut Driver<'_>) {
    /// Acceptance bound on a minimized counterexample: replaying at most
    /// this many forced decisions must reproduce a seeded violation.
    const MAX_COUNTEREXAMPLE_STEPS: usize = 12;
    let args = d.args;
    let schemes = SchemeKind::ALL;
    let locks = [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh];
    let structures = StructureKind::ALL;

    println!("== Model check: every scheme x lock, DPOR at 2 threads x 3 sections ==\n");

    // Every scheme × lock pair is always covered (that is the CI
    // contract); `--full` additionally crosses in every structure,
    // while the default/quick grid rotates structures round-robin so
    // all four kinds still appear.
    let mut keys: Vec<(String, bool, Vec<LintId>)> = Vec::new();
    let mut cells: Vec<Cell<'_, CellReport>> = Vec::new();
    for (i, &scheme) in schemes.iter().enumerate() {
        for (j, &lock) in locks.iter().enumerate() {
            let kinds: Vec<StructureKind> = if args.full {
                structures.to_vec()
            } else {
                vec![structures[(i * locks.len() + j) % structures.len()]]
            };
            for kind in kinds {
                let spec = ExploreSpec::quick(scheme, lock, kind);
                let key = format!("{}/{}/{}", scheme.label(), lock.label(), kind.label());
                keys.push((key.clone(), false, Vec::new()));
                cells.push(Cell::new(key, spec.threads, move || explore_cell(&spec)));
            }
        }
    }
    // The seeded known-bad workloads, each with the lints at least one of
    // which it must trip (the explorer may legitimately surface several).
    // The fixtures are 2-thread workloads explored under the grid cells'
    // bounds, so their counterexamples honor the same budget.
    type Fixture = fn(&BTreeMap<usize, usize>) -> ExploreRun;
    let seeded: [(&str, Fixture, Vec<LintId>); 2] = [
        (
            "seeded/broken-slr",
            broken_slr_explore,
            vec![LintId::CommitWhileLockHeld, LintId::DataRace],
        ),
        ("seeded/double-release", double_release_explore, vec![LintId::ReleaseWithoutAcquire]),
    ];
    for (name, fixture, expected) in seeded {
        keys.push((name.to_string(), true, expected));
        cells.push(Cell::new(name, 2, move || {
            explored(explore_and_minimize(Mode::Dpor, &Bounds::quick(), fixture))
        }));
    }
    let outcome = d.sweep(cells);

    let mut rows: Vec<Json> = Vec::new();
    let mut table = Table::new(&["cell", "executions", "runs", "truncated", "findings"]);
    let mut clean = 0usize;
    for ((key, seeded, expected), r) in keys.iter().zip(&outcome.results) {
        table.row(vec![
            key.clone(),
            r.executions.to_string(),
            r.runs.to_string(),
            if r.truncated { "yes".to_string() } else { "no".to_string() },
            r.findings.len().to_string(),
        ]);
        for f in &r.findings {
            println!("  FINDING {key}: {} ({} forced steps)", f.finding, f.forced.len());
            for line in &f.diagram {
                println!("    {line}");
            }
        }
        rows.push(Json::obj(vec![
            ("cell", Json::Str(key.to_string())),
            ("seeded", Json::Bool(*seeded)),
            ("executions", Json::Uint(r.executions as u64)),
            ("runs", Json::Uint(r.runs as u64)),
            ("truncated", Json::Bool(r.truncated)),
            (
                "findings",
                Json::Arr(
                    r.findings.iter().map(|f| finding_json(&f.finding, Some(f), true)).collect(),
                ),
            ),
        ]));
        if *seeded {
            assert!(
                !r.findings.is_empty(),
                "{key}: seeded known-bad workload produced no finding — \
                 the explorer is vacuous"
            );
            assert!(
                r.findings.iter().any(|f| expected.contains(&f.finding.lint)),
                "{key}: none of the expected lints {expected:?} were caught: {:?}",
                r.findings.iter().map(|f| f.finding.lint).collect::<Vec<_>>()
            );
            assert_counterexamples(key, r, MAX_COUNTEREXAMPLE_STEPS);
            println!(
                "  seeded {key}: caught {} finding(s), all within {MAX_COUNTEREXAMPLE_STEPS} \
                 forced steps",
                r.findings.len()
            );
        } else {
            assert!(
                r.findings.is_empty(),
                "{key}: model checker reported {} finding(s) on a correct cell",
                r.findings.len()
            );
            clean += 1;
        }
    }

    table.print();
    println!("\n{clean} cells verified clean across every explored interleaving");

    d.finish(&Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str(d.exp.name.to_string())),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::Uint(2)),
                ("sections", Json::Uint(3)),
                ("mode", Json::Str("dpor".to_string())),
                ("quick", Json::Bool(args.quick)),
                ("full", Json::Bool(args.full)),
            ]),
        ),
        ("cells", Json::Arr(rows)),
    ]));
    println!("\nall model-check assertions passed");
}

/// Every counterexample of `r` replays within `max_steps` forced
/// decisions and carries a diagram.
fn assert_counterexamples(key: &str, r: &CellReport, max_steps: usize) {
    for f in &r.findings {
        assert!(
            f.forced.len() <= max_steps,
            "{key}: counterexample needs {} forced steps (budget {max_steps})",
            f.forced.len(),
        );
        assert!(!f.diagram.is_empty(), "{key}: counterexample has no diagram");
    }
}

/// Which unsafe execution class a lazy-safety cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnsafeClass {
    /// Class A: zombie dangerous instruction (wild store to the lock).
    Zombie,
    /// Class B: lock acquired between subscription check and commit.
    SubscriptionRace,
}

impl UnsafeClass {
    fn label(self) -> &'static str {
        match self {
            UnsafeClass::Zombie => "zombie",
            UnsafeClass::SubscriptionRace => "subscription_race",
        }
    }

    /// The lock families this class is explorable on. MCS's wild store
    /// wedges the victim (hang, not counterexample), so class A skips it.
    fn locks(self) -> &'static [LockKind] {
        match self {
            UnsafeClass::Zombie => &[LockKind::Ttas, LockKind::Ticket, LockKind::Clh],
            UnsafeClass::SubscriptionRace => {
                &[LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh]
            }
        }
    }

    /// Whether a cell with these fixes must still produce a
    /// counterexample — the paper's fix-coverage matrix. The
    /// dangerous-instruction screen closes only class A; the hardware
    /// commit-time subscription closes both.
    fn must_fail(self, fixes: LazyFixes) -> bool {
        match self {
            UnsafeClass::Zombie => !fixes.dangerous_abort && !fixes.hardware_commit,
            UnsafeClass::SubscriptionRace => !fixes.hardware_commit,
        }
    }

    /// The lint that marks this class in a counterexample.
    fn marker(self) -> LintId {
        match self {
            UnsafeClass::Zombie => LintId::LazyDangerousInstruction,
            UnsafeClass::SubscriptionRace => LintId::ZombieCommit,
        }
    }

    fn run(self, lock: LockKind, fixes: LazyFixes) -> CellReport {
        let bounds = Bounds::lazy_safety();
        explored(match self {
            UnsafeClass::Zombie => {
                explore_and_minimize(Mode::Dpor, &bounds, |ov| lazy_zombie_explore(lock, fixes, ov))
            }
            UnsafeClass::SubscriptionRace => {
                explore_and_minimize(Mode::Dpor, &bounds, |ov| lazy_race_explore(lock, fixes, ov))
            }
        })
    }
}

/// The lazy-subscription safety gate: sweep the two unsafe execution
/// classes of arXiv 1407.6968 across {unfixed, dangerous-abort,
/// hardware-commit, both} × lock families and assert the paper's result
/// mechanically.
///
/// * **Class A — zombie dangerous instruction** ([`lazy_zombie_explore`]):
///   a lazily subscribed transaction reads a torn invariant and issues a
///   data-dependent wild store aimed at the lock word itself, encoded so
///   its own write-buffer-served subscription check passes. Unfixed
///   cells MUST produce a minimized counterexample
///   ([`LintId::LazyDangerousInstruction`]); either hardware fix closes
///   the class. MCS is excluded from this class: its free encoding is a
///   nil tail, and publishing that wedges the victim's release in an
///   unbounded spin — the corruption is a hang, not a finite
///   counterexample (see DESIGN.md §5g).
/// * **Class B — commit-time subscription race**
///   ([`lazy_race_explore`]): the unfenced subscription sample reads the
///   lock free, the lock holder acquires, and the commit publishes into
///   the live critical section. Unfixed AND dangerous-abort cells MUST
///   both produce counterexamples ([`LintId::ZombieCommit`] +
///   [`LintId::CommitWhileLockHeld`]) — the dangerous-instruction screen
///   is no help against a window that contains no dangerous instruction.
///   Only the hardware commit-time subscription closes this class.
///
/// Every cell — failing and clean alike — runs under the identical
/// [`Bounds::lazy_safety`] budget, so "fixed verifies clean" means
/// "clean under the same bounded search that found the counterexample
/// next door". Results are rendered as a table and, with `--metrics
/// DIR`, written as `LAZY_SAFETY.json`; the report carries no job
/// counts, timestamps or wall-clock data, so it is byte-identical
/// across `--jobs` values.
pub(super) fn lazy_safety(d: &mut Driver<'_>) {
    /// Acceptance bound on a minimized counterexample: replaying at most
    /// this many forced decisions must reproduce the violation.
    const MAX_COUNTEREXAMPLE_STEPS: usize = 15;
    let bounds = Bounds::lazy_safety();

    println!("== Lazy-subscription safety: unsafe classes x hardware fixes x locks ==\n");

    let mut keys: Vec<(UnsafeClass, LockKind, LazyFixes)> = Vec::new();
    let mut cells: Vec<Cell<'_, CellReport>> = Vec::new();
    for class in [UnsafeClass::Zombie, UnsafeClass::SubscriptionRace] {
        for fixes in LazyFixes::ALL {
            for &lock in class.locks() {
                let key = format!("{}/{}/{}", class.label(), lock.label(), fixes.label());
                keys.push((class, lock, fixes));
                cells.push(Cell::new(key, 2, move || class.run(lock, fixes)));
            }
        }
    }
    let outcome = d.sweep(cells);

    let mut rows: Vec<Json> = Vec::new();
    let mut table = Table::new(&["cell", "verdict", "executions", "runs", "findings"]);
    let mut counterexamples = 0usize;
    let mut clean = 0usize;
    for (&(class, lock, fixes), r) in keys.iter().zip(&outcome.results) {
        let key = format!("{}/{}/{}", class.label(), lock.label(), fixes.label());
        let must_fail = class.must_fail(fixes);
        table.row(vec![
            key.clone(),
            if must_fail { "must-fail".to_string() } else { "must-verify".to_string() },
            r.executions.to_string(),
            r.runs.to_string(),
            r.findings.len().to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("class", Json::Str(class.label().to_string())),
            ("lock", Json::Str(lock.label().to_string())),
            ("fixes", Json::Str(fixes.label().to_string())),
            ("must_fail", Json::Bool(must_fail)),
            ("executions", Json::Uint(r.executions as u64)),
            ("runs", Json::Uint(r.runs as u64)),
            ("truncated", Json::Bool(r.truncated)),
            (
                "findings",
                Json::Arr(
                    r.findings.iter().map(|f| finding_json(&f.finding, Some(f), false)).collect(),
                ),
            ),
        ]));
        if must_fail {
            assert!(
                !r.findings.is_empty(),
                "{key}: an unfixed unsafe cell produced no counterexample — \
                 the gate is vacuous"
            );
            assert!(
                r.findings.iter().any(|f| f.finding.lint == class.marker()),
                "{key}: the class marker {:?} was not among the findings: {:?}",
                class.marker(),
                r.findings.iter().map(|f| f.finding.lint).collect::<Vec<_>>()
            );
            assert_counterexamples(&key, r, MAX_COUNTEREXAMPLE_STEPS);
            println!(
                "  {key}: {} counterexample(s), all within {MAX_COUNTEREXAMPLE_STEPS} \
                 forced steps",
                r.findings.len()
            );
            for f in &r.findings {
                println!("    {} ({} forced steps)", f.finding, f.forced.len());
            }
            counterexamples += 1;
        } else {
            assert!(
                !r.truncated || r.executions > 1,
                "{key}: the fixed cell was not actually searched"
            );
            assert!(
                r.findings.is_empty(),
                "{key}: a fixed cell produced findings under the shared bounds: {:?}",
                r.findings.iter().map(|f| f.finding.lint).collect::<Vec<_>>()
            );
            clean += 1;
        }
    }

    // The headline asymmetry, asserted in one place rather than left
    // implicit in the per-cell rule: the screen alone leaves class B
    // open, the hardware subscription alone closes both classes.
    let screen_only = LazyFixes { dangerous_abort: true, hardware_commit: false };
    assert!(
        UnsafeClass::SubscriptionRace.must_fail(screen_only)
            && !UnsafeClass::Zombie.must_fail(screen_only),
        "fix-coverage matrix lost the paper's asymmetry"
    );

    table.print();
    println!(
        "\n{counterexamples} unsafe cells produced counterexamples, \
         {clean} fixed cells verified clean under identical bounds"
    );

    let bound = |n: usize| Json::Uint(n as u64);
    d.finish(&Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str(d.exp.name.to_string())),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::Uint(2)),
                ("mode", Json::Str("dpor".to_string())),
                (
                    "bounds",
                    Json::obj(vec![
                        (
                            "divergence",
                            bounds.divergence.map_or(Json::Null, |v| Json::Uint(u64::from(v))),
                        ),
                        ("max_schedules", bound(bounds.max_schedules)),
                        ("max_runs", bound(bounds.max_runs)),
                        ("max_steps", bound(bounds.max_steps)),
                    ]),
                ),
                ("max_counterexample_steps", bound(MAX_COUNTEREXAMPLE_STEPS)),
            ]),
        ),
        ("cells", Json::Arr(rows)),
    ]));
    println!("\nall lazy-safety assertions passed");
}
