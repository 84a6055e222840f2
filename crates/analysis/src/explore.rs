//! Bounded exhaustive-interleaving model checker over the controlled
//! scheduler.
//!
//! The sampling passes in [`crate::driver`] check *one* schedule per
//! cell. This module instead drives [`elision_sim::ScheduleControl`]
//! through *every* interleaving of a small configuration (2–4 threads,
//! a handful of critical sections), replaying each schedule
//! deterministically and feeding each execution through the full
//! sanitizer pipeline (races, opacity, lock lints, residual bits) plus
//! the [`crate::linearize`] history oracle.
//!
//! # Schedules as override prefixes
//!
//! A schedule is identified by a *dense prefix of forced choices*:
//! overrides `{0: c0, 1: c1, ..., k: ck}` pin the first `k + 1`
//! scheduling decisions and every later decision follows the default
//! `(clock, id)`-minimal rule (so the empty prefix is exactly the
//! standard free-running run). Re-executing the same prefix reproduces the
//! same execution bit for bit, which is what makes stateless search and
//! counterexample minimization possible.
//!
//! # Enumeration modes
//!
//! * [`Mode::Exhaustive`] — classic stateless DFS: after executing a
//!   prefix, branch at every decision point on every other enabled
//!   thread. Visits every interleaving of the configuration (feasible
//!   only for toys; it is also the ground truth the DPOR mode is tested
//!   against).
//! * [`Mode::Dpor`] — dynamic partial-order reduction: two scheduling
//!   steps are *dependent* when they touch a common cache line with at
//!   least one write (the [`StepRecord::accesses`] footprints the
//!   instrumented stack reports) or belong to the same thread. For each
//!   executed trace, each racing pair `(j, i)` of dependent steps of
//!   different threads generates one child prefix that runs `i`'s thread
//!   up to the race *before* `j` — the standard race-reversal rule. Steps
//!   with disjoint footprints never generate children, which is where the
//!   (often exponential) savings come from; a visited-prefix set makes
//!   the redundancy of over-approximate reversal harmless.
//!
//! The context-switch bound in [`Bounds::divergence`] limits how many
//! decisions may differ from the default rule before an execution stops
//! spawning children, bounding search depth the way a preemption bound
//! does in CHESS-style checkers.
//!
//! # Counterexample minimization
//!
//! A failing schedule found by search usually carries many incidental
//! forced choices. [`minimize`] first drops every override that agreed
//! with the default decision anyway, then greedily re-runs with each
//! remaining override removed until a fixed point: what survives is a
//! minimal set of forced decisions that still reproduces the finding,
//! rendered by [`render_diagram`] as a step-by-step interleaving.

use crate::driver::{analyze_run, lint_config_for, policy_for};
use crate::linearize::check_linearizable;
use crate::{Finding, LintId};
use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder, Strand};
use elision_sim::{ScheduleControl, StepRecord};
use elision_structures::{
    HashTable, HistoryRecorder, OpAction, OpRecord, OpResponse, RbTree, SeqModel, SimQueue,
    SortedList, StructureKind,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// How the explorer enumerates schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Branch on every enabled thread at every decision point.
    Exhaustive,
    /// Branch only to reverse dependent (racing) step pairs.
    Dpor,
}

/// Exploration limits. Every bound is a *truncation*, reported via
/// [`ExploreStats::truncated`] — never a silent claim of full coverage.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Maximum scheduling decisions differing from the default rule an
    /// execution may contain and still spawn children (`None` =
    /// unbounded). This is the context-switch bound.
    pub divergence: Option<u32>,
    /// Maximum unique executions to analyze.
    pub max_schedules: usize,
    /// Maximum runner invocations. Distinct forced prefixes can replay
    /// to the same execution (deduplicated, so they do not count towards
    /// `max_schedules`); this caps that redundancy so the search always
    /// terminates promptly.
    pub max_runs: usize,
    /// Executions longer than this many decisions are analyzed but not
    /// branched from.
    pub max_steps: usize,
}

impl Bounds {
    /// The small-bound configuration the CI `model_check` job uses.
    pub fn quick() -> Self {
        Bounds { divergence: Some(12), max_schedules: 1_500, max_runs: 6_000, max_steps: 2_000 }
    }

    /// The per-cell configuration the `lazy_safety` sweep uses for
    /// *every* cell, fixed and unfixed alike — the comparison "unfixed
    /// produces a counterexample, fixed verifies clean" is only
    /// meaningful under identical bounds. The context-switch bound is
    /// deep enough to reach both unsafe classes of arXiv 1407.6968 with
    /// headroom; the search is still truncated (and reported as such),
    /// so a clean cell means "no counterexample within these bounds",
    /// not total verification.
    pub fn lazy_safety() -> Self {
        Bounds { divergence: Some(12), max_schedules: 2_000, max_runs: 8_000, max_steps: 800 }
    }
}

/// Aggregate statistics from one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Unique executions analyzed.
    pub executions: usize,
    /// Total runner invocations, including replays that deduplicated to
    /// an already-analyzed execution.
    pub runs: usize,
    /// True when some bound in [`Bounds`] cut the search short.
    pub truncated: bool,
}

/// Drive `runner` through the interleaving space.
///
/// `runner` executes the workload once under the given forced-choice
/// overrides and returns the recorded schedule plus an arbitrary
/// payload; `on_exec` receives every *unique* execution (its steps, the
/// forced prefix that produced it, and the payload). The search is
/// depth-first over forced prefixes, deterministic, and single-threaded
/// at the search level (each run itself uses the serialized controlled
/// scheduler).
pub fn explore<T>(
    mode: Mode,
    bounds: &Bounds,
    runner: impl Fn(&BTreeMap<usize, usize>) -> (Vec<StepRecord>, T),
    mut on_exec: impl FnMut(&[StepRecord], &BTreeMap<usize, usize>, T),
) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut queued: HashSet<Vec<usize>> = HashSet::new();
    let mut executed: HashSet<Vec<usize>> = HashSet::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    queued.insert(Vec::new());

    while let Some(prefix) = stack.pop() {
        if stats.executions >= bounds.max_schedules || stats.runs >= bounds.max_runs {
            stats.truncated = true;
            break;
        }
        let overrides: BTreeMap<usize, usize> = prefix.iter().copied().enumerate().collect();
        let (steps, payload) = runner(&overrides);
        stats.runs += 1;
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        if !executed.insert(choices.clone()) {
            // A forced prefix can replay to an execution another prefix
            // already produced (e.g. after a forced-but-finished thread
            // fell back to the default); its children were generated then.
            continue;
        }
        stats.executions += 1;
        on_exec(&steps, &overrides, payload);

        if steps.len() > bounds.max_steps {
            stats.truncated = true;
            continue;
        }
        let divergences = steps.iter().filter(|s| s.chosen != s.default).count() as u32;
        if let Some(limit) = bounds.divergence {
            if divergences > limit {
                stats.truncated = true;
                continue;
            }
        }

        let children = match mode {
            Mode::Exhaustive => exhaustive_children(&steps, &choices),
            Mode::Dpor => dpor_children(&steps, &choices),
        };
        for child in children {
            if queued.insert(child.clone()) {
                stack.push(child);
            }
        }
    }
    stats
}

/// Every alternative enabled choice at every decision point.
fn exhaustive_children(steps: &[StepRecord], choices: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        for &t in &step.enabled {
            if t != choices[i] {
                let mut child = choices[..i].to_vec();
                child.push(t);
                out.push(child);
            }
        }
    }
    out
}

/// Per-step footprint normalized to sorted unique `(line, write)` pairs
/// with the write flag OR-ed per line.
fn footprints(steps: &[StepRecord]) -> Vec<Vec<(u32, bool)>> {
    steps
        .iter()
        .map(|s| {
            let mut map: BTreeMap<u32, bool> = BTreeMap::new();
            for a in &s.accesses {
                *map.entry(a.line).or_insert(false) |= a.write;
            }
            map.into_iter().collect()
        })
        .collect()
}

/// Two footprints conflict when they share a line at least one side
/// writes. Empty footprints (pure computation segments) conflict with
/// nothing — that independence is DPOR's whole lever.
fn conflicting(a: &[(u32, bool)], b: &[(u32, bool)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i].1 || b[j].1 {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

/// Race-reversal children: one alternative prefix per reversible racing
/// pair of the executed trace.
fn dpor_children(steps: &[StepRecord], choices: &[usize]) -> Vec<Vec<usize>> {
    let n = choices.len();
    let threads = steps
        .iter()
        .flat_map(|s| s.enabled.iter().copied())
        .max()
        .map_or(0, |t| t + 1)
        .max(choices.iter().copied().max().map_or(0, |t| t + 1));
    let fp = footprints(steps);

    // clocks[i][t] = 1 + the largest step index of thread t that
    // happens-before step i (0 when none), over the dependence relation
    // (same thread, or conflicting footprints). hb(j, i) for j < i is
    // then `clocks[i][choices[j]] > j`.
    let mut clocks: Vec<Vec<usize>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = vec![0usize; threads];
        for j in 0..i {
            if choices[j] == choices[i] || conflicting(&fp[j], &fp[i]) {
                for (ct, &jt) in c.iter_mut().zip(&clocks[j]) {
                    *ct = (*ct).max(jt);
                }
                c[choices[j]] = c[choices[j]].max(j + 1);
            }
        }
        clocks.push(c);
    }
    let hb = |j: usize, i: usize| clocks[i][choices[j]] > j;

    let mut out = Vec::new();
    for i in 0..n {
        // For each peer thread, only its *last* conflicting step before i
        // forms the race frontier; earlier ones are ordered through it.
        let mut seen = vec![false; threads];
        for j in (0..i).rev() {
            let p = choices[j];
            if p == choices[i] || seen[p] {
                continue;
            }
            if !conflicting(&fp[j], &fp[i]) {
                continue;
            }
            seen[p] = true;
            // The race is reversible only when nothing in between is
            // ordered after j and before i (otherwise reversing that
            // intermediate race subsumes this one).
            if ((j + 1)..i).any(|k| hb(j, k) && hb(k, i)) {
                continue;
            }
            // Run everything not ordered after j, then i's thread, and
            // only then (by default continuation) j's — the reversal.
            let mut child = choices[..j].to_vec();
            for (k, &ck) in choices.iter().enumerate().take(i).skip(j + 1) {
                if !hb(j, k) {
                    child.push(ck);
                }
            }
            child.push(choices[i]);
            out.push(child);
        }
    }
    out
}

/// One schedule-dependent violation with its minimized reproduction.
#[derive(Debug, Clone)]
pub struct ExploreFinding {
    /// The violation, as produced on the minimized schedule.
    pub finding: Finding,
    /// Minimized forced decisions, `(step index, thread)` — replaying
    /// exactly these overrides reproduces the violation.
    pub forced: Vec<(usize, usize)>,
    /// Human-readable interleaving diagram of the minimized schedule.
    pub diagram: Vec<String>,
}

/// Shrink a failing forced schedule to a minimal one still exhibiting a
/// finding with lint `lint`.
///
/// Returns `None` if the schedule does not reproduce the finding at all
/// (callers pass schedules that just did, so this indicates
/// nondeterminism and is worth treating as a bug). Otherwise returns the
/// minimized overrides, the schedule they produce, and the surviving
/// finding.
pub fn minimize(
    runner: impl Fn(&BTreeMap<usize, usize>) -> (Vec<StepRecord>, Vec<Finding>),
    forced: &BTreeMap<usize, usize>,
    lint: LintId,
) -> Option<(BTreeMap<usize, usize>, Vec<StepRecord>, Finding)> {
    let reproduces = |f: &BTreeMap<usize, usize>| -> Option<(Vec<StepRecord>, Finding)> {
        let (steps, findings) = runner(f);
        findings.into_iter().find(|x| x.lint == lint).map(|x| (steps, x))
    };
    let (mut steps, mut witness) = reproduces(forced)?;
    let mut forced = forced.clone();

    // Pass 1: drop, in one shot, every override that was a no-op — it
    // agreed with the default decision or fell back to it (forced thread
    // already finished). The remaining run is decision-for-decision
    // identical, so the finding necessarily survives; re-run to get the
    // (identical) steps anyway and keep the code honest.
    let diverging: BTreeMap<usize, usize> = forced
        .iter()
        .filter(|&(&i, &t)| steps.get(i).is_some_and(|s| s.chosen == t && s.default != t))
        .map(|(&i, &t)| (i, t))
        .collect();
    if diverging.len() < forced.len() {
        if let Some((s, w)) = reproduces(&diverging) {
            forced = diverging;
            steps = s;
            witness = w;
        }
    }

    // Pass 2: greedy delta-debugging to a fixed point — try removing
    // each override; keep any removal under which the finding persists.
    loop {
        let mut progress = false;
        for key in forced.keys().copied().collect::<Vec<_>>() {
            let mut trial = forced.clone();
            trial.remove(&key);
            if let Some((s, w)) = reproduces(&trial) {
                forced = trial;
                steps = s;
                witness = w;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    Some((forced, steps, witness))
}

/// Render a schedule as one line per decision:
/// `step  12: t1* [rL3 wL5] (default t0) <- forced`, where `*` marks a
/// decision differing from the default rule. Long schedules elide their
/// middle.
pub fn render_diagram(steps: &[StepRecord], forced: &BTreeMap<usize, usize>) -> Vec<String> {
    const MAX_LINES: usize = 60;
    const HEAD: usize = 40;
    let mut lines: Vec<String> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mark = if s.chosen != s.default { "*" } else { " " };
            let accesses = s
                .accesses
                .iter()
                .map(|a| format!("{}L{}", if a.write { "w" } else { "r" }, a.line))
                .collect::<Vec<_>>()
                .join(" ");
            let forced_note = if forced.contains_key(&i) { " <- forced" } else { "" };
            format!(
                "step {i:>3}: t{}{mark} [{accesses}] (default t{}){forced_note}",
                s.chosen, s.default
            )
        })
        .collect();
    if lines.len() > MAX_LINES {
        let tail = lines.len() - (MAX_LINES - 1 - HEAD);
        let elided = format!("  ... {} steps elided ...", tail - HEAD);
        lines.splice(HEAD..tail, [elided]);
    }
    lines
}

/// Explore and, for the first execution exhibiting each distinct lint,
/// minimize that schedule into an [`ExploreFinding`].
pub fn explore_and_minimize(
    mode: Mode,
    bounds: &Bounds,
    runner: impl Fn(&BTreeMap<usize, usize>) -> (Vec<StepRecord>, Vec<Finding>),
) -> (ExploreStats, Vec<ExploreFinding>) {
    let mut witnesses: Vec<(LintId, BTreeMap<usize, usize>)> = Vec::new();
    let mut seen: HashSet<LintId> = HashSet::new();
    let stats = explore(mode, bounds, &runner, |_steps, overrides, findings: Vec<Finding>| {
        for f in &findings {
            if seen.insert(f.lint) {
                witnesses.push((f.lint, overrides.clone()));
            }
        }
    });
    let mut out = Vec::new();
    for (lint, overrides) in witnesses {
        let (forced, steps, finding) = minimize(&runner, &overrides, lint)
            .expect("a finding observed during exploration must replay deterministically");
        let diagram = render_diagram(&steps, &forced);
        out.push(ExploreFinding { finding, forced: forced.into_iter().collect(), diagram });
    }
    (stats, out)
}

/// One scheme × lock × structure model-checking cell.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// The elision scheme under test.
    pub scheme: SchemeKind,
    /// The main lock family.
    pub lock: LockKind,
    /// Which data structure carries the operation history.
    pub structure: StructureKind,
    /// Simulated threads (2–4).
    pub threads: usize,
    /// Critical sections (structure operations) per thread.
    pub sections: usize,
    /// RNG seed for the HTM layer.
    pub seed: u64,
    /// Enumeration mode.
    pub mode: Mode,
    /// Exploration limits.
    pub bounds: Bounds,
}

impl ExploreSpec {
    /// The CI-sized cell: 2 threads × 3 sections under DPOR at
    /// [`Bounds::quick`].
    pub fn quick(scheme: SchemeKind, lock: LockKind, structure: StructureKind) -> Self {
        ExploreSpec {
            scheme,
            lock,
            structure,
            threads: 2,
            sections: 3,
            seed: 0xE11D,
            mode: Mode::Dpor,
            bounds: Bounds::quick(),
        }
    }
}

/// Outcome of model-checking one cell.
#[derive(Debug)]
pub struct CellReport {
    /// Unique executions analyzed.
    pub executions: usize,
    /// Total runner invocations.
    pub runs: usize,
    /// True when a bound cut the search short.
    pub truncated: bool,
    /// Minimized schedule-dependent violations (empty for correct cells).
    pub findings: Vec<ExploreFinding>,
}

/// Capacity of the queue structure cell (both the simulated queue and
/// its sequential reference model).
const QUEUE_CAP: usize = 8;

enum CellStructure {
    Map(HashTable),
    Set(SortedList),
    Tree(RbTree),
    Fifo(SimQueue),
}

/// The deterministic action thread `tid` performs in its section `k`.
/// Key ranges deliberately overlap across threads so histories contend.
fn action_for(kind: StructureKind, tid: usize, k: usize) -> OpAction {
    let key = 1 + ((tid + k) % 3) as u64;
    match kind {
        StructureKind::HashTable => match k % 3 {
            0 => OpAction::MapPut(key, (tid as u64) * 100 + k as u64),
            1 => OpAction::MapGet(key),
            _ => OpAction::MapRemove(key),
        },
        StructureKind::List | StructureKind::RbTree => match k % 3 {
            0 => OpAction::SetInsert(key),
            1 => OpAction::SetContains(key),
            _ => OpAction::SetRemove(key),
        },
        StructureKind::Queue => {
            if (tid + k).is_multiple_of(2) {
                OpAction::Push((tid as u64) * 10 + k as u64)
            } else {
                OpAction::Pop
            }
        }
    }
}

fn apply_action(
    scheme: &Scheme,
    st: &CellStructure,
    s: &mut Strand,
    action: OpAction,
) -> OpResponse {
    match (st, action) {
        (CellStructure::Map(h), OpAction::MapGet(k)) => {
            OpResponse::Value(scheme.execute(s, |s| h.get(s, k)).value)
        }
        (CellStructure::Map(h), OpAction::MapPut(k, v)) => {
            OpResponse::Value(scheme.execute(s, |s| h.put(s, k, v)).value)
        }
        (CellStructure::Map(h), OpAction::MapRemove(k)) => {
            OpResponse::Value(scheme.execute(s, |s| h.remove(s, k)).value)
        }
        (CellStructure::Set(l), OpAction::SetInsert(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| l.insert(s, k)).value)
        }
        (CellStructure::Set(l), OpAction::SetContains(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| l.contains(s, k)).value)
        }
        (CellStructure::Set(l), OpAction::SetRemove(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| l.remove(s, k)).value)
        }
        (CellStructure::Tree(t), OpAction::SetInsert(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| t.insert(s, k)).value)
        }
        (CellStructure::Tree(t), OpAction::SetContains(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| t.contains(s, k)).value)
        }
        (CellStructure::Tree(t), OpAction::SetRemove(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| t.remove(s, k)).value)
        }
        (CellStructure::Fifo(q), OpAction::Push(v)) => {
            OpResponse::Flag(scheme.execute(s, |s| q.push(s, v)).value)
        }
        (CellStructure::Fifo(q), OpAction::Pop) => {
            OpResponse::Value(scheme.execute(s, |s| q.pop(s)).value)
        }
        (_, a) => unreachable!("action {a} does not fit this cell's structure"),
    }
}

/// Execute one cell run under the given schedule overrides and analyze
/// it with every pass.
fn run_cell_once(
    spec: &ExploreSpec,
    overrides: &BTreeMap<usize, usize>,
) -> (Vec<StepRecord>, Vec<Finding>) {
    assert!(
        spec.scheme != SchemeKind::NoLock && spec.scheme != SchemeKind::GroupedScm,
        "{:?} is not explorable: see SchemeConfig::explore()",
        spec.scheme
    );
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let scheme = make_scheme(spec.scheme, spec.lock, SchemeConfig::explore(), &mut b, spec.threads);
    let structure = match spec.structure {
        StructureKind::HashTable => CellStructure::Map(HashTable::new(&mut b, 4, 64, spec.threads)),
        StructureKind::List => CellStructure::Set(SortedList::new(&mut b, 64, spec.threads)),
        StructureKind::RbTree => CellStructure::Tree(RbTree::new(&mut b, 64, spec.threads)),
        StructureKind::Queue => CellStructure::Fifo(SimQueue::new(&mut b, QUEUE_CAP)),
    };
    let mem = Arc::new(b.freeze(spec.threads));
    match &structure {
        CellStructure::Map(h) => h.init(&mem),
        CellStructure::Set(l) => l.init(&mem),
        CellStructure::Tree(t) => t.init(&mem),
        CellStructure::Fifo(_) => {}
    }
    let structure = Arc::new(structure);
    let control = Arc::new(ScheduleControl::new(spec.threads, overrides.clone()));

    let (histories, makespan) = {
        let scheme = Arc::clone(&scheme);
        let structure = Arc::clone(&structure);
        let kind = spec.structure;
        let sections = spec.sections;
        harness::run_arc_controlled(
            spec.threads,
            HtmConfig::deterministic(),
            spec.seed,
            Arc::clone(&control),
            Arc::clone(&mem),
            move |s| {
                let mut rec = HistoryRecorder::new(s.tid());
                for k in 0..sections {
                    let action = action_for(kind, s.tid(), k);
                    let invoked = s.sim().steps_taken();
                    let response = apply_action(&scheme, &structure, s, action);
                    let responded = s.sim().steps_taken();
                    rec.record(action, response, invoked, responded);
                }
                rec.into_records()
            },
        )
    };

    let rules = lint_config_for(&scheme, spec.threads);
    let mut findings = analyze_run(&mem, policy_for(spec.scheme), &rules, makespan).findings;
    let ops: Vec<OpRecord> = histories.into_iter().flatten().collect();
    let model = SeqModel::for_kind(spec.structure, QUEUE_CAP);
    findings.extend(check_linearizable(&model, &ops));

    (control.steps(), findings)
}

/// Model-check one scheme × lock × structure cell: explore all
/// interleavings within the spec's bounds, run every execution through
/// the full analysis pipeline, and minimize whatever fails.
pub fn explore_cell(spec: &ExploreSpec) -> CellReport {
    let (stats, findings) =
        explore_and_minimize(spec.mode, &spec.bounds, |ov| run_cell_once(spec, ov));
    CellReport {
        executions: stats.executions,
        runs: stats.runs,
        truncated: stats.truncated,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::race_cfg;
    use crate::race::detect_races;
    use crate::testkit::{
        broken_slr_explore, double_release_explore, lazy_race_explore, lazy_zombie_explore,
        LazyFixes,
    };

    /// Two threads, two pure-computation segments each: C(4,2) = 6
    /// interleavings, matching the hand-computed count.
    fn toy_runner(overrides: &BTreeMap<usize, usize>) -> (Vec<StepRecord>, ()) {
        let b = MemoryBuilder::new();
        let mem = Arc::new(b.freeze(2));
        let control = Arc::new(ScheduleControl::new(2, overrides.clone()));
        harness::run_arc_controlled(
            2,
            HtmConfig::deterministic(),
            1,
            Arc::clone(&control),
            mem,
            |s| {
                s.work(1).expect("non-transactional work");
                s.work(1).expect("non-transactional work");
            },
        );
        (control.steps(), ())
    }

    /// Two threads racing on one word (plus an independent work segment
    /// each): every interleaving contains the same data race.
    fn racy_runner(overrides: &BTreeMap<usize, usize>) -> (Vec<StepRecord>, Vec<Finding>) {
        let mut b = MemoryBuilder::new();
        b.enable_sanitizer();
        let x = b.alloc_isolated(0);
        let mem = Arc::new(b.freeze(2));
        let control = Arc::new(ScheduleControl::new(2, overrides.clone()));
        harness::run_arc_controlled(
            2,
            HtmConfig::deterministic(),
            1,
            Arc::clone(&control),
            Arc::clone(&mem),
            move |s| {
                s.work(1).expect("non-transactional work");
                if s.tid() == 0 {
                    s.store(x, 1).expect("plain store");
                } else {
                    s.load(x).expect("plain load");
                }
            },
        );
        let san = mem.san_log().expect("sanitizer enabled above");
        let findings = detect_races(&race_cfg(&mem, 2), &san.snapshot());
        (control.steps(), findings)
    }

    fn unbounded() -> Bounds {
        Bounds { divergence: None, max_schedules: 10_000, max_runs: 40_000, max_steps: 10_000 }
    }

    #[test]
    fn exhaustive_enumerates_all_toy_interleavings() {
        let mut seen = 0usize;
        let stats = explore(Mode::Exhaustive, &unbounded(), toy_runner, |steps, _, ()| {
            assert_eq!(steps.len(), 4, "two threads x two segments = four decisions");
            seen += 1;
        });
        assert_eq!(stats.executions, 6, "C(4,2) interleavings of 2x2 segments");
        assert_eq!(seen, 6);
        assert!(!stats.truncated);
    }

    #[test]
    fn dpor_explores_no_more_than_exhaustive_with_same_findings() {
        let collect = |mode| {
            let mut lints: HashSet<LintId> = HashSet::new();
            let stats = explore(mode, &unbounded(), racy_runner, |_, _, findings| {
                lints.extend(findings.iter().map(|f| f.lint));
            });
            (stats, lints)
        };
        let (ex_stats, ex_lints) = collect(Mode::Exhaustive);
        let (dp_stats, dp_lints) = collect(Mode::Dpor);
        assert_eq!(ex_stats.executions, 6, "same toy shape as above");
        assert!(
            dp_stats.executions <= ex_stats.executions,
            "DPOR ({}) must not exceed exhaustive ({})",
            dp_stats.executions,
            ex_stats.executions
        );
        assert!(dp_stats.executions < ex_stats.executions, "independent segments must prune");
        assert_eq!(ex_lints, dp_lints, "reduction must preserve findings");
        assert!(dp_lints.contains(&LintId::DataRace));
    }

    #[test]
    fn dpor_catches_schedule_dependent_broken_slr() {
        let (stats, findings) = explore_and_minimize(Mode::Dpor, &unbounded(), broken_slr_explore);
        assert!(stats.executions > 1, "must explore beyond the (clean) default schedule");
        let hit = findings
            .iter()
            .find(|f| matches!(f.finding.lint, LintId::CommitWhileLockHeld | LintId::DataRace))
            .unwrap_or_else(|| panic!("unsubscribed commit not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 12, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
        assert!(hit.diagram.iter().any(|l| l.contains("<- forced")));
    }

    #[test]
    fn dpor_catches_schedule_dependent_double_release() {
        let (stats, findings) =
            explore_and_minimize(Mode::Dpor, &unbounded(), double_release_explore);
        assert!(stats.executions > 1);
        let hit = findings
            .iter()
            .find(|f| f.finding.lint == LintId::ReleaseWithoutAcquire)
            .unwrap_or_else(|| panic!("double release not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 12, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
    }

    /// Diagnostic sweep over the full (class, lock, fixes) matrix —
    /// `cargo test -- --ignored debug_lazy_matrix --nocapture` prints
    /// the per-cell stats and lint sets the `lazy_safety` bench pins.
    #[test]
    #[ignore]
    fn debug_lazy_matrix() {
        let bounds = Bounds::lazy_safety();
        for fixes in LazyFixes::ALL {
            for lock in [LockKind::Ttas, LockKind::Ticket, LockKind::Clh] {
                let mut lints: HashSet<LintId> = HashSet::new();
                let mut max_len = 0usize;
                let stats = explore(
                    Mode::Dpor,
                    &bounds,
                    |ov| lazy_zombie_explore(lock, fixes, ov),
                    |steps, _, findings| {
                        max_len = max_len.max(steps.len());
                        lints.extend(findings.iter().map(|f| f.lint));
                    },
                );
                eprintln!(
                    "A {:>6}/{:<15} stats={stats:?} max_len={max_len} lints={lints:?}",
                    lock.label(),
                    fixes.label()
                );
            }
            for lock in [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh] {
                let mut lints: HashSet<LintId> = HashSet::new();
                let mut max_len = 0usize;
                let stats = explore(
                    Mode::Dpor,
                    &bounds,
                    |ov| lazy_race_explore(lock, fixes, ov),
                    |steps, _, findings| {
                        max_len = max_len.max(steps.len());
                        lints.extend(findings.iter().map(|f| f.lint));
                    },
                );
                eprintln!(
                    "B {:>6}/{:<15} stats={stats:?} max_len={max_len} lints={lints:?}",
                    lock.label(),
                    fixes.label()
                );
            }
        }
    }

    #[test]
    fn dpor_catches_lazy_zombie_dangerous_instruction() {
        // Class A of arXiv 1407.6968: unfixed lazy subscription lets a
        // zombie publish a wild store to the lock word itself.
        let (stats, findings) = explore_and_minimize(Mode::Dpor, &Bounds::lazy_safety(), |ov| {
            lazy_zombie_explore(LockKind::Ttas, LazyFixes::default(), ov)
        });
        assert!(stats.executions > 1, "must explore beyond the (clean) default schedule");
        let hit = findings
            .iter()
            .find(|f| f.finding.lint == LintId::LazyDangerousInstruction)
            .unwrap_or_else(|| panic!("zombie wild store not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 15, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
        assert!(hit.diagram.iter().any(|l| l.contains("<- forced")));
        assert!(
            findings.iter().any(|f| f.finding.lint == LintId::CommitWhileLockHeld),
            "the zombie's commit lands inside the critical section: {findings:#?}"
        );
    }

    #[test]
    fn dpor_catches_lazy_subscription_commit_race() {
        // Class B of arXiv 1407.6968: the lock is acquired between the
        // unfenced subscription check and the commit.
        let (stats, findings) = explore_and_minimize(Mode::Dpor, &Bounds::lazy_safety(), |ov| {
            lazy_race_explore(LockKind::Ttas, LazyFixes::default(), ov)
        });
        assert!(stats.executions > 1, "must explore beyond the (clean) default schedule");
        let hit = findings
            .iter()
            .find(|f| matches!(f.finding.lint, LintId::ZombieCommit | LintId::CommitWhileLockHeld))
            .unwrap_or_else(|| panic!("subscription race not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 15, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
    }

    #[test]
    fn hardware_fixes_verify_clean_under_identical_bounds() {
        // Both fixes together close both unsafe classes: the *same*
        // bounded search that finds the counterexamples above must come
        // back empty.
        let both = LazyFixes { dangerous_abort: true, hardware_commit: true };
        let (stats, findings) = explore_and_minimize(Mode::Dpor, &Bounds::lazy_safety(), |ov| {
            lazy_zombie_explore(LockKind::Ttas, both, ov)
        });
        assert!(stats.executions > 1, "the fixed cell must actually be searched");
        assert!(findings.is_empty(), "fixed zombie cell must verify clean: {findings:#?}");

        let (stats, findings) = explore_and_minimize(Mode::Dpor, &Bounds::lazy_safety(), |ov| {
            lazy_race_explore(LockKind::Ttas, both, ov)
        });
        assert!(stats.executions > 1, "the fixed cell must actually be searched");
        assert!(findings.is_empty(), "fixed race cell must verify clean: {findings:#?}");
    }

    #[test]
    fn dangerous_abort_alone_fixes_zombies_but_not_the_commit_race() {
        // The dangerous-instruction screen stops the wild store at the
        // offending access...
        let screen_only = LazyFixes { dangerous_abort: true, hardware_commit: false };
        let (stats, findings) = explore_and_minimize(Mode::Dpor, &Bounds::lazy_safety(), |ov| {
            lazy_zombie_explore(LockKind::Ttas, screen_only, ov)
        });
        assert!(stats.executions > 1, "the screened cell must actually be searched");
        assert!(findings.is_empty(), "screen must stop the wild store: {findings:#?}");

        // ...but is no help against the check-to-commit window, which
        // involves no dangerous instruction at all.
        let (_, findings) = explore_and_minimize(Mode::Dpor, &Bounds::lazy_safety(), |ov| {
            lazy_race_explore(LockKind::Ttas, screen_only, ov)
        });
        assert!(
            findings.iter().any(|f| matches!(
                f.finding.lint,
                LintId::ZombieCommit | LintId::CommitWhileLockHeld
            )),
            "the subscription race must survive the screen: {findings:#?}"
        );
    }

    #[test]
    fn minimizer_drops_noop_overrides() {
        // Seed the minimizer with a deliberately bloated override map:
        // whatever the search found plus a stack of no-op entries.
        let (_, findings) = explore_and_minimize(Mode::Dpor, &unbounded(), racy_runner);
        let witness = &findings[0];
        let mut bloated: BTreeMap<usize, usize> = witness.forced.iter().copied().collect();
        let (steps, _) = racy_runner(&bloated);
        for (i, s) in steps.iter().enumerate() {
            bloated.entry(i).or_insert(s.chosen); // agree with what ran
        }
        let (minimized, _, finding) =
            minimize(racy_runner, &bloated, LintId::DataRace).expect("race must reproduce");
        assert!(minimized.len() <= witness.forced.len());
        assert_eq!(finding.lint, LintId::DataRace);
    }

    #[test]
    fn diagram_marks_divergences_and_elides_long_schedules() {
        let steps: Vec<StepRecord> = (0..100)
            .map(|i| StepRecord {
                chosen: i % 2,
                default: 0,
                enabled: vec![0, 1],
                clock: i as u64,
                accesses: Vec::new(),
            })
            .collect();
        let forced: BTreeMap<usize, usize> = [(1usize, 1usize)].into_iter().collect();
        let lines = render_diagram(&steps, &forced);
        assert!(lines.len() <= 60, "diagram must stay readable: {}", lines.len());
        assert!(lines.iter().any(|l| l.contains("elided")));
        assert!(lines.iter().any(|l| l.contains("t1*")));
        assert!(lines.iter().any(|l| l.contains("<- forced")));
    }

    #[test]
    fn quick_cell_is_clean_for_a_correct_scheme() {
        let spec = ExploreSpec::quick(SchemeKind::Hle, LockKind::Ttas, StructureKind::Queue);
        let report = explore_cell(&spec);
        assert!(report.executions >= 1);
        assert!(
            report.findings.is_empty(),
            "correct HLE cell must verify clean: {:#?}",
            report.findings
        );
    }
}
