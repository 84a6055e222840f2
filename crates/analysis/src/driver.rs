//! End-to-end sanitize mode: run one scheme × lock cell of the paper's
//! matrix with the sanitizer log enabled, then feed the log through
//! every analysis pass.
//!
//! [`analyze_run`] is the one pass pipeline: race, opacity, lint and
//! residual-bit checks over a finished run's [`SanLog`]. The sanitize
//! cells here, the model checker's cells and the seeded fixtures in
//! [`crate::testkit`] all go through it.
//!
//! The workload is a shared counter plus a small array of contended
//! words, all mutated through [`elision_core::Scheme::execute`] — small
//! enough that the full word-level log fits comfortably, contended
//! enough that every path (speculation, retries, fallback, SCM
//! auxiliary serialization) is exercised. The run uses scheduler window
//! 0 (the strict deterministic interleaving): that is what makes the
//! sanitizer log's append order the execution order, which every pass
//! relies on.
//!
//! Note the cell runs under [`SchemeConfig::paper`] plus the sanitize
//! flag — deliberately *without* the speculation circuit breaker: the
//! breaker's lockdown path takes the main lock directly (bypassing the
//! SCM auxiliary handshake), which is a deliberate liveness/discipline
//! trade-off the lint pass would rightly flag.
//!
//! [`SanLog`]: elision_htm::SanLog

use crate::lint::{lint_log, LintConfig};
use crate::opacity::{check_opacity, OpacityConfig, OpacityPolicy};
use crate::race::{detect_races, RaceConfig};
use crate::{AccessSite, Finding, LintId};
use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, SanAccess, SanEvent, VarId};
use elision_sim::FaultPlan;
use std::sync::Arc;

/// Number of contended data words in the workload array.
const TARGETS: usize = 8;

/// One sanitize-mode cell: which scheme/lock to run and how hard.
#[derive(Debug, Clone)]
pub struct SanitizeSpec {
    /// The elision scheme under test.
    pub scheme: SchemeKind,
    /// The main lock family.
    pub lock: LockKind,
    /// Simulated threads.
    pub threads: usize,
    /// Critical sections per thread.
    pub ops_per_thread: usize,
    /// RNG seed (also perturbs the per-thread operation mix).
    pub seed: u64,
    /// HTM behaviour (capacity, spurious aborts, injected HTM faults).
    pub htm: HtmConfig,
    /// Scheduler-level fault plan (preemption, jitter).
    pub faults: FaultPlan,
}

impl SanitizeSpec {
    /// A default cell: 4 threads × 24 ops, deterministic HTM, no faults.
    pub fn new(scheme: SchemeKind, lock: LockKind) -> Self {
        SanitizeSpec {
            scheme,
            lock,
            threads: 4,
            ops_per_thread: 24,
            seed: 0xE11D,
            htm: HtmConfig::deterministic(),
            faults: FaultPlan::none(),
        }
    }
}

/// The outcome of one sanitized cell.
#[derive(Debug)]
pub struct SanReport {
    /// Everything the three passes (plus the residual-bit check) found.
    pub findings: Vec<Finding>,
    /// Word-level sanitizer events analysed.
    pub san_events: usize,
    /// Protocol events (transaction lifecycle, lock transitions,
    /// markers) among the sanitizer events: what the lint pass reads.
    pub trace_events: usize,
    /// Final value of the shared counter.
    pub hot_total: u64,
    /// Sum of the contended array words.
    pub target_sum: u64,
    /// What both totals must equal (`threads * ops_per_thread`).
    pub expected_total: u64,
    /// Simulated makespan in cycles.
    pub makespan: u64,
}

impl SanReport {
    /// True when the workload's arithmetic survived: both totals match.
    pub fn counters_ok(&self) -> bool {
        self.hot_total == self.expected_total && self.target_sum == self.expected_total
    }

    /// True when no pass found anything and the counters add up.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.counters_ok()
    }
}

/// The opacity policy a scheme promises (see [`OpacityPolicy`]).
pub fn policy_for(kind: SchemeKind) -> OpacityPolicy {
    match kind {
        // Lazy subscription: zombies are expected, commits are not.
        SchemeKind::OptSlr | SchemeKind::SlrScm => OpacityPolicy::Sandboxed,
        _ => OpacityPolicy::Strict,
    }
}

/// Build the lint configuration matching a scheme instance.
pub fn lint_config_for(scheme: &Scheme, threads: usize) -> LintConfig {
    LintConfig {
        require_subscription: scheme.kind() != SchemeKind::Standard,
        aux_discipline: scheme.kind().uses_aux(),
        main_lock: Some(scheme.main_lock().lock_word().index()),
        aux_locks: scheme.aux_locks().iter().map(|l| l.lock_word().index()).collect(),
        threads,
    }
}

/// Build the [`RaceConfig`] describing `mem`'s layout.
pub fn race_cfg(mem: &Memory, threads: usize) -> RaceConfig {
    RaceConfig {
        threads,
        words_per_line: mem.words_per_line() as u32,
        lock_lines: (0..mem.line_count()).map(|l| mem.is_lock_line(l as u32)).collect(),
    }
}

/// One finished run's sanitizer log and everything the passes found in
/// it. Every finding's sites are coordinates in `log`: a site's `seq`
/// indexes the event it points at, except end-of-run and residual-bit
/// sites, which sit at `log.len()`.
#[derive(Debug)]
pub struct RunAnalysis {
    /// The sanitizer log, in execution order.
    pub log: Vec<SanEvent>,
    /// What the race, opacity, lint and residual-bit passes found.
    pub findings: Vec<Finding>,
}

/// Run the race, opacity, lint and residual-bit passes over the
/// sanitizer log of a finished run on `mem`.
///
/// `lint` also names the run's thread count and the main lock the
/// opacity pass watches; `makespan` is the time residual-bit findings
/// carry.
///
/// # Panics
///
/// Panics if `mem` was built without the sanitizer.
pub fn analyze_run(
    mem: &Memory,
    policy: OpacityPolicy,
    lint: &LintConfig,
    makespan: u64,
) -> RunAnalysis {
    let san = mem.san_log().expect("analysis needs a sanitized memory");
    let log = san.snapshot();
    let mut findings = detect_races(&race_cfg(mem, lint.threads), &log);
    findings.extend(check_opacity(
        &OpacityConfig { policy, main_lock: lint.main_lock },
        san.initial_values(),
        &log,
    ));
    findings.extend(lint_log(lint, &log));
    // Post-run leak check: after quiescence every conflict-bitmap bit
    // must be cleared.
    for line in mem.residual_lines() {
        findings.push(Finding {
            lint: LintId::ResidualConflictBits,
            message: format!("line {} kept reader/writer bits after quiescence", line.raw()),
            sites: vec![AccessSite {
                tid: 0,
                var: None,
                line: Some(line.raw()),
                time: makespan,
                seq: log.len(),
            }],
        });
    }
    RunAnalysis { log, findings }
}

/// Run one cell under the sanitizer and analyse its log.
pub fn sanitize_run(spec: &SanitizeSpec) -> SanReport {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let mut cfg = SchemeConfig::paper();
    cfg.sanitize = true;
    let scheme = make_scheme(spec.scheme, spec.lock, cfg, &mut b, spec.threads);
    let hot = b.alloc_isolated(0);
    let targets: Vec<VarId> = (0..TARGETS).map(|_| b.alloc_isolated(0)).collect();
    let mem = Arc::new(b.freeze(spec.threads));

    let (_, makespan, _faults) = {
        let scheme = Arc::clone(&scheme);
        let targets = targets.clone();
        let ops = spec.ops_per_thread;
        harness::run_arc_faulted(
            spec.threads,
            0, // strict window: log order == execution order
            spec.htm,
            spec.seed,
            spec.faults,
            Arc::clone(&mem),
            move |s| {
                for _ in 0..ops {
                    let t = s.rng.below(TARGETS as u64) as usize;
                    let target = targets[t];
                    scheme.execute(s, |s| {
                        let h = s.load(hot)?;
                        let v = s.load(target)?;
                        s.store(target, v + 1)?;
                        s.store(hot, h + 1)?;
                        Ok(())
                    });
                }
            },
        )
    };

    let lint = lint_config_for(&scheme, spec.threads);
    let RunAnalysis { log, findings } = analyze_run(&mem, policy_for(spec.scheme), &lint, makespan);
    let expected = (spec.threads * spec.ops_per_thread) as u64;
    SanReport {
        findings,
        san_events: log.len(),
        trace_events: log
            .iter()
            .filter(|e| !matches!(e.access, SanAccess::Read { .. } | SanAccess::Write { .. }))
            .count(),
        hot_total: mem.read_direct(hot),
        target_sum: targets.iter().map(|&t| mem.read_direct(t)).sum(),
        expected_total: expected,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(scheme: SchemeKind, lock: LockKind) {
        let report = sanitize_run(&SanitizeSpec::new(scheme, lock));
        assert!(report.findings.is_empty(), "{scheme:?}/{lock:?}: {:#?}", report.findings);
        assert!(
            report.counters_ok(),
            "{scheme:?}/{lock:?}: hot {} targets {} expected {}",
            report.hot_total,
            report.target_sum,
            report.expected_total
        );
        assert!(report.san_events > 0, "sanitizer log was empty");
        assert!(report.trace_events > 0, "no protocol events were logged");
    }

    #[test]
    fn hle_over_mcs_is_clean() {
        assert_clean(SchemeKind::Hle, LockKind::Mcs);
    }

    #[test]
    fn opt_slr_over_ttas_is_clean() {
        assert_clean(SchemeKind::OptSlr, LockKind::Ttas);
    }

    #[test]
    fn slr_scm_over_ticket_is_clean() {
        assert_clean(SchemeKind::SlrScm, LockKind::Ticket);
    }

    #[test]
    fn standard_over_clh_is_clean() {
        assert_clean(SchemeKind::Standard, LockKind::Clh);
    }
}
