//! Metric definitions, their computation from rounds and spans, the
//! correctness verdict, and the output.

use crate::layers::{predicted_ns_per_op, DECOMP_TOLERANCE};
use crate::procfs;
use crate::round::{LayerObs, Round, SimAgg};
use crate::trace::Span;
use crate::workloads::Workload;
use elision_core::LatencyHistogram;
use elision_sim::AbortCause;
use std::collections::{BTreeMap, HashMap};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("sim_ops_per_s", "ops/s"),
    ("schedules_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s_per_kop", "s/kop"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_kcycle", "ops/kcycle"),
    ("sim_attempts_per_op", "attempts/op"),
    ("sim_p50_kcycles", "kcycles"),
    ("sim_p999_kcycles", "kcycles"),
    ("sim_capacity_req_per_kcycle", "req/kcycle"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("sim.handoff_ns.t2", "ns"),
    ("sim.handoff_ns.t8", "ns"),
    ("sim.parks_per_op", "1/op"),
    ("sim.offcpu_share", "frac"),
    ("sim.runq_share", "frac"),
    ("sim.spawn_us", "us"),
    ("sim.controlled_spawn_us", "us"),
    ("htm.load_ns", "ns"),
    ("htm.store_ns", "ns"),
    ("htm.txn0_ns", "ns"),
    ("htm.txn16_ns", "ns"),
    ("htm.begins_per_op", "1/op"),
    ("htm.commits_per_begin", "frac"),
    ("htm.aborts_per_op.data_conflict", "1/op"),
    ("htm.aborts_per_op.lock_word_conflict", "1/op"),
    ("htm.aborts_per_op.capacity", "1/op"),
    ("htm.aborts_per_op.explicit", "1/op"),
    ("htm.aborts_per_op.fault_injected", "1/op"),
    ("htm.aborts_per_op.hle_restore", "1/op"),
    ("htm.aborts_per_op.dangerous_instruction", "1/op"),
    ("locks.acq_rel_ns.ttas", "ns"),
    ("locks.acq_rel_ns.mcs", "ns"),
    ("locks.elided_rt_ns.ttas", "ns"),
    ("locks.elided_rt_ns.mcs", "ns"),
    ("locks.nonspec_frac", "frac"),
    ("locks.arrived_held_frac", "frac"),
    ("core.solo_execute_ns.standard", "ns"),
    ("core.solo_execute_ns.hle", "ns"),
    ("core.solo_execute_ns.hle_scm", "ns"),
    ("core.solo_execute_ns.opt_slr", "ns"),
    ("core.attempts_per_op", "attempts/op"),
    ("core.max_attempts", "count"),
    ("core.execute_wall_us.p50", "us"),
    ("core.execute_wall_us.p99", "us"),
    ("core.execute_cpu_us.p50", "us"),
    ("core.self_share", "frac"),
    ("core.op_kcycles.p50", "kcycles"),
    ("core.op_kcycles.p99", "kcycles"),
    ("structures.solo_op_ns.plain", "ns"),
    ("structures.solo_op_ns.txn", "ns"),
    ("structures.calls_per_op", "1/op"),
    ("structures.op_wall_us.p50", "us"),
    ("structures.op_cpu_us.p50", "us"),
    ("structures.fill_s", "s"),
    ("service.plan_s", "s"),
    ("service.run_s", "s"),
    ("service.lock_word_aborts", "count"),
    ("service.backlog_ratio", "ratio"),
    ("analysis.executions", "count"),
    ("analysis.runs_per_execution", "ratio"),
    ("analysis.ms_per_run", "ms"),
    ("analysis.spawn_share", "frac"),
    ("trace.overhead_frac", "frac"),
    ("decomp.measured_ns_per_op", "ns"),
    ("decomp.predicted_ns_per_op", "ns"),
    ("decomp.residual_frac", "frac"),
    ("decomp.handoff_explained_frac", "frac"),
];

/// The median of a non-empty sample (mean of the middle two if even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a sample; 0 for an empty one.
fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The `q`-quantile of a latency histogram in kcycles, interpolated
/// linearly along its CDF rows (from the previous non-empty bucket's
/// bound, or the exact minimum, to this bucket's bound), so it moves
/// continuously with the samples instead of jumping between buckets.
fn kcycles(h: &LatencyHistogram, q: f64) -> f64 {
    let rank = q * h.count() as f64;
    let mut lower = h.min().unwrap_or(0) as f64;
    let mut before = 0.0;
    for (bound, count, cum) in h.cdf() {
        if cum as f64 >= rank {
            let share = ((rank - before) / count as f64).clamp(0.0, 1.0);
            return (lower + share * (bound as f64 - lower)) / 1000.0;
        }
        lower = bound as f64;
        before = cum as f64;
    }
    0.0
}

/// `a / b`, or 0 when nothing was observed (`b == 0`): the layer is not
/// exercised by the workload.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// The highest quantile, at most 0.999, that leaves at least ten samples
/// beyond it.
fn tail_quantile(samples: u64) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.0, 0.999)
}

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Metrics a missing `/proc` field left without a value, and why.
    missing: Vec<(&'static str, String)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn build(
        workload: Workload,
        untraced: &[Round],
        traced: &[Round],
        spans: &[Span],
        micro: Option<&BTreeMap<&'static str, f64>>,
    ) -> Self {
        let mut r = Report::default();
        for (i, round) in untraced.iter().chain(traced).enumerate() {
            r.attempted += round.attempted;
            r.failed += round.failed;
            r.failures.extend(round.failures.iter().cloned());
            if round.digest != untraced[round.part].digest {
                r.failed += round.attempted;
                let kind = if i < untraced.len() { "untraced" } else { "traced" };
                r.failures.push(format!(
                    "{kind} round {i}: simulated outputs differ from the first run of input {}",
                    round.part
                ));
            }
        }
        r.end_to_end(workload, untraced);
        if let Some(micro) = micro {
            r.per_layer(workload, untraced, traced, spans, micro);
        }
        r
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn set(&mut self, name: &'static str, value: Option<f64>, why_missing: &str) {
        match value {
            Some(v) if v.is_finite() => {
                self.metrics.insert(name, v);
            }
            _ => self.missing.push((name, why_missing.to_string())),
        }
    }

    fn end_to_end(&mut self, workload: Workload, rounds: &[Round]) {
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        self.metrics.insert("sim_ops_per_s", per_round(&|r| r.ops as f64 / r.run_s));
        self.metrics.insert("schedules_per_s", per_round(&|r| r.schedules as f64 / r.run_s));
        self.metrics.insert("setup_s", per_round(&|r| r.setup_s));
        let cpu: Option<f64> = rounds.iter().map(|r| r.cpu_s).sum();
        let kops = rounds.iter().map(|r| r.ops).sum::<u64>() as f64 / 1000.0;
        self.set("cpu_s_per_kop", cpu.map(|c| c / kops), "/proc/self/stat utime/stime");
        self.set(
            "peak_rss_mb",
            procfs::peak_rss_kib().map(|k| k as f64 / 1024.0),
            "/proc/self/status VmHWM",
        );

        let mut sim = SimAgg::default();
        for round in &rounds[..workload.parts()] {
            sim.merge(&round.sim);
        }
        self.metrics.insert("sim_ops_per_kcycle", geomean(sim.throughputs()));
        self.metrics.insert("sim_attempts_per_op", sim.attempts as f64 / sim.completed as f64);
        let n = sim.latency.count();
        let tail = tail_quantile(n);
        let median_pool = sim.median_latency.as_ref().unwrap_or(&sim.latency);
        self.metrics.insert("sim_p50_kcycles", kcycles(median_pool, 0.5));
        self.metrics.insert("sim_p999_kcycles", kcycles(&sim.latency, tail));
        self.notes.push(format!(
            "sim_p999_kcycles is the q={tail:.5} quantile of {n} per-op latencies ({} beyond it)",
            n - (tail * n as f64).ceil() as u64
        ));
        let capacity = if sim.capacities.is_empty() {
            sim.throughputs().fold(0.0, f64::max)
        } else {
            geomean(sim.capacities.iter().copied())
        };
        self.metrics.insert("sim_capacity_req_per_kcycle", capacity);
        let runs: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.run_s)).collect();
        self.notes.push(format!(
            "{} rounds, measured seconds per round [{}], median set-up {:.4} s",
            rounds.len(),
            runs.join(", "),
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>())
        ));
    }

    fn per_layer(
        &mut self,
        workload: Workload,
        untraced: &[Round],
        traced: &[Round],
        spans: &[Span],
        micro: &BTreeMap<&'static str, f64>,
    ) {
        for (&name, &v) in micro {
            self.metrics.insert(name, v);
        }
        let rounds = traced.len() as f64;
        let mut obs = LayerObs::default();
        for round in traced {
            obs.merge(&round.layer);
        }

        // sim: parks and scheduler shares of the simulated threads.
        let body_ops = obs.body_ops as f64;
        let t = &obs.threads;
        let wall = t.wall_ns as f64;
        self.set(
            "sim.parks_per_op",
            t.sample.voluntary_cs.map(|v| ratio(v as f64, body_ops)),
            "/proc/thread-self/status voluntary_ctxt_switches",
        );
        self.set(
            "sim.offcpu_share",
            t.sample.oncpu_ns.map(|c| {
                if wall == 0.0 {
                    0.0
                } else {
                    (1.0 - c as f64 / wall).clamp(0.0, 1.0)
                }
            }),
            "/proc/thread-self/schedstat",
        );
        self.set(
            "sim.runq_share",
            t.sample.runq_ns.map(|q| ratio(q as f64, wall)),
            "/proc/thread-self/schedstat",
        );

        // htm: begins from the strands' own statistics where the thread
        // body is the benchmark's; the service engine's strands are
        // internal, so there a speculative attempt (S + A) is one begin.
        let c = &obs.counters;
        let completed = c.completed() as f64;
        let (begins, commits) = if obs.body_ops > 0 {
            (obs.txn.begins as f64, obs.txn.commits as f64)
        } else {
            ((c.speculative + c.aborted) as f64, c.speculative as f64)
        };
        self.metrics.insert("htm.begins_per_op", ratio(begins, completed));
        self.metrics.insert("htm.commits_per_begin", ratio(commits, begins));
        for cause in AbortCause::ALL {
            let name = match cause {
                AbortCause::DataConflict => "htm.aborts_per_op.data_conflict",
                AbortCause::LockWordConflict => "htm.aborts_per_op.lock_word_conflict",
                AbortCause::Capacity => "htm.aborts_per_op.capacity",
                AbortCause::Explicit => "htm.aborts_per_op.explicit",
                AbortCause::FaultInjected => "htm.aborts_per_op.fault_injected",
                AbortCause::HleRestore => "htm.aborts_per_op.hle_restore",
                AbortCause::DangerousInstruction => "htm.aborts_per_op.dangerous_instruction",
            };
            self.metrics.insert(name, ratio(c.causes.get(cause) as f64, completed));
        }

        // locks and core, from S/A/N counters and the watchdogs.
        self.metrics.insert("locks.nonspec_frac", c.frac_nonspeculative());
        self.metrics.insert("locks.arrived_held_frac", c.frac_arrived_lock_held());
        self.metrics.insert("core.attempts_per_op", c.attempts_per_op());
        self.metrics.insert("core.max_attempts", f64::from(obs.max_attempts));
        self.metrics.insert("core.op_kcycles.p50", kcycles(&obs.op_cycles, 0.5));
        self.metrics.insert("core.op_kcycles.p99", kcycles(&obs.op_cycles, 0.99));

        // core and structures, from spans: execute spans and the
        // structure calls inside them, one per attempt.
        let mut exec_wall = Vec::new();
        let mut exec_cpu = Vec::new();
        let mut call_wall = Vec::new();
        let mut call_cpu = Vec::new();
        let mut child_wall: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            match s.name {
                "core.execute" => {
                    exec_wall.push(s.wall_ns());
                    exec_cpu.push(s.cpu_ns());
                }
                "structures.op" => {
                    call_wall.push(s.wall_ns());
                    call_cpu.push(s.cpu_ns());
                    *child_wall.entry(s.parent).or_default() += s.wall_ns();
                }
                _ => {}
            }
        }
        let exec_total: u64 = exec_wall.iter().sum();
        let calls_total: u64 = child_wall.values().sum();
        let us = |ns: u64| ns as f64 / 1000.0;
        let calls_per_op = ratio(call_wall.len() as f64, exec_wall.len() as f64);
        self.metrics.insert("core.execute_wall_us.p50", us(quantile(&mut exec_wall, 0.5)));
        self.metrics.insert("core.execute_wall_us.p99", us(quantile(&mut exec_wall, 0.99)));
        self.metrics.insert("core.execute_cpu_us.p50", us(quantile(&mut exec_cpu, 0.5)));
        self.metrics.insert(
            "core.self_share",
            ratio(exec_total.saturating_sub(calls_total) as f64, exec_total as f64),
        );
        self.metrics.insert("structures.calls_per_op", calls_per_op);
        self.metrics.insert("structures.op_wall_us.p50", us(quantile(&mut call_wall, 0.5)));
        self.metrics.insert("structures.op_cpu_us.p50", us(quantile(&mut call_cpu, 0.5)));
        self.metrics.insert("structures.fill_s", obs.fill_s / rounds);

        // service and analysis, per round.
        self.metrics.insert("service.plan_s", obs.plan_s / rounds);
        self.metrics.insert("service.run_s", obs.service_run_s / rounds);
        self.metrics.insert("service.lock_word_aborts", obs.lock_word_aborts as f64 / rounds);
        self.metrics.insert(
            "service.backlog_ratio",
            ratio(obs.makespan_cycles as f64, obs.last_arrival_cycles as f64),
        );
        let runs = obs.runs as f64;
        self.metrics.insert("analysis.executions", obs.executions as f64 / rounds);
        self.metrics.insert("analysis.runs_per_execution", ratio(runs, obs.executions as f64));
        self.metrics.insert("analysis.ms_per_run", ratio(obs.explore_s * 1000.0, runs));
        self.metrics.insert(
            "analysis.spawn_share",
            ratio(runs * micro["sim.controlled_spawn_us"], obs.explore_s * 1e6),
        );

        // Tracing overhead: each traced round against the untraced round
        // of the same input run just before it.
        let slowdown: Vec<f64> = traced
            .iter()
            .zip(untraced)
            .map(|(t, u)| (t.setup_s + t.run_s) / (u.setup_s + u.run_s))
            .collect();
        self.metrics.insert("trace.overhead_frac", median(&slowdown) - 1.0);

        self.decomposition(workload, untraced, calls_per_op, micro);
    }

    /// Σ(layer ns × per-op count) against the measured host ns per op,
    /// from untraced rounds. Tree workloads only; 0 elsewhere.
    fn decomposition(
        &mut self,
        workload: Workload,
        untraced: &[Round],
        calls_per_op: f64,
        micro: &BTreeMap<&'static str, f64>,
    ) {
        let (mut measured, mut predicted, mut ops) = (0.0, 0.0, 0.0);
        if matches!(workload, Workload::TreeContended | Workload::TreeSolo) {
            for (i, cell) in untraced[0].cells.iter().enumerate() {
                let run_s = median(&untraced.iter().map(|r| r.cells[i].run_s).collect::<Vec<_>>());
                let n = cell.ops as f64;
                measured += run_s * 1e9;
                predicted += n * predicted_ns_per_op(cell, calls_per_op, micro);
                ops += n;
            }
        }
        let residual = ratio(measured - predicted, measured);
        self.metrics.insert("decomp.measured_ns_per_op", ratio(measured, ops));
        self.metrics.insert("decomp.predicted_ns_per_op", ratio(predicted, ops));
        self.metrics.insert("decomp.residual_frac", residual);
        let parks = self.metrics.get("sim.parks_per_op").copied().unwrap_or(0.0);
        let explained = parks * micro["sim.handoff_ns.t8"];
        let residual_ns = ratio(measured - predicted, ops);
        self.metrics
            .insert("decomp.handoff_explained_frac", ratio(explained, residual_ns.max(0.0)));
        match workload {
            Workload::TreeSolo => self.notes.push(format!(
                "decomposition: predicted {:.0} ns/op vs measured {:.0} ns/op, residual {:+.1}% \
                 (tolerance ±{:.0}%): {}",
                ratio(predicted, ops),
                ratio(measured, ops),
                residual * 100.0,
                DECOMP_TOLERANCE * 100.0,
                if residual.abs() <= DECOMP_TOLERANCE { "PASS" } else { "FAIL" }
            )),
            Workload::TreeContended => self.notes.push(format!(
                "decomposition: residual {residual_ns:.0} ns/op over the solo layers; \
                 parks/op × handoff_ns.t8 = {parks:.2} × {:.0} = {explained:.0} ns/op explains \
                 {:.0}% of it",
                micro["sim.handoff_ns.t8"],
                ratio(explained, residual_ns) * 100.0
            )),
            _ => {}
        }
    }

    pub fn print(&self, trace: bool) {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut json = Vec::new();
        for &(name, unit) in table {
            if let Some(v) = self.metrics.get(name) {
                println!("{name:<40} {v:>16.6} {unit}");
                json.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*v)
                ));
            } else {
                let why = self
                    .missing
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, w)| w.as_str())
                    .unwrap_or_else(|| panic!("metric {name} was never computed"));
                println!("{name:<40} {:>16} {unit} (missing: {why})", "missing");
                eprintln!("warning: metric {name} is missing: {why} is unavailable");
            }
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        for f in &self.failures {
            println!("FAILED CHECK: {f}");
        }
        println!(
            "checks: {} of {} attempted units failed{}",
            self.failed,
            self.attempted,
            if self.failed == 0 { "" } else { " (see FAILED CHECK lines)" }
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

/// A finite float as JSON, with every digit `f64`'s shortest round-trip
/// form keeps.
fn number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section ends")];
            let listed: Vec<(String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                        let rest = &entry[at..];
                        let start = rest.find('"').expect("string value") + 1;
                        rest[start..start + rest[start..].find('"').expect("closing quote")]
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, expected, "{section} in BENCHMARK.json");
        }
        for w in Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())), "workload {}", w.name());
        }
    }

    #[test]
    fn tail_quantile_leaves_ten_samples() {
        assert_eq!(tail_quantile(100_000), 0.999);
        let q = tail_quantile(2000);
        assert!((q - 0.995).abs() < 1e-12);
        assert!(2000.0 - (q * 2000.0).ceil() >= 10.0);
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.125), "0.125");
        assert_eq!(number(1e-9), "1e-9");
    }
}
