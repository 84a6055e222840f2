//! What one round of a workload measured, checked and observed.
//!
//! A round runs a workload's whole, fixed input once. Its simulated
//! outputs are a pure function of the seed, rendered into `digest`; its
//! host timings vary from round to round.

use crate::procfs::{self, ThreadSample};
use elision_core::LatencyHistogram;
use elision_htm::TxnStats;
use elision_sim::OpCounters;
use std::collections::BTreeMap;
use std::time::Instant;

/// Deterministic simulated results, summed over cells and over the
/// rounds of a run's distinct inputs.
#[derive(Debug, Clone, Default)]
pub struct SimAgg {
    /// Per cell: operations (or requests) completed and simulated cycles.
    pub cells: BTreeMap<String, (u64, u64)>,
    /// Critical-section attempts and completed operations.
    pub attempts: u64,
    pub completed: u64,
    /// Per-operation simulated latency in cycles, pooled over cells.
    pub latency: LatencyHistogram,
    /// Where set, the population the median latency is taken from instead
    /// of `latency`: the service's nominal-load rungs. The median of a
    /// pool that mixes overloaded cells falls where the backlog starts and
    /// swings with the seed.
    pub median_latency: Option<LatencyHistogram>,
    /// Open-loop capacities (requests per kcycle); closed loops leave
    /// this empty and report their best cell's throughput instead.
    pub capacities: Vec<f64>,
}

impl SimAgg {
    pub fn add_cell(&mut self, key: &str, ops: u64, makespan: u64) {
        let cell = self.cells.entry(key.to_string()).or_default();
        cell.0 += ops;
        cell.1 += makespan;
    }

    pub fn merge(&mut self, o: &SimAgg) {
        for (key, &(ops, makespan)) in &o.cells {
            self.add_cell(key, ops, makespan);
        }
        self.attempts += o.attempts;
        self.completed += o.completed;
        self.latency.merge(&o.latency);
        if let Some(m) = &o.median_latency {
            self.median_latency.get_or_insert_with(Default::default).merge(m);
        }
        self.capacities.extend(&o.capacities);
    }

    /// Per-cell throughput in operations per kcycle.
    pub fn throughputs(&self) -> impl Iterator<Item = f64> + '_ {
        self.cells.values().map(|&(ops, cycles)| ops as f64 * 1000.0 / cycles.max(1) as f64)
    }
}

/// Sums of simulated-thread `/proc` deltas; `None` once any thread's
/// field was missing.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTotals {
    pub wall_ns: u64,
    pub sample: ThreadSample,
}

impl Default for ThreadTotals {
    fn default() -> Self {
        let zero = Some(0);
        ThreadTotals {
            wall_ns: 0,
            sample: ThreadSample { oncpu_ns: zero, runq_ns: zero, voluntary_cs: zero },
        }
    }
}

impl ThreadTotals {
    pub fn add(&mut self, wall_ns: u64, d: &ThreadSample) {
        let add = |a: Option<u64>, b: Option<u64>| Some(a? + b?);
        self.wall_ns += wall_ns;
        let t = &mut self.sample;
        t.oncpu_ns = add(t.oncpu_ns, d.oncpu_ns);
        t.runq_ns = add(t.runq_ns, d.runq_ns);
        t.voluntary_cs = add(t.voluntary_cs, d.voluntary_cs);
    }
}

/// One measured phase of a cell, for the decomposition check.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Solo `Scheme::execute` layer this cell's scheme maps to.
    pub scheme_layer: &'static str,
    /// Whether the structure runs inside transactions (any eliding
    /// scheme) or under the lock only.
    pub transactional: bool,
    pub ops: u64,
    pub run_s: f64,
}

/// What the traced run observes at the layer boundaries. Counts come
/// from the simulated threads' own `Strand` state and `/proc` deltas
/// read in the benchmark's thread bodies.
#[derive(Debug, Default)]
pub struct LayerObs {
    /// Operations issued by thread bodies the benchmark owns.
    pub body_ops: u64,
    pub threads: ThreadTotals,
    pub txn: TxnStats,
    pub counters: OpCounters,
    pub max_attempts: u32,
    pub op_cycles: LatencyHistogram,
    pub fill_s: f64,
    pub plan_s: f64,
    pub service_run_s: f64,
    pub lock_word_aborts: u64,
    pub makespan_cycles: u64,
    pub last_arrival_cycles: u64,
    pub executions: u64,
    pub runs: u64,
    pub explore_s: f64,
}

impl LayerObs {
    /// Sum another round's observations into this one.
    pub fn merge(&mut self, o: &LayerObs) {
        self.body_ops += o.body_ops;
        self.threads.add(o.threads.wall_ns, &o.threads.sample);
        self.txn.merge(&o.txn);
        self.counters.merge(&o.counters);
        self.max_attempts = self.max_attempts.max(o.max_attempts);
        self.op_cycles.merge(&o.op_cycles);
        self.fill_s += o.fill_s;
        self.plan_s += o.plan_s;
        self.service_run_s += o.service_run_s;
        self.lock_word_aborts += o.lock_word_aborts;
        self.makespan_cycles += o.makespan_cycles;
        self.last_arrival_cycles += o.last_arrival_cycles;
        self.executions += o.executions;
        self.runs += o.runs;
        self.explore_s += o.explore_s;
    }
}

/// One round's results.
#[derive(Debug, Default)]
pub struct Round {
    /// Which of the run's distinct inputs this round ran.
    pub part: usize,
    /// Rendered simulated outputs; equal across rounds of one input.
    pub digest: String,
    pub sim: SimAgg,
    /// Simulated operations (requests, for the service) completed in
    /// measured phases.
    pub ops: u64,
    /// Simulations run in measured phases (unique explored executions,
    /// for the model checker).
    pub schedules: u64,
    pub setup_s: f64,
    pub run_s: f64,
    /// Process CPU over the measured phases; `None` if `/proc` lacks it.
    pub cpu_s: Option<f64>,
    /// Units checked (operations, requests or schedules) and how many of
    /// them failed a correctness check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub cells: Vec<CellTiming>,
    pub layer: LayerObs,
}

impl Round {
    pub fn new(part: usize) -> Self {
        Round { part, cpu_s: Some(0.0), ..Default::default() }
    }

    /// Run set-up work, adding its wall time to `setup_s`.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.setup_s += t.elapsed().as_secs_f64();
        out
    }

    /// Run a measured phase, adding its wall and process CPU time; also
    /// returns the phase's wall seconds.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let cpu0 = procfs::process_cpu_s();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let cpu1 = procfs::process_cpu_s();
        self.run_s += wall;
        self.cpu_s = match (self.cpu_s, cpu0, cpu1) {
            (Some(acc), Some(a), Some(b)) => Some(acc + (b - a)),
            _ => None,
        };
        (out, wall)
    }

    /// Count `units` as checked, failing all of them if `problems` is
    /// non-empty.
    pub fn check(&mut self, what: &str, units: u64, problems: Vec<String>) {
        self.attempted += units;
        if !problems.is_empty() {
            self.failed += units;
            for p in problems {
                self.failures.push(format!("{what}: {p}"));
            }
        }
    }

    /// Append a cell's deterministic outputs to the digest.
    pub fn record(&mut self, line: String) {
        self.digest.push_str(&line);
        self.digest.push('\n');
    }
}
