//! One closed-loop cell: build a structure and a scheme, fill it on one
//! simulated thread, then have every simulated thread issue its next
//! operation as soon as the last one completes.
//!
//! The tree workloads and the model checker's default-schedule runs share
//! this code. Its thread body is the benchmark's own, so the traced run
//! can put spans around `Scheme::execute` and around every structure call
//! inside the critical section (one per attempt), and read `/proc` at the
//! body's start and end.

use crate::procfs::ThreadSample;
use crate::round::{CellTiming, Round};
use crate::trace::{self, Sink, SpanLog};
use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind, Watchdog};
use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, Strand, TxResult, TxnStats};
use elision_sim::{OpCounters, ScheduleControl};
use elision_structures::{
    key_domain, HashTable, OpMix, RbTree, SimQueue, SortedList, StructureKind, TreeOp,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parameters of one cell; a pure function of the workload seed.
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub scheme: SchemeKind,
    pub lock: LockKind,
    pub structure: StructureKind,
    pub threads: usize,
    /// Elements after the fill phase; keys come from `[0, 2 * size)`.
    pub size: usize,
    pub ops_per_thread: u64,
    pub htm: HtmConfig,
    pub scheme_cfg: SchemeConfig,
    /// Run the measured phase under a `ScheduleControl` with no forced
    /// choices: the model checker's default schedule. Also enables the
    /// sanitizer log, as explored runs do.
    pub controlled: bool,
    pub seed: u64,
}

impl CellSpec {
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/t{}",
            self.scheme.label(),
            self.lock.label(),
            self.structure.label(),
            self.threads
        )
    }
}

/// The solo `Scheme::execute` microbenchmark matching a scheme.
pub fn scheme_layer(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Standard | SchemeKind::NoLock => "core.solo_execute_ns.standard",
        SchemeKind::Hle | SchemeKind::HleRetries => "core.solo_execute_ns.hle",
        SchemeKind::HleScm | SchemeKind::SlrScm | SchemeKind::GroupedScm => {
            "core.solo_execute_ns.hle_scm"
        }
        SchemeKind::OptSlr => "core.solo_execute_ns.opt_slr",
    }
}

/// The structure under test.
#[derive(Clone)]
enum Target {
    Tree(RbTree),
    Map(HashTable),
    List(SortedList),
    Queue(SimQueue),
}

impl Target {
    fn build(kind: StructureKind, b: &mut MemoryBuilder, size: usize, threads: usize) -> Self {
        let capacity = key_domain(size) as usize + threads * 4 + 16;
        match kind {
            StructureKind::RbTree => Target::Tree(RbTree::new(b, capacity, threads)),
            StructureKind::HashTable => {
                Target::Map(HashTable::new(b, (size / 2).max(16), capacity, threads))
            }
            StructureKind::List => Target::List(SortedList::new(b, capacity, threads)),
            StructureKind::Queue => Target::Queue(SimQueue::new(b, 2 * size.max(8))),
        }
    }

    fn init(&self, mem: &Memory) {
        match self {
            Target::Tree(t) => t.init(mem),
            Target::Map(h) => h.init(mem),
            Target::List(l) => l.init(mem),
            Target::Queue(_) => {}
        }
    }

    /// Insert one key; `true` if it was new.
    fn fill_one(&self, s: &mut Strand, key: u64) -> bool {
        let fresh = match self {
            Target::Tree(t) => t.insert(s, key),
            Target::Map(h) => h.put(s, key, key).map(|old| old.is_none()),
            Target::List(l) => l.insert(s, key),
            Target::Queue(q) => q.push(s, key),
        };
        fresh.expect("fill runs without transactions")
    }

    fn rebalance(&self, mem: &Memory) {
        match self {
            Target::Tree(t) => t.rebalance_freelists(mem),
            Target::Map(h) => h.rebalance_freelists(mem),
            Target::List(_) | Target::Queue(_) => {}
        }
    }

    /// One structure call; the queue maps insert/delete/lookup onto
    /// push/pop/len.
    fn apply(&self, s: &mut Strand, op: TreeOp, key: u64) -> TxResult<()> {
        match (self, op) {
            (Target::Tree(t), TreeOp::Insert) => t.insert(s, key).map(drop),
            (Target::Tree(t), TreeOp::Delete) => t.remove(s, key).map(drop),
            (Target::Tree(t), TreeOp::Lookup) => t.contains(s, key).map(drop),
            (Target::Map(h), TreeOp::Insert) => h.put(s, key, key).map(drop),
            (Target::Map(h), TreeOp::Delete) => h.remove(s, key).map(drop),
            (Target::Map(h), TreeOp::Lookup) => h.get(s, key).map(drop),
            (Target::List(l), TreeOp::Insert) => l.insert(s, key).map(drop),
            (Target::List(l), TreeOp::Delete) => l.remove(s, key).map(drop),
            (Target::List(l), TreeOp::Lookup) => l.contains(s, key).map(drop),
            (Target::Queue(q), TreeOp::Insert) => q.push(s, key).map(drop),
            (Target::Queue(q), TreeOp::Delete) => q.pop(s).map(drop),
            (Target::Queue(q), TreeOp::Lookup) => q.len(s).map(drop),
        }
    }
}

/// Traced rounds record the spans of at most this many operations per
/// thread and cell, evenly spaced, so that long solo cells keep a
/// bounded span log.
const TRACED_OPS_PER_THREAD: u64 = 2048;

/// What one simulated thread hands back.
struct ThreadOut {
    counters: OpCounters,
    stats: TxnStats,
    watchdog: Watchdog,
    /// `/proc` deltas and wall nanoseconds of the body (traced runs only).
    host: Option<(ThreadSample, u64)>,
}

/// The closed loop each simulated thread runs.
fn body(
    s: &mut Strand,
    target: &Target,
    scheme: &Scheme,
    ops: u64,
    domain: u64,
    sink: &Option<Sink>,
    parent: u64,
) -> ThreadOut {
    let mut log = sink.as_ref().map(|_| SpanLog::new());
    let start = sink.as_ref().map(|_| (ThreadSample::now(), trace::wall_ns()));
    let thread_span = trace::open(&mut log, "sim.thread", parent, 0);
    let stride = (ops / TRACED_OPS_PER_THREAD).max(1);
    let mut watchdog = Watchdog::new(0);
    for i in 0..ops {
        // An op outside the sample borrows no log, so its spans are no-ops.
        let mut op_log = if i % stride == 0 { log.take() } else { None };
        // Draw before the critical section so retries replay the same op.
        let op = OpMix::MODERATE.draw(&mut s.rng);
        let key = s.rng.below(domain);
        let op_id = ((s.tid() as u64 + 1) << 32) | i;
        let started = s.now();
        let exec = trace::open(&mut op_log, "core.execute", thread_span, op_id);
        let out = scheme.execute(s, |s| {
            let call = trace::open(&mut op_log, "structures.op", exec, op_id);
            let r = target.apply(s, op, key);
            trace::close(&mut op_log, call);
            r
        });
        trace::close(&mut op_log, exec);
        if op_log.is_some() {
            log = op_log;
        }
        watchdog.record(out.attempts, s.now().saturating_sub(started));
    }
    trace::close(&mut log, thread_span);
    let host = start.map(|(sample, wall)| {
        (ThreadSample::now().since(&sample), trace::wall_ns().saturating_sub(wall))
    });
    if let (Some(log), Some(sink)) = (log, sink) {
        log.into_sink(sink);
    }
    ThreadOut { counters: s.counters, stats: s.stats, watchdog, host }
}

/// Run one cell: set-up (build and fill) and the measured phase, its
/// correctness checks, and its deterministic outputs into the digest.
pub fn run_cell(spec: &CellSpec, round: &mut Round, sink: Option<&Sink>) {
    let key = spec.key();
    let mut log = sink.map(|_| SpanLog::new());
    let cell_span = trace::open(&mut log, "cell", 0, 0);
    let domain = key_domain(spec.size);

    let setup_span = trace::open(&mut log, "setup", cell_span, 0);
    let (target, scheme, mem) = round.setup(|| {
        let mut b = MemoryBuilder::new();
        if spec.controlled {
            b.enable_sanitizer();
        }
        let target = Target::build(spec.structure, &mut b, spec.size, spec.threads);
        let scheme = make_scheme(spec.scheme, spec.lock, spec.scheme_cfg, &mut b, spec.threads);
        let mem = Arc::new(b.freeze(spec.threads));
        target.init(&mem);
        (target, scheme, mem)
    });
    let fill_span = trace::open(&mut log, "fill", setup_span, 0);
    let fill_start = std::time::Instant::now();
    round.setup(|| {
        let filler = target.clone();
        let size = spec.size;
        harness::run_arc(
            1,
            0,
            HtmConfig::deterministic(),
            spec.seed ^ 0xF111,
            Arc::clone(&mem),
            move |s| {
                let mut filled = 0;
                while filled < size {
                    let key = s.rng.below(domain);
                    if filler.fill_one(s, key) {
                        filled += 1;
                    }
                }
            },
        );
        target.rebalance(&mem);
    });
    round.layer.fill_s += fill_start.elapsed().as_secs_f64();
    trace::close(&mut log, fill_span);
    trace::close(&mut log, setup_span);

    let run_span = trace::open(&mut log, "sim.run", cell_span, 0);
    let ((outs, makespan), run_s) = round.measure(|| {
        let target = target.clone();
        let scheme = Arc::clone(&scheme);
        let ops = spec.ops_per_thread;
        let sink = sink.cloned();
        let thread_body =
            move |s: &mut Strand| body(s, &target, &scheme, ops, domain, &sink, run_span);
        if spec.controlled {
            let control = Arc::new(ScheduleControl::new(spec.threads, BTreeMap::new()));
            harness::run_arc_controlled(
                spec.threads,
                spec.htm,
                spec.seed,
                control,
                Arc::clone(&mem),
                thread_body,
            )
        } else {
            harness::run_arc(spec.threads, 0, spec.htm, spec.seed, Arc::clone(&mem), thread_body)
        }
    });
    trace::close(&mut log, run_span);
    trace::close(&mut log, cell_span);

    let issued = spec.ops_per_thread * spec.threads as u64;
    let mut counters = OpCounters::new();
    let mut stats = TxnStats::default();
    let mut watchdog = Watchdog::new(0);
    for out in &outs {
        counters.merge(&out.counters);
        stats.merge(&out.stats);
        watchdog.merge(&out.watchdog);
        if let Some((sample, wall)) = &out.host {
            round.layer.threads.add(*wall, sample);
        }
    }

    let mut problems = Vec::new();
    if counters.completed() != issued || watchdog.operations() != issued {
        problems.push(format!("{} of {issued} operations completed", counters.completed()));
    }
    if let Target::Tree(tree) = &target {
        if let Err(e) = tree.validate(&mem) {
            problems.push(format!("red-black invariant broken: {e}"));
        }
    }
    let residual = mem.residual_lines();
    if !residual.is_empty() {
        problems.push(format!("{} cache lines kept conflict bits", residual.len()));
    }
    round.check(&key, issued, problems);

    round.record(format!(
        "{key} seed={} makespan={makespan} counters={counters:?} txn={stats:?} \
         max_attempts={} latency_cdf={:?}",
        spec.seed,
        watchdog.max_attempts(),
        watchdog.histogram().cdf()
    ));
    round.sim.add_cell(&key, issued, makespan);
    round.sim.attempts += counters.total_attempts();
    round.sim.completed += counters.completed();
    round.sim.latency.merge(watchdog.histogram());
    round.ops += counters.completed();
    round.schedules += 1;
    round.cells.push(CellTiming {
        scheme_layer: scheme_layer(spec.scheme),
        transactional: spec.scheme != SchemeKind::Standard,
        ops: issued,
        run_s,
    });

    let layer = &mut round.layer;
    layer.body_ops += issued;
    layer.txn.merge(&stats);
    layer.counters.merge(&counters);
    layer.max_attempts = layer.max_attempts.max(watchdog.max_attempts());
    layer.op_cycles.merge(watchdog.histogram());
    if let (Some(log), Some(sink)) = (log, sink) {
        log.into_sink(sink);
    }
}
