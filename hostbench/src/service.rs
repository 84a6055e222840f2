//! `service-openloop`: the sharded service engine under Poisson arrivals.
//!
//! The loop is open in simulated time: requests arrive on a fixed
//! schedule whatever the workers do, and latency runs from the scheduled
//! arrival, so backlog is charged to every delayed request. Each scheme
//! climbs a fixed ladder of steady rates, then runs the storm scenario
//! (steady load, then a high rate on strongly skewed keys).

use crate::round::Round;
use crate::trace::{self, Sink, SpanLog};
use crate::workloads::cell_seed;
use elision_core::{LockKind, SchemeConfig, SchemeKind};
use elision_htm::HtmConfig;
use elision_service::{build_plan, run_service, ServiceMix, ServiceSpec};
use elision_sim::{AbortCause, ArrivalPhase};

/// Mean inter-arrival gaps (cycles) of the steady ladder, slowest first.
const LADDER_GAPS: [f64; 4] = [120.0, 60.0, 30.0, 15.0];
/// The leading rungs at nominal load, at most half of capacity: the
/// median latency is taken over these.
const NOMINAL_RUNGS: usize = 2;
/// Simulated cycles each ladder rung runs.
const RUNG_CYCLES: u64 = 40_000;
/// Each storm phase's length in cycles.
const STORM_CYCLES: u64 = 20_000;
/// The limit, in cycles, on a rung's p99 latency and on the backlog it
/// leaves when arrivals stop (makespan minus last scheduled arrival):
/// a rung within it serves its rate without a growing queue.
const LATENCY_LIMIT_CYCLES: u64 = 5_000;

const SCHEMES: [SchemeKind; 2] = [SchemeKind::Hle, SchemeKind::HleScm];

fn spec(scheme: SchemeKind, phases: Vec<ArrivalPhase>, zipf_theta: f64, seed: u64) -> ServiceSpec {
    ServiceSpec {
        scheme,
        lock: LockKind::Ttas,
        shards: 4,
        workers_per_shard: 2,
        keys_per_shard: 64,
        zipf_theta,
        mix: ServiceMix::MIXED,
        phases,
        migrate_at: None,
        window: 0,
        htm: HtmConfig::deterministic(),
        seed,
        scheme_cfg: SchemeConfig::paper(),
    }
}

/// One rung's result, as the capacity search sees it.
struct Rung {
    rate: f64,
    p99: u64,
    drain: u64,
}

/// The highest rate meeting the latency limit, interpolated in log-log
/// space between the last rung that meets it and the first that misses,
/// so it moves continuously with the inputs. The ladder is chosen so its
/// slowest rung always meets the limit and its fastest never does.
fn capacity(rungs: &[Rung]) -> f64 {
    let score = |r: &Rung| (r.p99.max(r.drain).max(1) as f64 / LATENCY_LIMIT_CYCLES as f64).ln();
    match rungs.iter().position(|r| score(r) > 0.0) {
        None => rungs[rungs.len() - 1].rate,
        Some(0) => rungs[0].rate,
        Some(i) => {
            let (lo, hi) = (&rungs[i - 1], &rungs[i]);
            let t = -score(lo) / (score(hi) - score(lo));
            (lo.rate.ln() + t * (hi.rate.ln() - lo.rate.ln())).exp()
        }
    }
}

pub fn round(seed: u64, round: &mut Round, sink: Option<&Sink>) {
    let mut log = sink.map(|_| SpanLog::new());
    let mut capacities = Vec::new();
    let mut index = 0;
    for scheme in SCHEMES {
        // (ladder gap, or None for the storm; phases; Zipf skew)
        let mut cells: Vec<(Option<f64>, Vec<ArrivalPhase>, f64)> = LADDER_GAPS
            .iter()
            .map(|&gap| (Some(gap), vec![ArrivalPhase::steady("steady", RUNG_CYCLES, gap)], 0.99))
            .collect();
        let storm = vec![
            ArrivalPhase::steady("steady", STORM_CYCLES, 90.0),
            ArrivalPhase::steady("storm", STORM_CYCLES, 12.0),
        ];
        cells.push((None, storm, 1.25));
        let mut rungs = Vec::new();
        for (gap, phases, zipf_theta) in cells {
            let spec = spec(scheme, phases, zipf_theta, cell_seed(seed, index));
            index += 1;
            let key = match gap {
                Some(gap) => format!("{}/gap{gap}", scheme.label()),
                None => format!("{}/storm", scheme.label()),
            };
            let cell_span = trace::open(&mut log, "cell", 0, 0);
            let plan_span = trace::open(&mut log, "service.plan", cell_span, 0);
            let plan_start = std::time::Instant::now();
            let plan = round.setup(|| build_plan(&spec));
            round.layer.plan_s += plan_start.elapsed().as_secs_f64();
            trace::close(&mut log, plan_span);
            let last_arrival =
                plan.per_worker.iter().flatten().map(|r| r.at).max().unwrap_or(0).max(1);

            let run_span = trace::open(&mut log, "service.run", cell_span, 0);
            let (r, run_s) = round.measure(|| run_service(&spec));
            trace::close(&mut log, run_span);
            trace::close(&mut log, cell_span);

            let mut problems = Vec::new();
            if r.requests != plan.total
                || r.latency.count() != plan.total
                || r.counters.completed() != plan.total
            {
                problems.push(format!(
                    "{} of {} planned requests completed",
                    r.latency.count(),
                    plan.total
                ));
            }
            round.check(&key, plan.total, problems);
            let backlog_ratio = r.makespan as f64 / last_arrival as f64;
            round.record(format!(
                "{key} seed={} requests={} makespan={} backlog_ratio={backlog_ratio} p99={:?} \
                 counters={:?} max_attempts={} latency_cdf={:?}",
                spec.seed,
                r.requests,
                r.makespan,
                r.latency.percentile(99),
                r.counters,
                r.watchdog.max_attempts(),
                r.latency.cdf()
            ));

            if let Some(gap) = gap {
                if rungs.len() < NOMINAL_RUNGS {
                    round.sim.median_latency.get_or_insert_with(Default::default).merge(&r.latency);
                }
                rungs.push(Rung {
                    rate: 1000.0 / gap,
                    p99: r.latency.percentile(99).unwrap_or(0),
                    drain: r.makespan.saturating_sub(last_arrival),
                });
            }
            round.sim.add_cell(&key, r.requests, r.makespan);
            round.sim.attempts += r.counters.total_attempts();
            round.sim.completed += r.counters.completed();
            round.sim.latency.merge(&r.latency);
            round.ops += r.requests;
            round.schedules += 1;

            let layer = &mut round.layer;
            layer.service_run_s += run_s;
            layer.counters.merge(&r.counters);
            layer.max_attempts = layer.max_attempts.max(r.watchdog.max_attempts());
            // The engine keeps no separate service-time histogram, so on
            // this workload `core.op_kcycles` is arrival-to-completion.
            layer.op_cycles.merge(&r.latency);
            layer.lock_word_aborts += r.counters.causes.get(AbortCause::LockWordConflict);
            layer.makespan_cycles += r.makespan;
            layer.last_arrival_cycles += last_arrival;
        }
        capacities.push(capacity(&rungs));
    }
    round.record(format!("capacity_req_per_kcycle={capacities:?}"));
    round.sim.capacities = capacities;
    if let (Some(log), Some(sink)) = (log, sink) {
        log.into_sink(sink);
    }
}
