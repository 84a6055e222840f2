//! The open-loop service engine: shards, workers, and telemetry.

use crate::plan::{build_plan, RequestOp, ServicePlan};
use crate::ServiceSpec;
use elision_core::{make_scheme, LatencyHistogram, Watchdog};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::OpCounters;
use elision_structures::{HashTable, SimQueue};
use std::sync::Arc;

/// Telemetry of one shard, merged across its workers.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    /// S/A/N counters plus the abort-cause histogram — lemming storms
    /// show here as `lock_word_conflict` spikes.
    pub counters: OpCounters,
    /// Requests routed to this shard.
    pub requests: u64,
    /// Per-request latency (arrival to completion) of this shard.
    pub latency: LatencyHistogram,
}

/// Telemetry of one arrival phase.
#[derive(Debug, Clone)]
pub struct PhaseTelemetry {
    /// The phase label from the spec ("steady", "burst", ...).
    pub label: &'static str,
    /// Requests that arrived in this phase.
    pub requests: u64,
    /// Latency of requests that arrived in this phase — a burst's
    /// backlog shows as a p999 blowup here even when the overall
    /// distribution looks tame.
    pub latency: LatencyHistogram,
}

/// The outcome of one service run.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Requests completed (always the plan's total: open-loop workers
    /// drain their assigned queues).
    pub requests: u64,
    /// Simulated makespan of the run.
    pub makespan: u64,
    /// Requests per thousand simulated cycles.
    pub throughput: f64,
    /// Per-request latency across all shards and phases.
    pub latency: LatencyHistogram,
    /// Attempt accounting across all workers.
    pub watchdog: Watchdog,
    /// S/A/N counters summed across all workers.
    pub counters: OpCounters,
    /// Per-shard telemetry, indexed by shard.
    pub shards: Vec<ShardTelemetry>,
    /// Per-phase telemetry, in spec order.
    pub phases: Vec<PhaseTelemetry>,
}

impl ServiceResult {
    /// Fold another run of the *same cell shape* (same shard count and
    /// phase list, e.g. a different seed) into this one. Histograms and
    /// counters merge exactly; throughput is recomputed over the summed
    /// makespan.
    pub fn merge(&mut self, other: &ServiceResult) {
        debug_assert_eq!(self.shards.len(), other.shards.len(), "merging different shard counts");
        debug_assert_eq!(self.phases.len(), other.phases.len(), "merging different phase lists");
        self.requests += other.requests;
        self.makespan += other.makespan;
        self.latency.merge(&other.latency);
        self.watchdog.merge(&other.watchdog);
        self.counters.merge(&other.counters);
        for (a, b) in self.shards.iter_mut().zip(&other.shards) {
            a.counters.merge(&b.counters);
            a.requests += b.requests;
            a.latency.merge(&b.latency);
        }
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            debug_assert_eq!(a.label, b.label, "merging different phase orders");
            a.requests += b.requests;
            a.latency.merge(&b.latency);
        }
        self.throughput = self.requests as f64 * 1000.0 / self.makespan.max(1) as f64;
    }
}

/// What each worker thread returns to the harness.
type WorkerOut = (OpCounters, Watchdog, Vec<LatencyHistogram>);

/// Run one open-loop service cell.
///
/// Builds the sharded state (per-shard hash table + queue + lock +
/// elision scheme), materializes the request plan, then runs one
/// simulated worker pool where each worker sleeps until its next
/// request's *scheduled* arrival, executes it under the shard's scheme,
/// and records latency from the scheduled arrival — so backlog behind a
/// slow critical section is charged to every delayed request.
pub fn run_service(spec: &ServiceSpec) -> ServiceResult {
    spec.validate();
    let plan = build_plan(spec);
    let workers = spec.workers();
    let domain = spec.key_domain();

    // Shared state: one table + queue + scheme per shard, all in one
    // simulated memory so conflict detection spans shards (workers of
    // different shards are still isolated — they touch disjoint lines —
    // but the lock words of a hot shard are genuinely contended).
    let mut b = MemoryBuilder::new();
    let mut tables = Vec::with_capacity(spec.shards);
    let mut queues = Vec::with_capacity(spec.shards);
    let mut schemes = Vec::with_capacity(spec.shards);
    let table_capacity = domain as usize + 16;
    let queue_capacity = (spec.keys_per_shard * 2).max(64);
    // Locks and freelists index per-thread slots by the *global* tid, so
    // every shard's structures are sized for the whole worker pool even
    // though only its own workers ever touch them.
    for _ in 0..spec.shards {
        tables.push(HashTable::new(&mut b, spec.keys_per_shard.max(16), table_capacity, workers));
        queues.push(SimQueue::new(&mut b, queue_capacity));
        schemes.push(make_scheme(spec.scheme, spec.lock, spec.scheme_cfg, &mut b, workers));
    }
    let mem = Arc::new(b.freeze(workers));
    for t in &tables {
        t.init(&mem);
    }

    // Fill phase: seed each shard's table with the keys that route to it
    // pre-migration, and give each queue a working backlog so dequeues
    // mostly succeed.
    {
        let tables = tables.clone();
        let shards = spec.shards;
        let fill = spec.shards as u64 * spec.keys_per_shard as u64;
        harness::run(
            1,
            HtmConfig::deterministic(),
            spec.seed ^ 0xF111,
            Arc::clone(&mem),
            move |s| {
                for key in 0..fill {
                    let shard = crate::plan::shard_of(key, 0, shards);
                    tables[shard].put(s, key, key).expect("fill runs without transactions");
                }
            },
        );
    }
    for t in &tables {
        t.rebalance_freelists(&mem);
    }
    for q in &queues {
        q.fill_direct(&mem, 0..(spec.keys_per_shard as u64 / 2).max(8));
    }

    // Measured phase: one simulated thread per worker, each draining its
    // pre-assigned request queue on the open-loop clock.
    let phase_count = spec.phases.len();
    let wps = spec.workers_per_shard;
    let plan = Arc::new(plan);
    let (results, _, makespan) = {
        let plan: Arc<ServicePlan> = Arc::clone(&plan);
        let tables = tables.clone();
        let queues = queues.clone();
        let schemes = schemes.clone();
        harness::run(workers, spec.htm, spec.seed, Arc::clone(&mem), move |s| -> WorkerOut {
            let tid = s.tid();
            let shard = tid / wps;
            let table = &tables[shard];
            let queue = &queues[shard];
            let scheme = &schemes[shard];
            let mut watchdog = Watchdog::new(0);
            let mut phase_hist = vec![LatencyHistogram::new(); phase_count];
            for req in &plan.per_worker[tid] {
                // Open-loop: idle until the scheduled arrival. When
                // the worker is backlogged (now > req.at) it starts
                // immediately and the queueing delay lands in the
                // measured latency.
                let now = s.now();
                if req.at > now {
                    s.sim().advance(req.at - now);
                }
                let key = req.key;
                let out = scheme.execute(s, |s| match req.op {
                    RequestOp::Get => table.get(s, key).map(|_| ()),
                    RequestOp::Put => table.put(s, key, key).map(|_| ()),
                    RequestOp::Remove => table.remove(s, key).map(|_| ()),
                    RequestOp::Enqueue => queue.push(s, key).map(|_| ()),
                    RequestOp::Dequeue => queue.pop(s).map(|_| ()),
                });
                let latency = s.now().saturating_sub(req.at);
                watchdog.record(out.attempts, latency);
                phase_hist[req.phase].record(latency);
            }
            (s.counters, watchdog, phase_hist)
        })
    };

    // Aggregate: workers of shard k are tids [k*wps, (k+1)*wps).
    let mut counters = OpCounters::new();
    let mut watchdog = Watchdog::new(0);
    let mut latency = LatencyHistogram::new();
    let mut shard_tel: Vec<ShardTelemetry> = (0..spec.shards)
        .map(|sh| ShardTelemetry {
            counters: OpCounters::new(),
            requests: plan.per_shard[sh],
            latency: LatencyHistogram::new(),
        })
        .collect();
    let mut phase_hist = vec![LatencyHistogram::new(); phase_count];
    for (tid, (c, w, ph)) in results.iter().enumerate() {
        counters.merge(c);
        watchdog.merge(w);
        latency.merge(w.histogram());
        let shard = tid / wps;
        shard_tel[shard].counters.merge(c);
        shard_tel[shard].latency.merge(w.histogram());
        for (acc, h) in phase_hist.iter_mut().zip(ph) {
            acc.merge(h);
        }
    }
    let phases = spec
        .phases
        .iter()
        .zip(phase_hist)
        .enumerate()
        .map(|(i, (p, h))| PhaseTelemetry {
            label: p.label,
            requests: plan.per_phase[i],
            latency: h,
        })
        .collect();

    debug_assert_eq!(latency.count(), plan.total, "every planned request must complete");
    ServiceResult {
        requests: plan.total,
        makespan,
        throughput: plan.total as f64 * 1000.0 / makespan.max(1) as f64,
        latency,
        watchdog,
        counters,
        shards: shard_tel,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_core::{LockKind, SchemeKind};
    use elision_sim::{AbortCause, ArrivalPhase};

    fn quick(scheme: SchemeKind) -> ServiceSpec {
        ServiceSpec::quick(scheme, LockKind::Ttas)
    }

    #[test]
    fn service_completes_every_request() {
        let r = run_service(&quick(SchemeKind::Hle));
        assert!(r.requests > 0);
        assert_eq!(r.latency.count(), r.requests);
        assert_eq!(r.watchdog.operations(), r.requests);
        let by_shard: u64 = r.shards.iter().map(|s| s.requests).sum();
        assert_eq!(by_shard, r.requests);
        let shard_lat: u64 = r.shards.iter().map(|s| s.latency.count()).sum();
        assert_eq!(shard_lat, r.requests);
        let by_phase: u64 = r.phases.iter().map(|p| p.requests).sum();
        assert_eq!(by_phase, r.requests);
        assert!(r.throughput > 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be 0")]
    fn lag_window_is_rejected() {
        run_service(&ServiceSpec { window: 16, ..quick(SchemeKind::Hle) });
    }

    #[test]
    fn service_run_is_deterministic() {
        let spec = quick(SchemeKind::HleScm);
        let a = run_service(&spec);
        let b = run_service(&spec);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.makespan, b.makespan);
        for p in [50, 90, 99, 100] {
            assert_eq!(a.latency.percentile(p), b.latency.percentile(p), "p{p}");
        }
        assert_eq!(a.latency.quantile(0.999), b.latency.quantile(0.999));
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.counters.aborted, y.counters.aborted);
            assert_eq!(
                x.counters.causes.get(AbortCause::LockWordConflict),
                y.counters.causes.get(AbortCause::LockWordConflict)
            );
        }
    }

    #[test]
    fn burst_raises_tail_latency_at_equal_mean_load() {
        // Coordinated-omission guard: the same number of expected
        // arrivals over the same wall-clock, but one schedule packs half
        // of them into a 4x-rate burst. Open-loop measurement must show
        // the burst's backlog as a strictly higher p999; a closed-loop
        // harness would show nearly identical distributions.
        let mut steady = quick(SchemeKind::Hle);
        steady.phases = vec![ArrivalPhase::steady("steady", 240_000, 120.0)];
        let mut bursty = quick(SchemeKind::Hle);
        bursty.phases = vec![
            ArrivalPhase::steady("lull", 120_000, 360.0),
            ArrivalPhase::steady("burst", 120_000, 72.0),
        ];
        // Equal expected arrivals: 240k/120 == 120k/360 + 120k/72.
        let e_steady = steady.phases.iter().map(|p| p.expected_arrivals()).sum::<f64>();
        let e_burst = bursty.phases.iter().map(|p| p.expected_arrivals()).sum::<f64>();
        assert!((e_steady - e_burst).abs() < 1e-9);

        let r_steady = run_service(&steady);
        let r_bursty = run_service(&bursty);
        let p999_steady = r_steady.latency.quantile(0.999).unwrap();
        let p999_bursty = r_bursty.latency.quantile(0.999).unwrap();
        assert!(
            p999_bursty > p999_steady,
            "burst must blow up the tail: steady p999 {p999_steady}, bursty {p999_bursty}"
        );
    }

    #[test]
    fn phase_telemetry_separates_burst_from_lull() {
        let mut spec = quick(SchemeKind::Hle);
        spec.phases = vec![
            ArrivalPhase::steady("lull", 120_000, 360.0),
            ArrivalPhase::steady("burst", 120_000, 60.0),
        ];
        let r = run_service(&spec);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].label, "lull");
        assert_eq!(r.phases[1].label, "burst");
        assert!(r.phases[1].requests > r.phases[0].requests * 3);
        let p99_lull = r.phases[0].latency.percentile(99).unwrap();
        let p99_burst = r.phases[1].latency.percentile(99).unwrap();
        assert!(
            p99_burst > p99_lull,
            "burst-phase tail ({p99_burst}) must exceed lull tail ({p99_lull})"
        );
    }

    #[test]
    fn telemetry_invariants_hold_across_schemes() {
        for scheme in [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr] {
            let r = run_service(&quick(scheme));
            assert_eq!(
                r.counters.causes.total(),
                r.counters.aborted,
                "{scheme}: cause histogram must sum to aborted attempts"
            );
            assert_eq!(r.counters.completed(), r.requests, "{scheme}: every request completes");
        }
    }
}
