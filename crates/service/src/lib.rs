//! Open-loop sharded service engine over the elision schemes.
//!
//! Every other benchmark in this workspace is closed-loop: N simulated
//! threads hammer one structure as fast as the scheme lets them, so a
//! stall slows the *offered load* down and the latency distribution
//! never sees the backlog. This crate models the deployment the paper's
//! effects actually matter for — a sharded key-value/queue **service**
//! under *arriving* traffic:
//!
//! - requests arrive on the simulated clock via a Poisson process with
//!   Zipf key skew, shaped by phases (steady, burst, diurnal ramp) and
//!   an optional hot-shard migration ([`plan`]);
//! - each shard owns a hash table, a queue, a lock, and an elision
//!   scheme, served by a fixed worker pool;
//! - each request's latency runs from its *scheduled arrival* to
//!   completion, so queueing delay is measured rather than omitted, and
//!   it lands in a bounded log-bucketed histogram
//!   ([`elision_core::LatencyHistogram`]) good for millions of requests
//!   at fixed memory.
//!
//! A lemming storm under this engine is visible twice at once: the hot
//! shard's abort-cause histogram spikes on `lock_word_conflict`, and the
//! arrival phases behind the storm blow up at p999.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod plan;

pub use engine::{run_service, PhaseTelemetry, ServiceResult, ShardTelemetry};
pub use plan::{build_plan, shard_of, Request, RequestOp, ServiceMix, ServicePlan};

use elision_core::{LockKind, SchemeConfig, SchemeKind};
use elision_htm::HtmConfig;
use elision_sim::ArrivalPhase;

/// Parameters of one open-loop service cell.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Elision scheme used by every shard.
    pub scheme: SchemeKind,
    /// Main-lock family of every shard.
    pub lock: LockKind,
    /// Number of shards.
    pub shards: usize,
    /// Worker threads per shard (total simulated threads =
    /// `shards * workers_per_shard`, capped by the simulator at 64).
    pub workers_per_shard: usize,
    /// Keys initially resident per shard; the key domain is
    /// `2 * shards * keys_per_shard` (half-full tables, as in the
    /// closed-loop benchmarks).
    pub keys_per_shard: usize,
    /// Zipf skew exponent of key popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Operation mix.
    pub mix: ServiceMix,
    /// Arrival phases, run back to back from cycle 0.
    pub phases: Vec<ArrivalPhase>,
    /// When set, the shard-routing salt flips at this cycle, migrating
    /// the hot key set to a different shard.
    pub migrate_at: Option<u64>,
    /// What is left of the removed bounded-lag scheduling mode: must be 0.
    /// Kept only so that existing struct literals compile; a later
    /// benchmark change deletes it.
    pub window: u64,
    /// HTM configuration.
    pub htm: HtmConfig,
    /// RNG seed; the whole scenario is a pure function of it.
    pub seed: u64,
    /// Scheme tuning.
    pub scheme_cfg: SchemeConfig,
}

impl ServiceSpec {
    /// A small deterministic cell for tests and `--quick` sweeps.
    pub fn quick(scheme: SchemeKind, lock: LockKind) -> Self {
        ServiceSpec {
            scheme,
            lock,
            shards: 4,
            workers_per_shard: 2,
            keys_per_shard: 64,
            zipf_theta: 0.99,
            mix: ServiceMix::MIXED,
            phases: vec![
                ArrivalPhase::steady("steady", 60_000, 80.0),
                ArrivalPhase::steady("burst", 30_000, 25.0),
            ],
            migrate_at: None,
            window: 0,
            htm: HtmConfig::deterministic(),
            seed: 42,
            scheme_cfg: SchemeConfig::paper(),
        }
    }

    /// Total simulated worker threads.
    pub fn workers(&self) -> usize {
        self.shards * self.workers_per_shard
    }

    /// Size of the key domain.
    pub fn key_domain(&self) -> u64 {
        2 * self.shards as u64 * self.keys_per_shard as u64
    }

    /// Panic early on specs the simulator cannot run.
    pub(crate) fn validate(&self) {
        assert!(self.shards > 0, "at least one shard");
        assert!(self.workers_per_shard > 0, "at least one worker per shard");
        assert!(self.workers() <= 64, "simulator supports at most 64 threads");
        assert!(!self.phases.is_empty(), "at least one arrival phase");
        assert_eq!(self.window, 0, "the bounded-lag scheduling mode was removed: window must be 0");
    }
}
