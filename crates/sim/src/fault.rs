//! Deterministic fault injection for the logical-time simulator.
//!
//! A [`FaultPlan`] attaches to a simulation run and perturbs logical time in
//! two ways, both of which the lock-elision paper identifies as the
//! environments where naive elision falls apart:
//!
//! * **Simulated preemption** ([`PreemptSpec`]): at a fixed cadence on each
//!   thread's *own* clock the thread's logical time jumps forward by a
//!   configurable pause, modelling the OS descheduling a lock holder — the
//!   injection point is [`SimHandle::advance`], so the jump lands wherever
//!   the thread happens to be, including mid-critical-section.
//! * **Clock jitter**: every advance is stretched by a bounded random
//!   fraction of its cost, modelling per-core frequency and interference
//!   noise that de-synchronises threads.
//!
//! All randomness derives from the plan's seed via per-thread [`DetRng`]
//! streams, and every threshold is keyed off the owning thread's own clock.
//! That makes the fault schedule a pure function of `(plan, thread id,
//! thread-local history)` — independent of interleaving — so a run is
//! exactly reproducible from the seed.
//!
//! [`SimHandle::advance`]: crate::SimHandle::advance

use crate::rng::DetRng;

/// Periodic simulated lock-holder preemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptSpec {
    /// Thread-clock cycles between preemptions. Must be non-zero for the
    /// spec to have any effect.
    pub interval: u64,
    /// Cycles the thread's clock jumps forward at each preemption.
    pub pause: u64,
}

/// A complete fault-injection plan for one simulation run.
///
/// The default plan injects nothing; [`FaultPlan::is_active`] reports
/// whether any fault source is enabled, and inactive plans add zero
/// overhead (and consume zero RNG draws) on the advance path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Periodic clock jumps simulating preemption, if enabled.
    pub preempt: Option<PreemptSpec>,
    /// Per-advance clock jitter, in permille of each advance's cost.
    /// `250` stretches every advance by a uniform 0..=25% extra.
    pub jitter_permille: u32,
    /// Seed for the fault-schedule RNG streams (independent of the
    /// workload seed so faults can be varied while the workload is held
    /// fixed, and vice versa).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Enable periodic preemption: every `interval` cycles of thread-local
    /// time, jump the clock forward by `pause` cycles.
    pub fn with_preempt(mut self, interval: u64, pause: u64) -> Self {
        self.preempt = Some(PreemptSpec { interval, pause });
        self
    }

    /// Enable per-advance clock jitter of up to `permille`/1000 of each
    /// advance's cost.
    pub fn with_jitter(mut self, permille: u32) -> Self {
        self.jitter_permille = permille;
        self
    }

    /// Set the fault-schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any fault source is enabled.
    pub fn is_active(&self) -> bool {
        self.preempt.map(|p| p.interval > 0 && p.pause > 0).unwrap_or(false)
            || self.jitter_permille > 0
    }
}

/// Counters describing the faults actually injected into one thread.
///
/// Two runs with the same seed produce identical stats; the chaos harness
/// asserts exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Number of simulated preemptions delivered.
    pub preemptions: u64,
    /// Total cycles injected by preemption pauses.
    pub pause_cycles: u64,
    /// Total cycles injected by jitter.
    pub jitter_cycles: u64,
}

impl FaultStats {
    /// Accumulate another thread's stats into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.preemptions += other.preemptions;
        self.pause_cycles += other.pause_cycles;
        self.jitter_cycles += other.jitter_cycles;
    }
}

/// Per-thread fault-schedule state, owned by the scheduler.
#[derive(Debug)]
pub(crate) struct FaultThreadState {
    plan: FaultPlan,
    rng: DetRng,
    /// Thread-clock threshold for the next preemption (`u64::MAX` when
    /// preemption is disabled).
    next_preempt_at: u64,
    stats: FaultStats,
}

/// Stream namespace offset separating fault RNG streams from workload ones.
const FAULT_STREAM_BASE: u64 = 0xFA17_0000;

impl FaultThreadState {
    pub(crate) fn new(plan: FaultPlan, tid: usize) -> Self {
        let mut rng = DetRng::new(plan.seed, FAULT_STREAM_BASE + tid as u64);
        let next_preempt_at = match plan.preempt {
            // Stagger the first preemption per thread so the whole fleet
            // does not stall in lockstep.
            Some(p) if p.interval > 0 && p.pause > 0 => p.interval + rng.below(p.interval),
            _ => u64::MAX,
        };
        FaultThreadState { plan, rng, next_preempt_at, stats: FaultStats::default() }
    }

    /// Extra cycles to inject for an advance from `now` by `cost`.
    pub(crate) fn extra_cycles(&mut self, now: u64, cost: u64) -> u64 {
        let mut extra = 0u64;
        if self.plan.jitter_permille > 0 && cost > 0 {
            let span = (cost as u128 * self.plan.jitter_permille as u128 / 1000) as u64;
            if span > 0 {
                let j = self.rng.below(span + 1);
                self.stats.jitter_cycles += j;
                extra += j;
            }
        }
        if let Some(p) = self.plan.preempt {
            if p.interval > 0 && p.pause > 0 {
                // A single large advance may cross several thresholds.
                let end = now.saturating_add(cost).saturating_add(extra);
                while self.next_preempt_at <= end {
                    extra = extra.saturating_add(p.pause);
                    self.stats.preemptions += 1;
                    self.stats.pause_cycles += p.pause;
                    // The next preemption comes `interval` *run* cycles
                    // later: the pause is descheduled time and must not
                    // itself burn down the interval, otherwise a pause
                    // longer than the interval cascades into an unbounded
                    // storm of back-to-back preemptions.
                    self.next_preempt_at =
                        self.next_preempt_at.saturating_add(p.interval).saturating_add(p.pause);
                }
            }
        }
        extra
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_injects_nothing() {
        let mut st = FaultThreadState::new(FaultPlan::none(), 0);
        for now in (0..10_000).step_by(17) {
            assert_eq!(st.extra_cycles(now, 17), 0);
        }
        assert_eq!(st.stats(), FaultStats::default());
    }

    #[test]
    fn preempt_fires_at_cadence() {
        let plan = FaultPlan::none().with_preempt(100, 1000).with_seed(7);
        let mut st = FaultThreadState::new(plan, 0);
        let mut now = 0u64;
        for _ in 0..1000 {
            let extra = st.extra_cycles(now, 10);
            now += 10 + extra;
        }
        let s = st.stats();
        assert!(s.preemptions > 0, "expected at least one preemption");
        assert_eq!(s.pause_cycles, s.preemptions * 1000);
        assert_eq!(s.jitter_cycles, 0);
    }

    #[test]
    fn huge_advance_crosses_multiple_thresholds() {
        let plan = FaultPlan::none().with_preempt(100, 5).with_seed(1);
        let mut st = FaultThreadState::new(plan, 0);
        st.extra_cycles(0, 1_000);
        assert!(st.stats().preemptions >= 8, "got {:?}", st.stats());
    }

    #[test]
    fn jitter_is_bounded_by_permille() {
        let plan = FaultPlan::none().with_jitter(250).with_seed(3);
        let mut st = FaultThreadState::new(plan, 2);
        for _ in 0..1000 {
            let extra = st.extra_cycles(0, 1000);
            assert!(extra <= 250, "jitter {extra} exceeds 25% of cost");
        }
        assert!(st.stats().jitter_cycles > 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::none().with_preempt(64, 300).with_jitter(100).with_seed(42);
        let mut a = FaultThreadState::new(plan, 3);
        let mut b = FaultThreadState::new(plan, 3);
        let mut now = 0u64;
        for _ in 0..500 {
            let ea = a.extra_cycles(now, 13);
            let eb = b.extra_cycles(now, 13);
            assert_eq!(ea, eb);
            now += 13 + ea;
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_threads_stagger() {
        let plan = FaultPlan::none().with_preempt(1000, 50).with_seed(9);
        let a = FaultThreadState::new(plan, 0);
        let b = FaultThreadState::new(plan, 1);
        assert_ne!(a.next_preempt_at, b.next_preempt_at);
    }

    #[test]
    fn activity_detection() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::none().with_preempt(0, 100).is_active());
        assert!(!FaultPlan::none().with_preempt(100, 0).is_active());
        assert!(FaultPlan::none().with_preempt(100, 100).is_active());
        assert!(FaultPlan::none().with_jitter(1).is_active());
    }
}
