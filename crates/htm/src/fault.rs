//! Deterministic fault injection for the simulated HTM.
//!
//! [`HtmFaults`] extends the baseline spurious-abort model of
//! [`HtmConfig`](crate::HtmConfig) with the *bursty, adversarial* failure
//! modes that break naive elision in practice:
//!
//! * **Abort storms** ([`AbortStorm`]): time-windowed bursts during which
//!   transactional accesses spuriously abort at a high rate — modelling
//!   interrupt storms, SMM excursions or cache-pressure episodes that make
//!   real TSX abort in waves rather than uniformly.
//! * **Capacity squeezes** ([`CapacitySqueeze`]): windows during which the
//!   effective read/write-set line budgets shrink, modelling competing
//!   cache occupancy from other workloads on the core.
//! * **Hot lines** ([`HotLine`]): a designated cache line that behaves as a
//!   persistent conflict source — transactional accesses to it abort with
//!   a configured probability, modelling a line bouncing between cores.
//!
//! Windows are evaluated against the *accessing thread's own* logical
//! clock (`now % period < duration`), and all probabilistic draws come from
//! the strand's deterministic HTM RNG stream and are only taken while the
//! corresponding fault is configured **and** its window is active. Baseline
//! runs (no faults) therefore draw the exact same RNG sequence as before
//! this module existed, and a faulted run is exactly reproducible from
//! its seeds.

/// A time-windowed burst of spurious aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortStorm {
    /// Cycle period of the storm pattern on each thread's clock.
    pub period: u64,
    /// Cycles at the start of each period during which the storm rages.
    pub duration: u64,
    /// Probability, in permille, that a transactional access inside the
    /// window aborts spuriously.
    pub permille: u32,
}

/// A time-windowed shrink of the transactional capacity budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySqueeze {
    /// Cycle period of the squeeze pattern on each thread's clock.
    pub period: u64,
    /// Cycles at the start of each period during which budgets shrink.
    pub duration: u64,
    /// Read-set budget (lines) while squeezed; the effective budget is the
    /// minimum of this and the configured budget.
    pub read_lines: usize,
    /// Write-set budget (lines) while squeezed.
    pub write_lines: usize,
}

/// A cache line behaving as a persistent conflict source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotLine {
    /// The line index (see `Memory::line_of`) that is hot.
    pub line: u32,
    /// Probability, in permille, that registering the hot line in a
    /// transaction's read or write set aborts with a conflict on it.
    pub permille: u32,
}

/// The complete HTM-level fault-injection configuration.
///
/// The default injects nothing and adds no RNG draws to any code path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HtmFaults {
    /// Bursty spurious-abort storms, if enabled.
    pub storm: Option<AbortStorm>,
    /// Temporary capacity squeezes, if enabled.
    pub squeeze: Option<CapacitySqueeze>,
    /// Persistent-conflict hot line, if enabled.
    pub hot: Option<HotLine>,
}

/// Whether a `(period, duration)` window is open at thread-clock `now`.
fn window_active(period: u64, duration: u64, now: u64) -> bool {
    period > 0 && duration > 0 && now % period < duration
}

impl AbortStorm {
    /// Whether the storm window is open at thread-clock `now`.
    pub fn active(&self, now: u64) -> bool {
        window_active(self.period, self.duration, now) && self.permille > 0
    }
}

impl CapacitySqueeze {
    /// Whether the squeeze window is open at thread-clock `now`.
    pub fn active(&self, now: u64) -> bool {
        window_active(self.period, self.duration, now)
    }
}

impl HtmFaults {
    /// A configuration injecting nothing.
    pub fn none() -> Self {
        HtmFaults::default()
    }

    /// Enable storms: for `duration` cycles out of every `period`,
    /// transactional accesses abort spuriously with probability
    /// `permille`/1000.
    pub fn with_storm(mut self, period: u64, duration: u64, permille: u32) -> Self {
        self.storm = Some(AbortStorm { period, duration, permille });
        self
    }

    /// Enable squeezes: for `duration` cycles out of every `period`, the
    /// read/write-set budgets shrink to at most `read_lines`/`write_lines`.
    pub fn with_squeeze(
        mut self,
        period: u64,
        duration: u64,
        read_lines: usize,
        write_lines: usize,
    ) -> Self {
        self.squeeze = Some(CapacitySqueeze { period, duration, read_lines, write_lines });
        self
    }

    /// Enable a hot line: transactional registration of `line` aborts with
    /// a conflict with probability `permille`/1000.
    pub fn with_hot_line(mut self, line: u32, permille: u32) -> Self {
        self.hot = Some(HotLine { line, permille });
        self
    }

    /// Whether any fault source is enabled.
    pub fn is_active(&self) -> bool {
        self.storm.is_some() || self.squeeze.is_some() || self.hot.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_follow_thread_clock() {
        let f = HtmFaults::none().with_storm(1000, 100, 500);
        let storm = f.storm.unwrap();
        assert!(storm.active(0));
        assert!(storm.active(99));
        assert!(!storm.active(100));
        assert!(!storm.active(999));
        assert!(storm.active(1000));
        assert!(storm.active(2050));
    }

    #[test]
    fn degenerate_windows_never_fire() {
        assert!(!AbortStorm { period: 0, duration: 10, permille: 500 }.active(0));
        assert!(!AbortStorm { period: 100, duration: 0, permille: 500 }.active(0));
        assert!(!AbortStorm { period: 100, duration: 10, permille: 0 }.active(5));
        assert!(
            !CapacitySqueeze { period: 0, duration: 1, read_lines: 1, write_lines: 1 }.active(0)
        );
    }

    #[test]
    fn activity_detection() {
        assert!(!HtmFaults::none().is_active());
        assert!(HtmFaults::none().with_storm(100, 10, 100).is_active());
        assert!(HtmFaults::none().with_squeeze(100, 10, 4, 2).is_active());
        assert!(HtmFaults::none().with_hot_line(3, 200).is_active());
    }
}
