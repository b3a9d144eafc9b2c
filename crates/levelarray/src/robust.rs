//! Robustness telemetry: the counters of the stuck-pin watchdog.
//!
//! [`crate::ElasticLevelArray::robustness_report`] reports the age of the
//! oldest active chain pin and how many retirement/shrink passes were
//! deferred while the capped backoff was armed (see `docs/ROBUSTNESS.md`
//! for the policy).

/// A point-in-time snapshot of the stuck-pin watchdog's counters.
///
/// The deferral counters are cumulative since construction;
/// [`RobustnessReport::oldest_pin_age_ms`] describes the current state.
/// Reports are cheap to take (a handful of relaxed loads plus one stripe
/// scan) and safe to take concurrently with live traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Age of the oldest currently-active chain pin in milliseconds, or
    /// `None` when no pins are active.  Advisory and stripe-granular; see
    /// `EpochChain::oldest_pin_age_ms`.
    pub oldest_pin_age_ms: Option<u64>,
    /// Shrink attempts skipped because the stuck-pin watchdog's backoff was
    /// armed.
    pub deferred_shrinks: u64,
    /// Retirement passes skipped because the stuck-pin watchdog's backoff
    /// was armed.
    pub deferred_retirements: u64,
}

impl RobustnessReport {
    /// Whether the watchdog has deferred any maintenance at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.deferred_shrinks == 0 && self.deferred_retirements == 0
    }
}
