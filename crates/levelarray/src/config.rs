//! Configuration for the [`crate::LevelArray`].
//!
//! The defaults reproduce the configuration benchmarked in the paper (§6):
//! a main array of `2n` slots, first batch `3n/2`, **one** probe per batch, a
//! backup array of `n` slots, and compare-and-swap as the test-and-set
//! primitive.  Every knob the ablations vary (the README's "Configuration
//! knobs" table) is exposed here.

use std::fmt;

use crate::balance::BalanceReport;
use crate::geometry::BatchGeometry;
use crate::occupancy::OccupancySnapshot;
use crate::slot::{SlotLayout, TasKind};

/// How many random probes a `Get` performs in each batch before moving on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProbePolicy {
    /// The same number of probes in every batch.  The paper's implementation
    /// uses `Uniform(1)`; its analysis assumes a larger constant (≥ 16) purely
    /// to obtain high-probability concentration bounds.
    Uniform(u32),
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy::Uniform(1)
    }
}

impl ProbePolicy {
    /// The number of probes to perform in batch `batch` (the same in every
    /// batch).
    pub fn probes_in_batch(&self, _batch: usize) -> u32 {
        match self {
            ProbePolicy::Uniform(c) => *c,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ProbePolicy::Uniform(0) => Err(ConfigError::ZeroProbes),
            ProbePolicy::Uniform(_) => Ok(()),
        }
    }
}

/// How an elastic array reacts when its newest epoch saturates (every random
/// probe lost *and* the sequential backup region is full).
///
/// The policy is the knob behind [`crate::ElasticLevelArray`]: `Fixed`
/// reproduces the paper's fixed-contention-bound model, `Doubling` opens a
/// fresh epoch of twice the previous contention bound, migrating new
/// registrations to it while the old epochs drain and are eventually retired.
///
/// # Examples
///
/// ```
/// use levelarray::{ActivityArray, GrowthPolicy, LevelArrayConfig};
/// use larng::default_rng;
///
/// // Start tiny (n = 4) but allow the array to double through 3 epochs.
/// let array = LevelArrayConfig::new(4)
///     .growth(GrowthPolicy::Doubling { max_epochs: 3 })
///     .build_elastic()
///     .unwrap();
/// let mut rng = default_rng(1);
///
/// // Register far beyond the initial sizing: Get never fails, it opens new
/// // epochs (4 -> 8 -> 16) as each generation saturates.
/// let names: Vec<_> = (0..40).map(|_| array.get(&mut rng).name()).collect();
/// assert!(array.num_epochs() >= 2, "the array must have grown");
/// assert!(names.iter().any(|n| n.epoch() > 0), "later names carry the epoch tag");
///
/// // Draining an old epoch lets the chain shrink back.
/// for name in names {
///     array.free(name);
/// }
/// array.try_retire();
/// assert_eq!(array.num_epochs(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum GrowthPolicy {
    /// Never grow: the initial epoch is the whole structure.  An elastic
    /// array under this policy behaves like a plain [`crate::LevelArray`]
    /// whose names happen to carry an (always-zero) epoch tag.
    #[default]
    Fixed,
    /// Open a new epoch of doubled contention bound whenever the newest
    /// epoch saturates, keeping at most `max_epochs` epochs alive at once.
    /// When the chain is at its bound, `Get` falls back to probing the older
    /// epochs instead of growing.
    Doubling {
        /// Upper bound on simultaneously live epochs (must be at least 1).
        max_epochs: usize,
    },
}

impl GrowthPolicy {
    /// The maximum number of simultaneously live epochs this policy allows.
    pub fn max_live_epochs(&self) -> usize {
        match self {
            GrowthPolicy::Fixed => 1,
            GrowthPolicy::Doubling { max_epochs } => *max_epochs,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            GrowthPolicy::Doubling { max_epochs: 0 } => Err(ConfigError::ZeroEpochs),
            _ => Ok(()),
        }
    }
}

/// Builder-style configuration for a [`crate::LevelArray`].
///
/// # Examples
///
/// ```
/// use levelarray::{ActivityArray, LevelArrayConfig};
///
/// // The paper's benchmark configuration for 32 threads.
/// let array = LevelArrayConfig::new(32).build().unwrap();
/// assert_eq!(array.capacity(), 32 * 2 + 32); // main (2n) + backup (n)
///
/// // An ablation: 4x space, two probes per batch, no backup.
/// let wide = LevelArrayConfig::new(32)
///     .space_factor(4.0)
///     .probes_per_batch(2)
///     .backup(false)
///     .build()
///     .unwrap();
/// assert_eq!(wide.capacity(), 32 * 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LevelArrayConfig {
    max_concurrency: usize,
    space_factor: f64,
    probe_policy: ProbePolicy,
    backup: bool,
    tas_kind: TasKind,
    slot_layout: SlotLayout,
    growth: GrowthPolicy,
    auto_retire: bool,
    pin_stripes: usize,
    free_hint: bool,
    shard_group: usize,
    shrink_watermark: Option<f64>,
    stuck_pin_threshold_ms: u64,
}

/// Default stuck-pin watchdog threshold (see
/// [`LevelArrayConfig::stuck_pin_threshold_ms`]): a pin stuck for a full
/// second is pathological on any schedule a healthy client runs — normal
/// pins live for one `Get`/`Free`/`Collect`, i.e. microseconds.
pub const DEFAULT_STUCK_PIN_THRESHOLD_MS: u64 = 1000;

/// The committed default shard-group size for
/// [`LevelArrayConfig::hierarchical`]: the per-group contention bound at
/// which an elastic epoch splits into one more cache-padded shard.  Picked
/// from the `bench-topology` shard-scaling sweep (see
/// `bench/baselines/smoke.json`, the `sweeps/topology/group=*` cells):
/// groups of 64 keep each shard's hot batch-0 lines private to a handful of
/// threads while leaving the per-shard arrays large enough that the paper's
/// O(1) expected probing is undisturbed.
pub const DEFAULT_SHARD_GROUP: usize = 64;

/// The committed default shrink watermark for
/// [`LevelArrayConfig::hierarchical`]: the long-term fill fraction of the
/// newest epoch below which the chain opens a *smaller* epoch and retires
/// the large one.  1/4 sits well under the self-healing balance thresholds
/// (paper §5), so a shrink never fires on an epoch the workload still
/// meaningfully uses, and a freshly halved epoch (fill ≈ 2× the old one's)
/// does not immediately re-trigger.
pub const DEFAULT_SHRINK_WATERMARK: f64 = 0.25;

impl LevelArrayConfig {
    /// Starts a configuration for at most `max_concurrency` simultaneously
    /// registered processes (the paper's `n`).
    pub fn new(max_concurrency: usize) -> Self {
        LevelArrayConfig {
            max_concurrency,
            space_factor: 2.0,
            probe_policy: ProbePolicy::default(),
            backup: true,
            tas_kind: TasKind::default(),
            slot_layout: SlotLayout::default(),
            growth: GrowthPolicy::default(),
            auto_retire: true,
            pin_stripes: crate::epoch_chain::DEFAULT_PIN_STRIPES,
            free_hint: false,
            shard_group: 0,
            shrink_watermark: None,
            stuck_pin_threshold_ms: DEFAULT_STUCK_PIN_THRESHOLD_MS,
        }
    }

    /// Replaces the contention bound, keeping every other knob.  This is how
    /// [`crate::ShardedLevelArray`] derives its per-shard configuration from
    /// one shared workload configuration.
    pub fn with_contention(mut self, max_concurrency: usize) -> Self {
        self.max_concurrency = max_concurrency;
        self
    }

    /// Sets the ratio between the main-array length and `n` (the paper's
    /// evaluation uses values in `[2, 4]`; the algorithm requires `> 1`).
    pub fn space_factor(mut self, factor: f64) -> Self {
        self.space_factor = factor;
        self
    }

    /// Sets a uniform number of probes per batch (paper implementation: 1).
    pub fn probes_per_batch(mut self, probes: u32) -> Self {
        self.probe_policy = ProbePolicy::Uniform(probes);
        self
    }

    /// Sets the probe policy (paper implementation: `Uniform(1)`; paper
    /// analysis: `Uniform(c)` with `c ≥ 16`).
    pub fn probe_policy(mut self, policy: ProbePolicy) -> Self {
        self.probe_policy = policy;
        self
    }

    /// Enables or disables the sequential backup array (paper: enabled, size
    /// exactly `n`).  Disabling it makes `try_get` return `None` when all
    /// random probes fail, which is useful for studying the main array alone.
    pub fn backup(mut self, enabled: bool) -> Self {
        self.backup = enabled;
        self
    }

    /// Selects the test-and-set primitive (ablation knob).
    pub fn tas_kind(mut self, kind: TasKind) -> Self {
        self.tas_kind = kind;
        self
    }

    /// Selects the slot representation (default:
    /// [`SlotLayout::WordPerSlot`]).  [`SlotLayout::Packed`] stores 64 slots
    /// per atomic word so `Collect` and the occupancy censuses scan 32× less
    /// memory, at the price of denser false sharing between concurrent
    /// `Get`s; both layouts behave identically (see [`SlotLayout`]).  Every
    /// build honors it — flat, sharded and elastic all thread it through the
    /// shared probing core.
    pub fn slot_layout(mut self, layout: SlotLayout) -> Self {
        self.slot_layout = layout;
        self
    }

    /// The slot representation this configuration carries.
    pub fn slot_layout_value(&self) -> SlotLayout {
        self.slot_layout
    }

    /// Enables or disables the Free→Get hint cache (default: disabled).
    ///
    /// With the hint enabled, every `free` records the released slot in a
    /// per-thread (per-epoch, for an elastic array) hint and the next
    /// same-thread `try_get` retries exactly that slot with one test-and-set
    /// *before* the probe sequence — making the common Free→Get pair a
    /// single cache-hot CAS.  A miss (the slot was stolen in between, or the
    /// hint belongs to a retired epoch) falls through to the unchanged probe
    /// path, so uniqueness and wait-freedom are untouched; the hint attempt
    /// is not counted as a probe because it sits outside the paper's probe
    /// sequence.
    ///
    /// The knob defaults to off because re-acquiring the just-freed slot
    /// keeps the occupancy distribution exactly where it was, which is the
    /// opposite of what the self-healing experiments (paper §5.2, the
    /// `healing` bench) are measuring — enable it for churn-heavy production
    /// workloads, leave it off when reproducing the paper's figures.
    #[must_use = "builder methods return the updated configuration"]
    pub fn free_hint(mut self, enabled: bool) -> Self {
        self.free_hint = enabled;
        self
    }

    /// Whether the Free→Get hint cache is enabled.
    pub fn free_hint_enabled(&self) -> bool {
        self.free_hint
    }

    /// Sets the shard-group size of an elastic build's epoch cells
    /// (default: 0 = flat epochs).  With a non-zero group size `g`, an epoch
    /// sized for contention bound `C` is materialized as
    /// `⌈C / g⌉` cache-padded shard cores instead of one flat core — so a
    /// [`GrowthPolicy::Doubling`] chain grows by *adding shard groups*
    /// (each doubling doubles the group count) rather than doubling one
    /// contended slab.  Threads keep sticky home shards within every epoch
    /// (a thread's home token modulo the epoch's shard count, as in
    /// [`crate::ShardedLevelArray::home_shard`]); epoch-tagged
    /// names route through the shard split unambiguously (the index part is
    /// `shard · shard_capacity + local`).  Only
    /// [`LevelArrayConfig::build_elastic`] consults it.
    #[must_use = "builder methods return the updated configuration"]
    pub fn shard_group(mut self, group_size: usize) -> Self {
        self.shard_group = group_size;
        self
    }

    /// The shard-group size an elastic build uses (0 = flat epochs).
    pub fn shard_group_value(&self) -> usize {
        self.shard_group
    }

    /// Enables elastic shrink: when the newest epoch's occupancy stays at or
    /// below `watermark` (a fill fraction of its contention bound) for a
    /// sustained stretch of `free` traffic, the chain opens a *smaller*
    /// epoch (half the bound, never below the initial one) and retires the
    /// large epoch through the same seal→grace→census→unlink protocol that
    /// retires drained predecessors after growth — run in reverse: the big
    /// cell drains while the small successor serves.  Once a grow undoes a
    /// shrink, the next stretch is 2¹⁰ times as long, so a recurring burst
    /// keeps its epoch; a load whose low phases outlast even that still
    /// shrinks and regrows once per burst (see the `elastic` module's
    /// *Elastic shrink* section).
    /// Disabled by default; only meaningful under
    /// [`GrowthPolicy::Doubling`].  Only [`LevelArrayConfig::build_elastic`]
    /// consults it.
    #[must_use = "builder methods return the updated configuration"]
    pub fn shrink_watermark(mut self, watermark: f64) -> Self {
        self.shrink_watermark = Some(watermark);
        self
    }

    /// The shrink watermark, if elastic shrink is enabled.
    pub fn shrink_watermark_value(&self) -> Option<f64> {
        self.shrink_watermark
    }

    /// Sets the stuck-pin watchdog threshold (default
    /// [`DEFAULT_STUCK_PIN_THRESHOLD_MS`]): when an elastic array's
    /// retirement grace observation fails *and* the oldest active chain pin
    /// is at least this old, the array stops hammering retirement and
    /// defers it (and shrink) under a capped exponential backoff instead of
    /// livelocking against a wedged reader.  See
    /// [`crate::ElasticLevelArray::robustness_report`].
    #[must_use = "builder methods return the updated configuration"]
    pub fn stuck_pin_threshold_ms(mut self, threshold_ms: u64) -> Self {
        self.stuck_pin_threshold_ms = threshold_ms;
        self
    }

    /// The stuck-pin watchdog threshold in milliseconds.
    pub fn stuck_pin_threshold_ms_value(&self) -> u64 {
        self.stuck_pin_threshold_ms
    }

    /// The hierarchical preset: elastic epochs sharded into groups of
    /// [`DEFAULT_SHARD_GROUP`] and shrink at [`DEFAULT_SHRINK_WATERMARK`] —
    /// the defaults the `bench-topology` sweeps committed.  Combine with
    /// [`LevelArrayConfig::growth`] and build with
    /// [`LevelArrayConfig::build_elastic`].
    #[must_use = "builder methods return the updated configuration"]
    pub fn hierarchical(self) -> Self {
        self.shard_group(DEFAULT_SHARD_GROUP)
            .shrink_watermark(DEFAULT_SHRINK_WATERMARK)
    }

    /// Selects the growth policy an elastic build uses when its newest epoch
    /// saturates (default: [`GrowthPolicy::Fixed`]).  Only
    /// [`LevelArrayConfig::build_elastic`] consults it; the fixed-size builds
    /// ignore it.
    pub fn growth(mut self, policy: GrowthPolicy) -> Self {
        self.growth = policy;
        self
    }

    /// The growth policy this configuration carries.
    pub fn growth_policy(&self) -> GrowthPolicy {
        self.growth
    }

    /// Enables or disables the deferred retirement check a draining `Free`
    /// schedules on an elastic array (default: enabled).  With it disabled,
    /// drained epochs are only retired by explicit
    /// [`crate::ElasticLevelArray::try_retire`] calls — useful when the
    /// caller wants to batch retirement onto a maintenance thread.  Only
    /// [`LevelArrayConfig::build_elastic`] consults it.
    pub fn auto_retire(mut self, enabled: bool) -> Self {
        self.auto_retire = enabled;
        self
    }

    /// Whether a draining `Free` on an elastic array schedules the deferred
    /// retirement check.
    pub fn auto_retire_enabled(&self) -> bool {
        self.auto_retire
    }

    /// Sets the number of cache-padded grace-counter stripes the elastic
    /// epoch chain uses to track in-flight operations (default:
    /// [`crate::epoch_chain::DEFAULT_PIN_STRIPES`]).  More stripes mean less
    /// pin/unpin contention between reader threads but a longer all-zero
    /// observation during retirement and reclamation.  Only
    /// [`LevelArrayConfig::build_elastic`] consults it.
    pub fn pin_stripes(mut self, stripes: usize) -> Self {
        self.pin_stripes = stripes;
        self
    }

    /// The grace-counter stripe count an elastic build uses.
    pub fn pin_stripes_value(&self) -> usize {
        self.pin_stripes
    }

    /// The contention bound `n` this configuration targets.
    pub fn max_concurrency_value(&self) -> usize {
        self.max_concurrency
    }

    /// The main-array length this configuration produces:
    /// `⌊n · space_factor⌋`, clamped to at least one slot.
    ///
    /// This is the workspace's *single* sizing rule: the LevelArray's own
    /// geometry, the flat baselines, and the bench harness all size their
    /// arrays through it, so "`L` slots for contention bound `n`" always means
    /// the same number everywhere.
    pub fn main_len(&self) -> usize {
        (((self.max_concurrency as f64) * self.space_factor).floor() as usize).max(1)
    }

    /// Evaluates the paper's balance definitions (§5, Definition 2) against a
    /// snapshot taken from an array built with this configuration, using this
    /// configuration's contention bound.
    pub fn balance_report(&self, snapshot: &OccupancySnapshot) -> BalanceReport {
        BalanceReport::from_snapshot(snapshot, self.max_concurrency)
    }

    /// Validates the configuration and materializes the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n == 0`, the space factor is not a finite
    /// value `≥ 1`, the probe policy asks for zero probes, or an elastic knob
    /// (growth policy, pin stripes, shrink watermark) is out of range.
    pub fn validate(&self) -> Result<ValidatedConfig, ConfigError> {
        if self.max_concurrency == 0 {
            return Err(ConfigError::ZeroConcurrency);
        }
        if !self.space_factor.is_finite() || self.space_factor < 1.0 {
            return Err(ConfigError::InvalidSpaceFactor(self.space_factor));
        }
        self.probe_policy.validate()?;
        self.growth.validate()?;
        if self.pin_stripes == 0 {
            return Err(ConfigError::ZeroPinStripes);
        }
        if let Some(w) = self.shrink_watermark {
            if !w.is_finite() || w <= 0.0 || w >= 1.0 {
                return Err(ConfigError::InvalidShrinkWatermark(w));
            }
        }

        // The paper's batch layout: batch 0 takes 3/4 of the main array.
        let geometry = BatchGeometry::new(self.main_len(), BatchGeometry::DEFAULT_FIRST_FRACTION)
            .expect("a main array of at least one slot splits at the default fraction");
        let backup_len = if self.backup { self.max_concurrency } else { 0 };

        Ok(ValidatedConfig {
            max_concurrency: self.max_concurrency,
            geometry,
            backup_len,
            probe_policy: self.probe_policy.clone(),
            tas_kind: self.tas_kind,
            slot_layout: self.slot_layout,
            free_hint: self.free_hint,
        })
    }

    /// Validates the configuration and builds the [`crate::LevelArray`].
    ///
    /// # Errors
    ///
    /// See [`LevelArrayConfig::validate`].
    pub fn build(&self) -> Result<crate::LevelArray, ConfigError> {
        Ok(crate::LevelArray::from_validated(self.validate()?))
    }

    /// Validates the configuration and builds a [`crate::ShardedLevelArray`]
    /// that partitions this contention bound across `shards` shards.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroShards`] if `shards == 0`; otherwise see
    /// [`LevelArrayConfig::validate`] (applied to the per-shard
    /// configuration).
    pub fn build_sharded(&self, shards: usize) -> Result<crate::ShardedLevelArray, ConfigError> {
        crate::ShardedLevelArray::from_config(self, shards)
    }

    /// Validates the configuration and builds a [`crate::ElasticLevelArray`]
    /// whose initial epoch has this contention bound and whose growth follows
    /// [`LevelArrayConfig::growth_policy`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroEpochs`] if the growth policy allows zero
    /// live epochs; otherwise see [`LevelArrayConfig::validate`].
    pub fn build_elastic(&self) -> Result<crate::ElasticLevelArray, ConfigError> {
        crate::ElasticLevelArray::from_config(self)
    }
}

/// A fully validated configuration, ready to materialize a `LevelArray`.
#[derive(Debug, Clone)]
pub struct ValidatedConfig {
    pub(crate) max_concurrency: usize,
    pub(crate) geometry: BatchGeometry,
    pub(crate) backup_len: usize,
    pub(crate) probe_policy: ProbePolicy,
    pub(crate) tas_kind: TasKind,
    pub(crate) slot_layout: SlotLayout,
    pub(crate) free_hint: bool,
}

impl ValidatedConfig {
    /// Materializes the probing core this configuration describes (the slots,
    /// geometry, probe policy and TAS primitive — everything except the
    /// contention bound, which belongs to the facade).
    pub fn into_probe_core(self) -> crate::probe_core::ProbeCore {
        crate::probe_core::ProbeCore::new(
            self.geometry,
            self.backup_len,
            self.probe_policy,
            self.tas_kind,
            self.slot_layout,
        )
    }
}

/// Errors produced while validating a [`LevelArrayConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `max_concurrency` was zero.
    ZeroConcurrency,
    /// The space factor was below 1 or not finite.
    InvalidSpaceFactor(f64),
    /// A probe policy requested zero probes per batch.
    ZeroProbes,
    /// A sharded build was requested with zero shards.
    ZeroShards,
    /// An elastic growth policy allowed zero live epochs.
    ZeroEpochs,
    /// The elastic grace counter was configured with zero pin stripes.
    ZeroPinStripes,
    /// A shrink watermark was outside the open interval `(0, 1)`.
    InvalidShrinkWatermark(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroConcurrency => write!(f, "max concurrency must be at least 1"),
            ConfigError::InvalidSpaceFactor(x) => {
                write!(f, "space factor must be a finite value >= 1, got {x}")
            }
            ConfigError::ZeroProbes => write!(f, "probe counts must be at least 1"),
            ConfigError::ZeroShards => write!(f, "a sharded array needs at least one shard"),
            ConfigError::ZeroEpochs => {
                write!(f, "an elastic growth policy needs at least one live epoch")
            }
            ConfigError::ZeroPinStripes => {
                write!(f, "the elastic grace counter needs at least one pin stripe")
            }
            ConfigError::InvalidShrinkWatermark(w) => {
                write!(
                    f,
                    "a shrink watermark must be a fill fraction strictly between 0 and 1, got {w}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ActivityArray;

    #[test]
    fn default_configuration_matches_paper() {
        let v = LevelArrayConfig::new(64).validate().unwrap();
        assert_eq!(v.max_concurrency, 64);
        assert_eq!(v.geometry.main_len(), 128);
        assert_eq!(v.geometry.batch_len(0), 96);
        assert_eq!(v.backup_len, 64);
        assert_eq!(v.probe_policy.probes_in_batch(0), 1);
        assert_eq!(v.tas_kind, TasKind::CompareExchange);
        assert_eq!(v.slot_layout, SlotLayout::WordPerSlot);
    }

    #[test]
    fn slot_layout_knob_round_trips_into_every_build() {
        let config = LevelArrayConfig::new(8).slot_layout(SlotLayout::Packed);
        assert_eq!(config.slot_layout_value(), SlotLayout::Packed);
        assert_eq!(config.validate().unwrap().slot_layout, SlotLayout::Packed);
        let flat = config.build().unwrap();
        assert_eq!(flat.slot_layout(), SlotLayout::Packed);
        let sharded = config.build_sharded(2).unwrap();
        assert_eq!(sharded.slot_layout(), SlotLayout::Packed);
        let elastic = config.build_elastic().unwrap();
        assert_eq!(elastic.slot_layout(), SlotLayout::Packed);
        // The default stays word-per-slot.
        assert_eq!(
            LevelArrayConfig::new(8).slot_layout_value(),
            SlotLayout::WordPerSlot
        );
    }

    #[test]
    fn space_factor_scales_main_array() {
        for factor in [2.0, 2.5, 3.0, 4.0] {
            let v = LevelArrayConfig::new(100)
                .space_factor(factor)
                .validate()
                .unwrap();
            assert_eq!(v.geometry.main_len(), (100.0 * factor) as usize);
        }
    }

    #[test]
    fn disabling_backup_removes_it() {
        let v = LevelArrayConfig::new(10).backup(false).validate().unwrap();
        assert_eq!(v.backup_len, 0);
    }

    #[test]
    fn probe_policies() {
        assert_eq!(ProbePolicy::Uniform(3).probes_in_batch(7), 3);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert_eq!(
            LevelArrayConfig::new(0).validate().unwrap_err(),
            ConfigError::ZeroConcurrency
        );
        assert!(matches!(
            LevelArrayConfig::new(4)
                .space_factor(0.5)
                .validate()
                .unwrap_err(),
            ConfigError::InvalidSpaceFactor(_)
        ));
        assert!(matches!(
            LevelArrayConfig::new(4)
                .space_factor(f64::INFINITY)
                .validate()
                .unwrap_err(),
            ConfigError::InvalidSpaceFactor(_)
        ));
        assert_eq!(
            LevelArrayConfig::new(4)
                .probes_per_batch(0)
                .validate()
                .unwrap_err(),
            ConfigError::ZeroProbes
        );
        assert!(matches!(
            LevelArrayConfig::new(4)
                .shrink_watermark(1.5)
                .validate()
                .unwrap_err(),
            ConfigError::InvalidShrinkWatermark(_)
        ));
    }

    #[test]
    fn free_hint_knob_round_trips() {
        let config = LevelArrayConfig::new(8);
        assert!(!config.free_hint_enabled(), "hint cache defaults off");
        assert!(!config.validate().unwrap().free_hint);
        let hinted = config.free_hint(true);
        assert!(hinted.free_hint_enabled());
        assert!(hinted.validate().unwrap().free_hint);
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        assert!(ConfigError::ZeroConcurrency.source().is_none());
        assert!(ConfigError::InvalidSpaceFactor(0.1)
            .to_string()
            .contains("0.1"));
    }

    #[test]
    fn config_is_reusable_after_build() {
        let config = LevelArrayConfig::new(8);
        let a = config.build().unwrap();
        let b = config.build().unwrap();
        assert_eq!(a.capacity(), b.capacity());
    }

    #[test]
    fn growth_policy_defaults_and_bounds() {
        assert_eq!(GrowthPolicy::default(), GrowthPolicy::Fixed);
        assert_eq!(GrowthPolicy::Fixed.max_live_epochs(), 1);
        assert_eq!(
            GrowthPolicy::Doubling { max_epochs: 5 }.max_live_epochs(),
            5
        );
        assert_eq!(
            LevelArrayConfig::new(8).growth_policy(),
            GrowthPolicy::Fixed
        );
        let grown = LevelArrayConfig::new(8).growth(GrowthPolicy::Doubling { max_epochs: 3 });
        assert_eq!(
            grown.growth_policy(),
            GrowthPolicy::Doubling { max_epochs: 3 }
        );
    }

    #[test]
    fn retirement_knobs_default_and_validate() {
        let config = LevelArrayConfig::new(8);
        assert!(config.auto_retire_enabled());
        assert_eq!(
            config.pin_stripes_value(),
            crate::epoch_chain::DEFAULT_PIN_STRIPES
        );
        let tuned = LevelArrayConfig::new(8).auto_retire(false).pin_stripes(4);
        assert!(!tuned.auto_retire_enabled());
        assert_eq!(tuned.pin_stripes_value(), 4);
        assert!(tuned.validate().is_ok());
        assert_eq!(
            LevelArrayConfig::new(8)
                .pin_stripes(0)
                .validate()
                .unwrap_err(),
            ConfigError::ZeroPinStripes
        );
        assert!(ConfigError::ZeroPinStripes.to_string().contains("stripe"));
    }

    #[test]
    fn zero_epoch_growth_is_rejected() {
        assert_eq!(
            LevelArrayConfig::new(8)
                .growth(GrowthPolicy::Doubling { max_epochs: 0 })
                .validate()
                .unwrap_err(),
            ConfigError::ZeroEpochs
        );
        assert!(ConfigError::ZeroEpochs.to_string().contains("epoch"));
    }
}
