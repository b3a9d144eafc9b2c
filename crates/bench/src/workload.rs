//! The multi-threaded register/deregister workload of the paper's §6.
//!
//! Parameters mirror the paper's methodology:
//!
//! * `threads` (the paper's `n`) — OS threads spawned.
//! * `emulated_per_thread` (the paper's `N/n`) — how many slots each thread
//!   holds at once, emulating `N = threads * emulated_per_thread` logical
//!   participants.
//! * `space_factor` (the paper's `L/N`) — slots per logical participant,
//!   swept over `[2, 4]` in the paper.
//! * `prefill` — fraction of each thread's quota registered up front and held
//!   for the whole run, so the measured traffic executes on a loaded array.
//! * `target_ops_per_thread` — how many Get+Free operations each thread
//!   performs in its main loop (the paper runs for a fixed wall-clock time;
//!   a fixed operation count keeps runs reproducible and CI-friendly, and the
//!   runner reports elapsed time so throughput is still meaningful).

use std::sync::Arc;
use std::time::{Duration, Instant};

use la_baselines::{LinearProbingArray, LinearScanArray, RandomArray};
use larng::{default_rng, SeedSequence};
use levelarray::{
    ActivityArray, GetStats, GrowthPolicy, LevelArrayConfig, ShardedLevelArray, SlotLayout, TasKind,
};

/// Which algorithm a workload run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's contribution with its default configuration.
    LevelArray,
    /// LevelArray with `c_i` probes per batch (ablation).
    LevelArrayProbes(u32),
    /// LevelArray using `swap` instead of `compare_exchange` (ablation).
    LevelArraySwapTas,
    /// LevelArray storing its slots bit-packed, 64 per atomic word
    /// (ablation): `Collect` scans 32× less memory, concurrent `Get`s share
    /// denser cache lines — the layout sweep measures both sides.
    LevelArrayPacked,
    /// LevelArray with the Free→Get hint cache enabled (ablation): `free`
    /// arms a per-thread hint and the next same-thread `Get` retries that
    /// slot with one cache-hot CAS before probing.
    LevelArrayHinted,
    /// The contention bound split across cache-padded shards with work
    /// stealing on local exhaustion (the ROADMAP's sharded-arrays item).
    ShardedLevelArray {
        /// Number of shards the namespace is partitioned into.
        shards: usize,
    },
    /// The elastic variant: started deliberately *under-provisioned* at an
    /// eighth of the cell's contention bound, so the measured run grows
    /// through epochs while serving traffic (the ROADMAP's registry-growth
    /// item).  Use `max_epochs >= 3` so the chain can cover the full bound.
    Elastic {
        /// Maximum simultaneously live epochs of the doubling chain.
        max_epochs: usize,
    },
    /// The hierarchical composition: an `ElasticLevelArray` whose epochs are
    /// groups of cache-padded shard cores, `shard_group` participants per
    /// shard (`0` keeps the epochs flat — the comparison baseline).  Built
    /// at the *full* contention bound with growth headroom, so the measured
    /// `Get`s exercise steady-state contended routing through sticky
    /// home shards rather than forced growth.
    Hierarchical {
        /// Participants per shard within each epoch (0 = flat epochs).
        shard_group: usize,
    },
    /// [`Algorithm::Hierarchical`] with bit-packed slots: the false-sharing
    /// tax cell.  64 slots share one atomic word, so concurrent `Get`s
    /// collide on cache lines the word-per-slot layout keeps separate; under
    /// a ≥8-thread `Get` storm the gap between this cell and the
    /// word-per-slot hierarchical cell *is* the tax.
    HierarchicalPacked {
        /// Participants per shard within each epoch (0 = flat epochs).
        shard_group: usize,
    },
    /// The growth-storm cell: an elastic array started at `1/divisor` of the
    /// cell's contention bound and driven with **zero pre-fill**, so every
    /// churn round acquires the full quota (forcing the chain to double
    /// repeatedly) and then drains it completely (letting the deferred
    /// retirement checks shrink the chain again).  The measured `Get`s
    /// therefore hammer the lock-free epoch chain *across* forced growth and
    /// retirement, not merely after a one-time warm-up — the seam the
    /// `ElasticLevelArray` retirement protocol is built for.
    ElasticStorm {
        /// How deeply under-provisioned the initial epoch is (`n / divisor`).
        /// The epoch cap is derived: `⌊log2 divisor⌋ + 1` doublings, enough
        /// headroom that a `Get` never fails even mid-storm.
        divisor: usize,
    },
    /// Uniform random probing over a flat array.
    Random,
    /// Linear probing from a random start.
    LinearProbing,
    /// Deterministic left-to-right scan.
    LinearScan,
}

impl Algorithm {
    /// The label used in tables (matches the paper's legend; the sharded
    /// variant reports its shard count).
    pub fn label(&self) -> String {
        match self {
            Algorithm::LevelArray => "LevelArray".to_string(),
            Algorithm::LevelArrayProbes(c) => format!("LevelArray(c={c})"),
            Algorithm::LevelArraySwapTas => "LevelArray(swap)".to_string(),
            Algorithm::LevelArrayPacked => "LevelArray(packed)".to_string(),
            Algorithm::LevelArrayHinted => "LevelArray(hint)".to_string(),
            Algorithm::ShardedLevelArray { shards } => format!("ShardedLevelArray(s={shards})"),
            Algorithm::Elastic { max_epochs } => format!("Elastic(e<={max_epochs})"),
            Algorithm::Hierarchical { shard_group: 0 } => "Hierarchical(flat)".to_string(),
            Algorithm::Hierarchical { shard_group } => format!("Hierarchical(g={shard_group})"),
            Algorithm::HierarchicalPacked { shard_group: 0 } => {
                "Hierarchical(packed,flat)".to_string()
            }
            Algorithm::HierarchicalPacked { shard_group } => {
                format!("Hierarchical(packed,g={shard_group})")
            }
            Algorithm::ElasticStorm { divisor } => format!("ElasticStorm(n/{divisor})"),
            Algorithm::Random => "Random".to_string(),
            Algorithm::LinearProbing => "LinearProbing".to_string(),
            Algorithm::LinearScan => "LinearScan".to_string(),
        }
    }

    /// The three algorithms plotted in Figure 2, plus this reproduction's
    /// extension cells plotted alongside them: the sharded LevelArray and the
    /// elastic LevelArray (which starts under-provisioned and must grow
    /// through epochs mid-measurement).
    pub fn figure2_set() -> Vec<Algorithm> {
        vec![
            Algorithm::LevelArray,
            Algorithm::ShardedLevelArray { shards: 4 },
            Algorithm::Elastic { max_epochs: 4 },
            Algorithm::Random,
            Algorithm::LinearProbing,
        ]
    }

    /// Builds an instance from one shared typed configuration.
    ///
    /// The LevelArray variants apply their ablation on top of `config`; the
    /// flat baselines take `config.main_len()` slots for the same contention
    /// bound, so every algorithm is sized by the *same* rule
    /// ([`LevelArrayConfig::main_len`]) instead of re-deriving slot counts
    /// here.
    pub fn build(&self, config: &LevelArrayConfig) -> Arc<dyn ActivityArray> {
        let n = config.max_concurrency_value();
        let slots = config.main_len();
        match self {
            Algorithm::LevelArray => Arc::new(config.build().expect("valid configuration")),
            Algorithm::LevelArrayProbes(c) => Arc::new(
                config
                    .clone()
                    .probes_per_batch(*c)
                    .build()
                    .expect("valid configuration"),
            ),
            Algorithm::LevelArraySwapTas => Arc::new(
                config
                    .clone()
                    .tas_kind(TasKind::Swap)
                    .build()
                    .expect("valid configuration"),
            ),
            Algorithm::LevelArrayPacked => Arc::new(
                config
                    .clone()
                    .slot_layout(SlotLayout::Packed)
                    .build()
                    .expect("valid configuration"),
            ),
            Algorithm::LevelArrayHinted => Arc::new(
                config
                    .clone()
                    .free_hint(true)
                    .build()
                    .expect("valid configuration"),
            ),
            Algorithm::ShardedLevelArray { shards } => Arc::new(
                ShardedLevelArray::from_config(config, *shards).expect("valid configuration"),
            ),
            Algorithm::Elastic { max_epochs } => {
                // Start at an eighth of the bound.  The first epoch then has
                // 3n/8 slots (default space factor), below a single thread's
                // quota n/threads for the ≤2-thread cells, so growth is
                // *forced* even if the OS serializes the workers — the cell
                // measures elastic behavior, not thread-overlap luck.  The
                // doubling chain reaches full coverage by the second growth
                // event (3·(n/8)·(2³−1) = 2.625n slots), so a Get still
                // never fails; keep `max_epochs >= 3` for that headroom.
                let initial = (n / 8).max(1);
                Arc::new(
                    config
                        .clone()
                        .with_contention(initial)
                        .growth(GrowthPolicy::Doubling {
                            max_epochs: *max_epochs,
                        })
                        .build_elastic()
                        .expect("valid configuration"),
                )
            }
            Algorithm::Hierarchical { shard_group } => Arc::new(
                // Full bound, fixed growth: this cell measures steady-state
                // contended routing at *pinned* space.  Under a doubling
                // policy the flat composition quietly buys itself a roomier
                // epoch the first time a Get exhausts the cell — the sharded
                // backend's steal walk absorbs the same pressure without
                // growing — and the comparison stops being one of routing.
                // The Elastic/ElasticStorm cells own the growth axis.
                config
                    .clone()
                    .shard_group(*shard_group)
                    .growth(GrowthPolicy::Fixed)
                    .build_elastic()
                    .expect("valid configuration"),
            ),
            Algorithm::HierarchicalPacked { shard_group } => Arc::new(
                config
                    .clone()
                    .shard_group(*shard_group)
                    .slot_layout(SlotLayout::Packed)
                    .growth(GrowthPolicy::Fixed)
                    .build_elastic()
                    .expect("valid configuration"),
            ),
            Algorithm::ElasticStorm { divisor } => {
                // Deep under-provisioning: the chain must double through
                // ~log2(divisor) epochs before it covers the bound, and the
                // zero-prefill churn drains it back between rounds.  The cap
                // gives one doubling beyond coverage so a Get never fails
                // even while old epochs are sealed mid-retirement.
                let initial = (n / divisor).max(1);
                let max_epochs = (usize::BITS - divisor.leading_zeros()) as usize + 1;
                Arc::new(
                    config
                        .clone()
                        .with_contention(initial)
                        .growth(GrowthPolicy::Doubling { max_epochs })
                        .build_elastic()
                        .expect("valid configuration"),
                )
            }
            Algorithm::Random => Arc::new(RandomArray::with_slots(n, slots)),
            Algorithm::LinearProbing => Arc::new(LinearProbingArray::with_slots(n, slots)),
            Algorithm::LinearScan => Arc::new(LinearScanArray::with_slots(n, slots)),
        }
    }
}

/// Parameters of one workload cell (one point of one panel of Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of OS threads (the paper's `n`, x-axis of Figure 2).
    pub threads: usize,
    /// Slots each thread holds at once (the paper's `N/n`; the paper uses
    /// `N = 1000 n`, which is far more slots than a laptop needs — the shape
    /// of the results is insensitive to this as long as it is ≥ 1).
    pub emulated_per_thread: usize,
    /// Array slots per logical participant (the paper's `L/N ∈ [2, 4]`).
    pub space_factor: f64,
    /// Fraction of each thread's quota registered up front and never freed.
    pub prefill: f64,
    /// Get+Free operations each thread performs in its measured main loop.
    pub target_ops_per_thread: u64,
    /// Master seed for all per-thread generators.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            threads: 4,
            emulated_per_thread: 8,
            space_factor: 2.0,
            prefill: 0.5,
            target_ops_per_thread: 100_000,
            seed: 0xB0B0,
        }
    }
}

impl WorkloadConfig {
    /// The total number of logical participants `N = threads * N/n`.
    pub fn logical_participants(&self) -> usize {
        self.threads * self.emulated_per_thread
    }

    /// The core-array configuration this cell drives: contention bound `N`
    /// with this cell's space factor.  Built once per cell and passed down to
    /// [`Algorithm::build`], so array sizing lives in `levelarray::config`
    /// alone.
    pub fn array_config(&self) -> LevelArrayConfig {
        LevelArrayConfig::new(self.logical_participants()).space_factor(self.space_factor)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range (zero threads/quota, space
    /// factor below 1, pre-fill outside `[0, 1)`).
    pub fn validate(&self) {
        assert!(self.threads > 0, "need at least one thread");
        assert!(
            self.emulated_per_thread > 0,
            "need a positive per-thread quota"
        );
        assert!(
            self.space_factor >= 1.0 && self.space_factor.is_finite(),
            "space factor must be >= 1"
        );
        assert!(
            (0.0..1.0).contains(&self.prefill),
            "prefill must be in [0, 1), got {}",
            self.prefill
        );
    }
}

/// The outcome of one workload cell.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The algorithm exercised.
    pub algorithm: String,
    /// The configuration used.
    pub config: WorkloadConfig,
    /// Wall-clock time of the measured main loop.
    pub elapsed: Duration,
    /// Total Get+Free operations completed across all threads.
    pub total_ops: u64,
    /// Merged probe statistics over every measured Get.
    pub stats: GetStats,
    /// Per-thread worst-case probe counts (the paper averages these for the
    /// "worst case" panel to damp outlier executions).
    pub per_thread_max: Vec<u32>,
    /// Log-bucketed latency of every measured `Get`, merged over threads;
    /// the JSON record reports its p99 / p99.9 / max tail.
    pub get_latency: crate::histogram::LatencyHistogram,
}

impl WorkloadResult {
    /// Operations per second over the measured loop.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.total_ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// The paper's "worst case" metric: the per-thread maxima averaged over
    /// threads.
    pub fn mean_worst_case(&self) -> f64 {
        if self.per_thread_max.is_empty() {
            0.0
        } else {
            self.per_thread_max.iter().map(|&m| m as f64).sum::<f64>()
                / self.per_thread_max.len() as f64
        }
    }

    /// The absolute worst case over every operation of every thread.
    pub fn absolute_worst_case(&self) -> u32 {
        self.stats.max_probes()
    }

    /// The machine-readable form of this result for `BENCH_JSON` output:
    /// one flat record keyed by `key` (the cell's unique identifier within
    /// `bench`), carrying the quantities `bench_diff` compares plus the
    /// cell's workload shape.
    pub fn json_record(&self, bench: &str, key: String) -> crate::json::JsonRecord {
        crate::json::JsonRecord::new()
            .field("key", key)
            .field("bench", bench)
            .field("algorithm", self.algorithm.clone())
            .field("threads", self.config.threads)
            .field("emulated_per_thread", self.config.emulated_per_thread)
            .field("space_factor", self.config.space_factor)
            .field("prefill", self.config.prefill)
            .field("total_ops", self.total_ops)
            .field("elapsed_s", self.elapsed.as_secs_f64())
            .field("throughput", self.throughput())
            .field("mean_probes", self.stats.mean_probes())
            .field("stddev_probes", self.stats.stddev_probes())
            .field("worst_avg", self.mean_worst_case())
            .field("worst_abs", u64::from(self.absolute_worst_case()))
            .field("get_p99_ns", self.get_latency.quantile_ns(0.99))
            .field("get_p999_ns", self.get_latency.quantile_ns(0.999))
            .field("get_max_ns", self.get_latency.max_ns())
    }
}

/// One measured `Get` in this many has its latency recorded (see the
/// comment in the runner's main loop).
pub const LATENCY_SAMPLE_STRIDE: u64 = 16;

/// Runs one workload cell: `config.threads` threads hammering one shared
/// instance of `algorithm`.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`WorkloadConfig::validate`]).
pub fn run_workload(algorithm: Algorithm, config: &WorkloadConfig) -> WorkloadResult {
    config.validate();
    let array = algorithm.build(&config.array_config());
    let mut seeds = SeedSequence::new(config.seed);

    let quota = config.emulated_per_thread;
    let prefill_count = ((quota as f64) * config.prefill).floor() as usize;
    let churn = (quota - prefill_count).max(1);

    let mut per_thread_stats: Vec<(GetStats, crate::histogram::LatencyHistogram)> =
        Vec::with_capacity(config.threads);
    let started = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.threads);
        for _ in 0..config.threads {
            let array = Arc::clone(&array);
            let seed = seeds.next_seed();
            let target = config.target_ops_per_thread;
            handles.push(scope.spawn(move || {
                let mut rng = default_rng(seed);
                let mut stats = GetStats::new();
                let mut latency = crate::histogram::LatencyHistogram::new();

                // Pre-fill: register and hold (not measured).
                let held: Vec<_> = (0..prefill_count)
                    .map(|_| array.get(&mut rng).name())
                    .collect();

                // Main loop: churn the remaining quota.  Latency is sampled
                // one Get in LATENCY_SAMPLE_STRIDE: timing every operation
                // would put two clock reads (~40-60 ns on Linux) inside a
                // ~100 ns critical path and drown the differences the cells
                // exist to measure, while 1-in-16 keeps tens of thousands of
                // samples per cell — plenty for a p99.9.
                let mut ops = 0u64;
                let mut gets = 0u64;
                let mut churned = Vec::with_capacity(churn);
                while ops < target {
                    for _ in 0..churn {
                        let got = if gets % LATENCY_SAMPLE_STRIDE == 0 {
                            let get_started = Instant::now();
                            let got = array.get(&mut rng);
                            latency.record_duration(get_started.elapsed());
                            got
                        } else {
                            array.get(&mut rng)
                        };
                        gets += 1;
                        stats.record(&got);
                        churned.push(got.name());
                        ops += 1;
                    }
                    for name in churned.drain(..) {
                        array.free(name);
                        ops += 1;
                    }
                }

                // Tear down the pre-fill so the array is reusable.
                for name in held {
                    array.free(name);
                }
                (stats, latency)
            }));
        }
        for handle in handles {
            per_thread_stats.push(handle.join().expect("worker panicked"));
        }
    });
    let elapsed = started.elapsed();

    let mut merged = GetStats::new();
    let mut get_latency = crate::histogram::LatencyHistogram::new();
    let mut per_thread_max = Vec::with_capacity(per_thread_stats.len());
    for (stats, latency) in &per_thread_stats {
        merged.merge(stats);
        get_latency.merge(latency);
        per_thread_max.push(stats.max_probes());
    }
    let total_ops = merged.operations() * 2; // every measured Get has a Free

    WorkloadResult {
        algorithm: algorithm.label(),
        config: config.clone(),
        elapsed,
        total_ops,
        stats: merged,
        per_thread_max,
        get_latency,
    }
}

/// Runs one workload cell `repeats` times (clamped to at least once) and
/// returns the run with the *median throughput* — the standard damping for
/// scheduler noise when a cell's numbers feed a regression comparison
/// (`make bench-diff`).  The bench targets wire this to the `BENCH_REPEAT`
/// environment variable.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`WorkloadConfig::validate`]).
pub fn run_workload_repeated(
    algorithm: Algorithm,
    config: &WorkloadConfig,
    repeats: usize,
) -> WorkloadResult {
    let mut runs: Vec<WorkloadResult> = (0..repeats.max(1))
        .map(|_| run_workload(algorithm, config))
        .collect();
    runs.sort_by(|a, b| a.throughput().total_cmp(&b.throughput()));
    runs.swap_remove(runs.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            threads: 2,
            emulated_per_thread: 4,
            space_factor: 2.0,
            prefill: 0.5,
            target_ops_per_thread: 2_000,
            seed: 7,
        }
    }

    #[test]
    fn every_algorithm_completes_the_workload() {
        for algorithm in [
            Algorithm::LevelArray,
            Algorithm::LevelArrayProbes(2),
            Algorithm::LevelArraySwapTas,
            Algorithm::LevelArrayPacked,
            Algorithm::LevelArrayHinted,
            Algorithm::ShardedLevelArray { shards: 2 },
            Algorithm::ShardedLevelArray { shards: 4 },
            Algorithm::Elastic { max_epochs: 4 },
            Algorithm::Hierarchical { shard_group: 0 },
            Algorithm::Hierarchical { shard_group: 4 },
            Algorithm::HierarchicalPacked { shard_group: 4 },
            Algorithm::ElasticStorm { divisor: 8 },
            Algorithm::Random,
            Algorithm::LinearProbing,
            Algorithm::LinearScan,
        ] {
            let result = run_workload(algorithm, &small_config());
            assert!(result.total_ops >= 2 * 2_000, "{}", result.algorithm);
            assert!(result.stats.mean_probes() >= 1.0, "{}", result.algorithm);
            assert!(result.throughput() > 0.0, "{}", result.algorithm);
            assert_eq!(result.per_thread_max.len(), 2);
            assert!(result.mean_worst_case() >= 1.0);
            assert!(result.absolute_worst_case() >= 1);
            // Latency is sampled 1-in-LATENCY_SAMPLE_STRIDE with a coherent
            // tail.
            assert!(
                result.get_latency.count() >= result.stats.operations() / LATENCY_SAMPLE_STRIDE
                    && result.get_latency.count() <= result.stats.operations(),
                "{}: {} samples for {} gets",
                result.algorithm,
                result.get_latency.count(),
                result.stats.operations()
            );
            let (p99, p999, max) = result.get_latency.tail_ns();
            assert!(p99 <= p999 && p999 <= max, "{}", result.algorithm);
        }
    }

    #[test]
    fn levelarray_beats_baselines_on_worst_case_at_high_prefill() {
        // The paper's headline qualitative result: under load the LevelArray's
        // worst case is far below Random / LinearProbing.  Use a high pre-fill
        // to make the contrast visible even in a quick test, and aggregate a
        // few seeds: single-run worst cases are extreme-value statistics, so
        // one execution can tie on a lucky baseline run (this was a rare but
        // real flake with a single strict comparison).
        let worst_sum = |algorithm: Algorithm| -> u32 {
            [13u64, 14, 15]
                .iter()
                .map(|&seed| {
                    let config = WorkloadConfig {
                        threads: 2,
                        emulated_per_thread: 64,
                        space_factor: 2.0,
                        prefill: 0.9,
                        target_ops_per_thread: 20_000,
                        seed,
                    };
                    run_workload(algorithm, &config).absolute_worst_case()
                })
                .sum()
        };
        let level = worst_sum(Algorithm::LevelArray);
        let random = worst_sum(Algorithm::Random);
        let linear = worst_sum(Algorithm::LinearProbing);
        assert!(
            level < random,
            "LevelArray {level} vs Random {random} (summed over 3 seeds)"
        );
        assert!(
            level < linear,
            "LevelArray {level} vs LinearProbing {linear} (summed over 3 seeds)"
        );
    }

    #[test]
    fn logical_participants_and_labels() {
        let c = small_config();
        assert_eq!(c.logical_participants(), 8);
        assert_eq!(Algorithm::LevelArray.label(), "LevelArray");
        assert_eq!(Algorithm::LevelArrayProbes(3).label(), "LevelArray(c=3)");
        assert_eq!(Algorithm::LevelArrayPacked.label(), "LevelArray(packed)");
        assert_eq!(Algorithm::LevelArrayHinted.label(), "LevelArray(hint)");
        assert_eq!(
            Algorithm::ShardedLevelArray { shards: 4 }.label(),
            "ShardedLevelArray(s=4)"
        );
        assert_eq!(
            Algorithm::Elastic { max_epochs: 4 }.label(),
            "Elastic(e<=4)"
        );
        assert_eq!(
            Algorithm::ElasticStorm { divisor: 16 }.label(),
            "ElasticStorm(n/16)"
        );
        assert_eq!(
            Algorithm::Hierarchical { shard_group: 0 }.label(),
            "Hierarchical(flat)"
        );
        assert_eq!(
            Algorithm::Hierarchical { shard_group: 64 }.label(),
            "Hierarchical(g=64)"
        );
        assert_eq!(
            Algorithm::HierarchicalPacked { shard_group: 64 }.label(),
            "Hierarchical(packed,g=64)"
        );
        assert_eq!(Algorithm::figure2_set().len(), 5);
        assert!(Algorithm::figure2_set().contains(&Algorithm::ShardedLevelArray { shards: 4 }));
        assert!(Algorithm::figure2_set().contains(&Algorithm::Elastic { max_epochs: 4 }));
    }

    #[test]
    fn elastic_build_starts_small_and_grows_under_full_load() {
        let config = small_config();
        let array = Algorithm::Elastic { max_epochs: 4 }.build(&config.array_config());
        assert_eq!(array.algorithm_name(), "ElasticLevelArray");
        // Under-provisioned on purpose: an eighth of the logical participants.
        assert_eq!(
            array.max_participants(),
            (config.logical_participants() / 8).max(1)
        );
        // Holding the full quota — what the workload does at its peak — is
        // beyond the initial epoch, so the chain must grow to serve it.
        let mut rng = default_rng(9);
        let names: Vec<_> = (0..config.logical_participants())
            .map(|_| array.get(&mut rng).name())
            .collect();
        assert!(
            names.iter().any(|n| n.epoch() > 0),
            "growth must have tagged later names with a fresh epoch"
        );
        for name in names {
            array.free(name);
        }
        // And the full measured workload completes without a single failed
        // Get (get() would panic).
        let result = run_workload(Algorithm::Elastic { max_epochs: 4 }, &config);
        assert_eq!(result.algorithm, "Elastic(e<=4)");
        assert!(result.total_ops >= 2 * 2_000);
    }

    #[test]
    fn elastic_storm_builds_deeply_underprovisioned_and_survives_zero_prefill() {
        let config = WorkloadConfig {
            prefill: 0.0, // full-quota churn: acquire everything, drain everything
            ..small_config()
        };
        let array = Algorithm::ElasticStorm { divisor: 8 }.build(&config.array_config());
        assert_eq!(array.algorithm_name(), "ElasticLevelArray");
        assert_eq!(
            array.max_participants(),
            (config.logical_participants() / 8).max(1)
        );
        // The measured run crosses growth and drain boundaries repeatedly and
        // still never fails a Get (get() would panic).
        let result = run_workload(Algorithm::ElasticStorm { divisor: 8 }, &config);
        assert_eq!(result.algorithm, "ElasticStorm(n/8)");
        assert!(result.total_ops >= 2 * 2_000);
    }

    #[test]
    fn hierarchical_builds_at_full_bound_with_sharded_epochs() {
        let config = small_config();
        let array = Algorithm::Hierarchical { shard_group: 4 }.build(&config.array_config());
        assert_eq!(array.algorithm_name(), "ElasticLevelArray");
        // Full bound: steady-state cell, no forced growth.
        assert_eq!(array.max_participants(), config.logical_participants());
        let result = run_workload(Algorithm::Hierarchical { shard_group: 4 }, &config);
        assert_eq!(result.algorithm, "Hierarchical(g=4)");
        assert!(result.total_ops >= 2 * 2_000);
    }

    #[test]
    fn sharded_build_reports_shard_count_and_runs() {
        let config = small_config();
        let array = Algorithm::ShardedLevelArray { shards: 2 }.build(&config.array_config());
        assert_eq!(array.algorithm_name(), "ShardedLevelArray");
        // Capacity covers the logical participants with per-shard rounding.
        assert!(array.capacity() >= config.logical_participants() * 2);
        let result = run_workload(Algorithm::ShardedLevelArray { shards: 2 }, &config);
        assert_eq!(result.algorithm, "ShardedLevelArray(s=2)");
        assert!(result.total_ops >= 2 * 2_000);
    }

    #[test]
    #[should_panic(expected = "prefill must be in [0, 1)")]
    fn invalid_prefill_rejected() {
        let mut c = small_config();
        c.prefill = 1.0;
        run_workload(Algorithm::LevelArray, &c);
    }
}
