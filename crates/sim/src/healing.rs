//! The self-healing experiment (paper §5.2 and Figure 3).
//!
//! The paper initializes the LevelArray in an *unbalanced* state — batch 0 a
//! quarter full, batch 1 half full (and therefore overcrowded) — and then runs
//! a typical register/deregister workload, sampling the per-batch fill every
//! 4000 operations.  The distribution drifts back to the balanced profile
//! within a few tens of thousands of operations, faster than the analysis
//! predicts.  [`HealingExperiment`] reproduces exactly that protocol.

use larng::{default_rng, DefaultRng, RandomSource};
use levelarray::{
    ActivityArray, ElasticLevelArray, LevelArray, LevelArrayConfig, Name, OccupancySnapshot,
    ShardedLevelArray,
};

use crate::analysis::{ops_until_stably_balanced, OccupancySample};

/// How to skew the initial state of the array: the fraction of each batch's
/// slots to pre-occupy (entries beyond the array's batch count are ignored;
/// missing entries mean "leave empty").
#[derive(Debug, Clone, PartialEq)]
pub struct UnbalanceSpec {
    /// Fill fraction per batch, in batch order.
    pub batch_fractions: Vec<f64>,
}

impl UnbalanceSpec {
    /// The paper's Figure-3 initial state: batch 0 a quarter full, batch 1
    /// half full (overcrowded for any realistic `n`).
    pub fn paper_figure3() -> Self {
        UnbalanceSpec {
            batch_fractions: vec![0.25, 0.5],
        }
    }

    /// A custom skew.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]` or not finite.
    pub fn new(batch_fractions: Vec<f64>) -> Self {
        for &f in &batch_fractions {
            assert!(
                f.is_finite() && (0.0..=1.0).contains(&f),
                "fill fractions must lie in [0, 1], got {f}"
            );
        }
        UnbalanceSpec { batch_fractions }
    }
}

/// Forces `array` into the skewed state described by `spec` by directly
/// occupying randomly chosen slots of each batch.  Returns the occupied names
/// (which the healing workload will treat as held by its simulated threads).
///
/// The slots are chosen uniformly at random *within* each batch so that the
/// skew is in the batch totals, not in any particular slot pattern.
pub fn force_unbalanced(
    array: &LevelArray,
    spec: &UnbalanceSpec,
    rng: &mut dyn RandomSource,
) -> Vec<Name> {
    let mut held = Vec::new();
    install_skew(
        spec,
        array.geometry(),
        0,
        rng,
        |name| array.force_occupy(name).then_some(name),
        &mut held,
    );
    held
}

/// The sharded counterpart of [`force_unbalanced`]: applies the same
/// per-batch skew to *every shard* of the array (so the aggregate batch
/// totals carry the same overcrowding the paper's Figure 3 starts from),
/// choosing the occupied slots uniformly at random within each shard's
/// batch.  Returns the occupied global names.
pub fn force_unbalanced_sharded(
    array: &ShardedLevelArray,
    spec: &UnbalanceSpec,
    rng: &mut dyn RandomSource,
) -> Vec<Name> {
    let mut held = Vec::new();
    for shard in 0..array.num_shards() {
        install_skew(
            spec,
            array.shard_geometry(),
            shard * array.shard_capacity(),
            rng,
            |name| array.force_occupy(name).then_some(name),
            &mut held,
        );
    }
    held
}

/// The elastic counterpart of [`force_unbalanced`]: applies the per-batch
/// skew to the *newest* epoch of the chain (the one `Get` traffic routes to),
/// choosing the occupied slots uniformly at random within each batch.  A
/// hierarchical epoch (one backed by shard cores, see
/// [`levelarray::LevelArrayConfig::shard_group`]) gets the skew installed in
/// *every* shard — the same rule [`force_unbalanced_sharded`] applies one
/// level down — so the aggregate batch totals carry the intended
/// overcrowding whatever the epoch's backend.  Returns the occupied
/// epoch-tagged names (dense in-cell indices for a sharded epoch).
pub fn force_unbalanced_elastic(
    array: &ElasticLevelArray,
    spec: &UnbalanceSpec,
    rng: &mut dyn RandomSource,
) -> Vec<Name> {
    let epoch = array.newest_epoch();
    let geometry = array.newest_geometry();
    let mut held = Vec::new();
    for shard in 0..array.newest_epoch_shards() {
        install_skew(
            spec,
            &geometry,
            shard * array.newest_shard_capacity(),
            rng,
            |name| {
                let tagged = Name::with_epoch(epoch, name.index());
                array.force_occupy(tagged).then_some(tagged)
            },
            &mut held,
        );
    }
    held
}

/// The shared skew installer: occupies `round(len * fraction)` uniformly
/// chosen slots of each batch of one `geometry`, with slot indices offset by
/// `base`, recording the successfully occupied names in `held`.  The
/// `occupy` closure returns the name it actually installed (plain, shard- or
/// epoch-tagged), or `None` when the slot was already held.  The plain,
/// sharded and elastic skews all route through this, so the rounding and
/// slot-choice rules can never drift apart.
fn install_skew(
    spec: &UnbalanceSpec,
    geometry: &levelarray::geometry::BatchGeometry,
    base: usize,
    rng: &mut dyn RandomSource,
    mut occupy: impl FnMut(Name) -> Option<Name>,
    held: &mut Vec<Name>,
) {
    for (batch, &fraction) in spec.batch_fractions.iter().enumerate() {
        if batch >= geometry.num_batches() {
            break;
        }
        let mut slots: Vec<usize> = geometry.batch_range(batch).map(|i| base + i).collect();
        shuffle_indices(rng, &mut slots);
        let target = ((slots.len() as f64) * fraction).round() as usize;
        for &idx in slots.iter().take(target) {
            if let Some(installed) = occupy(Name::new(idx)) {
                held.push(installed);
            }
        }
    }
}

/// Fisher–Yates shuffle usable through a `&mut dyn RandomSource`
/// (the trait's own `shuffle` helper requires `Self: Sized`).
fn shuffle_indices(rng: &mut dyn RandomSource, slice: &mut [usize]) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_index(i + 1);
        slice.swap(i, j);
    }
}

/// Configuration of a healing run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealingExperiment {
    /// The LevelArray under test, as a full typed configuration: healing can
    /// be studied on any geometry/probe/TAS ablation, not just the default
    /// `2n` layout.  The configuration's contention bound is the experiment's
    /// `n`.
    pub array: LevelArrayConfig,
    /// Number of simulated threads issuing Get/Free traffic.  Each holds at
    /// most one name at a time, in addition to the pre-occupied skew which is
    /// drained as the run progresses.
    pub workers: usize,
    /// Total number of Get/Free operations to run.
    pub total_ops: u64,
    /// Take an occupancy snapshot every this many operations (paper: 4000).
    pub snapshot_every: u64,
    /// The initial skew.
    pub spec: UnbalanceSpec,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of operations that release one of the pre-occupied ("ghost")
    /// names instead of a worker's own name, draining the skew gradually the
    /// way real threads deregistering would.  The paper schedules "arbitrarily
    /// chosen operations"; 0.5 reproduces its smooth decay.
    pub ghost_release_probability: f64,
}

impl HealingExperiment {
    /// The paper's Figure-3 setup scaled to contention bound `n`: the skew of
    /// [`UnbalanceSpec::paper_figure3`], `n/2` workers, 8 snapshot intervals
    /// of 4000 operations each.
    pub fn paper_figure3(n: usize, seed: u64) -> Self {
        HealingExperiment {
            array: LevelArrayConfig::new(n),
            workers: (n / 2).max(1),
            total_ops: 32_000,
            snapshot_every: 4_000,
            spec: UnbalanceSpec::paper_figure3(),
            seed,
            ghost_release_probability: 0.5,
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, `workers > contention_bound`,
    /// `snapshot_every == 0`, or the ghost-release probability is outside
    /// `[0, 1]`.
    pub fn run(&self) -> HealingReport {
        self.validate();
        let array = self
            .array
            .build()
            .expect("invalid LevelArray configuration");
        let mut rng: DefaultRng = default_rng(self.seed);
        let ghosts = force_unbalanced(&array, &self.spec, &mut rng);
        self.drive(&array, ghosts, &mut rng, |a| a.occupancy())
    }

    /// Runs the experiment on a [`ShardedLevelArray`] with `shards` shards:
    /// the same protocol (per-batch skew, register/deregister traffic with
    /// ghost draining, periodic sampling), with the skew applied to every
    /// shard and balance judged on the *batch-aggregated* census
    /// ([`ShardedLevelArray::batchwise_occupancy`]) so the paper's
    /// definitions — predicates over batch totals for contention bound `n` —
    /// carry over to the sharded layout.  Balance is only evaluated over the
    /// batches the shard geometry actually has: `⌈n/S⌉`-sized shards have
    /// fewer batches than a plain `n`-sized array, so keep the shard count
    /// well below `n` when comparing healing depth against the plain run.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`HealingExperiment::run`], or if the
    /// sharded configuration is invalid (e.g. `shards == 0`).
    pub fn run_sharded(&self, shards: usize) -> HealingReport {
        self.validate();
        let array = self
            .array
            .build_sharded(shards)
            .expect("invalid ShardedLevelArray configuration");
        let mut rng: DefaultRng = default_rng(self.seed);
        let ghosts = force_unbalanced_sharded(&array, &self.spec, &mut rng);
        self.drive(&array, ghosts, &mut rng, |a| a.batchwise_occupancy())
    }

    /// Runs the experiment on an [`ElasticLevelArray`] built from the
    /// experiment's configuration (including its
    /// [`levelarray::GrowthPolicy`]): the same protocol, with the skew
    /// applied to the newest epoch and balance judged on the
    /// *batch-aggregated* census
    /// ([`ElasticLevelArray::batchwise_occupancy`]).  With traffic inside
    /// the configured contention bound the chain never needs to grow, and
    /// the elastic layout must heal exactly like the plain one — which is
    /// precisely the point of this cell; growth and retirement under
    /// pressure (the lock-free chain's seal → grace → census → unlink
    /// seam) are exercised by the growth-storm suites instead
    /// (`tests/growth_storm.rs` and the `sweeps` bench's storm cells).
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`HealingExperiment::run`], or if
    /// the elastic configuration is invalid.
    pub fn run_elastic(&self) -> HealingReport {
        self.validate();
        let array = self
            .array
            .build_elastic()
            .expect("invalid ElasticLevelArray configuration");
        let mut rng: DefaultRng = default_rng(self.seed);
        let ghosts = force_unbalanced_elastic(&array, &self.spec, &mut rng);
        self.drive(&array, ghosts, &mut rng, |a| a.batchwise_occupancy())
    }

    fn validate(&self) {
        let n = self.array.max_concurrency_value();
        assert!(self.workers > 0, "need at least one worker");
        assert!(
            self.workers <= n,
            "workers ({}) exceed the contention bound ({n})",
            self.workers
        );
        assert!(
            self.snapshot_every > 0,
            "snapshot interval must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.ghost_release_probability),
            "ghost release probability must lie in [0, 1]"
        );
    }

    /// The shared protocol: run register/deregister traffic over `array`
    /// (whose skewed initial state holds `ghosts`), sampling `snapshot` every
    /// `snapshot_every` operations and judging balance against this
    /// experiment's contention bound.  Before each scheduled operation the
    /// chosen worker's identity is passed to [`ActivityArray::route_hint`],
    /// so sticky-routing layouts see a spread-out population despite the
    /// simulator's single OS thread.
    fn drive<A: ActivityArray>(
        &self,
        array: &A,
        mut ghosts: Vec<Name>,
        rng: &mut DefaultRng,
        snapshot: impl Fn(&A) -> OccupancySnapshot,
    ) -> HealingReport {
        let n = self.array.max_concurrency_value();
        let initial_snapshot = snapshot(array);
        let initially_balanced = self
            .array
            .balance_report(&initial_snapshot)
            .is_fully_balanced();
        let mut samples = vec![OccupancySample::from_snapshot(0, &initial_snapshot, n)];

        // Worker-held names (at most one each).
        let mut worker_names: Vec<Option<Name>> = vec![None; self.workers];

        let mut ops: u64 = 0;
        while ops < self.total_ops {
            let worker = rng.gen_index(self.workers);
            array.route_hint(worker);
            // Decide what this scheduled operation does, mirroring a typical
            // register/deregister stream: a worker that holds a name frees it,
            // one that does not registers; with some probability the "free"
            // instead drains one of the ghost holdings left over from the
            // skewed initial state.
            if !ghosts.is_empty() && rng.gen_bool(self.ghost_release_probability) {
                let victim = rng.gen_index(ghosts.len());
                let name = ghosts.swap_remove(victim);
                array.free(name);
            } else if let Some(name) = worker_names[worker].take() {
                array.free(name);
            } else {
                let got = array.get(rng);
                worker_names[worker] = Some(got.name());
            }
            ops += 1;

            if ops % self.snapshot_every == 0 {
                samples.push(OccupancySample::from_snapshot(ops, &snapshot(array), n));
            }
        }

        let final_report = self.array.balance_report(&snapshot(array));
        HealingReport {
            initially_balanced,
            finally_balanced: final_report.is_fully_balanced(),
            ops_to_balance: ops_until_stably_balanced(&samples),
            samples,
        }
    }
}

/// The outcome of a healing run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealingReport {
    /// Whether the array was (already) fully balanced in its skewed initial
    /// state — `false` when the spec actually overcrowds a batch.
    pub initially_balanced: bool,
    /// Whether the array was fully balanced after the last operation.
    pub finally_balanced: bool,
    /// The operation count of the first snapshot from which the array stayed
    /// balanced for the rest of the run (`None` if it never stabilized).
    pub ops_to_balance: Option<u64>,
    /// The snapshot series (first entry = the skewed initial state at 0 ops).
    pub samples: Vec<OccupancySample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbalance_spec_validation() {
        let spec = UnbalanceSpec::new(vec![0.0, 1.0, 0.5]);
        assert_eq!(spec.batch_fractions.len(), 3);
        assert_eq!(
            UnbalanceSpec::paper_figure3().batch_fractions,
            vec![0.25, 0.5]
        );
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn unbalance_spec_rejects_bad_fractions() {
        let _ = UnbalanceSpec::new(vec![1.5]);
    }

    #[test]
    fn force_unbalanced_hits_the_requested_fractions() {
        let n = 512;
        let array = LevelArray::new(n);
        let mut rng = default_rng(1);
        let spec = UnbalanceSpec::paper_figure3();
        let held = force_unbalanced(&array, &spec, &mut rng);

        let snap = array.occupancy();
        let b0 = snap.batch(0).unwrap();
        let b1 = snap.batch(1).unwrap();
        assert_eq!(
            b0.occupied(),
            (b0.capacity() as f64 * 0.25).round() as usize
        );
        assert_eq!(b1.occupied(), (b1.capacity() as f64 * 0.5).round() as usize);
        assert_eq!(held.len(), b0.occupied() + b1.occupied());

        // Batch 1 holds n/8 slots = 64 >= the overcrowding threshold n/8 = 64,
        // so the initial state is genuinely unbalanced.
        let report = LevelArrayConfig::new(n).balance_report(&snap);
        assert!(!report.is_fully_balanced(), "{report:?}");
    }

    #[test]
    fn healing_restores_balance() {
        let experiment = HealingExperiment {
            array: LevelArrayConfig::new(256),
            workers: 64,
            total_ops: 20_000,
            snapshot_every: 1_000,
            spec: UnbalanceSpec::paper_figure3(),
            seed: 42,
            ghost_release_probability: 0.5,
        };
        let report = experiment.run();
        assert!(!report.initially_balanced, "the skew must start unbalanced");
        assert!(report.finally_balanced, "the array should have healed");
        let healed_at = report
            .ops_to_balance
            .expect("the array should stabilize within the run");
        assert!(healed_at <= 20_000);
        // The fill of batch 1 must end below its starting point.
        let first = &report.samples[0];
        let last = report.samples.last().unwrap();
        assert!(last.batch_fill[1] < first.batch_fill[1]);
        // Samples are taken at the configured cadence plus the initial one.
        assert_eq!(report.samples.len(), 1 + 20);
    }

    #[test]
    fn paper_figure3_constructor_matches_paper_parameters() {
        let e = HealingExperiment::paper_figure3(80, 7);
        assert_eq!(e.total_ops, 32_000);
        assert_eq!(e.snapshot_every, 4_000);
        assert_eq!(e.workers, 40);
        assert_eq!(e.spec, UnbalanceSpec::paper_figure3());
        let report = e.run();
        assert_eq!(report.samples.len(), 9);
        assert!(report.finally_balanced);
    }

    #[test]
    fn sharded_healing_restores_balance() {
        let experiment = HealingExperiment {
            array: LevelArrayConfig::new(256),
            workers: 64,
            total_ops: 20_000,
            snapshot_every: 1_000,
            spec: UnbalanceSpec::paper_figure3(),
            seed: 42,
            ghost_release_probability: 0.5,
        };
        let report = experiment.run_sharded(4);
        assert!(
            !report.initially_balanced,
            "the per-shard skew must aggregate to an unbalanced start"
        );
        assert!(report.finally_balanced, "the sharded array should heal");
        let healed_at = report
            .ops_to_balance
            .expect("the sharded array should stabilize within the run");
        assert!(healed_at <= 20_000);
        // Batch 1's aggregate fill drains, exactly like the plain layout.
        let first = &report.samples[0];
        let last = report.samples.last().unwrap();
        assert!(last.batch_fill[1] < first.batch_fill[1]);
        assert_eq!(report.samples.len(), 1 + 20);
    }

    #[test]
    fn sharded_skew_hits_every_shard() {
        let array = levelarray::ShardedLevelArray::new(256, 4);
        let mut rng = default_rng(9);
        let spec = UnbalanceSpec::paper_figure3();
        let held = force_unbalanced_sharded(&array, &spec, &mut rng);
        let snap = array.occupancy();
        for shard in 0..4 {
            let b0 = snap.shard_batch(shard, 0).unwrap();
            let b1 = snap.shard_batch(shard, 1).unwrap();
            assert_eq!(
                b0.occupied(),
                (b0.capacity() as f64 * 0.25).round() as usize
            );
            assert_eq!(b1.occupied(), (b1.capacity() as f64 * 0.5).round() as usize);
        }
        assert_eq!(held.len(), snap.total_occupied());
        // The aggregate view starts unbalanced for the full contention bound.
        let report = LevelArrayConfig::new(256).balance_report(&array.batchwise_occupancy());
        assert!(!report.is_fully_balanced(), "{report:?}");
    }

    #[test]
    fn elastic_healing_restores_balance() {
        use levelarray::GrowthPolicy;
        let experiment = HealingExperiment {
            array: LevelArrayConfig::new(256).growth(GrowthPolicy::Doubling { max_epochs: 4 }),
            workers: 64,
            total_ops: 20_000,
            snapshot_every: 1_000,
            spec: UnbalanceSpec::paper_figure3(),
            seed: 42,
            ghost_release_probability: 0.5,
        };
        let report = experiment.run_elastic();
        assert!(!report.initially_balanced, "the skew must start unbalanced");
        assert!(report.finally_balanced, "the elastic array should heal");
        let healed_at = report
            .ops_to_balance
            .expect("the elastic array should stabilize within the run");
        assert!(healed_at <= 20_000);
        let first = &report.samples[0];
        let last = report.samples.last().unwrap();
        assert!(last.batch_fill[1] < first.batch_fill[1]);
        assert_eq!(report.samples.len(), 1 + 20);
    }

    #[test]
    fn elastic_skew_lands_in_the_newest_epoch() {
        use levelarray::{ElasticLevelArray, GrowthPolicy};
        let array = ElasticLevelArray::new(256, GrowthPolicy::Doubling { max_epochs: 4 });
        let mut rng = default_rng(9);
        let spec = UnbalanceSpec::paper_figure3();
        let held = force_unbalanced_elastic(&array, &spec, &mut rng);
        assert!(held.iter().all(|n| n.epoch() == array.newest_epoch()));
        let snap = array.occupancy();
        let b0 = snap.epoch_batch(0, 0).unwrap();
        let b1 = snap.epoch_batch(0, 1).unwrap();
        assert_eq!(
            b0.occupied(),
            (b0.capacity() as f64 * 0.25).round() as usize
        );
        assert_eq!(b1.occupied(), (b1.capacity() as f64 * 0.5).round() as usize);
        assert_eq!(held.len(), snap.total_occupied());
        // The aggregate view starts unbalanced for the contention bound.
        let report = LevelArrayConfig::new(256).balance_report(&array.batchwise_occupancy());
        assert!(!report.is_fully_balanced(), "{report:?}");
        for name in held {
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn hierarchical_healing_restores_balance() {
        // The elastic-of-sharded composition: every epoch of the elastic
        // chain is itself 4 shard cores (256 / shard_group 64).  The skew
        // lands in every shard of the newest epoch, the workload routes
        // workers to home shards via route_hint, and balance is judged on
        // the batch-aggregated census — the same caveat as run_sharded:
        // balance is evaluated over the per-shard geometry's batches.
        use levelarray::GrowthPolicy;
        let experiment = HealingExperiment {
            array: LevelArrayConfig::new(256)
                .growth(GrowthPolicy::Doubling { max_epochs: 4 })
                .shard_group(64),
            workers: 64,
            total_ops: 20_000,
            snapshot_every: 1_000,
            spec: UnbalanceSpec::paper_figure3(),
            seed: 42,
            ghost_release_probability: 0.5,
        };
        let report = experiment.run_elastic();
        assert!(
            !report.initially_balanced,
            "the per-shard skew must aggregate to an unbalanced start"
        );
        assert!(
            report.finally_balanced,
            "the hierarchical array should heal"
        );
        assert!(report.ops_to_balance.expect("should stabilize") <= 20_000);
        let first = &report.samples[0];
        let last = report.samples.last().unwrap();
        assert!(last.batch_fill[1] < first.batch_fill[1]);
    }

    #[test]
    fn hierarchical_skew_hits_every_shard_of_the_newest_epoch() {
        use levelarray::GrowthPolicy;
        // The skew targets slots, not homes, so it must land the same in
        // every shard of the newest epoch.
        let array = LevelArrayConfig::new(256)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .shard_group(64)
            .build_elastic()
            .unwrap();
        assert_eq!(array.newest_epoch_shards(), 4);
        let mut rng = default_rng(9);
        let spec = UnbalanceSpec::paper_figure3();
        let held = force_unbalanced_elastic(&array, &spec, &mut rng);
        let snap = array.batchwise_occupancy();
        // Four shards of bound 64, each skewed like a plain 64-array: the
        // aggregate batch totals carry 4x one shard's skew.
        let b0 = snap.batch(0).unwrap();
        let b1 = snap.batch(1).unwrap();
        let per_shard_geo = array.newest_geometry();
        let shard_b0 = (per_shard_geo.batch_len(0) as f64 * 0.25).round() as usize;
        let shard_b1 = (per_shard_geo.batch_len(1) as f64 * 0.5).round() as usize;
        assert_eq!(b0.occupied(), 4 * shard_b0);
        assert_eq!(b1.occupied(), 4 * shard_b1);
        assert_eq!(held.len(), snap.total_occupied());
        for name in held {
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed the contention bound")]
    fn too_many_workers_rejected() {
        let mut e = HealingExperiment::paper_figure3(8, 1);
        e.workers = 100;
        let _ = e.run();
    }

    #[test]
    fn already_balanced_start_stays_balanced() {
        let experiment = HealingExperiment {
            array: LevelArrayConfig::new(128),
            workers: 32,
            total_ops: 5_000,
            snapshot_every: 500,
            spec: UnbalanceSpec::new(vec![0.1]),
            seed: 3,
            ghost_release_probability: 0.25,
        };
        let report = experiment.run();
        assert!(report.initially_balanced);
        assert!(report.finally_balanced);
        assert_eq!(report.ops_to_balance, Some(0));
    }
}
