//! The sharded LevelArray: per-shard probing cores with work stealing.
//!
//! At high thread counts every `Get` on a single LevelArray hammers the same
//! `2n`-slot main array, so cache-line contention — not probe complexity —
//! becomes the throughput ceiling.  [`ShardedLevelArray`] partitions the
//! contention bound across `S` cache-padded [`ProbeCore`]s: each thread is
//! pinned to a *home shard* on its first `Get` (a sticky per-thread token
//! leased from the array's home pool, reduced modulo `S`, and *recycled on
//! thread exit*, so the assignment stays stable under thread churn) and
//! runs the paper's probing strategy inside that shard alone; only when the
//! home shard is exhausted does it *steal*, walking the remaining shards in
//! ring order (each with the same full probing strategy, backup included).
//! The caller's RNG still drives the probe order inside every shard, home
//! and stolen alike — only the *routing* is sticky, which keeps a thread's
//! hot cache lines inside one shard instead of re-rolling them on every
//! operation.  Shard-local slot indices map into the global dense namespace
//! as `shard * shard_capacity + local`, so uniqueness, `free`, `collect` and
//! `occupancy` all keep the paper's semantics over the union of the shards.
//!
//! The shards, the routing walks, the dense-name split and the aggregated
//! census are a `ShardGroup` — the same type that backs the hierarchical
//! epochs of [`crate::ElasticLevelArray`]; this facade adds the home-token
//! pool, the Free→Get hint and the contention bound.
//!
//! The per-shard contention bound is `⌈n / S⌉`, so the total backup capacity
//! `S · ⌈n / S⌉ ≥ n` preserves the wait-freedom argument: at most `n − 1`
//! other processes hold slots while a `Get` runs, so the steal walk always
//! reaches a shard whose sequential backup has a free slot.

use larng::RandomSource;

use crate::array::{Acquired, ActivityArray};
use crate::backend::ShardGroup;
use crate::config::{ConfigError, LevelArrayConfig};
use crate::geometry::BatchGeometry;
use crate::hint::FreeHint;
use crate::home::HomePool;
use crate::name::Name;
use crate::occupancy::{OccupancySnapshot, Region};
use crate::probe_core::ProbeCore;
use crate::slot::SlotLayout;

/// A LevelArray partitioned into `S` cache-padded shards with work stealing.
///
/// # Examples
///
/// Basic use — identical to [`crate::LevelArray`], through the same
/// [`ActivityArray`] trait:
///
/// ```
/// use levelarray::{ActivityArray, ShardedLevelArray};
/// use larng::default_rng;
///
/// let array = ShardedLevelArray::new(64, 4); // contention bound 64, 4 shards
/// let mut rng = default_rng(1);
///
/// let got = array.get(&mut rng);
/// assert!(array.collect().contains(&got.name()));
/// array.free(got.name());
/// assert!(array.collect().is_empty());
/// ```
///
/// Shared across threads, each pinned to a sticky home shard on first use:
///
/// ```
/// use levelarray::{ActivityArray, ShardedLevelArray};
/// use larng::{default_rng, SeedSequence};
/// use std::sync::Arc;
///
/// let array = Arc::new(ShardedLevelArray::new(16, 4));
/// let mut seeds = SeedSequence::new(7);
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         let array = Arc::clone(&array);
///         let seed = seeds.next_seed();
///         scope.spawn(move || {
///             let mut rng = default_rng(seed);
///             for _ in 0..100 {
///                 let got = array.get(&mut rng);
///                 array.free(got.name());
///             }
///         });
///     }
/// });
/// assert!(array.collect().is_empty());
/// ```
#[derive(Debug)]
pub struct ShardedLevelArray {
    /// The shards, their routing walks and the dense global namespace.
    group: ShardGroup,
    max_concurrency: usize,
    /// The per-thread Free→Get hint `free` arms
    /// ([`LevelArrayConfig::free_hint`]).
    hint: FreeHint,
    /// The churn-stable home-token pool behind [`ShardedLevelArray::home_shard`].
    homes: HomePool,
}

impl ShardedLevelArray {
    /// Creates a sharded array with the paper's default configuration for at
    /// most `max_concurrency` simultaneously registered processes, split over
    /// `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrency == 0` or `shards == 0`.  Use
    /// [`ShardedLevelArray::from_config`] (or
    /// [`LevelArrayConfig::build_sharded`]) for fallible construction and for
    /// non-default parameters.
    pub fn new(max_concurrency: usize, shards: usize) -> Self {
        Self::from_config(&LevelArrayConfig::new(max_concurrency), shards)
            .expect("default configuration is valid for non-zero contention bound and shards")
    }

    /// Builds a sharded array from a shared configuration: the configuration's
    /// contention bound `n` is split into `S` shards of bound `⌈n / S⌉`, each
    /// materialized as an independent [`ProbeCore`] with the configuration's
    /// space factor, probes per batch, backup setting and TAS primitive.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroShards`] if `shards == 0`; otherwise
    /// whatever [`LevelArrayConfig::validate`] reports for the per-shard
    /// configuration.
    pub fn from_config(config: &LevelArrayConfig, shards: usize) -> Result<Self, ConfigError> {
        Ok(ShardedLevelArray {
            group: ShardGroup::build(config, shards)?,
            max_concurrency: config.max_concurrency_value(),
            hint: FreeHint::new(config.free_hint_enabled(), crate::hint::next_array_id()),
            homes: HomePool::new(),
        })
    }

    /// The calling thread's home shard, pinning it on first use by leasing a
    /// token from the array's home pool: the first thread to touch this
    /// array gets token 0, the next token 1, and so on, and a token's shard
    /// is the token modulo the shard count, so a population of `T` threads
    /// spreads evenly over the shards while every thread keeps hammering the
    /// *same* shard's cache lines across operations.
    ///
    /// The assignment is **stable under thread churn**: a departing thread's
    /// token returns to the pool and the next arriving thread recycles it
    /// (most recently vacated first), so a population of at most `T`
    /// concurrent threads only ever occupies tokens `0..T` — short-lived
    /// threads inherit their predecessors' homes instead of marching a
    /// round-robin cursor forward and skewing the long-run placement.
    pub fn home_shard(&self) -> usize {
        self.homes.shard(self.group.num_shards())
    }

    /// Explicitly pins the calling thread's home shard, overriding (or
    /// pre-empting) the round-robin assignment.  Use this to give each
    /// worker a fixed home or, as the single-threaded simulator does, to
    /// emulate a multi-thread population from one OS thread by re-pinning
    /// per simulated worker.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn pin_home(&self, shard: usize) {
        assert!(
            shard < self.group.num_shards(),
            "cannot pin home shard {shard}: the array has {} shards",
            self.group.num_shards()
        );
        self.homes.pin(shard);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.group.num_shards()
    }

    /// Capacity (main + backup slots) of each shard — the stride between
    /// consecutive shards in the global namespace.
    pub fn shard_capacity(&self) -> usize {
        self.group.shard_capacity()
    }

    /// The contention bound each shard was sized for: `⌈n / S⌉`.
    pub fn shard_contention(&self) -> usize {
        self.max_concurrency.div_ceil(self.group.num_shards())
    }

    /// The batch layout shared by every shard's main array.
    pub fn shard_geometry(&self) -> &BatchGeometry {
        self.group.geometry()
    }

    /// The slot representation shared by every shard.
    pub fn slot_layout(&self) -> SlotLayout {
        self.group.core(0).slot_layout()
    }

    /// The sharded `Get`, monomorphized over the caller's random source (see
    /// [`crate::LevelArray::try_get`]): route to the sticky home shard, steal
    /// from the remaining shards in ring order only on local exhaustion.  The
    /// RNG drives the probe order inside every shard visited.  This inherent
    /// method shadows [`ActivityArray::try_get`] for callers holding the
    /// concrete type.
    #[must_use = "dropping the result leaks the acquired name"]
    pub fn try_get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Option<Acquired> {
        if let Some(got) = self.hint.reacquire(|name| self.group.hint_acquire(name)) {
            return Some(got);
        }
        self.group.try_get(rng, self.home_shard())
    }

    /// The batched sharded `Get`, monomorphized over the caller's random
    /// source (see [`ActivityArray::get_many`]): the hint cache is consulted
    /// once, the whole batch is routed through the sticky home shard's
    /// batched kernel ([`ProbeCore::try_get_many`]), and only the unfilled
    /// remainder spills into the ring-order steal walk — one home lookup and
    /// one probe accumulator for the entire batch.
    pub fn get_many<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        out: &mut Vec<Acquired>,
    ) -> usize {
        if k == 0 {
            return 0;
        }
        // A panic mid-walk may leave the hint win and earlier hops' wins in
        // `out` as global names (the panicking shard's kernel rolled back
        // its own); the facade's `free` releases them.
        crate::array::all_or_nothing(
            out,
            |out| {
                let mut acquired = 0usize;
                if let Some(got) = self.hint.reacquire(|name| self.group.hint_acquire(name)) {
                    out.push(got);
                    acquired = 1;
                }
                let (home, mut probes) = (self.home_shard(), 0u32);
                let won = self
                    .group
                    .try_get_many(rng, home, k - acquired, &mut probes, out);
                acquired + won
            },
            |name| ActivityArray::free(self, name),
        )
    }

    /// Registers through the monomorphized hot path, panicking if every
    /// shard is exhausted (same contract as [`ActivityArray::get`]).
    ///
    /// # Panics
    ///
    /// Panics if no free slot could be acquired, i.e. the caller violated the
    /// contention bound.
    pub fn get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Acquired {
        self.try_get(rng)
            .unwrap_or_else(|| crate::array::exhausted(self))
    }

    /// The probing core of shard `shard` (local names only).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_core(&self, shard: usize) -> &ProbeCore {
        self.group.core(shard)
    }

    /// The shard that owns the global `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is epoch-tagged or out of range.
    pub fn shard_of(&self, name: Name) -> usize {
        self.group.split(name).0
    }

    /// Whether `free` arms the per-thread Free→Get hint cache.
    pub fn free_hint_enabled(&self) -> bool {
        self.hint.is_enabled()
    }

    /// Directly occupies a specific slot of the global namespace, bypassing
    /// the probing strategy (test/experiment hook, exactly like
    /// [`crate::LevelArray::force_occupy`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range.
    #[must_use = "a false return means the slot was already held; ignoring it leaks the intent"]
    pub fn force_occupy(&self, name: Name) -> bool {
        self.group.force_occupy(name)
    }

    /// Reads whether a specific global slot is currently held.
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range.
    pub fn is_held(&self, name: Name) -> bool {
        self.group.is_held(name)
    }

    /// Whether the global `name` lies in some shard's backup array.
    ///
    /// # Panics
    ///
    /// Panics if `name` is epoch-tagged or out of range.
    pub fn is_backup_name(&self, name: Name) -> bool {
        let (core, local) = self.group.locate(name);
        core.is_backup_name(local)
    }

    /// The batch-aggregated census: per-batch totals summed *across* shards
    /// (batch `i` of every shard folded into one [`Region::Batch`] entry,
    /// likewise the backups), so the paper's balance definitions — which are
    /// predicates over batch totals for contention bound `n` — apply to the
    /// sharded layout unchanged.  [`ActivityArray::occupancy`] reports the
    /// finer per-shard census instead.
    pub fn batchwise_occupancy(&self) -> OccupancySnapshot {
        OccupancySnapshot::new(self.group.region_occupancies(|region| region))
    }
}

impl ActivityArray for ShardedLevelArray {
    fn algorithm_name(&self) -> &'static str {
        "ShardedLevelArray"
    }

    fn try_get(&self, rng: &mut dyn RandomSource) -> Option<Acquired> {
        ShardedLevelArray::try_get(self, rng)
    }

    fn get_many(&self, rng: &mut dyn RandomSource, k: usize, out: &mut Vec<Acquired>) -> usize {
        ShardedLevelArray::get_many(self, rng, k, out)
    }

    fn free(&self, name: Name) {
        self.group.free(name);
        self.hint.record(name);
    }

    fn free_many(&self, names: &[Name]) {
        self.group.free_many(names);
        self.hint.record_last(names);
    }

    fn route_hint(&self, participant: usize) {
        self.pin_home(participant % self.num_shards());
    }

    fn collect(&self) -> Vec<Name> {
        let mut held = Vec::new();
        ActivityArray::collect_into(self, &mut held);
        held
    }

    fn collect_into(&self, out: &mut Vec<Name>) {
        self.group.collect_into(0, out);
    }

    fn capacity(&self) -> usize {
        self.group.capacity()
    }

    fn max_participants(&self) -> usize {
        self.max_concurrency
    }

    fn occupancy(&self) -> OccupancySnapshot {
        let mut regions = Vec::new();
        for (shard, core) in self.group.cores().enumerate() {
            regions.extend(core.region_occupancies(|region| match region {
                Region::Batch(batch) => Region::ShardBatch { shard, batch },
                Region::Backup => Region::ShardBackup(shard),
                other => other,
            }));
        }
        OccupancySnapshot::new(regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PaddedCore;
    use crate::config::LevelArrayConfig;
    use larng::{default_rng, SequenceRng};
    use std::collections::HashSet;

    #[test]
    fn dimensions_split_the_contention_bound() {
        let array = ShardedLevelArray::new(64, 4);
        assert_eq!(array.num_shards(), 4);
        assert_eq!(array.shard_contention(), 16);
        assert_eq!(array.shard_capacity(), 16 * 2 + 16);
        assert_eq!(array.capacity(), 4 * 48);
        assert_eq!(array.max_participants(), 64);
        assert_eq!(array.algorithm_name(), "ShardedLevelArray");
        assert!(array.collect().is_empty());
    }

    #[test]
    fn uneven_split_rounds_the_shard_bound_up() {
        let array = ShardedLevelArray::new(10, 3);
        assert_eq!(array.shard_contention(), 4);
        // Total backup (3 * 4 = 12) covers the contention bound (10).
        let backup_total: usize = (0..3).map(|s| array.shard_core(s).backup_len()).sum();
        assert!(backup_total >= 10);
    }

    #[test]
    fn zero_shards_and_zero_concurrency_are_rejected() {
        assert_eq!(
            ShardedLevelArray::from_config(&LevelArrayConfig::new(8), 0).unwrap_err(),
            ConfigError::ZeroShards
        );
        assert_eq!(
            ShardedLevelArray::from_config(&LevelArrayConfig::new(0), 2).unwrap_err(),
            ConfigError::ZeroConcurrency
        );
    }

    #[test]
    fn get_free_round_trip() {
        let array = ShardedLevelArray::new(16, 4);
        let mut rng = default_rng(3);
        let got = array.get(&mut rng);
        assert!(got.probes() >= 1);
        assert!(array.is_held(got.name()));
        assert_eq!(array.collect(), vec![got.name()]);
        array.free(got.name());
        assert!(!array.is_held(got.name()));
        assert!(array.collect().is_empty());
    }

    #[test]
    fn global_names_are_unique_while_held() {
        let array = ShardedLevelArray::new(32, 4);
        let mut rng = default_rng(4);
        let mut held = HashSet::new();
        for _ in 0..32 {
            let got = array.get(&mut rng);
            assert!(held.insert(got.name()), "duplicate name {}", got.name());
            assert!(got.name().index() < array.capacity());
        }
        assert_eq!(array.collect().len(), 32);
        for name in held {
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn full_capacity_is_reachable_across_shards() {
        // Repeated try_get must eventually hand out *every* slot of every
        // shard exactly once — the steal path covers shards whose own
        // namespace is exhausted.
        let array = ShardedLevelArray::new(8, 2);
        let mut rng = default_rng(5);
        let mut held = HashSet::new();
        for _ in 0..100_000 {
            if held.len() == array.capacity() {
                break;
            }
            if let Some(got) = array.try_get(&mut rng) {
                assert!(held.insert(got.name()), "duplicate name {}", got.name());
            }
        }
        assert_eq!(held.len(), array.capacity());
        assert!(array.try_get(&mut rng).is_none());
    }

    #[test]
    fn steal_path_walks_to_the_next_shard() {
        // Fill shard 0 completely; the calling thread is the first to touch
        // this array so its sticky token pins it to shard 0.  The Get must
        // steal from shard 1, charging shard 0's full deterministic probe
        // budget on the way.
        let array = ShardedLevelArray::new(8, 2);
        assert_eq!(array.home_shard(), 0, "first thread pins shard 0");
        let cap = array.shard_capacity();
        for local in 0..cap {
            assert!(array.force_occupy(Name::new(local)));
        }
        let core0 = array.shard_core(0);
        // Script: one raw value per randomized probe in shard 0 (each aimed
        // at slot 0 of its batch, which is held and loses), then shard 1's
        // first probe (slot 0 of batch 0, free, wins).
        let mut script = Vec::new();
        for b in 0..core0.geometry().num_batches() {
            let len = core0.geometry().batch_len(b) as u64;
            for _ in 0..core0.probes_per_batch() {
                script.push(larng::mock::raw_for_index(0, len));
            }
        }
        script.push(larng::mock::raw_for_index(
            0,
            array.shard_core(1).geometry().batch_len(0) as u64,
        ));
        let mut rng = SequenceRng::new(script);

        let got = array.get(&mut rng);
        assert_eq!(array.shard_of(got.name()), 1, "must have stolen");
        assert_eq!(got.probes(), core0.exhausted_probe_count() + 1);
        assert_eq!(got.batch(), Some(0));
        assert!(!got.used_backup());
    }

    #[test]
    fn home_shard_is_sticky_and_assigned_round_robin() {
        use std::sync::{Arc, Barrier};

        let shards = 4;
        let array = Arc::new(ShardedLevelArray::new(32, shards));
        // Round-robin pinning: the first `shards` threads get distinct homes,
        // and a thread keeps its home across operations.
        let barrier = Arc::new(Barrier::new(shards));
        let homes: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|t| {
                    let array = Arc::clone(&array);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let home = array.home_shard();
                        let again = array.home_shard();
                        // Hold every lease until all threads have theirs: a
                        // thread that exited early would return its token
                        // for a later arrival to recycle (the churn
                        // invariant), collapsing the distinct-homes check.
                        barrier.wait();
                        let mut rng = default_rng(40 + t as u64);
                        // On an empty array the Get lands in the home shard.
                        let got = array.get(&mut rng);
                        let landed = array.shard_of(got.name());
                        array.free(got.name());
                        (home, again, landed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = HashSet::new();
        for (home, again, landed) in homes {
            assert_eq!(home, again, "the token must be sticky");
            assert_eq!(home, landed, "an uncontended Get stays in its home");
            assert!(seen.insert(home), "round-robin homes must be distinct");
        }
        assert_eq!(seen.len(), shards);
    }

    #[test]
    fn home_assignment_is_stable_under_thread_churn() {
        use std::sync::Arc;

        // A sequence of short-lived threads (arrive, Get/Free, depart) must
        // all inherit the same home: each departing thread's token returns
        // to the pool, so the successor recycles it instead of advancing to
        // a fresh token and drifting across the shards.
        let array = Arc::new(ShardedLevelArray::new(32, 4));
        let homes: Vec<usize> = (0..8)
            .map(|t| {
                let array = Arc::clone(&array);
                std::thread::spawn(move || {
                    let mut rng = default_rng(300 + t as u64);
                    let home = array.home_shard();
                    let got = array.get(&mut rng);
                    array.free(got.name());
                    home
                })
                .join()
                .unwrap()
            })
            .collect();
        assert!(
            homes.windows(2).all(|w| w[0] == w[1]),
            "churned threads must recycle the vacated home token, got {homes:?}"
        );
    }

    #[test]
    fn occupancy_reports_per_shard_regions() {
        let array = ShardedLevelArray::new(32, 4);
        let mut rng = default_rng(6);
        for _ in 0..24 {
            let _ = array.get(&mut rng);
        }
        let snap = array.occupancy();
        assert_eq!(snap.num_shards(), 4);
        assert_eq!(snap.total_capacity(), array.capacity());
        assert_eq!(snap.total_occupied(), array.collect().len());
        // Every shard contributes its batch regions plus a backup region.
        let per_shard = array.shard_geometry().num_batches() + 1;
        assert_eq!(snap.regions().len(), 4 * per_shard);
        assert!(snap.shard_batch(0, 0).is_some());
        assert!(snap.shard_backup(3).is_some());
        // The aggregate view folds the shards back into plain batches.
        let agg = array.batchwise_occupancy();
        assert_eq!(agg.num_shards(), 0);
        assert_eq!(agg.total_capacity(), array.capacity());
        assert_eq!(agg.total_occupied(), snap.total_occupied());
        assert_eq!(agg.num_batches(), array.shard_geometry().num_batches());
        for batch in 0..agg.num_batches() {
            let total: usize = (0..4)
                .map(|s| snap.shard_batch(s, batch).map_or(0, |r| r.occupied()))
                .sum();
            assert_eq!(agg.batch(batch).unwrap().occupied(), total);
        }
    }

    #[test]
    fn generic_balance_consumers_see_the_sharded_census() {
        // The trait-level occupancy() feeds the same balance machinery the
        // plain array uses: per-shard regions aggregate, so a generic
        // consumer holding only a `dyn ActivityArray` judges balance
        // identically to the explicit batchwise view.
        use crate::balance::BalanceReport;
        let n = 256;
        let array = ShardedLevelArray::new(n, 4);
        let mut rng = default_rng(10);
        for _ in 0..n / 2 {
            let _ = array.get(&mut rng);
        }
        let per_shard = array.occupancy();
        let agg = array.batchwise_occupancy();
        assert_eq!(per_shard.num_batches(), agg.num_batches());
        assert_eq!(per_shard.batch_fill_fractions(), agg.batch_fill_fractions());
        let from_per_shard = BalanceReport::from_snapshot(&per_shard, n);
        let from_agg = BalanceReport::from_snapshot(&agg, n);
        assert_eq!(from_per_shard.batches(), from_agg.batches());
        assert_eq!(
            from_per_shard.is_fully_balanced(),
            from_agg.is_fully_balanced()
        );
    }

    #[test]
    fn single_shard_behaves_like_a_level_array() {
        let sharded = ShardedLevelArray::new(16, 1);
        let plain = crate::LevelArray::new(16);
        assert_eq!(sharded.capacity(), plain.capacity());
        assert_eq!(sharded.shard_geometry(), plain.geometry());
        let mut rng = default_rng(8);
        let mut held = Vec::new();
        for _ in 0..16 {
            held.push(sharded.get(&mut rng).name());
        }
        assert_eq!(sharded.collect().len(), 16);
        for name in held {
            sharded.free(name);
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let array = ShardedLevelArray::new(8, 2);
        let mut rng = default_rng(9);
        let got = array.get(&mut rng);
        array.free(got.name());
        array.free(got.name());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn free_of_out_of_range_name_panics() {
        let array = ShardedLevelArray::new(8, 2);
        array.free(Name::new(1_000_000));
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn free_of_epoch_tagged_name_panics() {
        let array = ShardedLevelArray::new(8, 2);
        array.free(Name::with_epoch(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn is_backup_name_rejects_an_out_of_range_name() {
        let _ = ShardedLevelArray::new(16, 1).is_backup_name(Name::new(1_000_000));
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn is_backup_name_rejects_a_tagged_name() {
        let _ = ShardedLevelArray::new(16, 1).is_backup_name(Name::with_epoch(1, 0));
    }

    /// Frees `[held, bad]` in one batch and asserts that the batch panics
    /// without releasing `held`: every name is checked before any is freed.
    fn assert_bad_batch_releases_nothing(bad: fn(&ShardedLevelArray) -> Name) {
        let array = ShardedLevelArray::new(8, 2);
        let held = array.get(&mut default_rng(12)).name();
        let batch = [held, bad(&array)];
        let result = std::panic::catch_unwind(|| array.free_many(&batch));
        assert!(result.is_err(), "the bad name must panic");
        assert!(
            array.is_held(held),
            "the batch released {held} before it panicked"
        );
        assert_eq!(array.collect(), vec![held]);
    }

    #[test]
    fn free_many_with_an_out_of_range_name_releases_nothing() {
        assert_bad_batch_releases_nothing(|array| Name::new(array.capacity() + 5));
    }

    #[test]
    fn free_many_with_an_epoch_tagged_name_releases_nothing() {
        assert_bad_batch_releases_nothing(|_| Name::with_epoch(1, 0));
    }

    #[test]
    fn free_hint_rewins_the_freed_global_slot_in_one_probe() {
        let off = ShardedLevelArray::new(8, 2);
        assert!(!off.free_hint_enabled(), "the hint defaults off");

        let array =
            ShardedLevelArray::from_config(&LevelArrayConfig::new(8).free_hint(true), 2).unwrap();
        assert!(array.free_hint_enabled());
        let mut rng = default_rng(77);
        let got = array.get(&mut rng);
        let name = got.name();
        array.free(name);
        let again = array.get(&mut rng);
        assert_eq!(again.name(), name, "the hint re-wins the freed slot");
        assert_eq!(again.probes(), 1);
        // A stolen hint falls through to the probe path without duplicating.
        array.free(name);
        assert!(array.force_occupy(name));
        let other = array.get(&mut rng);
        assert_ne!(other.name(), name);
    }

    #[test]
    fn shards_are_cache_padded() {
        assert_eq!(std::mem::align_of::<PaddedCore>(), 128);
        assert_eq!(std::mem::size_of::<PaddedCore>() % 128, 0);
    }

    #[test]
    fn concurrent_get_free_never_duplicates_names() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let n = 16;
        let array = Arc::new(ShardedLevelArray::new(n, 4));
        let owned: Arc<Vec<AtomicBool>> = Arc::new(
            (0..array.capacity())
                .map(|_| AtomicBool::new(false))
                .collect(),
        );
        std::thread::scope(|scope| {
            for t in 0..n {
                let array = Arc::clone(&array);
                let owned = Arc::clone(&owned);
                scope.spawn(move || {
                    let mut rng = default_rng(2000 + t as u64);
                    for _ in 0..2_000 {
                        let got = array.get(&mut rng);
                        let idx = got.name().index();
                        assert!(
                            !owned[idx].swap(true, Ordering::SeqCst),
                            "slot {idx} handed to two threads at once"
                        );
                        owned[idx].store(false, Ordering::SeqCst);
                        array.free(got.name());
                    }
                });
            }
        });
        assert!(array.collect().is_empty());
    }
}
