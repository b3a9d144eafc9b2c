//! Sharded storage: [`ShardGroup`], the storage of the sharded facade and
//! of every elastic epoch cell.
//!
//! [`ShardGroup`] is the one sharding implementation in the crate: `S`
//! [`ProbeCore`]s over a dense namespace `shard · shard_capacity + local`,
//! with sticky home routing, the ring-order steal walk, batch spill, the
//! slot operations and the aggregated census.
//! [`crate::ShardedLevelArray`] is a `ShardGroup` plus a home-token pool,
//! and every epoch cell of [`crate::ElasticLevelArray`] stores one.
//!
//! The elastic array composes the repo's two scaling mechanisms one level
//! deep each: the epoch chain grows the *contention bound*, and — with
//! [`crate::LevelArrayConfig::shard_group`] set — every epoch's storage is
//! itself split into shard cores so the *memory traffic* of a big epoch
//! stays spread out.  [`ShardGroup::for_epoch`] gives a cell of contention
//! `C` `⌈C / g⌉` shards for group size `g`, and one shard when `g == 0`
//! (a flat epoch).  Doubling the chain therefore *adds shard groups*
//! instead of doubling one contended slab.  A one-shard group stores its
//! core inline, and its dense and local namespaces coincide, so its `Get`s,
//! `Free`s, `is_held` and hint go straight to the core: a flat epoch pays
//! no allocation, no split and no remap for being a group.
//!
//! The epoch tag plus the dense index (`Name::with_epoch(epoch, dense)`)
//! routes every `Free`/`is_held`/hint unambiguously through both levels
//! without a lookup table.

use crate::array::Acquired;
use crate::config::{ConfigError, LevelArrayConfig};
use crate::geometry::BatchGeometry;
use crate::name::Name;
use crate::occupancy::{Region, RegionOccupancy};
use crate::probe_core::ProbeCore;
use larng::RandomSource;

/// One shard core, padded to two cache lines so that the hot atomic traffic
/// of neighbouring shards' slots never shares a line with this shard's
/// metadata.  (The slots *within* a shard are deliberately unpadded, exactly
/// like the plain LevelArray — see [`crate::slot::Slot`].)
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct PaddedCore(ProbeCore);

/// The cores of a [`ShardGroup`].  One core is stored inline and unpadded:
/// there is no neighbouring shard to pad it against, and a flat epoch then
/// costs no allocation beyond its core's own, exactly like a bare core.
#[derive(Debug)]
enum Cores {
    Single(ProbeCore),
    Padded(Box<[PaddedCore]>),
}

/// `S` probing cores sharing one dense namespace: shard `s`'s local slot
/// `i` is the dense name `s · shard_capacity + i`.  Two or more cores are
/// cache-padded.
#[derive(Debug)]
pub(crate) struct ShardGroup {
    cores: Cores,
    /// Capacity of each shard — the stride of the dense namespace.
    shard_capacity: usize,
    /// Cached cost of exhausting *every* shard (the steal walk's full
    /// deterministic probe budget).
    exhausted_probes: u32,
}

impl ShardGroup {
    /// Splits `config`'s contention bound `n` over `shards` cores of bound
    /// `⌈n / S⌉` each, every one built with the configuration's space
    /// factor, probe policy, backup setting, TAS primitive and slot layout.
    /// The total backup `S · ⌈n / S⌉ ≥ n` keeps the paper's wait-freedom
    /// argument: the steal walk always reaches a shard whose backup has a
    /// free slot while at most `n` names are held.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroShards`] if `shards == 0`; otherwise
    /// whatever [`LevelArrayConfig::validate`] reports for the per-shard
    /// configuration.
    pub(crate) fn build(config: &LevelArrayConfig, shards: usize) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Self::split_bound(config, config.max_concurrency_value(), shards)
    }

    /// The storage of an epoch cell of bound `contention`, built from the
    /// elastic array's shared base configuration: `⌈C / g⌉` shards for
    /// [`LevelArrayConfig::shard_group`] `g`, one shard when `g == 0`.
    ///
    /// # Errors
    ///
    /// Whatever [`LevelArrayConfig::validate`] reports for the per-shard
    /// configuration.
    pub(crate) fn for_epoch(
        base: &LevelArrayConfig,
        contention: usize,
    ) -> Result<Self, ConfigError> {
        let shards = match base.shard_group_value() {
            0 => 1,
            group => contention.div_ceil(group).max(1),
        };
        Self::split_bound(base, contention, shards)
    }

    /// `shards ≥ 1` cores of bound `⌈contention / shards⌉` each.  A
    /// one-shard group is built with no more work than a bare core: one
    /// configuration clone and no allocation of its own.
    fn split_bound(
        config: &LevelArrayConfig,
        contention: usize,
        shards: usize,
    ) -> Result<Self, ConfigError> {
        let per_shard = config
            .clone()
            .with_contention(contention.div_ceil(shards))
            .validate()?;
        let mut group = ShardGroup {
            cores: if shards == 1 {
                Cores::Single(per_shard.into_probe_core())
            } else {
                Cores::Padded(
                    (0..shards)
                        .map(|_| PaddedCore(per_shard.clone().into_probe_core()))
                        .collect(),
                )
            },
            shard_capacity: 0,
            exhausted_probes: 0,
        };
        group.shard_capacity = group.core(0).capacity();
        group.exhausted_probes = group.cores().map(ProbeCore::exhausted_probe_count).sum();
        Ok(group)
    }

    /// Number of shard cores.
    pub(crate) fn num_shards(&self) -> usize {
        match &self.cores {
            Cores::Single(_) => 1,
            Cores::Padded(shards) => shards.len(),
        }
    }

    /// Capacity of each shard — the stride of the dense namespace.
    pub(crate) fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Total slots across all shards.
    pub(crate) fn capacity(&self) -> usize {
        self.shard_capacity * self.num_shards()
    }

    /// The probing core of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub(crate) fn core(&self, shard: usize) -> &ProbeCore {
        self.cores()
            .nth(shard)
            .unwrap_or_else(|| panic!("shard {shard} out of range"))
    }

    /// The shard cores in shard order.
    pub(crate) fn cores(&self) -> impl Iterator<Item = &ProbeCore> {
        let (single, padded) = match &self.cores {
            Cores::Single(core) => (Some(core), &[][..]),
            Cores::Padded(shards) => (None, &shards[..]),
        };
        single
            .into_iter()
            .chain(padded.iter().map(|padded| &padded.0))
    }

    /// The batch layout every shard's main array shares.
    pub(crate) fn geometry(&self) -> &BatchGeometry {
        self.core(0).geometry()
    }

    /// The full deterministic probe budget of a failed `Get` (every shard
    /// exhausted, backups included).
    pub(crate) fn exhausted_probe_count(&self) -> u32 {
        self.exhausted_probes
    }

    /// Maps shard `shard`'s local win into the dense namespace, adding the
    /// `skipped` probes charged by the shards walked before it.
    #[inline]
    fn remap(&self, shard: usize, local: Acquired, skipped: u32) -> Acquired {
        Acquired::new(
            Name::new(shard * self.shard_capacity + local.name().index()),
            skipped + local.probes(),
            local.batch(),
            local.used_backup(),
        )
    }

    /// The paper's `Get` over the group: run the full probing strategy in
    /// the `home` shard, and only when it is exhausted steal from the
    /// others in ring order (each with the same strategy, backup included),
    /// charging every exhausted shard's full probe budget.  The caller's
    /// RNG drives the probe order in every shard visited.  Returns a dense
    /// name.
    #[inline]
    pub(crate) fn try_get<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        home: usize,
    ) -> Option<Acquired> {
        let shards = match &self.cores {
            Cores::Single(core) => return core.try_get(rng),
            Cores::Padded(shards) => shards,
        };
        debug_assert!(home < shards.len());
        let mut shard = home;
        let mut probes = 0u32;
        for _ in 0..shards.len() {
            let core = &shards[shard].0;
            match core.try_get(rng) {
                Some(local) => return Some(self.remap(shard, local, probes)),
                None => probes += core.exhausted_probe_count(),
            }
            shard = next_shard(shard, shards.len());
        }
        None
    }

    /// The batched `Get` over the group (see [`ProbeCore::try_get_many`]):
    /// the whole batch goes through the `home` shard's batched kernel first
    /// and only the unfilled remainder spills into the ring-order steal
    /// walk, threading the probe accumulator through every core walked.
    /// Appends up to `k` dense names to `out` and returns how many.
    #[inline]
    pub(crate) fn try_get_many<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        home: usize,
        k: usize,
        probes: &mut u32,
        out: &mut Vec<Acquired>,
    ) -> usize {
        let shards = match &self.cores {
            Cores::Single(core) => return core.try_get_many(rng, k, probes, out),
            Cores::Padded(shards) => shards,
        };
        debug_assert!(home < shards.len());
        let mut shard = home;
        let mut remaining = k;
        for _ in 0..shards.len() {
            if remaining == 0 {
                break;
            }
            let before = out.len();
            remaining -= shards[shard].0.try_get_many(rng, remaining, probes, out);
            // Shard 0's local names are already dense.
            if shard != 0 {
                for got in &mut out[before..] {
                    *got = self.remap(shard, *got, 0);
                }
            }
            shard = next_shard(shard, shards.len());
        }
        k - remaining
    }

    /// Splits a dense name into `(shard, local name)`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` carries an epoch tag (it would otherwise alias a
    /// slot through `index() mod shard_capacity`) or lies past the last
    /// shard.
    #[inline]
    pub(crate) fn split(&self, dense: Name) -> (usize, Name) {
        assert_eq!(
            dense.epoch(),
            0,
            "a shard group handles only dense (epoch-0) names, got {dense}"
        );
        let shard = dense.index() / self.shard_capacity;
        assert!(
            shard < self.num_shards(),
            "name {} out of range for a {}-shard group of capacity {}",
            dense.index(),
            self.num_shards(),
            self.capacity()
        );
        (shard, Name::new(dense.index() % self.shard_capacity))
    }

    /// The core owning a dense name, and the name's local index there.  A
    /// one-shard group passes the name through unchanged and leaves the
    /// checks to the core.
    ///
    /// # Panics
    ///
    /// As [`ShardGroup::split`], or when the core rejects the name.
    #[inline]
    pub(crate) fn locate(&self, dense: Name) -> (&ProbeCore, Name) {
        let shards = match &self.cores {
            Cores::Single(core) => return (core, dense),
            Cores::Padded(shards) => shards,
        };
        let (shard, local) = self.split(dense);
        (&shards[shard].0, local)
    }

    /// Releases a dense slot.
    ///
    /// # Panics
    ///
    /// Panics on a tagged or out-of-range name, or a double free.
    #[inline]
    pub(crate) fn free(&self, dense: Name) {
        let (core, local) = self.locate(dense);
        core.free(local);
    }

    /// The batched `Free`: sorts the dense names once, splits them into
    /// per-shard runs and releases each run through the owning core's bulk
    /// kernel ([`ProbeCore::free_many`]); a one-shard group hands the batch
    /// to its core unsorted.  Like that kernel, it checks every name before
    /// it releases any, so a bad name leaves the whole batch held.
    ///
    /// # Panics
    ///
    /// Panics on a tagged or out-of-range name, or a double free.
    pub(crate) fn free_many(&self, names: &[Name]) {
        let shards = match &self.cores {
            Cores::Single(core) => return core.free_many(names),
            Cores::Padded(shards) => shards,
        };
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        // The order is epoch-major, so the largest name is the one to check:
        // if it is an in-range epoch-0 name, so is every other.
        if let Some(&last) = sorted.last() {
            self.split(last);
        }
        let mut start = 0;
        while start < sorted.len() {
            let shard = sorted[start].index() / self.shard_capacity;
            let base = shard * self.shard_capacity;
            let end =
                start + sorted[start..].partition_point(|n| n.index() < base + self.shard_capacity);
            for name in &mut sorted[start..end] {
                *name = Name::new(name.index() - base);
            }
            shards[shard].0.free_many(&sorted[start..end]);
            start = end;
        }
    }

    /// Directly occupies a dense slot, bypassing the probing strategy
    /// (test/experiment hook).  `false` means the slot was already held.
    ///
    /// # Panics
    ///
    /// Panics on a tagged or out-of-range name.
    pub(crate) fn force_occupy(&self, dense: Name) -> bool {
        let (core, local) = self.locate(dense);
        core.force_occupy(local)
    }

    /// Whether a dense slot is currently held.
    ///
    /// # Panics
    ///
    /// Panics on a tagged or out-of-range name.
    pub(crate) fn is_held(&self, dense: Name) -> bool {
        let (core, local) = self.locate(dense);
        core.is_held(local)
    }

    /// One test-and-set on the hinted dense slot (see
    /// [`ProbeCore::hint_acquire`]); stale hints (tagged, out of range) are
    /// rejected, never panic.
    pub(crate) fn hint_acquire(&self, dense: Name) -> Option<Acquired> {
        let shards = match &self.cores {
            Cores::Single(core) => return core.hint_acquire(dense),
            Cores::Padded(shards) => shards,
        };
        if dense.epoch() != 0 {
            return None;
        }
        let shard = dense.index() / self.shard_capacity;
        let got = shards
            .get(shard)?
            .0
            .hint_acquire(Name::new(dense.index() % self.shard_capacity))?;
        Some(self.remap(shard, got, 0))
    }

    /// Appends every held slot's dense name, tagged `epoch`, to `out` in
    /// dense order, shard by shard, through each core's own `Collect`
    /// ([`ProbeCore::collect_tagged_into`]).  The sharded facade passes
    /// epoch 0; an elastic epoch cell passes its own tag.
    pub(crate) fn collect_into(&self, epoch: usize, out: &mut Vec<Name>) {
        for (shard, core) in self.cores().enumerate() {
            core.collect_tagged_into(epoch, shard * self.shard_capacity, out);
        }
    }

    /// Whether any slot of any shard is held.
    pub(crate) fn any_held(&self) -> bool {
        self.cores().any(ProbeCore::any_held)
    }

    /// Held slots in batch `i`, summed across shards.
    pub(crate) fn batch_occupancy(&self, i: usize) -> usize {
        self.cores().map(|core| core.batch_occupancy(i)).sum()
    }

    /// Capacity of batch `i`, summed across shards.
    pub(crate) fn batch_capacity(&self, i: usize) -> usize {
        self.geometry().batch_len(i) * self.num_shards()
    }

    /// Total backup slots across shards.
    pub(crate) fn backup_capacity(&self) -> usize {
        self.cores().map(ProbeCore::backup_len).sum()
    }

    /// Held backup slots, summed across shards.
    pub(crate) fn backup_occupancy(&self) -> usize {
        self.cores().map(ProbeCore::backup_occupancy).sum()
    }

    /// The aggregated census: batch `i` of every shard folded into one
    /// region, likewise the backups (one region per batch plus one backup
    /// region, whatever the shard count), relabelled through `label`.  The
    /// paper's balance definitions — predicates over batch totals — apply
    /// to it unchanged.
    pub(crate) fn region_occupancies(
        &self,
        label: impl Fn(Region) -> Region,
    ) -> Vec<RegionOccupancy> {
        let mut regions: Vec<RegionOccupancy> = (0..self.geometry().num_batches())
            .map(|batch| {
                RegionOccupancy::new(
                    label(Region::Batch(batch)),
                    self.batch_capacity(batch),
                    self.batch_occupancy(batch),
                )
            })
            .collect();
        let backup_capacity = self.backup_capacity();
        if backup_capacity > 0 {
            regions.push(RegionOccupancy::new(
                label(Region::Backup),
                backup_capacity,
                self.backup_occupancy(),
            ));
        }
        regions
    }
}

/// The shard after `shard` in a ring of `num_shards`, without a division.
#[inline]
fn next_shard(shard: usize, num_shards: usize) -> usize {
    if shard + 1 == num_shards {
        0
    } else {
        shard + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;
    use std::collections::HashSet;

    fn sharded_backend(n: usize, group: usize) -> ShardGroup {
        ShardGroup::for_epoch(&LevelArrayConfig::new(n).shard_group(group), n).unwrap()
    }

    /// A one-shard group (a flat epoch) and a bare core of the same bound.
    fn flat_pair(n: usize) -> (ShardGroup, ProbeCore) {
        let config = LevelArrayConfig::new(n);
        let group = ShardGroup::for_epoch(&config, n).unwrap();
        (group, config.validate().unwrap().into_probe_core())
    }

    #[test]
    fn zero_group_builds_flat() {
        let backend = ShardGroup::for_epoch(&LevelArrayConfig::new(16), 16).unwrap();
        assert_eq!(backend.num_shards(), 1);
        assert_eq!(backend.capacity(), 16 * 2 + 16);
        assert_eq!(backend.shard_capacity(), backend.capacity());
    }

    #[test]
    fn group_size_sets_the_shard_count() {
        // Contention 64, groups of 16: 4 shards of bound 16 each.
        let backend = sharded_backend(64, 16);
        assert_eq!(backend.num_shards(), 4);
        assert_eq!(backend.shard_capacity(), 16 * 2 + 16);
        assert_eq!(backend.capacity(), 4 * 48);
        // A contention no bigger than the group stays single-shard.
        let small = sharded_backend(8, 16);
        assert_eq!(small.num_shards(), 1);
        // Uneven splits round the shard bound up.
        let uneven = sharded_backend(40, 16);
        assert_eq!(uneven.num_shards(), 3);
        assert_eq!(uneven.geometry().main_len(), 14 * 2);
    }

    #[test]
    fn dense_namespace_round_trips_across_shards() {
        let backend = sharded_backend(32, 8);
        assert_eq!(backend.num_shards(), 4);
        let mut rng = default_rng(5);
        let mut held = HashSet::new();
        // Fill everything through every home shard; names must be unique
        // and dense.
        for home in 0..backend.num_shards() {
            for _ in 0..backend.capacity() {
                if let Some(got) = backend.try_get(&mut rng, home) {
                    assert!(got.name().index() < backend.capacity());
                    assert!(held.insert(got.name()), "duplicate {}", got.name());
                }
            }
        }
        assert_eq!(held.len(), backend.capacity());
        assert!(backend.try_get(&mut rng, 0).is_none());
        assert!(backend.any_held());
        // Collect lists exactly the dense names handed out, in order.
        let mut seen = Vec::new();
        backend.collect_into(0, &mut seen);
        let mut expected: Vec<Name> = held.iter().copied().collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
        // Free them all back through the dense namespace.
        for name in held {
            backend.free(name);
        }
        assert!(!backend.any_held());
    }

    #[test]
    fn frees_and_hints_route_to_the_owning_shard() {
        let backend = sharded_backend(32, 8);
        let mut rng = default_rng(6);
        let got = backend.try_get(&mut rng, 2).expect("empty backend");
        let name = got.name();
        assert!(backend.is_held(name));
        backend.free(name);
        assert!(!backend.is_held(name));
        // The hint re-wins exactly the freed dense slot.
        let again = backend.hint_acquire(name).expect("free slot");
        assert_eq!(again.name(), name);
        // A held slot rejects the hint; an out-of-range dense index is
        // rejected, not a panic.
        assert!(backend.hint_acquire(name).is_none());
        assert!(backend
            .hint_acquire(Name::new(backend.capacity() * 4))
            .is_none());
        backend.free(name);
    }

    #[test]
    fn occupancy_aggregates_across_the_group() {
        let backend = sharded_backend(64, 16);
        // Occupy slot 0 of every shard: batch 0 of the aggregate census
        // holds 4.
        for shard in 0..backend.num_shards() {
            assert!(backend.force_occupy(Name::new(shard * backend.shard_capacity())));
        }
        assert_eq!(backend.batch_occupancy(0), 4);
        assert_eq!(
            backend.batch_capacity(0),
            backend.geometry().batch_len(0) * 4
        );
        assert_eq!(backend.backup_capacity(), 4 * 16);
        assert_eq!(backend.backup_occupancy(), 0);
        let regions = backend.region_occupancies(|r| r);
        assert_eq!(
            regions.len(),
            backend.geometry().num_batches() + 1,
            "one region per batch plus the backup, whatever the shard count"
        );
        assert_eq!(regions[0].occupied(), 4);
        let total: usize = regions.iter().map(|r| r.capacity()).sum();
        assert_eq!(total, backend.capacity());
    }

    #[test]
    fn steal_walk_charges_the_full_budget_of_skipped_shards() {
        let backend = sharded_backend(16, 8);
        assert_eq!(backend.num_shards(), 2);
        // Fill shard 0 completely.
        for local in 0..backend.shard_capacity() {
            assert!(backend.force_occupy(Name::new(local)));
        }
        let mut rng = default_rng(9);
        let got = backend.try_get(&mut rng, 0).expect("shard 1 is empty");
        assert!(
            got.name().index() >= backend.shard_capacity(),
            "must have stolen from shard 1"
        );
        let shard0_budget = backend.core(0).exhausted_probe_count();
        assert!(got.probes() > shard0_budget);
        // And the whole-backend exhausted budget is the sum over shards.
        assert_eq!(
            backend.exhausted_probe_count(),
            shard0_budget * 2,
            "both shards share one sizing, so the budget doubles"
        );
    }

    #[test]
    fn ring_walks_wrap_from_the_last_shard_to_the_first() {
        // Home 2 with every shard but 1 full: both walks must visit the
        // shards after the home, wrap past the end to shard 0 and land in
        // shard 1, charged the full budget of every shard they skipped.
        for (n, full) in [(24, &[2, 0][..]), (32, &[2, 3, 0][..])] {
            let backend = sharded_backend(n, 8);
            assert_eq!(backend.num_shards(), full.len() + 1);
            let cap = backend.shard_capacity();
            for &shard in full {
                for local in 0..cap {
                    assert!(backend.force_occupy(Name::new(shard * cap + local)));
                }
            }
            let skipped: u32 = full
                .iter()
                .map(|&shard| backend.core(shard).exhausted_probe_count())
                .sum();
            let mut rng = default_rng(11);
            let got = backend.try_get(&mut rng, 2).expect("shard 1 is empty");
            assert_eq!(got.name().index() / cap, 1, "landed in {}", got.name());
            assert!(got.probes() > skipped);

            let mut probes = 0;
            let mut out = Vec::new();
            assert_eq!(
                backend.try_get_many(&mut rng, 2, 4, &mut probes, &mut out),
                4
            );
            for won in &out {
                assert_eq!(won.name().index() / cap, 1, "landed in {}", won.name());
                assert!(won.probes() > skipped);
            }
        }
    }

    #[test]
    fn one_shard_group_behaves_like_the_bare_core() {
        let (group, core) = flat_pair(16);
        assert_eq!(group.capacity(), core.capacity());
        let names = [Name::new(0), Name::new(5), Name::new(core.main_len() + 1)];
        for &name in &names {
            assert_eq!(group.force_occupy(name), core.force_occupy(name));
            assert_eq!(group.force_occupy(name), core.force_occupy(name));
        }
        for index in 0..core.capacity() {
            let name = Name::new(index);
            assert_eq!(group.is_held(name), core.is_held(name), "slot {index}");
        }
        group.free(names[0]);
        core.free(names[0]);
        group.free_many(&names[1..]);
        core.free_many(&names[1..]);
        assert!(!group.any_held() && !core.any_held());
        // The hint wins the same slot with the same report, and a held,
        // tagged or out-of-range hint misses on both.
        for name in [names[1], names[2]] {
            assert_eq!(group.hint_acquire(name), core.hint_acquire(name));
            assert_eq!(group.hint_acquire(name), core.hint_acquire(name));
        }
        for stale in [Name::with_epoch(1, 0), Name::new(core.capacity())] {
            assert_eq!(group.hint_acquire(stale), None);
            assert_eq!(core.hint_acquire(stale), None);
        }
        // Names from a one-shard group's Gets are already dense.
        let mut rng = default_rng(13);
        let got = group.try_get(&mut rng, 0).expect("empty group");
        assert!(group.is_held(got.name()));
        let mut probes = 0;
        let mut out = Vec::new();
        assert_eq!(group.try_get_many(&mut rng, 0, 3, &mut probes, &mut out), 3);
        let mut collected = Vec::new();
        group.collect_into(0, &mut collected);
        let mut expected: Vec<Name> = out.iter().map(|a| a.name()).collect();
        expected.extend([names[1], names[2], got.name()]);
        expected.sort_unstable();
        assert_eq!(collected, expected);
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn one_shard_free_rejects_a_tagged_name() {
        let (group, _) = flat_pair(8);
        assert!(group.force_occupy(Name::new(0)));
        group.free(Name::with_epoch(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_shard_free_rejects_an_out_of_range_name() {
        let (group, _) = flat_pair(8);
        group.free(Name::new(group.capacity()));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn one_shard_free_rejects_a_double_free() {
        let (group, _) = flat_pair(8);
        group.free(Name::new(3));
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn one_shard_free_many_rejects_a_tagged_name() {
        let (group, _) = flat_pair(8);
        assert!(group.force_occupy(Name::new(0)));
        group.free_many(&[Name::new(0), Name::with_epoch(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_shard_free_many_rejects_an_out_of_range_name() {
        let (group, _) = flat_pair(8);
        assert!(group.force_occupy(Name::new(0)));
        group.free_many(&[Name::new(0), Name::new(group.capacity())]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn one_shard_free_many_rejects_a_double_free() {
        let (group, _) = flat_pair(8);
        assert!(group.force_occupy(Name::new(0)));
        group.free_many(&[Name::new(0), Name::new(0)]);
    }
}
