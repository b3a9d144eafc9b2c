//! Sharded storage: [`ShardGroup`], and the backend of one elastic epoch cell.
//!
//! [`ShardGroup`] is the one sharding implementation in the crate: `S`
//! cache-padded [`ProbeCore`]s over a dense namespace
//! `shard · shard_capacity + local`, with sticky home routing, the
//! ring-order steal walk, batch spill and the aggregated census.
//! [`crate::ShardedLevelArray`] is a `ShardGroup` plus a home-token pool;
//! the hierarchical epoch cells run on the same type.
//!
//! [`crate::ElasticLevelArray`] composes the repo's two scaling mechanisms
//! one level deep each: the epoch chain grows the *contention bound*, and —
//! with [`crate::LevelArrayConfig::shard_group`] set — every epoch's storage
//! is itself split into shard cores so the *memory traffic* of a big epoch
//! stays spread out.  [`CellBackend`] is that seam: the epoch cell talks to
//! one backend, which is either a single [`ProbeCore`] (flat) or a
//! [`ShardGroup`] of `⌈C / g⌉` cores for group size `g` and cell contention
//! `C`.  Doubling the chain therefore *adds shard groups* instead of
//! doubling one contended slab.  The flat backend stays a bare core: a
//! one-shard group would add a division to every `Free` on a flat epoch.
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

/// `S` cache-padded probing cores sharing one dense namespace: shard
/// `s`'s local slot `i` is the dense name `s · shard_capacity + i`.
#[derive(Debug)]
pub(crate) struct ShardGroup {
    shards: Box<[PaddedCore]>,
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
        let shard_contention = config.max_concurrency_value().div_ceil(shards);
        let per_shard = config
            .clone()
            .with_contention(shard_contention)
            .validate()?;
        let cores: Box<[PaddedCore]> = (0..shards)
            .map(|_| PaddedCore(per_shard.clone().into_probe_core()))
            .collect();
        Ok(ShardGroup {
            shard_capacity: cores[0].0.capacity(),
            exhausted_probes: cores.iter().map(|c| c.0.exhausted_probe_count()).sum(),
            shards: cores,
        })
    }

    /// Number of shard cores.
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Capacity of each shard — the stride of the dense namespace.
    pub(crate) fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Total slots across all shards.
    pub(crate) fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// The probing core of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub(crate) fn core(&self, shard: usize) -> &ProbeCore {
        &self.shards[shard].0
    }

    /// The shard cores in shard order.
    pub(crate) fn cores(&self) -> impl Iterator<Item = &ProbeCore> {
        self.shards.iter().map(|padded| &padded.0)
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
        let num_shards = self.shards.len();
        debug_assert!(home < num_shards);
        let mut probes = 0u32;
        for hop in 0..num_shards {
            let shard = (home + hop) % num_shards;
            let core = &self.shards[shard].0;
            match core.try_get(rng) {
                Some(local) => return Some(self.remap(shard, local, probes)),
                None => probes += core.exhausted_probe_count(),
            }
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
        let num_shards = self.shards.len();
        debug_assert!(home < num_shards);
        let mut remaining = k;
        for hop in 0..num_shards {
            if remaining == 0 {
                break;
            }
            let shard = (home + hop) % num_shards;
            let before = out.len();
            remaining -= self.shards[shard]
                .0
                .try_get_many(rng, remaining, probes, out);
            for got in &mut out[before..] {
                *got = self.remap(shard, *got, 0);
            }
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
            shard < self.shards.len(),
            "name {} out of range for a {}-shard group of capacity {}",
            dense.index(),
            self.shards.len(),
            self.capacity()
        );
        (shard, Name::new(dense.index() % self.shard_capacity))
    }

    /// The core owning a dense name, and the name's local index there.
    ///
    /// # Panics
    ///
    /// As [`ShardGroup::split`].
    #[inline]
    pub(crate) fn locate(&self, dense: Name) -> (&ProbeCore, Name) {
        let (shard, local) = self.split(dense);
        (&self.shards[shard].0, local)
    }

    /// The batched `Free`: sorts the dense names once, splits them into
    /// per-shard runs and releases each run through the owning core's bulk
    /// kernel ([`ProbeCore::free_many`]).  Like that kernel, it checks every
    /// name before it releases any, so a bad name leaves the whole batch
    /// held.
    ///
    /// # Panics
    ///
    /// Panics on a tagged or out-of-range name, or a double free.
    pub(crate) fn free_many(&self, names: &[Name]) {
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
            self.shards[shard].0.free_many(&sorted[start..end]);
            start = end;
        }
    }

    /// One test-and-set on the hinted dense slot (see
    /// [`ProbeCore::hint_acquire`]); stale hints (tagged, out of range) are
    /// rejected, never panic.
    pub(crate) fn hint_acquire(&self, dense: Name) -> Option<Acquired> {
        if dense.epoch() != 0 {
            return None;
        }
        let shard = dense.index() / self.shard_capacity;
        let got = self
            .shards
            .get(shard)?
            .0
            .hint_acquire(Name::new(dense.index() % self.shard_capacity))?;
        Some(self.remap(shard, got, 0))
    }

    /// Appends every held slot's dense name to `out`, shard by shard,
    /// through each core's own `Collect` fast path.
    pub(crate) fn collect_into(&self, out: &mut Vec<Name>) {
        for (shard, core) in self.cores().enumerate() {
            core.collect_into(shard * self.shard_capacity, out);
        }
    }

    /// Visits every held slot's dense index.
    pub(crate) fn for_each_held(&self, mut f: impl FnMut(usize)) {
        for (shard, core) in self.cores().enumerate() {
            let base = shard * self.shard_capacity;
            core.for_each_held(|local| f(base + local));
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
        let geometry = self.geometry();
        let mut regions: Vec<RegionOccupancy> = (0..geometry.num_batches())
            .map(|batch| {
                RegionOccupancy::new(
                    label(Region::Batch(batch)),
                    geometry.batch_len(batch) * self.shards.len(),
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

/// The storage behind one epoch cell.
#[derive(Debug)]
pub(crate) enum CellBackend {
    /// One flat probing core (the default, `shard_group == 0`).
    Flat(ProbeCore),
    /// `⌈C / g⌉` cache-padded cores with sticky home routing and stealing.
    Sharded(ShardGroup),
}

impl CellBackend {
    /// Materializes the backend for an epoch of bound `contention`, built
    /// from the shared base configuration.  `shard_group == 0` yields a
    /// flat core; otherwise a [`ShardGroup`] of `⌈C / g⌉` shards.
    pub(crate) fn build(base: &LevelArrayConfig, contention: usize) -> Result<Self, ConfigError> {
        let sized = base.clone().with_contention(contention);
        match base.shard_group_value() {
            0 => Ok(CellBackend::Flat(sized.validate()?.into_probe_core())),
            group => {
                let shards = contention.div_ceil(group).max(1);
                Ok(CellBackend::Sharded(ShardGroup::build(&sized, shards)?))
            }
        }
    }

    /// Number of shard cores (1 for a flat backend).
    pub(crate) fn num_shards(&self) -> usize {
        match self {
            CellBackend::Flat(_) => 1,
            CellBackend::Sharded(g) => g.num_shards(),
        }
    }

    /// The stride of the dense in-cell namespace (a flat backend's full
    /// capacity).
    pub(crate) fn shard_capacity(&self) -> usize {
        match self {
            CellBackend::Flat(core) => core.capacity(),
            CellBackend::Sharded(g) => g.shard_capacity(),
        }
    }

    /// Total slots across all shards.
    pub(crate) fn capacity(&self) -> usize {
        match self {
            CellBackend::Flat(core) => core.capacity(),
            CellBackend::Sharded(g) => g.capacity(),
        }
    }

    /// The per-shard batch layout (a flat backend's own geometry).
    pub(crate) fn geometry(&self) -> &BatchGeometry {
        match self {
            CellBackend::Flat(core) => core.geometry(),
            CellBackend::Sharded(g) => g.geometry(),
        }
    }

    /// The full deterministic probe budget of a failed `Get` (every shard
    /// exhausted, backups included).
    pub(crate) fn exhausted_probe_count(&self) -> u32 {
        match self {
            CellBackend::Flat(core) => core.exhausted_probe_count(),
            CellBackend::Sharded(g) => g.exhausted_probe_count(),
        }
    }

    /// The paper's `Get` over this backend: flat runs it directly; sharded
    /// routes to `home` (already reduced modulo the shard count by the
    /// caller's topology mapping) through [`ShardGroup::try_get`].  Returns
    /// an acquisition whose name is dense in the cell's namespace.
    pub(crate) fn try_get<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        home: usize,
    ) -> Option<Acquired> {
        match self {
            CellBackend::Flat(core) => core.try_get(rng),
            CellBackend::Sharded(g) => g.try_get(rng, home),
        }
    }

    /// The batched `Get` over this backend (see [`ProbeCore::try_get_many`]
    /// and [`ShardGroup::try_get_many`]).  Appended names are dense in the
    /// cell's namespace.
    pub(crate) fn try_get_many<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        home: usize,
        k: usize,
        probes: &mut u32,
        out: &mut Vec<Acquired>,
    ) -> usize {
        match self {
            CellBackend::Flat(core) => core.try_get_many(rng, k, probes, out),
            CellBackend::Sharded(g) => g.try_get_many(rng, home, k, probes, out),
        }
    }

    /// The batched `Free` of dense in-cell names; checks every name before
    /// it releases any.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index or a double free.
    pub(crate) fn free_many(&self, names: &[Name]) {
        match self {
            CellBackend::Flat(core) => core.free_many(names),
            CellBackend::Sharded(g) => g.free_many(names),
        }
    }

    /// Splits a dense in-cell index into `(shard core, local name)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    fn locate(&self, dense: Name) -> (&ProbeCore, Name) {
        match self {
            CellBackend::Flat(core) => (core, dense),
            CellBackend::Sharded(g) => g.locate(dense),
        }
    }

    /// Releases a dense in-cell slot.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index or a double free.
    pub(crate) fn free(&self, dense: Name) {
        let (core, local) = self.locate(dense);
        core.free(local);
    }

    /// One test-and-set on the hinted dense slot (see
    /// [`ProbeCore::hint_acquire`]); stale hints are rejected, never panic.
    pub(crate) fn hint_acquire(&self, dense: Name) -> Option<Acquired> {
        match self {
            CellBackend::Flat(core) => core.hint_acquire(dense),
            CellBackend::Sharded(g) => g.hint_acquire(dense),
        }
    }

    /// Directly occupies a dense in-cell slot (test/experiment hook).
    pub(crate) fn force_occupy(&self, dense: Name) -> bool {
        let (core, local) = self.locate(dense);
        core.force_occupy(local)
    }

    /// Whether a dense in-cell slot is currently held.
    pub(crate) fn is_held(&self, dense: Name) -> bool {
        let (core, local) = self.locate(dense);
        core.is_held(local)
    }

    /// Whether any slot of any shard is held (the drained check).
    pub(crate) fn any_held(&self) -> bool {
        match self {
            CellBackend::Flat(core) => core.any_held(),
            CellBackend::Sharded(g) => g.any_held(),
        }
    }

    /// Visits every held slot's dense in-cell index.
    pub(crate) fn for_each_held(&self, f: impl FnMut(usize)) {
        match self {
            CellBackend::Flat(core) => core.for_each_held(f),
            CellBackend::Sharded(g) => g.for_each_held(f),
        }
    }

    /// Held slots in batch `i`, summed across shards.
    pub(crate) fn batch_occupancy(&self, i: usize) -> usize {
        match self {
            CellBackend::Flat(core) => core.batch_occupancy(i),
            CellBackend::Sharded(g) => g.batch_occupancy(i),
        }
    }

    /// Capacity of batch `i`, summed across shards.
    pub(crate) fn batch_capacity(&self, i: usize) -> usize {
        self.geometry().batch_len(i) * self.num_shards()
    }

    /// Total backup slots across shards.
    pub(crate) fn backup_capacity(&self) -> usize {
        match self {
            CellBackend::Flat(core) => core.backup_len(),
            CellBackend::Sharded(g) => g.backup_capacity(),
        }
    }

    /// Held backup slots, summed across shards.
    pub(crate) fn backup_occupancy(&self) -> usize {
        match self {
            CellBackend::Flat(core) => core.backup_occupancy(),
            CellBackend::Sharded(g) => g.backup_occupancy(),
        }
    }

    /// The cell's census as labelled regions (one per batch plus one backup
    /// region, whatever the shard count — see
    /// [`ShardGroup::region_occupancies`]), relabelled through `label` — the
    /// hook the elastic census uses to tag regions with the epoch id.
    pub(crate) fn region_occupancies(
        &self,
        label: impl Fn(Region) -> Region,
    ) -> Vec<RegionOccupancy> {
        match self {
            CellBackend::Flat(core) => core.region_occupancies(label),
            CellBackend::Sharded(g) => g.region_occupancies(label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;
    use std::collections::HashSet;

    fn sharded_backend(n: usize, group: usize) -> CellBackend {
        CellBackend::build(&LevelArrayConfig::new(n).shard_group(group), n).unwrap()
    }

    #[test]
    fn zero_group_builds_flat() {
        let backend = CellBackend::build(&LevelArrayConfig::new(16), 16).unwrap();
        assert!(matches!(backend, CellBackend::Flat(_)));
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
        // A contention no bigger than the group stays single-shard (but
        // still cache-padded — the sharded representation is kept so a
        // doubled successor's layout is the same shape).
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
        // for_each_held visits exactly the dense indices handed out.
        let mut seen = HashSet::new();
        backend.for_each_held(|dense| {
            assert!(seen.insert(dense));
        });
        let expected: HashSet<usize> = held.iter().map(|n| n.index()).collect();
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
        let shard0_budget = match &backend {
            CellBackend::Sharded(g) => g.core(0).exhausted_probe_count(),
            CellBackend::Flat(_) => unreachable!(),
        };
        assert!(got.probes() > shard0_budget);
        // And the whole-backend exhausted budget is the sum over shards.
        assert_eq!(
            backend.exhausted_probe_count(),
            shard0_budget * 2,
            "both shards share one sizing, so the budget doubles"
        );
    }
}
