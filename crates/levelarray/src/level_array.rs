//! The LevelArray: the paper's long-lived renaming algorithm (§4).
//!
//! A `Get` walks the batches of the main array in increasing order, performing
//! `c_i` test-and-set probes on uniformly random slots of batch `i`, and stops
//! at the first probe it wins.  If every randomized probe loses (which the
//! analysis shows is vanishingly unlikely), it probes the backup array
//! *sequentially*, guaranteeing wait-freedom and a bounded namespace.  `Free`
//! resets the held slot; `Collect` scans every slot.

use larng::RandomSource;

use crate::array::{Acquired, ActivityArray};
use crate::config::{LevelArrayConfig, ValidatedConfig};
use crate::geometry::BatchGeometry;
use crate::hint::FreeHint;
use crate::name::Name;
use crate::occupancy::OccupancySnapshot;
use crate::probe_core::ProbeCore;
use crate::slot::{SlotLayout, TasKind};

/// The LevelArray long-lived renaming structure.
///
/// # Examples
///
/// Basic register / scan / deregister cycle:
///
/// ```
/// use levelarray::{ActivityArray, LevelArray};
/// use larng::default_rng;
///
/// let array = LevelArray::new(16);          // up to 16 concurrent holders
/// let mut rng = default_rng(1);
///
/// let got = array.get(&mut rng);
/// assert!(got.probes() >= 1);
/// assert!(array.collect().contains(&got.name()));
/// array.free(got.name());
/// assert!(array.collect().is_empty());
/// ```
///
/// Shared across threads (the intended use):
///
/// ```
/// use levelarray::{ActivityArray, LevelArray};
/// use larng::{default_rng, SeedSequence};
/// use std::sync::Arc;
///
/// let array = Arc::new(LevelArray::new(8));
/// let mut seeds = SeedSequence::new(42);
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
pub struct LevelArray {
    core: ProbeCore,
    max_concurrency: usize,
    /// The per-thread Free→Get hint `free` records and `try_get` consults
    /// (see [`crate::hint`]).
    hint: FreeHint,
}

impl LevelArray {
    /// Creates a LevelArray with the paper's default configuration for at most
    /// `max_concurrency` simultaneously registered processes: a `2n`-slot main
    /// array (first batch `3n/2`), an `n`-slot backup array, one probe per
    /// batch, compare-and-swap as the TAS primitive.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrency == 0`.  Use [`LevelArrayConfig`] for
    /// fallible construction and for non-default parameters.
    pub fn new(max_concurrency: usize) -> Self {
        LevelArrayConfig::new(max_concurrency)
            .build()
            .expect("default configuration is valid for any non-zero contention bound")
    }

    pub(crate) fn from_validated(config: ValidatedConfig) -> Self {
        let max_concurrency = config.max_concurrency;
        let hint = FreeHint::new(config.free_hint, crate::hint::next_array_id());
        LevelArray {
            core: config.into_probe_core(),
            max_concurrency,
            hint,
        }
    }

    /// Whether the Free→Get hint cache is enabled on this instance (the
    /// [`LevelArrayConfig::free_hint`] knob).
    pub fn free_hint_enabled(&self) -> bool {
        self.hint.is_enabled()
    }

    /// The probing core this facade wraps: the slots, geometry, probe count
    /// and TAS primitive, behind the reusable probing machinery shared with
    /// [`crate::ShardedLevelArray`].
    pub fn probe_core(&self) -> &ProbeCore {
        &self.core
    }

    /// The batch layout of the main array.
    pub fn geometry(&self) -> &BatchGeometry {
        self.core.geometry()
    }

    /// Number of slots in the main (randomly probed) array.
    pub fn main_len(&self) -> usize {
        self.core.main_len()
    }

    /// Number of slots in the sequential backup array (0 if disabled).
    pub fn backup_len(&self) -> usize {
        self.core.backup_len()
    }

    /// The test-and-set primitive this instance uses.
    pub fn tas_kind(&self) -> TasKind {
        self.core.tas_kind()
    }

    /// The slot representation this instance stores its registers in.
    pub fn slot_layout(&self) -> SlotLayout {
        self.core.slot_layout()
    }

    /// The paper's `Get`, monomorphized over the caller's random source so
    /// the per-probe draw inlines into the probing loop.  This inherent
    /// method shadows [`ActivityArray::try_get`] for callers holding the
    /// concrete type; the trait method remains the object-safe wrapper
    /// (`&mut dyn RandomSource` also works here, through the blanket
    /// `impl RandomSource for &mut R`).
    ///
    /// With the [`LevelArrayConfig::free_hint`] knob enabled, the slot this
    /// thread most recently freed here is retried with one test-and-set
    /// before the probe sequence; a miss falls through unchanged.
    #[must_use = "dropping the result leaks the acquired name"]
    pub fn try_get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Option<Acquired> {
        if let Some(got) = self.hint.reacquire(|name| self.core.hint_acquire(name)) {
            return Some(got);
        }
        self.core.try_get(rng)
    }

    /// The batched `Get`, monomorphized over the caller's random source (see
    /// [`ActivityArray::get_many`] for the contract).  With the
    /// [`LevelArrayConfig::free_hint`] knob enabled the hint cache is
    /// consulted once for the whole batch — a hit supplies the first name in
    /// one test-and-set — and the remainder takes the batched probing kernel
    /// ([`ProbeCore::try_get_many`]).
    pub fn get_many<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        out: &mut Vec<Acquired>,
    ) -> usize {
        if k == 0 {
            return 0;
        }
        let mut probes = 0u32;
        let Some(hinted) = self.hint.reacquire(|name| self.core.hint_acquire(name)) else {
            return self.core.try_get_many(rng, k, &mut probes, out);
        };
        // The batched kernel rolls back its own wins if it panics (see
        // [`ProbeCore::try_get_many`]); the hint win needs the facade's
        // `free`, or it would leak.
        crate::array::all_or_nothing(
            out,
            |out| {
                out.push(hinted);
                1 + self.core.try_get_many(rng, k - 1, &mut probes, out)
            },
            |name| ActivityArray::free(self, name),
        )
    }

    /// Registers through the monomorphized hot path, panicking if the
    /// structure is exhausted (same contract as [`ActivityArray::get`]).
    ///
    /// # Panics
    ///
    /// Panics if no free slot could be acquired, i.e. the caller violated the
    /// contention bound.
    pub fn get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Acquired {
        self.try_get(rng)
            .unwrap_or_else(|| crate::array::exhausted(self))
    }

    /// The random probes a `Get` performs in each batch (`c_i`).
    pub fn probes_per_batch(&self) -> u32 {
        self.core.probes_per_batch()
    }

    /// Whether `name` lies in the backup array.
    ///
    /// # Panics
    ///
    /// Panics if `name` is epoch-tagged or out of range.
    pub fn is_backup_name(&self, name: Name) -> bool {
        self.core.is_backup_name(name)
    }

    /// Directly occupies a specific slot, bypassing the probing strategy.
    ///
    /// Returns `true` if the slot was free and is now held by the caller.
    /// This is **not** part of the renaming protocol; it exists so that tests
    /// and the healing experiment (paper Figure 3) can place the array in an
    /// arbitrary — possibly unbalanced — initial state.
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range.
    #[must_use = "a false return means the slot was already held; ignoring it leaks the intent"]
    pub fn force_occupy(&self, name: Name) -> bool {
        self.core.force_occupy(name)
    }

    /// Reads whether a specific slot is currently held.
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range.
    pub fn is_held(&self, name: Name) -> bool {
        self.core.is_held(name)
    }

    /// The number of occupied slots in batch `i` of the main array.
    pub fn batch_occupancy(&self, i: usize) -> usize {
        self.core.batch_occupancy(i)
    }
}

impl ActivityArray for LevelArray {
    fn algorithm_name(&self) -> &'static str {
        "LevelArray"
    }

    fn try_get(&self, rng: &mut dyn RandomSource) -> Option<Acquired> {
        LevelArray::try_get(self, rng)
    }

    fn get_many(&self, rng: &mut dyn RandomSource, k: usize, out: &mut Vec<Acquired>) -> usize {
        LevelArray::get_many(self, rng, k, out)
    }

    fn free(&self, name: Name) {
        self.core.free(name);
        self.hint.record(name);
    }

    fn free_many(&self, names: &[Name]) {
        self.core.free_many(names);
        self.hint.record_last(names);
    }

    fn collect(&self) -> Vec<Name> {
        let mut held = Vec::new();
        self.core.collect_into(0, &mut held);
        held
    }

    fn collect_into(&self, out: &mut Vec<Name>) {
        self.core.collect_into(0, out);
    }

    fn capacity(&self) -> usize {
        self.core.capacity()
    }

    fn max_participants(&self) -> usize {
        self.max_concurrency
    }

    fn occupancy(&self) -> OccupancySnapshot {
        OccupancySnapshot::new(self.core.region_occupancies(|r| r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceReport;
    use crate::config::LevelArrayConfig;
    use larng::{default_rng, SequenceRng};
    use std::collections::HashSet;

    #[test]
    fn new_array_matches_paper_dimensions() {
        let array = LevelArray::new(64);
        assert_eq!(array.main_len(), 128);
        assert_eq!(array.backup_len(), 64);
        assert_eq!(array.capacity(), 192);
        assert_eq!(array.max_participants(), 64);
        assert_eq!(array.algorithm_name(), "LevelArray");
        assert!(array.collect().is_empty());
    }

    #[test]
    fn get_free_round_trip() {
        let array = LevelArray::new(8);
        let mut rng = default_rng(1);
        let got = array.get(&mut rng);
        assert!(got.probes() >= 1);
        assert!(!got.used_backup());
        assert!(array.is_held(got.name()));
        array.free(got.name());
        assert!(!array.is_held(got.name()));
    }

    #[test]
    fn names_are_unique_while_held() {
        let array = LevelArray::new(32);
        let mut rng = default_rng(2);
        let mut held = HashSet::new();
        for _ in 0..32 {
            let got = array.get(&mut rng);
            assert!(held.insert(got.name()), "duplicate name {}", got.name());
        }
        assert_eq!(array.collect().len(), 32);
        for name in held {
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn full_capacity_is_reachable_and_exhaustion_is_detected() {
        // With the backup array the structure can hand out every slot, even
        // when oversubscribed beyond n; after that, try_get must return None.
        let array = LevelArray::new(4);
        let mut rng = default_rng(3);
        let mut held = Vec::new();
        for _ in 0..10_000 {
            match array.try_get(&mut rng) {
                Some(got) => held.push(got.name()),
                None => break,
            }
        }
        assert_eq!(held.len(), array.capacity());
        assert!(array.try_get(&mut rng).is_none());
        let unique: HashSet<_> = held.iter().collect();
        assert_eq!(unique.len(), held.len());
    }

    #[test]
    fn backup_is_used_only_when_random_probes_all_fail() {
        // Force every random probe to hit slot 0 of each batch, and occupy
        // those slots beforehand: the Get must fall through to the backup.
        let array = LevelArray::new(8);
        let num_batches = array.geometry().num_batches();
        for b in 0..num_batches {
            let start = array.geometry().batch_range(b).start;
            assert!(array.force_occupy(Name::new(start)));
        }
        // Script one probe per batch, each hitting the (occupied) first slot.
        let script: Vec<u64> = (0..num_batches)
            .map(|b| larng::mock::raw_for_index(0, array.geometry().batch_len(b) as u64))
            .collect();
        let mut rng = SequenceRng::new(script);
        let got = array.get(&mut rng);
        assert!(got.used_backup());
        assert_eq!(got.batch(), None);
        assert!(array.is_backup_name(got.name()));
        assert_eq!(got.probes(), num_batches as u32 + 1);
    }

    #[test]
    fn probes_are_counted_per_batch_policy() {
        // Two probes per batch and scripted misses in batch 0: the operation
        // should charge 2 probes before reaching batch 1.
        let array = LevelArrayConfig::new(16)
            .probes_per_batch(2)
            .build()
            .unwrap();
        let b0 = array.geometry().batch_range(0);
        let b0_len = b0.end - b0.start;
        // Occupy all of batch 0 so any probe there fails.
        for idx in b0.clone() {
            assert!(array.force_occupy(Name::new(idx)));
        }
        let mut rng = default_rng(11);
        let got = array.get(&mut rng);
        assert!(
            got.probes() > 2,
            "had to probe beyond batch 0: {}",
            got.probes()
        );
        assert_ne!(got.batch(), Some(0));
        assert!(got.name().index() >= b0_len || got.used_backup());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let array = LevelArray::new(4);
        let mut rng = default_rng(5);
        let got = array.get(&mut rng);
        array.free(got.name());
        array.free(got.name());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn free_of_out_of_range_name_panics() {
        let array = LevelArray::new(4);
        array.free(Name::new(10_000));
    }

    #[test]
    fn collect_reports_exactly_the_held_names() {
        let array = LevelArray::new(16);
        let mut rng = default_rng(6);
        let mut held: Vec<Name> = (0..10).map(|_| array.get(&mut rng).name()).collect();
        let mut collected = array.collect();
        collected.sort();
        held.sort();
        assert_eq!(collected, held);

        // Free half and re-check.
        for name in held.drain(..5) {
            array.free(name);
        }
        let mut collected = array.collect();
        collected.sort();
        assert_eq!(collected, held);
    }

    #[test]
    fn occupancy_snapshot_matches_collect() {
        let array = LevelArray::new(32);
        let mut rng = default_rng(7);
        for _ in 0..20 {
            let _ = array.get(&mut rng);
        }
        let snap = array.occupancy();
        assert_eq!(snap.total_occupied(), array.collect().len());
        assert_eq!(snap.total_capacity(), array.capacity());
        assert_eq!(snap.num_batches(), array.geometry().num_batches());
        // Per-batch counts agree with direct slot scans.
        for i in 0..array.geometry().num_batches() {
            assert_eq!(snap.batch(i).unwrap().occupied(), array.batch_occupancy(i));
        }
    }

    #[test]
    fn typical_load_keeps_the_array_balanced() {
        // Register n/2 of n = 256 processes; the array must be fully balanced
        // per Definition 2 (this is a sanity check of the common case, not a
        // statistical claim).
        let n = 256;
        let array = LevelArray::new(n);
        let mut rng = default_rng(8);
        for _ in 0..n / 2 {
            let _ = array.get(&mut rng);
        }
        let report = BalanceReport::from_snapshot(&array.occupancy(), n);
        assert!(report.is_fully_balanced(), "{report:?}");
    }

    #[test]
    fn swap_tas_behaves_like_compare_exchange() {
        let array = LevelArrayConfig::new(8)
            .tas_kind(TasKind::Swap)
            .build()
            .unwrap();
        let mut rng = default_rng(9);
        let mut names = HashSet::new();
        for _ in 0..8 {
            assert!(names.insert(array.get(&mut rng).name()));
        }
        assert_eq!(array.collect().len(), 8);
        for name in names {
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn disabled_backup_limits_capacity_to_main_array() {
        let array = LevelArrayConfig::new(8).backup(false).build().unwrap();
        assert_eq!(array.backup_len(), 0);
        assert_eq!(array.capacity(), array.main_len());
        // occupancy() must not report a backup region.
        assert!(array.occupancy().backup().is_none());
    }

    #[test]
    fn free_hint_returns_the_just_freed_slot_in_one_probe() {
        let array = LevelArrayConfig::new(8).free_hint(true).build().unwrap();
        assert!(array.free_hint_enabled());
        assert!(!LevelArray::new(8).free_hint_enabled(), "default stays off");
        let mut rng = default_rng(13);
        let got = array.get(&mut rng);
        array.free(got.name());
        let again = array.get(&mut rng);
        assert_eq!(again.name(), got.name(), "the hint re-wins the freed slot");
        assert_eq!(again.probes(), 1);
        assert_eq!(again.used_backup(), array.is_backup_name(again.name()));
        array.free(again.name());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn is_backup_name_rejects_an_out_of_range_name() {
        let _ = LevelArray::new(16).is_backup_name(Name::new(1_000_000));
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn is_backup_name_rejects_a_tagged_name() {
        let _ = LevelArray::new(16).is_backup_name(Name::with_epoch(1, 0));
    }

    #[test]
    fn force_occupy_reports_conflicts() {
        let array = LevelArray::new(4);
        assert!(array.force_occupy(Name::new(0)));
        assert!(!array.force_occupy(Name::new(0)));
        array.free(Name::new(0));
        assert!(array.force_occupy(Name::new(0)));
    }

    #[test]
    fn concurrent_get_free_never_duplicates_names() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let n = 16;
        let array = Arc::new(LevelArray::new(n));
        // One ownership flag per slot, maintained by the test: a second owner
        // of the same slot would trip the swap assertion.
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
                    let mut rng = default_rng(1000 + t as u64);
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
