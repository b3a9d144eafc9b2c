//! Shared storage for the flat (un-levelled) baselines: a plain array of
//! test-and-set slots with the bookkeeping every baseline needs (collect,
//! occupancy census, bounds-checked free).

use levelarray::occupancy::{OccupancySnapshot, Region, RegionOccupancy};
use levelarray::slot::{Slot, TasKind};
use levelarray::Name;

/// A flat array of TAS slots used as the backing store of the baseline
/// algorithms.  The probing *strategy* lives in the wrapping types; this type
/// only provides safe slot access and the census operations.
#[derive(Debug)]
pub struct FlatSlots {
    slots: Box<[Slot]>,
    max_participants: usize,
}

impl FlatSlots {
    /// Creates a flat store of `len` slots for a structure with contention
    /// bound `max_participants`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `max_participants == 0`.
    pub fn new(len: usize, max_participants: usize) -> Self {
        assert!(len > 0, "a flat activity array needs at least one slot");
        assert!(max_participants > 0, "contention bound must be at least 1");
        FlatSlots {
            slots: (0..len).map(|_| Slot::new()).collect(),
            max_participants,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always `false`: the constructor rejects empty stores.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The contention bound the store was created for.
    pub fn max_participants(&self) -> usize {
        self.max_participants
    }

    /// Attempts to win slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn try_acquire(&self, idx: usize) -> bool {
        self.slots[idx].try_acquire(TasKind::CompareExchange)
    }

    /// Whether slot `idx` is currently held.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn is_held(&self, idx: usize) -> bool {
        self.slots[idx].is_held()
    }

    /// Releases `name`, panicking on double frees or out-of-range names (the
    /// same contract as [`levelarray::ActivityArray::free`]).
    pub fn free(&self, name: Name) {
        // Flat baselines hand out dense epoch-0 names; an epoch-tagged name
        // (from an elastic array) must not alias a slot via its index.
        assert_eq!(
            name.epoch(),
            0,
            "a flat baseline hands out only epoch-0 names, got {name}"
        );
        let idx = name.index();
        assert!(
            idx < self.slots.len(),
            "name {idx} out of range for an array of {} slots",
            self.slots.len()
        );
        assert!(
            self.slots[idx].release(),
            "double free: name {idx} was not held when free() was called"
        );
    }

    /// Scans the array and returns every held name, in index order.
    pub fn collect(&self) -> Vec<Name> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_held())
            .map(|(idx, _)| Name::new(idx))
            .collect()
    }

    /// A single-region occupancy census.
    pub fn occupancy(&self) -> OccupancySnapshot {
        let occupied = self.slots.iter().filter(|s| s.is_held()).count();
        OccupancySnapshot::new(vec![RegionOccupancy::new(
            Region::Whole,
            self.slots.len(),
            occupied,
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_free_collect_cycle() {
        let flat = FlatSlots::new(8, 4);
        assert_eq!(flat.len(), 8);
        assert!(!flat.is_empty());
        assert_eq!(flat.max_participants(), 4);
        assert!(flat.try_acquire(3));
        assert!(!flat.try_acquire(3));
        assert!(flat.is_held(3));
        assert_eq!(flat.collect(), vec![Name::new(3)]);
        assert_eq!(flat.occupancy().total_occupied(), 1);
        flat.free(Name::new(3));
        assert!(flat.collect().is_empty());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let flat = FlatSlots::new(4, 4);
        assert!(flat.try_acquire(0));
        flat.free(Name::new(0));
        flat.free(Name::new(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_free_panics() {
        let flat = FlatSlots::new(4, 4);
        flat.free(Name::new(9));
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn epoch_tagged_free_panics() {
        let flat = FlatSlots::new(4, 4);
        flat.free(Name::with_epoch(2, 0));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_store_rejected() {
        let _ = FlatSlots::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_contention_rejected() {
        let _ = FlatSlots::new(4, 0);
    }

    #[test]
    fn occupancy_is_a_single_whole_region() {
        let flat = FlatSlots::new(10, 5);
        for i in 0..4 {
            assert!(flat.try_acquire(i));
        }
        let snap = flat.occupancy();
        assert_eq!(snap.regions().len(), 1);
        assert_eq!(snap.regions()[0].region(), Region::Whole);
        assert_eq!(snap.total_capacity(), 10);
        assert_eq!(snap.total_occupied(), 4);
    }
}
