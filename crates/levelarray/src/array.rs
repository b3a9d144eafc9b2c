//! The [`ActivityArray`] trait: the interface shared by the LevelArray and all
//! baseline implementations, plus the [`Acquired`] operation record and the
//! RAII [`Registration`] guard.
//!
//! The trait mirrors the paper's problem statement (§2): `Get` returns a
//! unique index, `Free` releases the most recently returned index, and
//! `Collect` returns every index that was held throughout the call (it is
//! *not* an atomic snapshot).  All methods take `&self` — implementations are
//! internally synchronized and wait-free.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use larng::RandomSource;

use crate::name::Name;
use crate::occupancy::OccupancySnapshot;

/// The result of a successful `Get`: the acquired name plus the measurements
/// the paper's evaluation reports (number of probes, the batch where the
/// operation stopped, whether the backup array was needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use = "an Acquired records a held name; dropping it without freeing leaks the slot"]
pub struct Acquired {
    name: Name,
    probes: u32,
    batch: Option<usize>,
    used_backup: bool,
}

impl Acquired {
    /// Creates an operation record.  `batch` is `None` when the slot was taken
    /// from the backup array (in which case `used_backup` must be `true`).
    pub fn new(name: Name, probes: u32, batch: Option<usize>, used_backup: bool) -> Self {
        debug_assert!(
            batch.is_some() != used_backup,
            "a Get stops either in a batch or in the backup, never both/neither"
        );
        Acquired {
            name,
            probes,
            batch,
            used_backup,
        }
    }

    /// The acquired name (slot index).
    pub fn name(&self) -> Name {
        self.name
    }

    /// Number of probes (test-and-set attempts, plus sequential backup reads)
    /// the operation performed — the paper's "number of trials".
    pub fn probes(&self) -> u32 {
        self.probes
    }

    /// The batch of the main array in which the operation stopped, or `None`
    /// if it fell through to the backup array.  Flat baselines report batch 0.
    pub fn batch(&self) -> Option<usize> {
        self.batch
    }

    /// Whether the operation had to use the backup array.
    pub fn used_backup(&self) -> bool {
        self.used_backup
    }
}

/// A long-lived-renaming activity array (paper §2).
///
/// Implementations must guarantee:
///
/// * **Uniqueness** — no two in-flight acquisitions return the same [`Name`].
/// * **Validity of `Collect`** — every name in the returned set was held by
///   some process at some point during the call.
/// * **Wait-freedom** — `try_get` completes in a bounded number of its own
///   steps regardless of the scheduling of other threads.
pub trait ActivityArray: Send + Sync + std::fmt::Debug {
    /// A short human-readable label for benchmark output (e.g. `"LevelArray"`).
    fn algorithm_name(&self) -> &'static str;

    /// Attempts to register, returning `None` only if the structure has no
    /// free capacity reachable by its probing strategy.
    ///
    /// Calling `try_get` more than `max_participants()` times without
    /// intervening `free`s may legitimately fail.
    #[must_use = "dropping the result leaks the acquired name"]
    fn try_get(&self, rng: &mut dyn RandomSource) -> Option<Acquired>;

    /// Registers, panicking if the structure is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if no free slot could be acquired, which can only happen when
    /// more than `max_participants()` processes hold slots simultaneously —
    /// i.e. when the caller has violated the contention bound.
    fn get(&self, rng: &mut dyn RandomSource) -> Acquired {
        self.try_get(rng).unwrap_or_else(|| exhausted(self))
    }

    /// Acquires up to `k` names in one batched operation, appending an
    /// [`Acquired`] per win to `out`, and returns the number acquired — fewer
    /// than `k` only when the structure ran out of reachable free capacity
    /// mid-batch.
    ///
    /// The batch is semantically `k` consecutive [`ActivityArray::try_get`]s
    /// — same uniqueness, validity and wait-freedom guarantees, same
    /// batch-order probing dynamics — but implementations amortize the
    /// per-name overhead across the batch: the LevelArray facades claim up to
    /// 64 slots per atomic RMW on the bit-packed layout, route one hint/home
    /// lookup per batch, and (on the elastic facade) pin the epoch chain once
    /// instead of once per name.  The default is the literal singleton loop.
    ///
    /// `out` is *not* cleared; wins are appended.
    fn get_many(&self, rng: &mut dyn RandomSource, k: usize, out: &mut Vec<Acquired>) -> usize {
        for acquired in 0..k {
            match self.try_get(rng) {
                Some(got) => out.push(got),
                None => return acquired,
            }
        }
        k
    }

    /// Releases a name previously returned by `try_get`/`get`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `name` is out of range or not currently held
    /// (a double free); both indicate a bug in the caller.
    fn free(&self, name: Name);

    /// Releases a batch of names previously returned by acquisition calls on
    /// this array, in one operation.
    ///
    /// Implementations sort and group the batch so bit-packed regions are
    /// cleared with one atomic RMW per 64-slot word, the sharded facade
    /// releases shard-by-shard, and the elastic facade decodes epoch tags and
    /// pins the chain once per batch; a batch that drains an old epoch
    /// schedules a single deferred retirement check.  The default is the
    /// literal singleton loop.
    ///
    /// # Panics
    ///
    /// Implementations panic if any name is out of range, duplicated within
    /// the batch, or not currently held (a double free).
    fn free_many(&self, names: &[Name]) {
        for &name in names {
            self.free(name);
        }
    }

    /// Hints that subsequent operations from the calling thread act on behalf
    /// of logical participant `participant`.
    ///
    /// Single-threaded drivers that emulate many participants (the
    /// adversarial simulator, the healing experiment, benchmark harnesses)
    /// call this before each emulated operation so that layouts with sticky
    /// per-thread routing ([`crate::ShardedLevelArray`]) can spread the
    /// emulated population across their shards the way a real thread
    /// population's round-robin pinning would.  Implementations without
    /// routing state ignore it — the default does nothing.
    fn route_hint(&self, _participant: usize) {}

    /// Returns the names currently held, by scanning the array.
    ///
    /// The result is not an atomic snapshot; it satisfies the weaker validity
    /// property from the paper: every returned name was held at some point
    /// during the scan.
    fn collect(&self) -> Vec<Name>;

    /// Appends the names currently held to `out` — the same scan as
    /// [`ActivityArray::collect`], but into a caller-owned buffer so that a
    /// steady-state scan loop (the reclamation domain's grace-period passes,
    /// the bench harness's collect cells) reuses one allocation instead of
    /// building a fresh `Vec` per scan.  `out` is *not* cleared; the caller
    /// decides whether to accumulate or to `clear()` between scans.
    ///
    /// The default delegates to [`ActivityArray::collect`]; implementations
    /// with an internal scan visitor override it to skip the intermediate
    /// allocation entirely.
    fn collect_into(&self, out: &mut Vec<Name>) {
        out.extend(self.collect());
    }

    /// Total number of slots (the dense namespace size).
    fn capacity(&self) -> usize;

    /// The contention bound `n` the structure was built for.
    fn max_participants(&self) -> usize;

    /// A per-region census of held slots (see [`OccupancySnapshot`]).
    fn occupancy(&self) -> OccupancySnapshot;
}

/// Runs `batch`, a batched `Get` that appends its wins to `out`, and keeps
/// the batch all-or-nothing: if `batch` unwinds — an injected fault, or a
/// panic from the caller's random source — every entry it appended is
/// drained from `out` and released through `free` before the unwind
/// resumes, so `out` is back at its old length and nothing leaks.
pub(crate) fn all_or_nothing<T>(
    out: &mut Vec<Acquired>,
    batch: impl FnOnce(&mut Vec<Acquired>) -> T,
    free: impl Fn(Name),
) -> T {
    let before = out.len();
    match catch_unwind(AssertUnwindSafe(|| batch(&mut *out))) {
        Ok(result) => result,
        Err(payload) => {
            let _quiet = la_fault::suppress();
            for got in out.drain(before..) {
                free(got.name());
            }
            resume_unwind(payload)
        }
    }
}

/// An RAII registration: acquires a name on construction and frees it on drop.
///
/// # Examples
///
/// ```
/// use levelarray::{ActivityArray, LevelArray, Registration};
/// use larng::default_rng;
///
/// let array = LevelArray::new(4);
/// let mut rng = default_rng(7);
/// {
///     let reg = Registration::acquire(&array, &mut rng);
///     assert!(array.collect().contains(&reg.name()));
/// } // dropped here -> freed
/// assert!(array.collect().is_empty());
/// ```
#[derive(Debug)]
#[must_use = "dropping a Registration immediately deregisters"]
pub struct Registration<'a, A: ActivityArray + ?Sized> {
    array: &'a A,
    acquired: Acquired,
    released: bool,
}

impl<'a, A: ActivityArray + ?Sized> Registration<'a, A> {
    /// Registers with `array`, panicking if it is exhausted (see
    /// [`ActivityArray::get`]).
    pub fn acquire(array: &'a A, rng: &mut dyn RandomSource) -> Self {
        let acquired = array.get(rng);
        Registration {
            array,
            acquired,
            released: false,
        }
    }

    /// Attempts to register with `array`.
    pub fn try_acquire(array: &'a A, rng: &mut dyn RandomSource) -> Option<Self> {
        array.try_get(rng).map(|acquired| Registration {
            array,
            acquired,
            released: false,
        })
    }

    /// The held name.
    pub fn name(&self) -> Name {
        self.acquired.name()
    }

    /// The full operation record of the underlying `Get`.
    pub fn acquired(&self) -> &Acquired {
        &self.acquired
    }

    /// Releases the name now instead of at drop time.
    pub fn release(mut self) {
        self.release_in_place();
    }

    /// Forgets the guard without releasing, handing responsibility for the
    /// eventual [`ActivityArray::free`] to the caller.
    #[must_use = "dropping the returned name leaks the slot forever"]
    pub fn leak(mut self) -> Name {
        self.released = true;
        self.acquired.name()
    }

    fn release_in_place(&mut self) {
        if !self.released {
            self.released = true;
            self.array.free(self.acquired.name());
        }
    }
}

impl<A: ActivityArray + ?Sized> Drop for Registration<'_, A> {
    fn drop(&mut self) {
        self.release_in_place();
    }
}

/// The panic of every `get` whose `try_get` found no free slot: the caller
/// held more names than `array`'s contention bound allows.
#[cold]
pub(crate) fn exhausted(array: &(impl ActivityArray + ?Sized)) -> ! {
    panic!(
        "{}: no free slot; the contention bound ({}) was exceeded",
        array.algorithm_name(),
        array.max_participants()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelArray;
    use larng::default_rng;

    #[test]
    fn acquired_accessors() {
        let a = Acquired::new(Name::new(3), 2, Some(1), false);
        assert_eq!(a.name().index(), 3);
        assert_eq!(a.probes(), 2);
        assert_eq!(a.batch(), Some(1));
        assert!(!a.used_backup());

        let b = Acquired::new(Name::new(9), 40, None, true);
        assert!(b.used_backup());
        assert_eq!(b.batch(), None);
    }

    #[test]
    fn registration_frees_on_drop() {
        let array = LevelArray::new(4);
        let mut rng = default_rng(1);
        let name;
        {
            let reg = Registration::acquire(&array, &mut rng);
            name = reg.name();
            assert_eq!(array.collect(), vec![name]);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn registration_release_is_idempotent_with_drop() {
        let array = LevelArray::new(4);
        let mut rng = default_rng(2);
        let reg = Registration::acquire(&array, &mut rng);
        reg.release();
        assert!(array.collect().is_empty());
    }

    #[test]
    fn registration_leak_transfers_ownership() {
        let array = LevelArray::new(4);
        let mut rng = default_rng(3);
        let name = Registration::acquire(&array, &mut rng).leak();
        // Still held after the guard is gone...
        assert_eq!(array.collect(), vec![name]);
        // ...and can be freed manually.
        array.free(name);
        assert!(array.collect().is_empty());
    }

    #[test]
    fn try_acquire_fails_gracefully_when_exhausted() {
        // A tiny array (n = 1, so 2 main + 1 backup slots).  Randomized probing
        // may miss a free main slot on any given attempt, but over many
        // attempts the array fills up completely, never over-fills, and once
        // full every further attempt returns `None`.
        let array = LevelArray::new(1);
        let mut rng = default_rng(4);
        let mut held = std::collections::HashSet::new();
        for _ in 0..200 {
            if let Some(reg) = Registration::try_acquire(&array, &mut rng) {
                assert!(held.insert(reg.leak()), "duplicate name handed out");
                assert!(
                    held.len() <= array.capacity(),
                    "acquired more names than slots"
                );
            }
        }
        assert_eq!(
            held.len(),
            array.capacity(),
            "array should fill up within 200 attempts"
        );
        assert!(Registration::try_acquire(&array, &mut rng).is_none());
    }

    #[test]
    fn every_facade_panics_the_same_way_when_exhausted() {
        use crate::{ElasticLevelArray, GrowthPolicy, ShardedLevelArray};
        use larng::DefaultRng;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// The message `get` panics with.
        fn message(get: impl FnOnce() -> Acquired) -> String {
            let payload = catch_unwind(AssertUnwindSafe(get)).expect_err("get must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }

        /// Fills every slot of `array` through `occupy`, then checks that the
        /// inherent `get` and the trait's `get` through `&dyn` panic with the
        /// one exhaustion message.
        fn check(
            label: &str,
            array: &dyn ActivityArray,
            occupy: impl Fn(Name) -> bool,
            inherent: impl FnOnce(&mut DefaultRng) -> Acquired,
        ) {
            for index in 0..array.capacity() {
                assert!(occupy(Name::new(index)), "{label}: slot {index}");
            }
            let expected = format!("{label}: no free slot; the contention bound (2) was exceeded");
            let mut rng = default_rng(5);
            assert_eq!(message(|| inherent(&mut rng)), expected);
            assert_eq!(message(|| array.get(&mut rng)), expected);
        }

        let flat = LevelArray::new(2);
        check(
            "LevelArray",
            &flat,
            |n| flat.force_occupy(n),
            |rng| flat.get(rng),
        );
        let sharded = ShardedLevelArray::new(2, 2);
        check(
            "ShardedLevelArray",
            &sharded,
            |n| sharded.force_occupy(n),
            |rng| sharded.get(rng),
        );
        let elastic = ElasticLevelArray::new(2, GrowthPolicy::Fixed);
        check(
            "ElasticLevelArray",
            &elastic,
            |n| elastic.force_occupy(n),
            |rng| elastic.get(rng),
        );
    }

    #[test]
    fn works_through_a_trait_object() {
        let array = LevelArray::new(4);
        let dyn_array: &dyn ActivityArray = &array;
        let mut rng = default_rng(5);
        let reg = Registration::acquire(dyn_array, &mut rng);
        assert_eq!(dyn_array.collect().len(), 1);
        drop(reg);
        assert!(dyn_array.collect().is_empty());
    }
}
