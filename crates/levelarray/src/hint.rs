//! The per-thread Free→Get hint cache.
//!
//! When a facade has the hint enabled ([`crate::LevelArrayConfig::free_hint`]),
//! every `free` records the released name here and the next same-thread
//! `try_get` on the same facade retries exactly that slot with one
//! test-and-set before entering the probe sequence.  The slot a thread just
//! freed is still exclusively cached by that thread's core, so the common
//! Free→Get churn pair becomes a single cache-hot CAS; a miss (the slot was
//! stolen in between) falls through to the unchanged probe path.
//!
//! The cache is keyed by a process-unique facade identity (the same scheme
//! the home pools use for their sticky home tokens), so two arrays on one
//! thread never trade hints — in particular, the differential conformance
//! suite drives a word-per-slot and a packed instance in lockstep, and
//! each must hit its own hint.  A taken entry is cleared
//! (hints are single-shot) and re-armed by the next `free`.  Facades reach
//! the cache only through their [`FreeHint`] handle.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::array::Acquired;
use crate::name::Name;

/// A facade's handle on the cache: its identity while the
/// [`crate::LevelArrayConfig::free_hint`] knob is on, `None` while it is off.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FreeHint(Option<u64>);

impl FreeHint {
    pub(crate) fn new(enabled: bool, array: u64) -> Self {
        FreeHint(enabled.then_some(array))
    }

    pub(crate) fn is_enabled(self) -> bool {
        self.0.is_some()
    }

    /// Takes the calling thread's hint, if any, and retries it through
    /// `acquire`; `None` sends the caller down its probe path.
    #[inline]
    pub(crate) fn reacquire(
        self,
        acquire: impl FnOnce(Name) -> Option<Acquired>,
    ) -> Option<Acquired> {
        acquire(take(self.0?)?)
    }

    /// Arms the hint with the name a `free` just released.
    #[inline]
    pub(crate) fn record(self, name: Name) {
        if let Some(array) = self.0 {
            record(array, name);
        }
    }

    /// Arms the hint with a `free_many` batch's last name, as the final
    /// free of a singleton loop would.
    pub(crate) fn record_last(self, names: &[Name]) {
        if let Some(&last) = names.last() {
            self.record(last);
        }
    }
}

/// Entries each thread keeps — one per facade instance it recently freed on.
/// Small and linear-scanned: the hot case is the first entry.
const ENTRIES: usize = 4;

/// Allocates a process-unique identity for one facade's hint handle or home
/// pool.
pub(crate) fn next_array_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// The calling thread's most recent frees, newest first, keyed by the
    /// owning facade's identity.
    static HINTS: Cell<[Option<(u64, Name)>; ENTRIES]> = const { Cell::new([None; ENTRIES]) };
}

/// Records `name` as the freshest hint for facade `array`, evicting any
/// previous hint of the same facade (and, at capacity, the oldest entry).
fn record(array: u64, name: Name) {
    HINTS.with(|cell| {
        let entries = cell.get();
        let mut next = [None; ENTRIES];
        next[0] = Some((array, name));
        let mut at = 1;
        for entry in entries {
            if at == ENTRIES {
                break;
            }
            match entry {
                Some((a, _)) if a == array => {}
                Some(_) => {
                    next[at] = entry;
                    at += 1;
                }
                None => {}
            }
        }
        cell.set(next);
    });
}

/// Takes (and clears) the calling thread's hint for facade `array`, if any.
fn take(array: u64) -> Option<Name> {
    HINTS.with(|cell| {
        let mut entries = cell.get();
        for slot in entries.iter_mut() {
            if let Some((a, name)) = *slot {
                if a == array {
                    *slot = None;
                    cell.set(entries);
                    return Some(name);
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = next_array_id();
        let b = next_array_id();
        assert_ne!(a, b);
    }

    #[test]
    fn record_take_round_trips_and_is_single_shot() {
        let id = next_array_id();
        assert_eq!(take(id), None);
        record(id, Name::new(7));
        assert_eq!(take(id), Some(Name::new(7)));
        assert_eq!(take(id), None, "hints are single-shot");
    }

    #[test]
    fn facades_do_not_trade_hints() {
        let a = next_array_id();
        let b = next_array_id();
        record(a, Name::new(1));
        record(b, Name::new(2));
        assert_eq!(take(a), Some(Name::new(1)));
        assert_eq!(take(b), Some(Name::new(2)));
    }

    #[test]
    fn a_newer_free_replaces_the_same_facades_hint() {
        let id = next_array_id();
        record(id, Name::new(1));
        record(id, Name::new(2));
        assert_eq!(take(id), Some(Name::new(2)));
        assert_eq!(take(id), None, "the replaced entry must not linger");
    }

    #[test]
    fn a_disabled_handle_neither_records_nor_takes() {
        let id = next_array_id();
        let off = FreeHint::new(false, id);
        assert!(!off.is_enabled());
        off.record(Name::new(3));
        assert_eq!(take(id), None, "a disabled handle arms nothing");
        record(id, Name::new(4));
        assert_eq!(off.reacquire(|name| panic!("took {name}")), None);
        let on = FreeHint::new(true, id);
        on.record_last(&[Name::new(5), Name::new(6)]);
        assert_eq!(take(id), Some(Name::new(6)), "a batch arms its last name");
    }

    #[test]
    fn capacity_evicts_the_oldest_entry() {
        let ids: Vec<u64> = (0..=ENTRIES).map(|_| next_array_id()).collect();
        for (i, &id) in ids.iter().enumerate() {
            record(id, Name::new(i));
        }
        assert_eq!(take(ids[0]), None, "oldest entry is evicted");
        for (i, &id) in ids.iter().enumerate().skip(1) {
            assert_eq!(take(id), Some(Name::new(i)));
        }
    }
}
