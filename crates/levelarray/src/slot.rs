//! The atomic slot: a test-and-set register.
//!
//! The paper's abstract algorithm acquires a slot with a *test-and-set* (TAS)
//! and releases it by resetting the location to 0; its implementation section
//! notes that the authors used compare-and-swap.  [`Slot`] supports both, and
//! [`TasKind`] selects which primitive a structure uses (an ablation knob for
//! the benchmark harness).  [`TasKind::CompareExchange`] is
//! test-and-test-and-set: it loads the slot and attempts the compare-exchange
//! only if the slot looked free, so probing a held slot is a read, not a
//! locked RMW.  That matters once an array holds more names than its bound
//! (an elastic epoch before it grows), where most probes meet held slots.
//! [`TasKind::Swap`] still writes unconditionally.
//!
//! [`Slot`] is the *word-per-slot* representation: one `AtomicU32` per one-bit
//! held/free state.  [`SlotLayout`] selects between it and the bit-packed
//! representation of [`crate::packed::PackedSlots`], which stores 64 slots per
//! atomic word so that `Collect` and the occupancy censuses scan 32× less
//! memory (at the price of denser false sharing between concurrent `Get`s).

use la_sync::atomic::{AtomicU32, Ordering};

/// How the one-bit held/free state of the slots is laid out in memory.
///
/// This is an implementation ablation of the paper's TAS register (in the
/// same spirit as [`TasKind`]): both layouts expose the identical
/// test-and-set / reset / read semantics, so every probing facade behaves
/// the same under either — the conformance suite
/// (`tests/layout_conformance.rs`) drives both with identical seeds and
/// asserts identical results.  The trade-off is purely architectural:
///
/// * [`SlotLayout::WordPerSlot`] — one `AtomicU32` per slot.  Concurrent
///   `Get`s contend on a cache line only when their slots are within 16
///   indices of each other.
/// * [`SlotLayout::Packed`] — one *bit* per slot in a slab of `AtomicU64`
///   words.  `Collect` and the censuses snapshot each word once and walk set
///   bits with `trailing_zeros`, touching 1/32 of the memory; in exchange,
///   512 slots share each cache line, so the randomized probing spreads
///   writers over fewer lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SlotLayout {
    /// One `AtomicU32` word per slot (the seed representation).
    #[default]
    WordPerSlot,
    /// One bit per slot, 64 slots per `AtomicU64` word.
    Packed,
}

/// Which hardware primitive `Get` uses to win a slot.
///
/// Both layouts implement [`TasKind::CompareExchange`] as
/// test-and-test-and-set: read the slot, and write only if it looked free.
/// A probe that lands on a held slot therefore reads and never writes, and
/// does not pull the line into exclusive state away from its holder.
/// [`TasKind::Swap`] keeps the unconditional write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TasKind {
    /// Load, then `compare_exchange(FREE, HELD)` only if the load saw the
    /// slot free — the paper's implementation choice (compare-and-swap),
    /// guarded by a read.
    #[default]
    CompareExchange,
    /// `swap(HELD)` — a pure test-and-set; never fails spuriously but always
    /// performs a write, even on an already-held slot.
    Swap,
}

const FREE: u32 = 0;
const HELD: u32 = 1;
// `Slot::held_bit` hands out the state word itself as the held bit.
const _: () = assert!(FREE == 0 && HELD == 1);

/// A single activity-array location.
///
/// The slot is a one-bit register exposed through atomic operations; it is
/// deliberately *not* padded to a cache line because the whole point of the
/// activity array is that `Collect` scans it with good cache behaviour
/// (paper §1).  False sharing between neighbouring slots is part of the
/// faithful reproduction; the randomized probing spreads writers out.
#[derive(Debug, Default)]
pub struct Slot {
    state: AtomicU32,
}

impl Slot {
    /// Creates a free slot.
    pub const fn new() -> Self {
        Slot {
            state: AtomicU32::new(FREE),
        }
    }

    /// Attempts to win the slot with the requested primitive.  Returns `true`
    /// if this call transitioned the slot from free to held.
    /// Under [`TasKind::CompareExchange`] a held slot costs a load and no
    /// write (see [`TasKind`]).
    #[inline]
    pub fn try_acquire(&self, kind: TasKind) -> bool {
        match kind {
            TasKind::CompareExchange => {
                self.state.load(Ordering::Acquire) == FREE
                    && self
                        .state
                        .compare_exchange(FREE, HELD, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
            }
            TasKind::Swap => self.state.swap(HELD, Ordering::AcqRel) == FREE,
        }
    }

    /// Releases the slot.
    ///
    /// Returns `true` if the slot was held (the normal case).  A `false`
    /// return means the caller released a slot that was already free — a
    /// protocol violation the caller should treat as a bug.
    #[inline]
    pub fn release(&self) -> bool {
        self.state.swap(FREE, Ordering::AcqRel) == HELD
    }

    /// Reads whether the slot is currently held.
    ///
    /// This is the read `Collect` performs; it is a plain acquire load and is
    /// *not* a snapshot — see the validity property in the crate docs.
    #[inline]
    pub fn is_held(&self) -> bool {
        self.state.load(Ordering::Acquire) == HELD
    }

    /// The slot's state as its held bit: 1 if held, 0 if free, read with
    /// one `Acquire` load, like [`Slot::is_held`].  The word only ever holds
    /// `FREE` (0) or `HELD` (1), so the scan kernels in `probe_core` shift
    /// the loaded word straight into a held mask, with no compare.
    #[inline(always)]
    pub(crate) fn held_bit(&self) -> u64 {
        let state = self.state.load(Ordering::Acquire);
        debug_assert!(
            state == FREE || state == HELD,
            "slot word {state} is neither free nor held"
        );
        u64::from(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn new_slot_is_free() {
        let s = Slot::new();
        assert!(!s.is_held());
    }

    #[test]
    fn acquire_release_cycle_compare_exchange() {
        let s = Slot::new();
        assert!(s.try_acquire(TasKind::CompareExchange));
        assert!(s.is_held());
        assert!(
            !s.try_acquire(TasKind::CompareExchange),
            "second acquire must lose"
        );
        assert!(s.release());
        assert!(!s.is_held());
        assert!(
            s.try_acquire(TasKind::CompareExchange),
            "slot is reusable after release"
        );
    }

    #[test]
    fn acquire_release_cycle_swap() {
        let s = Slot::new();
        assert!(s.try_acquire(TasKind::Swap));
        assert!(!s.try_acquire(TasKind::Swap));
        assert!(s.release());
        assert!(s.try_acquire(TasKind::Swap));
    }

    #[test]
    fn release_of_free_slot_reports_false() {
        let s = Slot::new();
        assert!(!s.release());
    }

    #[test]
    fn default_matches_new() {
        let s = Slot::default();
        assert!(!s.is_held());
    }

    #[test]
    fn mixed_primitives_interoperate() {
        let s = Slot::new();
        assert!(s.try_acquire(TasKind::Swap));
        assert!(!s.try_acquire(TasKind::CompareExchange));
        assert!(s.release());
        assert!(s.try_acquire(TasKind::CompareExchange));
        assert!(!s.try_acquire(TasKind::Swap));
    }

    /// `held_bit` shifts the state word into a mask as it is, so every
    /// operation of either primitive must leave the word `FREE` or `HELD`:
    /// winning and losing acquires, releases of held and of free slots, and
    /// threads racing with both primitives on one slot while another reads
    /// it.
    #[test]
    fn both_primitives_leave_only_free_or_held_in_the_word() {
        let word = |s: &Slot| s.state.load(Ordering::Acquire);
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            let s = Slot::new();
            assert_eq!((word(&s), s.held_bit()), (FREE, 0), "{kind:?}");
            for _ in 0..3 {
                assert!(s.try_acquire(kind));
                assert_eq!((word(&s), s.held_bit()), (HELD, 1), "{kind:?}");
                assert!(!s.try_acquire(kind));
                assert_eq!((word(&s), s.held_bit()), (HELD, 1), "{kind:?}");
                assert!(s.release());
                assert_eq!((word(&s), s.held_bit()), (FREE, 0), "{kind:?}");
                assert!(!s.release());
                assert_eq!((word(&s), s.held_bit()), (FREE, 0), "{kind:?}");
            }
        }
        let rounds = if cfg!(miri) { 20 } else { 2000 };
        let slot = Slot::new();
        std::thread::scope(|scope| {
            for kind in [TasKind::CompareExchange, TasKind::Swap] {
                let slot = &slot;
                scope.spawn(move || {
                    for _ in 0..rounds {
                        if slot.try_acquire(kind) {
                            assert!(slot.release(), "{kind:?}");
                        }
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..rounds {
                    let state = word(&slot);
                    assert!(state == FREE || state == HELD, "word {state}");
                    assert!(slot.held_bit() <= 1);
                }
            });
        });
        assert_eq!(word(&slot), FREE);
    }

    /// Exactly one of many concurrent acquirers can win a free slot.
    #[test]
    fn concurrent_acquire_has_a_unique_winner() {
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            let slot = Arc::new(Slot::new());
            let winners = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    let slot = Arc::clone(&slot);
                    let winners = Arc::clone(&winners);
                    scope.spawn(move || {
                        if slot.try_acquire(kind) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1, "{kind:?}");
        }
    }
}
