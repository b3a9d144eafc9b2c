//! The bit-packed slot slab: 64 test-and-set registers per atomic word.
//!
//! A [`PackedSlots`] stores the one-bit held/free state of `len` slots in
//! `⌈len / 64⌉` `AtomicU64` words.  Acquire is a `fetch_or` on one bit (a
//! single wait-free RMW that can never fail spuriously), free is a
//! `fetch_and` clearing it, and the scan paths — `Collect`, the occupancy
//! censuses, `batchwise_occupancy` — snapshot each word *once* and walk its
//! set bits with `trailing_zeros`, so a scan touches 1/32 of the memory the
//! word-per-slot layout ([`crate::slot::Slot`]) reads for the same
//! information.  That is exactly the paper's pitch for the activity array
//! (§1: `Collect` reads a small, cache-friendly region) taken to its memory
//! floor.
//!
//! The trade-off is write-side density: 512 slots share each cache line, so
//! concurrent `Get`s invalidate each other's lines more often than under the
//! word-per-slot layout.  [`crate::slot::SlotLayout`] exposes the choice as a
//! configuration knob, and the layout sweep in the `sweeps` bench measures
//! both sides of the trade.
//!
//! ## Batched scans
//!
//! The census and walk paths process `LANES` words per iteration: each
//! chunk is snapshotted with one acquire load per word, whole chunks of
//! zeros are skipped with a single OR-reduction, and popcounts are
//! accumulated across the chunk before touching any individual bit.
//! `Collect` loads each word once: it snapshots a block of
//! `COLLECT_BLOCK` words, reserves the block's popcount and writes the
//! names through `append_names`, the writer the word-per-slot `Collect`
//! in [`crate::probe_core`] shares.  The one-word-at-a-time walk is kept as
//! `*_scalar` oracles that the differential tests (and the `collect-scalar`
//! bench reference cell) run against.

use la_fault::fail_point;
use la_sync::atomic::{AtomicU64, Ordering};
use std::ops::Range;

use crate::name::Name;
use crate::slot::TasKind;

/// Number of slots stored per atomic word.
const BITS: usize = u64::BITS as usize;

/// Words snapshotted per batched scan step.
const LANES: usize = 8;

/// Masks per Collect block: a block names up to 1024 slots with one
/// `reserve`.  The word-per-slot Collect in [`crate::probe_core`] uses the
/// same block of chunk masks.
pub(crate) const COLLECT_BLOCK: usize = 16;

/// Appends a [`Name`] for every set bit of a block of masks, in increasing
/// order: bit `b` of `masks[w]` names `Name::from_raw(raw_base + 64·w + b)`.
///
/// The masks are a snapshot, so the block's popcount is exactly the number
/// of names: one `reserve` covers them, and each name is a single store into
/// the vector's spare capacity, with no length/capacity round-trip per
/// `push`.  Both layouts' Collect write through it: packed with word
/// snapshots, word-per-slot with chunk masks.  The caller guarantees that
/// every written index stays below [`Name::MAX_INDEX`].
#[inline]
pub(crate) fn append_names(masks: &[u64], raw_base: usize, out: &mut Vec<Name>) {
    let held: usize = masks.iter().map(|mask| mask.count_ones() as usize).sum();
    if held == 0 {
        return;
    }
    out.reserve(held);
    let spare = &mut out.spare_capacity_mut()[..held];
    let mut written = 0usize;
    let mut base = raw_base;
    for &mask in masks {
        PackedSlots::walk_bits(base, mask, &mut |raw| {
            spare[written].write(Name::from_raw(raw));
            written += 1;
        });
        base += BITS;
    }
    debug_assert_eq!(written, held);
    // SAFETY: the walk initialised the first `written` spare slots, and the
    // bounds-checked writes keep `written <= held <=` the reserved spare
    // capacity.
    unsafe { out.set_len(out.len() + written) };
}

/// A precomputed word-aligned view of a slot range: the inclusive word
/// bounds plus the partial-word masks at both ends.  [`crate::probe_core`]
/// caches one per census region (batch and backup) so repeated censuses skip
/// the boundary arithmetic a fresh [`Range`] scan would re-derive per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordSpan {
    /// First overlapped word.
    first: usize,
    /// Last overlapped word (inclusive).
    last: usize,
    /// Mask selecting the in-range bits of the first word.
    head_mask: u64,
    /// Mask selecting the in-range bits of the last word.
    tail_mask: u64,
    /// Whether the source range was empty (the bounds are then meaningless).
    empty: bool,
}

impl WordSpan {
    /// Computes the word bounds and edge masks of `range`.
    pub(crate) fn new(range: Range<usize>) -> Self {
        if range.start >= range.end {
            return WordSpan {
                first: 0,
                last: 0,
                head_mask: 0,
                tail_mask: 0,
                empty: true,
            };
        }
        let first = range.start / BITS;
        let last = (range.end - 1) / BITS;
        let tail = range.end - last * BITS;
        WordSpan {
            first,
            last,
            head_mask: u64::MAX << (range.start % BITS),
            tail_mask: if tail < BITS {
                (1u64 << tail) - 1
            } else {
                u64::MAX
            },
            empty: false,
        }
    }

    /// Whether the span covers no slots.
    pub(crate) fn is_empty(&self) -> bool {
        self.empty
    }
}

/// A slab of one-bit test-and-set registers packed 64-per-word.
///
/// Indices are dense `0..len()`; all operations panic (in debug builds) or
/// touch an in-range word (in release builds) only for valid indices — the
/// callers in [`crate::probe_core`] validate names before indexing, exactly
/// as they do for the word-per-slot slab.
///
/// # Examples
///
/// ```
/// use levelarray::packed::PackedSlots;
/// use levelarray::TasKind;
///
/// let slab = PackedSlots::new(100);
/// assert!(slab.try_acquire(42, TasKind::CompareExchange));
/// assert!(!slab.try_acquire(42, TasKind::Swap), "second acquire must lose");
/// assert!(slab.is_held(42));
/// assert_eq!(slab.count_held(0..100), 1);
/// assert!(slab.release(42));
/// assert!(!slab.is_held(42));
/// ```
#[derive(Debug)]
pub struct PackedSlots {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl PackedSlots {
    /// Creates a slab of `len` free slots.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(BITS)).map(|_| AtomicU64::new(0)).collect();
        PackedSlots { words, len }
    }

    /// Number of slots (not words) in the slab.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn split(idx: usize) -> (usize, u64) {
        (idx / BITS, 1u64 << (idx % BITS))
    }

    /// Attempts to win slot `idx` with the requested primitive.  Returns
    /// `true` if this call transitioned the slot from free to held.
    ///
    /// Both kinds resolve the race with a single `fetch_or`, which — unlike a
    /// word-per-slot compare-exchange retry loop would be — is wait-free even
    /// when neighbouring bits of the word churn concurrently.  The [`TasKind`]
    /// distinction maps onto the bit representation as *test-then-set*
    /// ([`TasKind::CompareExchange`]: skip the RMW when the bit is visibly
    /// held, mirroring a failed compare-exchange performing no write) versus
    /// unconditional RMW ([`TasKind::Swap`]: always write, like `swap`).
    #[inline]
    pub fn try_acquire(&self, idx: usize, kind: TasKind) -> bool {
        debug_assert!(idx < self.len, "slot index {idx} out of range {}", self.len);
        // Pre-RMW on purpose: a fault here unwinds before the bit is set, so
        // there is never a claimed-but-unreported slot at this layer.
        fail_point!("packed::try_acquire");
        let (word, bit) = Self::split(idx);
        if kind == TasKind::CompareExchange && self.words[word].load(Ordering::Acquire) & bit != 0 {
            return false;
        }
        self.words[word].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Releases slot `idx`.  Returns `true` if the slot was held (the normal
    /// case); `false` means the caller released a free slot — a protocol
    /// violation the caller should treat as a bug.
    #[inline]
    pub fn release(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len, "slot index {idx} out of range {}", self.len);
        let (word, bit) = Self::split(idx);
        self.words[word].fetch_and(!bit, Ordering::AcqRel) & bit != 0
    }

    /// Selects the lowest `k` set bits of `mask` (all of them when fewer are
    /// set).  `mask & mask.wrapping_neg()` isolates the lowest set bit, so
    /// the loop runs at most `k` times and never scans free positions.
    #[inline]
    fn lowest_k_bits(mut mask: u64, k: usize) -> u64 {
        if mask.count_ones() as usize <= k {
            return mask;
        }
        let mut selected = 0u64;
        for _ in 0..k {
            let low = mask & mask.wrapping_neg();
            selected |= low;
            mask ^= low;
        }
        selected
    }

    /// The batched multi-claim kernel: attempts to win up to `k` free slots
    /// inside `range` — which must lie within a single word — with **one**
    /// combined-mask RMW, reporting each win through `f` in rotation order
    /// (indices `start..range.end` first, then wrapping to
    /// `range.start..start`).  Returns the number of slots claimed.
    ///
    /// Under [`TasKind::CompareExchange`] the word is snapshotted, up to `k`
    /// zero bits are selected, and a single `compare_exchange` installs the
    /// combined mask; if a concurrent writer moved the word first, the call
    /// falls back to one per-bit test-and-set per window slot in the same
    /// rotation order — no retry loop, so the kernel stays wait-free.  Under
    /// [`TasKind::Swap`] a single `fetch_or` installs the mask
    /// unconditionally and the bits that were already held are simply not
    /// reported as wins (the same semantics as `swap` observing `HELD`).
    ///
    /// Single-threaded, both kinds claim exactly the first `min(k, free)`
    /// free slots of the window in rotation order — identical to a per-slot
    /// [`Self::try_acquire`] loop, which is what keeps the bit-packed layout
    /// in lockstep with the word-per-slot layout under the conformance suite.
    pub(crate) fn claim_word_window(
        &self,
        range: Range<usize>,
        start: usize,
        k: usize,
        kind: TasKind,
        f: &mut impl FnMut(usize),
    ) -> usize {
        if k == 0 || range.start >= range.end {
            return 0;
        }
        // Pre-RMW, like `try_acquire`: every reported win happens strictly
        // after this point, so an unwind here claims nothing.
        fail_point!("packed::claim_word");
        debug_assert!(range.end <= self.len, "range {range:?} out of {}", self.len);
        debug_assert!(
            range.start / BITS == (range.end - 1) / BITS,
            "window {range:?} spans more than one word"
        );
        debug_assert!(range.contains(&start), "start {start} outside {range:?}");
        let word = range.start / BITS;
        let base = word * BITS;
        let tail = range.end - base;
        let window_mask = (u64::MAX << (range.start % BITS))
            & if tail < BITS {
                (1u64 << tail) - 1
            } else {
                u64::MAX
            };
        let snap = self.words[word].load(Ordering::Acquire);
        let free = !snap & window_mask;
        if free == 0 {
            return 0;
        }
        // Rotation order: the probed index and everything above it first,
        // then wrap around to the window start.
        let pivot = u64::MAX << (start % BITS);
        let upper_sel = Self::lowest_k_bits(free & pivot, k);
        let lower_sel = Self::lowest_k_bits(free & !pivot, k - upper_sel.count_ones() as usize);
        let claim = upper_sel | lower_sel;
        let mut claimed = 0usize;
        let mut report = |sel: u64| {
            Self::walk_bits(base, sel, &mut |idx| {
                claimed += 1;
                f(idx);
            });
        };
        match kind {
            TasKind::CompareExchange => {
                if self.words[word]
                    .compare_exchange(snap, snap | claim, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    report(upper_sel);
                    report(lower_sel);
                } else {
                    // The word moved under us: claim bit-by-bit in the same
                    // rotation order, one wait-free RMW per slot.
                    for idx in (start..range.end).chain(range.start..start) {
                        if claimed == k {
                            break;
                        }
                        if self.try_acquire(idx, kind) {
                            claimed += 1;
                            f(idx);
                        }
                    }
                }
            }
            TasKind::Swap => {
                let prev = self.words[word].fetch_or(claim, Ordering::AcqRel);
                let wins = claim & !prev;
                report(upper_sel & wins);
                report(lower_sel & wins);
            }
        }
        claimed
    }

    /// Groups the sorted slot indices in `indices` (each `base`-offset —
    /// packed-local index is `indices[i] - base`) by word and calls
    /// `f(word, mask)` once per touched word, `mask` holding its indices.
    ///
    /// # Panics
    ///
    /// Panics if an index appears twice (a double free), reporting the
    /// caller-namespace value.
    fn word_masks(&self, indices: &[usize], base: usize, mut f: impl FnMut(usize, u64)) {
        let mut i = 0;
        while i < indices.len() {
            let word = (indices[i] - base) / BITS;
            let mut mask = 0u64;
            while i < indices.len() && (indices[i] - base) / BITS == word {
                let raw = indices[i];
                let local = raw - base;
                debug_assert!(
                    local < self.len,
                    "slot index {local} out of range {}",
                    self.len
                );
                let bit = 1u64 << (local % BITS);
                assert!(
                    mask & bit == 0,
                    "double free: name {raw} appears twice in free_many()"
                );
                mask |= bit;
                i += 1;
            }
            f(word, mask);
        }
    }

    /// Panics unless every bit of `mask` is set in `held`, the snapshot of
    /// word `word`, reporting the first missing slot in the caller's
    /// namespace.
    fn assert_held(held: u64, mask: u64, word: usize, base: usize) {
        let missed = mask & !held;
        assert!(
            missed == 0,
            "double free: name {} was not held when free_many() was called",
            base + word * BITS + missed.trailing_zeros() as usize
        );
    }

    /// The bulk-release check: with one acquire load per touched word,
    /// verifies that the sorted slot indices in `indices` (`base`-offset, as
    /// in [`PackedSlots::release_sorted`]) are distinct and held.
    ///
    /// # Panics
    ///
    /// Panics, having changed nothing, if an index appears twice or names a
    /// slot that is not held (both are double frees).
    pub(crate) fn check_sorted(&self, indices: &[usize], base: usize) {
        self.word_masks(indices, base, |word, mask| {
            Self::assert_held(self.words[word].load(Ordering::Acquire), mask, word, base);
        });
    }

    /// The bulk-release kernel: clears the sorted slot indices in `indices`
    /// (each `base`-offset — packed-local index is `indices[i] - base`) with
    /// **one** `fetch_and` per touched word, merging every index of a word
    /// into a single clear mask.  A batch that
    /// [`PackedSlots::check_sorted`] passed releases in full.
    ///
    /// # Panics
    ///
    /// Panics if an index appears twice or names a slot that was not held
    /// (both are double frees), reporting the caller-namespace value.
    pub(crate) fn release_sorted(&self, indices: &[usize], base: usize) {
        self.word_masks(indices, base, |word, mask| {
            let prev = self.words[word].fetch_and(!mask, Ordering::AcqRel);
            Self::assert_held(prev, mask, word, base);
        });
    }

    /// Reads whether slot `idx` is currently held (an acquire load, not a
    /// snapshot — the same validity contract as [`crate::slot::Slot::is_held`]).
    #[inline]
    pub fn is_held(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len, "slot index {idx} out of range {}", self.len);
        let (word, bit) = Self::split(idx);
        self.words[word].load(Ordering::Acquire) & bit != 0
    }

    /// Visits every word overlapping `range`, passing the index of the word's
    /// first slot and the word's snapshot masked down to the slots inside the
    /// range.  One acquire load per word.  This is the one-word-at-a-time
    /// reference walk; the public scan API batches `LANES` words per step
    /// and is checked against this walk by the differential tests.
    #[inline]
    fn for_each_word(&self, range: Range<usize>, mut f: impl FnMut(usize, u64)) {
        debug_assert!(range.end <= self.len, "range {range:?} out of {}", self.len);
        if range.start >= range.end {
            return;
        }
        let first = range.start / BITS;
        let last = (range.end - 1) / BITS;
        for word in first..=last {
            let mut mask = u64::MAX;
            if word == first {
                mask &= u64::MAX << (range.start % BITS);
            }
            if word == last {
                let tail = range.end - word * BITS;
                if tail < BITS {
                    mask &= (1u64 << tail) - 1;
                }
            }
            f(word * BITS, self.words[word].load(Ordering::Acquire) & mask);
        }
    }

    /// Precomputes the word-aligned view of `range` for repeated scans over
    /// the same region (the census table in [`crate::probe_core`]).
    pub(crate) fn span(&self, range: Range<usize>) -> WordSpan {
        debug_assert!(range.end <= self.len, "range {range:?} out of {}", self.len);
        WordSpan::new(range)
    }

    /// Snapshots `LANES` consecutive words, one acquire load each.
    #[inline]
    fn load_chunk(chunk: &[AtomicU64]) -> [u64; LANES] {
        debug_assert_eq!(chunk.len(), LANES);
        let mut snap = [0u64; LANES];
        for (dst, word) in snap.iter_mut().zip(chunk) {
            *dst = word.load(Ordering::Acquire);
        }
        snap
    }

    /// Popcount of one snapshot chunk.
    #[inline]
    fn chunk_popcount(snap: [u64; LANES]) -> usize {
        snap.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit of one snapshot chunk is set (an OR-reduction).
    #[inline]
    fn chunk_any(snap: [u64; LANES]) -> bool {
        snap.iter().fold(0u64, |acc, w| acc | w) != 0
    }

    /// Walks the set bits of one masked word snapshot in increasing order,
    /// calling `f(base + bit)`.  The Collect writer [`append_names`] walks
    /// both layouts' masks with it.
    #[inline]
    pub(crate) fn walk_bits(base: usize, mut bits: u64, f: &mut impl FnMut(usize)) {
        while bits != 0 {
            f(base + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }

    /// The number of held slots in `range`: one load plus a `count_ones` per
    /// word, accumulated `LANES` words at a time.
    #[inline]
    pub fn count_held(&self, range: Range<usize>) -> usize {
        let span = self.span(range);
        self.count_span(span)
    }

    /// [`Self::count_held`] over a precomputed [`WordSpan`].
    pub(crate) fn count_span(&self, span: WordSpan) -> usize {
        if span.is_empty() {
            return 0;
        }
        if span.first == span.last {
            let bits =
                self.words[span.first].load(Ordering::Acquire) & span.head_mask & span.tail_mask;
            return bits.count_ones() as usize;
        }
        let head = self.words[span.first].load(Ordering::Acquire) & span.head_mask;
        let tail = self.words[span.last].load(Ordering::Acquire) & span.tail_mask;
        let mut total = (head.count_ones() + tail.count_ones()) as usize;
        let mut interior = self.words[span.first + 1..span.last].chunks_exact(LANES);
        for chunk in interior.by_ref() {
            total += Self::chunk_popcount(Self::load_chunk(chunk));
        }
        for word in interior.remainder() {
            total += word.load(Ordering::Acquire).count_ones() as usize;
        }
        total
    }

    /// Appends a [`Name`] for every held slot in `range` (offset by
    /// `name_base`) to `out`, in increasing order — the `Collect` hot path.
    ///
    /// Each word is loaded once: a block of up to 16 word snapshots is
    /// reserved by its popcount and written straight into the vector's spare
    /// capacity, so the per-name cost is one store instead of a
    /// length/capacity round-trip per `push`.
    ///
    /// # Panics
    ///
    /// Panics if a name would exceed [`Name::MAX_INDEX`].
    #[inline]
    pub fn collect_into(&self, range: Range<usize>, name_base: usize, out: &mut Vec<Name>) {
        // An epoch-0 name is its index, so `name_base` is the raw base, and
        // one check covers every index the scan can write.
        assert!(
            name_base + range.end <= Name::MAX_INDEX + 1,
            "index exceeds Name::MAX_INDEX"
        );
        self.collect_raw_into(range, name_base, out);
    }

    /// [`Self::collect_into`] over raw name encodings: slot `idx` appends
    /// `Name::from_raw(raw_base + idx)`, so an epoch-tagged base yields
    /// tagged names.  The caller checks that every written index stays below
    /// [`Name::MAX_INDEX`].
    pub(crate) fn collect_raw_into(
        &self,
        range: Range<usize>,
        raw_base: usize,
        out: &mut Vec<Name>,
    ) {
        let span = self.span(range);
        if span.is_empty() {
            return;
        }
        let mut block = [0u64; COLLECT_BLOCK];
        for first in (span.first..=span.last).step_by(COLLECT_BLOCK) {
            let last = span.last.min(first + COLLECT_BLOCK - 1);
            let snap = &mut block[..=last - first];
            for (dst, word) in snap.iter_mut().zip(&self.words[first..=last]) {
                *dst = word.load(Ordering::Acquire);
            }
            if first == span.first {
                snap[0] &= span.head_mask;
            }
            if last == span.last {
                snap[last - first] &= span.tail_mask;
            }
            append_names(snap, raw_base + first * BITS, out);
        }
    }

    /// One-word-at-a-time variant of [`Self::count_held`]: the PR 5 reference
    /// implementation, kept as the oracle for the differential tests and for
    /// the `collect-scalar` bench reference cell.
    #[doc(hidden)]
    pub fn count_held_scalar(&self, range: Range<usize>) -> usize {
        let mut count = 0usize;
        self.for_each_word(range, |_, bits| count += bits.count_ones() as usize);
        count
    }

    /// Calls `f` with the index of every held slot in `range`, in increasing
    /// order, one word at a time: the reference walk the differential tests
    /// check [`Self::collect_into`] against, and the `collect-scalar` bench
    /// reference cell (see [`Self::count_held_scalar`]).
    #[doc(hidden)]
    pub fn for_each_held_scalar(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        self.for_each_word(range, |base, bits| Self::walk_bits(base, bits, &mut f));
    }

    /// Whether any slot in the slab is held — the drained check of the
    /// elastic retirement protocol, at one load per word, reduced `LANES`
    /// words at a time.
    #[inline]
    pub fn any_held(&self) -> bool {
        let mut chunks = self.words.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            if Self::chunk_any(Self::load_chunk(chunk)) {
                return true;
            }
        }
        chunks
            .remainder()
            .iter()
            .any(|w| w.load(Ordering::Acquire) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn new_slab_is_all_free() {
        let s = PackedSlots::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert!(PackedSlots::new(0).is_empty());
        for idx in 0..130 {
            assert!(!s.is_held(idx));
        }
        assert_eq!(s.count_held(0..130), 0);
        assert!(!s.any_held());
    }

    #[test]
    fn acquire_release_cycle_both_kinds() {
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            let s = PackedSlots::new(70);
            // Cross a word boundary on purpose.
            for idx in [0usize, 63, 64, 69] {
                assert!(s.try_acquire(idx, kind), "{kind:?} idx {idx}");
                assert!(s.is_held(idx));
                assert!(!s.try_acquire(idx, kind), "second acquire must lose");
                assert!(s.release(idx));
                assert!(!s.is_held(idx));
                assert!(s.try_acquire(idx, kind), "slot is reusable");
                assert!(s.release(idx));
            }
        }
    }

    #[test]
    fn release_of_free_slot_reports_false() {
        let s = PackedSlots::new(8);
        assert!(!s.release(3));
    }

    #[test]
    fn neighbours_do_not_interfere() {
        let s = PackedSlots::new(128);
        assert!(s.try_acquire(7, TasKind::CompareExchange));
        assert!(s.try_acquire(8, TasKind::Swap));
        assert!(s.release(7));
        assert!(s.is_held(8), "releasing 7 must not clear 8");
        assert!(!s.is_held(7));
        assert!(s.release(8));
    }

    #[test]
    fn count_and_iterate_respect_range_edges() {
        let s = PackedSlots::new(200);
        for idx in [0usize, 5, 63, 64, 100, 150, 199] {
            assert!(s.try_acquire(idx, TasKind::CompareExchange));
        }
        assert_eq!(s.count_held(0..200), 7);
        assert_eq!(s.count_held(0..64), 3);
        assert_eq!(s.count_held(64..200), 4);
        assert_eq!(s.count_held(5..6), 1);
        assert_eq!(s.count_held(6..63), 0);
        assert_eq!(s.count_held(63..65), 2);
        assert_eq!(s.count_held(10..10), 0);

        let mut seen = Vec::new();
        s.collect_into(60..151, 0, &mut seen);
        assert_eq!(seen, [63, 64, 100, 150].map(Name::new));
        let mut walked = Vec::new();
        s.for_each_held_scalar(60..151, |idx| walked.push(idx));
        assert_eq!(walked, vec![63, 64, 100, 150]);
        assert!(s.any_held());
    }

    #[test]
    fn full_word_boundary_lengths() {
        // len == multiple of 64: the tail mask must not shift by 64.
        let s = PackedSlots::new(128);
        assert!(s.try_acquire(127, TasKind::Swap));
        assert_eq!(s.count_held(0..128), 1);
        let mut seen = Vec::new();
        s.collect_into(64..128, 0, &mut seen);
        assert_eq!(seen, [Name::new(127)]);
        let mut walked = Vec::new();
        s.for_each_held_scalar(64..128, |idx| walked.push(idx));
        assert_eq!(walked, vec![127]);
    }

    /// Exactly one of many concurrent acquirers can win a free slot, for both
    /// primitives, including when racers hammer neighbouring bits of the same
    /// word.
    #[test]
    fn concurrent_acquire_has_a_unique_winner() {
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            let slab = Arc::new(PackedSlots::new(64));
            let winners = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for t in 0..8 {
                    let slab = Arc::clone(&slab);
                    let winners = Arc::clone(&winners);
                    scope.spawn(move || {
                        // Everyone fights for bit 5 while also churning a
                        // private neighbour bit in the same word.
                        let private = 10 + t;
                        for _ in 0..100 {
                            assert!(slab.try_acquire(private, kind));
                            assert!(slab.release(private));
                        }
                        if slab.try_acquire(5, kind) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1, "{kind:?}");
            assert_eq!(slab.count_held(0..64), 1, "{kind:?}");
        }
    }

    /// The batched scans must agree exactly with the one-word-at-a-time reference walk on
    /// random occupancy patterns and random subranges, including all the
    /// word-boundary edge cases.
    #[test]
    fn batched_scans_match_scalar_reference() {
        use larng::RandomSource;
        let lens: &[usize] = if cfg!(miri) {
            &[1, 64, 65, 129, 700]
        } else {
            &[1, 63, 64, 65, 127, 128, 129, 512, 700, 1000, 4096]
        };
        let mut rng = larng::default_rng(0xBA7C);
        for &len in lens {
            for density in [0.02, 0.3, 0.95] {
                let s = PackedSlots::new(len);
                for idx in 0..len {
                    if rng.gen_bool(density) {
                        assert!(s.try_acquire(idx, TasKind::CompareExchange));
                    }
                }
                let mut ranges = vec![0..len, 0..0, len..len];
                for _ in 0..(if cfg!(miri) { 4 } else { 24 }) {
                    let a = rng.gen_index(len + 1);
                    let b = rng.gen_index(len + 1);
                    ranges.push(a.min(b)..a.max(b));
                }
                for range in ranges {
                    assert_eq!(
                        s.count_held(range.clone()),
                        s.count_held_scalar(range.clone()),
                        "count len {len} range {range:?}"
                    );
                    let mut batched = Vec::new();
                    let mut scalar = Vec::new();
                    s.collect_into(range.clone(), 0, &mut batched);
                    s.for_each_held_scalar(range.clone(), |i| scalar.push(Name::new(i)));
                    assert_eq!(batched, scalar, "walk len {len} range {range:?}");
                    assert_eq!(
                        s.any_held(),
                        s.count_held_scalar(0..len) != 0,
                        "any_held len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn lowest_k_bits_selects_from_the_bottom() {
        assert_eq!(PackedSlots::lowest_k_bits(0, 5), 0);
        assert_eq!(PackedSlots::lowest_k_bits(0b1011, 0), 0);
        assert_eq!(PackedSlots::lowest_k_bits(0b1011, 2), 0b0011);
        assert_eq!(PackedSlots::lowest_k_bits(0b1011, 3), 0b1011);
        assert_eq!(PackedSlots::lowest_k_bits(0b1011, 9), 0b1011);
        assert_eq!(PackedSlots::lowest_k_bits(u64::MAX, 1), 1);
        assert_eq!(PackedSlots::lowest_k_bits(1u64 << 63, 1), 1u64 << 63);
    }

    #[test]
    fn claim_word_window_claims_in_rotation_order() {
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            let s = PackedSlots::new(128);
            // Window 64..128, probe lands at 100: expect 100.. then wrap.
            assert!(s.try_acquire(101, kind));
            let mut won = Vec::new();
            let got = s.claim_word_window(64..128, 100, 4, kind, &mut |i| won.push(i));
            assert_eq!(got, 4, "{kind:?}");
            assert_eq!(won, vec![100, 102, 103, 104], "{kind:?}");
            // Fewer free than k: wraps below the pivot and stops at the count.
            let s = PackedSlots::new(128);
            for idx in 66..126 {
                assert!(s.try_acquire(idx, kind));
            }
            let mut won = Vec::new();
            let got = s.claim_word_window(64..128, 100, 10, kind, &mut |i| won.push(i));
            assert_eq!(got, 4, "{kind:?}");
            assert_eq!(won, vec![126, 127, 64, 65], "{kind:?}");
            // Full window yields nothing.
            let mut won = Vec::new();
            assert_eq!(
                s.claim_word_window(64..128, 70, 3, kind, &mut |i| won.push(i)),
                0
            );
            assert!(won.is_empty());
            // k == 0 is a no-op.
            assert_eq!(s.claim_word_window(0..64, 5, 0, kind, &mut |_| panic!()), 0);
        }
    }

    #[test]
    fn claim_word_window_respects_partial_windows() {
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            // A window clipped at both ends (range 67..70 within word 1).
            let s = PackedSlots::new(128);
            let mut won = Vec::new();
            let got = s.claim_word_window(67..70, 68, 8, kind, &mut |i| won.push(i));
            assert_eq!(got, 3, "{kind:?}");
            assert_eq!(won, vec![68, 69, 67], "{kind:?}");
            assert!(!s.is_held(66));
            assert!(!s.is_held(70), "bits outside the window stay free");
            // A tail window shorter than a word at the end of the slab.
            let s = PackedSlots::new(70);
            let mut won = Vec::new();
            let got = s.claim_word_window(64..70, 64, 16, kind, &mut |i| won.push(i));
            assert_eq!(got, 6, "{kind:?}");
            assert_eq!(won, vec![64, 65, 66, 67, 68, 69], "{kind:?}");
        }
    }

    #[test]
    fn claim_word_window_matches_singleton_loop_single_threaded() {
        use larng::RandomSource;
        let mut rng = larng::default_rng(0xC1A1);
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            for _ in 0..if cfg!(miri) { 8 } else { 64 } {
                let batched = PackedSlots::new(64);
                let single = PackedSlots::new(64);
                for idx in 0..64 {
                    if rng.gen_bool(0.5) {
                        assert!(batched.try_acquire(idx, kind));
                        assert!(single.try_acquire(idx, kind));
                    }
                }
                let start = rng.gen_index(64);
                let k = rng.gen_index(10);
                let mut batch_won = Vec::new();
                batched.claim_word_window(0..64, start, k, kind, &mut |i| batch_won.push(i));
                let mut single_won = Vec::new();
                for idx in (start..64).chain(0..start) {
                    if single_won.len() == k {
                        break;
                    }
                    if single.try_acquire(idx, kind) {
                        single_won.push(idx);
                    }
                }
                assert_eq!(batch_won, single_won, "{kind:?} start {start} k {k}");
            }
        }
    }

    #[test]
    fn release_sorted_clears_groups_with_one_rmw_per_word() {
        let s = PackedSlots::new(200);
        let held = [0usize, 5, 63, 64, 100, 150, 199];
        for &idx in &held {
            assert!(s.try_acquire(idx, TasKind::CompareExchange));
        }
        // Release a subset through the bulk kernel, with a name-space base.
        let names: Vec<usize> = [5usize, 63, 64, 150].iter().map(|i| i + 1000).collect();
        s.release_sorted(&names, 1000);
        assert_eq!(s.count_held(0..200), 3);
        for idx in [0usize, 100, 199] {
            assert!(s.is_held(idx));
        }
        s.release_sorted(&[0, 100, 199], 0);
        assert!(!s.any_held());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn release_sorted_panics_on_unheld_slot() {
        let s = PackedSlots::new(64);
        assert!(s.try_acquire(3, TasKind::CompareExchange));
        s.release_sorted(&[3, 4], 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn release_sorted_panics_on_duplicate_index() {
        let s = PackedSlots::new(64);
        assert!(s.try_acquire(3, TasKind::CompareExchange));
        s.release_sorted(&[3, 3], 0);
    }

    /// Concurrent multi-claims over the same word never hand out the same
    /// slot twice, for both primitives (CAS fallback path included).
    #[test]
    fn concurrent_claim_word_window_is_exclusive() {
        let rounds = if cfg!(miri) { 4 } else { 50 };
        for kind in [TasKind::CompareExchange, TasKind::Swap] {
            for round in 0..rounds {
                let slab = Arc::new(PackedSlots::new(64));
                let total = Arc::new(AtomicUsize::new(0));
                std::thread::scope(|scope| {
                    for t in 0..4 {
                        let slab = Arc::clone(&slab);
                        let total = Arc::clone(&total);
                        scope.spawn(move || {
                            let mut won = Vec::new();
                            let start = (round * 7 + t * 13) % 64;
                            slab.claim_word_window(0..64, start, 20, kind, &mut |i| won.push(i));
                            total.fetch_add(won.len(), Ordering::Relaxed);
                        });
                    }
                });
                let claimed = total.load(Ordering::Relaxed);
                assert_eq!(
                    slab.count_held(0..64),
                    claimed,
                    "{kind:?}: every reported win must map to a distinct held bit"
                );
            }
        }
    }

    /// `collect_into` appends exactly the held names (offset by the base), in
    /// increasing order, preserving whatever the vector already holds; the
    /// epoch-tagged `collect_raw_into` tags every name; and the scalar
    /// reference walk, `count_held` and `any_held` agree with the same
    /// per-slot `is_held` oracle.  Lengths run
    /// from one word to several 16-word Collect blocks (1025 and 3000 slots
    /// end just past a block and mid-block), each with a random occupancy,
    /// over the whole slab, ranges starting and ending inside words, and
    /// random sub-ranges.  A last pass holds only the final slot.
    #[test]
    fn collect_into_matches_the_walk_and_appends() {
        use crate::name::Name;
        use larng::RandomSource;
        let mut rng = larng::default_rng(0xC011);
        let lens: &[usize] = if cfg!(miri) {
            &[1, 65, 1025, 3000]
        } else {
            &[1, 63, 64, 65, 1024, 1025, 3000, 5000]
        };
        for &len in lens {
            let s = PackedSlots::new(len);
            let density = rng.gen_unit_f64();
            for idx in 0..len {
                if rng.gen_bool(density) {
                    assert!(s.try_acquire(idx, TasKind::Swap));
                }
            }
            let held = |range: Range<usize>| -> Vec<usize> {
                range.filter(|&idx| s.is_held(idx)).collect()
            };
            let mut ranges = vec![0..len, 1..len - 1, len / 2..len / 2, len..len];
            for _ in 0..(if cfg!(miri) { 2 } else { 12 }) {
                let (a, b) = (rng.gen_index(len + 1), rng.gen_index(len + 1));
                ranges.push(a.min(b)..a.max(b));
            }
            for range in ranges.into_iter().filter(|r| r.start <= r.end) {
                let case = format!("len {len}, range {range:?}");
                let mut out = vec![Name::new(7)];
                s.collect_into(range.clone(), 1000, &mut out);
                let expected: Vec<Name> = std::iter::once(Name::new(7))
                    .chain(held(range.clone()).into_iter().map(|i| Name::new(1000 + i)))
                    .collect();
                assert_eq!(out, expected, "{case}");
                let mut tagged = Vec::new();
                s.collect_raw_into(range.clone(), Name::with_epoch(9, 1000).raw(), &mut tagged);
                let expected: Vec<Name> = held(range.clone())
                    .into_iter()
                    .map(|i| Name::with_epoch(9, 1000 + i))
                    .collect();
                assert_eq!(tagged, expected, "tagged, {case}");
                let mut walked = Vec::new();
                s.for_each_held_scalar(range.clone(), |i| walked.push(i));
                assert_eq!(walked, held(range.clone()), "walk, {case}");
                assert_eq!(s.count_held(range.clone()), expected.len(), "count, {case}");
            }
            assert_eq!(
                s.any_held(),
                !held(0..len).is_empty(),
                "any_held, len {len}"
            );
            for idx in held(0..len) {
                assert!(s.release(idx));
            }
            assert!(!s.any_held(), "drained, len {len}");
            assert!(s.try_acquire(len - 1, TasKind::Swap));
            assert!(s.any_held(), "last slot held, len {len}");
            assert_eq!(s.count_held(0..len), 1, "last slot, len {len}");
            let mut out = Vec::new();
            s.collect_into(0..len, 0, &mut out);
            assert_eq!(out, [Name::new(len - 1)], "last slot, len {len}");
        }
    }
}
