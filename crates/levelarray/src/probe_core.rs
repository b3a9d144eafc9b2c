//! The reusable probing core: the randomized-batch-probing plus
//! sequential-backup machinery of the paper's `Get` (§4), factored out of any
//! particular facade.
//!
//! A [`ProbeCore`] owns one slab of main-array slots partitioned by a
//! [`BatchGeometry`], an optional sequential backup slab, a probe count
//! (`c_i` probes per batch), a [`TasKind`] and a [`SlotLayout`] (word-per-slot
//! [`Slot`]s or the bit-packed [`crate::packed::PackedSlots`]).  It knows how
//! to *probe*, *free*, *scan* and *census* those slots — and nothing else.
//! The [`crate::LevelArray`] is a `ProbeCore` plus a contention bound; the
//! [`crate::ShardedLevelArray`] and the hierarchical epochs of
//! [`crate::ElasticLevelArray`] are `S` cache-padded `ProbeCore`s behind one
//! shard-routing and work-stealing implementation.  Keeping the machinery
//! here means every probing facade shares one implementation of the paper's
//! semantics (uniqueness, wait-freedom, occupancy accounting).
//!
//! The probing entry point [`ProbeCore::try_get`] is generic over the
//! caller's [`RandomSource`] so the per-probe draw inlines into the hot loop;
//! the `dyn`-based [`crate::ActivityArray`] trait methods remain available as
//! a thin object-safe wrapper for callers that need dynamic dispatch (the
//! simulator, the bench harness's algorithm registry).
//!
//! Every word-per-slot scan — `Collect`, the occupancy censuses, the
//! drained check and the batched `Get`'s window snapshot — reads its slots
//! through one mask kernel: each slot's state word (0 or 1, from
//! `Slot::held_bit`) shifts into a 64-bit held mask built in four
//! independent lanes, with no compare and no branch per slot.  `Collect`
//! hands 16 such masks at a time to the spare-capacity name writer the
//! packed layout's `Collect` shares.  The singleton `Get`'s sequential
//! backup scan keeps a per-slot loop: it stops at its first win.
//!
//! This module holds no atomics of its own: every shared-memory access goes
//! through [`Slot`] and [`PackedSlots`], whose atomics come from the
//! [`la_sync`] shim — so the whole probing core runs unmodified under the
//! `la_loom` model checker (see `docs/TESTING.md`).

use std::ops::Range;

use la_fault::fail_point;
use larng::RandomSource;

use crate::array::Acquired;
use crate::geometry::BatchGeometry;
use crate::name::Name;
use crate::occupancy::{Region, RegionOccupancy};
use crate::packed::{append_names, PackedSlots, WordSpan, COLLECT_BLOCK};
use crate::slot::{Slot, SlotLayout, TasKind};

/// Slot span of one batched claim attempt: a probed index is widened to the
/// 64-aligned window around it (clipped to the batch), so that under the
/// bit-packed layout the whole window is exactly one `AtomicU64` and a
/// multi-claim resolves in a single RMW.  The window is defined in *slab*
/// index space — not packed-local space — so every layout claims the same
/// slots for the same RNG stream and the layouts stay in lockstep.
pub(crate) const CLAIM_WINDOW: usize = 64;

/// Slots per word-per-slot scan chunk: one `u64` held mask.
const SCAN_CHUNK: usize = 64;
/// Independent lanes a held mask is built in.  Lane `l` gathers the bits
/// of slots `l`, `l + 4`, `l + 8`, … of a chunk, so four short shift-or
/// chains run side by side instead of one chain through all 64 slots.
const SCAN_LANES: usize = 4;

/// The held mask of one whole chunk: bit `i` is set iff `chunk[i]` was held
/// when read.  Each slot's [`Slot::held_bit`] (its state word, 0 or 1)
/// shifts into its lane by a constant amount, so building the mask takes no
/// compare and no branch.
#[inline(always)]
fn chunk_mask(chunk: &[Slot; SCAN_CHUNK]) -> u64 {
    let mut lanes = [0u64; SCAN_LANES];
    for (quad, slots) in chunk.chunks_exact(SCAN_LANES).enumerate() {
        for (lane, slot) in slots.iter().enumerate() {
            lanes[lane] |= slot.held_bit() << (quad * SCAN_LANES + lane);
        }
    }
    lanes.iter().fold(0, |mask, lane| mask | lane)
}

/// The held mask of a ragged tail shorter than a chunk (the end of a slab
/// or of a scanned range), in the same four lanes.
#[inline]
fn tail_mask(tail: &[Slot]) -> u64 {
    debug_assert!(tail.len() < SCAN_CHUNK);
    let mut lanes = [0u64; SCAN_LANES];
    for (bit, slot) in tail.iter().enumerate() {
        lanes[bit % SCAN_LANES] |= slot.held_bit() << bit;
    }
    lanes.iter().fold(0, |mask, lane| mask | lane)
}

/// The held mask of at most one chunk of slots.  Every word-per-slot scan
/// reads its slots through it: Collect, the censuses, the drained check and
/// the batched `Get`'s window snapshot.
#[inline(always)]
fn held_mask(slots: &[Slot]) -> u64 {
    match slots.try_into() {
        Ok(chunk) => chunk_mask(chunk),
        Err(_) => tail_mask(slots),
    }
}

/// The number of held slots of `slots`: the popcount of its chunk masks.
fn count_held_slots(slots: &[Slot]) -> usize {
    slots
        .chunks(SCAN_CHUNK)
        .map(|chunk| held_mask(chunk).count_ones() as usize)
        .sum()
}

/// Whether any slot of `slots` is held, one chunk mask at a time.
fn any_held_slot(slots: &[Slot]) -> bool {
    slots.chunks(SCAN_CHUNK).any(|chunk| held_mask(chunk) != 0)
}

/// The word-per-slot Collect: appends `Name::from_raw(raw_base + i)` for
/// every held slot `i` of `slots`, in increasing order.  It snapshots up to
/// [`COLLECT_BLOCK`] chunk masks at a time and hands each block to
/// [`append_names`], which reserves the block's popcount once and writes
/// the names into the vector's spare capacity.  It branches per chunk and
/// per held slot but never per slot, so the scan's speed does not hang on
/// how the compiler happens to lay out a per-slot branch.
#[inline]
fn collect_held_slots(slots: &[Slot], raw_base: usize, out: &mut Vec<Name>) {
    const BLOCK_SLOTS: usize = COLLECT_BLOCK * SCAN_CHUNK;
    let mut masks = [0u64; COLLECT_BLOCK];
    for (nth, block) in slots.chunks(BLOCK_SLOTS).enumerate() {
        for (mask, chunk) in masks.iter_mut().zip(block.chunks(SCAN_CHUNK)) {
            *mask = held_mask(chunk);
        }
        let chunks = block.len().div_ceil(SCAN_CHUNK);
        append_names(&masks[..chunks], raw_base + nth * BLOCK_SLOTS, out);
    }
}

/// The word-per-slot multi-claim kernel under [`TasKind::CompareExchange`].
/// It snapshots the held mask of the window `range` (at most one chunk)
/// with [`held_mask`], then tries only the slots that looked free,
/// `start..range.end` first and then `range.start..start`, until `k` are
/// won.  Single-threaded it claims exactly the slots of a per-slot
/// test-and-set loop in that rotation order; a full window costs one load
/// per slot and no RMW.
#[inline]
fn claim_free_slots(
    slots: &[Slot],
    range: Range<usize>,
    start: usize,
    k: usize,
    f: &mut impl FnMut(usize),
) -> usize {
    debug_assert!(range.contains(&start), "start {start} outside {range:?}");
    let window = &slots[range.clone()];
    let free = !held_mask(window) & (u64::MAX >> (SCAN_CHUNK - window.len()));
    let pivot = u64::MAX << (start - range.start);
    let mut claimed = 0usize;
    for mut bits in [free & pivot, free & !pivot] {
        while bits != 0 && claimed < k {
            let idx = range.start + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // `try_acquire` reads the slot again, so a slot taken since the
            // snapshot costs a load, not a failing CAS.
            if slots[idx].try_acquire(TasKind::CompareExchange) {
                claimed += 1;
                f(idx);
            }
        }
    }
    claimed
}

/// One slab of test-and-set registers in either representation.
///
/// The variants expose identical semantics (see [`SlotLayout`]); the enum
/// match in each accessor compiles to a perfectly predicted branch on a
/// discriminant that never changes after construction, so the dispatch cost
/// is negligible next to the atomic operation it guards.
#[derive(Debug)]
enum SlotSlab {
    /// One `AtomicU32` per slot.
    WordPerSlot(Box<[Slot]>),
    /// One bit per slot, 64 per `AtomicU64` word.
    Packed(PackedSlots),
}

/// Precomputed census geometry for one region (a main-array batch or the
/// backup): its slot range, plus the packed layout's word bounds and edge
/// masks resolved once at construction — so repeated censuses
/// (`batch_occupancy`, the facades' `batchwise_occupancy` aggregates) don't
/// re-derive region boundaries per call.
#[derive(Debug, Clone)]
struct CensusRegion {
    /// The region's slots, in slab-local indices.
    range: Range<usize>,
    /// The same slots as packed words.
    span: WordSpan,
}

impl CensusRegion {
    fn new(range: Range<usize>) -> Self {
        CensusRegion {
            span: WordSpan::new(range.clone()),
            range,
        }
    }
}

impl SlotSlab {
    fn new(len: usize, layout: SlotLayout) -> Self {
        match layout {
            SlotLayout::WordPerSlot => {
                SlotSlab::WordPerSlot((0..len).map(|_| Slot::new()).collect())
            }
            SlotLayout::Packed => SlotSlab::Packed(PackedSlots::new(len)),
        }
    }

    fn len(&self) -> usize {
        match self {
            SlotSlab::WordPerSlot(slots) => slots.len(),
            SlotSlab::Packed(slab) => slab.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn try_acquire(&self, idx: usize, kind: TasKind) -> bool {
        match self {
            SlotSlab::WordPerSlot(slots) => slots[idx].try_acquire(kind),
            SlotSlab::Packed(slab) => slab.try_acquire(idx, kind),
        }
    }

    #[inline]
    fn release(&self, idx: usize) -> bool {
        match self {
            SlotSlab::WordPerSlot(slots) => slots[idx].release(),
            SlotSlab::Packed(slab) => slab.release(idx),
        }
    }

    #[inline]
    fn is_held(&self, idx: usize) -> bool {
        match self {
            SlotSlab::WordPerSlot(slots) => slots[idx].is_held(),
            SlotSlab::Packed(slab) => slab.is_held(idx),
        }
    }

    /// Claims up to `k` free slots inside the single-word window `range`
    /// (slab indices), visiting them in rotation order from `start`, and
    /// returns the number claimed.
    ///
    /// The bit-packed slab takes the one-RMW multi-claim kernel
    /// ([`PackedSlots::claim_word_window`]) — slab indices and packed indices
    /// coincide, so the slab window is exactly one word.  The word-per-slot
    /// slab under [`TasKind::CompareExchange`] takes [`claim_free_slots`],
    /// which reads the window's held mask first and tries only the slots
    /// that looked free; under `Swap` it claims with one test-and-set per
    /// slot in the same rotation order.  All of them claim identical slots
    /// single-threaded.
    fn claim_window(
        &self,
        range: Range<usize>,
        start: usize,
        k: usize,
        kind: TasKind,
        f: &mut impl FnMut(usize),
    ) -> usize {
        let slots = match self {
            SlotSlab::Packed(slab) => return slab.claim_word_window(range, start, k, kind, f),
            SlotSlab::WordPerSlot(slots) if kind == TasKind::CompareExchange => {
                return claim_free_slots(slots, range, start, k, f)
            }
            SlotSlab::WordPerSlot(slots) => slots,
        };
        let mut claimed = 0usize;
        for idx in (start..range.end).chain(range.start..start) {
            if claimed == k {
                break;
            }
            if slots[idx].try_acquire(kind) {
                claimed += 1;
                f(idx);
            }
        }
        claimed
    }

    /// Verifies that the sorted slab indices in `indices` (each offset by
    /// `base`: slab-local index is `indices[i] - base`) are distinct and
    /// held, with one load per word-per-slot index or per touched packed
    /// word ([`PackedSlots::check_sorted`]).
    ///
    /// # Panics
    ///
    /// Panics, having changed nothing, on a duplicate or unheld index (a
    /// double free), reporting the caller-namespace value.
    fn check_sorted(&self, indices: &[usize], base: usize) {
        match self {
            SlotSlab::WordPerSlot(slots) => {
                for (i, &raw) in indices.iter().enumerate() {
                    assert!(
                        i == 0 || indices[i - 1] != raw,
                        "double free: name {raw} appears twice in free_many()"
                    );
                    assert!(
                        slots[raw - base].is_held(),
                        "double free: name {raw} was not held when free_many() was called"
                    );
                }
            }
            SlotSlab::Packed(slab) => slab.check_sorted(indices, base),
        }
    }

    /// Releases the sorted slab indices in `indices` (offset by `base`, as
    /// in [`SlotSlab::check_sorted`]).  Bit-packed slabs are cleared with
    /// one `fetch_and` per touched word ([`PackedSlots::release_sorted`]);
    /// word-per-slot slabs with one RMW per slot.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or unheld index (a double free), reporting the
    /// caller-namespace value.
    fn release_sorted(&self, indices: &[usize], base: usize) {
        match self {
            SlotSlab::WordPerSlot(slots) => {
                for &raw in indices {
                    assert!(
                        slots[raw - base].release(),
                        "double free: name {raw} was not held when free_many() was called"
                    );
                }
            }
            SlotSlab::Packed(slab) => slab.release_sorted(indices, base),
        }
    }

    /// The number of held slots in a precomputed [`CensusRegion`].
    fn count_region(&self, region: &CensusRegion) -> usize {
        match self {
            SlotSlab::WordPerSlot(slots) => count_held_slots(&slots[region.range.clone()]),
            SlotSlab::Packed(slab) => slab.count_span(region.span),
        }
    }

    /// Direct recount over a raw range — the oracle the census-table test
    /// checks [`SlotSlab::count_region`] against (production counting goes
    /// through the precomputed [`CensusRegion`]s).
    #[cfg(test)]
    fn count_held(&self, range: Range<usize>) -> usize {
        match self {
            SlotSlab::WordPerSlot(slots) => slots[range].iter().filter(|s| s.is_held()).count(),
            SlotSlab::Packed(slab) => slab.count_held(range),
        }
    }

    /// Appends `Name::from_raw(raw_base + i)` for every held slot `i`, in
    /// increasing order.  Both layouts snapshot a block of masks (chunk
    /// masks of [`held_mask`], or packed words) and write it through the one
    /// [`append_names`] writer.
    #[inline]
    fn collect_into(&self, raw_base: usize, out: &mut Vec<Name>) {
        match self {
            SlotSlab::WordPerSlot(slots) => collect_held_slots(slots, raw_base, out),
            SlotSlab::Packed(slab) => slab.collect_raw_into(0..slab.len(), raw_base, out),
        }
    }

    fn any_held(&self) -> bool {
        match self {
            SlotSlab::WordPerSlot(slots) => any_held_slot(slots),
            SlotSlab::Packed(slab) => slab.any_held(),
        }
    }
}

/// Unwind protection for the window between winning a slot's test-and-set
/// and handing the [`Acquired`] to the caller.  If anything in that window
/// panics (in practice: an injected fault under `--cfg la_fault`), the
/// guard's drop releases the slot again so the unwind leaks nothing; the
/// happy path defuses it, which compiles to nothing.
struct WinGuard<'a> {
    slab: &'a SlotSlab,
    idx: usize,
}

impl WinGuard<'_> {
    #[inline]
    fn defuse(self) {
        std::mem::forget(self);
    }
}

impl Drop for WinGuard<'_> {
    fn drop(&mut self) {
        let released = self.slab.release(self.idx);
        debug_assert!(released, "win guard rolled back a slot nobody held");
    }
}

/// One slab of probeable slots: a batched main array plus an optional
/// sequential backup array, with the probing strategy of the paper's `Get`.
///
/// All names handled by a `ProbeCore` are *local*: index `0` is the first
/// main slot and index `main_len()` is the first backup slot.  Facades that
/// compose several cores (e.g. [`crate::ShardedLevelArray`]) are responsible
/// for translating local names into their global namespace.
#[derive(Debug)]
pub struct ProbeCore {
    main: SlotSlab,
    backup: SlotSlab,
    geometry: BatchGeometry,
    probes_per_batch: u32,
    tas_kind: TasKind,
    slot_layout: SlotLayout,
    /// The deterministic probe budget of a failed `try_get`, precomputed at
    /// construction: geometry, policy and backup length are immutable, and
    /// the sharded steal path / elastic fallback path charge this on *every*
    /// exhausted core they walk, so recomputing the per-batch sum there was a
    /// per-operation tax.
    exhausted_probes: u32,
    /// Precomputed census geometry: one [`CensusRegion`] per main batch, plus
    /// a final entry for the backup array when it exists.  Region boundaries
    /// and packed word masks are immutable, so the censuses resolve them once
    /// here instead of per `batch_occupancy` call.
    census: Box<[CensusRegion]>,
}

impl ProbeCore {
    /// Creates a core with `geometry.main_len()` main slots and `backup_len`
    /// backup slots, all free, stored in the requested [`SlotLayout`].
    pub fn new(
        geometry: BatchGeometry,
        backup_len: usize,
        probes_per_batch: u32,
        tas_kind: TasKind,
        slot_layout: SlotLayout,
    ) -> Self {
        let main = SlotSlab::new(geometry.main_len(), slot_layout);
        let backup = SlotSlab::new(backup_len, slot_layout);
        let exhausted_probes = probes_per_batch * geometry.num_batches() as u32 + backup_len as u32;
        let mut census: Vec<CensusRegion> = geometry.batches().map(CensusRegion::new).collect();
        if backup_len > 0 {
            census.push(CensusRegion::new(0..backup_len));
        }
        ProbeCore {
            main,
            backup,
            geometry,
            probes_per_batch,
            tas_kind,
            slot_layout,
            exhausted_probes,
            census: census.into_boxed_slice(),
        }
    }

    /// The batch layout of the main array.
    pub fn geometry(&self) -> &BatchGeometry {
        &self.geometry
    }

    /// The random probes a `Get` performs in each batch (`c_i`).
    pub fn probes_per_batch(&self) -> u32 {
        self.probes_per_batch
    }

    /// The test-and-set primitive this core uses.
    pub fn tas_kind(&self) -> TasKind {
        self.tas_kind
    }

    /// The slot representation this core stores its registers in.
    pub fn slot_layout(&self) -> SlotLayout {
        self.slot_layout
    }

    /// Number of slots in the main (randomly probed) array.
    pub fn main_len(&self) -> usize {
        self.main.len()
    }

    /// Number of slots in the sequential backup array (0 if disabled).
    pub fn backup_len(&self) -> usize {
        self.backup.len()
    }

    /// Total number of slots (main + backup).
    pub fn capacity(&self) -> usize {
        self.main.len() + self.backup.len()
    }

    /// Whether the (local) `name` lies in the backup array.
    ///
    /// # Panics
    ///
    /// Panics if `name` is epoch-tagged or out of range, like
    /// [`ProbeCore::is_held`].
    pub fn is_backup_name(&self, name: Name) -> bool {
        std::ptr::eq(self.locate(name).0, &self.backup)
    }

    /// The number of probes a `Get` performs when it exhausts this core
    /// without winning a slot: every randomized probe of every batch plus the
    /// full sequential backup scan.  This is deterministic — and cached at
    /// construction — so composing facades can account for a failed
    /// [`ProbeCore::try_get`] without threading a counter through it and
    /// without re-summing the batches on their steal/fallback paths.
    pub fn exhausted_probe_count(&self) -> u32 {
        self.exhausted_probes
    }

    /// The paper's `Get` over this core's slots: `c_i` random test-and-set
    /// probes per batch in increasing batch order, then a sequential scan of
    /// the backup array.  Returns `None` only when every probe lost.
    ///
    /// Generic over the random source so the per-probe draw inlines; pass
    /// `&mut dyn RandomSource` when dynamic dispatch is needed (the blanket
    /// `impl RandomSource for &mut R` makes both spellings work).
    ///
    /// The returned [`Acquired`] carries a *local* name.
    #[must_use = "dropping the result leaks the acquired slot"]
    pub fn try_get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Option<Acquired> {
        let mut probes = 0u32;
        // Randomized phase: c_i probes per batch, batches in increasing order.
        for batch in 0..self.geometry.num_batches() {
            let range = self.geometry.batch_range(batch);
            let len = range.end - range.start;
            let trials = self.probes_per_batch;
            for _ in 0..trials {
                probes += 1;
                let idx = range.start + rng.gen_index(len);
                if self.main.try_acquire(idx, self.tas_kind) {
                    // Won-but-not-returned is the canonical crash window: a
                    // panic here must roll the slot back or it leaks forever.
                    let guard = WinGuard {
                        slab: &self.main,
                        idx,
                    };
                    fail_point!("probe_core::win");
                    guard.defuse();
                    return Some(Acquired::new(Name::new(idx), probes, Some(batch), false));
                }
            }
        }
        // Deterministic backup phase: scan sequentially (paper §4).
        for offset in 0..self.backup.len() {
            probes += 1;
            if self.backup.try_acquire(offset, self.tas_kind) {
                let guard = WinGuard {
                    slab: &self.backup,
                    idx: offset,
                };
                fail_point!("probe_core::backup_win");
                guard.defuse();
                let name = Name::new(self.main.len() + offset);
                return Some(Acquired::new(name, probes, None, true));
            }
        }
        None
    }

    /// The batched `Get`: acquires up to `k` slots in one pass over the
    /// probing sequence, appending an [`Acquired`] (with a *local* name) per
    /// win to `out`, and returns the number acquired.
    ///
    /// The batch walks the same sequence as `k` consecutive singleton
    /// [`ProbeCore::try_get`]s — `c_i` random probes per batch in increasing
    /// batch order, then the sequential backup — so the §5.2 self-healing
    /// occupancy dynamics are unchanged: each batch still receives `c_i`
    /// probe *opportunities per requested name* (the per-batch trial budget
    /// is `c_i × remaining`), and lower batches still fill first.  What the
    /// batch amortizes is the per-name claim cost: every random probe widens
    /// to the 64-aligned `CLAIM_WINDOW` around the probed index and claims
    /// as many still-needed slots as the window holds — one RMW for the whole
    /// window under the bit-packed layout — and the backup phase scans
    /// window-at-a-time instead of slot-at-a-time.  A window whose claim won
    /// nothing is not read again in the same call: later trials that land
    /// on it draw their index and are charged, but claim nothing, so a batch
    /// that meets a full epoch reads each full window once.
    ///
    /// `probes` is an in/out accumulator: it enters holding the probes
    /// already charged by exhausted cores the caller walked (0 for a flat
    /// facade) and exits holding the running total; every `Acquired` of one
    /// trial reports the total at claim time.  The backup phase charges one
    /// probe per window visited.
    pub fn try_get_many<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        probes: &mut u32,
        out: &mut Vec<Acquired>,
    ) -> usize {
        // A panic mid-batch leaves earlier trials' wins in `out`; they are
        // local names, so the core's own `free` rolls them back.
        crate::array::all_or_nothing(
            out,
            |out| self.try_get_many_inner(rng, k, probes, out),
            |name| self.free(name),
        )
    }

    fn try_get_many_inner<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        probes: &mut u32,
        out: &mut Vec<Acquired>,
    ) -> usize {
        let mut remaining = k;
        if remaining == 0 {
            return 0;
        }
        // Randomized phase: per batch, `c_i` trials per still-missing name;
        // each trial claims up to `remaining` slots from one probed window.
        for batch in 0..self.geometry.num_batches() {
            let range = self.geometry.batch_range(batch);
            let len = range.end - range.start;
            let trials = self.probes_per_batch as usize * remaining;
            // Bit `w`: the batch's `w`-th window won nothing in this call
            // (windows past the 64th are not tracked).  One thread never
            // sees such a window free up, so skipping it changes no name,
            // probe count or draw.
            let first_window = range.start / CLAIM_WINDOW;
            let mut full_windows = 0u64;
            for _ in 0..trials {
                *probes += 1;
                // Pre-claim: a fault here unwinds with earlier trials' wins
                // already in `out`; `try_get_many`'s handler frees them.
                fail_point!("probe_core::claim");
                let idx = range.start + rng.gen_index(len);
                let nth = idx / CLAIM_WINDOW - first_window;
                let window_bit = if nth < 64 { 1u64 << nth } else { 0 };
                if full_windows & window_bit != 0 {
                    continue;
                }
                let aligned = (idx / CLAIM_WINDOW) * CLAIM_WINDOW;
                let window = aligned.max(range.start)..(aligned + CLAIM_WINDOW).min(range.end);
                let p = *probes;
                let won =
                    self.main
                        .claim_window(window, idx, remaining, self.tas_kind, &mut |slot| {
                            out.push(Acquired::new(Name::new(slot), p, Some(batch), false));
                        });
                if won == 0 {
                    full_windows |= window_bit;
                }
                remaining -= won;
                if remaining == 0 {
                    return k;
                }
            }
        }
        // Deterministic backup phase: 64-aligned windows in increasing order,
        // one probe per window visited.
        let base = self.main.len();
        let mut w = 0;
        while w < self.backup.len() && remaining > 0 {
            *probes += 1;
            fail_point!("probe_core::backup_claim");
            let window = w..(w + CLAIM_WINDOW).min(self.backup.len());
            let p = *probes;
            let won = self
                .backup
                .claim_window(window, w, remaining, self.tas_kind, &mut |slot| {
                    out.push(Acquired::new(Name::new(base + slot), p, None, true));
                });
            remaining -= won;
            w += CLAIM_WINDOW;
        }
        k - remaining
    }

    /// Releases a (local) name previously acquired from this core.
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range or was not held (a double free).
    pub fn free(&self, name: Name) {
        // Pre-effect by design: a fault here means the Free never happened,
        // so the caller still holds the name and can retry — there is no
        // window where the release is half-applied.
        fail_point!("probe_core::free");
        let (slab, idx) = self.locate(name);
        let released = slab.release(idx);
        assert!(
            released,
            "double free: name {name} was not held when free() was called"
        );
    }

    /// The batched `Free`: releases a set of (local) names, sorting them once
    /// and clearing bit-packed regions with one `fetch_and` per touched word
    /// instead of one RMW per name.  Every name is checked before any is
    /// released, so a bad batch leaves every name held.
    ///
    /// # Panics
    ///
    /// Panics if any name is out of range, epoch-tagged, duplicated within
    /// the batch, or not currently held (a double free).
    pub fn free_many(&self, names: &[Name]) {
        if names.is_empty() {
            return;
        }
        let mut indices: Vec<usize> = names.iter().map(|name| name.raw()).collect();
        indices.sort_unstable();
        // The order is epoch-major, so the largest raw value is the one to
        // check: if it is an in-range epoch-0 name, so is every other.
        if let Some(&last) = indices.last() {
            self.locate(Name::from_raw(last));
        }
        self.check_sorted(&indices, 0);
        self.release_sorted(&indices, 0);
    }

    /// Verifies a batch of sorted slot indices before any of it is
    /// released: the slots must be distinct and held.  Each
    /// `indices[i] - base` must already be a local index below
    /// [`ProbeCore::capacity`]; the caller checks the range.  The facades
    /// check every core's run this way before they release any run, so a
    /// bad name leaves the whole batch held.
    ///
    /// # Panics
    ///
    /// Panics, having released nothing, on a duplicate or unheld index (a
    /// double free).
    pub(crate) fn check_sorted(&self, indices: &[usize], base: usize) {
        // Pre-effect, like `free`: every facade checks its whole batch
        // before it releases any of it, so an unwind here released nothing.
        fail_point!("probe_core::free_many");
        let split = indices.partition_point(|&idx| idx < base + self.main.len());
        self.main.check_sorted(&indices[..split], base);
        self.backup
            .check_sorted(&indices[split..], base + self.main.len());
    }

    /// Releases a batch of sorted slot indices that
    /// [`ProbeCore::check_sorted`] passed, with the same `base` offset.
    pub(crate) fn release_sorted(&self, indices: &[usize], base: usize) {
        let split = indices.partition_point(|&idx| idx < base + self.main.len());
        self.main.release_sorted(&indices[..split], base);
        self.backup
            .release_sorted(&indices[split..], base + self.main.len());
    }

    /// Directly occupies a specific (local) slot, bypassing the probing
    /// strategy.  Returns `true` if the slot was free and is now held by the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range.
    #[must_use = "a false return means the slot was already held; ignoring it leaks the intent"]
    pub fn force_occupy(&self, name: Name) -> bool {
        let (slab, idx) = self.locate(name);
        slab.try_acquire(idx, self.tas_kind)
    }

    /// Attempts to re-occupy the specific slot a Free→Get hint points at with
    /// one test-and-set, without touching the probe sequence or the caller's
    /// random stream.
    ///
    /// On a win it returns the same [`Acquired`] the probe path would report
    /// for that slot — batch tag for a main slot, backup flag for a backup
    /// slot — with a probe count of 1.  `None` means the slot was already
    /// held again (stolen between the Free and this Get) or the name is not a
    /// valid local name (a stale hint); the caller falls through to the
    /// unchanged probe path either way, so uniqueness and the self-healing
    /// analysis are untouched.
    #[must_use = "dropping the result leaks the acquired slot"]
    pub fn hint_acquire(&self, name: Name) -> Option<Acquired> {
        if name.epoch() != 0 {
            return None;
        }
        let idx = name.index();
        if idx < self.main.len() {
            if self.main.try_acquire(idx, self.tas_kind) {
                let batch = self.geometry.batch_of(idx);
                return Some(Acquired::new(name, 1, Some(batch), false));
            }
        } else if idx - self.main.len() < self.backup.len()
            && self
                .backup
                .try_acquire(idx - self.main.len(), self.tas_kind)
        {
            return Some(Acquired::new(name, 1, None, true));
        }
        None
    }

    /// Reads whether a specific (local) slot is currently held.
    ///
    /// # Panics
    ///
    /// Panics if `name` is out of range.
    pub fn is_held(&self, name: Name) -> bool {
        let (slab, idx) = self.locate(name);
        slab.is_held(idx)
    }

    /// Appends every held local name, offset by `base`, to `out`, in
    /// increasing order (backup slots follow the main array) — the scan a
    /// `Collect` performs, reusable by facades that map local names into a
    /// larger namespace.  Both layouts reserve each block's names at once
    /// and write them into the vector's spare capacity instead of a push per
    /// name.
    #[inline]
    pub fn collect_into(&self, base: usize, out: &mut Vec<Name>) {
        self.collect_tagged_into(0, base, out);
    }

    /// [`ProbeCore::collect_into`] with every name tagged `epoch`: the held
    /// local index `i` appends `Name::with_epoch(epoch, base + i)`.  An
    /// elastic epoch cell collects through it.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` exceeds [`Name::MAX_EPOCH`] or a name would exceed
    /// [`Name::MAX_INDEX`].
    #[inline]
    pub(crate) fn collect_tagged_into(&self, epoch: usize, base: usize, out: &mut Vec<Name>) {
        // One check covers every name the scan can write: `raw + i` never
        // carries into the tag while `base + i` is a valid index.
        assert!(
            base + self.capacity() <= Name::MAX_INDEX + 1,
            "index exceeds Name::MAX_INDEX"
        );
        let raw = Name::with_epoch(epoch, base).raw();
        self.main.collect_into(raw, out);
        self.backup.collect_into(raw + self.main.len(), out);
    }

    /// Whether any slot (main or backup) is currently held — the quiescence
    /// scan of the elastic retirement protocol, at one word-load per 64 slots
    /// under the packed layout.
    pub fn any_held(&self) -> bool {
        self.main.any_held() || self.backup.any_held()
    }

    /// The number of occupied slots in batch `i` of the main array.
    ///
    /// This is the *single* batch-scanning helper: the occupancy census
    /// ([`ProbeCore::region_occupancies`]) and the facades' `batch_occupancy`
    /// accessors all route through it — and it routes through the census
    /// table precomputed at construction, so no region boundary or packed
    /// word mask is re-derived per call.
    pub fn batch_occupancy(&self, i: usize) -> usize {
        self.main.count_region(&self.census[i])
    }

    /// The number of occupied slots in the backup array.
    pub fn backup_occupancy(&self) -> usize {
        match self.census.get(self.geometry.num_batches()) {
            Some(region) => self.backup.count_region(region),
            None => 0,
        }
    }

    /// The per-region census of this core: one [`Region::Batch`] entry per
    /// batch, plus a [`Region::Backup`] entry when the backup array exists.
    /// `label` rewrites each region identifier, letting a sharded facade tag
    /// the same census with its shard index; pass the identity closure for
    /// the plain layout.
    pub fn region_occupancies(&self, label: impl Fn(Region) -> Region) -> Vec<RegionOccupancy> {
        let mut regions: Vec<RegionOccupancy> = self
            .geometry
            .batches()
            .enumerate()
            .map(|(i, range)| {
                let occupied = self.batch_occupancy(i);
                RegionOccupancy::new(label(Region::Batch(i)), range.len(), occupied)
            })
            .collect();
        if !self.backup.is_empty() {
            regions.push(RegionOccupancy::new(
                label(Region::Backup),
                self.backup.len(),
                self.backup_occupancy(),
            ));
        }
        regions
    }

    fn locate(&self, name: Name) -> (&SlotSlab, usize) {
        // Local names are dense epoch-0 indices; an epoch-tagged name would
        // silently alias a local slot if only `index()` were consulted.
        assert_eq!(
            name.epoch(),
            0,
            "a probing core handles only local (epoch-0) names, got {name}"
        );
        let idx = name.index();
        if idx < self.main.len() {
            (&self.main, idx)
        } else if idx - self.main.len() < self.backup.len() {
            (&self.backup, idx - self.main.len())
        } else {
            panic!(
                "name {idx} out of range for an array with capacity {}",
                self.capacity()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;

    fn core_with_layout(n: usize, layout: SlotLayout) -> ProbeCore {
        ProbeCore::new(
            BatchGeometry::for_contention(n),
            n,
            1,
            TasKind::default(),
            layout,
        )
    }

    fn core(n: usize) -> ProbeCore {
        core_with_layout(n, SlotLayout::WordPerSlot)
    }

    /// Every representation.
    fn layouts() -> [SlotLayout; 2] {
        [SlotLayout::WordPerSlot, SlotLayout::Packed]
    }

    #[test]
    fn dimensions_follow_the_inputs() {
        for layout in layouts() {
            let c = core_with_layout(64, layout);
            assert_eq!(c.main_len(), 128);
            assert_eq!(c.backup_len(), 64);
            assert_eq!(c.capacity(), 192);
            assert_eq!(c.slot_layout(), layout);
            assert!(c.is_backup_name(Name::new(128)));
            assert!(!c.is_backup_name(Name::new(127)));
        }
    }

    #[test]
    fn exhausted_probe_count_is_policy_sum_plus_backup() {
        let c = core(64);
        let batches = c.geometry().num_batches() as u32;
        // One probe per batch.
        assert_eq!(c.exhausted_probe_count(), batches + 64);

        let uniform = ProbeCore::new(
            BatchGeometry::for_contention(64),
            0,
            3,
            TasKind::default(),
            SlotLayout::WordPerSlot,
        );
        let batches = uniform.geometry().num_batches() as u32;
        assert_eq!(uniform.exhausted_probe_count(), 3 * batches);
    }

    #[test]
    fn exhausted_core_charges_exactly_the_predicted_probes() {
        for layout in layouts() {
            let n = 4;
            let c = core_with_layout(n, layout);
            let mut rng = default_rng(1);
            let mut held = Vec::new();
            for _ in 0..10_000 {
                match c.try_get(&mut rng) {
                    Some(got) => held.push(got.name()),
                    None => break,
                }
            }
            assert_eq!(held.len(), c.capacity());
            // A try_get on a full core performs the full deterministic budget.
            assert!(c.try_get(&mut rng).is_none());
        }
    }

    #[test]
    fn census_and_batch_occupancy_agree() {
        for layout in layouts() {
            let c = core_with_layout(32, layout);
            let mut rng = default_rng(2);
            for _ in 0..20 {
                let _ = c.try_get(&mut rng);
            }
            let regions = c.region_occupancies(|r| r);
            for (i, region) in regions.iter().enumerate() {
                match region.region() {
                    Region::Batch(b) => {
                        assert_eq!(b, i);
                        assert_eq!(region.occupied(), c.batch_occupancy(b));
                    }
                    Region::Backup => assert_eq!(region.occupied(), c.backup_occupancy()),
                    other => panic!("unexpected region {other:?}"),
                }
            }
        }
    }

    #[test]
    fn collect_into_applies_the_base_offset() {
        for layout in layouts() {
            let c = core_with_layout(8, layout);
            assert!(c.force_occupy(Name::new(3)));
            assert!(c.force_occupy(Name::new(16))); // first backup slot
            let mut out = Vec::new();
            c.collect_into(1000, &mut out);
            assert_eq!(out, vec![Name::new(1003), Name::new(1016)]);
        }
    }

    #[test]
    fn any_held_sees_main_and_backup() {
        for layout in layouts() {
            let c = core_with_layout(8, layout);
            assert!(!c.any_held());
            assert!(c.force_occupy(Name::new(16))); // backup only
            assert!(c.any_held());
            c.free(Name::new(16));
            assert!(!c.any_held());
            assert!(c.force_occupy(Name::new(2))); // main only
            assert!(c.any_held());
        }
    }

    #[test]
    fn layouts_acquire_identical_names_for_identical_seeds() {
        // The probing decisions depend only on the RNG stream and on the
        // held/free state — never on the representation — so cores in
        // different layouts driven by the same seed must agree step for step.
        let word = core_with_layout(16, SlotLayout::WordPerSlot);
        let packed = core_with_layout(16, SlotLayout::Packed);
        let mut rng_w = default_rng(42);
        let mut rng_p = default_rng(42);
        let mut acquired = 0usize;
        // A try_get may legitimately miss (None) once the backup is full and
        // every random probe lands on a held slot; both layouts must miss and
        // win in lockstep.
        for step in 0..10_000 {
            let a = word.try_get(&mut rng_w);
            let b = packed.try_get(&mut rng_p);
            assert_eq!(a, b, "packed diverged at step {step}");
            if a.is_some() {
                acquired += 1;
            }
            if acquired == word.capacity() {
                break;
            }
        }
        assert_eq!(acquired, word.capacity());
        assert!(word.try_get(&mut rng_w).is_none());
        assert!(packed.try_get(&mut rng_p).is_none());
    }

    #[test]
    fn hint_acquire_wins_free_slots_and_rejects_stale_hints() {
        for layout in layouts() {
            let c = core_with_layout(8, layout);
            let mut rng = default_rng(7);
            let got = c.try_get(&mut rng).unwrap();
            let name = got.name();
            // Held slot: the hint CAS must lose.
            assert!(c.hint_acquire(name).is_none());
            c.free(name);
            // Freed slot: one CAS wins it back with the probe-path metadata.
            let hit = c.hint_acquire(name).expect("freed slot should be hintable");
            assert_eq!(hit.name(), name);
            assert_eq!(hit.probes(), 1);
            assert_eq!(hit.used_backup(), c.is_backup_name(name));
            if !c.is_backup_name(name) {
                assert_eq!(hit.batch(), Some(c.geometry().batch_of(name.index())));
            }
            c.free(name);
            // Backup slot hints carry the backup flag.
            let backup_name = Name::new(c.main_len());
            assert!(c.force_occupy(backup_name));
            c.free(backup_name);
            let hit = c.hint_acquire(backup_name).unwrap();
            assert!(hit.used_backup());
            assert_eq!(hit.batch(), None);
            c.free(backup_name);
            // Stale hints — epoch-tagged or out-of-range names — miss without
            // panicking.
            assert!(c.hint_acquire(Name::with_epoch(1, 0)).is_none());
            assert!(c.hint_acquire(Name::new(c.capacity() + 100)).is_none());
        }
    }

    /// The census table must agree with a straight recount for every layout.
    #[test]
    fn census_table_matches_direct_recount() {
        for layout in layouts() {
            let c = core_with_layout(48, layout);
            let mut rng = default_rng(9);
            for _ in 0..40 {
                let _ = c.try_get(&mut rng);
            }
            for i in 0..c.geometry().num_batches() {
                assert_eq!(
                    c.batch_occupancy(i),
                    c.main.count_held(c.geometry().batch_range(i)),
                    "batch {i} under {layout:?}"
                );
            }
            assert_eq!(
                c.backup_occupancy(),
                c.backup.count_held(0..c.backup_len()),
                "backup under {layout:?}"
            );
        }
    }

    /// The word-per-slot scan kernels against per-slot `is_held` loops.
    /// Slab lengths 0..=130 cover every ragged tail and both sides of the
    /// first two chunk boundaries; 192 and 768 are whole-chunk slabs (768 is
    /// a `LevelArray::new(256)` main array plus backup); 1025 and 3000 span
    /// more than one 16-chunk Collect block.  Each slab gets a random
    /// occupancy.  Collect runs with a non-zero name base, untagged and
    /// epoch-tagged, appending to a non-empty vector, over the whole slab
    /// and over random sub-ranges; `count_region` and the drained check run
    /// over the same ranges.  A last pass holds only the final slot.
    #[test]
    fn word_scan_kernel_matches_a_per_slot_loop() {
        let mut rng = default_rng(0x5CA7);
        let sub_ranges = if cfg!(miri) { 2 } else { 12 };
        for len in (0..=130).chain([192, 768, 1025, 3000]) {
            let slab = SlotSlab::new(len, SlotLayout::WordPerSlot);
            let SlotSlab::WordPerSlot(slots) = &slab else {
                unreachable!("built word-per-slot")
            };
            let density = rng.gen_unit_f64();
            for idx in 0..len {
                if rng.gen_bool(density) {
                    assert!(slab.try_acquire(idx, TasKind::default()));
                }
            }
            let held = |range: Range<usize>| -> Vec<usize> {
                range.filter(|&idx| slab.is_held(idx)).collect()
            };
            let name_base = 1000 + len;
            let sub = (0..sub_ranges).map(|_| {
                let (a, b) = (rng.gen_index(len + 1), rng.gen_index(len + 1));
                a.min(b)..a.max(b)
            });
            let ranges: Vec<Range<usize>> = std::iter::once(0..len).chain(sub).collect();
            for epoch in [0, 5] {
                let raw = Name::with_epoch(epoch, name_base).raw();
                let name = |idx: usize| Name::with_epoch(epoch, name_base + idx);
                let mut names = vec![Name::new(7)];
                slab.collect_into(raw, &mut names);
                let expected: Vec<Name> = std::iter::once(Name::new(7))
                    .chain(held(0..len).into_iter().map(name))
                    .collect();
                assert_eq!(names, expected, "collect, epoch {epoch}, len {len}");
                for range in &ranges {
                    let mut names = Vec::new();
                    collect_held_slots(&slots[range.clone()], raw + range.start, &mut names);
                    let expected: Vec<Name> = held(range.clone()).into_iter().map(name).collect();
                    assert_eq!(
                        names, expected,
                        "collect {range:?}, epoch {epoch}, len {len}"
                    );
                }
            }
            for range in ranges {
                let count = held(range.clone()).len();
                let region = CensusRegion::new(range.clone());
                assert_eq!(
                    slab.count_region(&region),
                    count,
                    "count {range:?}, len {len}"
                );
                assert_eq!(
                    any_held_slot(&slots[range.clone()]),
                    count > 0,
                    "any_held({range:?}), len {len}"
                );
            }
            assert_eq!(
                slab.any_held(),
                !held(0..len).is_empty(),
                "any_held, len {len}"
            );
            if len > 0 {
                for idx in held(0..len) {
                    assert!(slab.release(idx));
                }
                assert!(!slab.any_held(), "drained, len {len}");
                assert!(slab.try_acquire(len - 1, TasKind::default()));
                assert!(slab.any_held(), "last slot held, len {len}");
                let whole = CensusRegion::new(0..len);
                assert_eq!(slab.count_region(&whole), 1, "last slot, len {len}");
                let mut names = Vec::new();
                slab.collect_into(name_base, &mut names);
                assert_eq!(
                    names,
                    [Name::new(name_base + len - 1)],
                    "last slot, len {len}"
                );
            }
        }
    }

    /// The mask-first word-per-slot claim against the per-slot rotation loop
    /// (the reference).  Twin slabs start with the same occupancy; the kernel
    /// must claim the slots the loop claims, in the loop's order, and leave
    /// every other slot as it was.  Windows: a full 64-slot window, windows
    /// clipped by a batch end and by a batch start, a backup window shorter
    /// than 64 and a one-slot slab.  Occupancies: all free, all held and two
    /// random densities.  Every start offset, k in 0..=65 (a sample of both
    /// under Miri).
    #[test]
    fn word_claim_kernel_matches_the_rotation_loop() {
        let cas = TasKind::CompareExchange;
        let rotation_loop = |slab: &SlotSlab, range: Range<usize>, start: usize, k: usize| {
            let mut won = Vec::new();
            for idx in (start..range.end).chain(range.start..start) {
                if won.len() == k {
                    break;
                }
                if slab.try_acquire(idx, cas) {
                    won.push(idx);
                }
            }
            won
        };
        let ks: Vec<usize> = if cfg!(miri) {
            vec![0, 1, 5, 64, 65]
        } else {
            (0..=65).collect()
        };
        let start_step = if cfg!(miri) { 11 } else { 1 };
        let mut rng = default_rng(0xC1A1);
        let shapes = [
            (192, 64..128),
            (192, 128..150),
            (192, 100..128),
            (40, 0..40),
            (1, 0..1),
        ];
        for (len, range) in shapes {
            for density in [0.0, 1.0, 0.3, 0.8] {
                let kernel = SlotSlab::new(len, SlotLayout::WordPerSlot);
                let oracle = SlotSlab::new(len, SlotLayout::WordPerSlot);
                for idx in 0..len {
                    if rng.gen_bool(density) {
                        assert!(kernel.try_acquire(idx, cas) && oracle.try_acquire(idx, cas));
                    }
                }
                for start in range.clone().step_by(start_step) {
                    for &k in &ks {
                        let case = format!("window {range:?}, start {start}, k {k}, p {density}");
                        let mut won = Vec::new();
                        let claimed =
                            kernel.claim_window(range.clone(), start, k, cas, &mut |idx| {
                                won.push(idx)
                            });
                        assert_eq!(claimed, won.len(), "{case}");
                        assert_eq!(
                            won,
                            rotation_loop(&oracle, range.clone(), start, k),
                            "{case}"
                        );
                        for idx in 0..len {
                            assert_eq!(
                                kernel.is_held(idx),
                                oracle.is_held(idx),
                                "slot {idx}, {case}"
                            );
                        }
                        for &idx in &won {
                            assert!(kernel.release(idx) && oracle.release(idx));
                        }
                    }
                }
            }
        }
    }

    /// The batched kernel before it remembered full windows: every trial
    /// reads and claims its window.  The oracle of
    /// `get_many_reads_each_full_window_once_and_keeps_the_stream`.
    fn claim_on_every_trial(
        core: &ProbeCore,
        rng: &mut impl RandomSource,
        k: usize,
        probes: &mut u32,
        out: &mut Vec<Acquired>,
    ) -> usize {
        let mut remaining = k;
        for batch in 0..core.geometry.num_batches() {
            let range = core.geometry.batch_range(batch);
            let trials = core.probes_per_batch as usize * remaining;
            for _ in 0..trials {
                *probes += 1;
                let idx = range.start + rng.gen_index(range.len());
                let aligned = (idx / CLAIM_WINDOW) * CLAIM_WINDOW;
                let window = aligned.max(range.start)..(aligned + CLAIM_WINDOW).min(range.end);
                let p = *probes;
                remaining -=
                    core.main
                        .claim_window(window, idx, remaining, core.tas_kind, &mut |slot| {
                            out.push(Acquired::new(Name::new(slot), p, Some(batch), false));
                        });
                if remaining == 0 {
                    return k;
                }
            }
        }
        let base = core.main.len();
        let mut w = 0;
        while w < core.backup.len() && remaining > 0 {
            *probes += 1;
            let window = w..(w + CLAIM_WINDOW).min(core.backup.len());
            let p = *probes;
            remaining -=
                core.backup
                    .claim_window(window, w, remaining, core.tas_kind, &mut |slot| {
                        out.push(Acquired::new(Name::new(base + slot), p, None, true));
                    });
            w += CLAIM_WINDOW;
        }
        k - remaining
    }

    /// Remembering full windows changes no name, probe count or draw.
    /// Twin cores per layout hold every slot of batch 0 and about half of
    /// each later batch; each `k` runs the kernel on one and the oracle on
    /// the other from the same seed, then frees the wins from both.  Bound
    /// 48 has two batch-0 windows and runs every `k` past its capacity;
    /// bound 3000 has 71, so its trials also land on untracked windows.
    #[test]
    fn get_many_reads_each_full_window_once_and_keeps_the_stream() {
        let shapes: [(usize, Vec<usize>); 2] = if cfg!(miri) {
            [(48, vec![1, 2, 17, 70, 150]), (3000, vec![3])]
        } else {
            [(48, (1..=150).collect()), (3000, vec![1, 2, 7, 40, 300])]
        };
        for layout in layouts() {
            for (n, ks) in &shapes {
                let kernel = core_with_layout(*n, layout);
                let oracle = core_with_layout(*n, layout);
                let mut fill = default_rng(0xF011);
                for idx in 0..kernel.main_len() {
                    if kernel.geometry().batch_of(idx) == 0 || fill.gen_bool(0.5) {
                        let name = Name::new(idx);
                        assert!(kernel.force_occupy(name) && oracle.force_occupy(name));
                    }
                }
                let mut rng_k = default_rng(*n as u64);
                let mut rng_o = default_rng(*n as u64);
                for &k in ks {
                    let case = format!("{layout:?}, n {n}, k {k}");
                    let (mut got_k, mut got_o) = (Vec::new(), Vec::new());
                    let (mut probes_k, mut probes_o) = (0u32, 0u32);
                    let won = kernel.try_get_many(&mut rng_k, k, &mut probes_k, &mut got_k);
                    let want =
                        claim_on_every_trial(&oracle, &mut rng_o, k, &mut probes_o, &mut got_o);
                    assert_eq!((won, &got_k, probes_k), (want, &got_o, probes_o), "{case}");
                    assert_eq!(rng_k.next_u64(), rng_o.next_u64(), "draws differ, {case}");
                    let names: Vec<Name> = got_k.iter().map(|a| a.name()).collect();
                    kernel.free_many(&names);
                    oracle.free_many(&names);
                }
            }
        }
    }

    #[test]
    fn get_many_fills_to_capacity_with_unique_names() {
        use std::collections::HashSet;
        for layout in layouts() {
            let c = core_with_layout(16, layout);
            let mut rng = default_rng(21);
            let mut out = Vec::new();
            let mut probes = 0u32;
            let mut total = 0usize;
            while total < c.capacity() {
                let got = c.try_get_many(&mut rng, 7, &mut probes, &mut out);
                assert!(got > 0, "free slots remain, a batch must win ({layout:?})");
                total += got;
            }
            assert_eq!(total, c.capacity(), "{layout:?}");
            let unique: HashSet<_> = out.iter().map(|a| a.name()).collect();
            assert_eq!(unique.len(), out.len(), "{layout:?}");
            // Exhausted: further batches yield nothing but charge probes.
            let before = probes;
            assert_eq!(c.try_get_many(&mut rng, 3, &mut probes, &mut out), 0);
            assert!(probes > before);
            // Metadata matches the slot each name refers to.
            for got in &out {
                assert_eq!(got.used_backup(), c.is_backup_name(got.name()));
                if !got.used_backup() {
                    assert_eq!(got.batch(), Some(c.geometry().batch_of(got.name().index())));
                }
            }
        }
    }

    #[test]
    fn get_many_layouts_stay_in_lockstep() {
        // Batched probing decisions, like singleton ones, depend only on the
        // RNG stream and held/free state — the claim window is defined in
        // slab index space precisely so both layouts claim identical slots.
        let word = core_with_layout(16, SlotLayout::WordPerSlot);
        let packed = core_with_layout(16, SlotLayout::Packed);
        let mut rng_w = default_rng(33);
        let mut rng_p = default_rng(33);
        for step in 0..200 {
            let k = 1 + step % 9;
            let (mut ow, mut op) = (Vec::new(), Vec::new());
            let (mut pw, mut pp) = (0u32, 0u32);
            let a = word.try_get_many(&mut rng_w, k, &mut pw, &mut ow);
            let b = packed.try_get_many(&mut rng_p, k, &mut pp, &mut op);
            assert_eq!((a, &ow, pw), (b, &op, pp), "packed diverged at step {step}");
            // Free a deterministic half so the state keeps churning.
            let victims: Vec<Name> = ow
                .iter()
                .map(|g| g.name())
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(_, n)| n)
                .collect();
            word.free_many(&victims);
            packed.free_many(&victims);
            let keep: Vec<Name> = ow
                .iter()
                .map(|g| g.name())
                .enumerate()
                .filter(|(i, _)| i % 2 == 1)
                .map(|(_, n)| n)
                .collect();
            word.free_many(&keep);
            packed.free_many(&keep);
        }
    }

    #[test]
    fn get_many_probe_totals_thread_through_the_accumulator() {
        let c = core(8);
        let mut rng = default_rng(4);
        let mut out = Vec::new();
        let mut probes = 100u32; // pretend an earlier exhausted core charged 100
        assert!(c.try_get_many(&mut rng, 2, &mut probes, &mut out) > 0);
        assert!(probes > 100);
        for got in &out {
            assert!(got.probes() > 100, "claims report the accumulated total");
            assert!(got.probes() <= probes);
        }
    }

    #[test]
    fn free_many_releases_main_and_backup_in_one_call() {
        for layout in layouts() {
            let c = core_with_layout(8, layout);
            let mut rng = default_rng(5);
            let mut out = Vec::new();
            let mut probes = 0u32;
            let got = c.try_get_many(&mut rng, c.capacity(), &mut probes, &mut out);
            assert_eq!(got, c.capacity());
            assert!(out.iter().any(|a| a.used_backup()), "drain reaches backup");
            // Free in an arbitrary (unsorted) order.
            let mut names: Vec<Name> = out.iter().map(|a| a.name()).collect();
            names.reverse();
            c.free_many(&names);
            assert!(!c.any_held(), "{layout:?}");
            c.free_many(&[]);
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn free_many_panics_on_duplicate_name() {
        let c = core(4);
        assert!(c.force_occupy(Name::new(2)));
        c.free_many(&[Name::new(2), Name::new(2)]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn free_many_panics_on_unheld_name() {
        core(4).free_many(&[Name::new(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn free_many_panics_on_out_of_range_name() {
        core(4).free_many(&[Name::new(10_000)]);
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn free_many_panics_on_epoch_tagged_name() {
        core(4).free_many(&[Name::with_epoch(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_name_panics() {
        core(4).free(Name::new(10_000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_name_panics_packed() {
        core_with_layout(4, SlotLayout::Packed).free(Name::new(10_000));
    }

    #[test]
    #[should_panic(expected = "epoch-0")]
    fn epoch_tagged_local_name_panics() {
        core(4).free(Name::with_epoch(1, 0));
    }
}
