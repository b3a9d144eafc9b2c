//! The lock-free epoch chain: an atomic head pointer over an immutable
//! linked chain of nodes, with grace-counter reclamation.
//!
//! [`EpochChain`] is the concurrency substrate under
//! [`crate::ElasticLevelArray`], factored out so the protocol can be stated
//! (and tested) without any probing machinery on top.  The design follows
//! the shape of hazard-pointer registries (an atomic head over append-only
//! immutable cells) specialized to the elastic array's access pattern:
//!
//! * **The chain is immutable.**  Every [`ChainNode`] holds a value and an
//!   [`Arc`] link to the next-older node, fixed at construction.  The only
//!   mutable location is the chain's *head* pointer, so readers never
//!   observe a half-updated chain: whatever head they load is the root of a
//!   complete, immutable snapshot.
//! * **Growth is a CAS.**  [`ChainPin::try_push`] builds a fresh node whose
//!   `next` is the observed head and publishes it with a single
//!   compare-and-swap.  Losers of a publication race drop their candidate
//!   node and route into the winner's — nobody blocks, nobody retries
//!   inside the chain itself.
//! * **Removal republishes a filtered copy.**  [`ChainPin::try_remove`]
//!   rebuilds the prefix above the deepest removed node (sharing the
//!   suffix below it through the existing `Arc` links, and the values
//!   themselves via `T: Clone` — for the elastic array `T` is an
//!   `Arc<EpochCell>`, so a "copy" is a reference-count bump) and publishes
//!   the new head with the same CAS.
//! * **Reclamation waits for a grace period.**  Readers *pin* the chain
//!   ([`EpochChain::pin`]) by incrementing one of a set of cache-padded
//!   stripe counters before loading the head, and decrement it when the
//!   [`ChainPin`] drops.  The same RMW also steps a pin sequence kept in the
//!   counter word's high bits, which the stuck-pin watchdog reads
//!   ([`EpochChain::oldest_pin_age_ms`]); pinning never reads a clock.  A
//!   displaced head (the root of a replaced snapshot) goes onto a lock-free
//!   garbage stack;
//!   [`EpochChain::try_collect_garbage`] frees a batch only after observing
//!   **every** stripe at zero — at which point no reader can still hold a
//!   reference into the replaced snapshot, because any pin taken after the
//!   observation re-loads the (new) head.  The observation is a single
//!   non-blocking pass: if a reader is active the batch is pushed back and
//!   retried on a later call, so *nothing on this path ever waits*.
//!
//! The memory argument, spelled out once (and referenced by the `SAFETY`
//! comments below): a node is freed only by `try_collect_garbage`, which
//! (1) pops a garbage batch — every node in it was unlinked from the head
//! *before* the pop — and then (2) observes every stripe's pin count at
//! zero with sequentially consistent loads (the pin sequence in the high
//! bits plays no part).  A reader that still held a reference into the
//! batch would have pinned before its unlink and not yet unpinned, so its
//! stripe's count would be non-zero at (2) and the batch would be pushed
//! back.  Conversely a reader whose increment is *not* visible at (2)
//! ordered its pin after the observation in the sequentially consistent
//! total order, so its subsequent head load returns the current head, from
//! which the popped batch is unreachable.  Either way no freed node is
//! reachable from any active or future pin.
//!
//! # Examples
//!
//! ```
//! use levelarray::epoch_chain::EpochChain;
//!
//! let chain: EpochChain<usize> = EpochChain::new(0);
//! {
//!     let pin = chain.pin();
//!     let head = pin.head();
//!     assert!(pin.try_push(head, 1)); // CAS-published growth
//!     assert_eq!(pin.num_nodes(), 2);
//!     // Newest-to-oldest traversal over the immutable snapshot.
//!     let values: Vec<usize> = pin.iter().map(|n| *n.value()).collect();
//!     assert_eq!(values, vec![1, 0]);
//!     // Remove the old generation: republishes a filtered chain.
//!     assert_eq!(pin.try_remove(|v| *v != 0), Ok(1));
//!     assert_eq!(pin.num_nodes(), 1);
//! }
//! // With no pins active, the displaced snapshots can be reclaimed.
//! assert!(chain.no_active_pins());
//! chain.try_collect_garbage();
//! assert_eq!(chain.pending_garbage(), 0);
//! ```

use la_fault::fail_point;
use la_sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::cell::Cell;
use std::fmt;
use std::ptr;
use std::sync::Arc;

/// Milliseconds since an arbitrary process-local anchor — the advisory
/// clock behind stuck-pin ages and watchdog backoff deadlines, read only by
/// observers and retirement passes, never on the pin path.  Monotonic,
/// cheap, and deliberately *not* routed through `la_sync`: the timestamps
/// are diagnostics, not synchronization, so the loom model never sees them.
#[cfg(not(miri))]
pub(crate) fn now_ms() -> u64 {
    use std::time::Instant;
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Miri's isolation mode forbids `Instant::now`; a ticking counter keeps
/// the ages monotonic (every read advances time by 1ms) without it.
#[cfg(miri)]
pub(crate) fn now_ms() -> u64 {
    static TICKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    TICKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Default number of pin stripes (see [`EpochChain::with_stripes`]).
pub const DEFAULT_PIN_STRIPES: usize = 16;

/// Hands each OS thread a small sticky token on first use, round-robin, so
/// threads spread over the pin stripes without hashing thread ids.  Unlike
/// the home tokens a sharded facade leases from its `HomePool` and takes
/// back when the thread exits, a token is never returned: the cursor only
/// grows, and a thread's stripe is its token modulo the stripe count.
static NEXT_THREAD_TOKEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's sticky stripe token, assigned on first use.
    static THREAD_TOKEN: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's sticky token, assigned round-robin on first use.
/// Public, but hidden, for `la_reclaim`, whose retire stripes are chosen by
/// the same token, so pin stripes and retire stripes share one counter.
#[doc(hidden)]
pub fn thread_token() -> usize {
    THREAD_TOKEN.with(|token| match token.get() {
        Some(t) => t,
        None => {
            let t = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);
            token.set(Some(t));
            t
        }
    })
}

/// Low bits of a stripe's `active` word: the number of pins held on it.
/// Bits above: the stripe's pin sequence.  Four billion concurrent pins on
/// one stripe would be needed to carry a count into the sequence.
///
/// The sequence is the remaining 32 bits, and it wraps.  The wrap is
/// harmless.  [`EpochChain::oldest_pin_age_ms`] takes a stripe that is busy
/// with the same sequence at two observations for one pin held since the
/// first.  If exactly 2³² pins (or a multiple) land on a busy stripe between
/// two observations, the sequence reads the same and the stripe reads *old*.
/// No wrap can make a stripe read young.  An old age only makes the
/// stuck-pin watchdog defer retire and shrink passes under its capped
/// backoff (≤ ~1 s), and the watchdog never unlinks under a pin: an unlink
/// still waits for the grace observation.  The misreading ends at the next
/// pin on the stripe or at the first observation that finds it idle.
const PIN_COUNT_BITS: u32 = 32;
const PIN_COUNT_MASK: u64 = (1 << PIN_COUNT_BITS) - 1;
/// What one pin adds to its stripe's `active` word: one held pin plus one
/// step of the pin sequence (which wraps inside the high bits).  Unpinning
/// subtracts 1 and leaves the sequence alone.
const PIN_STEP: u64 = 1 | (1 << PIN_COUNT_BITS);

/// One reader-count stripe, padded to its own pair of cache lines so that
/// pin/unpin traffic from different threads never contends on one line.
#[derive(Debug)]
#[repr(align(128))]
struct PinStripe {
    /// Pins held on this stripe (low [`PIN_COUNT_BITS`]) and its pin
    /// sequence (high bits), updated by one RMW per pin and per unpin.
    active: AtomicU64,
}

/// The stuck-pin watchdog's memory of one stripe.  Written only by
/// observers ([`EpochChain::oldest_pin_age_ms`]), never on the pin path,
/// and kept off the stripe's cache line.  Plain std atomics on purpose: the
/// ages are advisory, play no part in the grace protocol, and must stay
/// invisible to the loom model.
#[derive(Debug, Default)]
struct PinWatch {
    /// One more than the pin sequence the last observer found the stripe
    /// busy with; 0 once an observer found it idle.
    seen: std::sync::atomic::AtomicU64,
    /// [`now_ms`] of the first observation of that sequence.
    since: std::sync::atomic::AtomicU64,
}

/// One immutable link of the chain: a value plus the [`Arc`] link to the
/// next-older node.  Both are fixed at construction; all mutation happens by
/// publishing a *different* node as the chain head.
pub struct ChainNode<T> {
    value: T,
    next: Option<Arc<ChainNode<T>>>,
}

impl<T> ChainNode<T> {
    /// The value carried by this node.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// The next-older node, or `None` for the oldest node of the snapshot.
    pub fn next(&self) -> Option<&ChainNode<T>> {
        self.next.as_deref()
    }

    /// Iterates this node and everything older, newest first.
    pub fn iter(&self) -> ChainNodeIter<'_, T> {
        ChainNodeIter { cur: Some(self) }
    }

    /// The number of nodes from this one (inclusive) to the oldest.
    pub fn depth(&self) -> usize {
        self.iter().count()
    }
}

impl<T: fmt::Debug> fmt::Debug for ChainNode<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainNode")
            .field("value", &self.value)
            .field("depth", &self.depth())
            .finish()
    }
}

/// Newest-to-oldest traversal of an immutable chain snapshot (see
/// [`ChainNode::iter`] / [`ChainPin::iter`]).
#[derive(Debug)]
pub struct ChainNodeIter<'a, T> {
    cur: Option<&'a ChainNode<T>>,
}

impl<'a, T> Iterator for ChainNodeIter<'a, T> {
    type Item = &'a ChainNode<T>;

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.cur?;
        self.cur = node.next();
        Some(node)
    }
}

/// One retired chain snapshot awaiting its grace period, stacked on the
/// chain's lock-free garbage list.
struct GarbageNode<T> {
    /// The strong reference the chain head used to own on the displaced
    /// snapshot's root; it is held only for its `Drop` — dropping it
    /// cascades through the snapshot's private prefix (nodes shared with
    /// the live chain survive via their own reference counts).
    #[allow(dead_code)]
    item: Arc<ChainNode<T>>,
    next: *mut GarbageNode<T>,
}

/// The error returned by [`ChainPin::try_remove`] when the head moved
/// between reading the snapshot and publishing the filtered copy (a
/// concurrent push or removal won the CAS).  The caller re-reads and
/// retries; somebody made progress either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainRace;

impl fmt::Display for ChainRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the chain head moved before the update could be published"
        )
    }
}

impl std::error::Error for ChainRace {}

/// A lock-free chain of immutable nodes behind one atomic head pointer,
/// with striped grace counters for reclamation (see the [module
/// documentation](self) for the protocol and the memory argument).
pub struct EpochChain<T> {
    /// Owns exactly one strong reference on the current head node.  Never
    /// null.
    head: AtomicPtr<ChainNode<T>>,
    stripes: Box<[PinStripe]>,
    /// The watchdog's per-stripe observations, index-aligned with
    /// `stripes`.
    watch: Box<[PinWatch]>,
    /// Treiber stack of displaced snapshots awaiting a grace period.
    garbage: AtomicPtr<GarbageNode<T>>,
    /// Advisory count of stacked garbage snapshots (kept in step with pushes
    /// and successful collections; see [`EpochChain::pending_garbage`]).
    garbage_len: AtomicUsize,
}

// SAFETY: the raw pointers inside are either the head (which owns one strong
// Arc reference and is only ever read through the pin protocol or with
// exclusive access in Drop) or the garbage stack (whose nodes are owned by
// the stack and only freed after the grace-period observation described in
// the module docs).  With `T: Send + Sync`, sharing or moving the whole
// structure across threads adds no capability beyond what `Arc<ChainNode<T>>`
// already allows.
unsafe impl<T: Send + Sync> Send for EpochChain<T> {}
// SAFETY: see the `Send` impl above; all shared mutation goes through
// atomics and the pin/grace protocol.
unsafe impl<T: Send + Sync> Sync for EpochChain<T> {}

impl<T> EpochChain<T> {
    /// Creates a chain whose only node carries `first`, with
    /// [`DEFAULT_PIN_STRIPES`] grace-counter stripes.
    pub fn new(first: T) -> Self {
        Self::with_stripes(first, DEFAULT_PIN_STRIPES)
    }

    /// Creates a chain with an explicit stripe count.  More stripes mean
    /// less pin/unpin contention between reader threads but a longer
    /// all-zero observation during reclamation; the default suits typical
    /// thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `stripes == 0` (the grace counter needs at least one
    /// stripe; [`crate::LevelArrayConfig::pin_stripes`] validates this
    /// ahead of time for elastic builds).
    pub fn with_stripes(first: T, stripes: usize) -> Self {
        assert!(stripes > 0, "the grace counter needs at least one stripe");
        let head = Arc::new(ChainNode {
            value: first,
            next: None,
        });
        EpochChain {
            head: AtomicPtr::new(Arc::into_raw(head).cast_mut()),
            stripes: (0..stripes)
                .map(|_| PinStripe {
                    active: AtomicU64::new(0),
                })
                .collect(),
            watch: (0..stripes).map(|_| PinWatch::default()).collect(),
            garbage: AtomicPtr::new(ptr::null_mut()),
            garbage_len: AtomicUsize::new(0),
        }
    }

    /// Pins the calling thread: until the returned guard drops, every node
    /// reachable from the head (as loaded through the guard) is guaranteed
    /// to stay allocated.  Pinning is one striped `fetch_add` (which also
    /// steps the stripe's pin sequence); it never blocks, never fails and
    /// never reads a clock.
    #[must_use = "the guard is the protection; dropping it immediately unpins"]
    pub fn pin(&self) -> ChainPin<'_, T> {
        let stripe = thread_token() % self.stripes.len();
        self.stripes[stripe]
            .active
            .fetch_add(PIN_STEP, Ordering::SeqCst);
        let guard = ChainPin {
            chain: self,
            stripe,
        };
        // After guard construction on purpose: if the fault unwinds, the
        // guard's drop undoes the fetch_add and the pin count stays exact.
        fail_point!("epoch_chain::pinned");
        guard
    }

    /// Age in milliseconds of the oldest busy pin stripe, or `None` when no
    /// pins are active.  A stripe's age runs from the first call that found
    /// it busy with its current pin sequence; any new pin on the stripe
    /// restarts it.  So the age under-reports: it misses the time before
    /// the first observation, and a stuck pin that shares its stripe with
    /// live traffic reads young.  It never counts a stripe that overlapping
    /// short pins keep busy as one old pin.  Advisory: the stuck-pin
    /// watchdog only uses it to decide *when to back off*, never to justify
    /// an unlink — safety always comes from the grace-period observation.
    ///
    /// The pin sequence is 32 bits and wraps (see `PIN_COUNT_BITS`).  A
    /// stripe that takes exactly 2³² pins between two observations and is
    /// busy at both reads as one pin held since the first, so the wrap can
    /// only over-report an age.  That defers retire and shrink passes under
    /// the watchdog's capped backoff (≤ ~1 s) and never unlinks under a pin.
    pub fn oldest_pin_age_ms(&self) -> Option<u64> {
        use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
        let now = now_ms();
        let mut oldest = None;
        for (stripe, watch) in self.stripes.iter().zip(self.watch.iter()) {
            let word = stripe.active.load(Ordering::SeqCst);
            if word & PIN_COUNT_MASK == 0 {
                if watch.seen.load(Relaxed) != 0 {
                    watch.seen.store(0, Relaxed);
                }
                continue;
            }
            let seen = (word >> PIN_COUNT_BITS) + 1;
            let age = if watch.seen.load(Acquire) == seen {
                now.saturating_sub(watch.since.load(Relaxed))
            } else {
                watch.since.store(now, Relaxed);
                watch.seen.store(seen, Release);
                0
            };
            oldest = oldest.max(Some(age));
        }
        oldest
    }

    /// Whether every pin stripe currently reads zero — the grace-period
    /// observation reclamation and retirement protocols are built on.  A
    /// `true` result means every operation that pinned *before* the last
    /// stripe load has completed; it says nothing about operations that
    /// start afterwards.
    pub fn no_active_pins(&self) -> bool {
        self.stripes
            .iter()
            .all(|s| s.active.load(Ordering::SeqCst) & PIN_COUNT_MASK == 0)
    }

    /// Number of pin stripes (see [`EpochChain::with_stripes`]).
    pub(crate) fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Number of displaced snapshots currently awaiting their grace period.
    pub fn pending_garbage(&self) -> usize {
        self.garbage_len.load(Ordering::Relaxed)
    }

    /// Attempts to free the stacked displaced snapshots: pops the whole
    /// garbage batch, then frees it if (and only if) every pin stripe is
    /// observed at zero; otherwise the batch is pushed back for a later
    /// call.  Never blocks.  Returns how many snapshots were freed.
    pub fn try_collect_garbage(&self) -> usize {
        // Fast paths: nothing stacked, or readers visibly active.  These
        // are plain loads — they keep a doomed attempt from paying the
        // swap + push-back RMW pair on the shared garbage head (which would
        // ping-pong that cache line across threads for zero freed
        // snapshots).  Neither load is part of the safety argument; the
        // post-pop observation below remains the gate.
        // Pre-effect: an unwind here has popped nothing, so no snapshot is
        // ever stranded half-collected.
        fail_point!("epoch_chain::collect");
        if self.garbage.load(Ordering::SeqCst).is_null() || !self.no_active_pins() {
            return 0;
        }
        // Pop first, observe second: every node in the popped batch was
        // unlinked before the pop, so the all-zero observation below proves
        // no reader can still reach it (module docs, "memory argument").
        let batch = self.garbage.swap(ptr::null_mut(), Ordering::SeqCst);
        if batch.is_null() {
            return 0;
        }
        if !self.no_active_pins() {
            self.push_garbage_batch(batch);
            return 0;
        }
        let mut freed = 0;
        let mut cur = batch;
        while !cur.is_null() {
            // SAFETY: the swap above transferred exclusive ownership of the
            // whole batch to this call, and the all-zero observation proves
            // no reader holds references into the snapshots it carries.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
            drop(node);
            freed += 1;
        }
        self.garbage_len.fetch_sub(freed, Ordering::Relaxed);
        freed
    }

    /// Stacks a displaced snapshot root for deferred reclamation.
    fn defer_drop(&self, item: Arc<ChainNode<T>>) {
        let node = Box::into_raw(Box::new(GarbageNode {
            item,
            next: ptr::null_mut(),
        }));
        self.garbage_len.fetch_add(1, Ordering::Relaxed);
        self.push_garbage_batch(node);
    }

    /// Splices an owned garbage batch (a `next`-linked list) onto the stack.
    fn push_garbage_batch(&self, batch: *mut GarbageNode<T>) {
        debug_assert!(!batch.is_null());
        let mut tail = batch;
        // SAFETY: the batch is exclusively owned by this call until the CAS
        // below publishes it, so walking and mutating its links is unshared.
        unsafe {
            while !(*tail).next.is_null() {
                tail = (*tail).next;
            }
        }
        let mut head = self.garbage.load(Ordering::SeqCst);
        loop {
            // SAFETY: `tail` is still exclusively owned (the CAS has not
            // succeeded yet), so writing its link is unshared.
            unsafe { (*tail).next = head };
            match self
                .garbage
                .compare_exchange(head, batch, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(observed) => head = observed,
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for EpochChain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pin = self.pin();
        f.debug_struct("EpochChain")
            .field("head", pin.head())
            .field("num_nodes", &pin.num_nodes())
            .field("pending_garbage", &self.pending_garbage())
            .finish()
    }
}

impl<T> Drop for EpochChain<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no pin guard is alive (guards borrow the
        // chain), so reclaiming the head's strong reference and the garbage
        // stack with plain ownership transfers is race-free.
        unsafe {
            drop(Arc::from_raw(self.head.load(Ordering::Relaxed)));
            let mut cur = self.garbage.load(Ordering::Relaxed);
            while !cur.is_null() {
                let node = Box::from_raw(cur);
                cur = node.next;
                drop(node);
            }
        }
    }
}

/// An active reader registration on an [`EpochChain`]: while this guard
/// lives, every node reachable from [`ChainPin::head`] stays allocated (the
/// grace-period observation cannot succeed).  Dropping the guard is one
/// striped `fetch_sub`.
pub struct ChainPin<'c, T> {
    chain: &'c EpochChain<T>,
    stripe: usize,
}

impl<'c, T> ChainPin<'c, T> {
    /// The stripe this pin registered on: fixed per thread and chain, and
    /// below [`EpochChain::num_stripes`].  Per-stripe state keyed by it is
    /// written only by the threads that share the stripe.
    pub(crate) fn stripe(&self) -> usize {
        self.stripe
    }

    /// Loads the current newest node.  Each call re-reads the head, so a
    /// long-lived pin observes concurrent growth; references obtained
    /// through the pin stay valid for the pin's lifetime either way.
    pub fn head(&self) -> &ChainNode<T> {
        let ptr = self.chain.head.load(Ordering::SeqCst);
        // SAFETY: the head is never null, and any node reachable from it
        // cannot be freed while this pin is active — reclamation requires
        // observing every stripe (including ours) at zero after the node
        // was unlinked (module docs, "memory argument").
        unsafe { &*ptr }
    }

    /// Iterates the chain newest to oldest, starting from the current head.
    pub fn iter(&self) -> ChainNodeIter<'_, T> {
        self.head().iter()
    }

    /// The number of live nodes (the chain is never empty).
    pub fn num_nodes(&self) -> usize {
        self.head().depth()
    }

    /// CAS-publishes `value` as the new newest node, linked to `expected` —
    /// but only if `expected` is still the head.  Returns `true` on
    /// success; on `false` the candidate value is dropped and the caller
    /// should re-read the head (a concurrent update won; "losers discard
    /// their cell and route into the winner's").
    #[must_use = "a false return means the value was discarded; the caller must re-read the head"]
    pub fn try_push(&self, expected: &ChainNode<T>, value: T) -> bool {
        // Pre-CAS: an unwind here drops `value` before anything is
        // published, which is exactly the losing-CAS cleanup path.
        fail_point!("epoch_chain::push");
        let expected_ptr = (expected as *const ChainNode<T>).cast_mut();
        // Re-load the head rather than using the reference-derived pointer
        // for the `Arc` bookkeeping below: the atomic holds a pointer minted
        // by `Arc::into_raw`, whose provenance spans the whole Arc
        // allocation (refcount header included), while `expected_ptr` only
        // covers the node payload.  If the head already moved, the CAS would
        // fail anyway — report the race without building a candidate.
        let current = self.chain.head.load(Ordering::SeqCst);
        if current != expected_ptr {
            return false;
        }
        // SAFETY: `current` was just observed as the head, so the chain holds
        // a strong reference on it (a node is only released after it has been
        // unlinked *and* a grace period has passed, which our live pin
        // forbids); bumping its strong count materializes a legitimate clone
        // of the Arc the chain handed out, and `from_raw` pairs with that
        // bump.
        let next = unsafe {
            Arc::increment_strong_count(current.cast_const());
            Arc::from_raw(current.cast_const())
        };
        let node = Arc::new(ChainNode {
            value,
            next: Some(next),
        });
        let new_ptr = Arc::into_raw(node).cast_mut();
        match self
            .chain
            .head
            .compare_exchange(current, new_ptr, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(displaced) => {
                // SAFETY: the CAS transferred the head's strong reference on
                // `displaced` to us.  The new head's `next` link holds its
                // own reference to the same node, so dropping this one here
                // cannot free it — the node stays reachable (and alive)
                // through the chain.
                drop(unsafe { Arc::from_raw(displaced.cast_const()) });
                true
            }
            Err(_) => {
                // SAFETY: `new_ptr` came from `Arc::into_raw` above and was
                // never published, so reclaiming it is an unshared move.
                drop(unsafe { Arc::from_raw(new_ptr.cast_const()) });
                false
            }
        }
    }

    /// CAS-publishes a copy of the chain without the nodes whose value
    /// fails `keep`, sharing the suffix below the deepest removed node.
    /// Returns the number of nodes removed (`Ok(0)` publishes nothing), or
    /// [`ChainRace`] if the head moved first — re-read and retry.
    ///
    /// The removed nodes' snapshot goes onto the garbage stack and is freed
    /// after a grace period ([`EpochChain::try_collect_garbage`]).
    ///
    /// # Panics
    ///
    /// Panics if `keep` rejects the newest node: the chain is never empty,
    /// and the elastic protocol never retires the serving epoch.
    pub fn try_remove<F>(&self, keep: F) -> Result<usize, ChainRace>
    where
        T: Clone,
        F: Fn(&T) -> bool,
    {
        let head = self.head();
        let nodes: Vec<&ChainNode<T>> = head.iter().collect();
        let kept: Vec<bool> = nodes.iter().map(|n| keep(n.value())).collect();
        assert!(kept[0], "the newest node of the chain cannot be removed");
        let Some(deepest_removed) = kept.iter().rposition(|&k| !k) else {
            return Ok(0);
        };
        let removed = kept.iter().filter(|&&k| !k).count();
        // Rebuild the prefix above the deepest removed node; everything
        // below it is shared with the old snapshot through its Arc link.
        let mut rebuilt: Option<Arc<ChainNode<T>>> = nodes[deepest_removed].next.clone();
        for idx in (0..deepest_removed).rev() {
            if kept[idx] {
                rebuilt = Some(Arc::new(ChainNode {
                    value: nodes[idx].value().clone(),
                    next: rebuilt,
                }));
            }
        }
        let new_head = rebuilt.expect("the kept newest node always yields a non-empty chain");
        let expected_ptr = (head as *const ChainNode<T>).cast_mut();
        let new_ptr = Arc::into_raw(new_head).cast_mut();
        match self.chain.head.compare_exchange(
            expected_ptr,
            new_ptr,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(displaced) => {
                // SAFETY: the CAS transferred the head's strong reference on
                // `displaced` to us.  Unlike a push, the new chain does not
                // link to the displaced prefix, so the reference is retired
                // through the grace-period garbage stack instead of dropped.
                let displaced = unsafe { Arc::from_raw(displaced.cast_const()) };
                self.chain.defer_drop(displaced);
                Ok(removed)
            }
            Err(_) => {
                // SAFETY: `new_ptr` came from `Arc::into_raw` above and was
                // never published, so reclaiming it is an unshared move.
                drop(unsafe { Arc::from_raw(new_ptr.cast_const()) });
                Err(ChainRace)
            }
        }
    }
}

impl<'c, T: fmt::Debug> fmt::Debug for ChainPin<'c, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainPin")
            .field("stripe", &self.stripe)
            .field("num_nodes", &self.num_nodes())
            .finish()
    }
}

impl<'c, T> Drop for ChainPin<'c, T> {
    fn drop(&mut self) {
        self.chain.stripes[self.stripe]
            .active
            .fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn single_node_chain() {
        let chain = EpochChain::new(7usize);
        let pin = chain.pin();
        assert_eq!(*pin.head().value(), 7);
        assert_eq!(pin.num_nodes(), 1);
        assert!(pin.head().next().is_none());
        assert_eq!(pin.head().depth(), 1);
    }

    #[test]
    fn push_prepends_and_preserves_the_tail() {
        let chain = EpochChain::new(0usize);
        let pin = chain.pin();
        for v in 1..=3 {
            let head = pin.head();
            assert!(pin.try_push(head, v));
        }
        let values: Vec<usize> = pin.iter().map(|n| *n.value()).collect();
        assert_eq!(values, vec![3, 2, 1, 0]);
        // Pushes link into the live chain: nothing awaits reclamation.
        assert_eq!(chain.pending_garbage(), 0);
    }

    #[test]
    fn stale_push_loses() {
        let chain = EpochChain::new(0usize);
        let pin = chain.pin();
        let stale = pin.head();
        assert!(pin.try_push(stale, 1));
        // `stale` is no longer the head: the CAS must reject the publish.
        assert!(!pin.try_push(stale, 99));
        let values: Vec<usize> = pin.iter().map(|n| *n.value()).collect();
        assert_eq!(values, vec![1, 0]);
    }

    #[test]
    fn remove_middle_shares_the_suffix() {
        let chain = EpochChain::new(0usize);
        let pin = chain.pin();
        for v in 1..=3 {
            let head = pin.head();
            assert!(pin.try_push(head, v));
        }
        // Remove 2 and 1; keep 3 (head) and 0 (suffix).
        assert_eq!(pin.try_remove(|v| *v == 3 || *v == 0), Ok(2));
        let values: Vec<usize> = pin.iter().map(|n| *n.value()).collect();
        assert_eq!(values, vec![3, 0]);
        assert_eq!(chain.pending_garbage(), 1);
    }

    #[test]
    fn remove_nothing_publishes_nothing() {
        let chain = EpochChain::new(0usize);
        let pin = chain.pin();
        let before: *const ChainNode<usize> = pin.head();
        assert_eq!(pin.try_remove(|_| true), Ok(0));
        assert!(
            ptr::eq(before, pin.head()),
            "no-op removal must not republish"
        );
        assert_eq!(chain.pending_garbage(), 0);
    }

    #[test]
    #[should_panic(expected = "newest node of the chain cannot be removed")]
    fn removing_the_head_panics() {
        let chain = EpochChain::new(0usize);
        let pin = chain.pin();
        let _ = pin.try_remove(|_| false);
    }

    #[test]
    fn garbage_is_held_while_pinned_and_freed_after() {
        let chain = EpochChain::new(0usize);
        {
            let pin = chain.pin();
            let head = pin.head();
            assert!(pin.try_push(head, 1));
            assert_eq!(pin.try_remove(|v| *v != 0), Ok(1));
            assert_eq!(chain.pending_garbage(), 1);
            // Our own pin blocks the grace observation.
            assert!(!chain.no_active_pins());
            assert_eq!(chain.try_collect_garbage(), 0);
            assert_eq!(chain.pending_garbage(), 1, "pushed back, not freed");
        }
        assert!(chain.no_active_pins());
        assert_eq!(chain.try_collect_garbage(), 1);
        assert_eq!(chain.pending_garbage(), 0);
    }

    #[test]
    fn drop_reclaims_unfreed_garbage() {
        // Values that flag their own drop so leaks are observable.
        struct Flagged(Arc<AtomicBool>);
        impl Drop for Flagged {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        impl Clone for Flagged {
            fn clone(&self) -> Self {
                Flagged(Arc::clone(&self.0))
            }
        }
        let dropped_old = Arc::new(AtomicBool::new(false));
        let dropped_new = Arc::new(AtomicBool::new(false));
        let chain = EpochChain::new(Flagged(Arc::clone(&dropped_old)));
        {
            let pin = chain.pin();
            let head = pin.head();
            assert!(pin.try_push(head, Flagged(Arc::clone(&dropped_new))));
            // Remove the old node but never collect: Drop must reclaim it.
            assert_eq!(pin.try_remove(|v| !Arc::ptr_eq(&v.0, &dropped_old)), Ok(1));
        }
        assert!(!dropped_old.load(Ordering::SeqCst));
        drop(chain);
        assert!(dropped_old.load(Ordering::SeqCst));
        assert!(dropped_new.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_pushers_have_one_winner_per_round() {
        let chain = Arc::new(EpochChain::new(0usize));
        // Miri executes ~3 orders of magnitude slower; shrink the contention
        // storm while keeping at least one genuine CAS race per run.
        let threads = if cfg!(miri) { 3 } else { 8 };
        std::thread::scope(|scope| {
            for t in 1..=threads {
                let chain = Arc::clone(&chain);
                scope.spawn(move || {
                    // Every thread publishes exactly one value, retrying the
                    // CAS against whatever head it observes.
                    loop {
                        let pin = chain.pin();
                        let head = pin.head();
                        if pin.try_push(head, t * 1000) {
                            return;
                        }
                    }
                });
            }
        });
        let pin = chain.pin();
        assert_eq!(pin.num_nodes(), threads + 1);
        let mut values: Vec<usize> = pin.iter().map(|n| *n.value()).collect();
        values.sort_unstable();
        let mut expected: Vec<usize> = (1..=threads).map(|t| t * 1000).collect();
        expected.push(0);
        expected.sort_unstable();
        assert_eq!(values, expected, "every publisher must appear exactly once");
    }

    #[test]
    fn concurrent_readers_survive_removal_storms() {
        let chain = Arc::new(EpochChain::new(0usize));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let chain = Arc::clone(&chain);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let pin = chain.pin();
                        // Traverse the whole snapshot: every node must stay
                        // dereferenceable for the pin's lifetime.
                        let sum: usize = pin.iter().map(|n| *n.value()).sum();
                        let _ = std::hint::black_box(sum);
                    }
                });
            }
            let writer = {
                let chain = Arc::clone(&chain);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let rounds = if cfg!(miri) { 20usize } else { 200usize };
                    for round in 1..=rounds {
                        loop {
                            let pin = chain.pin();
                            let head = pin.head();
                            if pin.try_push(head, round) {
                                break;
                            }
                        }
                        // Trim everything but the newest node and the root.
                        loop {
                            let pin = chain.pin();
                            let newest = *pin.head().value();
                            match pin.try_remove(|v| *v == newest || *v == 0) {
                                Ok(_) => break,
                                Err(ChainRace) => continue,
                            }
                        }
                        chain.try_collect_garbage();
                    }
                    stop.store(true, Ordering::Relaxed);
                })
            };
            writer.join().unwrap();
        });
        // Quiescent now: all garbage must be collectable.
        while chain.pending_garbage() > 0 {
            assert!(chain.no_active_pins());
            chain.try_collect_garbage();
        }
        let pin = chain.pin();
        assert_eq!(pin.num_nodes(), 2);
        assert_eq!(*pin.head().value(), if cfg!(miri) { 20 } else { 200 });
    }

    /// One thread hands the stripe from pin to pin: every 30 ms it takes a
    /// new pin, then drops the old one.  The stripe stays busy for ~90 ms,
    /// but no pin lives longer than ~30 ms.  A new pin bumps the stripe's
    /// sequence, so the first read after each hand-off is a new sighting
    /// and reads exactly 0, however long the thread was descheduled.  An
    /// age taken from the stripe's idle→busy transition reads ~30, ~60 and
    /// ~90 ms here.
    #[test]
    #[cfg_attr(miri, ignore = "measures wall-clock ages")]
    fn overlapping_short_pins_never_read_as_one_old_pin() {
        let chain = EpochChain::with_stripes(0usize, 1);
        let mut pin = chain.pin();
        assert_eq!(chain.oldest_pin_age_ms(), Some(0));
        for handoff in 1..=3 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            drop(std::mem::replace(&mut pin, chain.pin()));
            assert_eq!(
                chain.oldest_pin_age_ms(),
                Some(0),
                "hand-off {handoff} read as one old pin"
            );
        }
        drop(pin);
        assert!(chain.no_active_pins());
        assert_eq!(chain.oldest_pin_age_ms(), None);
    }

    /// A pin that really is held keeps its sequence, so its age grows from
    /// the first observation; an idle stripe reports no age at all.
    #[test]
    #[cfg_attr(miri, ignore = "measures wall-clock ages")]
    fn a_held_pin_ages_from_its_first_observation() {
        let chain = EpochChain::with_stripes(0usize, 2);
        assert_eq!(chain.oldest_pin_age_ms(), None);
        let pin = chain.pin();
        assert_eq!(chain.oldest_pin_age_ms(), Some(0), "first sighting");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let age = chain.oldest_pin_age_ms().expect("the pin is still held");
        assert!(age >= 25, "a 30 ms pin read as {age} ms old");
        drop(pin);
        assert!(chain.no_active_pins());
        assert_eq!(chain.oldest_pin_age_ms(), None);
        // A later pin on the same stripe starts from zero again.
        let _again = chain.pin();
        assert_eq!(chain.oldest_pin_age_ms(), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_panics() {
        let _ = EpochChain::with_stripes(0usize, 0);
    }

    #[test]
    fn race_error_displays() {
        assert!(ChainRace.to_string().contains("head moved"));
        let _ = format!("{:?}", EpochChain::new(1usize));
    }
}
