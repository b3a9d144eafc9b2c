//! The elastic LevelArray: epoch-based growth of the contention bound.
//!
//! The paper assumes the contention bound `n` is fixed for the lifetime of
//! the structure.  [`ElasticLevelArray`] relaxes that: it keeps a *chain of
//! epoch cells*, each an array built from the same [`LevelArrayConfig`],
//! where every cell after the first doubles the previous cell's contention
//! bound.  The protocol is a migration in the style of epoch-based
//! reclamation:
//!
//! * **`Get` routes to the newest epoch** and runs the paper's probing
//!   strategy there.  Only when the newest epoch saturates — every random
//!   probe lost *and* its sequential backup region is full — does the
//!   operation consult the [`GrowthPolicy`]: under
//!   [`GrowthPolicy::Doubling`] it opens a new epoch of twice the contention
//!   bound and retries; once the chain is at its `max_epochs` bound (or under
//!   [`GrowthPolicy::Fixed`]) it falls back to walking the older epochs,
//!   newest to oldest, before giving up.  This routing is written once, as
//!   `walk`: the singleton `try_get` and the batched `get_many` each hand it
//!   a closure that serves one cell — one `Get`, or as much of the batch's
//!   remainder as the cell's batched kernel wins — and sealed cells are
//!   never served.
//! * **`Free` returns the slot to the epoch named in its tag** — the
//!   [`Name`] encoding carries `(epoch, index)`, so releases route without
//!   any lookup table.
//! * **`Collect` and the occupancy census union the live epochs**, reporting
//!   per-epoch [`Region::EpochBatch`]/[`Region::EpochBackup`] entries.
//! * **A drained old epoch is retired** once a collect snapshot proves no
//!   name from it is live ([`ElasticLevelArray::try_retire`]); epoch tags
//!   are never reused, so names stay unique across growth and retirement.
//!   The price is a finite lifetime: the tag is 10 bits wide, so after
//!   1024 published epochs (grows and shrinks together) no successor can
//!   open — `publish_epoch` returns `None`, the chain stays at its last
//!   bound, and a `Get` past that bound fails.  Recycling retired tags is
//!   the ROADMAP's tag-recycling item.
//!
//! # The lock-free chain
//!
//! The chain itself is a lock-free [`EpochChain`]: an atomic head pointer
//! over an immutable linked chain of cells, so `Get`, `Free` and `Collect`
//! never block — not on each other, not on growth, not on retirement — and
//! the paper's progress guarantee survives the scaling seam.
//!
//! * **Growth is a CAS.**  A `Get` that saturates the newest epoch builds a
//!   doubled successor cell (or reuses the spare, below) and CAS-publishes
//!   it as the new head ([`ChainPin::try_push`]).  Losers of the
//!   publication race hand their candidate back as the spare and route
//!   into the winner's fresh epoch.
//! * **Retirement is seal → grace → census → unlink**, entirely
//!   non-blocking ([`ElasticLevelArray::try_retire`]):
//!   1. *Seal* every drained non-newest cell (a CAS-claimed flag; sealed
//!      cells are skipped by the capped-fallback `Get` walk, so no new
//!      registration can target them once the seal is visible).
//!   2. *Grace*: observe every chain pin stripe at zero **once**.  Success
//!      proves two things at the same instant: every operation that could
//!      still miss the seal has completed, and every slot such an operation
//!      won is already visible.  Failure unseals and bails — a later free
//!      retries; nobody ever waits.
//!   3. *Census*: re-scan each sealed cell.  A zero census after a
//!      successful grace observation is a proof of quiescence, exactly the
//!      argument the dynamic-collect reclamation scheme (`la-reclaim`) uses
//!      for its grace periods; a non-zero census unseals (a racer won a
//!      slot between the drain check and the seal).
//!   4. *Unlink*: CAS-publish a copy of the chain without the confirmed
//!      cells ([`ChainPin::try_remove`]).  The displaced snapshot is freed
//!      only after a later grace observation succeeds
//!      ([`ElasticLevelArray::pending_reclamation`]), so concurrent readers
//!      keep traversing their pinned snapshot unharmed.  The newest cell
//!      unlinked becomes the spare.
//!
//! `Free` triggers step 1 *after* its own critical path completes (slot
//! released, pin dropped), so the draining free never carries the
//! retirement work itself — it only schedules a deferred check
//! ([`LevelArrayConfig::auto_retire`] disables even that).  A pass that
//! bails with work outstanding (drained candidates it could not confirm, or
//! snapshots still awaiting their grace period) re-arms a maintenance flag,
//! and *every* later free — not just a draining one — retries while the
//! flag is set, so a drained epoch cannot be stranded by a single unlucky
//! grace observation.  A grower that publishes over an already-drained
//! predecessor arms the same flag (the predecessor's last free saw it as
//! the newest epoch and scheduled nothing), closing the drain-then-grow
//! race as well.
//!
//! # Hierarchical epochs: elastic-of-sharded
//!
//! With [`LevelArrayConfig::shard_group`] set to a group size `g`, every
//! epoch cell's storage is itself *sharded*: a cell of contention bound `C`
//! is backed by `⌈C / g⌉` cache-padded probing cores instead of one flat
//! slab, so doubling the chain grows the structure by **adding shard
//! groups** rather than doubling a single contended memory region.  Inside a
//! cell, slots live in a dense namespace (`shard · shard_capacity + local`)
//! and the epoch tag rides on top exactly as before —
//! `Name::with_epoch(epoch, dense)` — so every `Free`, hint and census
//! routes through both levels without a lookup table.  Threads are routed to
//! a sticky home shard by the same churn-stable token pool the sharded
//! facade uses (a home is the thread's token modulo the cell's shard
//! count), and steal ring-order within the cell on home exhaustion, which
//! preserves the wait-freedom argument per epoch.
//!
//! # Elastic shrink
//!
//! Growth has an inverse: with [`LevelArrayConfig::shrink_watermark`] set,
//! the frees on each pin stripe sample the newest epoch's advisory
//! occupancy once per 16 frees.  A `free` counts as one free and a
//! `free_many` as its batch size, and a low sample stands for the 16 frees
//! of every stride it crossed.  Each sample reads the census *before* its
//! own release, so the `free_many` that ends a burst still sees the burst.
//! Once the occupancy stays at or below the watermark for a full patience
//! window (a streak of `max(C, 16)` frees' worth of consecutive low
//! samples, so one transient dip never triggers), the array opens a
//! **smaller** successor epoch — half the newest bound, never below the
//! initial — and lets the oversized epoch drain behind it.  From there the
//! existing retirement machinery runs unchanged, just in reverse: the big
//! epoch is now non-newest, so the seal → grace → census → unlink protocol
//! retires it as soon as its last holder frees, returning the memory the
//! growth burst borrowed, except the one cell the array keeps as its spare.
//! `Get`, `Free` and `Collect` never block on a shrink any more than on a
//! grow — both are one CAS on the chain head.
//!
//! The patience window backs off when shrinking proves premature.  A
//! published grow restarts the low streak.  A grow that undoes a shrink
//! sets the window's multiplier straight to its cap, 2¹⁰ (the stuck-pin
//! watchdog's cap too), and a shrink that follows a shrink halves it.  The
//! first shrink after sustained low load waits the plain `max(C, 16)`
//! frees.  Once a burst has undone one, the next shrink needs
//! `2¹⁰ · max(C, 16)` low frees in a row, and a burst that keeps coming
//! back never supplies them: the `free_many` that releases each burst
//! restarts the streak.  The big epoch stays, and so does its tag budget,
//! while sustained low load still shrinks within the capped window.  A
//! load whose low phases outlast that window still publishes a grow/shrink
//! pair per burst, so tag recycling is still needed.
//!
//! # The spare cell
//!
//! The array keeps one unlinked cell as a *spare*: the newest cell the
//! last retirement unlinked, or, when none is kept, a candidate that lost
//! the publish race.  Every slot of it is free.  A publication of the
//! spare's bound, grow or shrink, reuses it under a fresh tag instead of
//! building a new shard group, once `Arc::get_mut` proves that the
//! grace-period collection has dropped every snapshot that reached it (see
//! `reuse_spare`).  The slot is only ever `try_lock`ed, so no operation
//! waits on it, and the array holds at most one retired cell beyond its
//! live chain.

use la_fault::fail_point;
use la_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
// Watchdog and shrink-backoff bookkeeping (backoff deadlines and
// exponents, deferred-work counters) uses plain std atomics: it is
// advisory, never part of the retirement safety argument, and must stay
// invisible to the loom model.
use std::sync::atomic::{
    AtomicBool as StdAtomicBool, AtomicU32 as StdAtomicU32, AtomicU64 as StdAtomicU64,
};

use larng::RandomSource;

use crate::array::{Acquired, ActivityArray};
use crate::backend::ShardGroup;
use crate::config::{ConfigError, GrowthPolicy, LevelArrayConfig};
use crate::epoch_chain::{now_ms, ChainNode, ChainPin, EpochChain};
use crate::geometry::BatchGeometry;
use crate::hint::FreeHint;
use crate::home::HomePool;
use crate::name::Name;
use crate::occupancy::{OccupancySnapshot, Region, RegionOccupancy};
use crate::robust::RobustnessReport;

/// A value on its own pair of cache lines, like the chain's pin stripes.
/// Indexed by pin stripe, it gives the threads of one stripe a counter no
/// other stripe writes, so per-operation counting never moves a cache line
/// between stripes.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// One zeroed, padded counter per pin stripe.
fn stripe_counters(stripes: usize) -> Box<[Padded<AtomicUsize>]> {
    (0..stripes).map(|_| Padded::default()).collect()
}

/// Frees per pin stripe between two shrink-watermark samples (see
/// [`ElasticLevelArray::note_shrink_sample`]).
const SHRINK_SAMPLE_STRIDE: usize = 16;

/// One generation of the elastic chain: a shard group plus its identity.
struct EpochCell {
    /// The epoch tag carried by every name this cell hands out.  Tags are
    /// assigned monotonically and never reused; a cell reused as the spare
    /// (see [`ElasticLevelArray::reuse_spare`]) takes a fresh tag.
    epoch: usize,
    /// The contention bound this cell was sized for.
    contention: usize,
    /// Advisory count of currently held slots, striped by pin stripe: an
    /// acquisition adds to its own stripe's counter and a release subtracts
    /// from its own, so a name won on one stripe and freed on another
    /// leaves +1 on the first and a wrapped -1 on the second.  Only the
    /// wrapping sum ([`EpochCell::held_total`]) is meaningful; it is exact
    /// while no operation is in flight, and retirement re-verifies with a
    /// real scan.
    held: Box<[Padded<AtomicUsize>]>,
    /// The retirement claim: set while exactly one `try_retire` call owns
    /// this cell's seal→grace→census protocol.  A sealed cell accepts no
    /// new registrations (the fallback `Get` walk skips it) until it is
    /// either unlinked or unsealed.
    sealed: AtomicBool,
    /// The cell's storage: a [`ShardGroup`] with a dense in-cell namespace,
    /// of one shard for a flat epoch and of `⌈C / g⌉` shards under
    /// [`LevelArrayConfig::shard_group`] `g` (see [`ShardGroup::for_epoch`]).
    backend: ShardGroup,
}

impl EpochCell {
    fn new(epoch: usize, contention: usize, backend: ShardGroup, stripes: usize) -> Self {
        EpochCell {
            epoch,
            contention,
            held: stripe_counters(stripes),
            sealed: AtomicBool::new(false),
            backend,
        }
    }

    /// Counts `n` acquisitions on pin stripe `stripe`.
    ///
    /// Every `held` update and sum is SeqCst: the counters take part in the
    /// retirement liveness arguments (the drained-old-epoch check in
    /// `free`, candidate scans, the drained-predecessor check after a
    /// publish, `finish_maintenance`'s re-verify), which reason about them
    /// in the same total order as the head CAS and the maintenance flag.
    fn add_held(&self, stripe: usize, n: usize) {
        self.held[stripe].0.fetch_add(n, Ordering::SeqCst);
    }

    /// Counts `n` releases on pin stripe `stripe` (wrapping below zero).
    fn sub_held(&self, stripe: usize, n: usize) {
        self.held[stripe].0.fetch_sub(n, Ordering::SeqCst);
    }

    /// The held count: the wrapping sum over every stripe.  Each stripe
    /// load is SeqCst, so a caller whose own update precedes the sum sees
    /// every update ordered before its own — in particular the last
    /// release of a cell reads zero here (see `free`).
    fn held_total(&self) -> usize {
        self.held.iter().fold(0usize, |sum, s| {
            sum.wrapping_add(s.0.load(Ordering::SeqCst))
        })
    }

    /// Whether a scan observes zero held slots — the collect snapshot a
    /// retirement decision is based on (one word-load per 64 slots under the
    /// packed layout, no allocation under either).
    fn is_drained(&self) -> bool {
        !self.backend.any_held()
    }

    /// Claims the retirement seal; `false` means another retirement attempt
    /// already owns it.
    ///
    /// The seal CAS must be sequentially consistent: a getter that falls
    /// back past a sealed epoch decides with an SC load of `sealed`, and
    /// only the SC total order guarantees it cannot miss a seal that the
    /// retirer published before starting its grace-period observation.
    /// Weakening it to `Relaxed` lets a getter revive a sealed epoch after
    /// the retirer's census — the seeded ordering mutant the `la_loom`
    /// model-checking suite must catch (see `make loom-mutant`).
    fn try_seal(&self) -> bool {
        #[cfg(not(all(la_loom, la_loom_weak_seal)))]
        const SEAL_ORDERING: (Ordering, Ordering) = (Ordering::SeqCst, Ordering::SeqCst);
        #[cfg(all(la_loom, la_loom_weak_seal))]
        const SEAL_ORDERING: (Ordering, Ordering) = (Ordering::Relaxed, Ordering::Relaxed);
        self.sealed
            .compare_exchange(false, true, SEAL_ORDERING.0, SEAL_ORDERING.1)
            .is_ok()
    }

    fn unseal(&self) {
        self.sealed.store(false, Ordering::SeqCst);
    }

    fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for EpochCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("epoch", &self.epoch)
            .field("contention", &self.contention)
            .field("held", &self.held_total())
            .field("sealed", &self.is_sealed())
            .field("backend", &self.backend)
            .finish()
    }
}

/// A LevelArray whose contention bound grows at runtime through a chain of
/// doubling epochs (see the [module documentation](self) for the protocol).
///
/// # Examples
///
/// Growth under oversubscription, epoch-tagged names, retirement:
///
/// ```
/// use levelarray::{ActivityArray, ElasticLevelArray, GrowthPolicy};
/// use larng::default_rng;
///
/// let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 4 });
/// let mut rng = default_rng(1);
///
/// // Register 10x the initial bound: the chain doubles as needed.
/// let names: Vec<_> = (0..40).map(|_| array.get(&mut rng).name()).collect();
/// assert!(array.num_epochs() >= 2);
/// assert_eq!(array.collect().len(), 40);
///
/// // Freeing everything drains the old epochs; retirement shrinks the chain.
/// for name in names {
///     array.free(name);
/// }
/// array.try_retire();
/// assert_eq!(array.num_epochs(), 1);
/// assert!(array.collect().is_empty());
/// ```
///
/// `Get`, `Free` and `collect` stay non-blocking while the chain grows and
/// retires underneath them — the growth-storm suites (`tests/growth_storm.rs`
/// and the `sweeps` bench's storm cells) drive that seam hard; a drained
/// chain always converges back to one epoch and zero pending reclamation:
///
/// ```
/// use levelarray::{ActivityArray, ElasticLevelArray, GrowthPolicy};
/// use larng::default_rng;
///
/// let array = ElasticLevelArray::new(2, GrowthPolicy::Doubling { max_epochs: 6 });
/// let mut rng = default_rng(2);
/// for round in 1..=3 {
///     // Oversubscribe (forces growth on the first round; later rounds the
///     // surviving doubled epoch absorbs the load), then drain.
///     let names: Vec<_> = (0..30).map(|_| array.get(&mut rng).name()).collect();
///     for name in names {
///         array.free(name);
///     }
///     array.try_retire();
///     assert_eq!(array.num_epochs(), 1);
/// }
/// assert!(array.epochs_opened() >= 2, "the chain grew at least once");
/// assert_eq!(array.pending_reclamation(), 0);
/// ```
#[derive(Debug)]
pub struct ElasticLevelArray {
    /// The lock-free chain of live epoch cells, newest first.
    chain: EpochChain<Arc<EpochCell>>,
    /// The shared knobs (space factor, probes per batch, backup, TAS) every
    /// epoch is built from; its contention bound is the *initial* epoch's.
    base: LevelArrayConfig,
    growth: GrowthPolicy,
    /// Whether a draining free schedules the deferred retirement check.
    auto_retire: bool,
    /// The per-thread Free→Get hint `free` arms
    /// ([`LevelArrayConfig::free_hint`]).
    hint: FreeHint,
    /// Re-arm flag for the deferred maintenance: set whenever a
    /// [`ElasticLevelArray::try_retire`] pass leaves work behind (a grace
    /// observation failed with drained candidates outstanding, or displaced
    /// snapshots are still awaiting reclamation), so the *next* free retries
    /// even though it did not itself drain an epoch.  Without this, the
    /// one-shot check a draining free schedules could fail once (a racer was
    /// pinned) and never run again — old traffic only ever targets the
    /// newest epoch, so the `remaining == 0` trigger never re-fires.
    maintenance_pending: AtomicBool,
    /// Total epochs ever opened.
    epochs_opened: AtomicUsize,
    epochs_retired: AtomicUsize,
    /// The spare cell (see the [module documentation](self)), reached only
    /// through `try_lock`.  A std `Mutex`: like the watchdog's counters,
    /// it stays invisible to the loom model.
    spare: Mutex<Option<Arc<EpochCell>>>,
    /// The churn-stable home-token pool routing threads to shard cores of
    /// hierarchical (sharded-backend) epochs; unused while every cell is
    /// flat.  Shared semantics with [`crate::ShardedLevelArray`].
    homes: HomePool,
    /// The shrink trigger ([`LevelArrayConfig::shrink_watermark`]): `None`
    /// disables shrinking.
    shrink_watermark: Option<f64>,
    /// Frees' worth of consecutive free-side samples that observed the
    /// newest epoch at or below the watermark (each sample adds
    /// [`SHRINK_SAMPLE_STRIDE`]); reset by any sample above it.  Reaching
    /// the patience window opens a smaller epoch (see
    /// [`ElasticLevelArray::try_shrink`]).
    low_streak: Padded<AtomicUsize>,
    /// Exponent of the patience window's multiplier (see
    /// [`ElasticLevelArray::shrink_patience`]): a grow published after a
    /// shrink sets it to [`MAX_SHRINK_BACKOFF_EXP`], and a shrink published
    /// after a shrink lowers it by one, down to 0.  Advisory, like the
    /// streak — a racing publisher can lose an update, which only shifts
    /// one later window.
    shrink_backoff: StdAtomicU32,
    /// Whether the last epoch this array published was a shrink.
    shrunk_last: StdAtomicBool,
    /// The shrink-sampling cadence: frees seen per pin stripe since its
    /// last stride boundary, always below [`SHRINK_SAMPLE_STRIDE`] (see
    /// [`ElasticLevelArray::note_shrink_sample`]).
    shrink_ticks: Box<[Padded<AtomicUsize>]>,
    /// Stuck-pin watchdog threshold
    /// ([`LevelArrayConfig::stuck_pin_threshold_ms`]): a failed grace
    /// observation whose oldest pin is at least this old arms the backoff.
    watchdog_threshold_ms: u64,
    /// [`now_ms`] deadline until which retirement and shrink defer (0 = no
    /// backoff armed).  See [`ElasticLevelArray::robustness_report`].
    backoff_until: StdAtomicU64,
    /// Consecutive stuck-grace failures; exponent of the capped backoff.
    backoff_exp: StdAtomicU32,
    /// Shrink attempts skipped while the watchdog backoff was armed.
    deferred_shrinks: StdAtomicU64,
    /// Retirement passes skipped while the watchdog backoff was armed.
    deferred_retirements: StdAtomicU64,
}

/// Cap on the watchdog's exponential backoff: retirement and shrink are
/// never deferred more than ~1 second at a time, so a pin that finally
/// drops is noticed promptly no matter how long it was stuck.
const MAX_BACKOFF_MS: u64 = 1024;

/// Cap on the shrink backoff's exponent, and the value a grow that undoes
/// a shrink sets it to: the patience window grows to at most 2¹⁰ times its
/// base, the same cap as the watchdog's (see [`MAX_BACKOFF_MS`]), so
/// sustained low load still shrinks the chain in a bounded number of frees.
const MAX_SHRINK_BACKOFF_EXP: u32 = 10;

impl ElasticLevelArray {
    /// Creates an elastic array whose initial epoch uses the paper's default
    /// configuration for `initial_contention`, growing per `growth`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_contention == 0` or the growth policy allows zero
    /// epochs.  Use [`LevelArrayConfig::build_elastic`] for fallible
    /// construction and non-default parameters.
    pub fn new(initial_contention: usize, growth: GrowthPolicy) -> Self {
        LevelArrayConfig::new(initial_contention)
            .growth(growth)
            .build_elastic()
            .expect("default configuration is valid for any non-zero contention bound")
    }

    /// Builds an elastic array from a shared configuration: the initial epoch
    /// has the configuration's contention bound, and every later epoch reuses
    /// the same knobs (space factor, probes per batch, backup, TAS) at a
    /// doubled bound, per [`LevelArrayConfig::growth_policy`].  The
    /// retirement seam is tuned by [`LevelArrayConfig::auto_retire`] and
    /// [`LevelArrayConfig::pin_stripes`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroEpochs`] if the growth policy allows zero
    /// live epochs and [`ConfigError::ZeroPinStripes`] if the grace counter
    /// has no stripes; otherwise see [`LevelArrayConfig::validate`].
    pub fn from_config(config: &LevelArrayConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let contention = config.max_concurrency_value();
        let backend = ShardGroup::for_epoch(config, contention)?;
        let stripes = config.pin_stripes_value();
        let cell = Arc::new(EpochCell::new(0, contention, backend, stripes));
        Ok(ElasticLevelArray {
            chain: EpochChain::with_stripes(cell, stripes),
            base: config.clone(),
            growth: config.growth_policy(),
            auto_retire: config.auto_retire_enabled(),
            hint: FreeHint::new(config.free_hint_enabled(), crate::hint::next_array_id()),
            maintenance_pending: AtomicBool::new(false),
            epochs_opened: AtomicUsize::new(1),
            epochs_retired: AtomicUsize::new(0),
            spare: Mutex::new(None),
            homes: HomePool::new(),
            shrink_watermark: config.shrink_watermark_value(),
            low_streak: Padded::default(),
            shrink_backoff: StdAtomicU32::new(0),
            shrunk_last: StdAtomicBool::new(false),
            shrink_ticks: stripe_counters(stripes),
            watchdog_threshold_ms: config.stuck_pin_threshold_ms_value(),
            backoff_until: StdAtomicU64::new(0),
            backoff_exp: StdAtomicU32::new(0),
            deferred_shrinks: StdAtomicU64::new(0),
            deferred_retirements: StdAtomicU64::new(0),
        })
    }

    /// The growth policy in effect.
    pub fn growth_policy(&self) -> GrowthPolicy {
        self.growth
    }

    /// The contention bound of the initial epoch.
    pub fn initial_contention(&self) -> usize {
        self.base.max_concurrency_value()
    }

    /// Number of currently live epochs (the chain length).
    pub fn num_epochs(&self) -> usize {
        self.chain.pin().num_nodes()
    }

    /// The tag of the newest (actively serving) epoch.
    pub fn newest_epoch(&self) -> usize {
        self.chain.pin().head().value().epoch
    }

    /// The tags of the live epochs, oldest first.
    pub fn epoch_ids(&self) -> Vec<usize> {
        let pin = self.chain.pin();
        let mut ids: Vec<usize> = pin.iter().map(|node| node.value().epoch).collect();
        ids.reverse();
        ids
    }

    /// Total epochs opened over the array's lifetime (including retired
    /// ones); growth events so far = `epochs_opened() - 1`.
    pub fn epochs_opened(&self) -> usize {
        self.epochs_opened.load(Ordering::Relaxed)
    }

    /// Total epochs retired over the array's lifetime.
    pub fn epochs_retired(&self) -> usize {
        self.epochs_retired.load(Ordering::Relaxed)
    }

    /// Number of unlinked chain snapshots still awaiting their grace period
    /// (0 once the structure is quiescent and a retirement or collection
    /// pass has run — see [`EpochChain::try_collect_garbage`]).
    pub fn pending_reclamation(&self) -> usize {
        self.chain.pending_garbage()
    }

    /// The contention bound epoch `epoch` was sized for, if it is live.
    pub fn epoch_contention(&self, epoch: usize) -> Option<usize> {
        Self::find_cell(&self.chain.pin(), epoch).map(|c| c.contention)
    }

    /// The advisory held-slot count of epoch `epoch`, if it is live.  Exact
    /// while no operation is in flight; retirement always re-verifies with a
    /// collect snapshot.
    pub fn epoch_held(&self, epoch: usize) -> Option<usize> {
        Self::find_cell(&self.chain.pin(), epoch).map(|c| c.held_total())
    }

    /// The batch layout of the newest epoch's main array (per shard core,
    /// for a hierarchical epoch — every shard of a cell shares one layout).
    pub fn newest_geometry(&self) -> BatchGeometry {
        self.chain.pin().head().value().backend.geometry().clone()
    }

    /// Number of shard cores backing the newest epoch (1 for a flat epoch).
    pub fn newest_epoch_shards(&self) -> usize {
        self.chain.pin().head().value().backend.num_shards()
    }

    /// Capacity of each shard core of the newest epoch — the stride of the
    /// dense in-cell namespace (the full cell capacity for a flat epoch).
    pub fn newest_shard_capacity(&self) -> usize {
        self.chain.pin().head().value().backend.shard_capacity()
    }

    /// Number of shard cores backing epoch `epoch`, if it is live.
    pub fn epoch_shards(&self, epoch: usize) -> Option<usize> {
        Self::find_cell(&self.chain.pin(), epoch).map(|c| c.backend.num_shards())
    }

    /// The shard-group size hierarchical epochs are built with (0 = flat
    /// epochs; see [`LevelArrayConfig::shard_group`]).
    pub fn shard_group(&self) -> usize {
        self.base.shard_group_value()
    }

    /// The shrink watermark in effect (`None` = shrinking disabled; see
    /// [`LevelArrayConfig::shrink_watermark`]).
    pub fn shrink_watermark(&self) -> Option<f64> {
        self.shrink_watermark
    }

    /// The slot representation every epoch cell stores its registers in
    /// (inherited from the shared base configuration).
    pub fn slot_layout(&self) -> crate::slot::SlotLayout {
        self.base.slot_layout_value()
    }

    /// The elastic `Get`, monomorphized over the caller's random source (see
    /// [`crate::LevelArray::try_get`]): route to the newest epoch, grow on
    /// saturation, fall back to older epochs at the cap (the walk the
    /// [module documentation](self) describes).  This inherent method
    /// shadows [`ActivityArray::try_get`] for callers holding the concrete
    /// type.
    #[must_use = "dropping the result leaks the acquired name"]
    pub fn try_get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Option<Acquired> {
        let pin = self.chain.pin();
        // Post-pin, pre-win: an unwind here drops the pin (count stays
        // exact) with nothing acquired; a *pause* here is the deterministic
        // stuck pin the watchdog suites wedge retirement with.
        fail_point!("elastic::pinned_get");
        if let Some(got) = self.hint.reacquire(|name| Self::hint_acquire(&pin, name)) {
            return Some(got);
        }
        let mut probes = 0u32;
        self.walk(&pin, |cell| {
            match cell.backend.try_get(rng, self.home_for(cell)) {
                Some(local) => Some(Self::tag_guarded(cell, pin.stripe(), local, probes)),
                None => {
                    probes += cell.backend.exhausted_probe_count();
                    None
                }
            }
        })
    }

    /// The elastic batched `Get` (see [`ActivityArray::get_many`]),
    /// monomorphized over the caller's random source.  The whole batch runs
    /// under ONE chain pin with one hint consult and the same walk over the
    /// epochs as the singleton path: each cell visited serves what it can of
    /// the remainder through its batched kernel (`ShardGroup::try_get_many`).
    /// Every win is epoch-tagged, each cell's slice is added to that cell's
    /// held counter in one update, and the probe accumulator threads through
    /// every cell walked, so the reported per-win probe counts are
    /// cumulative across the routing — the same convention as
    /// [`ElasticLevelArray::try_get`]'s exhausted-probe carry-over.
    ///
    /// Appends up to `k` wins to `out` (which is not cleared) and returns
    /// how many were appended.
    pub fn get_many<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        out: &mut Vec<Acquired>,
    ) -> usize {
        if k == 0 {
            return 0;
        }
        // A panic mid-batch leaves fully tagged wins from earlier cells in
        // `out` (`serve_cell` already rolled back the cell that was
        // mid-flight); the full elastic `free` releases them, held counters
        // included.
        crate::array::all_or_nothing(
            out,
            |out| self.get_many_inner(rng, k, out),
            |name| ActivityArray::free(self, name),
        )
    }

    fn get_many_inner<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        out: &mut Vec<Acquired>,
    ) -> usize {
        let pin = self.chain.pin();
        fail_point!("elastic::pinned_get");
        let mut acquired = 0usize;
        if let Some(got) = self.hint.reacquire(|name| Self::hint_acquire(&pin, name)) {
            out.push(got);
            acquired = 1;
        }
        let mut probes = 0u32;
        if acquired < k {
            self.walk(&pin, |cell| {
                acquired +=
                    self.serve_cell(cell, pin.stripe(), rng, k - acquired, &mut probes, out);
                (acquired == k).then_some(())
            });
        }
        acquired
    }

    /// The elastic `Get`'s routing, for the singleton and the batched path:
    /// `serve` the newest epoch, open a successor while the growth policy
    /// allows, then serve the older epochs newest to oldest.  Returns the
    /// first `Some` that `serve` produces.  Sealed cells are skipped: a
    /// sealed head is a stale view the retry resolves (only non-newest
    /// cells are sealed), and a sealed older cell is drained.
    fn walk<T>(
        &self,
        pin: &ChainPin<'_, Arc<EpochCell>>,
        mut serve: impl FnMut(&EpochCell) -> Option<T>,
    ) -> Option<T> {
        loop {
            let observed = pin.head();
            let newest = observed.value();
            if !newest.is_sealed() {
                if let Some(done) = serve(newest) {
                    return Some(done);
                }
            }
            if self.open_epoch(pin, observed) {
                continue;
            }
            if !std::ptr::eq(pin.head(), observed) {
                continue; // raced with a concurrent grower or retirer
            }
            return observed
                .iter()
                .skip(1)
                .map(|node| node.value())
                .filter(|cell| !cell.is_sealed())
                .find_map(|cell| serve(cell));
        }
    }

    /// One cell's slice of a batched `Get`: run the cell's batched kernel,
    /// epoch-tag each win (the core already threads the shared probe
    /// accumulator through every win's count, so the tag adds no base
    /// probes), then count the whole slice into the cell's held counter
    /// with one RMW.  Unwind-safe: a panic mid-slice — from the kernel
    /// (which rolls back its own wins) or between tags — strips any epoch
    /// tag off this cell's wins and releases them in the cell before
    /// resuming; nothing was held-counted yet, so there is no count to
    /// undo.  The caller's `out` only ever holds this cell's *fully tagged
    /// and counted* acquisitions plus intact earlier cells' entries.
    fn serve_cell<R: RandomSource + ?Sized>(
        &self,
        cell: &EpochCell,
        stripe: usize,
        rng: &mut R,
        want: usize,
        probes: &mut u32,
        out: &mut Vec<Acquired>,
    ) -> usize {
        let won = crate::array::all_or_nothing(
            out,
            |out| {
                let before = out.len();
                let won = cell
                    .backend
                    .try_get_many(rng, self.home_for(cell), want, probes, out);
                for got in &mut out[before..] {
                    fail_point!("elastic::tag_many");
                    *got = Self::tagged(cell, *got, 0);
                }
                won
            },
            |name| cell.backend.free(Name::new(name.index())),
        );
        if won > 0 {
            cell.add_held(stripe, won);
        }
        won
    }

    /// Registers through the monomorphized hot path, panicking if the chain
    /// is exhausted (same contract as [`ActivityArray::get`]).
    ///
    /// # Panics
    ///
    /// Panics if no free slot could be acquired, i.e. the caller violated the
    /// (current) contention bound and the growth policy forbids growing.
    pub fn get<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Acquired {
        self.try_get(rng)
            .unwrap_or_else(|| crate::array::exhausted(self))
    }

    /// Retires every non-newest epoch whose collect snapshot proves it
    /// quiescent, returning how many were retired.  Non-blocking: the call
    /// makes *one* grace-period observation (see the [module
    /// documentation](self) for the seal → grace → census → unlink
    /// protocol); if concurrent operations are in flight it simply returns
    /// `0` and re-arms the deferred maintenance flag, so the next free (or
    /// explicit call) retries — a drained epoch is retired as soon as one
    /// observation catches the structure between operations.  The newest
    /// epoch is never retired (the chain always keeps one serving cell).
    pub fn try_retire(&self) -> usize {
        // Stuck-pin watchdog: while the backoff deadline is armed, skip the
        // pass entirely — hammering grace observations against a pin that
        // has not moved for `watchdog_threshold_ms` is a livelock, not
        // progress.  Deferring is always safe (retirement is best-effort);
        // the re-armed maintenance flag retries once the deadline passes.
        if self.watchdog_deferring() {
            self.deferred_retirements
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.maintenance_pending.store(true, Ordering::SeqCst);
            return 0;
        }
        // Phase 1 (pinned): seal-claim every apparently-drained old cell.
        // The Arc clones keep the cells reachable after the pin drops.
        // Candidates another retirement pass already owns count as
        // outstanding work for the re-arm decision below.
        let mut claimed: Vec<Arc<EpochCell>> = Vec::new();
        let mut unclaimed = 0usize;
        {
            let pin = self.chain.pin();
            for node in pin.iter().skip(1) {
                let cell = node.value();
                if cell.held_total() == 0 {
                    if cell.try_seal() {
                        claimed.push(Arc::clone(cell));
                    } else {
                        unclaimed += 1;
                    }
                }
            }
        }
        // A retirer that dies holding seals would orphan its candidate
        // epochs — sealed cells serve no Gets and nobody else can claim
        // them.  The guard unseals everything still claimed if this pass
        // unwinds; on the normal paths the explicit unseals/unlinks below
        // run first and a (then-redundant) unseal of an unlinked cell is a
        // harmless store into an unreachable node.
        struct UnsealOnUnwind<'a>(&'a [Arc<EpochCell>]);
        impl Drop for UnsealOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    for cell in self.0 {
                        cell.unseal();
                    }
                }
            }
        }
        let _unseal_guard = UnsealOnUnwind(&claimed);
        fail_point!("elastic::retire::sealed");
        if claimed.is_empty() {
            return self.finish_maintenance(0, unclaimed, false);
        }
        // Phase 2 (unpinned): one grace observation.  Success proves every
        // operation that could still miss the seals has completed.
        if !self.chain.no_active_pins() {
            for cell in &claimed {
                cell.unseal();
            }
            self.note_grace_failure();
            // Our candidates are still drained; a later pass must retry.
            return self.finish_maintenance(0, unclaimed, true);
        }
        self.note_grace_success();
        // Phase 3: the definitive census.  No new registration can reach a
        // sealed cell now, so a zero scan is a proof of quiescence.
        let mut confirmed = Vec::new();
        for cell in &claimed {
            if cell.is_drained() {
                confirmed.push(cell);
            } else {
                // A racer won a slot between the drain check and the seal:
                // the cell is live again, not outstanding work.
                cell.unseal();
            }
        }
        if confirmed.is_empty() {
            return self.finish_maintenance(0, unclaimed, false);
        }
        let retired = self.unlink(&confirmed);
        self.finish_maintenance(retired, unclaimed, false)
    }

    /// Phase 4 of [`ElasticLevelArray::try_retire`] (pinned): unlinks the
    /// sealed, censused `confirmed` cells (newest first) and keeps the
    /// newest of them as the spare, in place of the last one.  A CAS race
    /// means a concurrent grower published first — rebuild against the new
    /// head (the confirmed cells stay sealed and in place until we remove
    /// them, so the loop is bounded by other threads' progress).
    fn unlink(&self, confirmed: &[&Arc<EpochCell>]) -> usize {
        let retired = loop {
            let pin = self.chain.pin();
            match pin.try_remove(|cell| !confirmed.iter().any(|c| c.epoch == cell.epoch)) {
                Ok(removed) => break removed,
                Err(_race) => continue,
            }
        };
        self.epochs_retired.fetch_add(retired, Ordering::Relaxed);
        let replaced = match self.spare.try_lock() {
            Ok(mut spare) => spare.replace(Arc::clone(confirmed[0])),
            Err(_) => None,
        };
        // The old spare drops here, after the lock.
        drop(replaced);
        retired
    }

    /// The tail of every retirement pass: attempt snapshot reclamation, then
    /// record whether deferred work remains — drained candidates this pass
    /// could not finish (`retry_candidates`), candidates another pass owns
    /// (`unclaimed`), or garbage still awaiting its grace period — so that
    /// `free` re-triggers [`ElasticLevelArray::try_retire`] on later traffic
    /// instead of the check being one-shot.
    fn finish_maintenance(
        &self,
        retired: usize,
        unclaimed: usize,
        retry_candidates: bool,
    ) -> usize {
        self.chain.try_collect_garbage();
        if retry_candidates || unclaimed > 0 || self.chain.pending_garbage() > 0 {
            self.maintenance_pending.store(true, Ordering::SeqCst);
            return retired;
        }
        // This pass saw no leftover work — but its phase-1 scan is stale by
        // now, and a blind clear could overwrite the `true` a concurrent
        // pass stored after failing *its* grace observation, stranding that
        // pass's drained candidate.  Clear first, then re-verify against
        // the current chain and re-arm if anything drained (or any garbage)
        // surfaced in the window: the work either existed before our clear
        // (this re-check sees it — the drain's SeqCst counter update
        // precedes the concurrent flag store our clear overwrote) or it
        // appears later, in which case its own pass sets the flag after us.
        self.maintenance_pending.store(false, Ordering::SeqCst);
        if self.has_deferred_work() {
            self.maintenance_pending.store(true, Ordering::SeqCst);
        }
        retired
    }

    /// Whether the stuck-pin watchdog's backoff deadline is still in the
    /// future — retirement passes and shrinks defer while it is.
    fn watchdog_deferring(&self) -> bool {
        now_ms()
            < self
                .backoff_until
                .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A grace observation failed.  If the oldest active pin has been stuck
    /// for at least the watchdog threshold, arm (or extend) the capped
    /// exponential backoff: 1ms, 2ms, … up to [`MAX_BACKOFF_MS`] per
    /// consecutive stuck failure.  `fetch_max` so a racing pass never
    /// *shortens* an armed deadline.  Failures against young pins — routine
    /// contention — never back off.
    ///
    /// This is the watchdog's entire authority: it decides when *not* to
    /// run retirement.  It never unseals, never unlinks, and never touches
    /// the grace protocol itself, so a stuck (or merely slow) pinner can
    /// delay reclamation but can never have a live epoch unlinked from
    /// under it — `tests/panic_safety.rs` holds a paused pinner across
    /// retirement attempts to pin that property down.
    fn note_grace_failure(&self) {
        let Some(age) = self.chain.oldest_pin_age_ms() else {
            return;
        };
        if age < self.watchdog_threshold_ms {
            return;
        }
        let exp = self
            .backoff_exp
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            .min(10);
        let delay = (1u64 << exp).min(MAX_BACKOFF_MS);
        self.backoff_until
            .fetch_max(now_ms() + delay, std::sync::atomic::Ordering::Relaxed);
    }

    /// The shared tail of `free`/`free_many`: the watermark-triggered
    /// shrink, then the deferred-retirement claim.  Crash-isolated — by the
    /// time this runs the caller's Free has fully completed, so an
    /// *injected* fault inside the best-effort maintenance must not
    /// propagate and make the Free look failed (the caller would retry and
    /// double-free).  The maintenance flag is re-armed instead, so later
    /// traffic finishes the pass.  Genuine panics (assertion failures, not
    /// `la_fault` payloads) still propagate.
    fn run_free_maintenance(&self, shrink_ready: bool, drained_old_epoch: bool) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if shrink_ready {
                self.try_shrink();
                self.low_streak.0.store(0, Ordering::Relaxed);
            }
            if self.auto_retire {
                // Load before the CAS: the flag is almost always clear, and
                // a failing CAS would still take its cache line exclusive on
                // every free.
                let claimed_maintenance = drained_old_epoch
                    || (self.maintenance_pending.load(Ordering::SeqCst)
                        && self
                            .maintenance_pending
                            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok());
                if claimed_maintenance {
                    self.try_retire();
                }
            }
        }));
        if let Err(payload) = result {
            if !la_fault::is_injected(payload.as_ref()) {
                std::panic::resume_unwind(payload);
            }
            self.maintenance_pending.store(true, Ordering::SeqCst);
        }
    }

    /// A grace observation succeeded: pins are draining normally, so any
    /// armed backoff is stale.  Disarm it and reset the exponent.
    fn note_grace_success(&self) {
        self.backoff_exp
            .store(0, std::sync::atomic::Ordering::Relaxed);
        self.backoff_until
            .store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// A snapshot of the array's liveness-degradation state: the oldest
    /// active pin's age, and how many retirement passes and shrinks the
    /// stuck-pin watchdog has deferred.
    pub fn robustness_report(&self) -> RobustnessReport {
        RobustnessReport {
            oldest_pin_age_ms: self.chain.oldest_pin_age_ms(),
            deferred_shrinks: self
                .deferred_shrinks
                .load(std::sync::atomic::Ordering::Relaxed),
            deferred_retirements: self
                .deferred_retirements
                .load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Whether any deferred maintenance exists right now: a drained
    /// (held-count zero) non-newest cell, or displaced snapshots awaiting
    /// their grace period.  Advisory — a held count of zero can be
    /// transient — but a false positive only schedules one extra
    /// [`ElasticLevelArray::try_retire`] pass.
    fn has_deferred_work(&self) -> bool {
        if self.chain.pending_garbage() > 0 {
            return true;
        }
        let pin = self.chain.pin();
        pin.iter()
            .skip(1)
            .any(|node| node.value().held_total() == 0)
    }

    /// Looks up the live cell a name belongs to within a pinned snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the name's epoch is not live (already retired, or never
    /// opened) — either way a caller bug, exactly like an out-of-range index
    /// on the fixed-size arrays.
    fn cell_for<'p>(pin: &'p ChainPin<'_, Arc<EpochCell>>, name: Name) -> &'p EpochCell {
        Self::find_cell(pin, name.epoch()).unwrap_or_else(|| {
            panic!(
                "name {name} belongs to epoch {} which is not live (retired or never opened)",
                name.epoch()
            )
        })
    }

    /// The live cell tagged `epoch` within a pinned snapshot, if any.
    fn find_cell<'p>(pin: &'p ChainPin<'_, Arc<EpochCell>>, epoch: usize) -> Option<&'p EpochCell> {
        pin.iter()
            .map(|node| node.value().as_ref())
            .find(|c| c.epoch == epoch)
    }

    /// Counts `n` releases from `cell` on the caller's stripe and reports
    /// whether they drained a non-newest epoch.  The SeqCst decrement comes
    /// *before* the head load: if the drain races a grower publishing over
    /// this epoch, either the load sees the new head or the grower's
    /// post-CAS sum sees the decrement (see `publish_epoch`).  Only a
    /// release into a non-newest epoch sums the stripes, and the sum follows
    /// the decrement in the SeqCst order, so the epoch's last release —
    /// from whichever stripe — sees zero.
    fn note_release(pin: &ChainPin<'_, Arc<EpochCell>>, cell: &EpochCell, n: usize) -> bool {
        cell.sub_held(pin.stripe(), n);
        cell.epoch != pin.head().value().epoch && cell.held_total() == 0
    }

    /// Retries the hinted epoch-tagged slot with one test-and-set.  The
    /// hinted epoch may have been retired (or sealed by an in-flight
    /// retirement check) since the free that recorded it — both reject the
    /// hint instead of panicking, and the caller falls through to the probe
    /// path.  Seal-race safety mirrors [`ElasticLevelArray::force_occupy`]:
    /// the caller's pin blocks the retirement grace period, so a win taken
    /// on an unsealed cell is always visible to the retirement census.  The
    /// hint attempt is not counted as a probe, matching
    /// [`ProbeCore::hint_acquire`].
    ///
    /// **Hint-staleness invariant**: the per-thread hint cache
    /// ([`crate::hint`]) is *never* invalidated by `try_retire` /
    /// `try_shrink` — it cannot be, since it lives in other threads'
    /// thread-locals.  Correctness therefore rests entirely on this
    /// function's re-validation under a fresh pin: a hint naming an epoch
    /// that has since been retired finds no matching live cell
    /// ([`ElasticLevelArray::find_cell`] returns `None`), and one naming a
    /// sealed epoch is rejected by the
    /// `is_sealed` check, so a stale hint degrades to a clean miss and the
    /// probe path takes over.  The `stale_hints_*` regression tests in
    /// `tests/free_hint.rs` pin this behavior down.
    fn hint_acquire(pin: &ChainPin<'_, Arc<EpochCell>>, hinted: Name) -> Option<Acquired> {
        let cell = Self::find_cell(pin, hinted.epoch())?;
        if cell.is_sealed() {
            return None;
        }
        let local = cell.backend.hint_acquire(Name::new(hinted.index()))?;
        Some(Self::tag(cell, pin.stripe(), local, 0))
    }

    /// The calling thread's home shard within `cell`: flat cells (the
    /// overwhelmingly common case) short-circuit to 0 without touching the
    /// thread-local token; sharded cells reduce the sticky token modulo the
    /// cell's shard count.
    fn home_for(&self, cell: &EpochCell) -> usize {
        let shards = cell.backend.num_shards();
        if shards <= 1 {
            return 0;
        }
        self.homes.shard(shards)
    }

    /// Whether `free` arms the per-thread Free→Get hint cache.
    pub fn free_hint_enabled(&self) -> bool {
        self.hint.is_enabled()
    }

    /// [`ElasticLevelArray::tag`] with the singleton `Get`'s crash window
    /// instrumented: between the backend win and the tag the name exists
    /// nowhere the caller can see, so an unwind there (the `elastic::tag`
    /// failpoint) must release the backend slot again — the guard's drop
    /// does exactly that.  `tag` itself cannot unwind (a `fetch_add` and
    /// field copies), so once it runs the held accounting is always exact.
    fn tag_guarded(cell: &EpochCell, stripe: usize, local: Acquired, base_probes: u32) -> Acquired {
        struct BackendWin<'a> {
            cell: &'a EpochCell,
            local: Name,
        }
        impl Drop for BackendWin<'_> {
            fn drop(&mut self) {
                self.cell.backend.free(self.local);
            }
        }
        let guard = BackendWin {
            cell,
            local: local.name(),
        };
        fail_point!("elastic::tag");
        std::mem::forget(guard);
        Self::tag(cell, stripe, local, base_probes)
    }

    /// Tags a core-local acquisition with its epoch and the probes charged so
    /// far, and records it in the cell's held counter on the caller's pin
    /// stripe `stripe`.
    fn tag(cell: &EpochCell, stripe: usize, local: Acquired, base_probes: u32) -> Acquired {
        cell.add_held(stripe, 1);
        Self::tagged(cell, local, base_probes)
    }

    /// The tag alone, with no held accounting (a batch counts its slice
    /// once, see [`ElasticLevelArray::serve_cell`]).
    fn tagged(cell: &EpochCell, local: Acquired, base_probes: u32) -> Acquired {
        Acquired::new(
            Name::with_epoch(cell.epoch, local.name().index()),
            base_probes + local.probes(),
            local.batch(),
            local.used_backup(),
        )
    }

    /// Attempts to CAS-publish a doubled successor cell over `observed`.
    /// Returns `true` when the caller should re-read the head and retry its
    /// `Get` (either this thread published, or a racer did and this
    /// thread's candidate went to the spare or was dropped); `false` when
    /// the policy forbids growing past `observed`.
    fn open_epoch(
        &self,
        pin: &ChainPin<'_, Arc<EpochCell>>,
        observed: &ChainNode<Arc<EpochCell>>,
    ) -> bool {
        let newest = observed.value();
        if observed.depth() >= self.growth.max_live_epochs() {
            return false;
        }
        if !std::ptr::eq(pin.head(), observed) {
            // A racer already published past `observed`: retry against the
            // fresh head without building (and discarding) a full candidate
            // cell.  The CAS below still guards correctness — this check
            // only shrinks the growth stampede's wasted allocations to the
            // narrow check-to-CAS window.
            return true;
        }
        let contention = newest.contention.saturating_mul(2);
        // Published or lost the race: either way a fresh epoch is serving.
        // `None` (tag space exhausted) is the only way growth stops here.
        match self.publish_epoch(pin, observed, contention) {
            Some(true) => {
                self.note_published(false);
                true
            }
            Some(false) => true,
            None => false,
        }
    }

    /// Feeds a published epoch into the shrink backoff.  A grow restarts
    /// the low streak (load before the store, as in `note_shrink_sample`:
    /// the streak is usually zero already).  A grow that undoes a shrink
    /// sets the patience exponent to [`MAX_SHRINK_BACKOFF_EXP`]: the load
    /// came back, so the next shrink waits out the capped window (see
    /// [`ElasticLevelArray::shrink_patience`]).  A shrink that follows a
    /// shrink means the load really fell, and lowers the exponent by one.
    fn note_published(&self, shrink: bool) {
        use std::sync::atomic::Ordering as StdOrdering;
        if !shrink && self.low_streak.0.load(Ordering::Relaxed) != 0 {
            self.low_streak.0.store(0, Ordering::Relaxed);
        }
        if self.shrunk_last.swap(shrink, StdOrdering::Relaxed) {
            let exp = if shrink {
                self.shrink_backoff
                    .load(StdOrdering::Relaxed)
                    .saturating_sub(1)
            } else {
                MAX_SHRINK_BACKOFF_EXP
            };
            self.shrink_backoff.store(exp, StdOrdering::Relaxed);
        }
    }

    /// Attempts to CAS-publish a successor cell of bound `contention` over
    /// `observed` — the shared tail of growth
    /// ([`ElasticLevelArray::open_epoch`] doubles) and shrink
    /// ([`ElasticLevelArray::try_shrink`] halves).  The cell is the spare
    /// when [`ElasticLevelArray::reuse_spare`] can take it, and a new one
    /// otherwise.  Returns `Some(true)` when this thread published,
    /// `Some(false)` when a racer moved the head first (the candidate
    /// becomes the spare if none is kept; a fresh epoch is serving either
    /// way), and `None` when the epoch tag space is exhausted (after ~10^3
    /// publications) — the caller must stop rather than reuse a tag and
    /// break uniqueness.
    fn publish_epoch(
        &self,
        pin: &ChainPin<'_, Arc<EpochCell>>,
        observed: &ChainNode<Arc<EpochCell>>,
        contention: usize,
    ) -> Option<bool> {
        let newest = observed.value();
        let epoch = newest.epoch + 1;
        if epoch > Name::MAX_EPOCH {
            return None;
        }
        let cell = self.reuse_spare(epoch, contention).unwrap_or_else(|| {
            let backend = ShardGroup::for_epoch(&self.base, contention)
                .expect("a resized elastic configuration stays valid");
            Arc::new(EpochCell::new(
                epoch,
                contention,
                backend,
                self.chain.num_stripes(),
            ))
        });
        let pushed = pin.try_push(observed, Arc::clone(&cell));
        if pushed {
            self.epochs_opened.fetch_add(1, Ordering::Relaxed);
            // The predecessor may have fully drained *while it was still the
            // newest epoch* — its last free saw `cell.epoch == newest` and
            // scheduled nothing.  Now that it is non-newest it is
            // retirement-eligible and no free will ever re-fire its trigger,
            // so arm the deferred check here.  (The SeqCst held counters
            // make this airtight: if the draining free's head load preceded
            // this CAS, its decrement is visible to the sum below; if it
            // followed the CAS, that free saw the new head and scheduled the
            // check itself.)
            if newest.held_total() == 0 {
                self.maintenance_pending.store(true, Ordering::SeqCst);
            }
        } else if let Ok(mut spare) = self.spare.try_lock() {
            // The chain dropped its copy of the losing candidate, so `cell`
            // is the only one: it becomes the spare if none is kept.
            if spare.is_none() {
                *spare = Some(cell);
            }
        }
        Some(pushed)
    }

    /// Takes the spare for a publication of bound `contention` under tag
    /// `epoch`, if its bound matches and no one else holds it.
    ///
    /// Every slot of the spare is free.  A retired cell's census ran after
    /// the grace observation, from which point no `Get`, hint or
    /// `force_occupy` could win a slot in the sealed cell, and none can
    /// reach it once it is unlinked; a losing candidate was never
    /// published.  `Arc::get_mut` succeeds only once the grace-period
    /// collection has dropped every chain snapshot that held the cell, so
    /// no pinned reader can still reach it.  The cell then needs only a
    /// fresh tag, its seal cleared and zeroed held stripes, not a scan.
    fn reuse_spare(&self, epoch: usize, contention: usize) -> Option<Arc<EpochCell>> {
        let mut spare = self.spare.try_lock().ok()?;
        let cell = Arc::get_mut(spare.as_mut().filter(|c| c.contention == contention)?)?;
        cell.epoch = epoch;
        cell.sealed = AtomicBool::new(false);
        for stripe in cell.held.iter_mut() {
            stripe.0 = AtomicUsize::new(0);
        }
        spare.take()
    }

    /// Opens a **smaller** epoch — half the newest bound, never below the
    /// initial — so an oversized epoch left behind by a growth burst can
    /// drain and retire (the inverse of the doubling a saturated `Get`
    /// triggers; see the [module documentation](self)).  Returns `true` if
    /// this call
    /// published the smaller epoch.  Non-blocking: one chain-head CAS, no
    /// waiting on holders — the big epoch retires later through the normal
    /// seal → grace → census → unlink protocol once its last name is freed.
    ///
    /// Usually triggered automatically by the watermark streak
    /// ([`LevelArrayConfig::shrink_watermark`]); callable explicitly for
    /// tests and for deployments that prefer manual scaling.  A no-op
    /// (returning `false`) under [`GrowthPolicy::Fixed`], at the chain's
    /// `max_epochs` depth, or when the newest epoch is already at the
    /// initial bound.
    pub fn try_shrink(&self) -> bool {
        if !matches!(self.growth, GrowthPolicy::Doubling { .. }) {
            return false;
        }
        // Watchdog backoff: a shrink publishes yet another epoch while a
        // stuck pin is already wedging retirement — the chain would only
        // grow.  Defer until the backoff deadline passes.
        if self.watchdog_deferring() {
            self.deferred_shrinks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return false;
        }
        let initial = self.base.max_concurrency_value();
        let pin = self.chain.pin();
        let observed = pin.head();
        let newest = observed.value();
        if newest.contention <= initial || observed.depth() >= self.growth.max_live_epochs() {
            return false;
        }
        let target = (newest.contention / 2).max(initial);
        let published = self.publish_epoch(&pin, observed, target) == Some(true);
        if published {
            self.note_published(true);
        }
        published
    }

    /// The free-side shrink sampler, run by a free of `frees` names (1 for
    /// `free`, the batch size for `free_many`) on pin stripe `stripe` with
    /// the `newest` epoch it observed, *before* the names are released, so
    /// the census still counts them.  The call advances the stripe's
    /// cadence by `frees` and samples once if that crossed any
    /// [`SHRINK_SAMPLE_STRIDE`] boundary: it records whether the newest
    /// epoch's advisory occupancy sits at or below the watermark, counting
    /// a low sample as one stride of frees per boundary crossed, and
    /// reports `true` once the low streak has filled the patience window.
    /// Sampling sums every stripe's held counter and may write the shared
    /// streak, so the stride keeps both off most frees.  Advisory by design
    /// — the held counters can be mid-flight — but a false sample only
    /// shifts the streak by the frees it stands for, and the window is
    /// sized so that sustained real load always resets it.
    fn note_shrink_sample(&self, stripe: usize, newest: &EpochCell, frees: usize) -> bool {
        let Some(watermark) = self.shrink_watermark else {
            return false;
        };
        if newest.contention <= self.base.max_concurrency_value() {
            return false;
        }
        // A plain load and store, not an RMW: two threads sharing a stripe
        // may lose a tick, which only stretches that stripe's cadence.  The
        // stored cadence stays below the stride and only `frees`'
        // remainder is added to it, so no batch size can overflow the sum.
        let ticks = &self.shrink_ticks[stripe].0;
        let carried = ticks.load(Ordering::Relaxed) + frees % SHRINK_SAMPLE_STRIDE;
        ticks.store(carried % SHRINK_SAMPLE_STRIDE, Ordering::Relaxed);
        let strides = frees / SHRINK_SAMPLE_STRIDE + carried / SHRINK_SAMPLE_STRIDE;
        if strides == 0 {
            return false;
        }
        let held = newest.held_total();
        if (held as f64) <= watermark * (newest.contention as f64) {
            // At most `frees + SHRINK_SAMPLE_STRIDE`: a slice of names is
            // far shorter than `usize::MAX`.
            let span = strides * SHRINK_SAMPLE_STRIDE;
            let streak = self.low_streak.0.fetch_add(span, Ordering::Relaxed) + span;
            let backoff = self
                .shrink_backoff
                .load(std::sync::atomic::Ordering::Relaxed);
            streak >= Self::shrink_patience(newest.contention, backoff)
        } else {
            // Load before the store: under sustained load the streak is
            // already zero, and its cache line stays shared.
            if self.low_streak.0.load(Ordering::Relaxed) != 0 {
                self.low_streak.0.store(0, Ordering::Relaxed);
            }
            false
        }
    }

    /// How many frees' worth of consecutive low samples the watermark must
    /// see before a shrink fires: one per unit of the newest bound, floored
    /// at 16 so tiny epochs still get hysteresis, times the backoff
    /// multiplier `2^backoff`.  Scaling with the bound means a big epoch —
    /// the expensive kind to reopen — demands proportionally longer
    /// evidence of sustained low occupancy.  The multiplier (see
    /// `note_published`) jumps to its cap, `2^`[`MAX_SHRINK_BACKOFF_EXP`],
    /// once the next burst's grow undoes a shrink, and halves with each
    /// shrink that follows a shrink.
    fn shrink_patience(contention: usize, backoff: u32) -> usize {
        contention.max(16).saturating_mul(1 << backoff)
    }

    /// The batch-aggregated census: batch `i` of every live epoch folded into
    /// one [`Region::Batch`] entry (epochs that are too small to have batch
    /// `i` simply contribute nothing), likewise the backups — so the paper's
    /// balance definitions, which are predicates over batch totals, apply to
    /// the elastic layout unchanged.  [`ActivityArray::occupancy`] reports
    /// the finer per-epoch census instead.
    pub fn batchwise_occupancy(&self) -> OccupancySnapshot {
        let pin = self.chain.pin();
        let cells: Vec<&EpochCell> = pin.iter().map(|node| node.value().as_ref()).collect();
        let max_batches = cells
            .iter()
            .map(|c| c.backend.geometry().num_batches())
            .max()
            .unwrap_or(0);
        let mut regions: Vec<RegionOccupancy> = (0..max_batches)
            .map(|batch| {
                let mut capacity = 0;
                let mut occupied = 0;
                for cell in &cells {
                    if batch < cell.backend.geometry().num_batches() {
                        capacity += cell.backend.batch_capacity(batch);
                        occupied += cell.backend.batch_occupancy(batch);
                    }
                }
                RegionOccupancy::new(Region::Batch(batch), capacity, occupied)
            })
            .collect();
        let backup_capacity: usize = cells.iter().map(|c| c.backend.backup_capacity()).sum();
        if backup_capacity > 0 {
            let occupied = cells.iter().map(|c| c.backend.backup_occupancy()).sum();
            regions.push(RegionOccupancy::new(
                Region::Backup,
                backup_capacity,
                occupied,
            ));
        }
        OccupancySnapshot::new(regions)
    }

    /// Directly occupies a specific slot of the epoch named in `name`'s tag,
    /// bypassing the probing strategy (test/experiment hook, exactly like
    /// [`crate::LevelArray::force_occupy`]).  A `false` return means the
    /// slot was already held — or that the epoch is sealed by an in-flight
    /// retirement check (it is about to be unlinked or unsealed; either way
    /// it accepts no new occupation right now).
    ///
    /// # Panics
    ///
    /// Panics if the name's epoch is not live or its index is out of range.
    #[must_use = "a false return means the slot was already held; ignoring it leaks the intent"]
    pub fn force_occupy(&self, name: Name) -> bool {
        let pin = self.chain.pin();
        let cell = Self::cell_for(&pin, name);
        if cell.is_sealed() {
            return false;
        }
        let won = cell.backend.force_occupy(Name::new(name.index()));
        if won {
            cell.add_held(pin.stripe(), 1);
        }
        won
    }

    /// Reads whether a specific slot is currently held.
    ///
    /// # Panics
    ///
    /// Panics if the name's epoch is not live or its index is out of range.
    pub fn is_held(&self, name: Name) -> bool {
        let pin = self.chain.pin();
        Self::cell_for(&pin, name)
            .backend
            .is_held(Name::new(name.index()))
    }
}

impl ActivityArray for ElasticLevelArray {
    fn algorithm_name(&self) -> &'static str {
        "ElasticLevelArray"
    }

    fn try_get(&self, rng: &mut dyn RandomSource) -> Option<Acquired> {
        ElasticLevelArray::try_get(self, rng)
    }

    fn get_many(&self, rng: &mut dyn RandomSource, k: usize, out: &mut Vec<Acquired>) -> usize {
        ElasticLevelArray::get_many(self, rng, k, out)
    }

    fn free(&self, name: Name) {
        // Pre-effect: an unwind here means the Free never happened — the
        // caller still holds the name and can safely retry.  Past this
        // point the release either completes in full or (an injected fault
        // inside the backend) unwinds before the slot bit clears; the held
        // decrement and the release sit in the same pinned block with no
        // fault site between them.
        fail_point!("elastic::free");
        let (drained_old_epoch, shrink_ready) = {
            let pin = self.chain.pin();
            let cell = Self::cell_for(&pin, name);
            let shrink_ready = self.note_shrink_sample(pin.stripe(), pin.head().value(), 1);
            cell.backend.free(Name::new(name.index()));
            (Self::note_release(&pin, cell, 1), shrink_ready)
        };
        // Arm the Free→Get hint with the epoch-tagged name.  If the deferred
        // retirement below unlinks the hinted epoch, the stale hint is
        // rejected by the liveness lookup in hint_acquire — never panics.
        self.hint.record(name);
        // Deferred retirement check: the free's own critical path (slot
        // released, pin dropped) is already complete; try_retire is
        // non-blocking, so this never stalls the caller behind growth or
        // other frees.  The maintenance flag re-arms the check after a pass
        // that bailed (grace failed, or garbage was pushed back), so a
        // drained epoch is not stranded just because its own draining free
        // raced with a pinned reader.  The flag is *claimed* (CAS true →
        // false), not merely read: exactly one freeing thread runs the
        // retry pass at a time — a stampede of concurrent passes would pin
        // the chain and defeat each other's grace observations — and the
        // pass itself re-arms the flag if work remains.
        // The watermark streak filled its patience window: open the smaller
        // epoch.  Outside the pinned block (try_shrink takes its own pin)
        // and *before* the retirement check below, so an already-drained
        // oversized epoch — now non-newest — can retire in this same call.
        // The streak restarts either way; on a lost race the winner already
        // restarted the clock by publishing.
        self.run_free_maintenance(shrink_ready, drained_old_epoch);
    }

    /// The batched `Free`: ONE chain pin and one epoch-tag decode (cell
    /// lookup) per epoch *run* cover the whole batch.  [`Name`]'s encoding
    /// is epoch-major, so a single sort groups the names into per-epoch
    /// runs; each run strips its tags and releases through the owning
    /// cell's bulk kernel (`ShardGroup::release_sorted`), with one held
    /// counter decrement per run.  Every run's cell is resolved and its
    /// slots checked (in range, distinct, held) before the shrink sample and
    /// before any run is released, so a bad name leaves the whole batch
    /// held and every held counter unchanged.  The shrink sampler sees the
    /// batch as `names.len()` frees, before the release.  A draining batch
    /// schedules a single deferred retirement check after the pin drops,
    /// exactly like the singleton [`ActivityArray::free`].
    ///
    /// # Panics
    ///
    /// Panics if any name's epoch is not live, any index is out of range, or
    /// any slot is not currently held (double free) — duplicates within the
    /// batch included.
    fn free_many(&self, names: &[Name]) {
        if names.is_empty() {
            return;
        }
        // Pre-effect, like the singleton free: an unwind here released
        // nothing and the caller retries the whole batch.
        fail_point!("elastic::free_many");
        let (drained_old_epoch, shrink_ready) = {
            let pin = self.chain.pin();
            let mut sorted: Vec<usize> = names.iter().map(|name| name.raw()).collect();
            sorted.sort_unstable();
            // Each run ends where the next epoch starts.
            let mut runs = Vec::new();
            let mut start = 0;
            while start < sorted.len() {
                let first = Name::from_raw(sorted[start]);
                let cell = Self::cell_for(&pin, first);
                let end = start
                    + sorted[start..]
                        .partition_point(|&raw| Name::from_raw(raw).epoch() == first.epoch());
                for raw in &mut sorted[start..end] {
                    *raw = Name::from_raw(*raw).index();
                }
                cell.backend.check_sorted(&sorted[start..end]);
                runs.push((cell, end));
                start = end;
            }
            let shrink_ready =
                self.note_shrink_sample(pin.stripe(), pin.head().value(), names.len());
            let mut drained_old_epoch = false;
            let mut start = 0;
            for (cell, end) in runs {
                cell.backend.release_sorted(&sorted[start..end]);
                drained_old_epoch |= Self::note_release(&pin, cell, end - start);
                start = end;
            }
            (drained_old_epoch, shrink_ready)
        };
        // Re-arm the Free→Get hint with the batch's last name (caller
        // order), matching the singleton free's epoch-tagged hint.
        self.hint.record_last(names);
        // ONE deferred retirement claim for the whole batch: a batch that
        // drained any old epoch (or claims the pending flag) runs a single
        // try_retire pass, not one per name.
        self.run_free_maintenance(shrink_ready, drained_old_epoch);
    }

    fn route_hint(&self, participant: usize) {
        // Pin the thread's home token to the participant id; each (possibly
        // sharded) epoch cell reduces it modulo its own shard count at Get
        // time.  A no-op for flat cells, which never consult the token.
        self.homes.pin(participant);
    }

    fn collect(&self) -> Vec<Name> {
        let mut held = Vec::new();
        ActivityArray::collect_into(self, &mut held);
        held
    }

    fn collect_into(&self, out: &mut Vec<Name>) {
        let pin = self.chain.pin();
        for node in pin.iter() {
            let cell = node.value();
            cell.backend.collect_into(cell.epoch, out);
        }
    }

    fn capacity(&self) -> usize {
        let pin = self.chain.pin();
        pin.iter().map(|node| node.value().backend.capacity()).sum()
    }

    fn max_participants(&self) -> usize {
        let pin = self.chain.pin();
        pin.iter().map(|node| node.value().contention).sum()
    }

    fn occupancy(&self) -> OccupancySnapshot {
        let pin = self.chain.pin();
        let mut cells: Vec<&EpochCell> = pin.iter().map(|node| node.value().as_ref()).collect();
        cells.reverse(); // oldest first, matching epoch_ids()
        let mut regions = Vec::new();
        for cell in cells {
            let epoch = cell.epoch;
            regions.extend(cell.backend.region_occupancies(|region| match region {
                Region::Batch(batch) => Region::EpochBatch { epoch, batch },
                Region::Backup => Region::EpochBackup(epoch),
                other => other,
            }));
        }
        OccupancySnapshot::new(regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;
    use std::collections::HashSet;

    #[test]
    fn initial_dimensions_match_the_plain_layout() {
        let array = ElasticLevelArray::new(16, GrowthPolicy::Fixed);
        let plain = crate::LevelArray::new(16);
        assert_eq!(array.num_epochs(), 1);
        assert_eq!(array.newest_epoch(), 0);
        assert_eq!(array.epoch_ids(), vec![0]);
        assert_eq!(array.capacity(), plain.capacity());
        assert_eq!(array.max_participants(), 16);
        assert_eq!(array.initial_contention(), 16);
        assert_eq!(array.epochs_opened(), 1);
        assert_eq!(array.epochs_retired(), 0);
        assert_eq!(array.pending_reclamation(), 0);
        assert_eq!(array.algorithm_name(), "ElasticLevelArray");
        assert_eq!(array.newest_geometry(), *plain.geometry());
    }

    #[test]
    fn fixed_policy_saturates_like_a_plain_array() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        let mut rng = default_rng(1);
        let mut held = Vec::new();
        for _ in 0..10_000 {
            match array.try_get(&mut rng) {
                Some(got) => held.push(got.name()),
                None => break,
            }
        }
        assert_eq!(held.len(), array.capacity());
        assert!(array.try_get(&mut rng).is_none());
        assert_eq!(array.num_epochs(), 1, "Fixed must never grow");
        let unique: HashSet<_> = held.iter().collect();
        assert_eq!(unique.len(), held.len());
        for name in held {
            assert_eq!(name.epoch(), 0);
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn saturating_the_newest_epoch_opens_a_doubled_successor() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 4 });
        let mut rng = default_rng(2);
        // Drain epoch 0 (capacity 3n = 12) and keep going: the next
        // acquisitions must come from a fresh epoch of bound 8.
        let mut names = Vec::new();
        while names.len() < 20 {
            names.push(array.get(&mut rng).name());
        }
        assert_eq!(array.num_epochs(), 2);
        assert_eq!(array.epoch_ids(), vec![0, 1]);
        assert_eq!(array.epoch_contention(0), Some(4));
        assert_eq!(array.epoch_contention(1), Some(8));
        assert_eq!(array.epoch_contention(7), None);
        let epochs: HashSet<usize> = names.iter().map(|n| n.epoch()).collect();
        assert_eq!(epochs, HashSet::from([0, 1]));
        // Uniqueness holds across the growth event.
        let unique: HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            array.free(name);
        }
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
    }

    #[test]
    fn capped_chain_falls_back_to_older_epochs() {
        let array = ElasticLevelArray::new(2, GrowthPolicy::Doubling { max_epochs: 2 });
        let mut rng = default_rng(3);
        // Total capacity: 3*2 + 3*4 = 18.  Acquire everything.
        let mut names = HashSet::new();
        for _ in 0..200_000 {
            if names.len() == 18 {
                break;
            }
            if let Some(got) = array.try_get(&mut rng) {
                assert!(names.insert(got.name()), "duplicate {}", got.name());
            }
        }
        assert_eq!(names.len(), 18);
        assert_eq!(array.num_epochs(), 2, "max_epochs caps the chain");
        assert!(array.try_get(&mut rng).is_none());
        // Free a slot in the OLD epoch: the fallback walk must find it again.
        let old = *names.iter().find(|n| n.epoch() == 0).unwrap();
        array.free(old);
        names.remove(&old);
        let regained = loop {
            if let Some(got) = array.try_get(&mut rng) {
                break got.name();
            }
        };
        assert_eq!(regained.epoch(), 0);
        names.insert(regained);
        for name in names {
            array.free(name);
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn the_capped_walk_never_serves_a_sealed_epoch() {
        // Epoch capacities 6 + 12 + 24: with all 42 slots held, the newest
        // epoch is saturated and the chain is at its cap.
        let array = ElasticLevelArray::new(2, GrowthPolicy::Doubling { max_epochs: 3 });
        let mut rng = default_rng(31);
        let names: HashSet<Name> = (0..200_000)
            .filter_map(|_| array.try_get(&mut rng))
            .map(|got| got.name())
            .take(42)
            .collect();
        assert_eq!(names.len(), 42);
        assert_eq!(array.epoch_ids(), vec![0, 1, 2]);
        let of_epoch = |epoch| *names.iter().find(|n| n.epoch() == epoch).unwrap();
        let (open, sealed) = (of_epoch(0), of_epoch(1));
        let seal = |on: bool| {
            let pin = array.chain.pin();
            let cell = ElasticLevelArray::find_cell(&pin, 1).unwrap();
            if on {
                assert!(cell.try_seal());
            } else {
                cell.unseal();
            }
        };
        // Retries a `try_get`, frees its win, then retries a `get_many`:
        // each until it wins the one free slot it can reach.
        let regain = |rng: &mut larng::DefaultRng| {
            let single = (0..10_000).find_map(|_| array.try_get(&mut *rng)).unwrap();
            array.free(single.name());
            let mut out = Vec::new();
            assert!((0..10_000).any(|_| array.get_many(&mut *rng, 2, &mut out) > 0));
            assert_eq!(out.len(), 1);
            (single.name(), out[0].name())
        };
        array.free(sealed);
        seal(true);
        array.free(open);
        assert_eq!(
            regain(&mut rng),
            (open, open),
            "a Get served sealed epoch 1"
        );
        assert!(array.try_get(&mut rng).is_none());
        assert_eq!(array.get_many(&mut rng, 2, &mut Vec::new()), 0);
        seal(false);
        assert_eq!(regain(&mut rng), (sealed, sealed), "epoch 1 went unserved");
    }

    #[test]
    fn free_routes_by_the_epoch_tag_and_retires_drained_epochs() {
        let array = ElasticLevelArray::new(2, GrowthPolicy::Doubling { max_epochs: 5 });
        let mut rng = default_rng(4);
        let mut names = Vec::new();
        while names.len() < 30 {
            names.push(array.get(&mut rng).name());
        }
        assert!(array.num_epochs() >= 3);
        let epochs_before = array.num_epochs();
        // Per-epoch censuses agree with the tags handed out.
        let snap = array.occupancy();
        for &epoch in &array.epoch_ids() {
            let tagged = names.iter().filter(|n| n.epoch() == epoch).count();
            assert_eq!(snap.epoch_occupied(epoch), tagged);
            assert_eq!(array.epoch_held(epoch), Some(tagged));
        }
        // Freeing everything drains the old epochs; the deferred retirement
        // check in free() shrinks the chain without an explicit call.
        for name in names {
            array.free(name);
        }
        assert!(array.num_epochs() < epochs_before);
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        assert_eq!(
            array.epochs_retired(),
            array.epochs_opened() - 1,
            "every epoch but the newest must have been retired"
        );
        // Per-epoch occupancy of the survivor is zero, and the quiescent
        // structure has reclaimed every displaced chain snapshot.
        assert_eq!(array.occupancy().total_occupied(), 0);
        assert_eq!(array.pending_reclamation(), 0);
    }

    #[test]
    fn newest_epoch_is_never_retired() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
        assert_eq!(array.try_retire(), 0);
        assert_eq!(array.num_epochs(), 1);
    }

    #[test]
    fn auto_retire_can_be_disabled() {
        let array = LevelArrayConfig::new(2)
            .growth(GrowthPolicy::Doubling { max_epochs: 5 })
            .auto_retire(false)
            .build_elastic()
            .unwrap();
        let mut rng = default_rng(11);
        let names: Vec<Name> = (0..30).map(|_| array.get(&mut rng).name()).collect();
        let epochs_before = array.num_epochs();
        assert!(epochs_before >= 3);
        for name in names {
            array.free(name);
        }
        // Draining frees must NOT have scheduled the deferred check.
        assert_eq!(array.num_epochs(), epochs_before);
        // The explicit call still works.
        assert!(array.try_retire() >= 2);
        assert_eq!(array.num_epochs(), 1);
    }

    #[test]
    fn failed_deferred_retirement_rearms_on_the_next_free() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
        let mut rng = default_rng(12);
        // Grow to two epochs (epoch 0 saturates at 12 names).
        let names: Vec<Name> = (0..15).map(|_| array.get(&mut rng).name()).collect();
        assert_eq!(array.num_epochs(), 2);
        let (old, newest): (Vec<Name>, Vec<Name>) = names.into_iter().partition(|n| n.epoch() == 0);
        assert!(!newest.is_empty());
        {
            // A stalled reader: its pin makes every grace observation fail,
            // so the deferred check scheduled by the draining free below
            // must bail — and re-arm instead of giving up for good.
            let blocker = array.chain.pin();
            for name in &old {
                array.free(*name);
            }
            assert_eq!(
                array.num_epochs(),
                2,
                "retirement cannot succeed while a reader is pinned"
            );
            assert!(
                array.maintenance_pending.load(Ordering::Relaxed),
                "the failed pass must re-arm the deferred check"
            );
            drop(blocker);
        }
        // A later free that does NOT itself drain an epoch (the newest epoch
        // keeps holders) re-triggers the check via the maintenance flag.
        array.free(newest[0]);
        assert_eq!(array.num_epochs(), 1, "the re-armed check retires epoch 0");
        for name in newest.iter().skip(1) {
            array.free(*name);
        }
        let _ = array.try_retire();
        assert_eq!(array.pending_reclamation(), 0);
        assert!(!array.maintenance_pending.load(Ordering::Relaxed));
    }

    #[test]
    fn growth_over_a_drained_predecessor_arms_the_deferred_check() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
        let mut rng = default_rng(13);
        // Register in epoch 0, then drain it *while it is still the newest
        // epoch*: no free schedules a retirement check (each sees
        // `cell.epoch == newest`), and the maintenance flag stays clear.
        let names: Vec<Name> = (0..6).map(|_| array.get(&mut rng).name()).collect();
        assert_eq!(array.num_epochs(), 1);
        for name in names {
            array.free(name);
        }
        assert!(!array.maintenance_pending.load(Ordering::SeqCst));
        // A grower now publishes epoch 1 over the drained epoch 0 — the
        // interleaving of a Get that exhausted epoch 0's core before the
        // holders freed.  The publish must arm the deferred check, because
        // no future free of epoch 0 will ever exist to trigger it.
        {
            let pin = array.chain.pin();
            let observed = pin.head();
            assert!(array.open_epoch(&pin, observed));
        }
        assert_eq!(array.num_epochs(), 2);
        assert!(
            array.maintenance_pending.load(Ordering::SeqCst),
            "publishing over a drained predecessor must arm the check"
        );
        // The next free — of a fresh epoch-1 name, nothing to do with
        // epoch 0 — consumes the flag and retires the stranded epoch.
        let got = array.get(&mut rng);
        assert_eq!(got.name().epoch(), 1);
        array.free(got.name());
        assert_eq!(array.num_epochs(), 1, "the stranded epoch must retire");
        assert_eq!(array.epoch_ids(), vec![1]);
    }

    #[test]
    fn occupancy_reports_per_epoch_regions() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
        let mut rng = default_rng(5);
        let names: Vec<Name> = (0..20).map(|_| array.get(&mut rng).name()).collect();
        let snap = array.occupancy();
        assert_eq!(snap.epoch_ids(), array.epoch_ids());
        assert_eq!(snap.total_occupied(), 20);
        assert_eq!(snap.total_capacity(), array.capacity());
        assert!(snap.epoch_batch(0, 0).is_some());
        assert!(snap.epoch_backup(0).is_some());
        // The aggregate view folds the epochs back into plain batches.
        let agg = array.batchwise_occupancy();
        assert_eq!(agg.epoch_ids(), Vec::<usize>::new());
        assert_eq!(agg.total_capacity(), array.capacity());
        assert_eq!(agg.total_occupied(), 20);
        assert_eq!(agg.num_batches(), array.newest_geometry().num_batches());
        for name in names {
            array.free(name);
        }
    }

    #[test]
    fn force_occupy_and_is_held_route_by_epoch() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
        let mut rng = default_rng(6);
        // Grow to two epochs (epoch 0 saturates at 12 names).
        let names: Vec<Name> = (0..15).map(|_| array.get(&mut rng).name()).collect();
        assert_eq!(array.num_epochs(), 2);
        // Release one slot of the *old* epoch and re-occupy it directly.
        let victim = names[0];
        assert_eq!(victim.epoch(), 0);
        array.free(victim);
        assert!(!array.is_held(victim));
        assert!(array.force_occupy(victim));
        assert!(array.is_held(victim));
        assert!(!array.force_occupy(victim));
        array.free(victim);
        assert!(!array.is_held(victim));
        for name in names.iter().skip(1) {
            array.free(*name);
        }
    }

    #[test]
    fn free_hint_rewins_the_freed_epoch_tagged_slot() {
        let off = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        assert!(!off.free_hint_enabled(), "the hint defaults off");

        let array = LevelArrayConfig::new(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .free_hint(true)
            .build_elastic()
            .unwrap();
        assert!(array.free_hint_enabled());
        let mut rng = default_rng(21);
        // Grow to two epochs, then free an OLD-epoch name: the hint must
        // re-win exactly that slot in one probe even though routing normally
        // targets the newest epoch.
        let names: Vec<Name> = (0..15).map(|_| array.get(&mut rng).name()).collect();
        assert_eq!(array.num_epochs(), 2);
        let old = *names.iter().find(|n| n.epoch() == 0).unwrap();
        array.free(old);
        let again = array.get(&mut rng);
        assert_eq!(again.name(), old, "the hint re-wins the freed slot");
        assert_eq!(again.probes(), 1);
        assert_eq!(
            array.epoch_held(0),
            Some(names.iter().filter(|n| n.epoch() == 0).count()),
            "the hint win must keep the held counter in step"
        );
        // A stolen hint falls through to the probe path without duplicating.
        array.free(old);
        assert!(array.force_occupy(old));
        let other = array.get(&mut rng);
        assert_ne!(other.name(), old);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        let mut rng = default_rng(7);
        let got = array.get(&mut rng);
        array.free(got.name());
        array.free(got.name());
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn free_of_an_unknown_epoch_panics() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        array.free(Name::with_epoch(7, 0));
    }

    #[test]
    fn registration_guard_works_through_the_trait() {
        use crate::array::Registration;
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 2 });
        let mut rng = default_rng(8);
        {
            let reg = Registration::acquire(&array, &mut rng);
            assert!(array.collect().contains(&reg.name()));
        }
        assert!(array.collect().is_empty());
    }

    #[test]
    fn hierarchical_epochs_are_sharded_and_keep_dimensions() {
        // shard_group(4) with initial contention 8: the initial epoch is
        // backed by ⌈8/4⌉ = 2 shard cores of bound 4 each.
        let array = LevelArrayConfig::new(8)
            .shard_group(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .build_elastic()
            .unwrap();
        assert_eq!(array.shard_group(), 4);
        assert_eq!(array.newest_epoch_shards(), 2);
        assert_eq!(array.newest_shard_capacity(), 4 * 2 + 4);
        assert_eq!(array.epoch_shards(0), Some(2));
        assert_eq!(array.epoch_shards(9), None);
        assert_eq!(array.capacity(), 2 * 12);
        // Saturate: the doubled successor (bound 16) gets 4 shards — growth
        // by adding shard groups, per-shard sizing unchanged.
        let mut rng = default_rng(31);
        let names: Vec<Name> = (0..30).map(|_| array.get(&mut rng).name()).collect();
        assert!(array.num_epochs() >= 2);
        assert_eq!(array.newest_epoch_shards(), 4);
        assert_eq!(array.newest_shard_capacity(), 12);
        let unique: HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "dense names must stay unique");
        // Epoch-tagged names carry through the shard split: frees route to
        // the owning shard of the owning epoch, and retirement converges.
        for name in names {
            array.free(name);
        }
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        assert!(array.collect().is_empty());
        assert_eq!(array.pending_reclamation(), 0);
    }

    /// Across a grow, `collect()` lists exactly the names `is_held` reports
    /// over every live epoch, in chain order and by dense index within an
    /// epoch, for flat cells and for multi-shard hierarchical cells in both
    /// slot layouts; `collect_into` appends after what the vector holds.
    #[test]
    fn collect_matches_is_held_over_every_live_epoch() {
        use crate::slot::SlotLayout;
        for layout in [SlotLayout::WordPerSlot, SlotLayout::Packed] {
            for group in [0, 4] {
                let case = format!("{layout:?}, shard group {group}");
                let array = LevelArrayConfig::new(8)
                    .shard_group(group)
                    .slot_layout(layout)
                    .growth(GrowthPolicy::Doubling { max_epochs: 4 })
                    .build_elastic()
                    .unwrap();
                let mut rng = default_rng(41);
                let names: Vec<Name> = (0..60).map(|_| array.get(&mut rng).name()).collect();
                assert!(array.num_epochs() >= 2, "{case}: the array must grow");
                if group > 0 {
                    assert!(array.newest_epoch_shards() > 1, "{case}");
                }
                // Holes in every epoch: free every third name.
                for name in names.iter().step_by(3) {
                    array.free(*name);
                }
                let cells: Vec<(usize, usize)> = {
                    let pin = array.chain.pin();
                    pin.iter()
                        .map(|node| (node.value().epoch, node.value().backend.capacity()))
                        .collect()
                };
                let oracle: Vec<Name> = cells
                    .iter()
                    .flat_map(|&(epoch, capacity)| {
                        (0..capacity).map(move |index| Name::with_epoch(epoch, index))
                    })
                    .filter(|&name| array.is_held(name))
                    .collect();
                assert!(oracle.iter().any(|name| name.epoch() > 0), "{case}");
                assert_eq!(array.collect(), oracle, "{case}");
                let mut out = vec![Name::new(1)];
                array.collect_into(&mut out);
                assert_eq!(out[0], Name::new(1), "{case}");
                assert_eq!(out[1..], oracle[..], "{case}");
                let mut kept: Vec<Name> = names
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 != 0)
                    .map(|(_, &name)| name)
                    .collect();
                kept.sort_unstable();
                let mut held = oracle;
                held.sort_unstable();
                assert_eq!(held, kept, "{case}");
                array.free_many(&kept);
                assert!(array.collect().is_empty(), "{case}");
            }
        }
    }

    #[test]
    fn hierarchical_census_aggregates_shards_per_epoch() {
        let array = LevelArrayConfig::new(8)
            .shard_group(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .build_elastic()
            .unwrap();
        let mut rng = default_rng(32);
        let names: Vec<Name> = (0..8).map(|_| array.get(&mut rng).name()).collect();
        let snap = array.occupancy();
        // One region set per epoch, shards folded: the per-epoch region
        // count matches a flat epoch's (batches + backup).
        let per_epoch = array.newest_geometry().num_batches() + 1;
        assert_eq!(snap.regions().len(), per_epoch);
        assert_eq!(snap.total_occupied(), 8);
        assert_eq!(snap.total_capacity(), array.capacity());
        assert_eq!(snap.epoch_occupied(0), 8);
        let agg = array.batchwise_occupancy();
        assert_eq!(agg.total_occupied(), 8);
        assert_eq!(agg.total_capacity(), array.capacity());
        for name in names {
            array.free(name);
        }
    }

    #[test]
    fn explicit_shrink_opens_a_smaller_epoch_and_retires_the_large_one() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 4 });
        let mut rng = default_rng(33);
        // Grow to a doubled epoch, then drain everything.
        let names: Vec<Name> = (0..20).map(|_| array.get(&mut rng).name()).collect();
        assert!(array.num_epochs() >= 2);
        for name in names {
            array.free(name);
        }
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        let big = array.newest_epoch();
        assert!(array.epoch_contention(big).unwrap() > 4, "survivor is big");
        // Shrink: a smaller epoch opens (half the bound, ≥ initial) and the
        // drained big epoch retires through the normal protocol.
        assert!(array.try_shrink());
        let small = array.newest_epoch();
        assert_eq!(small, big + 1, "tags stay monotonic through a shrink");
        assert_eq!(
            array.epoch_contention(small),
            Some(array.epoch_contention(big).unwrap_or(8) / 2)
        );
        assert!(array.try_retire() >= 1, "the drained big epoch retires");
        assert_eq!(array.num_epochs(), 1);
        assert_eq!(array.newest_epoch(), small);
        // At the initial bound the shrink refuses to go lower.
        let mut floor = array.epoch_contention(array.newest_epoch()).unwrap();
        while floor > 4 {
            assert!(array.try_shrink());
            array.try_retire();
            floor = array.epoch_contention(array.newest_epoch()).unwrap();
        }
        assert_eq!(floor, 4);
        assert!(!array.try_shrink(), "never shrinks below the initial bound");
    }

    /// The allocation behind live epoch `epoch`.
    fn cell_ptr(array: &ElasticLevelArray, epoch: usize) -> *const EpochCell {
        let pin = array.chain.pin();
        ElasticLevelArray::find_cell(&pin, epoch).expect("a live epoch")
    }

    /// The allocation kept as the spare, if any.
    fn spare_ptr(array: &ElasticLevelArray) -> Option<*const EpochCell> {
        array.spare.lock().unwrap().as_ref().map(Arc::as_ptr)
    }

    /// An array of initial bound 4 whose epoch 0 saturated into epoch 1
    /// (bound 8) and then drained, with retirement left to the test.
    fn grown_and_drained(seed: u64) -> ElasticLevelArray {
        let array = LevelArrayConfig::new(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 5 })
            .auto_retire(false)
            .build_elastic()
            .unwrap();
        let mut rng = default_rng(seed);
        let names: Vec<Name> = (0..15).map(|_| array.get(&mut rng).name()).collect();
        assert_eq!(array.epoch_ids(), vec![0, 1]);
        for name in names {
            array.free(name);
        }
        array
    }

    #[test]
    fn a_retired_cell_serves_the_next_publication_of_its_bound() {
        let array = grown_and_drained(41);
        let (cell0, cell1) = (cell_ptr(&array, 0), cell_ptr(&array, 1));
        assert_eq!(array.try_retire(), 1);
        assert_eq!(array.pending_reclamation(), 0);
        assert_eq!(spare_ptr(&array), Some(cell0));
        // The shrink to bound 4 publishes epoch 0's allocation as epoch 2.
        assert!(array.try_shrink());
        assert_eq!(array.epoch_ids(), vec![1, 2]);
        assert_eq!(cell_ptr(&array, 2), cell0);
        assert_eq!(array.epoch_contention(2), Some(4));
        assert_eq!(array.epoch_held(2), Some(0));
        assert_eq!(spare_ptr(&array), None);
        // Retiring epoch 1 makes its cell the spare; the next grow to
        // bound 8 takes it as epoch 3.
        assert_eq!(array.try_retire(), 1);
        assert_eq!(spare_ptr(&array), Some(cell1));
        let mut rng = default_rng(42);
        let names: Vec<Name> = (0..15).map(|_| array.get(&mut rng).name()).collect();
        assert_eq!(array.epoch_ids(), vec![2, 3]);
        assert_eq!(cell_ptr(&array, 3), cell1);
        // The reused cells hand out, collect and count names under their
        // new tags, and drain and retire like fresh cells.
        let in_2: Vec<Name> = names.iter().copied().filter(|n| n.epoch() == 2).collect();
        assert!(!in_2.is_empty() && names.iter().all(|n| [2, 3].contains(&n.epoch())));
        let mut collected = array.collect();
        collected.sort_unstable();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(collected, sorted);
        assert_eq!(array.epoch_held(2), Some(in_2.len()));
        array.free_many(&in_2);
        assert_eq!(array.try_retire(), 1);
        assert_eq!(array.epoch_ids(), vec![3]);
        assert_eq!(spare_ptr(&array), Some(cell0));
        let in_3: Vec<Name> = names.iter().copied().filter(|n| n.epoch() == 3).collect();
        array.free_many(&in_3);
        assert!(array.collect().is_empty());
        assert_eq!((array.epochs_opened(), array.epochs_retired()), (4, 3));
        assert_eq!(array.pending_reclamation(), 0);
    }

    #[test]
    fn a_pinned_snapshot_or_another_bound_keeps_the_spare() {
        let array = grown_and_drained(43);
        let cell0 = cell_ptr(&array, 0);
        // A reader pinned on the two-epoch snapshot.  Epoch 0 is sealed and
        // unlinked as `try_retire` does after its grace observation and
        // census; the reader's pin keeps the displaced snapshot uncollected.
        let reader = array.chain.pin();
        let snapshot = reader.head();
        {
            let pin = array.chain.pin();
            let node = pin.iter().find(|n| n.value().epoch == 0).unwrap();
            assert!(node.value().try_seal());
            assert_eq!(array.unlink(&[node.value()]), 1);
        }
        assert_eq!(array.epoch_ids(), vec![1]);
        assert_eq!(array.pending_reclamation(), 1);
        assert_eq!(spare_ptr(&array), Some(cell0));
        // The shrink wants the spare's bound but builds a fresh cell.
        assert!(array.try_shrink());
        assert_ne!(cell_ptr(&array, 2), cell0);
        assert_eq!(spare_ptr(&array), Some(cell0));
        let oldest = snapshot.iter().last().unwrap().value();
        assert_eq!((Arc::as_ptr(oldest), oldest.epoch), (cell0, 0));
        drop(reader);
        assert_eq!(array.chain.try_collect_garbage(), 1);
        // A grow to bound 8 builds fresh too: the bound differs.
        {
            let pin = array.chain.pin();
            assert!(array.open_epoch(&pin, pin.head()));
        }
        assert_eq!(array.epoch_contention(3), Some(8));
        assert_ne!(cell_ptr(&array, 3), cell0);
        assert_eq!(spare_ptr(&array), Some(cell0));
        // The next publication of bound 4 takes it.
        assert!(array.try_shrink());
        assert_eq!(cell_ptr(&array, 4), cell0);
        assert_eq!(spare_ptr(&array), None);
    }

    #[test]
    fn a_lost_publish_race_hands_the_spare_back() {
        let array = grown_and_drained(47);
        let cell0 = cell_ptr(&array, 0);
        assert_eq!(array.try_retire(), 1);
        let pin = array.chain.pin();
        let stale = pin.head();
        // A racer grows past epoch 1 (to bound 16, leaving the spare).
        assert!(array.open_epoch(&pin, stale));
        assert_eq!(spare_ptr(&array), Some(cell0));
        // A stale bound-4 publication takes the spare, loses the CAS and
        // hands the cell back.
        assert_eq!(array.publish_epoch(&pin, stale, 4), Some(false));
        assert_eq!(array.epoch_ids(), vec![1, 2]);
        assert_eq!(spare_ptr(&array), Some(cell0));
        assert_eq!(array.publish_epoch(&pin, pin.head(), 4), Some(true));
        assert_eq!(array.epoch_ids(), vec![1, 2, 3]);
        assert_eq!(cell_ptr(&array, 3), cell0);
        assert_eq!(array.epoch_held(3), Some(0));
    }

    #[test]
    fn shrink_is_refused_under_fixed_growth() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        assert!(!array.try_shrink());
        assert_eq!(array.num_epochs(), 1);
    }

    #[test]
    fn watermark_streak_triggers_automatic_shrink() {
        let array = LevelArrayConfig::new(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .shrink_watermark(0.25)
            .build_elastic()
            .unwrap();
        assert_eq!(array.shrink_watermark(), Some(0.25));
        let mut rng = default_rng(34);
        // Grow to a doubled epoch (bound 8) and converge onto it.
        let names: Vec<Name> = (0..20).map(|_| array.get(&mut rng).name()).collect();
        for name in names {
            array.free(name);
        }
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        let big = array.newest_epoch();
        let big_bound = array.epoch_contention(big).unwrap();
        assert!(big_bound > 4);
        // Churn one name at a time: occupancy stays ≤ 1/8 ≤ watermark, so
        // every free is a low sample.  After the patience window
        // (max(bound, 16) samples) the array must have opened a smaller
        // epoch on its own and retired the big one.
        for _ in 0..(big_bound.max(16) + 2) {
            let got = array.get(&mut rng);
            array.free(got.name());
        }
        let newest = array.newest_epoch();
        assert!(newest > big, "the watermark must have opened a new epoch");
        assert_eq!(
            array.epoch_contention(newest),
            Some(big_bound / 2),
            "the new epoch is the smaller one"
        );
        array.try_retire();
        assert_eq!(array.num_epochs(), 1, "the big epoch fully retires");
        assert_eq!(array.pending_reclamation(), 0);
    }

    #[test]
    fn sustained_load_resets_the_shrink_streak() {
        let array = LevelArrayConfig::new(2)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .shrink_watermark(0.25)
            .build_elastic()
            .unwrap();
        let mut rng = default_rng(35);
        // Grow to a bound-4 epoch and make it the sole survivor with two
        // persistent holders: occupancy stays at 2/4 > watermark while the
        // churn below cycles a third slot, so no shrink may fire.
        let names: Vec<Name> = (0..8).map(|_| array.get(&mut rng).name()).collect();
        let (old, kept): (Vec<Name>, Vec<Name>) = names.into_iter().partition(|n| n.epoch() == 0);
        for name in old {
            array.free(name);
        }
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        assert!(kept.len() >= 2, "holders must live in the newest epoch");
        let epochs_before = array.epochs_opened();
        for _ in 0..100 {
            let got = array.get(&mut rng);
            array.free(got.name());
        }
        assert_eq!(
            array.epochs_opened(),
            epochs_before,
            "high occupancy must keep resetting the streak"
        );
        for name in kept {
            array.free(name);
        }
    }

    /// A 25%-watermark array grown from `initial` to a single epoch of
    /// twice that bound, holding nothing, with the low streak at zero (see
    /// `grow_and_converge`).
    fn grown_watermark_array(initial: usize, seed: u64) -> ElasticLevelArray {
        let array = LevelArrayConfig::new(initial)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .shrink_watermark(0.25)
            .build_elastic()
            .unwrap();
        grow_and_converge(&array, &mut default_rng(seed));
        assert_eq!(
            array.epoch_contention(array.newest_epoch()),
            Some(2 * initial)
        );
        array
    }

    /// Saturates the newest epoch until the array grows, then frees the
    /// old epoch's names, retires it, and frees the grown epoch's names.
    /// The grow restarts the low streak, and both `free_many` calls sample
    /// the grown epoch while it holds more than a quarter of its bound, so
    /// the streak stays at zero.
    fn grow_and_converge(array: &ElasticLevelArray, rng: &mut impl RandomSource) {
        let newest = array.newest_epoch();
        let bound = array.epoch_contention(newest).unwrap();
        // Every name the old epoch can hold, plus a full bound in the new.
        let names: Vec<Name> = (0..3 * bound + 2 * bound)
            .map(|_| array.get(rng).name())
            .collect();
        let (old, grown): (Vec<Name>, Vec<Name>) =
            names.into_iter().partition(|n| n.epoch() == newest);
        assert!(grown.len() > bound, "the grown epoch holds too few names");
        ActivityArray::free_many(array, &old);
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        ActivityArray::free_many(array, &grown);
    }

    /// `n` singleton Get+Free pairs, each freeing the one name it holds.
    fn low_pairs(array: &ElasticLevelArray, rng: &mut impl RandomSource, n: usize) {
        for _ in 0..n {
            let got = array.get(rng);
            array.free(got.name());
        }
    }

    #[test]
    fn a_burst_freed_in_one_batch_restarts_the_shrink_streak() {
        // Bound 64: a patience window of 64 frees, four sample strides.
        let array = grown_watermark_array(32, 37);
        let window = 64;
        let stride = SHRINK_SAMPLE_STRIDE;
        let mut rng = default_rng(38);
        let opened = array.epochs_opened();
        low_pairs(&array, &mut rng, window - stride);
        assert_eq!(
            array.epochs_opened(),
            opened,
            "the streak is one stride short"
        );
        // A burst above the watermark (32 > 64 / 4), released by one
        // free_many: its sample counts the burst and restarts the streak.
        let mut burst = Vec::new();
        assert_eq!(array.get_many(&mut rng, 32, &mut burst), 32);
        let burst: Vec<Name> = burst.iter().map(|a| a.name()).collect();
        ActivityArray::free_many(&array, &burst);
        assert_eq!(array.low_streak.0.load(Ordering::Relaxed), 0);
        low_pairs(&array, &mut rng, window - stride);
        assert_eq!(
            array.epochs_opened(),
            opened,
            "the burst's free_many must restart the low streak"
        );
        // The window counts from the burst: one more stride fills it.
        low_pairs(&array, &mut rng, stride);
        assert_eq!(array.epochs_opened(), opened + 1, "the full window shrinks");
        assert_eq!(array.epoch_contention(array.newest_epoch()), Some(32));
    }

    #[test]
    fn a_shrink_undone_by_a_grow_waits_the_capped_shrink_window() {
        // Bound 16: a patience window of 16 frees, 16 << 10 at the cap.
        let array = grown_watermark_array(8, 39);
        let window = 16;
        let mut rng = default_rng(40);
        // The first shrink waits the plain window.
        let opened = array.epochs_opened();
        low_pairs(&array, &mut rng, window);
        assert_eq!(
            array.epochs_opened(),
            opened + 1,
            "the plain window shrinks"
        );
        array.try_retire();
        // The next burst undoes the shrink.
        grow_and_converge(&array, &mut rng);
        assert_eq!(
            array
                .shrink_backoff
                .load(std::sync::atomic::Ordering::Relaxed),
            MAX_SHRINK_BACKOFF_EXP
        );
        let opened = array.epochs_opened();
        low_pairs(&array, &mut rng, 3 * window);
        assert_eq!(
            array.epochs_opened(),
            opened,
            "a shrink the next burst undid must not be retried so soon"
        );
        // Sustained low load still shrinks within the capped window.
        let capped = (1 << MAX_SHRINK_BACKOFF_EXP) * window;
        let mut frees = 3 * window;
        while array.epochs_opened() == opened {
            assert!(frees < capped, "{frees} low frees never shrank the chain");
            low_pairs(&array, &mut rng, 1);
            frees += 1;
        }
        assert!(
            frees > capped - SHRINK_SAMPLE_STRIDE,
            "shrank after {frees} frees"
        );
        assert_eq!(array.epoch_contention(array.newest_epoch()), Some(8));
    }

    #[test]
    fn get_many_spans_epochs_and_free_many_retires_them() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 5 });
        let mut rng = default_rng(40);
        let mut out = Vec::new();
        // One batch larger than the initial epoch: the batch must grow the
        // chain mid-flight and fill completely.
        assert_eq!(array.get_many(&mut rng, 30, &mut out), 30);
        assert_eq!(out.len(), 30);
        assert!(array.num_epochs() >= 2, "the batch must have grown");
        let unique: HashSet<Name> = out.iter().map(|a| a.name()).collect();
        assert_eq!(unique.len(), 30, "batched names must stay unique");
        assert!(
            out.iter().any(|a| a.name().epoch() > 0),
            "part of the batch must land in a grown epoch"
        );
        // Held counters stayed exact across the batch tagging.
        for &epoch in &array.epoch_ids() {
            assert_eq!(
                array.epoch_held(epoch),
                Some(out.iter().filter(|a| a.name().epoch() == epoch).count())
            );
        }
        // One bulk free drains every epoch run and the single deferred
        // retirement check converges the chain.
        let names: Vec<Name> = out.iter().map(|a| a.name()).collect();
        ActivityArray::free_many(&array, &names);
        assert!(array.collect().is_empty());
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        assert_eq!(array.pending_reclamation(), 0);
    }

    #[test]
    fn get_many_tags_and_counts_like_singletons() {
        // Fixed policy: the batch saturates instead of growing, reporting a
        // partial fill exactly like k failing singleton gets would.
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        let mut rng = default_rng(41);
        let mut out = Vec::new();
        let capacity = array.capacity();
        let won = array.get_many(&mut rng, capacity + 5, &mut out);
        assert_eq!(won, capacity, "a fixed chain fills to capacity and stops");
        assert!(out.iter().all(|a| a.name().epoch() == 0));
        assert_eq!(array.epoch_held(0), Some(capacity));
        assert!(array.try_get(&mut rng).is_none());
        let names: Vec<Name> = out.iter().map(|a| a.name()).collect();
        ActivityArray::free_many(&array, &names);
        assert!(array.collect().is_empty());
        assert_eq!(array.epoch_held(0), Some(0));
    }

    #[test]
    fn free_many_rearms_the_hint_with_the_last_name() {
        let array = LevelArrayConfig::new(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .free_hint(true)
            .build_elastic()
            .unwrap();
        let mut rng = default_rng(42);
        let mut out = Vec::new();
        assert_eq!(array.get_many(&mut rng, 6, &mut out), 6);
        let names: Vec<Name> = out.iter().map(|a| a.name()).collect();
        ActivityArray::free_many(&array, &names);
        // The hint holds the batch's last name: the next get re-wins it in
        // zero probes.
        let again = array.get(&mut rng);
        assert_eq!(again.name(), *names.last().unwrap());
        array.free(again.name());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn free_many_panics_on_a_duplicate_in_the_batch() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        let mut rng = default_rng(43);
        let got = array.get(&mut rng);
        ActivityArray::free_many(&array, &[got.name(), got.name()]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn free_many_panics_on_an_unknown_epoch() {
        let array = ElasticLevelArray::new(4, GrowthPolicy::Fixed);
        ActivityArray::free_many(&array, &[Name::with_epoch(9, 0)]);
    }

    #[test]
    fn hierarchical_free_many_with_an_out_of_range_name_releases_nothing() {
        // Every name of the batch is checked before any is released, so the
        // slots and the held count the retirement and shrink checks read
        // still agree after the panic.
        let array = LevelArrayConfig::new(8)
            .shard_group(4)
            .build_elastic()
            .unwrap();
        let held = array.get(&mut default_rng(44)).name();
        let batch = [held, Name::new(array.capacity() + 5)];
        let result = std::panic::catch_unwind(|| ActivityArray::free_many(&array, &batch));
        assert!(result.is_err(), "the out-of-range name must panic");
        assert!(
            array.is_held(held),
            "the batch released {held} before it panicked"
        );
        assert_eq!(array.collect(), vec![held]);
        assert_eq!(array.epoch_held(0), Some(1));
    }

    #[test]
    fn free_many_with_a_bad_name_in_a_later_run_releases_nothing() {
        // Every epoch run is resolved and range-checked before any run is
        // released: a batch whose first run is good and whose last names a
        // dead epoch, or an index past a live epoch's capacity, must leave
        // every name held and the held counters unchanged.
        for shard_group in [0, 2] {
            let array = LevelArrayConfig::new(4)
                .shard_group(shard_group)
                .growth(GrowthPolicy::Doubling { max_epochs: 4 })
                .build_elastic()
                .unwrap();
            let mut rng = default_rng(45);
            let mut names = Vec::new();
            while !names.iter().any(|n: &Name| n.epoch() == 1) {
                names.push(array.get(&mut rng).name());
            }
            let grown_capacity = array.newest_shard_capacity() * array.newest_epoch_shards();
            let held_before = [array.epoch_held(0), array.epoch_held(1)];
            for bad in [Name::with_epoch(9, 0), Name::with_epoch(1, grown_capacity)] {
                let mut batch = names.clone();
                batch.push(bad);
                let result = std::panic::catch_unwind(|| ActivityArray::free_many(&array, &batch));
                assert!(result.is_err(), "g={shard_group}: {bad} must panic");
                for &name in &names {
                    assert!(array.is_held(name), "g={shard_group}: {name} released");
                }
                assert_eq!(
                    [array.epoch_held(0), array.epoch_held(1)],
                    held_before,
                    "g={shard_group}: the held counters moved"
                );
            }
            ActivityArray::free_many(&array, &names);
            assert!(array.collect().is_empty());
        }
    }

    #[test]
    fn batched_churn_across_threads_preserves_uniqueness() {
        use std::sync::Mutex;

        let threads = 4;
        let rounds = 12;
        let k = 9;
        let array = Arc::new(ElasticLevelArray::new(
            4,
            GrowthPolicy::Doubling { max_epochs: 8 },
        ));
        let held = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let array = Arc::clone(&array);
                let held = &held;
                scope.spawn(move || {
                    let mut rng = default_rng(0xBA7C + t as u64);
                    for _ in 0..rounds {
                        let mut out = Vec::new();
                        array.get_many(&mut rng, k, &mut out);
                        {
                            let mut all = held.lock().unwrap();
                            for got in &out {
                                assert!(
                                    all.insert(got.name()),
                                    "{} double-claimed in a batch",
                                    got.name()
                                );
                            }
                        }
                        let names: Vec<Name> = out.iter().map(|a| a.name()).collect();
                        {
                            let mut all = held.lock().unwrap();
                            for name in &names {
                                all.remove(name);
                            }
                        }
                        ActivityArray::free_many(array.as_ref(), &names);
                    }
                });
            }
        });
        array.try_retire();
        assert!(array.collect().is_empty());
    }

    #[test]
    fn concurrent_growth_preserves_uniqueness() {
        use std::sync::Mutex;

        let threads = 8;
        let per_thread = 48;
        let array = Arc::new(ElasticLevelArray::new(
            4,
            GrowthPolicy::Doubling { max_epochs: 10 },
        ));
        let all = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let array = Arc::clone(&array);
                let all = &all;
                scope.spawn(move || {
                    let mut rng = default_rng(0xE1A5 + t as u64);
                    let mine: Vec<Name> = (0..per_thread)
                        .map(|_| {
                            array
                                .try_get(&mut rng)
                                .expect("growth must prevent failures")
                                .name()
                        })
                        .collect();
                    all.lock().unwrap().extend(mine);
                });
            }
        });
        let names = all.into_inner().unwrap();
        assert_eq!(names.len(), threads * per_thread);
        let unique: HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate across growth events");
        assert!(array.num_epochs() >= 2, "the chain must have grown");
        for name in names {
            array.free(name);
        }
        array.try_retire();
        assert_eq!(array.num_epochs(), 1);
        assert!(array.collect().is_empty());
        assert_eq!(array.pending_reclamation(), 0);
    }
}
