//! The reclamation domain: registration, retirement, and collect-based grace
//! periods.
//!
//! # Protocol
//!
//! * A thread **pins** the domain before touching a protected structure:
//!   [`ReclaimDomain::pin`] performs a `Get` on the activity array and returns
//!   an RAII [`OperationGuard`]; dropping the guard performs the `Free`.
//! * When a thread unlinks a node it calls [`ReclaimDomain::retire`] — the
//!   node goes onto the thread's *retire stripe*, one of a fixed set of
//!   lists each behind a lock of its own, picked by the thread's sticky
//!   token; it cannot be freed yet because other pinned operations may
//!   still hold references.
//! * [`ReclaimDomain::try_reclaim`] runs pass number `p`.  Under the limbo
//!   lock it swaps every stripe that holds nodes out and closes each as a
//!   bag stamped `p`, and only *then* takes a `Collect` snapshot of the
//!   names registered at that moment, so every node in a bag was retired
//!   before the bag's snapshot.  A closed bag may be freed once **every
//!   name in its snapshot has been observed absent** in some later
//!   `Collect`.  A name's absence proves the operation that held it at
//!   close time has completed (it held the name continuously until its
//!   `Free`), so no operation that could have seen the retired nodes is
//!   still running.  Re-acquisition of the same name by a *new* operation
//!   merely delays reclamation; it never makes it unsafe.
//!
//! The pass does not keep each bag's snapshot.  It keeps the names of the
//! last `Collect`, sorted, each with the number of the pass since which
//! every `Collect` has contained it.  A bag closed at pass `p` is ripe
//! exactly when every name in the current `Collect` has `since > p`: a name
//! present without a break since `p` or earlier was in the bag's snapshot
//! and has never been seen absent, and every other name was either missing
//! from that snapshot or has been seen absent since.  The test only gets
//! easier for a smaller `p`, so if a bag is ripe, every bag closed before
//! it is ripe too, and bags ripen in the order they closed.  A pass therefore
//! costs one `Collect`, one sort of it, one merge against the previous list,
//! and a pop of the ripe bags off the front of the queue — never a rescan of
//! the bags still waiting.  It frees the ripe bags after it drops the limbo
//! lock.  A pass number advances only when its `Collect` completes, so a
//! pass that unwinds before its `Collect` leaves its bags for the next
//! pass's snapshot, which is taken later still.
//!
//! The bags of one pass all carry the same stamp, so the queue of closed
//! bags stays ordered by stamp however many stripes a pass swaps out.  A
//! pass skips a stripe whose "has nodes" flag reads clear without locking
//! it.  `retire` sets the flag under the stripe lock after its push, and
//! only the pass that takes the list clears it, under the same lock, so a
//! stripe that holds nodes never keeps a clear flag; a pass that reads the
//! flag stale only leaves those nodes to a later pass, whose snapshot is
//! later still.
//!
//! This is the "dynamic collect" reclamation scheme of the paper's reference
//! \[17\], expressed over the activity-array API.
//!
//! The protocol compares names only for identity (membership in a snapshot)
//! and sorts them by their encoded value, which orders them epoch-major;
//! it never reads them as dense indices, so it works unchanged over
//! *elastic* registries: a name from a grown epoch is simply a different
//! [`Name`] value, and the absence proof is exactly the quiescence argument
//! [`levelarray::ElasticLevelArray`] itself uses to retire drained epochs.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use la_fault::fail_point;
use la_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use larng::RandomSource;
use levelarray::epoch_chain::thread_token;
use levelarray::{ActivityArray, Name};

/// Retire stripes per domain.  A thread retires onto the stripe its sticky
/// thread token picks modulo this count, so threads whose tokens differ
/// modulo it never share a retire lock.
const RETIRE_STRIPES: usize = 8;

/// A unit of deferred destruction: a type-erased owned allocation.
struct Retired {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: a `Retired` is an owned allocation that is only ever dropped by the
// reclaimer while no other thread can reach it (that is the whole point of the
// grace-period protocol); moving the pointer between threads is sound.
unsafe impl Send for Retired {}

impl std::fmt::Debug for Retired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Retired({:p})", self.ptr)
    }
}

impl Retired {
    fn new<T: Send + 'static>(boxed: Box<T>) -> Self {
        unsafe fn drop_box<T>(ptr: *mut ()) {
            // SAFETY: constructed from Box::into_raw::<T> below and dropped
            // exactly once by the reclaimer.
            drop(unsafe { Box::from_raw(ptr as *mut T) });
        }
        Retired {
            ptr: Box::into_raw(boxed) as *mut (),
            drop_fn: drop_box::<T>,
        }
    }

    fn reclaim(self) {
        // SAFETY: see `Retired::new`; `self` is consumed so this runs once.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// A bag of retired nodes closed against a `Collect` snapshot.
#[derive(Debug)]
struct ClosedBag {
    nodes: Vec<Retired>,
    /// The number of the pass whose `Collect` is this bag's snapshot.
    closed_at: u64,
}

#[derive(Debug, Default)]
struct LimboState {
    /// The number of the last pass whose `Collect` completed (0 before the
    /// first).
    pass: u64,
    /// The names of that `Collect`, sorted, each with the pass since which
    /// every `Collect` has contained it.
    present: Vec<(Name, u64)>,
    /// The merge's output buffer, swapped with `present` after each merge.
    merged: Vec<(Name, u64)>,
    /// Closed bags in the order they closed, so `closed_at` never decreases
    /// from front to back.
    closed: VecDeque<ClosedBag>,
    /// Reusable `Collect` buffer: the steady-state reclamation pass scans the
    /// registry through [`ActivityArray::collect_into`], so it stops paying a
    /// fresh `Vec` allocation per grace-period scan.
    scan: Vec<Name>,
}

/// What one retire stripe's lock guards.
#[derive(Debug, Default)]
struct StripeList {
    /// Nodes retired onto the stripe since a pass last took them.
    nodes: Vec<Retired>,
    /// Nodes retired onto the stripe over the domain's lifetime.
    retired: u64,
}

/// One retire stripe, on its own pair of cache lines, like the epoch
/// chain's pin stripes, so retires on different stripes never move a line
/// between them.
#[derive(Debug, Default)]
#[repr(align(128))]
struct RetireStripe {
    list: Mutex<StripeList>,
    /// Whether `list.nodes` holds anything.  Written only under the lock
    /// (see the module documentation), read without it by a pass, which
    /// skips the stripe when it reads clear.  `Relaxed` throughout: the
    /// flag publishes nothing, since a pass that reads it set still takes
    /// the lock, and the lock orders the list.
    has_nodes: AtomicBool,
}

impl RetireStripe {
    fn push(&self, node: Retired) {
        let mut list = lock(&self.list);
        list.nodes.push(node);
        list.retired += 1;
        self.has_nodes.store(true, Ordering::Relaxed);
    }

    /// Swaps the stripe's nodes out, or returns `None` when it holds none.
    /// An idle stripe costs one load, not a lock.
    fn take(&self) -> Option<Vec<Retired>> {
        if !self.has_nodes.load(Ordering::Relaxed) {
            return None;
        }
        let mut list = lock(&self.list);
        self.has_nodes.store(false, Ordering::Relaxed);
        let nodes = std::mem::take(&mut list.nodes);
        (!nodes.is_empty()).then_some(nodes)
    }
}

impl LimboState {
    /// Folds the fresh `Collect` in `scan` into `present` as pass `pass`,
    /// and returns the smallest `since` of the names present, or `u64::MAX`
    /// when none is.  Bags closed before that pass are ripe.
    fn merge_scan(&mut self, pass: u64) -> u64 {
        self.scan.sort_unstable();
        self.merged.clear();
        let mut oldest = u64::MAX;
        let mut previous = self.present.iter().peekable();
        for &name in &self.scan {
            while previous.next_if(|&&(held, _)| held < name).is_some() {}
            let since = previous
                .next_if(|&&(held, _)| held == name)
                .map_or(pass, |&(_, since)| since);
            oldest = oldest.min(since);
            self.merged.push((name, since));
        }
        std::mem::swap(&mut self.present, &mut self.merged);
        oldest
    }
}

/// Counters describing the state of a domain (for tests, benchmarks, and
/// operational visibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainStats {
    /// Nodes retired over the domain's lifetime.
    pub retired: u64,
    /// Nodes actually freed so far.
    pub freed: u64,
    /// Nodes currently awaiting a grace period: the retire stripes plus the
    /// closed bags.  Nodes a pass has detached to free are in neither.
    pub in_limbo: u64,
    /// Reclamation passes that completed their `Collect`.
    pub reclaim_passes: u64,
    /// Names held in the registry right now (an instantaneous `Collect`
    /// census): the domain's pins, plus any name taken from the registry
    /// directly, since the census cannot tell the two apart.
    pub pinned_now: usize,
}

/// A reclamation domain built over an activity array.
///
/// See the [module documentation](self) for the protocol.
#[derive(Debug)]
pub struct ReclaimDomain {
    registry: Arc<dyn ActivityArray>,
    limbo: Mutex<LimboState>,
    /// Nodes retired since a pass last swapped them out, one list per
    /// stripe, each behind a lock of its own, so a `retire` never waits out
    /// a pass or another stripe's retire.  Lock order: `limbo`, then one
    /// stripe at a time.
    stripes: [RetireStripe; RETIRE_STRIPES],
    freed: AtomicU64,
}

impl ReclaimDomain {
    /// Creates a domain whose registration is served by `registry`.
    pub fn new(registry: Arc<dyn ActivityArray>) -> Self {
        ReclaimDomain {
            registry,
            limbo: Mutex::new(LimboState::default()),
            stripes: Default::default(),
            freed: AtomicU64::new(0),
        }
    }

    /// The activity array used for registration.
    pub fn registry(&self) -> &dyn ActivityArray {
        self.registry.as_ref()
    }

    /// Registers the calling operation and returns a guard that deregisters on
    /// drop.  The guard must be held across every access to memory protected
    /// by this domain.
    ///
    /// # Panics
    ///
    /// Panics if the activity array is exhausted, i.e. more operations are
    /// simultaneously pinned than the contention bound it was built for.
    pub fn pin(&self, rng: &mut dyn RandomSource) -> OperationGuard<'_> {
        let acquired = self.registry.get(rng);
        OperationGuard {
            domain: self,
            name: acquired.name(),
            probes: acquired.probes(),
        }
    }

    /// Registers `k` operations in ONE batched `Get`
    /// ([`ActivityArray::get_many`]) and returns a guard that deregisters
    /// them all through the bulk `Free` ([`ActivityArray::free_many`]) on
    /// drop.  The batched seam matters here: a reclamation-heavy workload
    /// pins in bursts (one pin per hazard-era operation), and the bulk
    /// kernels collapse those bursts into a handful of word-level RMWs.
    ///
    /// # Panics
    ///
    /// Panics if the activity array saturates before all `k` registrations
    /// are served — same contract as [`ReclaimDomain::pin`].
    pub fn pin_many(&self, rng: &mut dyn RandomSource, k: usize) -> BatchGuard<'_> {
        let mut out = Vec::with_capacity(k);
        let won = self.registry.get_many(rng, k, &mut out);
        let names: Vec<Name> = out.into_iter().map(|got| got.name()).collect();
        if won != k {
            // The partial wins are registered: release them before the
            // panic, or they stay held forever and block every later grace
            // period.
            self.registry.free_many(&names);
            panic!("the registry saturated: only {won} of {k} operations could pin");
        }
        BatchGuard {
            domain: self,
            names,
        }
    }

    /// Hands an unlinked allocation to the domain for deferred destruction.
    ///
    /// The caller must guarantee the node is unreachable for *new* operations
    /// (it has been unlinked from the shared structure); operations that were
    /// already pinned may still read it, which is exactly what the grace
    /// period protects.
    ///
    /// The node goes onto the calling thread's retire stripe, whose lock and
    /// counter only threads with the same stripe share.
    pub fn retire<T: Send + 'static>(&self, boxed: Box<T>) {
        // Type-erase *before* the fault site: `Retired` has no Drop impl, so
        // a panic past this point leaks the allocation (safe — readers may
        // still hold references) instead of unwinding through `Box`'s drop
        // and freeing it under their feet.
        let node = Retired::new(boxed);
        fail_point!("reclaim::retire");
        self.stripes[thread_token() % RETIRE_STRIPES].push(node);
    }

    /// Runs one reclamation pass and returns the number of nodes freed.
    ///
    /// Pass `p` (1) swaps out every retire stripe that holds nodes and
    /// closes each as its own bag stamped `p`, skipping idle stripes without
    /// locking them; (2) takes a fresh `Collect`, sorts it, and merges it
    /// into the list of names present since some pass, where a name new at
    /// this pass is present since `p`; (3) detaches the bags closed before
    /// the oldest `since`, which is all of them when the `Collect` is empty;
    /// and (4) frees those after it drops the limbo lock.  Steps 1–3 run
    /// under the limbo lock, and every swap of step 1 runs before step 2, so
    /// a node retired onto a stripe after its swap goes to a later pass's
    /// bag.  Every call runs a full pass: a concurrent pass is waited out,
    /// never skipped.
    ///
    /// If a node's `Drop` panics, the panic unwinds out of this call.  The
    /// other nodes of the bags this pass detached then leak, which is safe;
    /// every bag still waiting stays in limbo.
    pub fn try_reclaim(&self) -> u64 {
        // Early-return variant: a "died before the pass" fault simply skips
        // this pass — reclamation is optional progress, never correctness.
        fail_point!("reclaim::reclaim", 0);
        let ripe: Vec<ClosedBag> = {
            let mut limbo = lock(&self.limbo);
            let pass = limbo.pass + 1;
            for stripe in &self.stripes {
                if let Some(nodes) = stripe.take() {
                    limbo.closed.push_back(ClosedBag {
                        nodes,
                        closed_at: pass,
                    });
                }
            }
            // A panic here leaves the bags in `closed` and `pass` unchanged,
            // so the next pass, numbered `pass` again, takes their snapshot.
            fail_point!("reclaim::gathered");
            let limbo = &mut *limbo;
            limbo.scan.clear();
            self.registry.collect_into(&mut limbo.scan);
            let oldest = limbo.merge_scan(pass);
            limbo.pass = pass;
            let ripe = limbo
                .closed
                .iter()
                .take_while(|bag| bag.closed_at < oldest)
                .count();
            limbo.closed.drain(..ripe).collect()
        };

        let freed = ripe.iter().map(|bag| bag.nodes.len() as u64).sum();
        for node in ripe.into_iter().flat_map(|bag| bag.nodes) {
            node.reclaim();
        }
        self.freed.fetch_add(freed, Ordering::Relaxed);
        freed
    }

    /// Current counters.
    pub fn stats(&self) -> DomainStats {
        let limbo = lock(&self.limbo);
        let mut retired = 0;
        let mut in_limbo = limbo
            .closed
            .iter()
            .map(|b| b.nodes.len() as u64)
            .sum::<u64>();
        for stripe in &self.stripes {
            let list = lock(&stripe.list);
            retired += list.retired;
            in_limbo += list.nodes.len() as u64;
        }
        DomainStats {
            retired,
            freed: self.freed.load(Ordering::Relaxed),
            in_limbo,
            reclaim_passes: limbo.pass,
            pinned_now: self.registry.collect().len(),
        }
    }
}

/// Locks a domain mutex, tolerant of poisoning: the limbo state and the
/// stripe lists are plain data that every mutation leaves consistent, so a
/// panic while holding one (fault injection included) carries no
/// information — later passes proceed instead of cascading the panic
/// through every caller.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Drop for ReclaimDomain {
    fn drop(&mut self) {
        // The domain owns every allocation still in limbo; free them now.
        // (No operation can still be pinned: guards borrow the domain.)
        for stripe in &mut self.stripes {
            let list = stripe
                .list
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            for node in list.nodes.drain(..) {
                node.reclaim();
            }
        }
        let limbo = self.limbo.get_mut().unwrap_or_else(PoisonError::into_inner);
        for bag in limbo.closed.drain(..) {
            for node in bag.nodes {
                node.reclaim();
            }
        }
    }
}

/// An RAII pinned operation: holds a registration in the domain's activity
/// array and releases it on drop.
#[derive(Debug)]
pub struct OperationGuard<'a> {
    domain: &'a ReclaimDomain,
    name: Name,
    probes: u32,
}

impl OperationGuard<'_> {
    /// The name (slot) this operation occupies in the registry.
    pub fn name(&self) -> Name {
        self.name
    }

    /// How many probes the registration took (the quantity the paper measures).
    pub fn probes(&self) -> u32 {
        self.probes
    }
}

impl Drop for OperationGuard<'_> {
    fn drop(&mut self) {
        self.domain.registry.free(self.name);
    }
}

/// An RAII *batch* of pinned operations (see [`ReclaimDomain::pin_many`]):
/// holds `k` registrations in the domain's activity array and releases them
/// all through the bulk `Free` kernel on drop.
#[derive(Debug)]
pub struct BatchGuard<'a> {
    domain: &'a ReclaimDomain,
    names: Vec<Name>,
}

impl BatchGuard<'_> {
    /// The names (slots) this batch occupies in the registry.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// How many operations the batch pinned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the batch is empty (`pin_many` with `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        self.domain.registry.free_many(&self.names);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;
    use levelarray::LevelArray;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn domain(n: usize) -> ReclaimDomain {
        ReclaimDomain::new(Arc::new(LevelArray::new(n)))
    }

    /// A payload that counts how many times it is dropped.
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_registers_and_unpin_deregisters() {
        let d = domain(4);
        let mut rng = default_rng(1);
        assert_eq!(d.stats().pinned_now, 0);
        {
            let guard = d.pin(&mut rng);
            assert!(guard.probes() >= 1);
            assert_eq!(d.stats().pinned_now, 1);
            assert_eq!(d.registry().collect(), vec![guard.name()]);
        }
        assert_eq!(d.stats().pinned_now, 0);
    }

    #[test]
    fn pinned_now_counts_every_name_in_the_registry() {
        let d = domain(4);
        let mut rng = default_rng(10);
        let direct = d.registry().get(&mut rng);
        let guard = d.pin(&mut rng);
        assert_eq!(d.stats().pinned_now, 2, "the census counts the direct Get");
        drop(guard);
        d.registry().free(direct.name());
        assert_eq!(d.stats().pinned_now, 0);
    }

    #[test]
    fn a_node_retired_by_a_thread_that_exited_is_freed_by_the_next_two_passes() {
        let d = domain(4);
        let drops = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| d.retire(Box::new(DropCounter(Arc::clone(&drops)))));
        });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                d.try_reclaim();
                d.try_reclaim();
            });
        });
        assert_eq!(drops.load(Ordering::SeqCst), 1, "the stranded node leaked");
        let stats = d.stats();
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.freed, stats.retired, "{stats:?}");
        assert_eq!(stats.in_limbo, 0);
    }

    #[test]
    fn retire_without_pins_frees_on_first_pass() {
        let d = domain(4);
        let drops = Arc::new(AtomicUsize::new(0));
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.stats().in_limbo, 2);
        assert_eq!(drops.load(Ordering::SeqCst), 0);

        let freed = d.try_reclaim();
        assert_eq!(freed, 2);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        let stats = d.stats();
        assert_eq!(stats.retired, 2);
        assert_eq!(stats.freed, 2);
        assert_eq!(stats.in_limbo, 0);
        assert_eq!(stats.reclaim_passes, 1);
    }

    #[test]
    fn pinned_operation_defers_reclamation() {
        let d = domain(4);
        let mut rng = default_rng(2);
        let drops = Arc::new(AtomicUsize::new(0));

        let guard = d.pin(&mut rng);
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));

        // The pinned operation was registered when the bag is closed, so the
        // bag must not be freed while the guard is alive.
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(d.stats().in_limbo, 1);

        drop(guard);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batch_pinned_operations_defer_reclamation_until_the_batch_drops() {
        let d = domain(16);
        let mut rng = default_rng(7);
        let drops = Arc::new(AtomicUsize::new(0));

        let batch = d.pin_many(&mut rng, 10);
        assert_eq!(batch.len(), 10);
        assert!(!batch.is_empty());
        assert_eq!(d.stats().pinned_now, 10);
        let unique: HashSet<Name> = batch.names().iter().copied().collect();
        assert_eq!(unique.len(), 10, "batched pins must occupy distinct slots");

        // A bag closed under the batch waits for the WHOLE batch.
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0);

        // One drop releases every name through the bulk kernel.
        drop(batch);
        assert_eq!(d.stats().pinned_now, 0);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn saturated_pin_many_panics_without_leaking_its_partial_wins() {
        // LevelArray::new(2) holds 6 names, so a batch of 10 saturates it.
        let d = domain(2);
        let mut rng = default_rng(8);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.pin_many(&mut rng, 10)))
                .expect_err("a saturated pin_many must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("the registry saturated"), "{message}");
        assert!(d.registry().collect().is_empty(), "partial wins leaked");
        drop(d.pin(&mut rng));
        assert_eq!(d.stats().pinned_now, 0);
    }

    #[test]
    fn operations_pinned_after_closing_do_not_block_the_bag() {
        let d = domain(4);
        let mut rng = default_rng(3);
        let drops = Arc::new(AtomicUsize::new(0));

        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        // Close the bag while nothing is pinned...
        // (first pass closes AND frees, because the snapshot is empty)
        assert_eq!(d.try_reclaim(), 1);

        // ...whereas a bag closed under a pin waits only for that pin, not for
        // later ones.
        let early = d.pin(&mut rng);
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0); // closed against {early}
        let late = d.pin(&mut rng); // pinned after closing
        drop(early);
        assert_eq!(d.try_reclaim(), 1, "late pin must not block the old bag");
        drop(late);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn name_reuse_is_conservative_but_safe() {
        // If the name held at close time is re-acquired by a new operation
        // before the reclaimer looks again, the bag simply waits longer.
        let d = ReclaimDomain::new(Arc::new(LevelArray::new(1)));
        let mut rng = default_rng(4);
        let drops = Arc::new(AtomicUsize::new(0));

        let first = d.pin(&mut rng);
        let first_name = first.name();
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0); // waits on {first_name}
        drop(first);
        // A new operation may well get the same slot back (n = 1 makes it
        // likely but not certain); either way the pass stays safe.
        let second = d.pin(&mut rng);
        let freed = d.try_reclaim();
        if second.name() == first_name {
            assert_eq!(freed, 0, "conservative: cannot distinguish reuse");
        } else {
            assert_eq!(freed, 1);
        }
        drop(second);
        assert_eq!(d.try_reclaim() + freed, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// A payload whose `Drop` panics.
    struct PanicOnDrop;
    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            panic!("payload drop panicked");
        }
    }

    #[test]
    fn a_panicking_payload_loses_no_bag_still_waiting() {
        let d = domain(4);
        let mut rng = default_rng(9);
        let drops = Arc::new(AtomicUsize::new(0));

        // The panicking payload's bag waits on `early`; the counted
        // payload's bag waits on `late` as well.
        let early = d.pin(&mut rng);
        d.retire(Box::new(PanicOnDrop));
        assert_eq!(d.try_reclaim(), 0);
        let late = d.pin(&mut rng);
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0);

        // The first bag ripens and its payload panics while the second
        // bag is still waiting on `late`.
        drop(early);
        let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.try_reclaim()));
        assert!(pass.is_err(), "the payload's panic must surface");
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live pin");
        assert_eq!(d.stats().in_limbo, 1, "the waiting bag was lost");

        drop(late);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(d.stats().in_limbo, 0);
    }

    #[test]
    fn dropping_the_domain_frees_everything_left_in_limbo() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let d = domain(4);
            for _ in 0..5 {
                d.retire(Box::new(DropCounter(Arc::clone(&drops))));
            }
            // Close one bag under a pin so it stays in limbo.
            let mut rng = default_rng(5);
            let _guard = d.pin(&mut rng);
            let _ = d.try_reclaim();
            drop(_guard);
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            5,
            "Drop must free limbo nodes"
        );
    }

    #[test]
    fn elastic_registry_serves_pins_beyond_the_initial_bound() {
        use levelarray::{ElasticLevelArray, GrowthPolicy};

        // A domain whose registry starts at n = 2 but doubles on demand: the
        // contention bound is no longer a hard pin limit.
        let registry = Arc::new(ElasticLevelArray::new(
            2,
            GrowthPolicy::Doubling { max_epochs: 4 },
        ));
        let d = ReclaimDomain::new(Arc::clone(&registry) as Arc<dyn ActivityArray>);
        let mut rng = default_rng(6);
        let drops = Arc::new(AtomicUsize::new(0));

        // Pin 12 operations at once (initial capacity is only 6).
        let guards: Vec<_> = (0..12).map(|_| d.pin(&mut rng)).collect();
        assert!(registry.num_epochs() >= 2, "the registry must have grown");
        assert!(guards.iter().any(|g| g.name().epoch() > 0));
        assert_eq!(d.stats().pinned_now, 12);

        // A bag closed under these pins waits for them, epoch tags included.
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0);
        drop(guards);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // With every pin released the registry drains and retires old epochs.
        registry.try_retire();
        assert_eq!(registry.num_epochs(), 1);
    }

    #[test]
    fn concurrent_pin_retire_reclaim_is_safe() {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(2, 4);
        let d = Arc::new(domain(threads * 2));
        let drops = Arc::new(AtomicUsize::new(0));
        let per_thread = 2_000usize;

        std::thread::scope(|scope| {
            for t in 0..threads {
                let d = Arc::clone(&d);
                let drops = Arc::clone(&drops);
                scope.spawn(move || {
                    let mut rng = default_rng(100 + t as u64);
                    for i in 0..per_thread {
                        let _guard = d.pin(&mut rng);
                        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
                        if i % 64 == 0 {
                            d.try_reclaim();
                        }
                    }
                });
            }
        });
        // Quiescent now: a couple of passes flush everything.
        let _ = d.try_reclaim();
        let _ = d.try_reclaim();
        let stats = d.stats();
        assert_eq!(stats.retired, (threads * per_thread) as u64);
        assert_eq!(stats.freed, stats.retired, "{stats:?}");
        assert_eq!(stats.in_limbo, 0);
        assert_eq!(drops.load(Ordering::SeqCst), threads * per_thread);
    }
}
