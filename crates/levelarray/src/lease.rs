//! [`LeaseRegistry`]: heartbeat leases and orphaned-name recovery.
//!
//! A [`crate::ThreadRegistry`] hands out names and trusts every holder to
//! eventually call `release`.  A client that crashes (or is killed, or wedges
//! forever) between `register` and `release` leaks its name, and under the
//! bounded-concurrency contract of the paper a few such leaks are enough to
//! exhaust the array.  The lease registry closes that hole *optionally*: each
//! registration becomes a [`Lease`] that the holder must renew by
//! [`LeaseRegistry::heartbeat`] at least once per `lease_ms` interval, and a
//! maintenance thread (or any caller) periodically runs
//! [`LeaseRegistry::sweep`] to recover names whose holders went silent.
//!
//! # The two-phase sweep
//!
//! Reclaiming on the *first* missed beat would race a client that is merely
//! slow.  The sweep therefore quarantines first and reclaims later:
//!
//! 1. **Quarantine** — a lease whose last beat is older than `lease_ms` is
//!    marked quarantined (with the generation it had at that moment).  The
//!    name is still owned by the client; nothing observable changes.
//! 2. **Reclaim** — on a *later* sweep, a lease that is still quarantined,
//!    still stale, and still on the same generation is declared orphaned: the
//!    name is freed back into the array and the lease is removed.  Any
//!    heartbeat in between clears the quarantine mark (and any
//!    release/re-register bumps the generation), so phase 2 validates that
//!    the world has not moved since phase 1 before it touches the slot —
//!    the lease generation plays the role of an epoch stamp.
//!
//! A late heartbeat *after* reclamation returns `false`: the client's name is
//! gone and it must re-register.  This is the standard lease contract — the
//! protocol is safe as long as a client that cannot beat also stops using its
//! name (e.g. it crashed), and `lease_ms` is chosen comfortably above the
//! worst-case beat jitter.
//!
//! Leasing is **opt-in**: it runs only for registrations made through a
//! [`LeaseRegistry`], which takes its lease duration in
//! [`LeaseRegistry::new`], and plain [`crate::ThreadRegistry`] use is
//! completely unaffected.  See `docs/ROBUSTNESS.md` for the full policy
//! discussion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use la_fault::fail_point;

use crate::array::ActivityArray;
use crate::elastic::ElasticLevelArray;
use crate::name::Name;
use crate::registry::ThreadRegistry;
use crate::robust::RobustnessReport;

/// The clock the lease machinery reads.  Injectable so tests can drive
/// expiry deterministically instead of sleeping.
pub trait LeaseClock: Send + Sync + std::fmt::Debug {
    /// Milliseconds since an arbitrary fixed origin; must be monotonic.
    fn now_ms(&self) -> u64;
}

/// The default clock: monotonic process time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl LeaseClock for SystemClock {
    fn now_ms(&self) -> u64 {
        crate::epoch_chain::now_ms()
    }
}

/// A hand-settable clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    ms: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::SeqCst);
    }
}

impl LeaseClock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::SeqCst)
    }
}

/// Proof of a leased registration: the name plus the generation stamp that
/// makes stale handles detectable.
///
/// Deliberately `Copy`-free and non-forgeable-by-accident: a `Lease` is the
/// token the holder presents to [`LeaseRegistry::heartbeat`] and
/// [`LeaseRegistry::release`].  Dropping it without releasing is exactly the
/// crash the sweep recovers from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    name: Name,
    generation: u64,
}

impl Lease {
    /// The leased name, usable wherever a plain registration's name is.
    pub fn name(&self) -> Name {
        self.name
    }
}

#[derive(Debug)]
struct LeaseEntry {
    /// Bumped on every grant of this name; a heartbeat or release whose
    /// lease carries an older generation is rejected.
    generation: u64,
    /// Clock reading of the most recent grant or heartbeat.
    last_beat_ms: u64,
    /// `Some(t)` once phase 1 of the sweep marked the lease stale at `t`.
    quarantined_since: Option<u64>,
}

#[derive(Debug, Default)]
struct LeaseState {
    entries: HashMap<Name, LeaseEntry>,
    next_generation: u64,
}

/// What one [`LeaseRegistry::sweep`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Leases newly quarantined by this pass (phase 1).
    pub newly_quarantined: usize,
    /// Orphaned names freed back into the array by this pass (phase 2).
    pub reclaimed: usize,
}

/// A [`ThreadRegistry`] with heartbeat leases and orphan recovery on top.
///
/// # Examples
///
/// ```
/// use levelarray::lease::{LeaseRegistry, ManualClock};
/// use levelarray::{LevelArray, ThreadRegistry};
/// use std::sync::Arc;
///
/// let clock = Arc::new(ManualClock::new());
/// let registry = LeaseRegistry::with_clock(
///     ThreadRegistry::new(LevelArray::new(8), 42),
///     100,
///     Arc::clone(&clock) as Arc<dyn levelarray::lease::LeaseClock>,
/// );
///
/// let lease = registry.register();
/// assert!(registry.heartbeat(&lease));
///
/// // The holder "crashes": no more heartbeats.  Two sweeps a lease apart
/// // quarantine and then reclaim the name.
/// clock.advance(150);
/// registry.sweep();
/// clock.advance(150);
/// let outcome = registry.sweep();
/// assert_eq!(outcome.reclaimed, 1);
/// assert!(registry.collect().is_empty());
/// assert!(!registry.heartbeat(&lease)); // late beat: name is gone
/// ```
#[derive(Debug)]
pub struct LeaseRegistry<A: ActivityArray = crate::LevelArray> {
    registry: ThreadRegistry<A>,
    lease_ms: u64,
    clock: std::sync::Arc<dyn LeaseClock>,
    state: Mutex<LeaseState>,
    orphaned_reclaimed: AtomicU64,
}

impl<A: ActivityArray> LeaseRegistry<A> {
    /// Wraps `registry` with a `lease_ms`-millisecond lease using the
    /// monotonic [`SystemClock`].
    ///
    /// # Panics
    ///
    /// Panics if `lease_ms == 0`; a caller that wants no lease should use
    /// the plain [`ThreadRegistry`] instead.
    pub fn new(registry: ThreadRegistry<A>, lease_ms: u64) -> Self {
        Self::with_clock(registry, lease_ms, std::sync::Arc::new(SystemClock))
    }

    /// Like [`LeaseRegistry::new`] with an injected clock (tests use
    /// [`ManualClock`] to drive expiry deterministically).
    ///
    /// # Panics
    ///
    /// Panics if `lease_ms == 0`.
    pub fn with_clock(
        registry: ThreadRegistry<A>,
        lease_ms: u64,
        clock: std::sync::Arc<dyn LeaseClock>,
    ) -> Self {
        assert!(
            lease_ms > 0,
            "lease_ms must be positive; use a plain ThreadRegistry for no lease"
        );
        LeaseRegistry {
            registry,
            lease_ms,
            clock,
            state: Mutex::new(LeaseState::default()),
            orphaned_reclaimed: AtomicU64::new(0),
        }
    }

    /// The wrapped registry (and through it the underlying array).
    pub fn registry(&self) -> &ThreadRegistry<A> {
        &self.registry
    }

    /// The lease interval in milliseconds.
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms
    }

    /// Registers the caller and grants a fresh lease on the name.
    ///
    /// # Panics
    ///
    /// Panics if the underlying array is exhausted (see
    /// [`ThreadRegistry::register`]).  Exhaustion under leasing usually
    /// means the sweep is not being run often enough to keep up with
    /// crashed holders.
    pub fn register(&self) -> Lease {
        let name = self.registry.register_leaked();
        // The lease entry goes in *before* the fault site: a panic past
        // this point models a client that died right after registering,
        // and the sweep reclaims it — no explicit rollback needed.
        let lease = {
            let mut state = self.lock_state();
            state.next_generation += 1;
            let generation = state.next_generation;
            state.entries.insert(
                name,
                LeaseEntry {
                    generation,
                    last_beat_ms: self.clock.now_ms(),
                    quarantined_since: None,
                },
            );
            Lease { name, generation }
        };
        fail_point!("lease::register");
        lease
    }

    /// Renews `lease`.  Returns `false` if the lease is no longer valid —
    /// the name was reclaimed by the sweep (or released) — in which case
    /// the holder must stop using the name and re-register.
    pub fn heartbeat(&self, lease: &Lease) -> bool {
        let mut state = self.lock_state();
        match state.entries.get_mut(&lease.name) {
            Some(entry) if entry.generation == lease.generation => {
                entry.last_beat_ms = self.clock.now_ms();
                entry.quarantined_since = None;
                true
            }
            _ => false,
        }
    }

    /// Releases `lease`, freeing the name.  Returns `false` (and frees
    /// nothing) if the lease was already reclaimed — the sweep got there
    /// first and the name now belongs to someone else.
    pub fn release(&self, lease: Lease) -> bool {
        // Removing the entry under the lock is what excludes the sweep:
        // whichever side removes it is the one that frees the name.
        let entry = {
            let mut state = self.lock_state();
            match state.entries.get(&lease.name) {
                Some(entry) if entry.generation == lease.generation => {
                    state.entries.remove(&lease.name).expect("entry just seen")
                }
                _ => return false,
            }
        };
        // The array's `free` is all-or-nothing (its fault sites are strictly
        // pre-effect): if it unwinds, the name is still held, so put the
        // lease back for the sweep to reclaim instead of leaking the name
        // outside the table forever.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.registry.release(lease.name)
        })) {
            Ok(()) => true,
            Err(payload) => {
                let _quiet = la_fault::suppress();
                self.lock_state().entries.insert(lease.name, entry);
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// Runs one two-phase recovery pass (see the module docs): stale leases
    /// are quarantined, and leases that stayed quarantined and stale for a
    /// further full pass are reclaimed.  Cheap when everyone is beating;
    /// call it periodically from a maintenance thread.
    pub fn sweep(&self) -> SweepOutcome {
        fail_point!("lease::sweep", SweepOutcome::default());
        let now = self.clock.now_ms();
        let mut outcome = SweepOutcome::default();
        let mut reclaim: Vec<(Name, LeaseEntry)> = Vec::new();
        {
            let mut state = self.lock_state();
            let mut ripe: Vec<Name> = Vec::new();
            for (name, entry) in state.entries.iter_mut() {
                let stale = now.saturating_sub(entry.last_beat_ms) >= self.lease_ms;
                match entry.quarantined_since {
                    None if stale => {
                        // Phase 1: mark, touch nothing observable.
                        entry.quarantined_since = Some(now);
                        outcome.newly_quarantined += 1;
                    }
                    Some(since) if stale && now.saturating_sub(since) >= self.lease_ms => {
                        // Phase 2: still quarantined, still silent a full
                        // lease later, same generation (a heartbeat would
                        // have cleared the mark) — the holder is gone.
                        ripe.push(*name);
                    }
                    _ => {}
                }
            }
            for name in ripe {
                let entry = state.entries.remove(&name).expect("ripe entry present");
                reclaim.push((name, entry));
            }
        }
        // Free outside the lease lock: the array's free path has its own
        // synchronization (and its own fault sites), and holding the lease
        // lock across it would serialize sweeps against registrations.  An
        // injected unwind out of `free` left the name held (free is
        // all-or-nothing), so the entry goes back for the next sweep.
        for (name, entry) in reclaim {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.registry.release(name)
            })) {
                Ok(()) => outcome.reclaimed += 1,
                Err(payload) if la_fault::is_injected(payload.as_ref()) => {
                    let _quiet = la_fault::suppress();
                    self.lock_state().entries.insert(name, entry);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        self.orphaned_reclaimed
            .fetch_add(outcome.reclaimed as u64, Ordering::Relaxed);
        outcome
    }

    /// Scans the registered set (leased and sweep-pending names included),
    /// see [`ActivityArray::collect`].
    pub fn collect(&self) -> Vec<Name> {
        self.registry.collect()
    }

    /// The lease layer's view of the [`RobustnessReport`]: orphans reclaimed
    /// so far and the current quarantine size.  Pin/watchdog fields are
    /// zero — merge with the array's own report for those (elastic arrays
    /// get that merge for free via
    /// [`LeaseRegistry::robustness_report`](Self::robustness_report)).
    pub fn lease_report(&self) -> RobustnessReport {
        let quarantined = {
            let state = self.lock_state();
            state
                .entries
                .values()
                .filter(|e| e.quarantined_since.is_some())
                .count()
        };
        RobustnessReport {
            orphaned_reclaimed: self.orphaned_reclaimed.load(Ordering::Relaxed),
            quarantined,
            ..RobustnessReport::default()
        }
    }

    /// The lease table lock, tolerant of poisoning: a panic while holding
    /// it (fault injection included) leaves plain data in a consistent
    /// state, so later callers proceed rather than cascade the panic.
    fn lock_state(&self) -> MutexGuard<'_, LeaseState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl LeaseRegistry<ElasticLevelArray> {
    /// The combined [`RobustnessReport`]: this registry's orphan/quarantine
    /// view merged with the elastic array's stuck-pin watchdog view.
    pub fn robustness_report(&self) -> RobustnessReport {
        self.lease_report()
            .merge(self.registry.array().robustness_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelArray;
    use std::sync::Arc;

    fn leased(capacity: usize, lease_ms: u64) -> (LeaseRegistry<LevelArray>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let registry = LeaseRegistry::with_clock(
            ThreadRegistry::new(LevelArray::new(capacity), 7),
            lease_ms,
            Arc::clone(&clock) as Arc<dyn LeaseClock>,
        );
        (registry, clock)
    }

    #[test]
    fn beating_holder_is_never_reclaimed() {
        let (registry, clock) = leased(4, 100);
        let lease = registry.register();
        for _ in 0..10 {
            clock.advance(60);
            assert!(registry.heartbeat(&lease));
            let outcome = registry.sweep();
            assert_eq!(outcome, SweepOutcome::default());
        }
        assert!(registry.release(lease));
        assert!(registry.collect().is_empty());
    }

    #[test]
    fn silent_holder_is_quarantined_then_reclaimed() {
        let (registry, clock) = leased(4, 100);
        let lease = registry.register();
        clock.advance(150);
        let first = registry.sweep();
        assert_eq!(first.newly_quarantined, 1);
        assert_eq!(first.reclaimed, 0);
        assert_eq!(registry.lease_report().quarantined, 1);
        // Quarantine alone changes nothing observable.
        assert_eq!(registry.collect(), vec![lease.name()]);

        clock.advance(150);
        let second = registry.sweep();
        assert_eq!(second.reclaimed, 1);
        assert!(registry.collect().is_empty());
        let report = registry.lease_report();
        assert_eq!(report.orphaned_reclaimed, 1);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn late_heartbeat_rescues_a_quarantined_lease() {
        let (registry, clock) = leased(4, 100);
        let lease = registry.register();
        clock.advance(150);
        assert_eq!(registry.sweep().newly_quarantined, 1);
        // The holder was merely slow: one beat un-quarantines.
        assert!(registry.heartbeat(&lease));
        clock.advance(150);
        // Stale again, but the earlier quarantine was cleared, so this pass
        // only re-quarantines — it must not reclaim.
        let outcome = registry.sweep();
        assert_eq!(outcome.newly_quarantined, 1);
        assert_eq!(outcome.reclaimed, 0);
        assert!(registry.release(lease));
    }

    #[test]
    fn reclaimed_lease_rejects_heartbeat_and_release() {
        let (registry, clock) = leased(4, 50);
        let lease = registry.register();
        clock.advance(60);
        registry.sweep();
        clock.advance(60);
        assert_eq!(registry.sweep().reclaimed, 1);
        assert!(!registry.heartbeat(&lease));
        // A release of the dead lease is a no-op, not a double free —
        // the name may already be held by a new registrant.
        let newcomer = registry.register();
        assert!(!registry.release(lease));
        assert_eq!(registry.collect(), vec![newcomer.name()]);
        assert!(registry.release(newcomer));
    }

    #[test]
    fn generation_stamps_disambiguate_reused_names() {
        let (registry, clock) = leased(1, 50);
        // Capacity 2 slots for bound 1; drain until the same physical name
        // comes back with a higher generation.
        let old = registry.register();
        clock.advance(60);
        registry.sweep();
        clock.advance(60);
        registry.sweep();
        let fresh = loop {
            let candidate = registry.register();
            if candidate.name() == old.name() {
                break candidate;
            }
            assert!(registry.release(candidate));
        };
        assert!(fresh.generation > old.generation);
        assert!(!registry.heartbeat(&old));
        assert!(registry.heartbeat(&fresh));
        assert!(registry.release(fresh));
    }

    #[test]
    fn elastic_report_merges_both_layers() {
        let array = crate::LevelArrayConfig::new(8)
            .build_elastic()
            .expect("elastic");
        let clock = Arc::new(ManualClock::new());
        let registry = LeaseRegistry::with_clock(
            ThreadRegistry::new(array, 9),
            100,
            clock.clone() as Arc<dyn LeaseClock>,
        );
        let _lease = registry.register();
        clock.advance(150);
        registry.sweep();
        let report = registry.robustness_report();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.orphaned_reclaimed, 0);
    }

    #[test]
    #[should_panic(expected = "lease_ms must be positive")]
    fn zero_lease_is_rejected() {
        let _ = LeaseRegistry::new(ThreadRegistry::new(LevelArray::new(4), 1), 0);
    }
}
