//! Deterministic, seedable failpoints for crash-robustness testing.
//!
//! The workspace's lock-free hot paths thread [`fail_point!`] calls through
//! their dangerous windows — between winning a slot CAS and returning the
//! name, between pinning an epoch and tagging an acquisition, inside the
//! flat-combining combiner slice.  In a normal build the macro expands to
//! nothing (the `la_fault` cfg is off and the branch is a constant
//! `false`), so the production binary carries no overhead.  Under
//! `RUSTFLAGS="--cfg la_fault"` every site reports to this crate, which
//! decides — deterministically, from a seed — whether to inject a fault:
//!
//! * **Delay** — spin for a configured number of iterations, widening race
//!   windows.
//! * **EarlyReturn** — make the site's operation report failure (only
//!   honored by sites that opt in via the two-argument macro form).
//! * **Panic** — unwind with a [`FaultPanic`] payload, exercising the RAII
//!   rollback guards.
//! * **Die** — unwind with a [`ThreadDeath`] payload, modeling a client
//!   crash.  Unwinding (rather than aborting) is deliberate: it lets the
//!   drop-order rollback run exactly as a real `catch_unwind`-isolated
//!   worker crash would.  A client that dies without unwinding leaves its
//!   names held; the caller that tracks its live clients recovers them by
//!   freeing the `collect()` entries no live client holds.
//! * **Pause** — park the thread until [`release_paused`] is called; the
//!   deterministic way to manufacture a stuck pin for watchdog tests.
//!
//! Faults come from two sources, checked in order: explicit **triggers**
//! ([`arm_site`]: "the `nth` hit of site S performs action A"), and a
//! seeded probabilistic **plan** ([`FaultPlan`] via [`configure`]) whose
//! per-site decisions derive from `SplitMix64(seed ^ hash(site) ^ hit)` —
//! the same seed always yields the same storm.  While *armed* (any plan or
//! un-fired trigger installed), hit counters are kept per site even when no
//! fault fires, so tests can assert site coverage — a count-only plan
//! ([`FaultPlan::count_only`]) arms the sites without injecting anything.
//! Unarmed, a site is a single atomic load: nothing is counted and
//! the global state lock is never touched, so an instrumented build's
//! concurrency stays honest on the hot paths.
//!
//! The crate itself always compiles (its unit tests run without the cfg);
//! only the macro's expansion is gated, so enabling faults never changes
//! the *types* flowing through the instrumented code.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, OnceLock};

/// What an armed failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Spin for this many `spin_loop` iterations, then continue normally.
    Delay(u32),
    /// Ask the site to report failure (two-argument `fail_point!` form).
    EarlyReturn,
    /// Unwind with a [`FaultPanic`] payload.
    Panic,
    /// Unwind with a [`ThreadDeath`] payload — simulated client crash.
    Die,
    /// Park the thread until [`release_paused`]; manufactures stuck pins.
    Pause,
}

/// Seeded probabilistic fault plan; probabilities are per-mille per hit.
///
/// A hit draws one uniform value in `0..1000`; the bands are checked in
/// order `die`, `panic`, `early_return`, `delay`, so the probabilities are
/// additive and their sum must stay ≤ 1000.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the per-hit decision stream.
    pub seed: u64,
    /// Per-mille probability of [`FaultAction::Die`].
    pub die_per_mille: u32,
    /// Per-mille probability of [`FaultAction::Panic`].
    pub panic_per_mille: u32,
    /// Per-mille probability of [`FaultAction::EarlyReturn`].
    pub early_return_per_mille: u32,
    /// Per-mille probability of [`FaultAction::Delay`].
    pub delay_per_mille: u32,
    /// Spin count used when a plan-driven delay fires.
    pub delay_spins: u32,
    /// When set, only sites whose name contains this substring are eligible.
    pub site_filter: Option<String>,
}

impl FaultPlan {
    /// A plan that injects nothing but still counts hits.
    #[must_use]
    pub fn count_only(seed: u64) -> Self {
        Self {
            seed,
            die_per_mille: 0,
            panic_per_mille: 0,
            early_return_per_mille: 0,
            delay_per_mille: 0,
            delay_spins: 0,
            site_filter: None,
        }
    }

    /// The canonical crash-storm mix used by `make fault-storm`: mostly
    /// clean hits, occasional delays, rare panics and thread deaths.
    #[must_use]
    pub fn storm(seed: u64) -> Self {
        Self {
            seed,
            die_per_mille: 4,
            panic_per_mille: 8,
            early_return_per_mille: 0,
            delay_per_mille: 40,
            delay_spins: 64,
            site_filter: None,
        }
    }

    /// Restrict the plan to sites whose name contains `needle`.
    #[must_use]
    pub fn only_sites(mut self, needle: &str) -> Self {
        self.site_filter = Some(needle.to_string());
        self
    }
}

/// Panic payload for [`FaultAction::Panic`] injections.
#[derive(Clone, Copy, Debug)]
pub struct FaultPanic {
    /// The failpoint that fired.
    pub site: &'static str,
}

/// Panic payload for [`FaultAction::Die`] injections — simulated client
/// death.  Rollback guards treat it exactly like any other unwind; the
/// distinction exists so harnesses can tell injected crashes from genuine
/// assertion failures.
#[derive(Clone, Copy, Debug)]
pub struct ThreadDeath {
    /// The failpoint at which the simulated client died.
    pub site: &'static str,
}

/// True when a caught panic payload came from an injected fault
/// ([`FaultPanic`] or [`ThreadDeath`]) rather than a real bug.
#[must_use]
pub fn is_injected(payload: &(dyn Any + Send)) -> bool {
    payload.is::<FaultPanic>() || payload.is::<ThreadDeath>()
}

/// The site name carried by an injected-fault payload, if it is one.
#[must_use]
pub fn injected_site(payload: &(dyn Any + Send)) -> Option<&'static str> {
    if let Some(p) = payload.downcast_ref::<FaultPanic>() {
        Some(p.site)
    } else {
        payload.downcast_ref::<ThreadDeath>().map(|d| d.site)
    }
}

#[derive(Debug)]
struct Trigger {
    site: &'static str,
    nth: u64,
    action: FaultAction,
    fired: bool,
}

#[derive(Debug, Default)]
struct State {
    plan: Option<FaultPlan>,
    triggers: Vec<Trigger>,
    hits: HashMap<&'static str, u64>,
}

#[derive(Debug, Default)]
struct PauseState {
    paused: usize,
    release_gen: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

/// Whether any plan or trigger is installed.  [`fire_and_act`] checks this
/// *before* touching the state mutex: a `--cfg la_fault` build threads a
/// fail point through every hot-path operation, and an unarmed site must
/// not serialize the whole process on one lock (that would make the
/// instrumented build concurrency-blind, the opposite of its purpose).
/// Consequence: hit counters only accumulate while armed.
static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn sync_armed(st: &State) {
    ARMED.store(
        st.plan.is_some() || !st.triggers.is_empty(),
        std::sync::atomic::Ordering::Release,
    );
}

fn pause_state() -> &'static (Mutex<PauseState>, Condvar) {
    static PAUSE: OnceLock<(Mutex<PauseState>, Condvar)> = OnceLock::new();
    PAUSE.get_or_init(|| (Mutex::new(PauseState::default()), Condvar::new()))
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    // A panic injected *by* this crate can poison nothing here (the lock is
    // always released before acting), but a caller's panic while holding a
    // different lock must not cascade into fault bookkeeping.
    state()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across runs and platforms, unlike `DefaultHasher`.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Install (replace) the probabilistic fault plan.
pub fn configure(plan: FaultPlan) {
    let mut st = lock_state();
    st.plan = Some(plan);
    sync_armed(&st);
}

/// Arm a one-shot trigger: the `nth` hit (1-based) of `site` performs
/// `action`.  Triggers take precedence over the plan and fire at most once.
pub fn arm_site(site: &'static str, nth: u64, action: FaultAction) {
    assert!(nth >= 1, "trigger hits are 1-based");
    let mut st = lock_state();
    st.triggers.push(Trigger {
        site,
        nth,
        action,
        fired: false,
    });
    sync_armed(&st);
}

/// Clear the plan, all triggers, and all hit counters, and wake any
/// [`FaultAction::Pause`]d threads.  Call between test scenarios.
pub fn reset() {
    {
        let mut st = lock_state();
        st.plan = None;
        st.triggers.clear();
        st.hits.clear();
        sync_armed(&st);
    }
    release_paused();
}

/// Hit count recorded for `site` since the last [`reset`].  Hits are only
/// recorded while armed (see the crate docs); unarmed traffic is invisible.
#[must_use]
pub fn hits(site: &str) -> u64 {
    lock_state().hits.get(site).copied().unwrap_or(0)
}

/// Every `(site, hits)` pair recorded since the last [`reset`], sorted by
/// site name for stable reporting.
#[must_use]
pub fn all_hits() -> Vec<(String, u64)> {
    let st = lock_state();
    let mut v: Vec<_> = st
        .hits
        .iter()
        .map(|(s, &n)| ((*s).to_string(), n))
        .collect();
    drop(st);
    v.sort();
    v
}

/// Total hits across all sites since the last [`reset`].
#[must_use]
pub fn hits_total() -> u64 {
    lock_state().hits.values().sum()
}

/// Number of threads currently parked by [`FaultAction::Pause`].
#[must_use]
pub fn paused_count() -> usize {
    let (lock, _) = pause_state();
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .paused
}

/// Wake every thread currently parked by [`FaultAction::Pause`].
pub fn release_paused() {
    let (lock, cvar) = pause_state();
    let mut st = lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    st.release_gen += 1;
    drop(st);
    cvar.notify_all();
}

fn park_until_released() {
    let (lock, cvar) = pause_state();
    let mut st = lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let my_gen = st.release_gen;
    st.paused += 1;
    while st.release_gen == my_gen {
        st = cvar
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    st.paused -= 1;
}

thread_local! {
    static SUPPRESS_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Scoped injection suppression for the current thread; see [`suppress`].
#[derive(Debug)]
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Disable fault injection on the current thread until the returned guard
/// drops.  Rollback handlers hold one while they undo partial work: a
/// *second* injected fault inside recovery code would either abort the
/// process (panic while unwinding) or leak the very state the handler is
/// cleaning up.  Suppressed hits are invisible — not counted, no action.
#[must_use]
pub fn suppress() -> SuppressGuard {
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    SuppressGuard(())
}

/// Decide and perform the fault for one hit of `site`.
///
/// Returns `true` when the site should take its early-return path (the
/// two-argument [`fail_point!`] form); sites without one ignore the value.
/// Called by the macro expansion — tests may also call it directly.
///
/// Never acts while the thread is already unwinding (a nested panic would
/// abort the process mid-rollback) or inside a [`suppress`] scope.
pub fn fire_and_act(site: &'static str) -> bool {
    if !ARMED.load(std::sync::atomic::Ordering::Acquire) {
        return false;
    }
    if std::thread::panicking() || SUPPRESS_DEPTH.with(std::cell::Cell::get) > 0 {
        return false;
    }
    let action = {
        let mut st = lock_state();
        let hit = {
            let e = st.hits.entry(site).or_insert(0);
            *e += 1;
            *e
        };
        let trigger = st
            .triggers
            .iter_mut()
            .find(|t| !t.fired && t.site == site && t.nth == hit)
            .map(|t| {
                t.fired = true;
                t.action
            });
        trigger.or_else(|| {
            let plan = st.plan.as_ref()?;
            if let Some(filter) = &plan.site_filter {
                if !site.contains(filter.as_str()) {
                    return None;
                }
            }
            let draw = splitmix64(plan.seed ^ site_hash(site) ^ hit.wrapping_mul(0x9e37)) % 1000;
            let draw = u32::try_from(draw).expect("per-mille draw fits in u32");
            let mut band = plan.die_per_mille;
            if draw < band {
                return Some(FaultAction::Die);
            }
            band += plan.panic_per_mille;
            if draw < band {
                return Some(FaultAction::Panic);
            }
            band += plan.early_return_per_mille;
            if draw < band {
                return Some(FaultAction::EarlyReturn);
            }
            band += plan.delay_per_mille;
            if draw < band {
                return Some(FaultAction::Delay(plan.delay_spins));
            }
            None
        })
        // The lock drops here — every action below runs unlocked so a
        // panic or park never wedges other sites' bookkeeping.
    };
    match action {
        None => false,
        Some(FaultAction::Delay(spins)) => {
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            false
        }
        Some(FaultAction::EarlyReturn) => true,
        Some(FaultAction::Panic) => std::panic::panic_any(FaultPanic { site }),
        Some(FaultAction::Die) => std::panic::panic_any(ThreadDeath { site }),
        Some(FaultAction::Pause) => {
            park_until_released();
            false
        }
    }
}

/// Read a [`FaultPlan`] from `LA_FAULT_*` environment variables and install
/// it.  Returns `true` when a plan was armed (`LA_FAULT_SEED` present).
///
/// Variables: `LA_FAULT_SEED` (required, u64), `LA_FAULT_DIE_PM`,
/// `LA_FAULT_PANIC_PM`, `LA_FAULT_EARLY_PM`, `LA_FAULT_DELAY_PM` (per-mille,
/// default the [`FaultPlan::storm`] mix), `LA_FAULT_DELAY_SPINS`, and
/// `LA_FAULT_SITES` (substring filter).
pub fn configure_from_env() -> bool {
    let Some(seed) = std::env::var("LA_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return false;
    };
    let pm = |key: &str, default: u32| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let storm = FaultPlan::storm(seed);
    let plan = FaultPlan {
        seed,
        die_per_mille: pm("LA_FAULT_DIE_PM", storm.die_per_mille),
        panic_per_mille: pm("LA_FAULT_PANIC_PM", storm.panic_per_mille),
        early_return_per_mille: pm("LA_FAULT_EARLY_PM", storm.early_return_per_mille),
        delay_per_mille: pm("LA_FAULT_DELAY_PM", storm.delay_per_mille),
        delay_spins: pm("LA_FAULT_DELAY_SPINS", storm.delay_spins),
        site_filter: std::env::var("LA_FAULT_SITES")
            .ok()
            .filter(|s| !s.is_empty()),
    };
    configure(plan);
    true
}

/// Install a panic hook that stays silent for injected faults
/// ([`FaultPanic`] / [`ThreadDeath`]) and defers to the previous hook for
/// everything else.  Storm tests call this once so thousands of injected
/// unwinds do not flood stderr while real assertion failures still print.
pub fn install_quiet_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<FaultPanic>() || info.payload().is::<ThreadDeath>() {
                return;
            }
            previous(info);
        }));
    });
}

/// Inject faults at a named site.
///
/// `fail_point!("crate::site")` performs whatever action is armed for the
/// site (delay, panic, death, pause) and otherwise falls through.
/// `fail_point!("crate::site", expr)` additionally supports
/// [`FaultAction::EarlyReturn`]: when the early-return band fires, the
/// enclosing function returns `expr`.
///
/// Expands to nothing unless the build sets `--cfg la_fault`; the check is
/// `cfg!(la_fault)` *in the calling crate*, so every crate that uses the
/// macro must register `la_fault` with `[lints.rust.unexpected_cfgs]`
/// (inherited from the workspace here).
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if cfg!(la_fault) {
            let _ = $crate::fire_and_act($site);
        }
    };
    ($site:expr, $ret:expr) => {
        if cfg!(la_fault) && $crate::fire_and_act($site) {
            return $ret;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The fault state is process-global; serialize the tests that mutate it.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn unarmed_sites_are_free_and_uncounted() {
        let _g = serial();
        reset();
        // Unarmed, the fast path skips the state lock entirely — nothing is
        // recorded.  That lock-freedom is what keeps an instrumented build's
        // concurrency honest, so it is asserted, not just an optimization.
        for _ in 0..5 {
            assert!(!fire_and_act("t::a"));
        }
        assert_eq!(hits_total(), 0);
        // A count-only plan arms the sites without injecting anything; the
        // same hits now count.
        configure(FaultPlan::count_only(1));
        for _ in 0..5 {
            assert!(!fire_and_act("t::a"));
        }
        assert_eq!(hits("t::a"), 5);
        assert_eq!(hits("t::other"), 0);
        assert_eq!(hits_total(), 5);
        reset();
        assert_eq!(hits("t::a"), 0);
    }

    #[test]
    fn triggers_fire_on_the_exact_hit_and_only_once() {
        let _g = serial();
        reset();
        arm_site("t::tr", 3, FaultAction::EarlyReturn);
        assert!(!fire_and_act("t::tr"));
        assert!(!fire_and_act("t::tr"));
        assert!(fire_and_act("t::tr"));
        assert!(!fire_and_act("t::tr"));
        reset();
    }

    #[test]
    fn trigger_panic_carries_the_site() {
        let _g = serial();
        reset();
        arm_site("t::boom", 1, FaultAction::Panic);
        let err = std::panic::catch_unwind(|| fire_and_act("t::boom")).unwrap_err();
        assert!(is_injected(err.as_ref()));
        assert_eq!(injected_site(err.as_ref()), Some("t::boom"));
        reset();
    }

    #[test]
    fn die_is_distinguishable_from_panic() {
        let _g = serial();
        reset();
        arm_site("t::die", 1, FaultAction::Die);
        let err = std::panic::catch_unwind(|| fire_and_act("t::die")).unwrap_err();
        assert!(err.is::<ThreadDeath>());
        assert!(!err.is::<FaultPanic>());
        assert!(is_injected(err.as_ref()));
        reset();
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let _g = serial();
        let run = |seed: u64| -> Vec<bool> {
            reset();
            configure(FaultPlan {
                early_return_per_mille: 500,
                ..FaultPlan::count_only(seed)
            });
            let outcomes = (0..64).map(|_| fire_and_act("t::det")).collect();
            reset();
            outcomes
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must replay the same storm");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&x| x), "500‰ must fire within 64 hits");
        assert!(!a.iter().all(|&x| x), "500‰ must also miss within 64 hits");
    }

    #[test]
    fn site_filter_masks_other_sites() {
        let _g = serial();
        reset();
        configure(FaultPlan {
            early_return_per_mille: 1000,
            ..FaultPlan::count_only(7)
        });
        assert!(fire_and_act("t::anything"));
        configure(
            FaultPlan {
                early_return_per_mille: 1000,
                ..FaultPlan::count_only(7)
            }
            .only_sites("elastic"),
        );
        assert!(!fire_and_act("t::probe"));
        assert!(fire_and_act("t::elastic::tag"));
        reset();
    }

    #[test]
    fn pause_parks_until_released() {
        let _g = serial();
        reset();
        arm_site("t::pause", 1, FaultAction::Pause);
        let h = std::thread::spawn(|| fire_and_act("t::pause"));
        while paused_count() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(paused_count(), 1);
        release_paused();
        assert!(!h.join().unwrap());
        assert_eq!(paused_count(), 0);
        reset();
    }

    #[test]
    fn suppression_hides_hits_entirely() {
        let _g = serial();
        reset();
        arm_site("t::sup", 1, FaultAction::Panic);
        {
            let _s = suppress();
            assert!(!fire_and_act("t::sup"));
        }
        assert_eq!(hits("t::sup"), 0, "suppressed hits must not count");
        // The trigger is still armed for the first *visible* hit.
        assert!(std::panic::catch_unwind(|| fire_and_act("t::sup")).is_err());
        reset();
    }

    #[test]
    fn no_injection_while_unwinding() {
        let _g = serial();
        reset();
        arm_site("t::drop", 1, FaultAction::Panic);
        struct FiresInDrop;
        impl Drop for FiresInDrop {
            fn drop(&mut self) {
                // Runs while the thread is unwinding: must be a no-op, or
                // the nested panic would abort the whole test process.
                assert!(!fire_and_act("t::drop"));
            }
        }
        let err = std::panic::catch_unwind(|| {
            let _f = FiresInDrop;
            panic!("outer");
        })
        .unwrap_err();
        assert!(!is_injected(err.as_ref()));
        reset();
    }

    #[test]
    fn env_plan_requires_a_seed() {
        let _g = serial();
        reset();
        // The test harness does not set LA_FAULT_SEED.
        assert!(!configure_from_env());
        reset();
    }
}
