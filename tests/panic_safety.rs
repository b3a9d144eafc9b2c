//! Panic-safety and crash-robustness storms across the suite's facades.
//!
//! Two tiers share this file:
//!
//! * **Always-on tests** (no cfg) exercise the panic paths reachable without
//!   fault injection — operations that panic inside the flat-combining
//!   engine, batched `Get`s and `Free`s that fail part-way, watchdog
//!   telemetry on healthy traffic.  They run in tier-1 (`cargo test`).
//! * **Seeded crash storms** (`mod storm`, compiled under
//!   `RUSTFLAGS="--cfg la_fault"`, see `make fault` / `make fault-storm`)
//!   arm the `la_fault` failpoints threaded through `probe_core`, `packed`,
//!   `epoch_chain`, `elastic`, reclamation and the combiner, and assert the
//!   invariants of `docs/ROBUSTNESS.md`: an operation that unwinds leaks
//!   nothing it did not already own, a dead client's names are exactly the
//!   ones `Collect` still reports, a dead combiner hands off, and the
//!   stuck-pin watchdog defers — but never unlinks — under a live pin.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use la_flatcombine::FlatCombining;
use larng::{default_rng, RandomSource, SequenceRng};
use levelarray::{
    ActivityArray, ElasticLevelArray, GrowthPolicy, LevelArray, LevelArrayConfig, Name, SlotLayout,
};

/// The sequential semantics used by every combining test: fetch-and-add,
/// with one poison value whose application panics *before* mutating.
fn guarded_adder(seq: &mut u64, delta: u64) -> u64 {
    assert_ne!(delta, u64::MAX, "poison operation");
    let old = *seq;
    *seq += delta;
    old
}

/// The storm tests arm `la_fault`'s process-global plan, so under
/// `--cfg la_fault` every test in this binary — the always-on ones included
/// — serializes on one gate and clears any leftover plan before running.
/// Without the cfg there is nothing to protect against and this is free.
#[cfg(la_fault)]
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(la_fault)]
    {
        let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        la_fault::reset();
        Some(gate)
    }
    #[cfg(not(la_fault))]
    None
}

#[test]
fn a_panicking_operation_surfaces_on_its_owner_not_the_engine() {
    let _gate = exclusive();
    let fc = FlatCombining::new(Arc::new(LevelArray::new(4)), 0u64, guarded_adder);
    let mut rng = default_rng(1);
    let session = fc.join(&mut rng);
    assert_eq!(session.execute(5), 0);

    // The poison op panics inside the combiner; the payload must resurface
    // here, on the owner...
    let payload = catch_unwind(AssertUnwindSafe(|| session.execute(u64::MAX)))
        .expect_err("the poison operation must panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("poison operation"),
        "unexpected payload: {message:?}"
    );

    // ...and the engine must keep working: same session, same lock.
    assert_eq!(session.execute(7), 5);
    assert_eq!(fc.with_sequential(|s| *s), 12);
    drop(session);
    assert!(fc.registry().collect().is_empty(), "slot leaked");
}

#[test]
fn concurrent_panicking_operations_lose_no_other_operation() {
    let _gate = exclusive();
    let threads = 4;
    let per_thread = 500u64;
    let fc = Arc::new(FlatCombining::new(
        Arc::new(LevelArray::new(threads)),
        0u64,
        guarded_adder,
    ));

    std::thread::scope(|scope| {
        for t in 0..threads {
            let fc = Arc::clone(&fc);
            scope.spawn(move || {
                let mut rng = default_rng(300 + t as u64);
                let session = fc.join(&mut rng);
                for i in 0..per_thread {
                    if i % 7 == 3 {
                        // A poison op panics before mutating: it must cost
                        // nothing and poison nothing.
                        let err = catch_unwind(AssertUnwindSafe(|| session.execute(u64::MAX)));
                        assert!(err.is_err());
                    } else {
                        let _ = session.execute(1);
                    }
                }
            });
        }
    });

    let expected: u64 = (0..per_thread).filter(|i| i % 7 != 3).count() as u64 * threads as u64;
    assert_eq!(fc.with_sequential(|s| *s), expected);
    assert!(fc.registry().collect().is_empty());
}

#[test]
fn watchdog_telemetry_stays_quiet_on_healthy_elastic_traffic() {
    let _gate = exclusive();
    let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
    let mut rng = default_rng(9);
    for _ in 0..50 {
        let names: Vec<_> = (0..4)
            .filter_map(|_| array.try_get(&mut rng))
            .map(|got| got.name())
            .collect();
        for name in names {
            array.free(name);
        }
    }
    let report = array.robustness_report();
    assert!(report.is_quiet(), "healthy traffic degraded: {report:?}");
    assert_eq!(
        report.oldest_pin_age_ms, None,
        "no pin is active between operations"
    );
}

/// A batched `Get` whose random source panics mid-batch — a `SequenceRng`
/// that runs out — must unwind with nothing acquired, on every facade, with
/// the Free→Get hint off and on: `out` back at its old length, `collect`
/// holding exactly the names held beforehand and, on the elastic facades,
/// every live epoch's held counter in step.
#[test]
fn get_many_rolls_back_when_the_random_source_runs_out() {
    let _gate = exclusive();
    for hint in [false, true] {
        let flat = LevelArrayConfig::new(32).free_hint(hint);
        assert_get_many_rolls_back("flat", hint, || flat.build().unwrap(), |_, _| {});
        let sharded = || flat.build_sharded(2).unwrap();
        assert_get_many_rolls_back("sharded", hint, sharded, |_, _| {});
        // Epoch capacities 24 + 48: the batch spans two epochs.
        let elastic = flat
            .with_contention(8)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 });
        for (label, config) in [
            ("elastic", elastic.clone()),
            ("hier", elastic.shard_group(4)),
        ] {
            let build = || config.build_elastic().unwrap();
            assert_get_many_rolls_back(label, hint, build, |array, held| {
                for epoch in array.epoch_ids() {
                    let expected = held.iter().filter(|n| n.epoch() == epoch).count();
                    assert_eq!(array.epoch_held(epoch), Some(expected), "epoch {epoch}");
                }
            });
        }
    }
}

/// One case of the test above.  A twin, built and prepared the same way,
/// first completes the batch to count the draws it takes; the real run's
/// script is one draw shorter, so the panic comes as late as it can, with
/// the hint win and the earlier shards' or epochs' wins already in `out`.
fn assert_get_many_rolls_back<A: ActivityArray>(
    facade: &str,
    hint: bool,
    build: impl Fn() -> A,
    census: impl Fn(&A, &[Name]),
) {
    // Three names held beforehand; with the hint on, the third is freed
    // again, so the batch opens with an armed hint win.
    let prepare = |array: &A| {
        let mut rng = default_rng(0xB47C);
        let mut held: Vec<Name> = (0..3).map(|_| array.get(&mut rng).name()).collect();
        let hinted = hint.then(|| held.pop().unwrap());
        if let Some(name) = hinted {
            array.free(name);
        }
        (held, hinted)
    };
    let mut source = default_rng(0x5C41);
    let script: Vec<u64> = (0..1 << 16).map(|_| source.next_u64()).collect();
    let label = format!("{facade}, hint {hint}");
    let twin = build();
    let (_, hinted) = prepare(&twin);
    let mut complete = SequenceRng::new(script.clone());
    let mut out = Vec::new();
    assert_eq!(twin.get_many(&mut complete, 64, &mut out), 64, "{label}");
    if let Some(hinted) = hinted {
        assert_eq!(out[0].name(), hinted, "{label}: no hint win");
    }

    let array = build();
    let (mut held, _) = prepare(&array);
    let before = vec![out[0]];
    let mut out = before.clone();
    let mut short = SequenceRng::new(&script[..complete.consumed() - 1]);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        array.get_many(&mut short, 64, &mut out)
    }));
    assert!(unwound.is_err(), "{label}: the short script must run out");
    assert_eq!(out, before, "{label}: out is not back at its old length");
    let mut collected = array.collect();
    collected.sort();
    held.sort();
    assert_eq!(collected, held, "{label}: the unwound batch kept names");
    census(&array, &held);
}

/// A `free_many` batch with one bad name panics before it releases any
/// name, on every facade and both slot layouts: `collect()` and every live
/// epoch's held count read as before the call.  The bad name is an in-batch
/// duplicate, a name already freed, an index past its epoch's capacity, or
/// (elastic facades only) a name of a dead epoch; each sorts after every
/// good name, so a kernel that released as it checked would have released
/// the rest of the batch first.
#[test]
fn a_bad_free_many_batch_releases_nothing() {
    let _gate = exclusive();
    for layout in [SlotLayout::WordPerSlot, SlotLayout::Packed] {
        let flat = LevelArrayConfig::new(32).slot_layout(layout);
        assert_bad_batch_releases_nothing("flat", layout, &flat.build().unwrap(), None, 40);
        // The home shard fills at 48 names, so the batch spans both shards.
        let sharded = flat.build_sharded(2).unwrap();
        assert_bad_batch_releases_nothing("sharded", layout, &sharded, None, 60);
        // Epoch capacities 24 + 48: the batch spans two epochs.
        let elastic = flat
            .with_contention(8)
            .growth(GrowthPolicy::Doubling { max_epochs: 4 });
        for (label, config) in [
            ("elastic", elastic.clone()),
            ("hier", elastic.shard_group(4)),
        ] {
            let array = config.build_elastic().unwrap();
            assert_bad_batch_releases_nothing(label, layout, &array, Some(&array), 30);
        }
    }
}

/// One facade of the test above, holding `hold` names; `elastic` is the
/// same array when it has epochs.
fn assert_bad_batch_releases_nothing(
    facade: &str,
    layout: SlotLayout,
    array: &dyn ActivityArray,
    elastic: Option<&ElasticLevelArray>,
    hold: usize,
) {
    let mut rng = default_rng(0xF4EE);
    let mut held: Vec<Name> = (0..hold).map(|_| array.get(&mut rng).name()).collect();
    held.sort_unstable();
    let freed = held.pop().unwrap();
    array.free(freed);
    let last = *held.last().unwrap();
    let past_end = match elastic {
        Some(e) => {
            assert_eq!(e.num_epochs(), 2, "{facade}: the batch spans one epoch");
            let capacity = e.newest_shard_capacity() * e.newest_epoch_shards();
            Name::with_epoch(e.newest_epoch(), capacity)
        }
        None => Name::new(array.capacity()),
    };
    let mut cases = vec![
        ("in-batch duplicate", last, "double free"),
        ("double free", freed, "double free"),
        ("out-of-range index", past_end, "out of range"),
    ];
    if elastic.is_some() {
        cases.push(("dead epoch", Name::with_epoch(9, 0), "not live"));
    }
    let census = || {
        let epochs = elastic.map(|e| {
            let ids = e.epoch_ids();
            ids.iter()
                .map(|&id| (id, e.epoch_held(id)))
                .collect::<Vec<_>>()
        });
        (array.collect(), epochs)
    };
    let before = census();
    for (case, bad, message) in cases {
        let label = format!("{facade}, {layout:?}, {case}");
        let mut batch = held.clone();
        batch.push(bad);
        let payload = catch_unwind(AssertUnwindSafe(|| array.free_many(&batch)))
            .expect_err(&format!("{label}: the batch must panic"));
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains(message), "{label}: unexpected panic {text:?}");
        assert_eq!(census(), before, "{label}: the bad batch released names");
    }
    array.free_many(&held);
    assert!(array.collect().is_empty(), "{facade}, {layout:?}");
}

/// Seeded crash storms: compiled only when the failpoints are live.
#[cfg(la_fault)]
mod storm {
    use super::*;
    use la_fault::{FaultAction, FaultPlan};
    use la_reclaim::ReclaimDomain;
    use levelarray::epoch_chain::thread_token;
    use levelarray::ShardedLevelArray;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Takes the binary-wide [`super::GATE`] (shared with the always-on
    /// tests — the plan is process-global), clears leftover state, and arms
    /// `plan`.
    fn armed(plan: FaultPlan) -> std::sync::MutexGuard<'static, ()> {
        let gate = super::GATE.lock().unwrap_or_else(|e| e.into_inner());
        la_fault::reset();
        la_fault::install_quiet_hook();
        la_fault::configure(plan);
        gate
    }

    /// `make fault-storm` re-seeds the storms through `LA_FAULT_SEED`; the
    /// plan *shape* (rates, site filters, trigger-only plans) stays with
    /// each test — only the decision seed moves.
    fn seed(default: u64) -> u64 {
        std::env::var("LA_FAULT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// What a worker should do with a panic it caught.
    enum Caught {
        /// A [`la_fault::ThreadDeath`]: the simulated client is gone and
        /// abandons everything it holds.
        Died,
        /// A [`la_fault::FaultPanic`]: the operation unwound and rolled
        /// back; the client lives on.
        RolledBack,
    }

    fn classify(payload: Box<dyn std::any::Any + Send>) -> Caught {
        if payload.downcast_ref::<la_fault::ThreadDeath>().is_some() {
            return Caught::Died;
        }
        if la_fault::is_injected(payload.as_ref()) {
            return Caught::RolledBack;
        }
        // A genuine bug: let the harness see it.
        std::panic::resume_unwind(payload)
    }

    /// Frees a batch under live fault injection, retrying the whole batch
    /// after an unwind.  Every fault site on the `free_many` path comes
    /// before its first release (the elastic maintenance pass after the
    /// release catches its own injected panics), so an unwound batch freed
    /// nothing; a half-released one would fail the retry with a genuine
    /// "double free".
    fn free_batch_with_recovery(array: &dyn ActivityArray, names: &mut Vec<Name>) {
        while let Err(payload) = catch_unwind(AssertUnwindSafe(|| array.free_many(names))) {
            match classify(payload) {
                Caught::Died | Caught::RolledBack => {}
            }
        }
        names.clear();
    }

    /// The core storm: `threads` clients hammer get/get_many/free under the
    /// armed plan.  A client that draws [`la_fault::ThreadDeath`] abandons
    /// its names (returned as orphans); every other unwind must roll back
    /// completely.  After the storm, `Collect` must show *exactly* the
    /// orphans — nothing leaked, nothing lost.
    fn run_storm(array: &dyn ActivityArray, seed: u64, threads: usize, iters: usize) {
        let orphans: Vec<Name> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut rng = default_rng(seed ^ (0xA5A5 * (t as u64 + 1)));
                        let mut held: Vec<Name> = Vec::new();
                        let mut out = Vec::new();
                        for i in 0..iters {
                            if held.len() >= 8 || (i % 3 == 0 && !held.is_empty()) {
                                let name = *held.last().expect("nonempty");
                                match catch_unwind(AssertUnwindSafe(|| array.free(name))) {
                                    // `free` is all-or-nothing: success pops...
                                    Ok(()) => {
                                        held.pop();
                                    }
                                    Err(payload) => match classify(payload) {
                                        Caught::Died => return held,
                                        // ...and an unwind means it never
                                        // happened — retry next round.
                                        Caught::RolledBack => {}
                                    },
                                }
                            } else if i % 5 == 4 {
                                out.clear();
                                match catch_unwind(AssertUnwindSafe(|| {
                                    array.get_many(&mut rng, 3, &mut out)
                                })) {
                                    Ok(_) => {
                                        held.extend(out.drain(..).map(|got| got.name()));
                                    }
                                    Err(payload) => match classify(payload) {
                                        Caught::Died => return held,
                                        Caught::RolledBack => {
                                            assert!(
                                                out.is_empty(),
                                                "get_many unwound but left wins behind"
                                            );
                                        }
                                    },
                                }
                            } else {
                                match catch_unwind(AssertUnwindSafe(|| array.try_get(&mut rng))) {
                                    Ok(Some(got)) => held.push(got.name()),
                                    Ok(None) => {}
                                    Err(payload) => match classify(payload) {
                                        Caught::Died => return held,
                                        Caught::RolledBack => {}
                                    },
                                }
                            }
                        }
                        // Graceful shutdown: drain everything, still under fire.
                        free_batch_with_recovery(array, &mut held);
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker hit a genuine panic"))
                .collect()
        });

        assert!(
            la_fault::hits_total() > 0,
            "the storm never hit a failpoint"
        );
        la_fault::reset();

        // The registered set is exactly what the dead clients still hold.
        let held: HashSet<Name> = array.collect().into_iter().collect();
        let orphan_set: HashSet<Name> = orphans.iter().copied().collect();
        assert_eq!(orphan_set.len(), orphans.len(), "orphan name duplicated");
        assert_eq!(
            held, orphan_set,
            "Collect after the storm disagrees with the dead clients' holdings"
        );

        // Recovery: free the `Collect` entries no live client holds (with
        // every live client drained, all of them), and the array must come
        // back spotless.
        for name in held {
            array.free(name);
        }
        assert!(array.collect().is_empty(), "names leaked through the storm");
    }

    #[test]
    fn storm_level_array_rolls_back_to_exactly_the_orphan_set() {
        let seed = seed(0xD15EA5E);
        let _gate = armed(FaultPlan::storm(seed));
        let array = LevelArray::new(64);
        run_storm(&array, seed, 4, 400);
        la_fault::reset();
    }

    #[test]
    fn storm_sharded_array_rolls_back_to_exactly_the_orphan_set() {
        let seed = seed(0x5EED_CAFE);
        let _gate = armed(FaultPlan::storm(seed));
        let array = ShardedLevelArray::new(64, 4);
        run_storm(&array, seed, 4, 400);
        la_fault::reset();
    }

    #[test]
    fn storm_elastic_array_rolls_back_and_epochs_still_collapse() {
        let seed = seed(0xE1A5_71C0);
        let _gate = armed(FaultPlan::storm(seed));
        let array = ElasticLevelArray::new(8, GrowthPolicy::Doubling { max_epochs: 4 });
        run_storm(&array, seed, 4, 400);
        // With the array empty and the faults cleared, retirement must make
        // progress back down to a single epoch.
        for _ in 0..64 {
            if array.num_epochs() == 1 {
                break;
            }
            array.try_retire();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(array.num_epochs(), 1, "drained epochs failed to retire");
        la_fault::reset();
    }

    #[test]
    fn combiner_storm_hands_off_and_never_wedges() {
        let _gate = armed(FaultPlan::storm(seed(0xFC0_FA11)).only_sites("flatcombine"));
        let threads = 4;
        let per_thread = 300u64;
        let fc = Arc::new(FlatCombining::new(
            Arc::new(LevelArray::new(threads)),
            0u64,
            guarded_adder,
        ));

        let applied_for_sure: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let fc = Arc::clone(&fc);
                    scope.spawn(move || {
                        let mut rng = default_rng(900 + t as u64);
                        let session = fc.join(&mut rng);
                        let mut confirmed = 0u64;
                        for _ in 0..per_thread {
                            match catch_unwind(AssertUnwindSafe(|| session.execute(1))) {
                                Ok(_) => confirmed += 1,
                                Err(payload) => match classify(payload) {
                                    // Dying drops the session: its record is
                                    // quiesced and its slot freed.
                                    Caught::Died => break,
                                    // A post-publication unwind may or may
                                    // not have been combined; the counter
                                    // bounds below absorb the ambiguity.
                                    Caught::RolledBack => {}
                                },
                            }
                        }
                        confirmed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker hit a genuine panic"))
                .sum()
        });

        assert!(la_fault::hits_total() > 0);
        la_fault::reset();

        // Every confirmed op applied exactly once; unwound ops at most once.
        let total = fc.with_sequential(|s| *s);
        assert!(
            total >= applied_for_sure && total <= threads as u64 * per_thread,
            "sum {total} outside [{applied_for_sure}, {}]",
            threads as u64 * per_thread
        );
        // No slot leaked, no lock wedged: a fresh session still combines.
        assert!(fc.registry().collect().is_empty());
        let mut rng = default_rng(999);
        let session = fc.join(&mut rng);
        assert_eq!(session.execute(1), total);
        drop(session);
        assert!(fc.registry().collect().is_empty());
        la_fault::reset();
    }

    /// A batched `Get` that unwinds between two epoch tags: the slice it
    /// was serving held-counts nothing until its tag loop completes, so
    /// the rollback frees the slice's wins — tagged and untagged alike —
    /// without touching the count.  Afterwards every live epoch's held
    /// count is exact, nothing is left registered, and the drained older
    /// epoch still retires.
    #[test]
    fn a_batch_unwinding_mid_tag_leaves_exact_held_counts() {
        let _gate = armed(FaultPlan::count_only(1));
        let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 4 });
        let mut rng = default_rng(31);

        // Grow to a second epoch, keep epoch 0's names, free the rest: the
        // newest epoch is empty and the next batch is served from it.
        let mut out = Vec::new();
        assert_eq!(array.get_many(&mut rng, 20, &mut out), 20);
        assert_eq!(array.num_epochs(), 2, "the batch must have grown once");
        let (old, grown): (Vec<Name>, Vec<Name>) = out
            .iter()
            .map(|got| got.name())
            .partition(|n| n.epoch() == 0);
        array.free_many(&grown);
        let newest = array.newest_epoch();
        assert_eq!(array.epoch_held(newest), Some(0));

        // The third tag of the next batch panics, after the kernel won all
        // six slots and two of them were tagged.
        la_fault::reset();
        la_fault::arm_site("elastic::tag_many", 3, FaultAction::Panic);
        let mut batch = Vec::new();
        let unwound = catch_unwind(AssertUnwindSafe(|| array.get_many(&mut rng, 6, &mut batch)))
            .expect_err("the armed tag must unwind");
        assert_eq!(
            la_fault::injected_site(unwound.as_ref()),
            Some("elastic::tag_many")
        );
        la_fault::reset();
        assert!(batch.is_empty(), "the unwound batch returned names");
        assert_eq!(
            array.epoch_held(newest),
            Some(0),
            "the unwound slice left a held count behind"
        );
        assert_eq!(array.epoch_held(0), Some(old.len()));

        // Freeing epoch 0's names drains it; its last free schedules the
        // retirement, and the explicit pass covers a deferred one.
        array.free_many(&old);
        for epoch in array.epoch_ids() {
            assert_eq!(array.epoch_held(epoch), Some(0), "epoch {epoch}");
        }
        assert!(array.collect().is_empty(), "the unwound batch leaked slots");
        array.try_retire();
        assert_eq!(array.epoch_ids(), vec![newest], "epoch 0 never retired");
        la_fault::reset();
    }

    /// The ISSUE's adversarial acceptance test: with the stuck-pin
    /// threshold at zero, a paused (stuck) pinner makes every retirement
    /// pass fail its grace check and arm the backoff — and the watchdog
    /// must **never** unlink the epoch the pinner can still see.  Once the
    /// pin releases and the backoff expires, retirement makes progress.
    #[test]
    fn watchdog_defers_but_never_unlinks_under_a_live_pin() {
        let _gate = armed(FaultPlan::count_only(1));
        let array = Arc::new(
            LevelArrayConfig::new(1)
                .growth(GrowthPolicy::Doubling { max_epochs: 4 })
                .auto_retire(false)
                .stuck_pin_threshold_ms(0)
                .build_elastic()
                .expect("valid configuration"),
        );

        // Grow to a second epoch and drain the first, so epoch 0 is
        // retirable the moment the grace protocol allows it.
        let mut rng = default_rng(5);
        let mut names = Vec::new();
        while array.num_epochs() < 2 {
            match array.try_get(&mut rng) {
                Some(got) => names.push(got.name()),
                None => break,
            }
        }
        assert!(array.num_epochs() >= 2, "the array never grew");
        let anchor = names
            .iter()
            .copied()
            .find(|n| n.epoch() > 0)
            .expect("a grown-epoch name");
        for name in names {
            if name != anchor {
                array.free(name);
            }
        }

        // Manufacture the stuck pin: the next pin parks inside the chain,
        // guard held, until released.
        la_fault::reset();
        la_fault::arm_site("epoch_chain::pinned", 1, FaultAction::Pause);
        let stuck = {
            let array = Arc::clone(&array);
            std::thread::spawn(move || {
                let mut rng = default_rng(6);
                // Parks at the pinned site; completes after release_paused.
                let got = array.try_get(&mut rng);
                if let Some(got) = got {
                    array.free(got.name());
                }
            })
        };
        await_parked("the pinner");

        // Hammer retirement under the stuck pin.  Grace can never pass, so
        // nothing may be retired, the epoch count may not drop, and the
        // backoff must start deferring passes outright.
        let epochs_before = array.num_epochs();
        for _ in 0..200 {
            assert_eq!(array.try_retire(), 0, "retired under a live pin");
            assert_eq!(
                array.num_epochs(),
                epochs_before,
                "the watchdog unlinked an epoch a live pinner holds"
            );
        }
        let pinned_report = array.robustness_report();
        assert!(
            pinned_report.deferred_retirements > 0,
            "the backoff never engaged: {pinned_report:?}"
        );
        assert!(
            pinned_report.oldest_pin_age_ms.is_some(),
            "the stuck pin is invisible: {pinned_report:?}"
        );

        // Release the pinner; the stuck pin drains.
        la_fault::release_paused();
        stuck.join().expect("the stuck pinner panicked");
        array.free(anchor);

        // Once the pin expired and the (capped, ≤ ~1 s) backoff drained,
        // retirement makes progress again.
        for _ in 0..100 {
            if array.num_epochs() == 1 {
                break;
            }
            array.try_retire();
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(
            array.num_epochs(),
            1,
            "retirement never recovered after the stuck pin expired"
        );
        let report = array.robustness_report();
        assert_eq!(report.oldest_pin_age_ms, None);
        la_fault::reset();
    }

    /// A payload that counts how many times the domain frees it.
    struct DropCounter(Arc<AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Waits (up to ~2 s) until one thread is parked by a `Pause` trigger.
    fn await_parked(who: &str) {
        for _ in 0..2000 {
            if la_fault::paused_count() == 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(la_fault::paused_count(), 1, "{who} never parked");
    }

    /// A reclamation pass swaps the retire list out before it takes its
    /// `Collect`.  Parked between the two, the pass must leave a node
    /// retired meanwhile for a later pass: that node's reader pinned after
    /// the swap, but before the `Collect`, and a pass that collected first
    /// would free the node under it.
    #[test]
    fn a_pass_swaps_the_retire_list_out_before_it_collects() {
        let _gate = armed(FaultPlan::count_only(1));
        let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(4))));
        let drops = Arc::new(AtomicUsize::new(0));

        la_fault::arm_site("reclaim::gathered", 1, FaultAction::Pause);
        let pass = {
            let domain = Arc::clone(&domain);
            std::thread::spawn(move || domain.try_reclaim())
        };
        await_parked("the pass");

        // Neither call takes the limbo lock the parked pass holds.
        let mut rng = default_rng(21);
        let guard = domain.pin(&mut rng);
        domain.retire(Box::new(DropCounter(Arc::clone(&drops))));

        la_fault::release_paused();
        assert_eq!(
            pass.join().expect("the parked pass panicked"),
            0,
            "the parked pass freed a node retired under a live pin"
        );
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed by the parked pass");
        assert_eq!(domain.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live pin");
        assert_eq!(domain.stats().in_limbo, 1);

        drop(guard);
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        la_fault::reset();
    }

    /// A pass that unwinds between the swap and the `Collect` leaves the
    /// swapped nodes in limbo, and its pass number unspent: the next pass
    /// reuses it, so a reader first seen by that pass still holds the bag.
    #[test]
    fn a_pass_that_unwinds_after_the_swap_keeps_the_swapped_nodes() {
        let _gate = armed(FaultPlan::count_only(1));
        let domain = ReclaimDomain::new(Arc::new(LevelArray::new(4)));
        let drops = Arc::new(AtomicUsize::new(0));

        // One pass completes with nothing pinned; the reader pins after it
        // and before the node is retired.
        assert_eq!(domain.try_reclaim(), 0);
        let mut rng = default_rng(22);
        let reader = domain.pin(&mut rng);
        domain.retire(Box::new(DropCounter(Arc::clone(&drops))));

        // Clear the first pass's hit, so the trigger fires on the next one.
        la_fault::reset();
        la_fault::arm_site("reclaim::gathered", 1, FaultAction::Panic);
        let unwound = catch_unwind(AssertUnwindSafe(|| domain.try_reclaim()))
            .expect_err("the armed pass must unwind");
        assert_eq!(
            la_fault::injected_site(unwound.as_ref()),
            Some("reclaim::gathered")
        );
        assert_eq!(domain.stats().in_limbo, 1, "the swapped node was lost");

        assert_eq!(domain.try_reclaim(), 0, "freed under a live pin");
        assert_eq!(domain.try_reclaim(), 0, "freed under a live pin");
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(reader);
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        let stats = domain.stats();
        assert_eq!(stats.in_limbo, 0);
        assert_eq!(stats.reclaim_passes, 4, "the unwound pass counted");
        la_fault::reset();
    }

    /// The same unwind with nodes on two retire stripes: the pass has
    /// swapped both out when it unwinds, and both stay in limbo until the
    /// reader unpins.
    #[test]
    fn a_pass_that_unwinds_after_swapping_two_stripes_keeps_both() {
        let _gate = armed(FaultPlan::count_only(1));
        let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(4))));
        let drops = Arc::new(AtomicUsize::new(0));

        assert_eq!(domain.try_reclaim(), 0);
        let mut rng = default_rng(24);
        let reader = domain.pin(&mut rng);
        // Two new threads retire one node each.  Nothing else runs under
        // the gate, so they take consecutive thread tokens, and a thread's
        // stripe is its token modulo the stripe count: two stripes.
        let tokens: Vec<usize> = (0..2)
            .map(|_| {
                let domain = Arc::clone(&domain);
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    domain.retire(Box::new(DropCounter(drops)));
                    thread_token()
                })
                .join()
                .expect("a retiring thread panicked")
            })
            .collect();
        assert_eq!(tokens[1], tokens[0] + 1, "the retires may share a stripe");

        la_fault::reset();
        la_fault::arm_site("reclaim::gathered", 1, FaultAction::Panic);
        let unwound = catch_unwind(AssertUnwindSafe(|| domain.try_reclaim()))
            .expect_err("the armed pass must unwind");
        assert_eq!(
            la_fault::injected_site(unwound.as_ref()),
            Some("reclaim::gathered")
        );
        assert_eq!(domain.stats().in_limbo, 2, "a swapped node was lost");

        assert_eq!(domain.try_reclaim(), 0, "freed under a live pin");
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(reader);
        assert_eq!(domain.try_reclaim(), 2);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        let stats = domain.stats();
        assert_eq!(stats.in_limbo, 0);
        assert_eq!(stats.reclaim_passes, 3, "the unwound pass counted");
        la_fault::reset();
    }

    /// `retire` type-erases its payload before its fault site, so a retire
    /// that unwinds there leaks the node: nothing drops the payload, not a
    /// pass and not the domain, and neither `retired` nor `in_limbo` counts
    /// it.  The next retire and pass work as before.
    #[test]
    fn a_retire_that_unwinds_leaks_its_node_and_counts_nothing() {
        let _gate = armed(FaultPlan::count_only(1));
        let domain = ReclaimDomain::new(Arc::new(LevelArray::new(4)));
        let leaked = Arc::new(AtomicUsize::new(0));
        let drops = Arc::new(AtomicUsize::new(0));
        let mut rng = default_rng(23);
        let reader = domain.pin(&mut rng);

        la_fault::arm_site("reclaim::retire", 1, FaultAction::Panic);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            domain.retire(Box::new(DropCounter(Arc::clone(&leaked))))
        }))
        .expect_err("the armed retire must unwind");
        assert_eq!(
            la_fault::injected_site(unwound.as_ref()),
            Some("reclaim::retire")
        );
        let stats = domain.stats();
        assert_eq!((stats.retired, stats.in_limbo), (0, 0), "{stats:?}");

        domain.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(domain.try_reclaim(), 0, "freed under a live pin");
        drop(reader);
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        let stats = domain.stats();
        assert_eq!(
            (stats.retired, stats.freed, stats.in_limbo),
            (1, 1, 0),
            "{stats:?}"
        );
        drop(domain);
        assert_eq!(leaked.load(Ordering::SeqCst), 0, "the payload was dropped");
        la_fault::reset();
    }
}
