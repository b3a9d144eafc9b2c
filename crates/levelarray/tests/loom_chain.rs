//! Deterministic interleaving verification of the elastic epoch chain.
//!
//! Compiled only under `RUSTFLAGS="--cfg la_loom"` (see `make loom`), this
//! suite drives the *real* library code — `ElasticLevelArray`, `EpochChain`
//! and everything beneath them — through `la_sync::model`, which enumerates
//! every thread interleaving (and every stale-read branch the C11 memory
//! model permits for non-SeqCst loads) within a preemption bound.  Each
//! `model(..)` closure is one small litmus scenario around the seal → grace
//! → census → unlink retirement protocol; an assertion failure in *any*
//! explored schedule fails the test and prints the schedule's choice path.
//!
//! The central invariant, shared by several models below: **a name returned
//! by `Get` always belongs to a live epoch.**  The protocol enforces it with
//! a sequentially consistent seal CAS; the seeded ordering mutant
//! (`--cfg la_loom_weak_seal`, `make loom-mutant`) weakens that CAS to
//! `Relaxed`, which legalizes a schedule where a hinted re-acquire misses
//! the seal after the retirement census and claims a slot in an epoch that
//! is then unlinked.  These tests must fail under the mutant — that is the
//! suite's own soundness check.
#![cfg(la_loom)]

use std::sync::Arc;

use larng::default_rng;
use levelarray::{
    Acquired, ActivityArray, ChainRace, ElasticLevelArray, EpochChain, GrowthPolicy,
    LevelArrayConfig,
};

/// The smallest interesting elastic array: contention bound 1 (two main
/// slots + one backup per the space factor), doubling growth capped at
/// `max_epochs`, retirement under explicit test control, and the Free→Get
/// hint cache on — the hinted re-acquire path is the seal race's sharpest
/// edge.
///
/// **Two** pin stripes, deliberately: the round-robin stripe tokens land
/// the model's two worker threads on *different* stripes.  With a single
/// shared stripe, the retirer's post-seal pin-release and the getter's
/// later pin-acquire form an RMW release/acquire chain on that stripe
/// counter which happens-before-orders even a `Relaxed` seal — incidental
/// synchronization that masks the seeded `la_loom_weak_seal` mutant.  The
/// protocol's claim is that the *SeqCst seal itself* carries the argument
/// for arbitrary stripe assignments, so the model must separate the
/// stripes to test it.
fn elastic(max_epochs: usize) -> Arc<ElasticLevelArray> {
    Arc::new(
        LevelArrayConfig::new(1)
            .growth(GrowthPolicy::Doubling { max_epochs })
            .auto_retire(false)
            .free_hint(true)
            .pin_stripes(2)
            .build_elastic()
            .expect("valid model configuration"),
    )
}

/// Saturates epoch 0 and opens epoch 1, returning the epoch-0 names and the
/// epoch-1 anchor that keeps the chain from collapsing to a single node.
/// Randomized probing may route past free main slots to the backup and
/// declare saturation early, so the epoch-0 haul is whatever the seeded
/// probe sequence wins (at least one name) rather than a fixed count; the
/// single-threaded, fixed-seed setup makes it identical on every explored
/// schedule.
fn saturate_epoch0(array: &ElasticLevelArray) -> (Vec<Acquired>, Acquired) {
    let mut rng = default_rng(7);
    let mut e0 = Vec::new();
    loop {
        let got = array.try_get(&mut rng).expect("the chain can still grow");
        if got.name().epoch() == 1 {
            assert!(!e0.is_empty(), "the first Get must land in epoch 0");
            return (e0, got);
        }
        e0.push(got);
    }
}

/// The mutant-catching model.  Thread A frees the last epoch-0 name (arming
/// its Free→Get hint) and immediately re-acquires; thread B runs a full
/// retirement pass.  Under the correct SeqCst seal, every schedule ends with
/// A's name in a live epoch: either A revived epoch 0 before B could seal it
/// (B's held-scan or census sees the claim), or A observed the seal and was
/// routed to epoch 1.  Under `la_loom_weak_seal`, A's SeqCst `is_sealed`
/// load may legally return the stale `false` written before B's *relaxed*
/// seal CAS even though B has already passed grace and census — A then
/// claims a slot in an epoch B proceeds to unlink, and the final liveness
/// assertion fails.
#[test]
fn seal_vs_hinted_reacquire_keeps_names_in_live_epochs() {
    la_sync::model(|| {
        let array = elastic(2);
        let (e0, anchor) = saturate_epoch0(&array);
        // Drain epoch 0 down to one held name; A frees + re-gets that one.
        for a in &e0[1..] {
            array.free(a.name());
        }
        let last = e0[0].name();

        let a = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || {
                let mut rng = default_rng(11);
                array.free(last);
                array
                    .try_get(&mut rng)
                    .expect("epochs 0 and 1 both have capacity")
                    .name()
            })
        };
        let b = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || array.try_retire())
        };
        let got = a.join().unwrap();
        let retired = b.join().unwrap();

        let live = array.epoch_ids();
        assert!(
            live.contains(&got.epoch()),
            "Get returned {got} from epoch {} but the live epochs are \
             {live:?} (retired this pass: {retired}) — a registration \
             escaped the retirement census",
            got.epoch()
        );
        // The name must also be freeable (a name in an unlinked epoch
        // panics in cell_for), and the anchor is untouched throughout.
        array.free(got);
        assert_eq!(anchor.name().epoch(), 1);
        array.free(anchor.name());
    });
}

/// A free racing a retirement pass: thread A releases the *last* held name
/// of epoch 0 while thread B retires.  B may only retire epoch 0 if it
/// observes A's decrement (held == 0) — so every schedule ends in one of
/// exactly two states: epoch 0 retired, or epoch 0 live and fully drained.
#[test]
fn last_free_vs_retirement_reaches_a_consistent_state() {
    la_sync::model(|| {
        let array = elastic(2);
        let (e0, anchor) = saturate_epoch0(&array);
        for a in &e0[1..] {
            array.free(a.name());
        }
        let last = e0[0].name();

        let a = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || array.free(last))
        };
        let b = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || array.try_retire())
        };
        a.join().unwrap();
        let retired = b.join().unwrap();

        let live = array.epoch_ids();
        match retired {
            0 => {
                assert_eq!(live, vec![0, 1], "no retirement: both epochs live");
                assert_eq!(array.epoch_held(0), Some(0), "epoch 0 is drained");
            }
            1 => assert_eq!(live, vec![1], "epoch 0 retired cleanly"),
            n => panic!("retired {n} epochs out of one candidate"),
        }
        // The structure still serves: a fresh Get lands in a live epoch.
        let mut rng = default_rng(13);
        let again = array.try_get(&mut rng).expect("capacity available");
        assert!(array.epoch_ids().contains(&again.name().epoch()));
        array.free(again.name());
        array.free(anchor.name());
    });
}

/// The batched path under the same race: thread A frees its epoch-0 name
/// and claims a batch of two (`get_many` — one hint consult plus the
/// word-level multi-claim kernels) while thread B retires.  Every name of
/// the batch must come out of a live epoch.
#[test]
fn get_many_vs_retirement_stays_in_live_epochs() {
    la_sync::model(|| {
        let array = elastic(2);
        let (e0, anchor) = saturate_epoch0(&array);
        for a in &e0[1..] {
            array.free(a.name());
        }
        let last = e0[0].name();

        let a = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || {
                let mut rng = default_rng(17);
                array.free(last);
                let mut out = Vec::new();
                let won = array.get_many(&mut rng, 2, &mut out);
                assert_eq!(won, 2, "epochs 0 and 1 hold enough free slots");
                out.into_iter().map(|a| a.name()).collect::<Vec<_>>()
            })
        };
        let b = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || array.try_retire())
        };
        let names = a.join().unwrap();
        let retired = b.join().unwrap();

        let live = array.epoch_ids();
        for name in &names {
            assert!(
                live.contains(&name.epoch()),
                "get_many returned {name} from epoch {} but the live epochs \
                 are {live:?} (retired this pass: {retired})",
                name.epoch()
            );
        }
        array.free_many(&names);
        array.free(anchor.name());
    });
}

/// Striped held counters: two threads on different pin stripes (see
/// [`elastic`]) concurrently free the last two names of the non-newest
/// epoch 0, with auto-retire on.  Each free decrements its own stripe's
/// counter and then sums every stripe; in every schedule the later
/// decrement's sum must read zero, so its free either retires epoch 0
/// itself or — when a pass loses the grace race to the other thread —
/// leaves the maintenance flag set.  A final free of the epoch-1 anchor
/// runs the pass such a flag asks for, so epoch 0 must be gone after it.
#[test]
fn cross_stripe_last_frees_retire_or_flag_the_drained_epoch() {
    la_sync::model(|| {
        let array = Arc::new(
            LevelArrayConfig::new(1)
                .growth(GrowthPolicy::Doubling { max_epochs: 2 })
                .pin_stripes(2)
                .build_elastic()
                .expect("valid model configuration"),
        );
        let (e0, anchor) = saturate_epoch0(&array);
        assert!(e0.len() >= 2, "the seeded probes win two epoch-0 names");
        for a in &e0[2..] {
            array.free(a.name());
        }
        let free_on_thread = |name| {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || array.free(name))
        };
        let a = free_on_thread(e0[0].name());
        let b = free_on_thread(e0[1].name());
        a.join().unwrap();
        b.join().unwrap();

        array.free(anchor.name());
        assert_eq!(
            array.epoch_ids(),
            vec![1],
            "epoch 0 drained but neither last free retired it or left the \
             maintenance flag set"
        );
        assert_eq!(array.epoch_held(1), Some(0));
    });
}

/// A getter racing an explicit shrink: the shrink publishes a smaller
/// epoch 2 over the head while A routes its probe through whatever head it
/// observes.  The claim must land in a live epoch and stay freeable, and
/// the chain must hold whichever of {2, 3} epochs the CAS race produced.
#[test]
fn shrink_vs_getter_keeps_the_claim_live() {
    la_sync::model(|| {
        let array = elastic(3);
        let (e0, anchor) = saturate_epoch0(&array);
        for a in &e0 {
            array.free(a.name());
        }

        let a = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || {
                let mut rng = default_rng(19);
                array.try_get(&mut rng).expect("plenty of capacity").name()
            })
        };
        let b = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || array.try_shrink())
        };
        let got = a.join().unwrap();
        let shrank = b.join().unwrap();

        let live = array.epoch_ids();
        assert!(
            live.contains(&got.epoch()),
            "Get returned {got} outside the live epochs {live:?}"
        );
        if shrank {
            assert_eq!(array.newest_epoch(), 2, "shrink published epoch 2");
            assert_eq!(array.epoch_contention(2), Some(1), "half of epoch 1");
        }
        array.free(got);
        array.free(anchor.name());
    });
}

/// Schedules of [`spare_reuse_vs_pinned_reader_keeps_names_in_live_epochs`]
/// in which the shrink could take epoch 0's retired cell: the retirement
/// unlinked it and its collection left no snapshot pending.  Plain std:
/// a tally across executions, invisible to the model.
static REUSABLE_SCHEDULES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The spare against a reader pinned on the old snapshot.  Thread A frees
/// the last epoch-0 name, re-acquires through its Free→Get hint and
/// collects; thread B retires, then shrinks to bound 1, the bound of epoch
/// 0's cell.  The shrink takes that cell as epoch 2 once the retirement has
/// unlinked it and no snapshot that reached it is left, which depends on
/// where A's pins fall.  In every schedule A's name is in a live epoch and
/// A's collect sees exactly its name and the anchor, no tag is live twice,
/// and the held counts match the census.
#[test]
fn spare_reuse_vs_pinned_reader_keeps_names_in_live_epochs() {
    la_sync::model(|| {
        let array = elastic(3);
        let (e0, anchor) = saturate_epoch0(&array);
        for a in &e0[1..] {
            array.free(a.name());
        }
        let last = e0[0].name();

        let a = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || {
                let mut rng = default_rng(23);
                array.free(last);
                let got = array
                    .try_get(&mut rng)
                    .expect("every epoch has capacity")
                    .name();
                (got, array.collect())
            })
        };
        let b = {
            let array = Arc::clone(&array);
            la_sync::thread::spawn(move || {
                let retired = array.try_retire();
                if retired == 1 && array.pending_reclamation() == 0 {
                    REUSABLE_SCHEDULES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                (retired, array.try_shrink())
            })
        };
        let (got, mut seen) = a.join().unwrap();
        let (retired, shrank) = b.join().unwrap();

        let live = array.epoch_ids();
        assert!(
            live.windows(2).all(|w| w[0] < w[1]),
            "a tag is live twice: {live:?}"
        );
        assert!(
            live.contains(&got.epoch()),
            "Get returned {got} from epoch {} but the live epochs are \
             {live:?} (retired {retired}, shrank {shrank})",
            got.epoch()
        );
        let mut held = vec![got, anchor.name()];
        held.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, held, "the reader's collect");
        let mut census = array.collect();
        census.sort_unstable();
        assert_eq!(census, held, "the final collect");
        for &epoch in &live {
            let count = held.iter().filter(|n| n.epoch() == epoch).count();
            assert_eq!(array.epoch_held(epoch), Some(count), "epoch {epoch}");
        }
        assert!(shrank, "nothing else publishes, so the shrink wins its CAS");
        assert_eq!(array.epoch_contention(2), Some(1));
        array.free(got);
        array.free(anchor.name());
    });
    assert!(
        REUSABLE_SCHEDULES.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no explored schedule left the retired cell free for the shrink"
    );
}

/// Two concurrent growers on the raw chain: each CAS-publishes exactly one
/// node, retrying against whatever head it observes.  Every schedule must
/// end with both values present exactly once above the root — the "losers
/// discard their cell and route into the winner's" argument.
#[test]
fn concurrent_growers_publish_exactly_once() {
    la_sync::model(|| {
        let chain = Arc::new(EpochChain::with_stripes(0usize, 1));
        let push = |value: usize| {
            let chain = Arc::clone(&chain);
            la_sync::thread::spawn(move || loop {
                let pin = chain.pin();
                let head = pin.head();
                if pin.try_push(head, value) {
                    return;
                }
            })
        };
        let a = push(1);
        let b = push(2);
        a.join().unwrap();
        b.join().unwrap();

        let pin = chain.pin();
        let mut values: Vec<usize> = pin.iter().map(|n| *n.value()).collect();
        assert_eq!(values.len(), 3, "root + exactly one node per pusher");
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2]);
    });
}

/// Pin versus unlink-and-collect on the raw chain: thread A holds a pin
/// over the old snapshot while thread B replaces it and tries to collect
/// the garbage.  The displaced node must never drop while A's pin can
/// still reach it — A re-checks the drop flag *after* dereferencing its
/// snapshot — and must drop eventually once the chain quiesces.
#[test]
fn pin_vs_unlink_never_frees_a_reachable_snapshot() {
    use la_sync::atomic::{AtomicUsize, Ordering};

    struct Flagged {
        id: usize,
        dropped: Arc<AtomicUsize>,
    }
    impl Drop for Flagged {
        fn drop(&mut self) {
            if self.id == 0 {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    impl Clone for Flagged {
        fn clone(&self) -> Self {
            Flagged {
                id: self.id,
                dropped: Arc::clone(&self.dropped),
            }
        }
    }

    la_sync::model(|| {
        let dropped = Arc::new(AtomicUsize::new(0));
        let chain = Arc::new(EpochChain::with_stripes(
            Flagged {
                id: 0,
                dropped: Arc::clone(&dropped),
            },
            1,
        ));

        let a = {
            let chain = Arc::clone(&chain);
            let dropped = Arc::clone(&dropped);
            la_sync::thread::spawn(move || {
                let pin = chain.pin();
                // Walk to the oldest node of our snapshot.  When the pin
                // lands before B's unlink, the snapshot reaches node 0 and
                // that node must still be alive after we dereference it;
                // when the pin lands after both the unlink and a completed
                // collection, the snapshot is rooted at node 1 and node 0
                // may already (correctly) be gone.
                let oldest = pin.iter().last().expect("chain is never empty").value();
                if oldest.id == 0 {
                    assert_eq!(
                        dropped.load(Ordering::SeqCst),
                        0,
                        "node 0 dropped while a pin could still reach it"
                    );
                }
            })
        };
        let b = {
            let chain = Arc::clone(&chain);
            la_sync::thread::spawn(move || {
                loop {
                    let pin = chain.pin();
                    let head = pin.head();
                    let value = Flagged {
                        id: 1,
                        dropped: Arc::clone(&head.value().dropped),
                    };
                    if pin.try_push(head, value) {
                        break;
                    }
                }
                // Unlink node 0; ChainRace means A-side traffic moved the
                // head, which never happens here (A only reads), so one
                // retry loop suffices for the model regardless.
                loop {
                    let pin = chain.pin();
                    match pin.try_remove(|v| v.id != 0) {
                        Ok(removed) => {
                            assert_eq!(removed, 1);
                            break;
                        }
                        Err(ChainRace) => continue,
                    }
                }
                chain.try_collect_garbage()
            })
        };
        a.join().unwrap();
        b.join().unwrap();

        // Quiescent: the displaced snapshot is collectable exactly once.
        while chain.pending_garbage() > 0 {
            assert!(chain.no_active_pins());
            chain.try_collect_garbage();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "node 0 must drop once");
        let pin = chain.pin();
        assert_eq!(pin.num_nodes(), 1);
        assert_eq!(pin.head().value().id, 1);
    });
}
