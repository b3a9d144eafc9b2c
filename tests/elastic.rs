//! Root integration tests for the `ElasticLevelArray`: the acceptance
//! scenario of the elastic-renaming issue, driven through the umbrella crate
//! exactly the way an application would.
//!
//! An array started at `n = 8` serves 16 threads × 64 emulated ids with zero
//! `Get` failures, grows through at least two new epochs, preserves
//! uniqueness across every growth event, and retires the fully drained
//! epochs (observable via per-epoch occupancy reaching zero and the epoch
//! count shrinking).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use levelarray_suite::rng::{default_rng, RandomSource};
use levelarray_suite::{ActivityArray, ElasticLevelArray, GrowthPolicy, LevelArrayConfig, Name};

#[test]
fn sixteen_threads_grow_the_bound_with_unique_names_and_retire_drained_epochs() {
    let threads = 16;
    let emulated_per_thread = 64; // 1024 concurrent holders vs initial n = 8
    let array = Arc::new(ElasticLevelArray::new(
        8,
        GrowthPolicy::Doubling { max_epochs: 10 },
    ));
    assert_eq!(array.num_epochs(), 1);
    assert_eq!(array.initial_contention(), 8);

    // Phase 1: every thread registers 64 emulated ids and holds them all.
    let failures = Arc::new(AtomicUsize::new(0));
    let per_thread: Vec<Vec<Name>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let array = Arc::clone(&array);
                let failures = Arc::clone(&failures);
                scope.spawn(move || {
                    let mut rng = default_rng(0xACCE97 + t as u64);
                    let mut mine = Vec::with_capacity(emulated_per_thread);
                    while mine.len() < emulated_per_thread {
                        match array.try_get(&mut rng) {
                            Some(got) => mine.push(got.name()),
                            None => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Zero Get failures: growth absorbed the whole oversubscription.
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "a Get failed despite the growth policy"
    );

    // Uniqueness across every growth event: all 1024 simultaneously held
    // names are distinct (epoch, index) pairs.
    let all: Vec<Name> = per_thread.into_iter().flatten().collect();
    assert_eq!(all.len(), threads * emulated_per_thread);
    let unique: HashSet<Name> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "duplicate name handed out");

    // The chain grew through at least two new epochs (8 -> 16 -> 32 ...).
    assert!(
        array.epochs_opened() >= 3,
        "expected >= 2 growth events, saw {}",
        array.epochs_opened() - 1
    );
    assert!(array.num_epochs() >= 3);
    let epochs_used: HashSet<usize> = all.iter().map(|n| n.epoch()).collect();
    assert!(epochs_used.len() >= 3, "names should span several epochs");

    // The census sees every holder, per epoch, and collect() agrees.
    let snap = array.occupancy();
    assert_eq!(snap.total_occupied(), all.len());
    for &epoch in &array.epoch_ids() {
        let tagged = all.iter().filter(|n| n.epoch() == epoch).count();
        assert_eq!(snap.epoch_occupied(epoch), tagged);
    }
    let collected: HashSet<Name> = array.collect().into_iter().collect();
    assert_eq!(collected, unique);

    // Phase 2: drain the *old* epochs completely while the newest keeps its
    // holders.  Each old epoch's occupancy reaches zero and — via the
    // collect-snapshot proof — the epoch count shrinks.
    let epochs_before = array.num_epochs();
    let newest = array.newest_epoch();
    for name in all.iter().filter(|n| n.epoch() != newest) {
        array.free(*name);
    }
    let _ = array.try_retire();
    assert!(
        array.num_epochs() < epochs_before,
        "drained epochs must retire ({} -> {})",
        epochs_before,
        array.num_epochs()
    );
    assert_eq!(array.num_epochs(), 1, "only the newest epoch survives");
    assert!(array.epochs_retired() >= 2);
    // Per-epoch occupancy of the retired generations is gone from the
    // census; the survivor still holds the newest-epoch names.
    let snap = array.occupancy();
    assert_eq!(snap.epoch_ids(), vec![newest]);
    let newest_held = all.iter().filter(|n| n.epoch() == newest).count();
    assert_eq!(snap.epoch_occupied(newest), newest_held);

    // Tear down: the newest epoch's names free cleanly; the array is empty.
    for name in all.iter().filter(|n| n.epoch() == newest) {
        array.free(*name);
    }
    assert!(array.collect().is_empty());
    assert_eq!(array.occupancy().total_occupied(), 0);
}

/// Churn across a growth boundary: names from old epochs keep freeing and
/// re-registering (into the newest epoch) while the chain grows, and no
/// (epoch, index) pair is ever held twice at once.
#[test]
fn churn_across_growth_events_never_duplicates_live_names() {
    let threads = 8;
    let array = Arc::new(ElasticLevelArray::new(
        4,
        GrowthPolicy::Doubling { max_epochs: 8 },
    ));
    let live: Arc<std::sync::Mutex<HashSet<Name>>> =
        Arc::new(std::sync::Mutex::new(HashSet::new()));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let array = Arc::clone(&array);
            let live = Arc::clone(&live);
            scope.spawn(move || {
                let mut rng = default_rng(0xC4A1 + t as u64);
                let mut mine: Vec<Name> = Vec::new();
                for round in 0..200 {
                    // Ramp the per-thread holding up and down so the chain
                    // grows under pressure and old epochs drain.
                    let target = if round % 40 < 20 { 12 } else { 2 };
                    while mine.len() < target {
                        let name = array.get(&mut rng).name();
                        let mut set = live.lock().unwrap();
                        assert!(set.insert(name), "name {name} already live");
                        mine.push(name);
                    }
                    while mine.len() > target {
                        let name = mine.pop().unwrap();
                        live.lock().unwrap().remove(&name);
                        array.free(name);
                    }
                }
                for name in mine.drain(..) {
                    live.lock().unwrap().remove(&name);
                    array.free(name);
                }
            });
        }
    });
    assert!(live.lock().unwrap().is_empty());
    assert!(array.collect().is_empty());
    assert!(
        array.epochs_opened() >= 2,
        "the ramp must have forced at least one growth event"
    );
    // Whatever the churn left behind, retirement converges to one epoch.
    let _ = array.try_retire();
    assert_eq!(array.num_epochs(), 1);
}

/// An elastic array (auto-retire on, the default) whose per-epoch held
/// counters are striped over two pin stripes.  Threads take stripe tokens
/// round-robin on their first pin, so two threads that first pin one after
/// the other land on different stripes.
fn two_stripe_array() -> Arc<ElasticLevelArray> {
    Arc::new(
        LevelArrayConfig::new(4)
            .growth(GrowthPolicy::Doubling { max_epochs: 8 })
            .pin_stripes(2)
            .build_elastic()
            .expect("valid configuration"),
    )
}

/// Names won on one thread and freed on another: a Get counts on the
/// winner's stripe and a Free on the releaser's, so single stripe counters
/// go "negative" — only their sum is the held count.  Four threads win
/// names, keep every fifth, and hand the rest around a ring to be freed by
/// the next thread; at quiescence `epoch_held` must equal the kept names
/// of each live epoch exactly.
#[test]
fn held_counts_stay_exact_when_names_cross_pin_stripes() {
    use std::sync::mpsc;

    let threads = 4;
    let per_thread = 300;
    let array = two_stripe_array();
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..threads).map(|_| mpsc::channel::<Name>()).unzip();
    let kept: Vec<Name> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(t, inbox)| {
                let array = Arc::clone(&array);
                let next = senders[(t + 1) % threads].clone();
                scope.spawn(move || {
                    let mut rng = default_rng(0x57A1 + t as u64);
                    let mut kept = Vec::new();
                    for i in 0..per_thread {
                        let name = array.get(&mut rng).name();
                        if i % 5 == 0 {
                            kept.push(name);
                        } else {
                            next.send(name).expect("the ring is open");
                        }
                        while let Ok(theirs) = inbox.try_recv() {
                            array.free(theirs);
                        }
                    }
                    drop(next);
                    (kept, inbox)
                })
            })
            .collect();
        drop(senders);
        let mut kept = Vec::new();
        for handle in handles {
            let (mine, inbox) = handle.join().expect("worker panicked");
            kept.extend(mine);
            // Every sender is gone now: drain what is left in flight.
            for theirs in inbox {
                array.free(theirs);
            }
        }
        kept
    });
    assert!(array.epochs_opened() >= 2, "the ring must force growth");
    let collected: HashSet<Name> = array.collect().into_iter().collect();
    assert_eq!(collected, kept.iter().copied().collect::<HashSet<_>>());
    for epoch in array.epoch_ids() {
        let expected = kept.iter().filter(|n| n.epoch() == epoch).count();
        assert_eq!(
            array.epoch_held(epoch),
            Some(expected),
            "epoch {epoch}: the striped held count drifted from the kept names"
        );
    }
    for name in kept {
        array.free(name);
    }
    for epoch in array.epoch_ids() {
        assert_eq!(array.epoch_held(epoch), Some(0));
    }
}

/// The last free of a non-newest epoch, issued from a different pin
/// stripe than the epoch's Gets, must still see the epoch drained — its own
/// stripe reads minus the epoch's size, the getter's stripe plus — and
/// retire it through auto-retire, with no explicit `try_retire`.  Each round
/// frees from a fresh thread; fresh threads take consecutive stripe tokens,
/// so at least one of three rounds frees from the other stripe whatever
/// stripe this test thread landed on.
#[test]
fn last_free_from_another_stripe_retires_the_drained_epoch() {
    for round in 0..3u64 {
        let array = two_stripe_array();
        let mut rng = default_rng(0x1A57 + round);
        let mut old = Vec::new();
        let anchor = loop {
            let name = array.get(&mut rng).name();
            if name.epoch() == 1 {
                break name;
            }
            old.push(name);
        };
        assert_eq!(array.epoch_ids(), vec![0, 1]);
        assert_eq!(array.epoch_held(0), Some(old.len()));
        let freer = Arc::clone(&array);
        std::thread::spawn(move || {
            for name in old {
                freer.free(name);
            }
        })
        .join()
        .expect("freeing thread panicked");
        assert_eq!(
            array.epoch_ids(),
            vec![1],
            "round {round}: the drained epoch 0 was not retired by its last free"
        );
        assert_eq!(array.epochs_retired(), 1);
        array.free(anchor);
        assert_eq!(array.epoch_held(1), Some(0));
    }
}

/// `perfbench`'s elastic facade at the `bursty` bound of 256: an initial
/// epoch of bound 32, doubling up to 8 live epochs, with a 25% shrink
/// watermark.
fn bursty_elastic() -> ElasticLevelArray {
    LevelArrayConfig::new(32)
        .growth(GrowthPolicy::Doubling { max_epochs: 8 })
        .shrink_watermark(0.25)
        .build_elastic()
        .expect("valid elastic configuration")
}

/// The shape of one `bursty` cycle, for a single worker holding the whole
/// load: names held between bursts, names held at the peak, the batch
/// size of the climb, and the singleton pairs of the low phase.
const BURST_LOW: usize = 26;
const BURST_HIGH: usize = 230;
const BURST_BATCH: usize = 16;
const BURST_LOW_PAIRS: usize = 512;

/// One low-phase pair: a singleton `Get`, then a `Free` of the oldest
/// held name, so the held set rotates out of any epoch left behind.
fn low_pair(array: &ElasticLevelArray, rng: &mut impl RandomSource, held: &mut VecDeque<Name>) {
    held.push_back(array.get(rng).name());
    let oldest = held.pop_front().expect("the low phase holds names");
    array.free(oldest);
}

/// One `bursty` cycle on one thread: climb to [`BURST_HIGH`] names by
/// `get_many`, release back to [`BURST_LOW`] with one `free_many`, then
/// churn [`BURST_LOW_PAIRS`] singleton pairs.  Returns how many names the
/// climb's `get_many` calls came back short.
fn burst_cycle(
    array: &ElasticLevelArray,
    rng: &mut impl RandomSource,
    held: &mut VecDeque<Name>,
) -> usize {
    let mut short = 0;
    let mut out = Vec::with_capacity(BURST_BATCH);
    while held.len() < BURST_HIGH {
        let k = (BURST_HIGH - held.len()).min(BURST_BATCH);
        out.clear();
        let won = array.get_many(rng, k, &mut out);
        short += k - won;
        held.extend(out.iter().map(|got| got.name()));
        if won == 0 {
            break;
        }
    }
    let released: Vec<Name> = held.drain(BURST_LOW..).collect();
    ActivityArray::free_many(array, &released);
    for _ in 0..BURST_LOW_PAIRS {
        low_pair(array, rng, held);
    }
    short
}

/// Runs `cycles` burst cycles from a [`BURST_LOW`] prefill, asserting that
/// every climb filled, and returns the names held afterwards.  `after`
/// sees each cycle's number once the cycle has finished.
fn run_bursts(
    array: &ElasticLevelArray,
    seed: u64,
    cycles: usize,
    mut after: impl FnMut(usize),
) -> VecDeque<Name> {
    let mut rng = default_rng(seed);
    let mut held: VecDeque<Name> = (0..BURST_LOW).map(|_| array.get(&mut rng).name()).collect();
    for cycle in 0..cycles {
        let short = burst_cycle(array, &mut rng, &mut held);
        assert_eq!(
            short,
            0,
            "cycle {cycle}: get_many came back {short} names short after {} epochs opened",
            array.epochs_opened()
        );
        after(cycle);
    }
    held
}

/// A burst that recurs keeps its epoch.  Each cycle's climb outgrows a
/// 64-bound epoch and grows to 128, and each low phase sits under the
/// watermark.  The `free_many` that releases a burst samples the census
/// before it releases, so it sees the burst and restarts the low streak.
/// The one shrink that does fire, in the first low phase, is undone by the
/// next climb, and that grow sets the shrink patience to its capped window
/// (2¹⁰ times the bound, in frees), which no low phase outlasts.  So the
/// chain settles within the first cycles — the initial epoch, the grows to
/// 64 and 128, the shrink to 64 and the grow that undoes it — and spends
/// no epoch tag from cycle 50 to cycle 2000.
///
/// A load whose low phases outlast the capped window still publishes a
/// grow/shrink pair per burst, so recycling retired tags — the ROADMAP's
/// tag-recycling item — stays open.
#[test]
fn recurring_bursts_keep_their_epoch() {
    let array = bursty_elastic();
    let settled = 50;
    let mut opened = 0;
    let mut held = run_bursts(&array, 0xB025_7001, 2000, |cycle| {
        if cycle + 1 == settled {
            opened = array.epochs_opened();
        } else if cycle >= settled {
            assert_eq!(
                array.epochs_opened(),
                opened,
                "cycle {cycle} opened an epoch after the chain settled"
            );
        }
    });
    assert_eq!(
        opened, 5,
        "the first {settled} cycles opened {opened} epochs"
    );
    ActivityArray::free_many(&array, held.make_contiguous());
}

/// The backoff delays shrinking but never disables it: after the same 600
/// burst cycles, low churn alone still shrinks the chain below the burst
/// bound within the capped patience window (2¹⁰ times the bound, in
/// frees), and the oversized epoch retires once its names rotate out.
#[test]
fn low_churn_after_recurring_bursts_still_shrinks_the_chain() {
    let array = bursty_elastic();
    let mut held = run_bursts(&array, 0xB025_7001, 600, |_| {});
    let mut rng = default_rng(0x10_C4C2);
    // 230 names outgrow a 64-bound epoch (capacity 192), so the bursts
    // settle on a 128-bound one.
    let burst_bound = 128;
    assert_eq!(
        array.epoch_contention(array.newest_epoch()),
        Some(burst_bound),
        "the bursts left their epoch serving"
    );
    // The patience window at the backoff's cap, plus one sample stride.
    let limit = (1 << 10) * burst_bound + 16;
    let mut pairs = 0;
    while array.epoch_contention(array.newest_epoch()) == Some(burst_bound) {
        assert!(
            pairs < limit,
            "{pairs} low pairs never shrank the {burst_bound}-bound epoch"
        );
        low_pair(&array, &mut rng, &mut held);
        pairs += 1;
    }
    for _ in 0..BURST_LOW {
        low_pair(&array, &mut rng, &mut held);
    }
    array.try_retire();
    assert_eq!(array.num_epochs(), 1, "the burst epoch never retired");
    let bound = array
        .epoch_contention(array.newest_epoch())
        .expect("the newest epoch is live");
    assert!(
        bound < burst_bound,
        "the chain kept the {bound}-bound epoch"
    );
    ActivityArray::free_many(&array, held.make_contiguous());
}
