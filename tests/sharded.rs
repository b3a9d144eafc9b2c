//! Root integration tests for the `ShardedLevelArray`: the paper's
//! uniqueness-within-capacity invariant over the sharded global namespace,
//! under oversubscription and stealing, exercised through the umbrella crate
//! exactly the way an application would.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use levelarray_suite::core::Name;
use levelarray_suite::rng::{default_rng, SequenceRng};
use levelarray_suite::{ActivityArray, ShardedLevelArray};

/// The acceptance invariant: with 16 threads hammering `try_get`, every name
/// of the global namespace is acquirable exactly once across shards — the
/// drain oversubscribes every home shard, so the tail of the fill can only
/// complete through the steal path — and no name is ever handed out twice.
#[test]
fn sixteen_threads_drain_every_name_exactly_once_across_shards() {
    let threads = 16;
    let array = Arc::new(ShardedLevelArray::new(32, 4));
    let capacity = array.capacity();

    // One claim flag per global name; a duplicate hand-out trips the swap.
    let claimed: Arc<Vec<AtomicBool>> =
        Arc::new((0..capacity).map(|_| AtomicBool::new(false)).collect());
    let acquired_total = Arc::new(AtomicUsize::new(0));
    let duplicates = Arc::new(AtomicUsize::new(0));

    let mut all_names: Vec<Name> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let array = Arc::clone(&array);
            let claimed = Arc::clone(&claimed);
            let acquired_total = Arc::clone(&acquired_total);
            let duplicates = Arc::clone(&duplicates);
            handles.push(scope.spawn(move || {
                let mut rng = default_rng(0x5A4D + t as u64);
                let mut mine = Vec::new();
                // Keep probing until the whole namespace is handed out.
                // Individual try_gets may miss transiently (randomized
                // probing), so a None is a retry, not a stop — unless the
                // global count shows the drain is complete.
                while acquired_total.load(Ordering::SeqCst) < capacity {
                    if let Some(got) = array.try_get(&mut rng) {
                        let idx = got.name().index();
                        assert!(idx < capacity, "name {idx} out of the namespace");
                        if claimed[idx].swap(true, Ordering::SeqCst) {
                            duplicates.fetch_add(1, Ordering::SeqCst);
                        }
                        acquired_total.fetch_add(1, Ordering::SeqCst);
                        mine.push(got.name());
                    }
                }
                mine
            }));
        }
        for handle in handles {
            all_names.extend(handle.join().expect("worker panicked"));
        }
    });

    assert_eq!(duplicates.load(Ordering::SeqCst), 0, "duplicate names");
    assert_eq!(
        all_names.len(),
        capacity,
        "every name handed out exactly once"
    );
    assert!(claimed.iter().all(|c| c.load(Ordering::SeqCst)));
    // The array is saturated: nothing more to give.
    let mut rng = default_rng(99);
    assert!(array.try_get(&mut rng).is_none());
    // Collect sees the full namespace; freeing everything empties it.
    assert_eq!(array.collect().len(), capacity);
    for name in all_names {
        array.free(name);
    }
    assert!(array.collect().is_empty());
}

/// The steal path, deterministically: a `Get` routed to an exhausted home
/// shard walks to the neighbour and is charged the failed shard's full
/// deterministic probe budget on the way.  The calling thread is the first
/// to touch the array, so its sticky home token pins it to shard 0.
#[test]
fn exhausted_home_shard_steals_from_its_neighbour() {
    let array = ShardedLevelArray::new(8, 2);
    assert_eq!(array.home_shard(), 0, "first thread pins shard 0");
    for local in 0..array.shard_capacity() {
        assert!(array.force_occupy(Name::new(local)));
    }
    let core0 = array.shard_core(0);
    let geometry = core0.geometry();
    // Script the RNG: every randomized probe in (pinned) shard 0 aims at
    // (held) slot 0 of its batch, then shard 1's first probe wins slot 0.
    let mut script = Vec::new();
    for b in 0..geometry.num_batches() {
        for _ in 0..core0.probes_per_batch() {
            script.push(levelarray_suite::rng::mock::raw_for_index(
                0,
                geometry.batch_len(b) as u64,
            ));
        }
    }
    script.push(levelarray_suite::rng::mock::raw_for_index(
        0,
        geometry.batch_len(0) as u64,
    ));
    let mut rng = SequenceRng::new(script);

    let got = array.get(&mut rng);
    assert_eq!(array.shard_of(got.name()), 1);
    assert_eq!(got.probes(), core0.exhausted_probe_count() + 1);
    array.free(got.name());
}

/// Sequential sanity: the sharded array over-subscribed far beyond its
/// contention bound still hands out at most `capacity` unique names and
/// reports exhaustion afterwards.
#[test]
fn oversubscription_saturates_at_capacity_with_unique_names() {
    let array = ShardedLevelArray::new(12, 3);
    let mut rng = default_rng(5);
    let mut held = std::collections::HashSet::new();
    for _ in 0..200_000 {
        if held.len() == array.capacity() {
            break;
        }
        if let Some(got) = array.try_get(&mut rng) {
            assert!(held.insert(got.name()), "duplicate {}", got.name());
        }
    }
    assert_eq!(held.len(), array.capacity());
    assert!(array.try_get(&mut rng).is_none());
}
