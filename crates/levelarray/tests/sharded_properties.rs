//! Property-based tests for the `ShardedLevelArray`: global-uniqueness of the
//! sharded namespace over every `(shards, n)` combination, sequentially (full
//! drains that force the steal path) and under concurrent get/free traffic
//! from all shards.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use larng::default_rng;
use levelarray::{ActivityArray, LevelArrayConfig, Name, ShardedLevelArray, SlotLayout};
use proptest::prelude::*;

fn cases(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 2 } else { n })
}

/// Decodes a proptest draw into one of the two slot layouts.
fn layout_axis(draw: u16) -> SlotLayout {
    if draw % 2 == 0 {
        SlotLayout::WordPerSlot
    } else {
        SlotLayout::Packed
    }
}

proptest! {
    #![proptest_config(cases(48))]

    /// Draining the array hands out every global name exactly once, for every
    /// (shards, n, layout) combination: the tail of the drain can only
    /// complete by stealing from non-home shards, so the steal path is always
    /// exercised — under both slot layouts.
    #[test]
    fn every_shards_n_combination_drains_to_unique_names(
        shards in 1usize..6,
        n in 1usize..40,
        layout in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let array = LevelArrayConfig::new(n)
            .slot_layout(layout_axis(layout))
            .build_sharded(shards)
            .unwrap();
        prop_assert_eq!(array.num_shards(), shards);
        prop_assert_eq!(array.shard_contention(), n.div_ceil(shards));
        let mut rng = default_rng(seed);
        let mut held = HashSet::new();
        // Randomized probing may miss free slots on any given attempt, so a
        // None is a retry; the bound keeps a broken implementation from
        // spinning forever.
        for _ in 0..array.capacity() * 4_000 {
            if held.len() == array.capacity() {
                break;
            }
            if let Some(got) = array.try_get(&mut rng) {
                prop_assert!(got.name().index() < array.capacity(),
                    "name {} outside the namespace", got.name());
                prop_assert!(held.insert(got.name()),
                    "duplicate name {}", got.name());
            }
        }
        prop_assert_eq!(held.len(), array.capacity());
        prop_assert!(array.try_get(&mut rng).is_none());
        // Shard mapping is consistent: freeing through the global name
        // empties the exact slot collect saw.
        for &name in &held {
            array.free(name);
        }
        prop_assert!(array.collect().is_empty());
    }

    /// A home shard force-exhausted up front never produces a name from
    /// itself, and the steal path keeps names globally unique.
    #[test]
    fn steal_from_exhausted_home_preserves_uniqueness(
        shards in 2usize..6,
        n in 2usize..32,
        seed in any::<u64>(),
    ) {
        let array = LevelArrayConfig::new(n).build_sharded(shards).unwrap();
        for local in 0..array.shard_capacity() {
            prop_assert!(array.force_occupy(Name::new(local)));
        }
        let mut rng = default_rng(seed);
        let mut held = HashSet::new();
        for _ in 0..array.capacity() * 4_000 {
            if held.len() == array.capacity() - array.shard_capacity() {
                break;
            }
            if let Some(got) = array.try_get(&mut rng) {
                prop_assert!(array.shard_of(got.name()) != 0,
                    "shard 0 is full yet produced {}", got.name());
                prop_assert!(held.insert(got.name()));
            }
        }
        prop_assert_eq!(held.len(), array.capacity() - array.shard_capacity());
    }
}

proptest! {
    #![proptest_config(cases(8))]

    /// Concurrent get/free from all shards: no global name is ever held by
    /// two threads at once, for arbitrary (shards, n).
    #[test]
    fn concurrent_churn_never_duplicates_global_names(
        shards in 1usize..5,
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        let threads = n.min(4);
        let array = Arc::new(ShardedLevelArray::new(n, shards));
        let claimed: Arc<Vec<AtomicBool>> = Arc::new(
            (0..array.capacity()).map(|_| AtomicBool::new(false)).collect(),
        );
        let duplicates = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let array = Arc::clone(&array);
                let claimed = Arc::clone(&claimed);
                let duplicates = Arc::clone(&duplicates);
                scope.spawn(move || {
                    let mut rng = default_rng(seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15));
                    for _ in 0..300 {
                        let got = array.get(&mut rng);
                        let idx = got.name().index();
                        if claimed[idx].swap(true, Ordering::SeqCst) {
                            duplicates.fetch_add(1, Ordering::SeqCst);
                        }
                        claimed[idx].store(false, Ordering::SeqCst);
                        array.free(got.name());
                    }
                });
            }
        });
        prop_assert_eq!(duplicates.load(Ordering::SeqCst), 0);
        prop_assert!(array.collect().is_empty());
    }
}
