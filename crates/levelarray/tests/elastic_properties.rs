//! Property-based tests for the `ElasticLevelArray`: uniqueness of
//! epoch-tagged names across growth events for every `(threads, n)`
//! combination, sequentially (full drains through the growth path and the
//! capped-fallback path) and under concurrent get/free traffic.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use larng::default_rng;
use levelarray::{ActivityArray, GrowthPolicy, LevelArrayConfig, Name, SlotLayout};

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
    #![proptest_config(cases(32))]

    /// Acquiring far beyond the initial bound grows the chain, every name is
    /// a fresh (epoch, index) pair, frees route back by tag, and draining
    /// retires everything but the newest epoch — under both slot layouts.
    #[test]
    fn growth_hands_out_unique_epoch_tagged_names(
        n in 1usize..8,
        max_epochs in 2usize..5,
        pin_stripes in 1usize..5,
        layout in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let array = LevelArrayConfig::new(n)
            .growth(GrowthPolicy::Doubling { max_epochs })
            .pin_stripes(pin_stripes)
            .slot_layout(layout_axis(layout))
            .build_elastic()
            .unwrap();
        // Per-epoch capacity for the default config is 3 * bound, so the
        // whole chain (bounds n, 2n, ... 2^(k-1) n) holds:
        let total_capacity = 3 * n * ((1 << max_epochs) - 1);
        let mut rng = default_rng(seed);
        let mut held = HashSet::new();
        // Randomized probing may transiently miss free slots, so a None is a
        // retry; the bound keeps a broken implementation from spinning.
        for _ in 0..total_capacity * 4_000 {
            if held.len() == total_capacity {
                break;
            }
            if let Some(got) = array.try_get(&mut rng) {
                let name = got.name();
                prop_assert!(name.epoch() < max_epochs, "epoch beyond the cap");
                prop_assert!(held.insert(name), "duplicate name {}", name);
            }
        }
        prop_assert_eq!(held.len(), total_capacity);
        prop_assert_eq!(array.num_epochs(), max_epochs);
        prop_assert!(array.try_get(&mut rng).is_none(),
            "a full capped chain must report exhaustion");
        // Every live epoch contributed its exact capacity.
        for (i, &epoch) in array.epoch_ids().iter().enumerate() {
            let from_epoch = held.iter().filter(|h| h.epoch() == epoch).count();
            prop_assert_eq!(from_epoch, 3 * n * (1 << i));
        }
        // Frees route by tag; draining retires all but the newest epoch.
        for &name in &held {
            array.free(name);
        }
        let _ = array.try_retire();
        prop_assert_eq!(array.num_epochs(), 1);
        prop_assert!(array.collect().is_empty());
        // Quiescent reclamation converges for every stripe count.
        prop_assert_eq!(array.pending_reclamation(), 0);
    }

    /// A Fixed-policy elastic array is behaviorally a plain LevelArray:
    /// same capacity, epoch-0 names only, exhaustion instead of growth.
    #[test]
    fn fixed_policy_never_grows(n in 1usize..24, seed in any::<u64>()) {
        let array = LevelArrayConfig::new(n).build_elastic().unwrap();
        let plain = LevelArrayConfig::new(n).build().unwrap();
        prop_assert_eq!(array.capacity(), plain.capacity());
        let mut rng = default_rng(seed);
        let mut held = Vec::new();
        for _ in 0..array.capacity() * 4_000 {
            if held.len() == array.capacity() {
                break;
            }
            if let Some(got) = array.try_get(&mut rng) {
                prop_assert_eq!(got.name().epoch(), 0);
                held.push(got.name());
            }
        }
        prop_assert_eq!(held.len(), array.capacity());
        prop_assert!(array.try_get(&mut rng).is_none());
        prop_assert_eq!(array.num_epochs(), 1);
        for name in held {
            array.free(name);
        }
    }
}

proptest! {
    #![proptest_config(cases(8))]

    /// Concurrent get/free from several threads racing the growth path: no
    /// (epoch, index) pair is ever held by two threads at once, for
    /// arbitrary (threads, n).
    #[test]
    fn concurrent_churn_across_growth_never_duplicates_names(
        threads in 2usize..5,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let array = Arc::new(
            LevelArrayConfig::new(n)
                .growth(GrowthPolicy::Doubling { max_epochs: 8 })
                .build_elastic()
                .unwrap(),
        );
        let live = Arc::new(Mutex::new(HashSet::<Name>::new()));
        let duplicates = Arc::new(AtomicUsize::new(0));
        // Each thread holds up to 3n names — together well beyond the
        // initial epoch, so growth happens while others churn.
        let quota = 3 * n;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let array = Arc::clone(&array);
                let live = Arc::clone(&live);
                let duplicates = Arc::clone(&duplicates);
                scope.spawn(move || {
                    let mut rng =
                        default_rng(seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15));
                    let mut mine = Vec::new();
                    for _ in 0..100 {
                        while mine.len() < quota {
                            let name = array.get(&mut rng).name();
                            if !live.lock().unwrap().insert(name) {
                                duplicates.fetch_add(1, Ordering::Relaxed);
                            }
                            mine.push(name);
                        }
                        while let Some(name) = mine.pop() {
                            live.lock().unwrap().remove(&name);
                            array.free(name);
                        }
                    }
                });
            }
        });
        prop_assert_eq!(duplicates.load(Ordering::Relaxed), 0);
        prop_assert!(array.collect().is_empty());
        let _ = array.try_retire();
        prop_assert_eq!(array.num_epochs(), 1);
        prop_assert_eq!(array.pending_reclamation(), 0);
    }
}
