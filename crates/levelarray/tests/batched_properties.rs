//! Property-based tests for the batched kernels: `get_many` uniqueness under
//! arbitrary sequential batched schedules across slot layouts and facades,
//! and no double-claim under multi-threaded batched churn.

use larng::default_rng;
use levelarray::{ActivityArray, GrowthPolicy, LevelArrayConfig, Name, SlotLayout};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};

/// Decodes a proptest draw into one of the two slot layouts (same axis as
/// the `properties` suite).
fn layout_axis(draw: u16) -> SlotLayout {
    if draw % 2 == 0 {
        SlotLayout::WordPerSlot
    } else {
        SlotLayout::Packed
    }
}

/// Drives an arbitrary batched schedule against one array: each op either
/// acquires a batch of up to `k` names or releases a random sub-batch of the
/// held set, checking after every step that the names handed out are unique,
/// the census matches the model, and `collect` sees exactly the held set.
fn drive_batched_schedule(
    array: &dyn ActivityArray,
    seed: u64,
    quota: usize,
    ops: &[u16],
) -> Result<(), TestCaseError> {
    let mut rng = default_rng(seed);
    let mut held: Vec<Name> = Vec::new();
    let mut out: Vec<levelarray::Acquired> = Vec::new();

    for &op in ops {
        let register = (op % 2 == 0 && held.len() < quota) || held.is_empty();
        if register {
            let k = 1 + (op as usize / 2) % 8;
            let k = k.min(quota - held.len()).max(1);
            out.clear();
            let won = array.get_many(&mut rng, k, &mut out);
            prop_assert!(won <= k, "won {} of a batch of {}", won, k);
            prop_assert_eq!(won, out.len());
            for got in &out {
                prop_assert!(
                    !held.contains(&got.name()),
                    "duplicate name {} in batch",
                    got.name()
                );
                held.push(got.name());
            }
        } else {
            let m = 1 + (op as usize / 2) % held.len().clamp(1, 8);
            let m = m.min(held.len());
            let mut victims = Vec::with_capacity(m);
            for _ in 0..m {
                victims.push(held.swap_remove((op as usize) % held.len().max(1)));
            }
            array.free_many(&victims);
        }
        let mut collected = array.collect();
        collected.sort();
        let mut expected = held.clone();
        expected.sort();
        prop_assert_eq!(collected, expected);
        prop_assert_eq!(array.occupancy().total_occupied(), held.len());
    }
    // Drain with one bulk release; the structure must come back empty.
    array.free_many(&held);
    prop_assert_eq!(array.occupancy().total_occupied(), 0);
    Ok(())
}

proptest! {
    /// Flat facade: batched schedules hand out unique names and keep the
    /// census exact for every slot layout.
    #[test]
    fn flat_batched_schedules_stay_unique(
        seed in any::<u64>(),
        n in 1usize..64,
        layout in any::<u16>(),
        ops in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        let array = LevelArrayConfig::new(n)
            .slot_layout(layout_axis(layout))
            .build()
            .unwrap();
        drive_batched_schedule(&array, seed, n, &ops)?;
    }

    /// Sharded facade: the whole-batch home-shard routing with ring-order
    /// spill preserves the same uniqueness and census contract.
    #[test]
    fn sharded_batched_schedules_stay_unique(
        seed in any::<u64>(),
        n in 2usize..48,
        shards in 1usize..5,
        layout in any::<u16>(),
        ops in proptest::collection::vec(any::<u16>(), 1..150),
    ) {
        let array = LevelArrayConfig::new(n)
            .slot_layout(layout_axis(layout))
            .build_sharded(shards)
            .unwrap();
        drive_batched_schedule(&array, seed, n, &ops)?;
    }

    /// Elastic facade: batches that straddle growth events (quota well above
    /// the seed capacity) still never double-issue a name, and draining
    /// bulk releases keep the epoch census exact.
    #[test]
    fn elastic_batched_schedules_stay_unique_across_growth(
        seed in any::<u64>(),
        n in 1usize..8,
        layout in any::<u16>(),
        ops in proptest::collection::vec(any::<u16>(), 1..120),
    ) {
        let array = LevelArrayConfig::new(n)
            .slot_layout(layout_axis(layout))
            .growth(GrowthPolicy::Doubling { max_epochs: 4 })
            .build_elastic()
            .unwrap();
        drive_batched_schedule(&array, seed, n * 8, &ops)?;
    }
}

/// Eight threads churning whole batches against one packed flat array: every
/// name a `get_many` hands out is inserted into a shared claim set and must
/// not already be present (no double-claim), and is only removed when its
/// `free_many` batch actually releases it.
#[test]
fn eight_thread_batched_churn_never_double_claims() {
    let threads = 8usize;
    let rounds = if cfg!(miri) { 8 } else { 400 };
    let k = 6usize;
    let array = Arc::new(
        LevelArrayConfig::new(threads * k + threads)
            .slot_layout(SlotLayout::Packed)
            .build()
            .unwrap(),
    );
    let claimed: Arc<Mutex<HashSet<Name>>> = Arc::new(Mutex::new(HashSet::new()));
    let barrier = Arc::new(Barrier::new(threads));

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let array = Arc::clone(&array);
            let claimed = Arc::clone(&claimed);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = default_rng(0x8A7C + t as u64);
                let mut out = Vec::with_capacity(k);
                barrier.wait();
                for round in 0..rounds {
                    out.clear();
                    let won = array.get_many(&mut rng, k, &mut out);
                    assert_eq!(won, out.len());
                    let names: Vec<Name> = out.iter().map(|g| g.name()).collect();
                    {
                        let mut set = claimed.lock().unwrap();
                        for name in &names {
                            assert!(
                                set.insert(*name),
                                "thread {t} round {round}: name {name} double-claimed"
                            );
                        }
                    }
                    // Unregister from the shared set *before* the actual
                    // release — another thread can only re-win a slot after
                    // free_many lands, so removal-first cannot race a fresh
                    // claim into a false positive.
                    {
                        let mut set = claimed.lock().unwrap();
                        for name in &names {
                            set.remove(name);
                        }
                    }
                    array.free_many(&names);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(array.occupancy().total_occupied(), 0);
    assert!(claimed.lock().unwrap().is_empty());
}
