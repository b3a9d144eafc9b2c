//! Property-based tests for the `levelarray` crate: geometry invariants,
//! renaming correctness under arbitrary sequential schedules, and statistics
//! consistency.

use larng::{default_rng, RandomSource};
use levelarray::balance::{is_overcrowded, overcrowding_threshold, tracked_batches};
use levelarray::geometry::BatchGeometry;
use levelarray::{
    ActivityArray, GetStats, LevelArray, LevelArrayConfig, Name, ProbePolicy, SlotLayout, TasKind,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Decodes a proptest draw into one of the two slot layouts.
fn layout_axis(draw: u16) -> SlotLayout {
    if draw % 2 == 0 {
        SlotLayout::WordPerSlot
    } else {
        SlotLayout::Packed
    }
}

proptest! {
    /// The batch geometry always partitions the main array exactly, with
    /// non-empty batches in increasing index order, for arbitrary n, space
    /// factor, and first-batch fraction.
    #[test]
    fn geometry_partitions_the_array(
        n in 1usize..5_000,
        factor in 1.0f64..8.0,
        fraction in 0.05f64..0.95,
    ) {
        let main_len = ((n as f64) * factor).floor().max(1.0) as usize;
        let g = BatchGeometry::new(main_len, fraction).unwrap();
        prop_assert_eq!(g.main_len(), main_len);
        let mut cursor = 0usize;
        for (i, range) in g.batches().enumerate() {
            prop_assert_eq!(range.start, cursor);
            prop_assert!(range.end > range.start, "batch {} empty", i);
            cursor = range.end;
        }
        prop_assert_eq!(cursor, main_len);
        // batch_of is consistent with the ranges.
        for (i, range) in g.batches().enumerate() {
            prop_assert_eq!(g.batch_of(range.start), i);
            prop_assert_eq!(g.batch_of(range.end - 1), i);
        }
    }

    /// Batch sizes never increase after batch 1 (geometric shrinking).
    #[test]
    fn geometry_batches_shrink(n in 2usize..5_000) {
        let g = BatchGeometry::for_contention(n);
        for i in 2..g.num_batches() {
            // Allow the final batch to absorb rounding slack of +1 relative to
            // the previous batch only when it is the last one.
            if i + 1 < g.num_batches() {
                prop_assert!(g.batch_len(i) <= g.batch_len(i - 1), "n={} i={}", n, i);
            }
        }
    }

    /// The paper's exact layout for the default configuration: batch 0 holds
    /// floor(3n/2) slots and the total main length is 2n.  (When the array is
    /// so small that batch 0 is the *only* batch, it additionally absorbs the
    /// rounding remainder, so the claim applies from two batches upward.)
    #[test]
    fn geometry_first_batch_is_three_halves_n(n in 1usize..10_000) {
        let g = BatchGeometry::for_contention(n);
        prop_assert_eq!(g.main_len(), 2 * n);
        if g.num_batches() >= 2 {
            prop_assert_eq!(g.batch_len(0), (3 * n) / 2);
        }
    }

    /// Overcrowding thresholds decrease doubly exponentially in the batch
    /// index and are never defined for batch 0.
    #[test]
    fn overcrowding_thresholds_decrease(n in 4usize..1_000_000) {
        prop_assert_eq!(overcrowding_threshold(n, 0), None);
        let mut previous = usize::MAX;
        for j in 1..tracked_batches(n) {
            if let Some(t) = overcrowding_threshold(n, j) {
                prop_assert!(t <= previous, "n={} j={}", n, j);
                prop_assert_eq!(t, n >> ((1usize << j) + 1));
                previous = t;
            }
        }
        // Untracked batches are never judged overcrowded.
        prop_assert!(!is_overcrowded(n, tracked_batches(n), usize::MAX / 2));
    }

    /// Long-lived renaming correctness under an arbitrary sequential schedule:
    /// no duplicate names while held, frees always succeed, collect returns
    /// exactly the held set, and probe counts stay within the wait-free bound
    /// — for both slot layouts.
    #[test]
    fn sequential_schedule_correctness(
        seed in any::<u64>(),
        n in 1usize..64,
        layout in any::<u16>(),
        ops in proptest::collection::vec(any::<u16>(), 1..400),
    ) {
        let array = LevelArrayConfig::new(n)
            .slot_layout(layout_axis(layout))
            .build()
            .unwrap();
        let mut rng = default_rng(seed);
        let mut held: Vec<Name> = Vec::new();

        // Wait-free bound on probes: one probe per batch plus the whole backup.
        let max_probes = array.geometry().num_batches() as u32 + array.backup_len() as u32;

        for op in ops {
            let register = (op % 2 == 0 && held.len() < n) || held.is_empty();
            if register {
                let got = array.get(&mut rng);
                prop_assert!(got.probes() <= max_probes);
                prop_assert!(!held.contains(&got.name()), "duplicate name {}", got.name());
                held.push(got.name());
            } else {
                let victim = held.swap_remove((op as usize) % held.len());
                array.free(victim);
            }
            // Collect returns exactly the held set (sequential execution, so
            // the census is exact).
            let mut collected = array.collect();
            collected.sort();
            let mut expected = held.clone();
            expected.sort();
            prop_assert_eq!(collected, expected);
            prop_assert_eq!(array.occupancy().total_occupied(), held.len());
        }
    }

    /// The array never hands out more names than its capacity and recovers the
    /// full capacity after mass frees, regardless of probe policy, TAS kind
    /// and slot layout.
    #[test]
    fn fill_then_drain_restores_capacity(
        seed in any::<u64>(),
        n in 1usize..48,
        probes in 1u32..4,
        swap_tas in any::<bool>(),
        layout in any::<u16>(),
    ) {
        let array = LevelArrayConfig::new(n)
            .probes_per_batch(probes)
            .tas_kind(if swap_tas { TasKind::Swap } else { TasKind::CompareExchange })
            .slot_layout(layout_axis(layout))
            .build()
            .unwrap();
        let mut rng = default_rng(seed);
        let mut held = HashSet::new();
        // Try hard to fill the whole structure (randomized probing may need
        // several attempts per remaining slot).
        for _ in 0..array.capacity() * 50 {
            if let Some(got) = array.try_get(&mut rng) {
                prop_assert!(held.insert(got.name()));
                if held.len() == array.capacity() {
                    break;
                }
            }
        }
        prop_assert_eq!(held.len(), array.capacity());
        prop_assert!(array.try_get(&mut rng).is_none());
        for name in held.drain() {
            array.free(name);
        }
        prop_assert_eq!(array.collect().len(), 0);
        prop_assert!(array.try_get(&mut rng).is_some());
    }

    /// GetStats aggregates are consistent with a straightforward recomputation
    /// from the individual operations.
    #[test]
    fn stats_match_direct_computation(
        seed in any::<u64>(),
        n in 1usize..64,
        gets in 1usize..300,
    ) {
        let array = LevelArray::new(n);
        let mut rng = default_rng(seed);
        let mut stats = GetStats::new();
        let mut probes = Vec::new();
        for i in 0..gets {
            let got = array.get(&mut rng);
            stats.record(&got);
            probes.push(got.probes());
            // Keep the array from saturating: free every other name.
            if i % 2 == 0 {
                array.free(got.name());
            }
            if array.collect().len() >= n {
                // Drain to stay within the contention bound.
                for name in array.collect() {
                    array.free(name);
                }
            }
        }
        let count = probes.len() as f64;
        let mean = probes.iter().map(|&p| p as f64).sum::<f64>() / count;
        let var = probes.iter().map(|&p| (p as f64 - mean).powi(2)).sum::<f64>() / count;
        prop_assert_eq!(stats.operations(), probes.len() as u64);
        prop_assert!((stats.mean_probes() - mean).abs() < 1e-9);
        prop_assert!((stats.stddev_probes() - var.sqrt()).abs() < 1e-6);
        prop_assert_eq!(stats.max_probes(), *probes.iter().max().unwrap());
        let hist_total: u64 = stats.probe_histogram().iter().sum();
        prop_assert_eq!(hist_total, stats.operations());
    }

    /// The probe policy is respected: with all of batch 0 forced to be
    /// occupied, an operation performs exactly `c` probes in batch 0 before
    /// moving on (observable through the total probe count lower bound).
    #[test]
    fn probe_policy_lower_bounds_probe_count(
        seed in any::<u64>(),
        c in 1u32..6,
    ) {
        let n = 32;
        let array = LevelArrayConfig::new(n)
            .probe_policy(ProbePolicy::Uniform(c))
            .build()
            .unwrap();
        // Occupy every slot of batch 0.
        for idx in array.geometry().batch_range(0) {
            prop_assert!(array.force_occupy(Name::new(idx)));
        }
        let mut rng = default_rng(seed);
        let got = array.get(&mut rng);
        prop_assert!(got.probes() > c, "stopped too early: {} probes", got.probes());
        prop_assert_ne!(got.batch(), Some(0));
    }

    /// `random(1, v)`-style probing always yields names inside the structure's
    /// namespace: 0 <= name < capacity.
    #[test]
    fn names_are_dense(seed in any::<u64>(), n in 1usize..128, gets in 1usize..64) {
        let array = LevelArray::new(n);
        let mut rng = default_rng(seed);
        for _ in 0..gets.min(n) {
            let got = array.get(&mut rng);
            prop_assert!(got.name().index() < array.capacity());
        }
    }
}

/// A deterministic (non-proptest) regression: the default configuration's
/// expected probe count on an otherwise empty array is exactly 1 probe for the
/// overwhelming majority of operations.
#[test]
fn empty_array_gets_almost_always_take_one_probe() {
    let array = LevelArray::new(1024);
    let mut rng = default_rng(7);
    let mut stats = GetStats::new();
    for _ in 0..10_000 {
        let got = array.get(&mut rng);
        stats.record(&got);
        array.free(got.name());
    }
    assert!(stats.mean_probes() < 1.05, "mean = {}", stats.mean_probes());
    assert!(stats.max_probes() <= 4, "max = {}", stats.max_probes());
}

/// RandomSource trait objects and concrete generators can be mixed freely.
#[test]
fn get_accepts_any_random_source() {
    let array = LevelArray::new(4);
    let mut lehmer = larng::MinStd::seed_from_u64(1);
    let mut xorshift = larng::Xorshift64Star::seed_from_u64(2);
    let a = array.get(&mut lehmer);
    let b = array.get(&mut xorshift);
    assert_ne!(a.name(), b.name());
    array.free(a.name());
    array.free(b.name());
    // Through a dyn reference as well.
    let dynrng: &mut dyn RandomSource = &mut lehmer;
    let c = array.get(dynrng);
    array.free(c.name());
}
