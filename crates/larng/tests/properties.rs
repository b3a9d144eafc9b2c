//! Property-based tests for the `larng` crate.

use larng::{MinStd, RandomSource, SeedSequence, SequenceRng, SplitMix64, Xorshift64Star};
use proptest::prelude::*;

/// Runs a closure against every generator type, seeded with `seed`.
fn for_each_generator(seed: u64, mut f: impl FnMut(&mut dyn RandomSource, &'static str)) {
    f(&mut Xorshift64Star::seed_from_u64(seed), "xorshift64*");
    f(&mut MinStd::seed_from_u64(seed), "minstd");
    f(&mut SplitMix64::seed_from_u64(seed), "splitmix64");
}

proptest! {
    /// Bounded draws always respect their bound, for every generator.
    #[test]
    fn gen_below_in_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        for_each_generator(seed, |rng, name| {
            for _ in 0..32 {
                let v = rng.gen_below(bound);
                assert!(v < bound, "{name}: {v} >= {bound}");
            }
        });
    }

    /// `random(lo, hi)` (the paper's primitive) is inclusive on both ends and
    /// never strays outside the range.
    #[test]
    fn random_inclusive_in_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 0u64..1_000_000) {
        let hi = lo + span;
        for_each_generator(seed, |rng, name| {
            for _ in 0..16 {
                let v = rng.random(lo, hi);
                assert!(v >= lo && v <= hi, "{name}: {v} not in {lo}..={hi}");
            }
        });
    }

    /// Identical seeds give identical streams (reproducibility), different
    /// seeds give different streams (no seed collapse) — for every generator.
    #[test]
    fn seeding_determinism(seed in any::<u64>()) {
        let collect = |rng: &mut dyn RandomSource| (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>();

        let mut streams_a = Vec::new();
        for_each_generator(seed, |rng, _| streams_a.push(collect(rng)));
        let mut streams_b = Vec::new();
        for_each_generator(seed, |rng, _| streams_b.push(collect(rng)));
        prop_assert_eq!(&streams_a, &streams_b);

        let mut streams_c = Vec::new();
        for_each_generator(seed.wrapping_add(1), |rng, _| streams_c.push(collect(rng)));
        for (a, c) in streams_a.iter().zip(&streams_c) {
            prop_assert_ne!(a, c);
        }
    }

    /// Seed sequences never repeat within a reasonable horizon and are
    /// consistent with random-access `seed_for`.
    #[test]
    fn seed_sequence_consistency(master in any::<u64>(), index in 0usize..64) {
        let streamed: Vec<u64> = SeedSequence::new(master).take(index + 1).collect();
        prop_assert_eq!(SeedSequence::new(master).seed_for(index), streamed[index]);
        let unique: std::collections::HashSet<_> = streamed.iter().collect();
        prop_assert_eq!(unique.len(), streamed.len());
    }

    /// `SequenceRng::for_indices` round-trips arbitrary index scripts.
    #[test]
    fn sequence_rng_round_trip(bound in 1u64..10_000, raw_indices in proptest::collection::vec(any::<u64>(), 1..32)) {
        let indices: Vec<u64> = raw_indices.iter().map(|&i| i % bound).collect();
        let mut rng = SequenceRng::for_indices(&indices, bound);
        for &want in &indices {
            prop_assert_eq!(rng.gen_below(bound), want);
        }
    }

    /// Unit-interval floats stay in [0, 1) for every generator.
    #[test]
    fn unit_floats_in_range(seed in any::<u64>()) {
        for_each_generator(seed, |rng, name| {
            for _ in 0..32 {
                let x = rng.gen_unit_f64();
                assert!((0.0..1.0).contains(&x), "{name}: {x}");
            }
        });
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = Xorshift64Star::seed_from_u64(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }
}
