//! Differential layout conformance: every slot representation must be
//! observationally identical to the word-per-slot representation.
//!
//! Every probing decision depends only on the RNG stream and on the held/free
//! state of the slots — never on how that state is stored — so driving a
//! `WordPerSlot` and a `Packed` instance of the *same* variant with the same
//! seeded operation sequence must produce identical acquired names (with
//! identical probe counts, batches and backup flags), identical occupancy
//! censuses after every step, and identical `collect` sets.  This holds for
//! every facade: flat, sharded, elastic and hierarchical — and with the
//! Free→Get hint cache enabled, because hints are keyed per facade instance
//! (each side of the pair consumes only its own hint).
//!
//! A thread keeps one sticky home for the sharded array it touched last, so
//! each side is routed to the participant immediately before its own
//! operation; the sharded and hierarchical cases assert that their wins span
//! at least two shards.  The same drives also pin the sharded facade to a
//! one-epoch hierarchical array: both run on one shard-group implementation.

use std::collections::HashSet;

use larng::{default_rng, RandomSource};
use levelarray::{
    ActivityArray, GrowthPolicy, LevelArrayConfig, Name, OccupancySnapshot, ShardedLevelArray,
    SlotLayout,
};

fn ops() -> usize {
    if cfg!(miri) {
        60
    } else {
        2_000
    }
}

/// The two censuses a drive compares after every step, one per side.
type Census<'a> = &'a dyn Fn() -> [OccupancySnapshot; 2];

/// Drives `word` and `packed` with the same seeded schedule and asserts they
/// agree after every single operation, comparing their own `occupancy()`
/// censuses; returns every name won.  `participants` exercises
/// `route_hint`, so the sharded facades' sticky routing takes the same path
/// on both sides; `quota` bounds how many names the schedule holds at once
/// (for the elastic facade it deliberately exceeds the initial bound so both
/// chains grow in step).
fn assert_lockstep(
    word: &dyn ActivityArray,
    packed: &dyn ActivityArray,
    seed: u64,
    participants: usize,
    quota: usize,
) -> Vec<Name> {
    let census = || [word.occupancy(), packed.occupancy()];
    lockstep(word, packed, &census, seed, participants, quota)
}

/// [`assert_lockstep`] comparing the censuses `census` reports.
fn lockstep(
    word: &dyn ActivityArray,
    packed: &dyn ActivityArray,
    census: Census<'_>,
    seed: u64,
    participants: usize,
    quota: usize,
) -> Vec<Name> {
    assert_eq!(word.capacity(), packed.capacity());
    assert_eq!(word.max_participants(), packed.max_participants());

    // Two identical streams: one per instance, so the probe draws match.
    let mut rng_w = default_rng(seed);
    let mut rng_p = default_rng(seed);
    // One shared stream for the schedule itself (op choice, free victim).
    let mut script = default_rng(seed ^ 0xD1FF);

    let mut held: Vec<Name> = Vec::new();
    let mut won = Vec::new();
    for step in 0..ops() {
        let participant = script.gen_index(participants.max(1));
        let register = held.is_empty() || (script.gen_bool(0.6) && held.len() < quota);
        if register {
            word.route_hint(participant);
            let a = word.try_get(&mut rng_w);
            packed.route_hint(participant);
            let b = packed.try_get(&mut rng_p);
            assert_eq!(a, b, "step {step}: acquisitions diverged");
            if let Some(got) = a {
                assert!(
                    !held.contains(&got.name()),
                    "step {step}: duplicate live name {}",
                    got.name()
                );
                held.push(got.name());
                won.push(got.name());
            }
        } else {
            let victim = held.swap_remove(script.gen_index(held.len()));
            word.free(victim);
            packed.free(victim);
        }

        assert_same_state(word, packed, census, &held, step);
    }

    // Drain through both and confirm they empty together.
    for name in held.drain(..) {
        word.free(name);
        packed.free(name);
    }
    assert!(word.collect().is_empty());
    assert!(packed.collect().is_empty());
    won
}

/// The batched twin of [`assert_lockstep`]: drives both sides with the same
/// seeded schedule of `get_many`/`free_many` batches and asserts identical
/// acquisitions (names, probe counts, batches, backup flags), censuses and
/// collect sets after every step; returns every name won.  The batch sizes
/// vary per step, so the word-window multi-claim kernel (packed) and the
/// mask-first slot kernel (word-per-slot) must select the same slots — the
/// §5.2 batch-order probing contract the batched kernels preserve.
fn assert_lockstep_batched(
    word: &dyn ActivityArray,
    packed: &dyn ActivityArray,
    seed: u64,
    participants: usize,
    quota: usize,
    kmax: usize,
) -> Vec<Name> {
    let census = || [word.occupancy(), packed.occupancy()];
    lockstep_batched(word, packed, &census, seed, participants, quota, kmax)
}

/// [`assert_lockstep_batched`] comparing the censuses `census` reports.
fn lockstep_batched(
    word: &dyn ActivityArray,
    packed: &dyn ActivityArray,
    census: Census<'_>,
    seed: u64,
    participants: usize,
    quota: usize,
    kmax: usize,
) -> Vec<Name> {
    assert_eq!(word.capacity(), packed.capacity());
    assert_eq!(word.max_participants(), packed.max_participants());

    let mut rng_w = default_rng(seed);
    let mut rng_p = default_rng(seed);
    let mut script = default_rng(seed ^ 0xBA7C);

    let mut held: Vec<Name> = Vec::new();
    let mut won = Vec::new();
    let mut out_w = Vec::new();
    let mut out_p = Vec::new();
    // Batches do ~kmax times the per-step work of the singleton drive.
    for step in 0..(ops() / kmax.max(1)).max(8) {
        let participant = script.gen_index(participants.max(1));
        let register = held.is_empty() || (script.gen_bool(0.6) && held.len() < quota);
        if register {
            let k = (1 + script.gen_index(kmax)).min(quota - held.len()).max(1);
            out_w.clear();
            out_p.clear();
            word.route_hint(participant);
            let won_w = word.get_many(&mut rng_w, k, &mut out_w);
            packed.route_hint(participant);
            let won_p = packed.get_many(&mut rng_p, k, &mut out_p);
            assert_eq!(won_w, won_p, "step {step}: batch fill counts diverged");
            assert_eq!(out_w, out_p, "step {step}: batched acquisitions diverged");
            for got in &out_w {
                assert!(
                    !held.contains(&got.name()),
                    "step {step}: duplicate live name {}",
                    got.name()
                );
                held.push(got.name());
                won.push(got.name());
            }
        } else {
            let m = 1 + script.gen_index(held.len().min(kmax));
            let victims: Vec<Name> = (0..m)
                .map(|_| held.swap_remove(script.gen_index(held.len())))
                .collect();
            word.free_many(&victims);
            packed.free_many(&victims);
        }

        assert_same_state(word, packed, census, &held, step);
    }

    // Drain both sides with ONE bulk release each and confirm they empty.
    word.free_many(&held);
    packed.free_many(&held);
    assert!(word.collect().is_empty());
    assert!(packed.collect().is_empty());
    won
}

/// Asserts that both sides hold exactly `held` (as `collect` sets) and
/// report identical censuses.  The drives are sequential, so the censuses
/// are exact.
fn assert_same_state(
    word: &dyn ActivityArray,
    packed: &dyn ActivityArray,
    census: Census<'_>,
    held: &[Name],
    step: usize,
) {
    let mut cw = word.collect();
    let mut cp = packed.collect();
    cw.sort();
    cp.sort();
    assert_eq!(cw, cp, "step {step}: collect sets diverged");
    let mut expected = held.to_vec();
    expected.sort();
    assert_eq!(cw, expected, "step {step}: collect drifted from the model");
    let [cw, cp] = census();
    assert_eq!(
        cw.regions(),
        cp.regions(),
        "step {step}: occupancy censuses diverged"
    );
}

/// Fills both sides to `capacity()` with seeded `get_many` batches, then
/// drains them with `free_many` batches, asserting lockstep after every
/// step; returns every name won.  [`assert_lockstep_batched`] holds at most
/// the bound, so its claim windows never fill and its backup windows are
/// never claimed; this drive makes batches meet full windows, partial
/// windows and the backup, and ends with a batch that wins nothing on
/// either side.
fn assert_lockstep_saturated(
    word: &dyn ActivityArray,
    packed: &dyn ActivityArray,
    seed: u64,
    participants: usize,
    kmax: usize,
) -> Vec<Name> {
    assert_eq!(word.capacity(), packed.capacity());
    let census = || [word.occupancy(), packed.occupancy()];
    let mut rng_w = default_rng(seed);
    let mut rng_p = default_rng(seed);
    let mut script = default_rng(seed ^ 0x5A7D);

    let mut held: Vec<Name> = Vec::new();
    let mut out_w = Vec::new();
    let mut out_p = Vec::new();
    let mut reached_backup = false;
    let mut step = 0;
    while held.len() < word.capacity() {
        assert!(step < 10_000, "the fill stalled at {} names", held.len());
        let participant = script.gen_index(participants.max(1));
        let k = 1 + script.gen_index(kmax);
        out_w.clear();
        out_p.clear();
        word.route_hint(participant);
        let won_w = word.get_many(&mut rng_w, k, &mut out_w);
        packed.route_hint(participant);
        let won_p = packed.get_many(&mut rng_p, k, &mut out_p);
        assert_eq!(won_w, won_p, "step {step}: batch fill counts diverged");
        assert_eq!(out_w, out_p, "step {step}: batched acquisitions diverged");
        for got in &out_w {
            assert!(
                !held.contains(&got.name()),
                "step {step}: duplicate live name {}",
                got.name()
            );
            reached_backup |= got.used_backup();
            held.push(got.name());
        }
        assert_same_state(word, packed, &census, &held, step);
        step += 1;
    }
    assert!(reached_backup, "the fill never claimed a backup slot");
    let won = held.clone();
    out_w.clear();
    out_p.clear();
    assert_eq!(word.get_many(&mut rng_w, kmax, &mut out_w), 0);
    assert_eq!(packed.get_many(&mut rng_p, kmax, &mut out_p), 0);

    while !held.is_empty() {
        let m = 1 + script.gen_index(held.len().min(kmax));
        let victims: Vec<Name> = (0..m)
            .map(|_| held.swap_remove(script.gen_index(held.len())))
            .collect();
        word.free_many(&victims);
        packed.free_many(&victims);
        assert_same_state(word, packed, &census, &held, step);
        step += 1;
    }
    won
}

/// Asserts that `won` spans at least two shards of stride `shard_capacity`,
/// i.e. that the participants really routed Gets to different homes.
fn assert_spans_shards(won: &[Name], shard_capacity: usize) {
    let shards: HashSet<usize> = won.iter().map(|n| n.index() / shard_capacity).collect();
    assert!(
        shards.len() >= 2,
        "every name was won in shard(s) {shards:?}: the participants never routed apart"
    );
}

fn pair(config: &LevelArrayConfig) -> (LevelArrayConfig, LevelArrayConfig) {
    (
        config.clone().slot_layout(SlotLayout::WordPerSlot),
        config.clone().slot_layout(SlotLayout::Packed),
    )
}

#[test]
fn flat_layouts_conform() {
    for (n, seed) in [(5usize, 11u64), (33, 12), (170, 13)] {
        let (w, p) = pair(&LevelArrayConfig::new(n));
        assert_lockstep(&w.build().unwrap(), &p.build().unwrap(), seed, 1, n);
    }
}

#[test]
fn flat_layouts_conform_without_backup_and_with_swap_tas() {
    let base = LevelArrayConfig::new(24)
        .backup(false)
        .tas_kind(levelarray::TasKind::Swap)
        .probes_per_batch(2);
    let (w, p) = pair(&base);
    assert_lockstep(&w.build().unwrap(), &p.build().unwrap(), 21, 1, 24);
}

#[test]
fn sharded_layouts_conform() {
    for (n, shards, seed) in [(16usize, 2usize, 31u64), (40, 4, 32), (70, 3, 33)] {
        let (w, p) = pair(&LevelArrayConfig::new(n));
        let word = w.build_sharded(shards).unwrap();
        let won = assert_lockstep(
            &word,
            &p.build_sharded(shards).unwrap(),
            seed,
            shards * 2,
            n,
        );
        assert_spans_shards(&won, word.shard_capacity());
    }
}

#[test]
fn elastic_layouts_conform_across_growth_and_retirement() {
    for (n, max_epochs, seed) in [(2usize, 4usize, 41u64), (5, 3, 42)] {
        let (w, p) = pair(&LevelArrayConfig::new(n).growth(GrowthPolicy::Doubling { max_epochs }));
        let word = w.build_elastic().unwrap();
        let packed = p.build_elastic().unwrap();
        // An elastic chain's live bound is the chain total; oversubscribe the
        // initial epoch hard so both sides grow (and later retire) in step.
        assert_lockstep(&word, &packed, seed, 1, n * 10);
        assert_eq!(word.num_epochs(), packed.num_epochs());
        assert_eq!(word.epoch_ids(), packed.epoch_ids());
        let _ = word.try_retire();
        let _ = packed.try_retire();
        assert_eq!(word.num_epochs(), packed.num_epochs());
    }
}

#[test]
fn hierarchical_layouts_conform_across_growth_and_retirement() {
    // The hierarchical composition: elastic chain whose epochs are sharded
    // cores (`shard_group` below the bound).  Routing is participant-pinned
    // (`route_hint` → home token, reduced modulo each epoch's shard count),
    // and the steal walk visits shards in a deterministic order, so the
    // word-per-slot and packed instances must stay in lockstep through
    // growth — where the epoch's shard *count* changes — and retirement.
    // Every epoch's shards have the same capacity (a multiple of the group).
    for (n, group, max_epochs, seed) in [(8usize, 4usize, 3usize, 61u64), (6, 2, 4, 62)] {
        let (w, p) = pair(
            &LevelArrayConfig::new(n)
                .shard_group(group)
                .growth(GrowthPolicy::Doubling { max_epochs }),
        );
        let word = w.build_elastic().unwrap();
        let packed = p.build_elastic().unwrap();
        let won = assert_lockstep(&word, &packed, seed, group * 2, n * 5);
        assert_spans_shards(&won, word.newest_shard_capacity());
        assert_eq!(word.epoch_ids(), packed.epoch_ids());
        assert_eq!(word.newest_epoch_shards(), packed.newest_epoch_shards());
        let _ = word.try_retire();
        let _ = packed.try_retire();
        assert_eq!(word.num_epochs(), packed.num_epochs());
    }
}

#[test]
fn hint_enabled_facades_stay_in_lockstep() {
    // The hint cache is keyed per facade instance: the word and packed sides
    // each record and consume their *own* hint, so the hint wins (one probe,
    // no RNG draw) land on the same steps and the schedules never diverge.
    let (w, p) = pair(&LevelArrayConfig::new(24).free_hint(true));
    assert_lockstep(&w.build().unwrap(), &p.build().unwrap(), 51, 1, 24);

    let (w, p) = pair(&LevelArrayConfig::new(16).free_hint(true));
    let word = w.build_sharded(2).unwrap();
    let won = assert_lockstep(&word, &p.build_sharded(2).unwrap(), 52, 4, 16);
    assert_spans_shards(&won, word.shard_capacity());

    let (w, p) = pair(
        &LevelArrayConfig::new(4)
            .free_hint(true)
            .growth(GrowthPolicy::Doubling { max_epochs: 3 }),
    );
    assert_lockstep(
        &w.build_elastic().unwrap(),
        &p.build_elastic().unwrap(),
        53,
        1,
        30,
    );
}

#[test]
fn flat_layouts_conform_under_batched_ops() {
    for (n, seed, kmax) in [(5usize, 71u64, 3usize), (33, 72, 8), (170, 73, 24)] {
        let (w, p) = pair(&LevelArrayConfig::new(n));
        assert_lockstep_batched(&w.build().unwrap(), &p.build().unwrap(), seed, 1, n, kmax);
    }
}

#[test]
fn sharded_layouts_conform_under_batched_ops() {
    for (n, shards, seed) in [(16usize, 2usize, 81u64), (40, 4, 82)] {
        let (w, p) = pair(&LevelArrayConfig::new(n));
        let word = w.build_sharded(shards).unwrap();
        let won = assert_lockstep_batched(
            &word,
            &p.build_sharded(shards).unwrap(),
            seed,
            shards * 2,
            n,
            8,
        );
        assert_spans_shards(&won, word.shard_capacity());
    }
}

#[test]
fn flat_layouts_conform_when_batches_saturate_the_array() {
    // Bound 48: batch 0 spans 72 slots, so the fill meets full 64-slot
    // windows as well as windows clipped by batch ends and the backup.
    let (w, p) = pair(&LevelArrayConfig::new(48));
    assert_lockstep_saturated(&w.build().unwrap(), &p.build().unwrap(), 75, 1, 16);
}

#[test]
fn sharded_layouts_conform_when_batches_saturate_the_array() {
    let (w, p) = pair(&LevelArrayConfig::new(24));
    let word = w.build_sharded(2).unwrap();
    let won = assert_lockstep_saturated(&word, &p.build_sharded(2).unwrap(), 84, 4, 6);
    assert_spans_shards(&won, word.shard_capacity());
}

#[test]
fn elastic_layouts_conform_under_batched_ops_across_growth_and_shrink() {
    for (n, max_epochs, seed) in [(2usize, 4usize, 91u64), (4, 3, 92)] {
        let (w, p) = pair(&LevelArrayConfig::new(n).growth(GrowthPolicy::Doubling { max_epochs }));
        let word = w.build_elastic().unwrap();
        let packed = p.build_elastic().unwrap();
        // Oversubscribe hard so whole batches straddle growth events.
        assert_lockstep_batched(&word, &packed, seed, 1, n * 10, 6);
        assert_eq!(word.num_epochs(), packed.num_epochs());
        assert_eq!(word.epoch_ids(), packed.epoch_ids());
        // The drive left both drained: retirement converges in step...
        let _ = word.try_retire();
        let _ = packed.try_retire();
        assert_eq!(word.epoch_ids(), packed.epoch_ids());
        // ...and an explicit shrink opens the same smaller epoch on both
        // sides (the surviving epoch is oversized after the growth burst).
        assert_eq!(word.try_shrink(), packed.try_shrink());
        let _ = word.try_retire();
        let _ = packed.try_retire();
        assert_eq!(word.epoch_ids(), packed.epoch_ids());
        assert_eq!(word.num_epochs(), packed.num_epochs());
    }
}

#[test]
fn hierarchical_layouts_conform_under_batched_ops() {
    // Elastic-of-sharded: batch routing crosses the home shard, the ring
    // steal AND the epoch chain; word-per-slot and packed must stay in
    // lockstep through a growth event mid-batch.
    let base = LevelArrayConfig::new(8)
        .shard_group(4)
        .growth(GrowthPolicy::Doubling { max_epochs: 3 });
    let (w, p) = pair(&base);
    let word = w.build_elastic().unwrap();
    let packed = p.build_elastic().unwrap();
    let won = assert_lockstep_batched(&word, &packed, 93, 8, 40, 6);
    assert_spans_shards(&won, word.newest_shard_capacity());
    assert_eq!(word.epoch_ids(), packed.epoch_ids());
    assert_eq!(word.newest_epoch_shards(), packed.newest_epoch_shards());
}

#[test]
fn hint_enabled_facades_conform_under_batched_ops() {
    // free_many re-arms the per-instance hint with the batch's last name, so
    // hint wins land on the same steps on both sides.
    let (w, p) = pair(&LevelArrayConfig::new(24).free_hint(true));
    assert_lockstep_batched(&w.build().unwrap(), &p.build().unwrap(), 94, 1, 24, 6);

    let (w, p) = pair(
        &LevelArrayConfig::new(4)
            .free_hint(true)
            .growth(GrowthPolicy::Doubling { max_epochs: 3 }),
    );
    assert_lockstep_batched(
        &w.build_elastic().unwrap(),
        &p.build_elastic().unwrap(),
        95,
        1,
        30,
        5,
    );
}

#[test]
fn sharded_facade_matches_a_fixed_hierarchical_epoch() {
    // `ShardedLevelArray::new(n, S)` against a Fixed-growth elastic array
    // whose one epoch is a group of S shards of bound n / S: the same shard
    // group behind both, so the same participant routing must win the same
    // names with the same probe counts, and the batch-aggregated censuses
    // must agree after every step.
    let twins = |n: usize, shards: usize| {
        let sharded = ShardedLevelArray::new(n, shards);
        let hier = LevelArrayConfig::new(n)
            .shard_group(n / shards)
            .build_elastic()
            .unwrap();
        assert_eq!(hier.newest_epoch_shards(), shards);
        (sharded, hier)
    };
    let singleton: &[(usize, usize, u64)] = if cfg!(miri) {
        &[(16, 2, 101)]
    } else {
        &[(64, 4, 101), (40, 4, 102)]
    };
    for &(n, shards, seed) in singleton {
        let (sharded, hier) = twins(n, shards);
        let census = || [sharded.batchwise_occupancy(), hier.batchwise_occupancy()];
        let won = lockstep(&sharded, &hier, &census, seed, shards * 2, n);
        assert_spans_shards(&won, sharded.shard_capacity());
    }
    let batched: &[(usize, usize, u64, usize)] = if cfg!(miri) {
        &[(16, 2, 103, 6)]
    } else {
        &[(64, 4, 103, 12), (16, 2, 104, 6)]
    };
    for &(n, shards, seed, kmax) in batched {
        let (sharded, hier) = twins(n, shards);
        let census = || [sharded.batchwise_occupancy(), hier.batchwise_occupancy()];
        let won = lockstep_batched(&sharded, &hier, &census, seed, shards * 2, n, kmax);
        assert_spans_shards(&won, sharded.shard_capacity());
    }
}

/// The packed layout alone also satisfies the core renaming contract under a
/// fill-to-capacity drive (uniqueness up to exhaustion, exact refill).
#[test]
fn packed_flat_fills_to_capacity_with_unique_names() {
    let array = LevelArrayConfig::new(12)
        .slot_layout(SlotLayout::Packed)
        .build()
        .unwrap();
    let mut rng = default_rng(5);
    let mut held = HashSet::new();
    for _ in 0..(if cfg!(miri) { 2_000 } else { 50_000 }) {
        if held.len() == array.capacity() {
            break;
        }
        if let Some(got) = array.try_get(&mut rng) {
            assert!(held.insert(got.name()), "duplicate {}", got.name());
        }
    }
    assert_eq!(held.len(), array.capacity());
    assert!(array.try_get(&mut rng).is_none());
    for name in held {
        array.free(name);
    }
    assert!(array.collect().is_empty());
}
