//! The hierarchical composition end to end: an elastic chain of *sharded*
//! epochs that grows — and shrinks — by whole cache-padded shard groups.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example hierarchical
//! ```
//!
//! `LevelArrayConfig::shard_group(g)` makes every epoch of an
//! `ElasticLevelArray` a sharded core of `ceil(bound / g)` independent
//! LevelArrays, each a cache-friendly ~`g`-participant island; threads pin a
//! sticky home shard (a per-thread token, reused after its thread exits,
//! modulo the epoch's shard count) and steal-walk the sibling shards only
//! when their island is full.  Growth then means *adding shard groups*: the
//! doubled successor epoch carries twice the shards, and the epoch tag in
//! every `Name` keeps routing exact across the split.  With a shrink
//! watermark set, sustained low occupancy walks the chain back down —
//! a half-bound epoch opens, the oversized one drains and retires through
//! the same non-blocking seal → grace → census → unlink protocol that
//! growth uses, and none of the concurrent `Get`/`Free`/`Collect` traffic
//! ever blocks behind it.

use std::sync::Arc;

use levelarray_suite::rng::{default_rng, SeedSequence};
use levelarray_suite::{ActivityArray, GrowthPolicy, LevelArrayConfig, Name};

fn epoch_table(array: &levelarray_suite::ElasticLevelArray) {
    for epoch in array.epoch_ids() {
        let bound = array.epoch_contention(epoch).unwrap_or(0);
        let shards = array.epoch_shards(epoch).unwrap_or(0);
        let held = array.epoch_held(epoch).unwrap_or(0);
        println!("    epoch {epoch}: bound {bound:>3}, {shards} shard core(s), {held:>3} held");
    }
}

fn main() {
    let group = 8;
    let array = Arc::new(
        LevelArrayConfig::new(16)
            .shard_group(group)
            .shrink_watermark(0.25)
            .growth(GrowthPolicy::Doubling { max_epochs: 8 })
            .build_elastic()
            .expect("valid hierarchical configuration"),
    );
    println!(
        "hierarchical ElasticLevelArray: initial bound {}, shard group {}, {} shard core(s)",
        array.initial_contention(),
        array.shard_group(),
        array.newest_epoch_shards()
    );

    // Phase 1: a storm of holders oversubscribes the initial epoch, so the
    // chain grows — each successor epoch a wider row of shard groups.
    let threads = 8;
    let per_thread = 40;
    let mut seeds = SeedSequence::new(0x5A5D);
    let held: Vec<Vec<Name>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let array = Arc::clone(&array);
                let seed = seeds.next_seed();
                scope.spawn(move || {
                    let mut rng = default_rng(seed);
                    // A sticky home shard per thread: epoch cells reduce the
                    // token modulo their own shard count.
                    array.route_hint(t);
                    (0..per_thread)
                        .map(|_| array.get(&mut rng).name())
                        .collect::<Vec<Name>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total: usize = held.iter().map(Vec::len).sum();
    println!("\nphase 1 — growth burst: {total} names held across {threads} threads");
    epoch_table(&array);

    // Phase 2: the burst subsides.  Draining the old epochs retires them;
    // the oversized newest epoch survives alone.
    for name in held.into_iter().flatten() {
        array.free(name);
    }
    let _ = array.try_retire();
    println!(
        "\nphase 2 — burst over: {} epoch(s) live, {} opened, {} retired",
        array.num_epochs(),
        array.epochs_opened(),
        array.epochs_retired()
    );
    epoch_table(&array);

    // Phase 3: light churn at low occupancy.  Every free samples the
    // watermark; once the low streak outlasts the patience window the chain
    // opens a half-bound epoch on its own, and the oversized one unlinks.
    let big = array.newest_epoch();
    let big_bound = array.epoch_contention(big).unwrap();
    let mut rng = default_rng(0xD0E);
    for _ in 0..(big_bound.max(16) * 4) {
        let got = array.get(&mut rng);
        array.free(got.name());
    }
    let _ = array.try_retire();
    let newest = array.newest_epoch();
    println!(
        "\nphase 3 — watermark shrink: newest epoch {} (bound {} -> {}), {} live, {} pending reclamation",
        newest,
        big_bound,
        array.epoch_contention(newest).unwrap_or(0),
        array.num_epochs(),
        array.pending_reclamation()
    );
    epoch_table(&array);
    assert!(array.collect().is_empty());
    println!("\ncollect() is empty — every name handed back, every epoch accounted for");
}
