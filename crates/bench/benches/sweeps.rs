//! Reproduces the parameter sweeps described in the text of the paper's §6,
//! and ablates the configuration knobs:
//!
//! 1. **Pre-fill sweep** — the paper states the Figure-2 results hold for
//!    pre-fill percentages between 0 % and 90 %.
//! 2. **Array-size sweep** — likewise for `L` between `2N` and `4N`.
//! 3. **Deterministic comparison** — the left-to-right LinearScan is "at least
//!    two orders of magnitude worse ... on all measures" and is therefore left
//!    off the paper's graphs; this harness includes it so the claim can be
//!    checked.
//! 4. **Ablations** — probes-per-batch (`c_i`) and the TAS primitive
//!    (`compare_exchange` vs `swap`), which the paper discusses qualitatively.
//! 5. **Shard-count sweep** — the ShardedLevelArray against its own shard
//!    count (1 shard degenerates to the plain layout), the knob behind the
//!    ROADMAP's cache-line-contention item.
//! 6. **Epoch-cap sweep** — the ElasticLevelArray against its own epoch cap.
//! 7. **Growth-storm sweep** — zero-prefill churn on a deeply
//!    under-provisioned elastic array, so the measured `Get`s repeatedly
//!    cross forced growth *and* retirement on the lock-free epoch chain.
//! 8. **Slot-layout ablation (Get side)** — the multi-threaded workload over
//!    the word-per-slot and bit-packed slot representations, measuring what
//!    the packed layout's denser false sharing costs a `Get` — at the base
//!    thread count and again at ≥8 threads, where the contended batch-0
//!    cache lines separate the layouts.
//! 9. **Collect-latency sweep (scan side)** — single-threaded `Collect`
//!    latency against occupancy for both layouts: the packed layout scans
//!    1/32 of the memory, which is the whole point of the knob; the two
//!    sections together are the §6-style both-sides measurement of the
//!    trade.  A `packed-scalar` reference cell walks the same bit pattern
//!    with the pre-batching word-at-a-time loop, so the committed table
//!    always carries the batched-vs-scalar ratio the batched scans claim.
//! 10. **Free→Get hint micro** — the same-thread free-then-get churn pair on
//!     a nearly full, tightly sized array, hint cache off vs on: off pays
//!     the full probe sequence per Get, on retries the just-freed slot with
//!     one cache-hot CAS.
//! 11. **Topology sweeps** (`make bench-topology`) — shard-group scaling of
//!     the hierarchical (elastic-of-sharded) array against its flat-epoch
//!     baseline, and the packed-vs-word false-sharing tax, both under a
//!     ≥8-thread contended `Get` storm over a bound large enough that the
//!     flat epoch's probe working set outgrows cache while a shard stays
//!     hot.  The committed records behind the `shard_group` default.
//! 12. **Batched-ops micro** (`make bench-batch`) — `get_many`/`free_many`
//!     at batch size `k` against the equivalent `k`-singleton loops, per
//!     slot layout.  The batched kernels claim up to `k` free bits of one
//!     probed word with ONE compare-exchange and release a sorted batch
//!     with one `fetch_and` per word, so the packed layout is where the
//!     word-level batching pays; the word-per-slot rows price the
//!     loop-based equivalent.
//! 13. **Crash-storm churn** (`make fault-storm`) — contended get/free churn
//!     with every operation under `catch_unwind` and inline orphan recovery.
//!     Normal builds price the guards alone (`storm=guards`, the committed
//!     baseline cell); `--cfg la_fault` builds arm the seeded fault plan and
//!     price survival (`storm=armed`).
//!
//! Environment variables: `SWEEP_THREADS` (default: min(4, host)),
//! `SWEEP_OPS` (default 50 000 measured ops/thread), `SWEEP_EMULATED`
//! (default 32), `SWEEP_COLLECT_N` / `SWEEP_COLLECT_ITERS` (collect-cell
//! contention bound and scan count, defaults 4096 / 10 000),
//! `SWEEP_HINT_N` / `SWEEP_HINT_PAIRS` (hint-cell contention bound and
//! measured pair count, defaults 256 / 200 000),
//! `SWEEP_TOPOLOGY_EMULATED` / `SWEEP_TOPOLOGY_OPS` (topology-storm quota
//! and measured ops; `MICRO_QUICK=1` shrinks both to smoke size),
//! `SWEEP_BATCH_K` / `SWEEP_BATCH_N` / `SWEEP_BATCH_ROUNDS` (batched-ops
//! batch size, contention bound and measured rounds, defaults 16 / 256 /
//! 20 000), `SWEEP_FAULT_THREADS` / `SWEEP_FAULT_OPS` / `LA_FAULT_SEED`
//! (crash-storm worker count, per-worker ops and plan seed, defaults
//! 4 / 100 000 / `0xF417`), `SWEEP_ONLY` to run a single section group
//! (`core` = sections 1–10, `topology` = section 11, `batch` = section 12,
//! `fault` = section 13), `BENCH_JSON` to
//! append one machine-readable record per cell (see `la_bench::json`), and
//! `BENCH_REPEAT` to keep the median-throughput run of that many
//! repetitions per cell.

use std::time::Instant;

use la_bench::{Algorithm, Cell, JsonRecord, JsonSink, Table, WorkloadConfig, WorkloadResult};
use larng::default_rng;
use levelarray::{ActivityArray, LevelArrayConfig, Name, PackedSlots, SlotLayout, TasKind};

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn record(sink: &mut Option<JsonSink>, result: &WorkloadResult, key: String) {
    if let Some(sink) = sink.as_mut() {
        sink.write(&result.json_record("sweeps", key));
    }
}

fn result_row(result: &la_bench::WorkloadResult, extra: Vec<Cell>) -> Vec<Cell> {
    let mut row = extra;
    row.extend([
        Cell::FloatPrec(result.throughput(), 0),
        Cell::FloatPrec(result.stats.mean_probes(), 3),
        Cell::FloatPrec(result.stats.stddev_probes(), 3),
        Cell::FloatPrec(result.mean_worst_case(), 2),
        u64::from(result.absolute_worst_case()).into(),
        result.get_latency.quantile_ns(0.99).into(),
        result.get_latency.quantile_ns(0.999).into(),
    ]);
    row
}

const METRIC_COLUMNS: [&str; 7] = [
    "ops/s",
    "avg trials",
    "stddev",
    "worst (avg)",
    "worst (abs)",
    "p99 ns",
    "p99.9 ns",
];

fn main() {
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let threads: usize = env_or("SWEEP_THREADS", host.min(4));
    let ops: u64 = env_or("SWEEP_OPS", 50_000);
    let emulated: usize = env_or("SWEEP_EMULATED", 32);
    let repeat: usize = env_or("BENCH_REPEAT", 1);
    let only: Option<String> = std::env::var("SWEEP_ONLY").ok().filter(|s| !s.is_empty());
    let enabled = |tag: &str| match only.as_deref() {
        Some(o) => o == tag,
        None => true,
    };
    let mut sink = JsonSink::from_env();

    let base = WorkloadConfig {
        threads,
        emulated_per_thread: emulated,
        space_factor: 2.0,
        prefill: 0.5,
        target_ops_per_thread: ops,
        seed: 0x5EEB,
    };

    println!("# §6 sweeps and ablations (threads = {threads}, N/n = {emulated}, {ops} ops/thread)");
    println!();

    if enabled("core") {
        core_sweeps(&base, repeat, &mut sink);
    }
    if enabled("topology") {
        topology_sweeps(&base, repeat, &mut sink);
    }
    if enabled("batch") {
        batch_sweeps(repeat, &mut sink);
    }
    if enabled("fault") {
        fault_sweeps(repeat, &mut sink);
    }
}

/// Sections 1–10: the classic §6 sweeps and ablations.
fn core_sweeps(base: &WorkloadConfig, repeat: usize, sink: &mut Option<JsonSink>) {
    let threads = base.threads;
    let ops = base.target_ops_per_thread;

    // 1. Pre-fill sweep.
    let mut header = vec!["prefill %", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut prefill_table = Table::new(&header);
    for prefill in [0.0, 0.25, 0.5, 0.75, 0.9] {
        for algorithm in Algorithm::figure2_set() {
            let config = WorkloadConfig {
                prefill,
                ..base.clone()
            };
            let result = la_bench::workload::run_workload_repeated(algorithm, &config, repeat);
            record(
                sink,
                &result,
                format!("sweeps/prefill={prefill}/{}", result.algorithm),
            );
            prefill_table.push_row(result_row(
                &result,
                vec![
                    Cell::FloatPrec(prefill * 100.0, 0),
                    result.algorithm.clone().into(),
                ],
            ));
        }
    }
    println!(
        "## Pre-fill sweep (SWEEP-PREFILL)\n\n{}",
        prefill_table.to_markdown()
    );

    // 2. Array-size sweep (L/N).
    let mut header = vec!["L/N", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut size_table = Table::new(&header);
    for space_factor in [2.0, 3.0, 4.0] {
        for algorithm in Algorithm::figure2_set() {
            let config = WorkloadConfig {
                space_factor,
                ..base.clone()
            };
            let result = la_bench::workload::run_workload_repeated(algorithm, &config, repeat);
            record(
                sink,
                &result,
                format!("sweeps/space={space_factor}/{}", result.algorithm),
            );
            size_table.push_row(result_row(
                &result,
                vec![
                    Cell::FloatPrec(space_factor, 1),
                    result.algorithm.clone().into(),
                ],
            ));
        }
    }
    println!(
        "## Array-size sweep (SWEEP-PREFILL, L ∈ [2N, 4N])\n\n{}",
        size_table.to_markdown()
    );

    // 3. Deterministic comparison (TAB-DETERMINISTIC).
    let mut header = vec!["algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut det_table = Table::new(&header);
    let det_config = WorkloadConfig {
        // The deterministic scan is O(held) per Get, so keep the cell small
        // enough to finish while still showing the gap.
        target_ops_per_thread: (ops / 5).max(1_000),
        ..base.clone()
    };
    for algorithm in [
        Algorithm::LevelArray,
        Algorithm::Random,
        Algorithm::LinearProbing,
        Algorithm::LinearScan,
    ] {
        let result = la_bench::workload::run_workload_repeated(algorithm, &det_config, repeat);
        record(
            sink,
            &result,
            format!("sweeps/deterministic/{}", result.algorithm),
        );
        det_table.push_row(result_row(&result, vec![result.algorithm.clone().into()]));
    }
    println!(
        "## Deterministic LinearScan comparison (TAB-DETERMINISTIC)\n\n{}",
        det_table.to_markdown()
    );

    // 4. Ablations: probes per batch and TAS primitive.
    let mut header = vec!["variant"];
    header.extend(METRIC_COLUMNS);
    let mut ablation_table = Table::new(&header);
    for algorithm in [
        Algorithm::LevelArray,
        Algorithm::LevelArrayProbes(2),
        Algorithm::LevelArrayProbes(4),
        Algorithm::LevelArrayProbes(16),
        Algorithm::LevelArraySwapTas,
    ] {
        let result = la_bench::workload::run_workload_repeated(algorithm, base, repeat);
        record(
            sink,
            &result,
            format!("sweeps/ablation/{}", result.algorithm),
        );
        ablation_table.push_row(result_row(&result, vec![result.algorithm.clone().into()]));
    }
    println!(
        "## LevelArray ablations\n\n{}",
        ablation_table.to_markdown()
    );

    // 5. Shard-count sweep: how the sharded variant scales with its own knob.
    let mut header = vec!["shards", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut shard_table = Table::new(&header);
    for shards in [1usize, 2, 4, 8] {
        let algorithm = Algorithm::ShardedLevelArray { shards };
        let result = la_bench::workload::run_workload_repeated(algorithm, base, repeat);
        record(
            sink,
            &result,
            format!("sweeps/shards={shards}/{}", result.algorithm),
        );
        shard_table.push_row(result_row(
            &result,
            vec![shards.into(), result.algorithm.clone().into()],
        ));
    }
    println!(
        "## Shard-count sweep (ShardedLevelArray)\n\n{}",
        shard_table.to_markdown()
    );

    // 6. Epoch-cap sweep: the elastic chain against its own knob.  Every
    // cell starts at an eighth of the contention bound; deeper caps admit
    // more headroom, the minimum cap of 3 (2.625n total slots) forces heavy
    // fallback probing of old epochs near full load.
    let mut header = vec!["max epochs", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut elastic_table = Table::new(&header);
    for max_epochs in [3usize, 4, 6, 8] {
        let algorithm = Algorithm::Elastic { max_epochs };
        let result = la_bench::workload::run_workload_repeated(algorithm, base, repeat);
        record(
            sink,
            &result,
            format!("sweeps/epochs={max_epochs}/{}", result.algorithm),
        );
        elastic_table.push_row(result_row(
            &result,
            vec![max_epochs.into(), result.algorithm.clone().into()],
        ));
    }
    println!(
        "## Epoch-cap sweep (ElasticLevelArray)\n\n{}",
        elastic_table.to_markdown()
    );

    // 7. Growth-storm sweep: Get hammered *across* forced growth and
    // retirement.  Zero pre-fill makes every churn round acquire the full
    // quota (doubling the chain through ~log2(divisor) epochs) and then
    // drain it completely (auto-retiring the old epochs), so the measured
    // operations repeatedly cross the lock-free chain's growth/retirement
    // seam instead of settling into a steady state.  Deeper divisors mean
    // more forced doublings per storm.
    let mut header = vec!["initial bound", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut storm_table = Table::new(&header);
    let storm_base = WorkloadConfig {
        prefill: 0.0,
        ..base.clone()
    };
    for divisor in [4usize, 16, 64] {
        let algorithm = Algorithm::ElasticStorm { divisor };
        let result = la_bench::workload::run_workload_repeated(algorithm, &storm_base, repeat);
        record(
            sink,
            &result,
            format!("sweeps/storm={divisor}/{}", result.algorithm),
        );
        storm_table.push_row(result_row(
            &result,
            vec![
                format!("n/{divisor}").into(),
                result.algorithm.clone().into(),
            ],
        ));
    }
    println!(
        "## Growth-storm sweep (ElasticLevelArray, zero pre-fill)\n\n{}",
        storm_table.to_markdown()
    );

    // 8. Slot-layout ablation, Get side: the full multi-threaded workload
    // over both slot representations.  The packed layout packs 512 slots per
    // cache line, so this is where its denser false sharing would show.
    const LAYOUT_ABLATION: [(&str, Algorithm); 2] = [
        ("word-per-slot", Algorithm::LevelArray),
        ("packed", Algorithm::LevelArrayPacked),
    ];
    let mut header = vec!["layout", "threads", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut layout_table = Table::new(&header);
    for (layout, algorithm) in LAYOUT_ABLATION {
        let result = la_bench::workload::run_workload_repeated(algorithm, base, repeat);
        record(
            sink,
            &result,
            format!("sweeps/layout={layout}/{}", result.algorithm),
        );
        layout_table.push_row(result_row(
            &result,
            vec![
                layout.into(),
                threads.into(),
                result.algorithm.clone().into(),
            ],
        ));
    }
    // The contended cell: the same ablation at >= 8 threads, where the
    // cache-line traffic of concurrent Gets actually bites.
    let contended_threads = threads.max(8);
    let contended = WorkloadConfig {
        threads: contended_threads,
        ..base.clone()
    };
    for (layout, algorithm) in LAYOUT_ABLATION {
        let result = la_bench::workload::run_workload_repeated(algorithm, &contended, repeat);
        record(
            sink,
            &result,
            format!(
                "sweeps/layout={layout}/threads={contended_threads}/{}",
                result.algorithm
            ),
        );
        layout_table.push_row(result_row(
            &result,
            vec![
                layout.into(),
                contended_threads.into(),
                result.algorithm.clone().into(),
            ],
        ));
    }
    println!(
        "## Slot-layout ablation, Get side (SlotLayout)\n\n{}",
        layout_table.to_markdown()
    );

    // 9. Collect-latency sweep, scan side: the single-threaded latency of one
    // Collect pass at fixed occupancies, for both layouts.  This is the
    // paper's §1 pitch — Collect reads a small, cache-friendly region — taken
    // to its memory floor: the packed layout snapshots one word per 64 slots.
    // collect_into scans into a reused buffer, so the measured loop is the
    // scan itself, not the allocator.
    let collect_n: usize = env_or("SWEEP_COLLECT_N", 4096);
    let collect_iters: u32 = env_or("SWEEP_COLLECT_ITERS", 10_000);
    let mut collect_table = Table::new(&[
        "layout",
        "n",
        "occupancy",
        "collects/s",
        "ns/collect",
        "held seen",
    ]);
    // Warm, then median-of-repeat damping, exactly like the workload cells:
    // a single collect is a microsecond-scale measurement, far too exposed
    // to frequency scaling for a one-shot number to diff.
    let median_scan = |out: &mut Vec<Name>, pass: &mut dyn FnMut(&mut Vec<Name>)| {
        for _ in 0..collect_iters / 10 + 1 {
            out.clear();
            pass(out);
        }
        let mut runs: Vec<(f64, usize)> = (0..repeat.max(1))
            .map(|_| {
                let started = Instant::now();
                let mut seen = 0usize;
                for _ in 0..collect_iters {
                    out.clear();
                    pass(out);
                    seen += out.len();
                }
                (started.elapsed().as_secs_f64(), seen)
            })
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        runs[runs.len() / 2]
    };
    let emit_collect = |sink: &mut Option<JsonSink>,
                        table: &mut Table,
                        label: &str,
                        occupancy: f64,
                        elapsed_s: f64,
                        seen: usize| {
        let per_collect_ns = elapsed_s * 1e9 / f64::from(collect_iters);
        let collects_per_s = if elapsed_s == 0.0 {
            0.0
        } else {
            f64::from(collect_iters) / elapsed_s
        };
        if let Some(sink) = sink.as_mut() {
            sink.write(
                &JsonRecord::new()
                    .field(
                        "key",
                        format!("sweeps/collect/n={collect_n}/occ={occupancy}/{label}"),
                    )
                    .field("bench", "sweeps")
                    .field("algorithm", format!("Collect({label})"))
                    .field("slots", collect_n as u64)
                    .field("occupancy", occupancy)
                    .field("collect_iters", u64::from(collect_iters))
                    .field("throughput", collects_per_s)
                    .field("collect_ns", per_collect_ns),
            );
        }
        table.push_row(vec![
            label.into(),
            collect_n.into(),
            Cell::FloatPrec(occupancy, 2),
            Cell::FloatPrec(collects_per_s, 0),
            Cell::FloatPrec(per_collect_ns, 0),
            (seen as u64 / u64::from(collect_iters)).into(),
        ]);
    };
    let layout_configs: [(&str, LevelArrayConfig); 2] = [
        (
            "word-per-slot",
            LevelArrayConfig::new(collect_n).slot_layout(SlotLayout::WordPerSlot),
        ),
        (
            "packed",
            LevelArrayConfig::new(collect_n).slot_layout(SlotLayout::Packed),
        ),
    ];
    for (label, config) in &layout_configs {
        for occupancy in [0.1, 0.5, 0.9] {
            let array = config.clone().build().expect("valid configuration");
            let mut rng = default_rng(0xC011EC7);
            let target = ((collect_n as f64) * occupancy) as usize;
            let held: Vec<_> = (0..target).map(|_| array.get(&mut rng).name()).collect();

            let mut out = Vec::with_capacity(collect_n);
            let (elapsed_s, seen) = median_scan(&mut out, &mut |out| array.collect_into(out));
            for name in held {
                array.free(name);
            }
            emit_collect(sink, &mut collect_table, label, occupancy, elapsed_s, seen);
        }
    }
    // The scalar reference: the pre-batching word-at-a-time walk over the
    // exact bit pattern of the packed cell, so the committed table always
    // carries the batched-vs-scalar ratio the batched scans claim.
    for occupancy in [0.1, 0.5, 0.9] {
        let array = LevelArrayConfig::new(collect_n)
            .slot_layout(SlotLayout::Packed)
            .build()
            .expect("valid configuration");
        let mut rng = default_rng(0xC011EC7);
        let target = ((collect_n as f64) * occupancy) as usize;
        let held: Vec<_> = (0..target).map(|_| array.get(&mut rng).name()).collect();
        let reference = PackedSlots::new(array.capacity());
        for name in &held {
            assert!(reference.try_acquire(name.index(), TasKind::CompareExchange));
        }

        let mut out = Vec::with_capacity(collect_n);
        let len = reference.len();
        let (elapsed_s, seen) = median_scan(&mut out, &mut |out| {
            reference.for_each_held_scalar(0..len, |idx| out.push(Name::new(idx)));
        });
        for name in held {
            array.free(name);
        }
        emit_collect(
            sink,
            &mut collect_table,
            "packed-scalar",
            occupancy,
            elapsed_s,
            seen,
        );
    }
    println!(
        "## Collect-latency sweep, scan side (SlotLayout)\n\n{}",
        collect_table.to_markdown()
    );

    // 10. Free→Get hint micro: the same-thread free-then-get churn pair on a
    // nearly full array sized with almost no slack, so the probe sequence a
    // hint-less Get has to run is expensive — the shape a thread pool's
    // register/deregister churn takes under peak load.  The hint-on cell
    // retries the just-freed slot with one cache-hot CAS instead.
    let hint_n: usize = env_or("SWEEP_HINT_N", 256).max(2);
    let hint_pairs: u32 = env_or("SWEEP_HINT_PAIRS", 200_000);
    let mut hint_table = Table::new(&["hint", "n", "pairs/s", "ns/pair", "avg probes"]);
    for (label, enabled) in [("off", false), ("on", true)] {
        let array = LevelArrayConfig::new(hint_n)
            .space_factor(1.15)
            .free_hint(enabled)
            .build()
            .expect("valid configuration");
        let mut rng = default_rng(0xF1EE7);
        // Hold all but one slot of the bound: every measured Get probes a
        // nearly full array unless the hint short-circuits it.
        let held: Vec<_> = (0..hint_n - 1)
            .map(|_| array.get(&mut rng).name())
            .collect();
        // Warm.
        for _ in 0..1_000 {
            let got = array.get(&mut rng);
            array.free(got.name());
        }
        let mut probe_sum = 0u64;
        let mut runs: Vec<f64> = (0..repeat.max(1))
            .map(|_| {
                let started = Instant::now();
                for _ in 0..hint_pairs {
                    let got = array.get(&mut rng);
                    probe_sum += u64::from(got.probes());
                    array.free(got.name());
                }
                started.elapsed().as_secs_f64()
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        let elapsed_s = runs[runs.len() / 2];
        let total_pairs = u64::from(hint_pairs) * repeat.max(1) as u64;
        let mean_probes = probe_sum as f64 / total_pairs as f64;
        for name in held {
            array.free(name);
        }

        let pair_ns = elapsed_s * 1e9 / f64::from(hint_pairs);
        let pairs_per_s = if elapsed_s == 0.0 {
            0.0
        } else {
            f64::from(hint_pairs) / elapsed_s
        };
        if let Some(sink) = sink.as_mut() {
            sink.write(
                &JsonRecord::new()
                    .field("key", format!("sweeps/hint/n={hint_n}/{label}"))
                    .field("bench", "sweeps")
                    .field("algorithm", format!("FreeGetPair(hint={label})"))
                    .field("contention", hint_n as u64)
                    .field("pairs", u64::from(hint_pairs))
                    .field("throughput", pairs_per_s)
                    .field("pair_ns", pair_ns)
                    .field("mean_probes", mean_probes),
            );
        }
        hint_table.push_row(vec![
            label.into(),
            hint_n.into(),
            Cell::FloatPrec(pairs_per_s, 0),
            Cell::FloatPrec(pair_ns, 1),
            Cell::FloatPrec(mean_probes, 3),
        ]);
    }
    println!(
        "## Free→Get hint micro (free_hint)\n\n{}",
        hint_table.to_markdown()
    );
}

/// Section 11: the topology sweeps behind `make bench-topology`.
///
/// Both cells run a ≥8-thread contended `Get` storm (75% pre-fill) over a
/// bound large enough that a flat epoch's random-probe working set outgrows
/// the fast cache levels while one shard group stays hot under the sticky
/// home routing — the locality the hierarchical composition buys even when
/// the threads time-share cores:
///
/// * **Shard-group scaling** — the hierarchical array against its own
///   `shard_group` knob, with the flat elastic array (`shard_group = 0`) as
///   the baseline the ISSUE's acceptance compares against.
/// * **False-sharing tax** — word-per-slot vs bit-packed slots for both the
///   hierarchical and the flat composition: packing 64 slots per atomic
///   word makes concurrent `Get`s collide on cache lines, and the storm
///   prices that.
fn topology_sweeps(base: &WorkloadConfig, repeat: usize, sink: &mut Option<JsonSink>) {
    let quick = std::env::var("MICRO_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let threads = base.threads.max(8);
    let emulated: usize = env_or("SWEEP_TOPOLOGY_EMULATED", if quick { 64 } else { 512 });
    let ops: u64 = env_or(
        "SWEEP_TOPOLOGY_OPS",
        if quick {
            2_000
        } else {
            base.target_ops_per_thread
        },
    );
    let prefill: f64 = env_or("SWEEP_TOPOLOGY_PREFILL", 0.9);
    // Tighter than the paper's L/N ∈ [2, 4] on purpose: at 90% pre-fill and
    // 1.5 slots per participant the probe sequence does real work per Get,
    // so the storm prices *where* those probes land (a flat epoch's
    // 100-KB-scale working set vs one cache-resident shard) instead of the
    // fixed per-op overhead around a single lucky probe.
    let space_factor: f64 = env_or("SWEEP_TOPOLOGY_SPACE", 1.5);
    let storm = WorkloadConfig {
        threads,
        emulated_per_thread: emulated,
        prefill,
        space_factor,
        target_ops_per_thread: ops,
        ..base.clone()
    };
    let n = storm.logical_participants();

    // Shard-group scaling: 0 (flat epochs) is the comparison baseline.
    let groups: Vec<usize> = std::env::var("SWEEP_TOPOLOGY_GROUPS")
        .ok()
        .map(|s| s.split(',').filter_map(|g| g.trim().parse().ok()).collect())
        .filter(|g: &Vec<usize>| !g.is_empty())
        .unwrap_or_else(|| vec![0, 16, 64, 256]);
    let mut header = vec!["shard group", "epoch shards", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut scaling_table = Table::new(&header);
    for group in groups {
        let algorithm = Algorithm::Hierarchical { shard_group: group };
        let result = la_bench::workload::run_workload_repeated(algorithm, &storm, repeat);
        record(
            sink,
            &result,
            format!("sweeps/topology/group={group}/{}", result.algorithm),
        );
        let shards = if group == 0 {
            1
        } else {
            n.div_ceil(group).max(1)
        };
        scaling_table.push_row(result_row(
            &result,
            vec![group.into(), shards.into(), result.algorithm.clone().into()],
        ));
    }
    println!(
        "## Hierarchical shard-group scaling (threads = {threads}, N = {n}, prefill {prefill})\n\n{}",
        scaling_table.to_markdown()
    );

    // False-sharing tax: packed vs word slots under the same storm.
    let mut header = vec!["layout", "algorithm"];
    header.extend(METRIC_COLUMNS);
    let mut tax_table = Table::new(&header);
    for (layout, algorithm) in [
        ("word-per-slot", Algorithm::Hierarchical { shard_group: 64 }),
        ("packed", Algorithm::HierarchicalPacked { shard_group: 64 }),
        ("word-per-slot", Algorithm::Hierarchical { shard_group: 0 }),
        ("packed", Algorithm::HierarchicalPacked { shard_group: 0 }),
    ] {
        let result = la_bench::workload::run_workload_repeated(algorithm, &storm, repeat);
        record(
            sink,
            &result,
            format!("sweeps/topology/layout={layout}/{}", result.algorithm),
        );
        tax_table.push_row(result_row(
            &result,
            vec![layout.into(), result.algorithm.clone().into()],
        ));
    }
    println!(
        "## Packed-vs-word false-sharing tax (threads = {threads}, N = {n})\n\n{}",
        tax_table.to_markdown()
    );
}

/// Section 12: the batched-ops micro behind `make bench-batch`.
///
/// Single-threaded churn at 50% background occupancy: each round acquires a
/// batch of `k` names and releases it again, either through the batched
/// kernels (`get_many` + `free_many` — one multi-claim CAS per probed word,
/// one `fetch_and` per released word) or through the equivalent
/// `k`-singleton loops.  Per slot layout, because the batching argument is a
/// *word-level* one: packed words carry 64 slots per RMW, word-per-slot
/// falls back to the per-index loop and prices the pure call-overhead
/// saving.
fn batch_sweeps(repeat: usize, sink: &mut Option<JsonSink>) {
    let quick = std::env::var("MICRO_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let k: usize = env_or("SWEEP_BATCH_K", 16).max(1);
    let n: usize = env_or("SWEEP_BATCH_N", 256).max(2 * k);
    let rounds: u32 = env_or("SWEEP_BATCH_ROUNDS", if quick { 500 } else { 20_000 });

    let layout_configs: [(&str, LevelArrayConfig); 2] = [
        (
            "word-per-slot",
            LevelArrayConfig::new(n).slot_layout(SlotLayout::WordPerSlot),
        ),
        (
            "packed",
            LevelArrayConfig::new(n).slot_layout(SlotLayout::Packed),
        ),
    ];
    let mut batch_table = Table::new(&["layout", "variant", "k", "ops/s", "ns/op"]);
    for (layout, config) in &layout_configs {
        for (variant, batched) in [("singleton", false), ("batched", true)] {
            let array = config.clone().build().expect("valid configuration");
            let mut rng = default_rng(0xBA7C4);
            // Half the bound stays held as background load, so every round's
            // probes land in a realistically mixed bit pattern.
            let held: Vec<Name> = (0..n / 2).map(|_| array.get(&mut rng).name()).collect();
            let mut out = Vec::with_capacity(k);
            let mut names: Vec<Name> = Vec::with_capacity(k);
            let mut round = |rng: &mut larng::DefaultRng| {
                if batched {
                    out.clear();
                    let won = array.get_many(rng, k, &mut out);
                    debug_assert_eq!(won, k);
                    names.clear();
                    names.extend(out.iter().map(|got| got.name()));
                    array.free_many(&names);
                } else {
                    names.clear();
                    for _ in 0..k {
                        names.push(array.get(rng).name());
                    }
                    for &name in &names {
                        array.free(name);
                    }
                }
            };
            // Warm, then keep the median run, like every other cell here.
            for _ in 0..(rounds / 10 + 1) {
                round(&mut rng);
            }
            let mut runs: Vec<f64> = (0..repeat.max(1))
                .map(|_| {
                    let started = Instant::now();
                    for _ in 0..rounds {
                        round(&mut rng);
                    }
                    started.elapsed().as_secs_f64()
                })
                .collect();
            runs.sort_by(f64::total_cmp);
            let elapsed_s = runs[runs.len() / 2];
            for name in held {
                array.free(name);
            }

            // One round = k acquisitions + k releases.
            let ops = 2 * k as u64 * u64::from(rounds);
            let ops_per_s = if elapsed_s == 0.0 {
                0.0
            } else {
                ops as f64 / elapsed_s
            };
            let op_ns = elapsed_s * 1e9 / ops as f64;
            if let Some(sink) = sink.as_mut() {
                sink.write(
                    &JsonRecord::new()
                        .field("key", format!("sweeps/batch/k={k}/{layout}/{variant}"))
                        .field("bench", "sweeps")
                        .field("algorithm", format!("BatchChurn({layout}, {variant})"))
                        .field("contention", n as u64)
                        .field("batch_k", k as u64)
                        .field("rounds", u64::from(rounds))
                        .field("throughput", ops_per_s)
                        .field("op_ns", op_ns),
                );
            }
            batch_table.push_row(vec![
                (*layout).into(),
                variant.into(),
                k.into(),
                Cell::FloatPrec(ops_per_s, 0),
                Cell::FloatPrec(op_ns, 1),
            ]);
        }
    }
    println!(
        "## Batched get_many/free_many vs k-singleton loops (n = {n}, k = {k})\n\n{}",
        batch_table.to_markdown()
    );
}

/// Section 13: the crash-storm cell behind `make fault-storm`.
///
/// A contended get/free churn in which every operation runs under
/// `catch_unwind` and recovery — the retry/orphan/sweep protocol a
/// crash-robust client needs — is part of the measured path.  In a normal
/// build the failpoints are compiled out, so the cell prices the *guards
/// alone* (key `sweeps/fault/storm=guards`): that is the baseline recorded
/// in `bench/baselines/`, and drift on it is the cost of the robustness
/// layer itself.  Under `RUSTFLAGS="--cfg la_fault"` the cell arms
/// [`la_fault::FaultPlan::storm`] (seed `LA_FAULT_SEED`, default `0xF417`)
/// and prices survival instead (key `sweeps/fault/storm=armed`) — the two
/// keys are distinct on purpose, so an armed run never diffs against the
/// guards-only baseline.
fn fault_sweeps(repeat: usize, sink: &mut Option<JsonSink>) {
    let quick = std::env::var("MICRO_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let threads: usize = env_or("SWEEP_FAULT_THREADS", 4).max(1);
    let ops: u64 = env_or("SWEEP_FAULT_OPS", if quick { 5_000 } else { 100_000 });
    let seed: u64 = env_or("LA_FAULT_SEED", 0xF417);
    let armed = cfg!(la_fault);
    let mode = if armed { "armed" } else { "guards" };
    if armed {
        la_fault::reset();
        la_fault::install_quiet_hook();
        la_fault::configure(la_fault::FaultPlan::storm(seed));
    }

    let array = levelarray::ShardedLevelArray::new(threads * 16, threads.min(4));
    let mut deaths_total = 0u64;
    let mut rollbacks_total = 0u64;
    let mut runs: Vec<f64> = Vec::with_capacity(repeat.max(1));
    for rep in 0..repeat.max(1) {
        let started = Instant::now();
        let (deaths, rollbacks) = std::thread::scope(|scope| {
            let array = &array;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut rng = default_rng(seed ^ (0xFA17 * (t as u64 + 1) + rep as u64));
                        let mut deaths = 0u64;
                        let mut rollbacks = 0u64;
                        let mut orphans: Vec<Name> = Vec::new();
                        let catching = |f: &mut dyn FnMut()| {
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                        };
                        for _ in 0..ops {
                            let mut held: Option<Name> = None;
                            match catching(&mut || {
                                held = array.try_get(&mut rng).map(|got| got.name());
                            }) {
                                Ok(()) => {}
                                Err(payload) => {
                                    // A simulated death mid-acquisition held
                                    // nothing; any other injected unwind
                                    // rolled back.  Both cost one lost op.
                                    if payload.downcast_ref::<la_fault::ThreadDeath>().is_some() {
                                        deaths += 1;
                                    } else {
                                        rollbacks += 1;
                                    }
                                    continue;
                                }
                            }
                            let Some(name) = held else { continue };
                            loop {
                                match catching(&mut || array.free(name)) {
                                    Ok(()) => break,
                                    Err(payload) => {
                                        if payload.downcast_ref::<la_fault::ThreadDeath>().is_some()
                                        {
                                            // The client died holding a name:
                                            // its successor inherits it as an
                                            // orphan to sweep.
                                            deaths += 1;
                                            orphans.push(name);
                                            break;
                                        }
                                        // `free` is all-or-nothing: retry.
                                        rollbacks += 1;
                                    }
                                }
                            }
                            // The recovery sweep is part of the measured
                            // path: a crash-robust client pays it inline.
                            if orphans.len() >= 8 {
                                while let Some(orphan) = orphans.last().copied() {
                                    match catching(&mut || array.free(orphan)) {
                                        Ok(()) => {
                                            orphans.pop();
                                        }
                                        Err(payload) => {
                                            if payload
                                                .downcast_ref::<la_fault::ThreadDeath>()
                                                .is_some()
                                            {
                                                deaths += 1;
                                                break;
                                            }
                                            rollbacks += 1;
                                        }
                                    }
                                }
                            }
                        }
                        // Final drain so the array ends each run empty.
                        for orphan in orphans {
                            loop {
                                if catching(&mut || array.free(orphan)).is_ok() {
                                    break;
                                }
                            }
                        }
                        (deaths, rollbacks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fault-storm worker panicked"))
                .fold((0u64, 0u64), |(d, r), (dd, rr)| (d + dd, r + rr))
        });
        runs.push(started.elapsed().as_secs_f64());
        deaths_total += deaths;
        rollbacks_total += rollbacks;
        assert!(
            array.collect().is_empty(),
            "fault-storm cell leaked names between runs"
        );
    }
    if armed {
        la_fault::reset();
    }
    runs.sort_by(f64::total_cmp);
    let elapsed_s = runs[runs.len() / 2];
    let total_ops = ops * threads as u64;
    let ops_per_s = if elapsed_s == 0.0 {
        0.0
    } else {
        total_ops as f64 / elapsed_s
    };

    if let Some(sink) = sink.as_mut() {
        sink.write(
            &JsonRecord::new()
                .field("key", format!("sweeps/fault/storm={mode}"))
                .field("bench", "sweeps")
                .field("algorithm", format!("FaultStorm({mode})"))
                .field("threads", threads as u64)
                .field("total_ops", total_ops)
                .field("elapsed_s", elapsed_s)
                .field("throughput", ops_per_s)
                .field("deaths", deaths_total)
                .field("rollbacks", rollbacks_total),
        );
    }
    let mut fault_table = Table::new(&["mode", "threads", "ops/s", "deaths", "rollbacks"]);
    fault_table.push_row(vec![
        mode.into(),
        threads.into(),
        Cell::FloatPrec(ops_per_s, 0),
        deaths_total.into(),
        rollbacks_total.into(),
    ]);
    println!(
        "## Crash-storm churn under panic guards (mode = {mode})\n\n{}",
        fault_table.to_markdown()
    );
}
