//! Empirical validation of the paper's theoretical claims: the balance
//! definitions of §5 and the self-healing of §5.2.
//!
//! These are not statistical proofs — they check that, at laptop scale and
//! with fixed seeds, the quantities the theorems talk about behave the way the
//! theorems predict.

use la_sim::executor::{run_uniform_workload, Simulation, SimulationConfig};
use la_sim::{HealingExperiment, ProcessInput, Schedule, UnbalanceSpec};
use levelarray::{LevelArray, LevelArrayConfig, ProbePolicy, ShardedLevelArray};

/// Theorem 1 (polynomial executions stay balanced) under the *analysis*
/// configuration: c_i = 16 probes per batch.  Even at full contention
/// (processes == n) every balance evaluation over a long execution must find
/// the array fully balanced.
#[test]
fn theorem1_balance_with_analysis_probe_counts() {
    let n = 128;
    let array = LevelArrayConfig::new(n)
        .probe_policy(ProbePolicy::Uniform(16))
        .build()
        .unwrap();

    let cycles = 200;
    let inputs: Vec<ProcessInput> = (0..n)
        .map(|_| ProcessInput::get_free_cycles(cycles, 1, 0))
        .collect();
    let steps: usize = inputs.iter().map(ProcessInput::len).sum();
    let mut rng = larng::default_rng(11);
    let schedule = Schedule::uniform_random(n, steps, &mut rng);

    let report = Simulation::new(
        &array,
        inputs,
        schedule,
        SimulationConfig {
            master_seed: 12,
            snapshot_every: None,
            balance_every: Some(8),
            contention_bound: Some(n),
        },
    )
    .run();

    assert!(report.is_correct(), "{:?}", report.violations);
    assert!(report.balance.checks > 1_000);
    assert!(
        report.balance.always_balanced(),
        "array became unbalanced: {:?}",
        report.balance
    );
    // With 16 probes in batch 0 the expected probe count is still small.
    assert!(report.get_stats.mean_probes() < 4.0);
}

/// Theorem 1's complexity claim with the *implementation* configuration
/// (one probe per batch): over a polynomial-length execution at the paper's
/// 50%-style load, the worst-case probe count stays at the O(log log n) scale
/// (single digits) and the mean stays below 2 — the numbers reported in §6.
#[test]
fn theorem1_probe_complexity_with_implementation_config() {
    let n = 256;
    let active = n / 2; // ~50% load, the paper's default pre-fill
    let array = LevelArray::new(n);

    let cycles = 400;
    let inputs: Vec<ProcessInput> = (0..active)
        .map(|_| ProcessInput::get_free_cycles(cycles, 0, 0))
        .collect();
    // Round-robin gives every process exactly as many steps as its input
    // needs, so the operation counts below are exact.
    let steps: usize = inputs.iter().map(ProcessInput::len).sum();
    let schedule = Schedule::round_robin(active, steps);

    let report = Simulation::new(
        &array,
        inputs,
        schedule,
        SimulationConfig {
            master_seed: 22,
            snapshot_every: None,
            balance_every: None,
            contention_bound: Some(n),
        },
    )
    .run();

    assert!(report.is_correct());
    assert_eq!(report.gets, (active * cycles) as u64);
    assert!(
        report.get_stats.mean_probes() < 2.0,
        "mean probes {}",
        report.get_stats.mean_probes()
    );
    assert!(
        report.get_stats.max_probes() <= 8,
        "worst case {} probes",
        report.get_stats.max_probes()
    );
    assert_eq!(report.get_stats.backup_operations(), 0);
}

/// The oblivious adversary cannot break correctness or blow up probe counts
/// with a bursty schedule (one process runs alone for long stretches).
#[test]
fn bursty_adversarial_schedule_is_still_fast_and_correct() {
    // The contention bound is kept well above the active process count so the
    // Definition-2 thresholds (calibrated for the analysis' c_i >= 16) leave
    // slack for the implementation's single probe per batch.
    let n = 256;
    let active = 16;
    let array = LevelArray::new(n);
    let cycles = 300;
    let inputs: Vec<ProcessInput> = (0..active)
        .map(|_| ProcessInput::get_free_cycles(cycles, 2, 10))
        .collect();
    let steps: usize = inputs.iter().map(ProcessInput::len).sum();
    let schedule = Schedule::bursty(active, 37, steps * 2);

    let report = Simulation::new(
        &array,
        inputs,
        schedule,
        SimulationConfig {
            master_seed: 31,
            snapshot_every: None,
            balance_every: Some(16),
            contention_bound: Some(n),
        },
    )
    .run();

    assert!(report.is_correct());
    assert_eq!(report.gets, (active * cycles) as u64);
    assert!(report.balance.always_balanced(), "{:?}", report.balance);
    assert!(report.get_stats.max_probes() <= 8);
}

/// Theorem 2 / Lemma 3 (self-healing): from the paper's Figure-3 skew the
/// array returns to a fully balanced state and stays there, under a compact
/// workload.  The convergence must happen well within the run, as the paper
/// observes ("faster than predicted by the analysis").
#[test]
fn theorem2_self_healing_from_figure3_skew() {
    let n = 512;
    let experiment = HealingExperiment {
        array: LevelArrayConfig::new(n),
        workers: n / 4,
        total_ops: 40_000,
        snapshot_every: 2_000,
        spec: UnbalanceSpec::paper_figure3(),
        seed: 41,
        ghost_release_probability: 0.5,
    };
    let report = experiment.run();
    assert!(!report.initially_balanced);
    assert!(report.finally_balanced);
    let healed = report.ops_to_balance.expect("must stabilize");
    assert!(
        healed <= 20_000,
        "took {healed} ops to heal, far slower than the paper's observation"
    );
    // The overcrowded batch's fill must decrease monotonically-ish: final
    // strictly below half its initial value.
    let first = report.samples.first().unwrap();
    let last = report.samples.last().unwrap();
    assert!(last.batch_fill[1] < first.batch_fill[1] / 2.0);
}

/// Self-healing from a much nastier state than Figure 3: several deep batches
/// stuffed to 100%.  The structure must still drain back to balance because
/// the skewed holdings are eventually freed (the compactness assumption).
#[test]
fn theorem2_self_healing_from_saturated_deep_batches() {
    let n = 512;
    let experiment = HealingExperiment {
        array: LevelArrayConfig::new(n),
        workers: n / 8,
        total_ops: 60_000,
        snapshot_every: 3_000,
        spec: UnbalanceSpec::new(vec![0.05, 1.0, 1.0, 1.0]),
        seed: 43,
        ghost_release_probability: 0.6,
    };
    let report = experiment.run();
    assert!(!report.initially_balanced);
    assert!(
        report.finally_balanced,
        "did not heal: {:?}",
        report.samples.last()
    );
    assert!(report.ops_to_balance.is_some());
}

/// The generic adversarial executor works on the sharded layout through the
/// plain `ActivityArray` trait: renaming stays correct, and the balance
/// evaluations aggregate the per-shard census (they would be vacuously true
/// if the sharded regions were invisible to the balance machinery).
#[test]
fn generic_executor_judges_sharded_arrays() {
    let n = 128;
    let array = ShardedLevelArray::new(n, 4);
    let report = run_uniform_workload(
        &array,
        32,
        50,
        2,
        SimulationConfig {
            master_seed: 1,
            balance_every: Some(1),
            snapshot_every: Some(25),
            contention_bound: None,
        },
    );
    assert!(report.is_correct());
    assert!(report.balance.checks > 0);
    assert!(report.balance.always_balanced());
    // The occupancy samples carry the aggregated per-batch series — the
    // sharded census must not look batchless to the sampler.
    let sample = report.samples.first().expect("snapshots were requested");
    assert_eq!(
        sample.batch_fill.len(),
        array.shard_geometry().num_batches()
    );
}

/// The compactness machinery itself: the schedules used above are compact with
/// the expected bounds, and compactness composes with concatenation.
#[test]
fn compact_schedule_properties() {
    let rr = Schedule::round_robin(8, 80);
    assert!(rr.is_compact(7));
    assert!(!rr.is_compact(6));

    let bursty = Schedule::bursty(4, 10, 200);
    // Between two steps of the same process there are at most 3 * 10 steps of
    // the others.
    assert!(bursty.is_compact(30));
    assert!(!bursty.is_compact(29));

    let combined = rr.clone().concat(&Schedule::round_robin(8, 80));
    assert!(combined.is_compact(7));

    // Per-process input compactness (Definition 3 restricted to one input).
    let input = ProcessInput::get_free_cycles(10, 5, 0);
    assert!(input.is_compact(6));
    assert!(!input.is_compact(3));
}
