//! Cross-crate integration tests: the whole stack — core algorithm, baselines,
//! simulator, and the three application crates — working together the way a
//! downstream user would combine them.

use std::sync::Arc;

use la_sim::executor::{run_uniform_workload, SimulationConfig};
use la_sim::{HealingExperiment, UnbalanceSpec};
use larng::{default_rng, SeedSequence};
use levelarray::{ActivityArray, LevelArray, LevelArrayConfig};
use levelarray_suite::baselines::{LinearProbingArray, RandomArray};
use levelarray_suite::coordination::ReaderRegistry;
use levelarray_suite::flatcombine::FcCounter;
use levelarray_suite::reclaim::{ReclaimDomain, TreiberStack};

/// The umbrella crate re-exports every member crate under a stable name.
#[test]
fn umbrella_reexports_are_usable() {
    let array = levelarray_suite::core::LevelArray::new(4);
    let mut rng = levelarray_suite::rng::default_rng(1);
    let got = array.get(&mut rng);
    array.free(got.name());
    let _sched = levelarray_suite::sim::Schedule::round_robin(2, 4);
    let _random = RandomArray::new(2);
    let _linear = LinearProbingArray::new(2);
}

/// One registry instance can simultaneously serve several applications —
/// here a reclamation domain and a reader registry share the same LevelArray,
/// which is exactly how a runtime with a single "thread registry" would use
/// the data structure.
#[test]
fn shared_registry_across_applications() {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .clamp(2, 4);
    // Capacity for: one pinned reclaim operation + one read-side section per
    // thread at any time.
    let registry: Arc<dyn ActivityArray> = Arc::new(LevelArray::new(threads * 2));
    let domain = Arc::new(ReclaimDomain::new(Arc::clone(&registry)));
    let readers = Arc::new(ReaderRegistry::new(Arc::clone(&registry)));
    let stack: Arc<TreiberStack<usize>> = Arc::new(TreiberStack::new(Arc::clone(&domain)));

    let mut seeds = SeedSequence::new(9);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stack = Arc::clone(&stack);
            let readers = Arc::clone(&readers);
            let seed = seeds.next_seed();
            scope.spawn(move || {
                let mut rng = default_rng(seed);
                for i in 0..2_000 {
                    stack.push(t * 10_000 + i, &mut rng);
                    {
                        let _read = readers.enter(&mut rng);
                        // Read-side section: observe the registry census.
                        let _ = readers.active_readers();
                    }
                    let _ = stack.pop(&mut rng);
                    if i % 256 == 0 {
                        stack.domain().try_reclaim();
                    }
                }
            });
        }
    });

    // Quiescent: nothing registered, everything reclaimable.
    assert!(registry.collect().is_empty());
    let _ = domain.try_reclaim();
    let _ = domain.try_reclaim();
    let stats = domain.stats();
    assert_eq!(stats.freed, stats.retired);
    assert!(readers.is_quiescent());
}

/// The simulator accepts the baselines and the LevelArray interchangeably and
/// produces consistent reports for all of them.
#[test]
fn simulator_drives_all_algorithms_consistently() {
    let algorithms: Vec<Box<dyn ActivityArray>> = vec![
        Box::new(LevelArray::new(16)),
        Box::new(RandomArray::new(16)),
        Box::new(LinearProbingArray::new(16)),
    ];
    for array in &algorithms {
        let report = run_uniform_workload(
            array.as_ref(),
            8,
            50,
            1,
            SimulationConfig {
                master_seed: 77,
                snapshot_every: Some(25),
                balance_every: None,
                contention_bound: None,
            },
        );
        assert!(report.is_correct(), "{}", array.algorithm_name());
        assert_eq!(report.gets, 400, "{}", array.algorithm_name());
        assert_eq!(report.frees, 400, "{}", array.algorithm_name());
        assert!(!report.samples.is_empty());
        assert_eq!(report.final_occupancy.total_occupied(), 0);
    }
}

/// The paper's two headline behaviours, checked end-to-end through the public
/// API: probe counts stay tiny under churn, and a skewed array heals.
#[test]
fn headline_behaviours_hold_end_to_end() {
    // 1. Tiny probe counts under churn (cf. Figure 2's average/worst panels).
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .clamp(2, 4);
    let array = Arc::new(LevelArray::new(256));
    let mut seeds = SeedSequence::new(3);
    let mut merged = levelarray::GetStats::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let array = Arc::clone(&array);
            let seed = seeds.next_seed();
            handles.push(scope.spawn(move || {
                let mut rng = default_rng(seed);
                let mut stats = levelarray::GetStats::new();
                for _ in 0..20_000 {
                    let got = array.get(&mut rng);
                    stats.record(&got);
                    array.free(got.name());
                }
                stats
            }));
        }
        for handle in handles {
            merged.merge(&handle.join().unwrap());
        }
    });
    assert!(merged.mean_probes() < 2.0);
    assert!(merged.max_probes() <= 8);

    // 2. Self-healing from the Figure-3 skew.
    let healing = HealingExperiment {
        array: LevelArrayConfig::new(256),
        workers: 64,
        total_ops: 24_000,
        snapshot_every: 2_000,
        spec: UnbalanceSpec::paper_figure3(),
        seed: 5,
        ghost_release_probability: 0.5,
    }
    .run();
    assert!(!healing.initially_balanced);
    assert!(healing.finally_balanced);
}

/// The analysis configuration (c_i = 16) and the implementation configuration
/// (c_i = 1) are both usable through the same builder, and the flat-combining
/// application works on top of either.
#[test]
fn configurations_compose_with_applications() {
    for probes in [1, 16] {
        let registry = Arc::new(
            LevelArrayConfig::new(8)
                .probes_per_batch(probes)
                .build()
                .unwrap(),
        );
        let counter = FcCounter::new(registry);
        let mut rng = default_rng(11);
        let session = counter.join(&mut rng);
        for _ in 0..100 {
            session.increment();
        }
        drop(session);
        assert_eq!(counter.load(), 100, "c_i = {probes}");
    }
}
