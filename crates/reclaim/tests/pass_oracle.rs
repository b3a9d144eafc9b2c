//! `ReclaimDomain::try_reclaim` against a reference model of the rule it
//! replaced.
//!
//! The model keeps one waiting set per closed bag, the names of the bag's
//! snapshot not yet seen absent, and prunes every bag against each pass's
//! `Collect`.  The domain keeps one sorted present-since list instead and
//! frees bags off the front of a queue.  Both are driven over one shared
//! registry through seeded random sequential schedules of get, free, retire
//! and pass, and must free the same nodes on every pass and agree on
//! `in_limbo` after it.  The elastic schedules grow their registry, so the
//! domain's sort sees names from several epochs.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError};

use la_reclaim::ReclaimDomain;
use larng::{default_rng, RandomSource};
use levelarray::{
    ActivityArray, ElasticLevelArray, GrowthPolicy, LevelArray, Name, ShardedLevelArray,
};

/// The reference rule: a bag closed against a snapshot is freed once every
/// name in that snapshot has been absent from some later `Collect`.
#[derive(Default)]
struct Model {
    open: Vec<u64>,
    closed: Vec<(Vec<u64>, HashSet<Name>)>,
}

impl Model {
    /// One pass over `collect`; returns the ids it frees.
    fn pass(&mut self, collect: &[Name]) -> Vec<u64> {
        let snapshot: HashSet<Name> = collect.iter().copied().collect();
        if !self.open.is_empty() {
            let nodes = std::mem::take(&mut self.open);
            self.closed.push((nodes, snapshot.clone()));
        }
        let mut freed = Vec::new();
        self.closed.retain_mut(|(nodes, waiting_on)| {
            waiting_on.retain(|name| snapshot.contains(name));
            if waiting_on.is_empty() {
                freed.append(nodes);
            }
            !waiting_on.is_empty()
        });
        freed
    }

    fn in_limbo(&self) -> u64 {
        let closed: usize = self.closed.iter().map(|(nodes, _)| nodes.len()).sum();
        (self.open.len() + closed) as u64
    }
}

/// A payload that logs its id when the domain frees it.
struct Logged {
    id: u64,
    log: Arc<Mutex<Vec<u64>>>,
}

impl Drop for Logged {
    fn drop(&mut self) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self.id);
    }
}

/// What the schedules of one registry kind exercised.
#[derive(Debug, Default)]
struct Coverage {
    freeing_passes: u64,
    passes_with_nothing_retired: u64,
    names_past_epoch_zero: u64,
}

/// The model and the domain side by side over one registry.
struct Pair {
    registry: Arc<dyn ActivityArray>,
    domain: ReclaimDomain,
    model: Model,
    log: Arc<Mutex<Vec<u64>>>,
    next_id: u64,
    retired_since_pass: bool,
}

impl Pair {
    fn new(registry: Arc<dyn ActivityArray>) -> Self {
        Pair {
            domain: ReclaimDomain::new(Arc::clone(&registry)),
            registry,
            model: Model::default(),
            log: Arc::default(),
            next_id: 0,
            retired_since_pass: false,
        }
    }

    fn retire(&mut self) {
        self.domain.retire(Box::new(Logged {
            id: self.next_id,
            log: Arc::clone(&self.log),
        }));
        self.model.open.push(self.next_id);
        self.next_id += 1;
        self.retired_since_pass = true;
    }

    /// One pass on each side; asserts they free the same ids and leave the
    /// same number of nodes in limbo.
    fn pass(&mut self, context: &str, coverage: &mut Coverage) {
        let collect = self.registry.collect();
        coverage.names_past_epoch_zero += collect.iter().filter(|n| n.epoch() > 0).count() as u64;
        if !self.retired_since_pass {
            coverage.passes_with_nothing_retired += 1;
        }
        self.retired_since_pass = false;

        let mut expected = self.model.pass(&collect);
        let freed = self.domain.try_reclaim();
        let mut got = {
            let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *log)
        };
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(freed, expected.len() as u64, "{context}: freed count");
        assert_eq!(got, expected, "{context}: freed nodes");
        assert_eq!(
            self.domain.stats().in_limbo,
            self.model.in_limbo(),
            "{context}: in_limbo"
        );
        if freed > 0 {
            coverage.freeing_passes += 1;
        }
    }
}

const SCHEDULES: u64 = 200;
const STEPS: usize = 300;

/// Runs one seeded schedule of [`STEPS`] operations.  Even seeds hold one
/// name through the whole schedule; the final drain releases everything
/// and both sides must empty limbo.
fn run_schedule(
    registry: Arc<dyn ActivityArray>,
    seed: u64,
    max_held: usize,
    coverage: &mut Coverage,
) {
    let mut rng = default_rng(seed);
    let mut pair = Pair::new(registry);
    let mut held: Vec<Name> = Vec::new();
    let anchor = (seed % 2 == 0).then(|| pair.registry.get(&mut rng).name());

    for step in 0..STEPS {
        match rng.gen_below(8) {
            0 | 1 if held.len() < max_held => {
                if let Some(got) = pair.registry.try_get(&mut rng) {
                    held.push(got.name());
                }
            }
            2 | 3 if !held.is_empty() => {
                let at = rng.gen_below(held.len() as u64) as usize;
                pair.registry.free(held.swap_remove(at));
            }
            4 | 5 => pair.retire(),
            _ => pair.pass(&format!("seed {seed} step {step}"), coverage),
        }
    }

    for name in held.drain(..).chain(anchor) {
        pair.registry.free(name);
    }
    pair.pass(&format!("seed {seed} drain"), coverage);
    pair.pass(&format!("seed {seed} drain"), coverage);
    assert_eq!(
        pair.model.in_limbo(),
        0,
        "seed {seed}: the model kept nodes"
    );
    let stats = pair.domain.stats();
    assert_eq!(stats.freed, pair.next_id, "seed {seed}: {stats:?}");
}

fn run_all(make: impl Fn() -> Arc<dyn ActivityArray>, max_held: usize) -> Coverage {
    let mut coverage = Coverage::default();
    for seed in 0..SCHEDULES {
        run_schedule(make(), seed, max_held, &mut coverage);
    }
    assert!(coverage.freeing_passes > 0, "{coverage:?}");
    assert!(coverage.passes_with_nothing_retired > 0, "{coverage:?}");
    coverage
}

#[test]
fn flat_registry_frees_what_the_reference_rule_frees() {
    run_all(|| Arc::new(LevelArray::new(16)), 12);
}

#[test]
fn sharded_registry_frees_what_the_reference_rule_frees() {
    run_all(|| Arc::new(ShardedLevelArray::new(16, 4)), 12);
}

#[test]
fn growing_elastic_registry_frees_what_the_reference_rule_frees() {
    let coverage = run_all(
        || {
            Arc::new(ElasticLevelArray::new(
                2,
                GrowthPolicy::Doubling { max_epochs: 4 },
            ))
        },
        20,
    );
    assert!(
        coverage.names_past_epoch_zero > 0,
        "the registry never grew: {coverage:?}"
    );
}
