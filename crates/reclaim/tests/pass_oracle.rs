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
//! domain's sort sees names from several epochs.  Every retire runs on one
//! of two long-lived helper threads, alternately, so the domain retires
//! onto two stripes and a pass closes bags from both.

use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Scope;

use la_reclaim::ReclaimDomain;
use larng::{default_rng, RandomSource};
use levelarray::epoch_chain::thread_token;
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
    passes_closing_two_stripes: u64,
    names_past_epoch_zero: u64,
}

/// A long-lived thread that retires nodes on the schedule's behalf and
/// acks each retire before the schedule takes its next step.
struct Helper {
    jobs: Sender<(Arc<ReclaimDomain>, Logged)>,
    /// The helper's sticky thread token, sent once when it starts and
    /// again after each retire as the ack.
    acks: Receiver<usize>,
}

impl Helper {
    /// Spawns the helper and returns it with its thread token, which it
    /// takes before this returns.
    fn spawn<'scope>(scope: &'scope Scope<'scope, '_>) -> (Self, usize) {
        let (jobs, inbox) = channel::<(Arc<ReclaimDomain>, Logged)>();
        let (ack, acks) = channel();
        scope.spawn(move || {
            let token = thread_token();
            ack.send(token).expect("the schedule hung up");
            for (domain, node) in inbox {
                domain.retire(Box::new(node));
                drop(domain);
                ack.send(token).expect("the schedule hung up");
            }
        });
        let token = acks.recv().expect("the helper died");
        (Helper { jobs, acks }, token)
    }

    fn retire(&self, domain: &Arc<ReclaimDomain>, node: Logged) {
        self.jobs
            .send((Arc::clone(domain), node))
            .expect("the helper died");
        self.acks.recv().expect("the helper died");
    }
}

/// Spawns two helpers whose thread tokens are consecutive.  A thread's
/// retire stripe is its token modulo the stripe count, so the two never
/// share a stripe.  Every thread in this binary that takes a token takes it
/// under one lock here: the helpers, and the calling thread, whose elastic
/// pins would otherwise take one later.
fn spawn_helpers<'scope>(scope: &'scope Scope<'scope, '_>) -> [Helper; 2] {
    static TOKENS: Mutex<()> = Mutex::new(());
    let _tokens = TOKENS.lock().unwrap_or_else(PoisonError::into_inner);
    thread_token();
    let (first, a) = Helper::spawn(scope);
    let (second, b) = Helper::spawn(scope);
    assert_eq!(b, a + 1, "the helpers' tokens are not consecutive");
    [first, second]
}

/// The model and the domain side by side over one registry.
struct Pair<'h> {
    registry: Arc<dyn ActivityArray>,
    domain: Arc<ReclaimDomain>,
    model: Model,
    log: Arc<Mutex<Vec<u64>>>,
    next_id: u64,
    helpers: &'h [Helper; 2],
    /// Which helpers retired a node since the last pass.
    retired_by: [bool; 2],
}

impl<'h> Pair<'h> {
    fn new(registry: Arc<dyn ActivityArray>, helpers: &'h [Helper; 2]) -> Self {
        Pair {
            domain: Arc::new(ReclaimDomain::new(Arc::clone(&registry))),
            registry,
            model: Model::default(),
            log: Arc::default(),
            next_id: 0,
            helpers,
            retired_by: [false; 2],
        }
    }

    /// Retires the next node through the helpers in turn.
    fn retire(&mut self) {
        let helper = (self.next_id % 2) as usize;
        let node = Logged {
            id: self.next_id,
            log: Arc::clone(&self.log),
        };
        self.helpers[helper].retire(&self.domain, node);
        self.model.open.push(self.next_id);
        self.next_id += 1;
        self.retired_by[helper] = true;
    }

    /// One pass on each side; asserts they free the same ids and leave the
    /// same number of nodes in limbo.
    fn pass(&mut self, context: &str, coverage: &mut Coverage) {
        let collect = self.registry.collect();
        coverage.names_past_epoch_zero += collect.iter().filter(|n| n.epoch() > 0).count() as u64;
        match std::mem::take(&mut self.retired_by) {
            [false, false] => coverage.passes_with_nothing_retired += 1,
            [true, true] => coverage.passes_closing_two_stripes += 1,
            _ => {}
        }

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
    helpers: &[Helper; 2],
    seed: u64,
    max_held: usize,
    coverage: &mut Coverage,
) {
    let mut rng = default_rng(seed);
    let mut pair = Pair::new(registry, helpers);
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
    std::thread::scope(|scope| {
        let helpers = spawn_helpers(scope);
        for seed in 0..SCHEDULES {
            run_schedule(make(), &helpers, seed, max_held, &mut coverage);
        }
    });
    assert!(coverage.freeing_passes > 0, "{coverage:?}");
    assert!(coverage.passes_with_nothing_retired > 0, "{coverage:?}");
    assert!(coverage.passes_closing_two_stripes > 0, "{coverage:?}");
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
