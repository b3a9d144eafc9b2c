//! Umbrella crate for the LevelArray reproduction workspace.
//!
//! This crate re-exports the member crates so that the top-level `examples/`
//! and `tests/` directories can exercise the whole system through one import.
//! Library users should depend on the individual crates directly
//! ([`levelarray`], [`la_reclaim`], ...) rather than on this umbrella.

pub use la_baselines as baselines;
pub use la_coordination as coordination;
pub use la_flatcombine as flatcombine;
pub use la_reclaim as reclaim;
pub use la_sim as sim;
pub use larng as rng;
pub use levelarray as core;

// The workhorse types, re-exported flat so applications (and the umbrella's
// own examples/tests) can `use levelarray_suite::{LevelArray, ...}` without
// spelling out the crate path.
pub use levelarray::{
    Acquired, ActivityArray, ElasticLevelArray, EpochChain, GrowthPolicy, LevelArray,
    LevelArrayConfig, Name, ProbeCore, Registration, ShardedLevelArray,
};
