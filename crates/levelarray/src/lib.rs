//! # LevelArray — fast, practical long-lived renaming
//!
//! A from-scratch Rust implementation of the **LevelArray** activity array of
//! Alistarh, Kopinsky, Matveev and Shavit (*"The LevelArray: A Fast, Practical
//! Long-Lived Renaming Algorithm"*, ICDCS 2014).
//!
//! ## The problem
//!
//! Up to `n` threads repeatedly *register* with and *deregister* from a shared
//! computation while other threads periodically *scan* the set of registered
//! threads — the pattern at the heart of memory reclamation for lock-free data
//! structures, STM conflict detection, flat combining and barriers.  In the
//! theory literature this is **long-lived renaming**; practitioners call the
//! data structure that solves it an **activity array** or *dynamic collect*.
//!
//! ## The algorithm
//!
//! The main array has `2n` slots split into geometrically shrinking batches
//! (`3n/2`, `n/4`, `n/8`, ...).  [`ActivityArray::get`] performs a constant
//! number of random test-and-set probes per batch, in increasing batch order,
//! and stops at the first probe it wins; an `n`-slot backup array probed
//! sequentially guarantees wait-freedom.  [`ActivityArray::free`] resets the
//! slot; [`ActivityArray::collect`] scans the array.  Registration takes a
//! *constant* number of probes in expectation and `O(log log n)` with high
//! probability, over arbitrarily long executions, and the structure is
//! *self-healing*: it recovers from unbalanced states without any explicit
//! rebuilding (paper §5.2, reproduced by the `la-sim` crate and the `healing`
//! benchmark).
//!
//! ## Quick start
//!
//! ```
//! use levelarray::{ActivityArray, LevelArray, Registration};
//! use larng::default_rng;
//!
//! // One shared array sized for the maximum number of concurrent holders.
//! let array = LevelArray::new(64);
//! let mut rng = default_rng(0xC0FFEE);
//!
//! // Explicit get/free...
//! let got = array.get(&mut rng);
//! println!("registered as name {} after {} probes", got.name(), got.probes());
//! array.free(got.name());
//!
//! // ...or RAII-style registration.
//! let reg = Registration::acquire(&array, &mut rng);
//! assert!(array.collect().contains(&reg.name()));
//! drop(reg);
//! assert!(array.collect().is_empty());
//! ```
//!
//! ## Crate layout
//!
//! * [`ProbeCore`] — the reusable probing machinery (slots, batch geometry,
//!   probes per batch, TAS primitive, slot layout) every facade composes.
//! * [`slot`] / [`packed`] — the two slot representations behind
//!   [`SlotLayout`]: one atomic word per slot, or 64 slots bit-packed per
//!   word so scans touch 32× less memory.
//! * [`LevelArray`], [`LevelArrayConfig`] — the paper's algorithm: one
//!   `ProbeCore` plus a contention bound.
//! * [`ShardedLevelArray`] — `S` cache-padded `ProbeCore`s with sticky
//!   per-thread home shards and work stealing, for high-thread-count
//!   deployments.  A thread's home is a token from a churn-stable pool
//!   (freed tokens are reused first) modulo the shard count.
//! * [`ElasticLevelArray`] — a chain of doubling epoch cells that grows the
//!   contention bound at runtime (names carry an `(epoch, index)` tag; see
//!   [`Name`] and [`GrowthPolicy`]).
//! * [`epoch_chain`] — the lock-free chain under the elastic array: an
//!   atomic head over immutable nodes, CAS-published growth and
//!   grace-counter reclamation, so `Get`/`Free`/`collect` never block on
//!   growth or retirement.
//! * [`ActivityArray`] — the trait shared with the baseline implementations in
//!   the `la-baselines` crate.
//! * [`geometry`] — the batch layout (paper §4).
//! * [`balance`] — the balance definitions of the analysis (paper §5).
//! * [`stats`], [`occupancy`] — the measurements the evaluation reports.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod array;
pub mod balance;
pub mod config;
pub mod elastic;
pub mod epoch_chain;
pub mod geometry;
pub mod name;
pub mod occupancy;
pub mod packed;
pub mod probe_core;
pub mod robust;
pub mod sharded;
pub mod slot;
pub mod stats;

mod backend;
mod hint;
mod home;
mod level_array;

pub use array::{Acquired, ActivityArray, Registration};
pub use config::{ConfigError, GrowthPolicy, LevelArrayConfig};
pub use elastic::ElasticLevelArray;
pub use epoch_chain::{ChainNode, ChainPin, ChainRace, EpochChain};
pub use level_array::LevelArray;
pub use name::Name;
pub use occupancy::{OccupancySnapshot, Region, RegionOccupancy};
pub use packed::PackedSlots;
pub use probe_core::ProbeCore;
pub use robust::RobustnessReport;
pub use sharded::ShardedLevelArray;
pub use slot::{SlotLayout, TasKind};
pub use stats::{GetStats, StatsSummary};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LevelArray>();
        assert_send_sync::<ElasticLevelArray>();
        assert_send_sync::<EpochChain<usize>>();
        assert_send_sync::<Name>();
        assert_send_sync::<Acquired>();
        assert_send_sync::<GetStats>();
        assert_send_sync::<OccupancySnapshot>();
    }

    #[test]
    fn level_array_is_usable_as_a_trait_object() {
        let array = LevelArray::new(4);
        let boxed: Box<dyn ActivityArray> = Box::new(array);
        assert_eq!(boxed.max_participants(), 4);
    }
}
