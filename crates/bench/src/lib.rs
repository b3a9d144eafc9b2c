//! # la-bench — the benchmark harness of the LevelArray reproduction
//!
//! This crate contains the *library* pieces of the harness (workload
//! description, multi-threaded runner, result formatting); the runnable
//! targets live under `benches/` so that `cargo bench --workspace` regenerates
//! every figure of the paper's evaluation section:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig2_panels` | Figure 2: throughput, average trials, standard deviation, worst case vs. thread count for LevelArray / ShardedLevelArray / Random / LinearProbing |
//! | `fig3_healing` | Figure 3: per-batch fill over time starting from an unbalanced state, for the plain and the sharded layout |
//! | `sweeps` | §6 text: pre-fill 0–90 %, `L/N ∈ [2, 4]`, the deterministic LinearScan comparison, probe-count / TAS / shard-count ablations |
//!
//! Every target accepts environment variables to scale the run (see each
//! target's module docs); the defaults are sized so that the whole suite
//! completes in a few minutes on a laptop.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod histogram;
pub mod json;
pub mod report;
pub mod workload;

pub use histogram::LatencyHistogram;
pub use json::{JsonRecord, JsonSink, JsonValue};
pub use report::{format_markdown_table, Cell, Table};
pub use workload::{Algorithm, WorkloadConfig, WorkloadResult};
