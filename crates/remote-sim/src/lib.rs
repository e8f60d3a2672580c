#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Analytical remote-system simulator.
//!
//! The paper evaluates its cost-estimation module against a real 4-node
//! Hive/Hadoop cluster. This crate is the substitute substrate (see
//! DESIGN.md §2): a deterministic, analytically-evaluated simulator of
//! shared-nothing SQL engines that
//!
//! * stores tables as catalog statistics (rows, row size, per-column
//!   duplication) rather than physical data,
//! * computes **true** operator cardinalities from those statistics
//!   ([`cardinality`]),
//! * runs an internal rule-based optimizer choosing among the physical
//!   algorithms the paper lists for Hive and Spark (§4: Shuffle Join,
//!   Broadcast Join, Bucket Map Join, Sort-Merge Bucket Join, Skew Join,
//!   …) ([`remote_opt`]),
//! * and evaluates elapsed wall-clock time for the chosen physical plan
//!   from hidden per-record micro-costs ([`subop_cost`]), a task-wave
//!   scheduling model with per-stage and per-task startup latencies, I/O ↔
//!   CPU overlap within a task, memory-pressure regime switches for hash
//!   builds, and multiplicative noise ([`exec`], `noise`).
//!
//! The costing crate must treat engines as the paper treats remote
//! systems: the only interface is [`engine::RemoteSystem`] — submit a
//! query (or a Fig. 5 probe query), observe an elapsed time. All
//! micro-cost parameters stay private to this crate.

pub mod analyze;
pub mod cardinality;
pub mod cluster;
pub mod engine;
pub mod exec;
mod noise;
pub mod personas;
pub mod physical;
pub mod probe;
pub mod remote_opt;
pub mod subop_cost;
pub mod time;

pub use analyze::{analyze, QueryAnalysis};
pub use cardinality::NodeEstimate;
pub use cluster::ClusterConfig;
pub use engine::{ClusterEngine, EngineError, Execution, Explain, RemoteSystem};
pub use personas::{hive_persona, presto_persona, rdbms_persona, spark_persona, Persona};
pub use physical::{AggAlgorithm, JoinAlgorithm};
pub use probe::ProbeSpec;
pub use time::SimDuration;
