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
//! * takes operator sizes from the master's query analysis
//!   (`sqlkit::analyze`, built on `sqlkit::cardinality`), which the
//!   Fig. 10 workload makes exact,
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
//! [`ClusterEngine`] implements `sqlkit::RemoteSystem`, the one interface
//! the costing crate programs against: submit a query (or a Fig. 5 probe
//! query), observe an elapsed time. The interface and the plain data it
//! speaks (`catalog::remote`) live outside this crate, and `costing`
//! depends on this crate only for its tests, so the personas, micro-costs
//! and `Explain` are out of the costing code's reach.

pub mod cluster;
pub mod engine;
pub mod exec;
mod noise;
pub mod personas;
pub mod remote_opt;
pub mod subop_cost;

pub use cluster::ClusterConfig;
pub use engine::{ClusterEngine, Explain};
pub use personas::{hive_persona, presto_persona, rdbms_persona, spark_persona, Persona};

/// The master's query analysis, now [`sqlkit::analyze::analyze`]. Kept
/// under its old path because `benchmark/` still imports it from here.
pub mod analyze {
    pub use sqlkit::analyze::analyze;
}

/// The remote-system interface, now [`sqlkit::RemoteSystem`]. Kept under
/// its old path because `benchmark/` still imports it from here.
pub use sqlkit::RemoteSystem;
