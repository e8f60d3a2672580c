#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! The Fig. 10 synthetic workload.
//!
//! §7 of the paper evaluates everything on a generated dataset of 120
//! tables named `Tx_y`, where
//!
//! * `x` (number of records) ∈ `{k·10⁴, k·10⁵, k·10⁶, k·10⁷}` for
//!   `k ∈ {1, 2, 4, 6, 8}` — 20 configurations, and
//! * `y` (record size) ∈ `{40, 70, 100, 250, 500, 1000}` bytes — 6
//!   configurations.
//!
//! Every table has the schema `(a1, a2, a5, a10, a20, a50, a100, z,
//! dummy)` where column `aᵢ` duplicates each value `i` times, `z` is all
//! zeros, and `dummy` pads the record to the target size. The duplication
//! design lets the aggregation queries hit precise shrink factors and the
//! join queries hit precise output cardinalities via the
//! `R.a1 + S.z < threshold` predicate.
//!
//! This crate turns that description into code: table specs and
//! [`catalog::TableDef`]s ([`tables`]), aggregation and join training
//! grids ([`aggq`], [`joinq`]), the sub-operator probe suite of Fig. 5
//! ([`probes`]), and the out-of-range query sets behind Fig. 14 and
//! Table 1 ([`oor`]).
//!
//! Beyond the paper's training/evaluation grids, [`traffic`] adds a
//! seeded open-loop (Poisson) arrival model and a skewed tenant mix, so
//! the serving-layer measurements can drive the estimator with
//! realistic concurrent traffic.

pub mod aggq;
pub mod dag;
pub mod joinq;
pub mod oor;
pub mod probes;
pub mod skew;
pub mod tables;
pub mod traffic;

pub use aggq::{agg_training_queries, agg_training_queries_with, AggQuery};
pub use dag::{dag_base_tables, dag_workload, DagConfig, DagStatement};
pub use joinq::{join_training_queries, join_training_queries_with, JoinQuery};
pub use oor::{oor_all_table_specs, oor_join_queries, oor_table_specs};
pub use probes::{probe_suite, probe_suite_for};
pub use skew::{build_skewed_table, skew_join_sql, SkewedTableSpec};
pub use tables::{build_table, fig10_table_specs, register_tables, specs_up_to, TableSpec};
pub use traffic::{Arrival, OpenLoopModel, RequestSampler, TenantMix};
