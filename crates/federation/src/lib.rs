#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! The IntelliSphere master engine (§2, Fig. 1).
//!
//! Teradata "receives a user's query in the form of a SQL query, generates
//! a cost-based efficient query plan where each SQL operator is scheduled
//! for execution on one of the IntelliSphere's systems, combines the
//! results, and passes the final answer back to the user." This crate
//! provides that master-side machinery on top of the costing module:
//!
//! * [`transfer`] — a QueryGrid-style data-transfer cost model (the paper
//!   scopes network costs out of the *costing module* but the optimizer
//!   "will combine multiple costs together to come up with a final cost");
//! * [`placement`] — the §2 placement search space: "IntelliSphere
//!   considers scheduling an operator only on a remote system that owns
//!   the input data (or part of it) or the Teradata system", with data
//!   flowing only through Teradata ("the data cannot be transferred
//!   directly between two remote systems");
//! * [`planner`] — combines per-operator execution estimates (from the
//!   [`costing`] crate) with transfer costs and picks the cheapest
//!   placement;
//! * [`intellisphere`] — the facade owning the remote engines, the global
//!   foreign-table catalog, and the hybrid cost manager; it plans,
//!   executes (moving data through its QueryGrid emulation), and feeds
//!   observed actuals back into the costing profiles.
//!
//! Planning is layered (logical / physical):
//!
//! * [`ir`] — the **logical layer**: a workload is a DAG of queries
//!   ([`ir::WorkloadSpec`] → [`ir::WorkloadPlan`]) where nodes declare
//!   the tables they read and the intermediate results they publish, and
//!   edges are data dependencies. [`ir::build_workload_pinned`] costs
//!   every node's placement candidates against **one pinned model
//!   epoch** through the batched estimator API, and
//!   [`ir::plan_query_with_service`] is the one-statement front over it.
//! * [`rules`] — rewrite rules applied to fixpoint: shared-scan dedup,
//!   materialized-intermediate reuse, and placement pinning. They edit
//!   the writable half of an interned [`ir::WorkloadPlan`] in place,
//!   scoring each candidate with the one slot simulator and reverting
//!   what does not help. Every accepted rewrite strictly improves the
//!   scheduling objective, so the optimized plan is never worse than the
//!   greedy per-query baseline.
//! * [`schedule`] — the **physical layer**: topological dispatch of the
//!   optimized plan across engines under per-engine capacity slots,
//!   emitting a [`schedule::WorkloadReport`] (placements, predicted
//!   makespan, reuse savings, pinned epoch).
//!
//! Single-query entry points ([`planner::plan_query`],
//! [`ir::plan_query_with_service_pinned`], the facade's
//! `plan`/`execute`) are degenerate single-node workloads — there is one
//! costing path, and singleton results are bit-identical to workload
//! results by construction.

pub mod intellisphere;
pub mod ir;
pub mod placement;
pub mod planner;
pub mod rules;
pub mod schedule;
pub mod transfer;

pub use intellisphere::{ExecutionReport, IntelliSphere};
pub use ir::{
    build_workload_pinned, plan_query_with_service, plan_query_with_service_pinned, InputRef,
    Objective, QueryId, SlotMap, WorkloadNode, WorkloadPlan, WorkloadQuery, WorkloadSpec,
};
pub use placement::{enumerate_placements, PlacementOption, Transfer};
pub use planner::{PlacementCost, PlanReport};
pub use rules::{optimize, RuleTrace};
pub use schedule::{
    dispatch, plan_workload, ScheduleConfig, ScheduledQuery, WorkloadOutcome, WorkloadReport,
};
pub use transfer::TransferCostModel;
