#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! The IntelliSphere remote-system cost estimation module.
//!
//! This crate is the paper's primary contribution (§§3–5): estimating the
//! elapsed execution time of a SQL operator were it to run on a remote
//! system, via three approaches:
//!
//! * [`logical_op`] — **logical-operator costing** for black-box remotes:
//!   a grid of training queries per operator labels a small neural
//!   network (join: 7 dims, aggregation: 4 dims), fortified by an *online
//!   remedy* phase (on-the-fly pivot regression blended as
//!   `α·c_nn + (1−α)·c_reg`) and an *offline tuning* phase (execution log
//!   → retrain + continuity-aware metadata expansion).
//! * [`sub_op`] — **sub-operator costing** for open-box remotes: per-record
//!   linear models for the Fig. 5 primitives learned from a handful of
//!   probe queries, composed through expert cost formulas per physical
//!   algorithm (Fig. 6), gated by applicability rules, resolved by a
//!   choice policy (worst / average / in-house-comparable).
//! * [`hybrid`] — **hybrid costing**: a per-remote-system Costing Profile
//!   selects the approach (per system, per operator, or switched over
//!   time, Fig. 9).
//!
//! The served estimation path is observable: each costing decision has
//! one body, and what it decided comes back with its result (an
//! estimate carries its [`EstimateSource`], the remedy's α and pivot
//! dimensions included); the [`service`] keeps registry-backed metrics,
//! and the execution logs feed a drift monitor keyed by [`ModelKey`]
//! ([`observability`]).
//!
//! The crate interacts with remote systems *only* through the
//! [`sqlkit::RemoteSystem`] trait — submit a query or probe, observe
//! an elapsed time — which is exactly the paper's black-box contract.
//! Operator sizes come from the master's analysis (`sqlkit::analyze`),
//! and the data the interface speaks from `catalog::remote`. The
//! simulator, `remote-sim`, is a dev-dependency only, so its personas and
//! micro-costs cannot be reached from here outside tests. All expert
//! (open-box) knowledge enters as data: formulas, rules, and thresholds
//! stored in the Costing Profile.

pub mod epoch;
pub mod estimator;
pub mod features;
pub mod hybrid;
pub mod logical_op;
pub mod observability;
pub mod service;
pub mod sub_op;

pub use epoch::{Epoch, ModelSnapshot, SnapshotLineage, TuningPipeline};
pub use estimator::{CostEstimate, EstimateSource, OperatorKind};
pub use features::{agg_features, join_features, QueryFeatures, AGG_DIMS, JOIN_DIMS};
pub use hybrid::{CostingApproach, CostingProfile, HybridCostManager};
pub use logical_op::{
    flow::FlowScratch, flow::LogicalOpCosting, model::FitConfig, model::LogicalOpModel,
    packed::PackedOpModel, packed::PackedOpScratch, remedy::RemedyConfig,
};
pub use observability::{publish_drift, DriftRetuner, ModelKey, RetuneOutcome};
pub use service::{CacheStats, EstimateScratch, EstimatorService, ServiceError};
pub use sub_op::{choice::ChoicePolicy, SubOpCosting};
