//! Hybrid costing (§5): per-system Costing Profiles and the manager that
//! routes estimates through them (Fig. 9).
//!
//! The manager owns the profile map and routes two calls, `estimate` and
//! `observe_actual`. The rest of the model lifecycle — drift replay,
//! offline tuning, whole-state persistence — exists once, on
//! [`crate::service::EstimatorService`]; [`persist`] keeps the
//! per-profile and per-snapshot file formats.

pub mod manager;
pub mod persist;
pub mod profile;

pub use manager::HybridCostManager;
pub use persist::{load_profile, save_profile, PersistError};
pub use profile::{CostingApproach, CostingError, CostingProfile, LogicalOpSuite, QueryCost};
