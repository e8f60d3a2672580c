//! The hybrid cost manager (Fig. 9): routes per-system estimates through
//! the registered Costing Profiles.

use crate::{
    estimator::OperatorKind,
    hybrid::profile::{CostingError, CostingProfile, QueryCost},
};
use catalog::SystemId;
use serde::{Deserialize, Serialize};
use sqlkit::analyze::QueryAnalysis;
use std::collections::BTreeMap;

/// Routes cost estimates to per-system costing profiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HybridCostManager {
    profiles: BTreeMap<SystemId, CostingProfile>,
    /// Model-state version, bumped on every mutation of the registered
    /// profiles (registration, observation feedback). Serves the same
    /// role as [`crate::epoch::Epoch`] in the snapshot store: plan
    /// reports carry it so a ranking is attributable to one profile
    /// state. Kept `#[serde(default)]` so managers persisted before
    /// versioning load at version 0.
    #[serde(default)]
    version: u64,
}

impl HybridCostManager {
    /// An empty manager.
    pub fn new() -> Self {
        HybridCostManager::default()
    }

    /// The current profile-state version (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registers (or replaces) a system's costing profile.
    pub fn register(&mut self, profile: CostingProfile) {
        self.profiles.insert(profile.system.clone(), profile);
        self.version += 1;
    }

    /// The registered profile for a system, if any.
    pub fn profile(&self, system: &SystemId) -> Option<&CostingProfile> {
        self.profiles.get(system)
    }

    /// Mutable access to a profile (e.g. to cost a single operator).
    pub fn profile_mut(&mut self, system: &SystemId) -> Option<&mut CostingProfile> {
        self.profiles.get_mut(system)
    }

    /// Estimates the cost of running an analysed query on a system.
    pub fn estimate(
        &mut self,
        system: &SystemId,
        analysis: &QueryAnalysis,
    ) -> Result<QueryCost, CostingError> {
        let profile = self
            .profiles
            .get_mut(system)
            .ok_or_else(|| CostingError::UnknownSystem(system.clone()))?;
        profile.estimate_query(analysis)
    }

    /// Feeds an observed actual execution back to the owning profile.
    pub fn observe_actual(
        &mut self,
        system: &SystemId,
        op: OperatorKind,
        analysis: &QueryAnalysis,
        actual_secs: f64,
    ) {
        if let Some(profile) = self.profiles.get_mut(system) {
            profile.observe_actual(op, analysis, actual_secs);
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::profile::CostingApproach;
    use crate::sub_op::{SubOpCosting, SubOpMeasurement, SubOpModels};
    use catalog::SystemKind;
    use remote_sim::ClusterEngine;
    use sqlkit::analyze::analyze;
    use sqlkit::RemoteSystem;
    use workload::{probe_suite, register_tables, TableSpec};

    fn hive_with_tables() -> ClusterEngine {
        let mut e = ClusterEngine::paper_hive("hive-a", 3).without_noise();
        register_tables(
            &mut e,
            &[TableSpec::new(1_000_000, 250), TableSpec::new(100_000, 100)],
        )
        .unwrap();
        e
    }

    fn analysis_of(e: &ClusterEngine, sql: &str) -> QueryAnalysis {
        analyze(e.catalog(), &sqlkit::sql_to_plan(sql).unwrap()).unwrap()
    }

    fn subop_profile(e: &mut ClusterEngine, id: &str) -> CostingProfile {
        let m = SubOpMeasurement::run(e, &probe_suite());
        let models = SubOpModels::fit(&m, 4.0e8).unwrap();
        CostingProfile::new(
            SystemId::new(id),
            SystemKind::Hive,
            CostingApproach::SubOp(SubOpCosting::for_system(
                SystemKind::Hive,
                models,
                32.0 * 1024.0 * 1024.0,
            )),
        )
    }

    #[test]
    fn manager_routes_to_registered_system() {
        let mut e = hive_with_tables();
        let mut mgr = HybridCostManager::new();
        assert_eq!(mgr.version(), 0);
        mgr.register(subop_profile(&mut e, "hive-a"));
        assert_eq!(mgr.version(), 1);
        let analysis = analysis_of(
            &e,
            "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1",
        );
        let cost = mgr.estimate(&SystemId::new("hive-a"), &analysis).unwrap();
        assert!(cost.total_secs > 0.0);
    }

    #[test]
    fn unknown_system_errors() {
        let mut mgr = HybridCostManager::new();
        let e = hive_with_tables();
        let analysis = analysis_of(&e, "SELECT a1 FROM T100000_100");
        let err = mgr
            .estimate(&SystemId::new("ghost"), &analysis)
            .unwrap_err();
        assert!(matches!(err, CostingError::UnknownSystem(_)));
    }

    #[test]
    fn multiple_systems_cost_independently() {
        let mut e = hive_with_tables();
        let mut mgr = HybridCostManager::new();
        mgr.register(subop_profile(&mut e, "hive-a"));
        mgr.register(subop_profile(&mut e, "hive-b"));
        let analysis = analysis_of(&e, "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5");
        let a = mgr.estimate(&SystemId::new("hive-a"), &analysis).unwrap();
        let b = mgr.estimate(&SystemId::new("hive-b"), &analysis).unwrap();
        assert_eq!(a.total_secs, b.total_secs);
        assert_eq!(
            mgr.profile(&SystemId::new("hive-a"))
                .unwrap()
                .estimates_made,
            1
        );
    }
}
