//! The hybrid cost manager (Fig. 9): routes per-system estimates through
//! the registered Costing Profiles.

use crate::{
    estimator::OperatorKind,
    hybrid::profile::{CostingError, CostingProfile, QueryCost},
    logical_op::{model::FitConfig, tuning::TuneReport},
    observability::ModelKey,
};
use catalog::{Catalog, SystemId};
use remote_sim::analyze::{analyze, QueryAnalysis};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use telemetry::DriftMonitor;

/// Routes cost estimates to per-system costing profiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HybridCostManager {
    profiles: BTreeMap<SystemId, CostingProfile>,
    /// Model-state version, bumped on every mutation of the registered
    /// profiles (registration, observation feedback, tuning). Serves the
    /// same role as [`crate::epoch::Epoch`] in the snapshot store: trace
    /// events and drift samples carry it so an estimate is attributable
    /// to one profile state. Kept `#[serde(default)]` so profiles
    /// persisted before versioning load at version 0.
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

    /// Mutable access to a profile (for tuning passes).
    pub fn profile_mut(&mut self, system: &SystemId) -> Option<&mut CostingProfile> {
        self.profiles.get_mut(system)
    }

    /// Registered systems.
    pub fn systems(&self) -> Vec<&SystemId> {
        self.profiles.keys().collect()
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

    /// Parses SQL against a catalog, analyses it, and estimates on a
    /// system — the one-call convenience path.
    pub fn estimate_sql(
        &mut self,
        system: &SystemId,
        catalog: &Catalog,
        sql: &str,
    ) -> Result<QueryCost, CostingError> {
        let plan =
            sqlkit::sql_to_plan(sql).map_err(|_| CostingError::NoOperator(OperatorKind::Scan))?;
        let analysis =
            analyze(catalog, &plan).map_err(|_| CostingError::NoOperator(OperatorKind::Scan))?;
        self.estimate(system, &analysis)
    }

    /// Replays every profile's pending execution-log entries into a drift
    /// monitor keyed by `(system, operator)`: each logged observation is
    /// paired with what the currently-trained model predicts for its
    /// feature vector. Returns the number of samples fed.
    pub fn feed_drift_monitor(&self, monitor: &mut DriftMonitor<ModelKey>) -> usize {
        let mut fed = 0;
        for (system, profile) in &self.profiles {
            for (op, flow) in profile.logical_flows() {
                for entry in flow.log.entries() {
                    let predicted = flow.estimate_readonly(&entry.features).secs;
                    monitor.record_versioned(
                        (system.clone(), op),
                        predicted,
                        entry.actual_secs,
                        Some(self.version),
                    );
                    fed += 1;
                }
            }
        }
        fed
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

    /// Runs the offline tuning phase over every registered profile's
    /// logical-op flows, builder-style: tuning happens on a private clone
    /// of the profile map, which replaces the live map wholesale under a
    /// single version bump once every model retrained. A panic mid-tune
    /// leaves the manager exactly as it was, and observers never see a
    /// half-tuned profile set.
    pub fn offline_tune_all(&mut self, config: &FitConfig) -> Vec<(ModelKey, TuneReport)> {
        let mut next = self.profiles.clone();
        let mut reports = Vec::new();
        for (system, profile) in next.iter_mut() {
            for (op, report) in profile.offline_tune(config) {
                reports.push(((system.clone(), op), report));
            }
        }
        self.profiles = next;
        self.version += 1;
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::profile::CostingApproach;
    use crate::sub_op::{SubOpCosting, SubOpMeasurement, SubOpModels};
    use catalog::SystemKind;
    use remote_sim::{ClusterEngine, RemoteSystem};
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
        mgr.register(subop_profile(&mut e, "hive-a"));
        let cost = mgr
            .estimate_sql(
                &SystemId::new("hive-a"),
                e.catalog(),
                "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1",
            )
            .unwrap();
        assert!(cost.total_secs > 0.0);
        assert_eq!(mgr.systems().len(), 1);
    }

    #[test]
    fn drift_feeding_pairs_log_entries_with_current_predictions() {
        use crate::hybrid::profile::LogicalOpSuite;
        use crate::logical_op::flow::LogicalOpCosting;
        use crate::logical_op::model::{FitConfig, LogicalOpModel};
        use neuro::Dataset;
        use telemetry::DriftConfig;

        // A small trained aggregation model.
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=12 {
            for g in [2.0, 5.0, 10.0] {
                let rows = r as f64 * 1e5;
                inputs.push(vec![rows, 100.0, rows / g, 12.0]);
                targets.push(4.0 + rows * 1e-5);
            }
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["in_rows", "in_bytes", "groups", "out_bytes"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        let mut flow = LogicalOpCosting::new(model);
        for r in 1..=6 {
            let rows = r as f64 * 1e5;
            flow.observe_actual(&[rows, 100.0, rows / 5.0, 12.0], 4.0 + rows * 1e-5);
        }
        let logged = flow.log.len();
        assert!(logged > 0);
        let mut mgr = HybridCostManager::new();
        mgr.register(CostingProfile::new(
            SystemId::new("hive-a"),
            SystemKind::Hive,
            CostingApproach::LogicalOp(LogicalOpSuite {
                join: None,
                aggregation: Some(flow),
            }),
        ));
        let mut monitor = DriftMonitor::new(DriftConfig {
            min_samples: 1,
            ..DriftConfig::default()
        });
        let fed = mgr.feed_drift_monitor(&mut monitor);
        assert_eq!(fed, logged);
        let key = (SystemId::new("hive-a"), OperatorKind::Aggregation);
        let health = monitor.status(&key).unwrap();
        assert_eq!(health.samples, logged);
        assert!(health.rmse_pct.is_finite());
    }

    #[test]
    fn versioned_builder_tuning_swaps_profiles_in_one_bump() {
        use crate::hybrid::profile::LogicalOpSuite;
        use crate::logical_op::flow::LogicalOpCosting;
        use crate::logical_op::model::{FitConfig, LogicalOpModel};
        use neuro::Dataset;

        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=12 {
            for g in [2.0, 5.0, 10.0] {
                let rows = r as f64 * 1e5;
                inputs.push(vec![rows, 100.0, rows / g, 12.0]);
                targets.push(4.0 + rows * 1e-5);
            }
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["in_rows", "in_bytes", "groups", "out_bytes"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        let mut flow = LogicalOpCosting::new(model);
        for r in 1..=6 {
            let rows = r as f64 * 1e5;
            flow.observe_actual(&[rows, 100.0, rows / 5.0, 12.0], 4.0 + rows * 1e-5);
        }
        let mut mgr = HybridCostManager::new();
        assert_eq!(mgr.version(), 0);
        mgr.register(CostingProfile::new(
            SystemId::new("hive-a"),
            SystemKind::Hive,
            CostingApproach::LogicalOp(LogicalOpSuite {
                join: None,
                aggregation: Some(flow),
            }),
        ));
        assert_eq!(mgr.version(), 1);
        let reports = mgr.offline_tune_all(&FitConfig::fast());
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].0,
            (SystemId::new("hive-a"), OperatorKind::Aggregation)
        );
        assert!(reports[0].1.entries_used > 0);
        assert_eq!(mgr.version(), 2, "one bump per tuning pass");
        // The swapped-in profile's log is drained.
        let sys = SystemId::new("hive-a");
        let flows = mgr.profile(&sys).unwrap().logical_flows();
        assert!(flows[0].1.log.is_empty());
        // A pass with nothing to tune still swaps and bumps (it is a
        // republish of identical content).
        assert!(mgr.offline_tune_all(&FitConfig::fast()).is_empty());
        assert_eq!(mgr.version(), 3);
    }

    #[test]
    fn unknown_system_errors() {
        let mut mgr = HybridCostManager::new();
        let e = hive_with_tables();
        let err = mgr
            .estimate_sql(
                &SystemId::new("ghost"),
                e.catalog(),
                "SELECT a1 FROM T100000_100",
            )
            .unwrap_err();
        assert!(matches!(err, CostingError::UnknownSystem(_)));
    }

    #[test]
    fn multiple_systems_cost_independently() {
        let mut e = hive_with_tables();
        let mut mgr = HybridCostManager::new();
        mgr.register(subop_profile(&mut e, "hive-a"));
        mgr.register(subop_profile(&mut e, "hive-b"));
        let sql = "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5";
        let a = mgr
            .estimate_sql(&SystemId::new("hive-a"), e.catalog(), sql)
            .unwrap();
        let b = mgr
            .estimate_sql(&SystemId::new("hive-b"), e.catalog(), sql)
            .unwrap();
        assert_eq!(a.total_secs, b.total_secs);
        assert_eq!(
            mgr.profile(&SystemId::new("hive-a"))
                .unwrap()
                .estimates_made,
            1
        );
    }
}
