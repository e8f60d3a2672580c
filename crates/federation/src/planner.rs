//! Cost-based placement choice: execution estimate + transfer estimate.

use crate::{
    placement::{enumerate_placements, PlacementOption},
    transfer::TransferCostModel,
};
use catalog::Catalog;
use costing::hybrid::{CostingError, HybridCostManager};
use sqlkit::analyze::analyze;
use sqlkit::logical::LogicalPlan;

/// The cost breakdown of one placement candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementCost {
    /// The candidate.
    pub option: PlacementOption,
    /// Estimated operator execution time on that system, seconds.
    pub execution_secs: f64,
    /// Estimated transfer time, seconds.
    pub transfer_secs: f64,
}

impl PlacementCost {
    /// Combined cost.
    pub fn total_secs(&self) -> f64 {
        self.execution_secs + self.transfer_secs
    }
}

/// The planner's verdict for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Every costed candidate, sorted cheapest first.
    pub candidates: Vec<PlacementCost>,
    /// Model-state version every execution estimate in this report was
    /// computed from: the pinned snapshot's epoch on the service path,
    /// the manager's profile version on the hybrid path. A whole report
    /// always reflects exactly one model state.
    pub epoch: Option<u64>,
}

impl PlanReport {
    /// The winning placement.
    #[expect(
        clippy::indexing_slicing,
        reason = "the planner returns an error instead of a report with no candidate"
    )]
    pub fn best(&self) -> &PlacementCost {
        &self.candidates[0]
    }
}

/// Planning failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Catalog lookup failed.
    Catalog(String),
    /// No placement candidate could be costed.
    NoViablePlacement,
    /// Costing failed on every candidate.
    Costing(CostingError),
    /// An internal fan-out invariant failed (a result slot that a worker
    /// thread should have filled came back empty). Reported as an error
    /// rather than a panic so concurrent planning degrades per query.
    Internal(
        /// Which invariant was violated.
        &'static str,
    ),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Catalog(m) => write!(f, "catalog error: {m}"),
            PlanError::NoViablePlacement => write!(f, "no viable placement"),
            PlanError::Costing(e) => write!(f, "{e}"),
            PlanError::Internal(context) => {
                write!(f, "internal federation invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Costs every placement candidate and ranks them — the manager-backed
/// planner.
///
/// The analysis is computed once against the global catalog (cardinalities
/// do not depend on placement); execution estimates come from each
/// candidate system's costing profile, transfers from the QueryGrid model.
/// Candidate costing and ranking go through the federation's shared
/// core (`crate::ir::cost_candidates`): the same transfer arithmetic,
/// skip semantics, and deterministic `SystemId` tie-break the workload
/// layer uses.
pub fn plan_query(
    catalog: &Catalog,
    manager: &mut HybridCostManager,
    transfer_model: &TransferCostModel,
    plan: &LogicalPlan,
) -> Result<PlanReport, PlanError> {
    let options =
        enumerate_placements(catalog, plan).map_err(|e| PlanError::Catalog(e.to_string()))?;
    let analysis = analyze(catalog, plan).map_err(|e| PlanError::Catalog(e.to_string()))?;

    let (candidates, _skipped, last_err) =
        crate::ir::cost_candidates(options, transfer_model, |option| {
            manager
                .estimate(&option.system, &analysis)
                .map(|cost| cost.total_secs)
        });
    if candidates.is_empty() {
        return Err(last_err.map_or(PlanError::NoViablePlacement, PlanError::Costing));
    }
    Ok(PlanReport {
        candidates,
        epoch: Some(manager.version()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{
        ColumnDef, ColumnStats, RemoteSystemProfile, SystemId, SystemKind, TableDef, TableStats,
    };
    use costing::hybrid::{CostingApproach, CostingProfile};
    use costing::sub_op::{SubOpCosting, SubOpMeasurement, SubOpModels};
    use remote_sim::ClusterEngine;
    use workload::probe_suite;

    /// A catalog with one table on each of two systems plus the master.
    fn setup() -> (Catalog, HybridCostManager) {
        let mut catalog = Catalog::new();
        catalog
            .register_system(RemoteSystemProfile::paper_hive_cluster("hive-a"))
            .unwrap();
        catalog
            .register_system(RemoteSystemProfile::new(
                SystemId::master(),
                SystemKind::Teradata,
                1,
                32,
                1 << 38,
                vec![
                    catalog::Capability::Filter,
                    catalog::Capability::Project,
                    catalog::Capability::Join,
                    catalog::Capability::Aggregate,
                ],
            ))
            .unwrap();
        for (name, sys, rows) in [
            ("t_r", "hive-a", 4_000_000u64),
            ("t_s", "teradata", 400_000),
        ] {
            let stats = TableStats::new(rows, 250)
                .with_column("a1", ColumnStats::duplicated_range(rows, 1))
                .with_column("z", ColumnStats::constant(0));
            catalog
                .register_table(TableDef::new(
                    name,
                    vec![
                        ColumnDef::int("a1"),
                        ColumnDef::int("z"),
                        ColumnDef::chars("d", 242),
                    ],
                    stats,
                    SystemId::new(sys),
                ))
                .unwrap();
        }

        // Sub-op profiles trained on throwaway engines of matching kinds.
        let mut manager = HybridCostManager::new();
        let mut hive = ClusterEngine::paper_hive("hive-a", 1).without_noise();
        let m = SubOpMeasurement::run(&mut hive, &probe_suite());
        let models = SubOpModels::fit(&m, 4.0e8).unwrap();
        manager.register(CostingProfile::new(
            SystemId::new("hive-a"),
            SystemKind::Hive,
            CostingApproach::SubOp(SubOpCosting::for_system(
                SystemKind::Hive,
                models,
                32.0 * 1024.0 * 1024.0,
            )),
        ));
        let mut td = ClusterEngine::new(
            "teradata",
            remote_sim::personas::rdbms_persona(),
            remote_sim::ClusterConfig::single_node(32, 1 << 38),
            2,
        )
        .without_noise();
        let m2 = SubOpMeasurement::run(&mut td, &probe_suite());
        let models2 = SubOpModels::fit(&m2, 4.0e8).unwrap();
        manager.register(CostingProfile::new(
            SystemId::master(),
            SystemKind::Teradata,
            CostingApproach::SubOp(SubOpCosting::for_system(
                SystemKind::Rdbms,
                models2,
                32.0 * 1024.0 * 1024.0,
            )),
        ));
        (catalog, manager)
    }

    #[test]
    fn plan_query_ranks_candidates_cheapest_first() {
        let (catalog, mut manager) = setup();
        let transfer = TransferCostModel::default();
        let plan =
            sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1").unwrap();
        let report = plan_query(&catalog, &mut manager, &transfer, &plan).unwrap();
        assert_eq!(report.candidates.len(), 2);
        assert!(report.candidates[0].total_secs() <= report.candidates[1].total_secs());
        assert_eq!(report.best(), &report.candidates[0]);
    }

    #[test]
    fn transfer_costs_are_charged_per_foreign_table() {
        let (catalog, mut manager) = setup();
        let transfer = TransferCostModel {
            setup_secs: 1.0,
            bytes_per_sec: 1.0e9,
        };
        let plan =
            sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1").unwrap();
        let report = plan_query(&catalog, &mut manager, &transfer, &plan).unwrap();
        for cand in &report.candidates {
            let expect: f64 = cand
                .option
                .transfers
                .iter()
                .map(|t| transfer.transfer_secs(t.bytes, t.hops))
                .sum();
            assert!((cand.transfer_secs - expect).abs() < 1e-9);
            // Joining two foreign tables requires moving exactly one of
            // them (the other is local to the host).
            assert_eq!(cand.option.transfers.len(), 1);
        }
    }

    #[test]
    fn unknown_tables_surface_catalog_errors() {
        let (catalog, mut manager) = setup();
        let transfer = TransferCostModel::default();
        let plan = sqlkit::sql_to_plan("SELECT a1 FROM ghost").unwrap();
        assert!(matches!(
            plan_query(&catalog, &mut manager, &transfer, &plan),
            Err(PlanError::Catalog(_))
        ));
    }

    #[test]
    fn systems_without_profiles_are_skipped_not_fatal() {
        let (catalog, _) = setup();
        // A manager that only knows the master.
        let (_, full_manager) = setup();
        let mut manager = HybridCostManager::new();
        let master_profile = full_manager
            .profile(&SystemId::master())
            .expect("master profile")
            .clone();
        manager.register(master_profile);
        let transfer = TransferCostModel::default();
        let plan =
            sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1").unwrap();
        let report = plan_query(&catalog, &mut manager, &transfer, &plan).unwrap();
        assert_eq!(report.candidates.len(), 1);
        assert_eq!(report.best().option.system, SystemId::master());
    }
}
