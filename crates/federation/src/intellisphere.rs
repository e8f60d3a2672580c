//! The IntelliSphere facade: remote engines + global foreign-table
//! catalog + hybrid cost manager + QueryGrid emulation.

use crate::{
    planner::{plan_query, PlanError, PlanReport},
    transfer::TransferCostModel,
};
use catalog::remote::SimDuration;
use catalog::{Catalog, SystemId, TableDef};
use costing::{
    estimator::OperatorKind,
    features::{agg_dim_names, join_dim_names},
    hybrid::{CostingApproach, CostingProfile, HybridCostManager, LogicalOpSuite},
    logical_op::{flow::LogicalOpCosting, model::FitConfig, model::LogicalOpModel, run_training},
    sub_op::{SubOpCosting, SubOpMeasurement, SubOpModels},
};
use remote_sim::{personas::rdbms_persona, ClusterConfig, ClusterEngine};
use sqlkit::{analyze::analyze, EngineError, RemoteSystem};
use std::collections::BTreeMap;

/// The result of a federated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The system the operator ran on.
    pub system: SystemId,
    /// The planner's estimate for that system (execution + transfer), s.
    pub(crate) estimated_secs: f64,
    /// The execution-only component of the estimate (comparable with
    /// `actual_secs`), s.
    pub estimated_exec_secs: f64,
    /// The observed remote execution time, s.
    pub actual_secs: f64,
    /// Simulated transfer time, s.
    pub transfer_secs: f64,
    /// Tables that had to be moved.
    pub tables_moved: Vec<String>,
    /// Output rows of the query.
    pub output_rows: u64,
}

/// Errors from the facade.
#[derive(Debug)]
pub enum SphereError {
    /// Planning failed.
    Plan(PlanError),
    /// Remote execution failed.
    Engine(EngineError),
    /// SQL failed to parse.
    Sql(String),
    /// The system id is not registered.
    UnknownSystem(SystemId),
    /// Sub-op model fitting failed.
    Models(String),
}

impl std::fmt::Display for SphereError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SphereError::Plan(e) => write!(f, "{e}"),
            SphereError::Engine(e) => write!(f, "{e}"),
            SphereError::Sql(m) => write!(f, "sql error: {m}"),
            SphereError::UnknownSystem(s) => write!(f, "unknown system `{s}`"),
            SphereError::Models(m) => write!(f, "model fitting: {m}"),
        }
    }
}

impl std::error::Error for SphereError {}

impl From<PlanError> for SphereError {
    fn from(e: PlanError) -> Self {
        SphereError::Plan(e)
    }
}

impl From<EngineError> for SphereError {
    fn from(e: EngineError) -> Self {
        SphereError::Engine(e)
    }
}

/// The IntelliSphere ecosystem: the master engine, the remote systems,
/// and the costing state.
pub struct IntelliSphere {
    engines: BTreeMap<SystemId, ClusterEngine>,
    manager: HybridCostManager,
    transfer_model: TransferCostModel,
}

impl IntelliSphere {
    /// Creates an ecosystem with a Teradata master engine (an RDBMS-like
    /// persona on a beefy single node).
    pub fn new(seed: u64) -> Self {
        let master = ClusterEngine::new(
            SystemId::master().as_str(),
            rdbms_persona(),
            ClusterConfig::single_node(32, 256 * (1 << 30)),
            seed,
        );
        let mut engines = BTreeMap::new();
        engines.insert(SystemId::master(), master);
        IntelliSphere {
            engines,
            manager: HybridCostManager::new(),
            transfer_model: TransferCostModel::default(),
        }
    }

    /// Registers a remote system.
    pub fn add_remote(&mut self, engine: ClusterEngine) {
        self.engines.insert(engine.id().clone(), engine);
    }

    /// Registers a table on a system (the system must exist).
    pub fn add_table(&mut self, system: &SystemId, table: TableDef) -> Result<(), SphereError> {
        let engine = self
            .engines
            .get_mut(system)
            .ok_or_else(|| SphereError::UnknownSystem(system.clone()))?;
        engine.register_table(table).map_err(SphereError::Engine)
    }

    /// The global foreign-table catalog: the union of every system's
    /// tables, each carrying its true location (§2: "any remote table is
    /// registered inside Teradata as a foreign table").
    #[expect(
        clippy::expect_used,
        reason = "engines is keyed by system id, so no two registrations collide"
    )]
    pub fn global_catalog(&self) -> Catalog {
        let mut global = Catalog::new();
        for engine in self.engines.values() {
            global
                .register_system(engine.profile().clone())
                .expect("unique system ids");
        }
        for engine in self.engines.values() {
            for table in engine.catalog().tables() {
                // A table may exist on several systems after QueryGrid
                // moves; the original owner registered first wins.
                let _ = global.register_table(table.clone());
            }
        }
        global
    }

    /// Direct access to a remote engine (e.g. for training campaigns).
    pub fn engine_mut(&mut self, system: &SystemId) -> Option<&mut ClusterEngine> {
        self.engines.get_mut(system)
    }

    /// Access to the hybrid cost manager.
    pub fn manager_mut(&mut self) -> &mut HybridCostManager {
        &mut self.manager
    }

    /// Builds and registers a **sub-op** costing profile for a system by
    /// running the probe suite on it. Returns the probe campaign duration.
    pub fn train_subop(
        &mut self,
        system: &SystemId,
        suite: &[catalog::remote::ProbeSpec],
    ) -> Result<SimDuration, SphereError> {
        let engine = self
            .engines
            .get_mut(system)
            .ok_or_else(|| SphereError::UnknownSystem(system.clone()))?;
        let kind = engine.profile().kind;
        let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
            / engine.profile().cores_per_node as f64;
        let measurement = SubOpMeasurement::run(engine, suite);
        let time = measurement.training_time;
        let models = SubOpModels::fit(&measurement, budget)
            .map_err(|e| SphereError::Models(e.to_string()))?;
        let costing = SubOpCosting::for_system(kind, models, 32.0 * 1024.0 * 1024.0);
        self.manager.register(CostingProfile::new(
            system.clone(),
            kind,
            CostingApproach::SubOp(costing),
        ));
        Ok(time)
    }

    /// Builds and registers a **logical-op** costing profile for a system
    /// by executing training-query grids on it. Either grid may be empty.
    /// Returns the total training time on the remote.
    pub fn train_logical(
        &mut self,
        system: &SystemId,
        join_queries: &[String],
        agg_queries: &[String],
        config: &FitConfig,
    ) -> Result<SimDuration, SphereError> {
        let engine = self
            .engines
            .get_mut(system)
            .ok_or_else(|| SphereError::UnknownSystem(system.clone()))?;
        let kind = engine.profile().kind;
        let mut total = SimDuration::ZERO;
        let mut suite = LogicalOpSuite::default();
        if !join_queries.is_empty() {
            let out = run_training(engine, OperatorKind::Join, join_queries);
            total += out.total_time();
            if out.runs.len() < 10 {
                return Err(SphereError::Models(format!(
                    "only {} join training queries succeeded (need >= 10)",
                    out.runs.len()
                )));
            }
            let (model, _) = LogicalOpModel::fit(
                OperatorKind::Join,
                &join_dim_names(),
                &out.dataset(),
                config,
            );
            suite.join = Some(LogicalOpCosting::new(model));
        }
        if !agg_queries.is_empty() {
            let out = run_training(engine, OperatorKind::Aggregation, agg_queries);
            total += out.total_time();
            if out.runs.len() < 10 {
                return Err(SphereError::Models(format!(
                    "only {} aggregation training queries succeeded (need >= 10)",
                    out.runs.len()
                )));
            }
            let (model, _) = LogicalOpModel::fit(
                OperatorKind::Aggregation,
                &agg_dim_names(),
                &out.dataset(),
                config,
            );
            suite.aggregation = Some(LogicalOpCosting::new(model));
        }
        self.manager.register(CostingProfile::new(
            system.clone(),
            kind,
            CostingApproach::LogicalOp(suite),
        ));
        Ok(total)
    }

    /// Plans a SQL query: enumerates placements, costs them, ranks them.
    ///
    /// A facade `plan` is a degenerate single-node workload: candidate
    /// costing and ranking go through the same shared core
    /// (`crate::ir::cost_candidates`) the workload-level optimizer
    /// uses, so a statement planned here and the same statement planned
    /// as a one-node [`crate::ir::WorkloadSpec`] rank identically.
    pub fn plan(&mut self, sql: &str) -> Result<PlanReport, SphereError> {
        let plan = sqlkit::sql_to_plan(sql).map_err(|e| SphereError::Sql(e.to_string()))?;
        let catalog = self.global_catalog();
        Ok(plan_query(
            &catalog,
            &mut self.manager,
            &self.transfer_model,
            &plan,
        )?)
    }

    /// Plans and executes a SQL query: moves the needed tables to the
    /// winning system through the QueryGrid emulation, runs the query
    /// there, and feeds the observed actual back into the costing profile
    /// (the Fig. 3 logging phase).
    pub fn execute(&mut self, sql: &str) -> Result<ExecutionReport, SphereError> {
        let plan = sqlkit::sql_to_plan(sql).map_err(|e| SphereError::Sql(e.to_string()))?;
        let catalog = self.global_catalog();
        let report = plan_query(&catalog, &mut self.manager, &self.transfer_model, &plan)?;
        let best = report.best().clone();
        let host = best.option.system.clone();

        // QueryGrid: move foreign tables to the host.
        let mut moved = Vec::new();
        for t in &best.option.transfers {
            let def = catalog
                .table(&t.table)
                .map_err(|e| SphereError::Sql(e.to_string()))?
                .clone();
            let engine = self
                .engines
                .get_mut(&host)
                .ok_or_else(|| SphereError::UnknownSystem(host.clone()))?;
            // Data shipped over QueryGrid loses its physical layout
            // properties on arrival (§4's bucketing discussion).
            let mut shipped = def;
            shipped.partitioned_by = None;
            match engine.register_table(shipped) {
                Ok(()) => moved.push(t.table.clone()),
                Err(_) => { /* already present from an earlier move */ }
            }
        }

        let engine = self
            .engines
            .get_mut(&host)
            .ok_or_else(|| SphereError::UnknownSystem(host.clone()))?;
        let exec = engine.submit_plan(&plan)?;
        let actual_secs = exec.elapsed.as_secs();

        // Logging phase: route the observation to the profile.
        let analysis = analyze(&catalog, &plan).map_err(|e| SphereError::Sql(e.to_string()))?;
        let op = if analysis.join.is_some() {
            OperatorKind::Join
        } else if analysis.agg.is_some() {
            OperatorKind::Aggregation
        } else {
            OperatorKind::Scan
        };
        self.manager
            .observe_actual(&host, op, &analysis, actual_secs);

        Ok(ExecutionReport {
            system: host,
            estimated_secs: best.total_secs(),
            estimated_exec_secs: best.execution_secs,
            actual_secs,
            transfer_secs: best.transfer_secs,
            tables_moved: moved,
            output_rows: exec.output_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remote_sim::personas::{hive_persona, spark_persona};
    use workload::{build_table, probe_suite, TableSpec};

    fn sphere() -> IntelliSphere {
        let mut s = IntelliSphere::new(42);
        let hive = ClusterEngine::new("hive-a", hive_persona(), ClusterConfig::paper_hive(), 7)
            .without_noise();
        let spark = ClusterEngine::new("spark-b", spark_persona(), ClusterConfig::paper_hive(), 8)
            .without_noise();
        s.add_remote(hive);
        s.add_remote(spark);
        s.add_table(
            &SystemId::new("hive-a"),
            build_table(&TableSpec::new(1_000_000, 250)),
        )
        .unwrap();
        s.add_table(
            &SystemId::new("spark-b"),
            build_table(&TableSpec::new(100_000, 100)),
        )
        .unwrap();
        s.add_table(
            &SystemId::master(),
            build_table(&TableSpec::new(10_000, 40)),
        )
        .unwrap();
        // Sub-op profiles everywhere.
        let suite = probe_suite();
        for id in ["hive-a", "spark-b", "teradata"] {
            s.train_subop(&SystemId::new(id), &suite).unwrap();
        }
        s
    }

    #[test]
    fn global_catalog_unions_everything() {
        let s = sphere();
        let cat = s.global_catalog();
        assert_eq!(cat.system_count(), 3);
        assert_eq!(cat.table_count(), 3);
        assert_eq!(
            cat.table("T1000000_250").unwrap().location,
            SystemId::new("hive-a")
        );
    }

    #[test]
    fn plan_ranks_three_placements_for_cross_system_join() {
        let mut s = sphere();
        let report = s
            .plan("SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1")
            .unwrap();
        assert_eq!(report.candidates.len(), 3);
        // Candidates are sorted cheapest-first.
        for w in report.candidates.windows(2) {
            assert!(w[0].total_secs() <= w[1].total_secs());
        }
        // The placement co-located with the big table should avoid its
        // transfer cost.
        let on_hive = report
            .candidates
            .iter()
            .find(|c| c.option.system.as_str() == "hive-a")
            .unwrap();
        assert_eq!(on_hive.option.transfers.len(), 1);
        assert_eq!(on_hive.option.transfers[0].table, "T100000_100");
    }

    #[test]
    fn execute_moves_tables_and_feeds_observations() {
        let mut s = sphere();
        let report = s
            .execute("SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1")
            .unwrap();
        assert!(report.actual_secs > 0.0);
        assert!(report.estimated_secs > 0.0);
        assert!((report.output_rows as f64 - 100_000.0).abs() < 100.0);
        // Whichever host won, the other table had to move (unless the
        // master won with two moves).
        if report.system == SystemId::master() {
            assert_eq!(report.tables_moved.len(), 2);
        } else {
            assert_eq!(report.tables_moved.len(), 1);
        }
    }

    #[test]
    fn transfer_costs_keep_huge_scans_local() {
        let mut s = sphere();
        // An 80 GB table on Hive: shipping it to the (faster) master costs
        // far more than Hive's execution, so the scan stays put.
        s.add_table(
            &SystemId::new("hive-a"),
            build_table(&TableSpec::new(80_000_000, 1000)),
        )
        .unwrap();
        let report = s
            .plan("SELECT a1 FROM T80000000_1000 WHERE a1 < 1000")
            .unwrap();
        assert_eq!(report.best().option.system.as_str(), "hive-a");
        assert_eq!(report.best().transfer_secs, 0.0);
        // Conversely, a small table is worth shipping to the beefy master:
        // Hive's fixed job startup dominates tiny scans.
        let small = s
            .plan("SELECT a1 FROM T1000000_250 WHERE a1 < 1000")
            .unwrap();
        assert_eq!(small.best().option.system, SystemId::master());
    }

    #[test]
    fn repeat_execution_does_not_remove_tables() {
        let mut s = sphere();
        let sql = "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1";
        let first = s.execute(sql).unwrap();
        let second = s.execute(sql).unwrap();
        assert_eq!(first.system, second.system);
        // The move already happened; second run ships nothing new.
        assert!(second.tables_moved.is_empty());
    }

    #[test]
    fn unknown_table_is_a_plan_error() {
        let mut s = sphere();
        assert!(s.plan("SELECT a1 FROM ghost").is_err());
    }
}
