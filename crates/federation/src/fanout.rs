//! Concurrent placement costing through the shared [`EstimatorService`].
//!
//! The sequential [`crate::planner`] owns a mutable [`HybridCostManager`]
//! and costs one query at a time — faithful to the paper's flow, but a
//! federated optimizer batching many queries (or re-planning a workload)
//! wants its execution estimates in parallel. This module fans a slice of
//! logical plans out over `std::thread`s, each thread holding a cloned
//! handle to one shared [`EstimatorService`]. The service's estimates are
//! pure reads, so the concurrent output is exactly what the serial loop
//! produces, in the same order.
//!
//! Every entry point pins one [`ModelSnapshot`] for its whole unit of
//! work — per query in [`plan_query_with_service`], per *batch* in
//! [`plan_queries_concurrent`] — so a ranking is never assembled from
//! estimates of two different model states, even while a tuning pass
//! publishes new epochs concurrently. The pinned epoch is recorded on
//! the [`PlanReport`].
//!
//! [`HybridCostManager`]: costing::hybrid::HybridCostManager

use crate::{
    ir::{build_workload_pinned, QueryId, SlotMap, WorkloadSpec},
    planner::{PlanError, PlanReport},
    transfer::TransferCostModel,
};
use catalog::Catalog;
use costing::service::{EstimatorService, ServiceError};
use costing::{agg_features, join_features, ModelSnapshot, OperatorKind};
use remote_sim::analyze::QueryAnalysis;
use sqlkit::logical::LogicalPlan;

/// Estimates a query's execution time on one system via the service —
/// the join and/or aggregation operators the analysis found, summed —
/// against a caller-pinned snapshot, so both operator estimates come
/// from the same model state.
///
/// Returns `Err` when the snapshot has no model for a required operator
/// on that system — the caller skips the placement, mirroring how the
/// serial planner treats systems without costing profiles.
pub fn service_execution_secs_pinned(
    service: &EstimatorService,
    snapshot: &ModelSnapshot,
    system: &catalog::SystemId,
    analysis: &QueryAnalysis,
) -> Result<f64, ServiceError> {
    let mut total = 0.0;
    let mut costed = false;
    if analysis.join.is_some() {
        if let Some(f) = join_features(analysis) {
            total += service
                .estimate_pinned(snapshot, system, OperatorKind::Join, &f)?
                .secs;
            costed = true;
        }
    }
    if analysis.agg.is_some() {
        if let Some(f) = agg_features(analysis) {
            total += service
                .estimate_pinned(snapshot, system, OperatorKind::Aggregation, &f)?
                .secs;
            costed = true;
        }
    }
    if !costed {
        // Scan-only queries have no logical-op model in the service.
        return Err(ServiceError::UnknownModel {
            system: system.clone(),
            op: OperatorKind::Scan,
        });
    }
    Ok(total)
}

/// Costs every placement of one query through the service and ranks them —
/// the service-backed analogue of [`crate::planner::plan_query`].
///
/// Planning activity lands on the service's telemetry: the
/// `federation_plans_total`, `federation_placements_costed_total`, and
/// `federation_placements_skipped_total` counters, plus one
/// [`telemetry::Event::PlanRanked`] per successful plan when a tracing
/// subscriber is attached.
pub fn plan_query_with_service(
    catalog: &Catalog,
    service: &EstimatorService,
    transfer_model: &TransferCostModel,
    plan: &LogicalPlan,
) -> Result<PlanReport, PlanError> {
    let snapshot = service.snapshot();
    plan_query_with_service_pinned(catalog, service, &snapshot, transfer_model, plan)
}

/// [`plan_query_with_service`] against a caller-pinned snapshot: every
/// candidate's execution estimate comes from the same model state, and
/// the report records its epoch.
///
/// Since the workload refactor this is a *degenerate single-node
/// workload* through the logical layer: the statement becomes a
/// [`WorkloadSpec::singleton`], [`build_workload_pinned`] costs its
/// candidates through the service's deduplicating batch path (bit-
/// identical to the old per-candidate loop — proptest-enforced), and
/// the node's per-query greedy report is returned unchanged. One
/// costing path serves both single statements and whole workloads.
pub fn plan_query_with_service_pinned(
    catalog: &Catalog,
    service: &EstimatorService,
    snapshot: &ModelSnapshot,
    transfer_model: &TransferCostModel,
    plan: &LogicalPlan,
) -> Result<PlanReport, PlanError> {
    let spec = WorkloadSpec::singleton(plan.clone());
    let workload = build_workload_pinned(
        catalog,
        service,
        snapshot,
        transfer_model,
        &spec,
        &SlotMap::default(),
    )?;
    workload
        .node_report(QueryId(0))
        .ok_or(PlanError::Internal("singleton workload produced no node"))
}

/// Plans a batch of queries concurrently on `threads` OS threads, all
/// sharing one [`EstimatorService`] handle (and its estimate cache).
///
/// The whole batch is costed against one pinned snapshot, so every
/// report carries the same epoch and the batch is internally consistent
/// even if tuning publishes new model states mid-flight. Results come
/// back in input order, and — because pinned estimates are read-only —
/// are identical to running [`plan_query_with_service_pinned`] over the
/// slice serially with the same snapshot.
pub fn plan_queries_concurrent(
    catalog: &Catalog,
    service: &EstimatorService,
    transfer_model: &TransferCostModel,
    plans: &[LogicalPlan],
    threads: usize,
) -> Vec<Result<PlanReport, PlanError>> {
    let snapshot = service.snapshot();
    let snapshot = &snapshot;
    let results = run_strips(plans.len(), threads, |i| match plans.get(i) {
        Some(plan) => {
            plan_query_with_service_pinned(catalog, service, snapshot, transfer_model, plan)
        }
        None => Err(PlanError::Internal("fan-out index out of range")),
    });
    results
        .into_iter()
        .map(|r| r.unwrap_or(Err(PlanError::Internal("fan-out slot left unfilled"))))
        .collect()
}

/// The federation crate's thread pool in function form: runs `f(0..n)`
/// on up to `threads` scoped OS threads in round-robin strips (thread
/// `t` takes items `t`, `t+threads`, `t+2·threads`, …), writing each
/// result into its input-order slot without locks. With one thread (or
/// one item) everything runs inline on the caller's thread.
///
/// A `None` in the output means a worker died before filling its slot —
/// callers surface it as [`PlanError::Internal`] rather than panicking.
/// Shared by the concurrent per-query planner above and the physical
/// layer's wave dispatch ([`crate::schedule`]).
pub(crate) fn run_strips<T, F>(n: usize, threads: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(n, || None);
    if threads == 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(f(i));
        }
        return results;
    }
    let slots: Vec<_> = results.iter_mut().collect();
    std::thread::scope(|scope| {
        let mut strips: Vec<Vec<(usize, &mut Option<T>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, slot) in slots.into_iter().enumerate() {
            if let Some(strip) = strips.get_mut(i % threads) {
                strip.push((i, slot));
            }
        }
        for strip in strips {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in strip {
                    *slot = Some(f(i));
                }
            });
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{ColumnDef, ColumnStats, RemoteSystemProfile, SystemId, TableDef, TableStats};
    use costing::features::{agg_dim_names, join_dim_names};
    use costing::logical_op::flow::LogicalOpCosting;
    use costing::logical_op::model::{FitConfig, LogicalOpModel};
    use costing::{AGG_DIMS, JOIN_DIMS};
    use neuro::Dataset;

    /// Trains tiny join + aggregation models with a per-system cost scale,
    /// so different systems rank differently.
    fn flows(scale: f64) -> (LogicalOpCosting, LogicalOpCosting) {
        let mut jin = vec![];
        let mut jt = vec![];
        let mut ain = vec![];
        let mut at = vec![];
        for i in 0..80 {
            let r = 1e5 + (i % 10) as f64 * 1e6;
            let s = 1e4 + (i % 8) as f64 * 1e5;
            // JOIN_DIMS arity feature vector: fill plausibly.
            // Fig. 2 order: row_size_r, num_rows_r, row_size_s, num_rows_s,
            // projected sizes, output rows.
            let jf = vec![250.0, r, 100.0, s, 16.0, 16.0, s];
            assert_eq!(jf.len(), JOIN_DIMS);
            jin.push(jf);
            jt.push(scale * (2.0 + r * 4e-7 + s * 2e-7));
            let af = vec![r, 250.0, r / 10.0, 12.0];
            assert_eq!(af.len(), AGG_DIMS);
            ain.push(af);
            at.push(scale * (1.0 + r * 3e-7));
        }
        let (jm, _) = LogicalOpModel::fit(
            OperatorKind::Join,
            &join_dim_names(),
            &Dataset::new(jin, jt),
            &FitConfig::fast(),
        );
        let (am, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &agg_dim_names(),
            &Dataset::new(ain, at),
            &FitConfig::fast(),
        );
        (LogicalOpCosting::new(jm), LogicalOpCosting::new(am))
    }

    fn setup() -> (Catalog, EstimatorService) {
        let mut catalog = Catalog::new();
        catalog
            .register_system(RemoteSystemProfile::paper_hive_cluster("hive-a"))
            .unwrap();
        catalog
            .register_system(RemoteSystemProfile::new(
                SystemId::master(),
                catalog::SystemKind::Teradata,
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
                .with_column("a5", ColumnStats::duplicated_range(rows / 10, 10));
            catalog
                .register_table(TableDef::new(
                    name,
                    vec![
                        ColumnDef::int("a1"),
                        ColumnDef::int("a5"),
                        ColumnDef::chars("d", 242),
                    ],
                    stats,
                    SystemId::new(sys),
                ))
                .unwrap();
        }
        let service = EstimatorService::default();
        let (j, a) = flows(1.0);
        service.register(SystemId::new("hive-a"), j);
        service.register(SystemId::new("hive-a"), a);
        let (j, a) = flows(3.0);
        service.register(SystemId::master(), j);
        service.register(SystemId::master(), a);
        (catalog, service)
    }

    fn join_plan() -> LogicalPlan {
        sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1").unwrap()
    }

    #[test]
    fn service_backed_planning_ranks_candidates() {
        let (catalog, service) = setup();
        let transfer = TransferCostModel::default();
        let report = plan_query_with_service(&catalog, &service, &transfer, &join_plan()).unwrap();
        assert_eq!(report.candidates.len(), 2);
        assert!(report.candidates[0].total_secs() <= report.candidates[1].total_secs());
    }

    #[test]
    fn concurrent_fanout_matches_serial_in_order() {
        let (catalog, service) = setup();
        let transfer = TransferCostModel::default();
        let plans: Vec<LogicalPlan> = (0..12).map(|_| join_plan()).collect();
        let serial = plan_queries_concurrent(&catalog, &service, &transfer, &plans, 1);
        service.clear_cache();
        let parallel = plan_queries_concurrent(&catalog, &service, &transfer, &plans, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.as_ref().unwrap(), p.as_ref().unwrap());
        }
    }

    #[test]
    fn fanout_planning_counts_plans_and_placements() {
        let (catalog, service) = setup();
        let transfer = TransferCostModel::default();
        let plans: Vec<LogicalPlan> = (0..6).map(|_| join_plan()).collect();
        let results = plan_queries_concurrent(&catalog, &service, &transfer, &plans, 3);
        assert!(results.iter().all(|r| r.is_ok()));
        let snap = service.telemetry().metrics.snapshot();
        assert_eq!(snap.counter("federation_plans_total", &[]), Some(6));
        assert_eq!(
            snap.counter("federation_placements_costed_total", &[]),
            Some(12),
            "two candidate systems per plan"
        );
        assert_eq!(
            snap.counter("federation_placements_skipped_total", &[]),
            Some(0)
        );
    }

    #[test]
    fn batch_reports_are_pinned_to_one_epoch() {
        let (catalog, service) = setup();
        let transfer = TransferCostModel::default();
        let plans: Vec<LogicalPlan> = (0..6).map(|_| join_plan()).collect();
        let epoch_before = service.epoch().get();
        let results = plan_queries_concurrent(&catalog, &service, &transfer, &plans, 3);
        for r in &results {
            assert_eq!(r.as_ref().unwrap().epoch, Some(epoch_before));
        }
        // A publication between batches shows up as a new pinned epoch.
        service.republish();
        let report = plan_query_with_service(&catalog, &service, &transfer, &join_plan()).unwrap();
        assert_eq!(report.epoch, Some(epoch_before + 1));
        // Pinning an old snapshot replays it under its own epoch.
        let results2 = plan_queries_concurrent(&catalog, &service, &transfer, &plans, 3);
        assert_eq!(
            results2[0].as_ref().unwrap().candidates,
            results[0].as_ref().unwrap().candidates,
            "republish must not change the ranking"
        );
    }

    #[test]
    fn scan_only_queries_have_no_service_model() {
        let (catalog, service) = setup();
        let transfer = TransferCostModel::default();
        let plan = sqlkit::sql_to_plan("SELECT a1 FROM t_r").unwrap();
        assert_eq!(
            plan_query_with_service(&catalog, &service, &transfer, &plan),
            Err(PlanError::NoViablePlacement)
        );
    }
}
