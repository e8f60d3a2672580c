//! The physical workload layer: topological dispatch under capacity.
//!
//! The logical layer ([`crate::ir`], [`crate::rules`]) decides *what*
//! runs *where*; this module turns an optimized [`WorkloadPlan`] into a
//! dispatch: every executing node timed by the slot simulator, tagged
//! with its topological wave, engine concurrency bounded by per-engine
//! capacity slots, and the outcome summarized as a [`WorkloadReport`]
//! (per-query placement, predicted makespan, reuse savings, and the
//! pinned model epoch). The report is assembled on the caller's thread
//! in one pass over the simulated tasks.
//!
//! The full pipeline is `plan_workload_pinned`:
//!
//! ```text
//! WorkloadSpec ──build──▶ WorkloadPlan (greedy) ──rules──▶ WorkloadPlan (optimized)
//!                              │                                │
//!                              ▼ dispatch                      ▼ dispatch
//!                        greedy report                  optimized report
//! ```
//!
//! Both reports come from the same deterministic slot simulator
//! (`WorkloadPlan::simulate`) the rules optimized against, so the
//! reported improvement is exactly what the rule driver accepted —
//! the optimized makespan is never worse than greedy by construction.

use crate::ir::{build_workload_pinned, QueryId, SlotMap, WorkloadPlan, WorkloadSpec};
use crate::planner::PlanError;
use crate::rules::{optimize, RuleTrace};
use crate::transfer::TransferCostModel;
use catalog::{Catalog, SystemId};
use costing::service::EstimatorService;
use costing::ModelSnapshot;

/// Physical dispatch configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScheduleConfig {
    /// Per-engine concurrency capacity.
    pub slots: SlotMap,
    /// Ignored; kept only because `benchmark/` names it; ROADMAP 24
    /// deletes it.
    pub threads: usize,
}

/// One dispatched (or merged-away) query in the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledQuery {
    /// The workload node.
    pub(crate) query: QueryId,
    /// The statement label from the spec.
    pub(crate) label: String,
    /// The engine serving this query's result.
    pub(crate) system: SystemId,
    /// Predicted start, seconds from workload start (0 for merged).
    pub(crate) start_secs: f64,
    /// Predicted finish.
    pub(crate) finish_secs: f64,
    /// Execution component, seconds (0 for merged).
    pub(crate) exec_secs: f64,
    /// Inbound transfer component, seconds (0 for merged).
    pub(crate) transfer_secs: f64,
    /// Dispatch wave (dependency depth).
    pub(crate) wave: usize,
    /// `Some(canonical)` when this query was deduplicated onto an
    /// equivalent node by the reuse rule.
    pub merged_into: Option<QueryId>,
}

/// The physical layer's verdict for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Per-query outcome, in statement order.
    pub queries: Vec<ScheduledQuery>,
    /// Predicted workload makespan, seconds.
    pub makespan_secs: f64,
    /// Total predicted work (sum of task durations), seconds.
    pub total_secs: f64,
    /// Transfer seconds removed by shared-scan dedup.
    pub(crate) shared_scan_secs_saved: f64,
    /// Count of deduplicated scan transfers.
    pub shared_scan_hits: u64,
    /// Queries merged away by the reuse rule.
    pub merged_queries: usize,
    /// Dispatch waves.
    pub waves: usize,
    /// The pinned model-snapshot epoch behind every estimate.
    pub epoch: u64,
}

/// The outcome of the full build → rules → dispatch pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// The greedy per-query baseline (no rules), dispatched.
    pub greedy: WorkloadReport,
    /// The rule-optimized plan, dispatched.
    pub optimized: WorkloadReport,
    /// The optimized plan itself (per-node candidates, assignment).
    pub plan: WorkloadPlan,
    /// The rule driver's decision trail.
    pub trace: RuleTrace,
}

impl WorkloadOutcome {
    /// Total predicted work saved by the rules, seconds.
    pub fn reuse_savings_secs(&self) -> f64 {
        (self.greedy.total_secs - self.optimized.total_secs).max(0.0)
    }

    /// Makespan reduction vs the greedy baseline, percent (≥ 0 by the
    /// rule driver's acceptance contract, modulo epsilon).
    pub fn makespan_reduction_pct(&self) -> f64 {
        if self.greedy.makespan_secs <= 0.0 {
            return 0.0;
        }
        (1.0 - self.optimized.makespan_secs / self.greedy.makespan_secs) * 100.0
    }
}

/// Dispatches one plan state: simulates it, then reports every node in
/// statement order. An executing node carries its simulated task; a
/// merged node carries its canonical's engine, wave and finish at zero
/// cost. `_config` is ignored; kept only because `benchmark/` names it;
/// ROADMAP 24 deletes it.
pub fn dispatch(plan: &WorkloadPlan, _config: &ScheduleConfig) -> WorkloadReport {
    let sim = plan.simulate();
    let mut queries: Vec<ScheduledQuery> = Vec::with_capacity(plan.nodes.len());
    for task in &sim.tasks {
        let q = task.query;
        let (Some(node), Some(system)) = (plan.nodes.get(q.0), plan.assignment.get(q.0)) else {
            continue;
        };
        queries.push(ScheduledQuery {
            query: q,
            label: node.label.clone(),
            system: system.clone(),
            start_secs: task.start_secs,
            finish_secs: task.finish_secs,
            exec_secs: task.exec_secs,
            transfer_secs: task.transfer_secs,
            wave: task.wave,
            merged_into: None,
        });
    }
    // Merged nodes appear in the report with their canonical's placement
    // and zero cost — the statement is answered, just not recomputed.
    let mut merged_queries = 0;
    for (i, node) in plan.nodes.iter().enumerate() {
        let q = QueryId(i);
        if plan.executes(q) {
            continue;
        }
        merged_queries += 1;
        let canonical = plan.canonical(q);
        let system = plan.engine_of(q).cloned().unwrap_or_else(SystemId::master);
        // Tasks are in node-index order.
        let task = sim
            .tasks
            .binary_search_by_key(&canonical, |t| t.query)
            .ok()
            .and_then(|at| sim.tasks.get(at));
        let finish = task.map_or(0.0, |t| t.finish_secs);
        let wave = task.map_or(0, |t| t.wave);
        queries.push(ScheduledQuery {
            query: q,
            label: node.label.clone(),
            system,
            start_secs: finish,
            finish_secs: finish,
            exec_secs: 0.0,
            transfer_secs: 0.0,
            wave,
            merged_into: Some(canonical),
        });
    }
    queries.sort_by_key(|s| s.query.0);
    WorkloadReport {
        queries,
        makespan_secs: sim.totals.makespan_secs,
        total_secs: sim.totals.total_secs,
        shared_scan_secs_saved: sim.totals.shared_scan_secs_saved,
        shared_scan_hits: sim.totals.shared_scan_hits,
        merged_queries,
        waves: sim.totals.waves,
        epoch: plan.epoch,
    }
}

/// The full workload pipeline against a caller-pinned snapshot: build
/// the costed DAG (logical layer), optimize it to rule fixpoint, and
/// dispatch both the greedy baseline and the optimized plan through the
/// slot scheduler. Exactly one model epoch backs every number in the
/// outcome.
pub(crate) fn plan_workload_pinned(
    catalog: &Catalog,
    service: &EstimatorService,
    snapshot: &ModelSnapshot,
    transfer_model: &TransferCostModel,
    spec: &WorkloadSpec,
    config: &ScheduleConfig,
) -> Result<WorkloadOutcome, PlanError> {
    let greedy_plan = build_workload_pinned(
        catalog,
        service,
        snapshot,
        transfer_model,
        spec,
        &config.slots,
    )?;
    let greedy = dispatch(&greedy_plan, config);
    let (optimized_plan, trace) = optimize(&greedy_plan);
    let optimized = dispatch(&optimized_plan, config);

    // Pre-resolved scheduler counters: one relaxed atomic each.
    let scheduler = &service.telemetry().scheduler;
    scheduler.workloads.inc();
    scheduler
        .scheduled
        .add(optimized.queries.len() as u64 - optimized.merged_queries as u64);
    scheduler.merged.add(optimized.merged_queries as u64);
    scheduler.shared_scans.add(optimized.shared_scan_hits);
    scheduler.waves.add(optimized.waves as u64);
    scheduler
        .pinned_moves
        .add(trace.count_of("placement_pinning") as u64);

    Ok(WorkloadOutcome {
        greedy,
        optimized,
        plan: optimized_plan,
        trace,
    })
}

/// `plan_workload_pinned` with the snapshot pinned here: the whole
/// workload — analysis, rules, both dispatches — sees one epoch even if
/// a tuning pass publishes mid-flight.
pub fn plan_workload(
    catalog: &Catalog,
    service: &EstimatorService,
    transfer_model: &TransferCostModel,
    spec: &WorkloadSpec,
    config: &ScheduleConfig,
) -> Result<WorkloadOutcome, PlanError> {
    let snapshot = service.snapshot();
    plan_workload_pinned(catalog, service, &snapshot, transfer_model, spec, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InputRef, SimSchedule, SimTask, WorkloadNode};
    use crate::placement::PlacementOption;
    use crate::planner::PlacementCost;

    /// Node `id` reading `input`, costed at `(engine, exec secs)` each.
    fn node(id: usize, input: InputRef, costs: &[(&SystemId, f64)], fp: u64) -> WorkloadNode {
        let candidates = costs.iter().map(|&(system, execution_secs)| PlacementCost {
            option: PlacementOption {
                system: system.clone(),
                transfers: Vec::new(),
            },
            execution_secs,
            transfer_secs: 0.0,
        });
        WorkloadNode {
            id: QueryId(id),
            label: format!("q{id}"),
            output: Some(format!("out_{id}")),
            inputs: vec![input],
            candidates: candidates.collect(),
            skipped: 0,
            out_rows: 1e4,
            out_bytes: 1e6,
            fingerprint: fp,
        }
    }

    /// Five statements on a Hive engine and the master, one slot each:
    /// `q1` reads `q0`'s output (wave 1), `q2` repeats `q0` and is merged
    /// onto it, and `q3` and `q4` ship the same table to the master,
    /// where the shared scan pays for it once. Returns the plan, its
    /// simulation and its report.
    fn dispatched() -> (WorkloadPlan, SimSchedule, WorkloadReport) {
        let (hive, master) = (SystemId::new("hive-a"), SystemId::master());
        let scan = || InputRef::Base {
            table: "t_r".into(),
            location: hive.clone(),
            bytes: 4e8,
        };
        let produced = InputRef::Intermediate {
            producer: QueryId(0),
            table: "out_0".into(),
        };
        let either = [(&hive, 2.0), (&master, 1.5)];
        let plan = WorkloadPlan {
            nodes: vec![
                node(0, scan(), &either, 10),
                node(1, produced, &[(&master, 3.0), (&hive, 4.0)], 11),
                node(2, scan(), &either, 10),
                node(3, scan(), &[(&master, 1.0)], 12),
                node(4, scan(), &[(&master, 0.5)], 13),
            ],
            assignment: vec![hive.clone(), master.clone(), hive, master.clone(), master],
            merged_into: vec![None, None, Some(QueryId(0)), None, None],
            share_scans: true,
            slots: SlotMap::uniform(1),
            transfer: TransferCostModel::default(),
            epoch: 7,
        };
        let (sim, report) = (plan.simulate(), dispatch(&plan, &ScheduleConfig::default()));
        (plan, sim, report)
    }

    /// Start, finish, exec and transfer seconds, as bits.
    fn secs(s: &ScheduledQuery) -> [u64; 4] {
        [s.start_secs, s.finish_secs, s.exec_secs, s.transfer_secs].map(f64::to_bits)
    }

    fn task_secs(t: &SimTask) -> [u64; 4] {
        [t.start_secs, t.finish_secs, t.exec_secs, t.transfer_secs].map(f64::to_bits)
    }

    #[test]
    fn every_node_is_reported_once_in_statement_order() {
        let (plan, _, report) = dispatched();
        let ids: Vec<usize> = report.queries.iter().map(|s| s.query.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        for (s, node) in report.queries.iter().zip(&plan.nodes) {
            assert_eq!(s.label, node.label);
        }
    }

    #[test]
    fn an_executing_node_reports_its_assignment_and_its_simulated_task() {
        let (plan, sim, report) = dispatched();
        let executed: Vec<usize> = sim.tasks.iter().map(|t| t.query.0).collect();
        assert_eq!(executed, [0, 1, 3, 4]);
        for task in &sim.tasks {
            let s = &report.queries[task.query.0];
            assert_eq!(s.system, plan.assignment[task.query.0], "{:?}", s.query);
            assert_eq!(secs(s), task_secs(task), "{:?}", s.query);
            assert_eq!((s.wave, s.merged_into), (task.wave, None), "{:?}", s.query);
        }
        assert_eq!(report.queries[1].wave, 1, "q1 waits for q0");
    }

    #[test]
    fn a_merged_node_reports_its_canonicals_engine_wave_and_finish_at_zero_cost() {
        let (_, _, report) = dispatched();
        let (canonical, merged) = (&report.queries[0], &report.queries[2]);
        assert_eq!(merged.merged_into, Some(QueryId(0)));
        assert_eq!(
            (&merged.system, merged.wave),
            (&canonical.system, canonical.wave)
        );
        let finish = canonical.finish_secs.to_bits();
        assert_eq!(secs(merged), [finish, finish, 0, 0]);
    }

    #[test]
    fn the_totals_are_the_simulations_and_the_epoch_the_plans() {
        let (_, sim, report) = dispatched();
        let totals = sim.totals;
        let bits = |secs: [f64; 3]| secs.map(f64::to_bits);
        assert_eq!(
            bits([
                report.makespan_secs,
                report.total_secs,
                report.shared_scan_secs_saved
            ]),
            bits([
                totals.makespan_secs,
                totals.total_secs,
                totals.shared_scan_secs_saved
            ])
        );
        assert_eq!(report.shared_scan_hits, totals.shared_scan_hits);
        assert_eq!(
            (report.waves, report.merged_queries, report.epoch),
            (totals.waves, 1, 7)
        );
        // The fixture has what it claims: two waves and a shared scan.
        assert_eq!((totals.waves, totals.shared_scan_hits), (2, 1));
        assert!(totals.shared_scan_secs_saved > 0.0);
    }
}
