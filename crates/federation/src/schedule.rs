//! The physical workload layer: topological dispatch under capacity.
//!
//! The logical layer ([`crate::ir`], [`crate::rules`]) decides *what*
//! runs *where*; this module turns an optimized [`WorkloadPlan`] into a
//! dispatch: executing nodes grouped into topological waves, each wave
//! fanned out over scoped-thread strips, engine
//! concurrency bounded by per-engine capacity slots, and the outcome
//! summarized as a [`WorkloadReport`] (per-query placement, predicted
//! makespan, reuse savings, and the pinned model epoch).
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

use crate::ir::{build_workload_pinned, QueryId, SimTask, SlotMap, WorkloadPlan, WorkloadSpec};
use crate::planner::PlanError;
use crate::rules::{optimize, RuleTrace};
use crate::transfer::TransferCostModel;
use catalog::{Catalog, SystemId};
use costing::service::EstimatorService;
use costing::ModelSnapshot;

/// Physical dispatch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleConfig {
    /// Per-engine concurrency capacity.
    pub slots: SlotMap,
    /// OS threads for per-wave dispatch fan-out (min 1).
    pub threads: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            slots: SlotMap::default(),
            threads: 4,
        }
    }
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

/// The wave fan-out's thread pool in function form: runs `f(0..n)`
/// on up to `threads` scoped OS threads in round-robin strips (thread
/// `t` takes items `t`, `t+threads`, `t+2·threads`, …), writing each
/// result into its input-order slot without locks. With one thread (or
/// one item) everything runs inline on the caller's thread.
///
/// A `None` in the output means a worker died before filling its slot;
/// [`dispatch`] drops such entries rather than panicking.
#[expect(
    clippy::disallowed_methods,
    reason = "blocks: spawns and joins scoped threads under plan_workload_pinned when threads > 1; deleted by ROADMAP 13(a)"
)]
fn run_strips<T, F>(n: usize, threads: usize, f: F) -> Vec<Option<T>>
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

/// Dispatches one plan state: simulates it, then assembles the
/// per-query report wave by wave on `run_strips` threads.
pub fn dispatch(plan: &WorkloadPlan, config: &ScheduleConfig) -> WorkloadReport {
    let sim = plan.simulate();
    let mut waves: Vec<Vec<&SimTask>> = vec![Vec::new(); sim.totals.waves];
    for task in &sim.tasks {
        if let Some(wave) = waves.get_mut(task.wave) {
            wave.push(task);
        }
    }
    let mut queries: Vec<ScheduledQuery> = Vec::new();
    for wave in &waves {
        // One strip fan-out per topological wave: every query in a wave
        // is independent of the others, so report assembly (and, in a
        // live deployment, submission) parallelizes freely.
        let entries = run_strips(wave.len(), config.threads, |i| {
            let task = wave.get(i)?;
            let q = task.query;
            Some(ScheduledQuery {
                query: q,
                label: plan.nodes.get(q.0)?.label.clone(),
                system: plan.assignment.get(q.0)?.clone(),
                start_secs: task.start_secs,
                finish_secs: task.finish_secs,
                exec_secs: task.exec_secs,
                transfer_secs: task.transfer_secs,
                wave: task.wave,
                merged_into: None,
            })
        });
        queries.extend(entries.into_iter().flatten().flatten());
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
