//! The logical workload layer: a query-DAG IR over placement costing.
//!
//! The per-query planner (§2) answers "where should *this* statement
//! run?". Real federated deployments submit *workloads*: batches of
//! statements that read the same hot tables, recompute the same
//! intermediate results, and contend for the same engines. This module
//! gives the federation crate an explicit logical layer for that setting,
//! modelled on the plan-node / rewrite-rule split of production
//! optimizers:
//!
//! * [`WorkloadSpec`] — the input DAG: each node is one query with its
//!   declared input tables and an optionally *published* output name;
//!   an edge exists wherever a later query reads an earlier query's
//!   output. Specs are index-ordered topologically by construction
//!   (outputs can only be consumed by later statements).
//! * [`WorkloadPlan`] — the costed DAG: every node carries its ranked
//!   placement candidates (the per-query greedy view), the current
//!   engine assignment, duplicate-merge state, and the shared-scan
//!   flag. The plan is a *value*: rewrite rules in [`crate::rules`]
//!   are pure functions from plan to plan.
//! * `WorkloadPlan::simulate` — the deterministic capacity-slot list
//!   scheduler both the rule objective and the physical layer
//!   ([`crate::schedule`]) share, so "does this rewrite help?" and
//!   "what will dispatch do?" can never disagree.
//!
//! Costing pins ONE [`ModelSnapshot`] epoch for the whole workload and
//! routes every execution estimate through the service's deduplicating
//! batch path ([`EstimatorService::estimate_batch_dedup_pinned`]), which
//! is bit-identical to the per-row pinned path — the property that lets
//! the single-query entry points ([`plan_query_with_service`] and its
//! pinned form) run as degenerate single-node workloads without changing
//! a single ranking.

use crate::placement::{enumerate_placements, PlacementOption};
use crate::planner::{PlacementCost, PlanError, PlanReport};
use crate::transfer::{hops_between, TransferCostModel};
use catalog::{Catalog, ColumnDef, ColumnStats, SystemId, TableDef, TableStats};
use costing::service::EstimatorService;
use costing::{agg_features, join_features, ModelSnapshot, OperatorKind};
use remote_sim::analyze::analyze;
use sqlkit::logical::LogicalPlan;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a query node inside its workload (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// One statement of a workload: a logical plan plus an optional output
/// name under which later statements can consume its result.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadQuery {
    /// Human-readable label carried into reports.
    pub label: String,
    /// The statement's logical plan.
    pub plan: LogicalPlan,
    /// When `Some`, the result is published under this table name and
    /// later statements referencing the name become consumers.
    pub output: Option<String>,
}

/// The input DAG: an index-ordered list of statements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadSpec {
    /// The statements, in submission order. A statement may only
    /// consume outputs of statements with smaller indices.
    pub queries: Vec<WorkloadQuery>,
}

impl WorkloadSpec {
    /// A one-statement workload — the degenerate form the single-query
    /// planner entry points use.
    pub fn singleton(plan: LogicalPlan) -> Self {
        WorkloadSpec {
            queries: vec![WorkloadQuery {
                label: "query".to_string(),
                plan,
                output: None,
            }],
        }
    }

    /// Parses and appends one SQL statement.
    pub fn push_sql(
        &mut self,
        label: &str,
        sql: &str,
        output: Option<&str>,
    ) -> Result<(), PlanError> {
        let plan = sqlkit::sql_to_plan(sql).map_err(|e| PlanError::Catalog(e.to_string()))?;
        self.queries.push(WorkloadQuery {
            label: label.to_string(),
            plan,
            output: output.map(str::to_string),
        });
        Ok(())
    }
}

/// One resolved input of a workload node.
#[derive(Debug, Clone, PartialEq)]
pub enum InputRef {
    /// A catalog base table with its fixed location.
    Base {
        /// Table name.
        table: String,
        /// Owning system.
        location: SystemId,
        /// Stored bytes (what a transfer would move).
        bytes: f64,
    },
    /// The published output of an earlier workload node.
    Intermediate {
        /// The producing node.
        producer: QueryId,
        /// The published name.
        table: String,
    },
}

/// One costed node of the workload DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadNode {
    /// The node's index.
    pub id: QueryId,
    /// The statement label.
    pub label: String,
    /// Published output name, if any.
    pub output: Option<String>,
    /// Resolved inputs, in the plan's table-reference order.
    pub inputs: Vec<InputRef>,
    /// Ranked placement candidates (cheapest first) — the per-query
    /// greedy view, identical to what [`crate::planner`] would report
    /// for the statement in isolation.
    pub candidates: Vec<PlacementCost>,
    /// Candidates skipped because no model could cost them.
    pub skipped: u64,
    /// Estimated output cardinality.
    pub out_rows: f64,
    /// Estimated output bytes (what consuming the result remotely moves).
    pub out_bytes: f64,
    /// Structural fingerprint: two nodes with equal fingerprints compute
    /// the same result from the same inputs (same resolved inputs, same
    /// operator features) and are mergeable by the reuse rule.
    pub fingerprint: u64,
}

impl WorkloadNode {
    /// The execution estimate on `system`, if that system was costed.
    pub(crate) fn exec_secs_on(&self, system: &SystemId) -> Option<f64> {
        self.candidates
            .iter()
            .find(|c| &c.option.system == system)
            .map(|c| c.execution_secs)
    }

    /// Producers of this node's intermediate inputs.
    pub(crate) fn producers(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.inputs.iter().filter_map(|i| match i {
            InputRef::Intermediate { producer, .. } => Some(*producer),
            InputRef::Base { .. } => None,
        })
    }
}

/// Per-engine concurrency capacity for the slot scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMap {
    /// Slots for engines without an override (min 1).
    pub default_slots: usize,
    /// Per-engine overrides.
    pub overrides: BTreeMap<SystemId, usize>,
}

impl Default for SlotMap {
    fn default() -> Self {
        SlotMap {
            default_slots: 2,
            overrides: BTreeMap::new(),
        }
    }
}

impl SlotMap {
    /// A uniform slot map.
    pub fn uniform(slots: usize) -> Self {
        SlotMap {
            default_slots: slots.max(1),
            overrides: BTreeMap::new(),
        }
    }

    /// Capacity of one engine.
    pub(crate) fn slots_for(&self, system: &SystemId) -> usize {
        self.overrides
            .get(system)
            .copied()
            .unwrap_or(self.default_slots)
            .max(1)
    }
}

/// The costed, rewritable workload plan: the unit the rule passes in
/// [`crate::rules`] transform and the physical layer dispatches.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// The costed nodes, index-aligned with the spec.
    pub nodes: Vec<WorkloadNode>,
    /// Current engine per node (greedy per-query winners at build time).
    pub assignment: Vec<SystemId>,
    /// Duplicate-merge state: `merged_into[q] = Some(c)` means node `q`
    /// does not execute — its result is served by canonical node `c`
    /// (always a smaller index, never itself merged).
    pub merged_into: Vec<Option<QueryId>>,
    /// When set, identical `(table, engine)` inbound transfers across
    /// the workload are paid once (the shared-scan rewrite).
    pub share_scans: bool,
    /// Per-engine capacity used by `WorkloadPlan::simulate`.
    pub slots: SlotMap,
    /// The transfer cost model (hop costs for dynamic re-costing).
    pub transfer: TransferCostModel,
    /// The pinned model-snapshot epoch every execution estimate in this
    /// plan was computed from.
    pub epoch: u64,
}

/// The scheduling objective, compared lexicographically by the rule
/// driver: makespan first, then total predicted work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Predicted workload makespan, seconds.
    pub makespan_secs: f64,
    /// Sum of all scheduled task durations, seconds.
    pub total_secs: f64,
}

/// One scheduled task of the simulated dispatch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimTask {
    /// The executing node.
    pub query: QueryId,
    /// The engine it runs on.
    pub system: SystemId,
    /// Execution component, seconds.
    pub exec_secs: f64,
    /// Inbound transfer component (after any shared-scan dedup), seconds.
    pub transfer_secs: f64,
    /// Simulated start time, seconds from workload start.
    pub start_secs: f64,
    /// Simulated finish time.
    pub finish_secs: f64,
    /// Dependency depth (0 = no intermediate inputs) — the wave the
    /// physical layer dispatches the task in.
    pub wave: usize,
}

/// The deterministic slot-scheduler outcome for one plan state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimSchedule {
    /// Scheduled tasks in node-index order (merged nodes absent).
    pub tasks: Vec<SimTask>,
    /// Predicted makespan, seconds.
    pub makespan_secs: f64,
    /// Sum of task durations, seconds.
    pub total_secs: f64,
    /// Transfer seconds removed by shared-scan dedup.
    pub shared_scan_secs_saved: f64,
    /// Count of deduplicated scan transfers.
    pub shared_scan_hits: u64,
    /// Number of dispatch waves (max depth + 1; 0 when nothing runs).
    pub waves: usize,
}

impl WorkloadPlan {
    /// Resolves a node through the duplicate-merge map.
    pub(crate) fn canonical(&self, q: QueryId) -> QueryId {
        self.merged_into.get(q.0).copied().flatten().unwrap_or(q)
    }

    /// Whether a node is actually dispatched (not merged away).
    pub(crate) fn executes(&self, q: QueryId) -> bool {
        matches!(self.merged_into.get(q.0), Some(None))
    }

    /// The engine serving a node's result (its canonical's assignment).
    pub(crate) fn engine_of(&self, q: QueryId) -> Option<&SystemId> {
        self.assignment.get(self.canonical(q).0)
    }

    /// Dependency depth of every node: 0 for nodes with no intermediate
    /// inputs, else 1 + the max depth of the canonical producers.
    fn depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let mut d = 0usize;
            for p in node.producers() {
                let cp = self.canonical(p);
                if let Some(pd) = depths.get(cp.0) {
                    d = d.max(pd + 1);
                }
            }
            if let Some(slot) = depths.get_mut(i) {
                *slot = d;
            }
        }
        depths
    }

    /// Executing nodes grouped by dependency depth — the dispatch waves
    /// the physical layer fans out over.
    pub(crate) fn waves(&self) -> Vec<Vec<QueryId>> {
        let depths = self.depths();
        let mut waves: Vec<Vec<QueryId>> = Vec::new();
        for (i, d) in depths.iter().enumerate() {
            if !self.executes(QueryId(i)) {
                continue;
            }
            while waves.len() <= *d {
                waves.push(Vec::new());
            }
            if let Some(wave) = waves.get_mut(*d) {
                wave.push(QueryId(i));
            }
        }
        waves
    }

    /// Runs the deterministic capacity-slot list scheduler over the
    /// current plan state.
    ///
    /// Tasks are placed in node-index order (a topological order by
    /// construction): each executing node starts when its producers have
    /// finished *and* a slot on its engine frees up, and runs for its
    /// execution estimate plus its inbound transfer costs. With
    /// [`WorkloadPlan::share_scans`] set, repeated `(table, engine)`
    /// transfers are paid by the first reader only. Pure arithmetic on
    /// predicted costs — no wall clock — so identical plans always
    /// simulate identically.
    pub(crate) fn simulate(&self) -> SimSchedule {
        let depths = self.depths();
        let mut slots: BTreeMap<SystemId, Vec<f64>> = BTreeMap::new();
        let mut finish: Vec<f64> = vec![0.0; self.nodes.len()];
        let mut seen: BTreeSet<(String, SystemId)> = BTreeSet::new();
        let mut tasks = Vec::new();
        let mut makespan: f64 = 0.0;
        let mut total: f64 = 0.0;
        let mut saved: f64 = 0.0;
        let mut hits: u64 = 0;
        let mut waves: usize = 0;

        for (i, node) in self.nodes.iter().enumerate() {
            let q = QueryId(i);
            if !self.executes(q) {
                // Merged: the result is the canonical's; it finishes when
                // the canonical does.
                let f = finish.get(self.canonical(q).0).copied().unwrap_or(0.0);
                if let Some(slot) = finish.get_mut(i) {
                    *slot = f;
                }
                continue;
            }
            let system = match self.assignment.get(i) {
                Some(s) => s.clone(),
                None => continue,
            };
            let exec_secs = node.exec_secs_on(&system).unwrap_or(0.0);
            let mut transfer_secs = 0.0;
            let mut ready = 0.0f64;
            for input in &node.inputs {
                let (key, from, bytes) = match input {
                    InputRef::Base {
                        table,
                        location,
                        bytes,
                    } => (format!("b:{table}"), location.clone(), *bytes),
                    InputRef::Intermediate { producer, .. } => {
                        let cp = self.canonical(*producer);
                        ready = ready.max(finish.get(cp.0).copied().unwrap_or(0.0));
                        let from = match self.assignment.get(cp.0) {
                            Some(s) => s.clone(),
                            None => continue,
                        };
                        let bytes = self.nodes.get(cp.0).map(|n| n.out_bytes).unwrap_or(0.0);
                        (format!("q:{}", cp.0), from, bytes)
                    }
                };
                if from == system {
                    continue;
                }
                let cost = self
                    .transfer
                    .transfer_secs(bytes, hops_between(&from, &system));
                if self.share_scans && !seen.insert((key, system.clone())) {
                    saved += cost;
                    hits += 1;
                    continue;
                }
                transfer_secs += cost;
            }
            let transfer_secs = transfer_secs + 0.0; // normalise -0.0
            let duration = exec_secs + transfer_secs;
            let engine_slots = slots
                .entry(system.clone())
                .or_insert_with(|| vec![0.0; self.slots.slots_for(&system)]);
            let slot = engine_slots
                .iter_mut()
                .min_by(|a, b| mathkit::total_cmp_f64(a, b));
            let start = match slot {
                Some(slot) => {
                    let start = ready.max(*slot);
                    *slot = start + duration;
                    start
                }
                None => ready,
            };
            let end = start + duration;
            if let Some(slot) = finish.get_mut(i) {
                *slot = end;
            }
            makespan = makespan.max(end);
            total += duration;
            let wave = depths.get(i).copied().unwrap_or(0);
            waves = waves.max(wave + 1);
            tasks.push(SimTask {
                query: q,
                system,
                exec_secs,
                transfer_secs,
                start_secs: start,
                finish_secs: end,
                wave,
            });
        }
        SimSchedule {
            tasks,
            makespan_secs: makespan,
            total_secs: total,
            shared_scan_secs_saved: saved,
            shared_scan_hits: hits,
            waves,
        }
    }

    /// The scheduling objective of the current plan state.
    pub(crate) fn objective(&self) -> Objective {
        let sim = self.simulate();
        Objective {
            makespan_secs: sim.makespan_secs,
            total_secs: sim.total_secs,
        }
    }

    /// The per-query greedy [`PlanReport`] of one node — what the
    /// single-statement planner would have answered. The singleton
    /// entry points unwrap exactly this.
    pub fn node_report(&self, q: QueryId) -> Option<PlanReport> {
        self.nodes.get(q.0).map(|n| PlanReport {
            candidates: n.candidates.clone(),
            epoch: Some(self.epoch),
        })
    }
}

/// Costs and ranks a set of placement candidates — THE shared costing
/// core of the federation crate. Both the sequential manager-backed
/// planner ([`crate::planner::plan_query`]) and the service-backed
/// workload builder route every candidate through this one loop, so the
/// transfer arithmetic, skip semantics, and ordering can never diverge.
///
/// Ordering is fully deterministic: candidates sort by total cost
/// ([`mathkit::total_cmp_f64`]) with ties broken by [`SystemId`] — equal
/// costs can no longer flap with registry enumeration order.
pub(crate) fn cost_candidates<E>(
    options: Vec<PlacementOption>,
    transfer_model: &TransferCostModel,
    mut exec: impl FnMut(&PlacementOption) -> Result<f64, E>,
) -> (Vec<PlacementCost>, u64, Option<E>) {
    let mut candidates = Vec::new();
    let mut skipped: u64 = 0;
    let mut last_err = None;
    for option in options {
        let execution_secs = match exec(&option) {
            Ok(secs) => secs,
            Err(e) => {
                skipped += 1;
                last_err = Some(e);
                continue;
            }
        };
        let transfer_secs: f64 = option
            .transfers
            .iter()
            .map(|t| transfer_model.transfer_secs(t.bytes, t.hops))
            .sum::<f64>()
            + 0.0; // normalise -0.0 from float arithmetic
        candidates.push(PlacementCost {
            option,
            execution_secs,
            transfer_secs,
        });
    }
    candidates.sort_by(|a, b| {
        mathkit::total_cmp_f64(&a.total_secs(), &b.total_secs())
            .then_with(|| a.option.system.cmp(&b.option.system))
    });
    (candidates, skipped, last_err)
}

/// The synthetic catalog entry registered for a published intermediate:
/// a narrow two-column table (`a1` unique, `a5` five-way duplicated)
/// whose statistics come from the producer's estimated output. Exposed
/// so tests can replay the per-query planner against identical
/// synthetic tables.
pub fn synthetic_table_def(name: &str, rows: f64, bytes: f64, location: &SystemId) -> TableDef {
    let rows_u = (rows.max(1.0)).round() as u64;
    let row_bytes = ((bytes / rows.max(1.0)).max(8.0)).round() as u64;
    let stats = TableStats::new(rows_u, row_bytes)
        .with_column("a1", ColumnStats::duplicated_range(rows_u, 1))
        .with_column("a5", ColumnStats::duplicated_range(rows_u, 5));
    TableDef::new(
        name,
        vec![ColumnDef::int("a1"), ColumnDef::int("a5")],
        stats,
        location.clone(),
    )
}

/// FNV-1a over a byte slice, folded into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per-node scratch carried between the analysis pass and the costing
/// pass of [`build_workload_pinned`].
struct NodeDraft {
    inputs: Vec<InputRef>,
    join_row: Option<Vec<f64>>,
    agg_row: Option<Vec<f64>>,
    out_rows: f64,
    out_bytes: f64,
    fingerprint: u64,
}

/// Builds the costed [`WorkloadPlan`] for a spec against ONE pinned
/// model snapshot — the logical layer's entry point.
///
/// Three passes:
///
/// 1. **Analyze** (sequential — later nodes need earlier nodes'
///    synthetic output statistics): resolve each statement's inputs,
///    run cardinality analysis, extract operator feature rows, and
///    register a synthetic catalog entry for each published output.
/// 2. **Batch-estimate**: all `(node, system)` feature rows go through
///    [`EstimatorService::estimate_batch_dedup_pinned`] grouped by
///    `(system, operator)` — one pinned snapshot, duplicate rows costed
///    once, results bit-identical to the per-row path.
/// 3. **Rank**: per node, enumerate placements against the augmented
///    catalog (intermediates located at their producer's greedy
///    engine), rank candidates through `cost_candidates`, pick the
///    greedy winner, and emit the same planner telemetry (counters +
///    ranking events) the single-query path emits.
///
/// Fails with the first node's [`PlanError`] — `Catalog` for unresolved
/// tables, `NoViablePlacement` when no system can cost a statement.
pub fn build_workload_pinned(
    catalog: &Catalog,
    service: &EstimatorService,
    snapshot: &ModelSnapshot,
    transfer_model: &TransferCostModel,
    spec: &WorkloadSpec,
    slots: &SlotMap,
) -> Result<WorkloadPlan, PlanError> {
    // When a request span is sampled on this thread, the whole build —
    // analysis, batched estimation, ranking — attributes to the
    // federation-placement stage, exactly like the per-query path did.
    let _placement = telemetry::span::time(telemetry::span::Stage::FederationPlacement);

    // Pass 1: sequential analysis with synthetic intermediates.
    let mut aug = catalog.clone();
    let mut outputs: BTreeMap<String, QueryId> = BTreeMap::new();
    let mut drafts: Vec<NodeDraft> = Vec::new();
    for (i, query) in spec.queries.iter().enumerate() {
        let mut inputs = Vec::new();
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        for (table, _) in query.plan.root.tables() {
            if let Some(producer) = outputs.get(&table) {
                fnv1a(&mut fp, b"q");
                fnv1a(&mut fp, &producer.0.to_le_bytes());
                inputs.push(InputRef::Intermediate {
                    producer: *producer,
                    table,
                });
            } else {
                let def = aug
                    .table(&table)
                    .map_err(|e| PlanError::Catalog(e.to_string()))?;
                fnv1a(&mut fp, b"b");
                fnv1a(&mut fp, table.as_bytes());
                inputs.push(InputRef::Base {
                    table: table.clone(),
                    location: def.location.clone(),
                    bytes: def.stats.total_bytes() as f64,
                });
            }
        }
        let analysis = analyze(&aug, &query.plan).map_err(|e| PlanError::Catalog(e.to_string()))?;
        let join_row = analysis
            .join
            .is_some()
            .then(|| join_features(&analysis).map(|f| f.to_vec()))
            .flatten();
        let agg_row = analysis
            .agg
            .is_some()
            .then(|| agg_features(&analysis).map(|f| f.to_vec()))
            .flatten();
        for row in join_row.iter().chain(agg_row.iter()) {
            for v in row {
                fnv1a(&mut fp, &v.to_bits().to_le_bytes());
            }
        }
        let out_rows = analysis.root.rows;
        let out_bytes = analysis.root.total_bytes();
        fnv1a(&mut fp, &out_rows.to_bits().to_le_bytes());
        fnv1a(&mut fp, &out_bytes.to_bits().to_le_bytes());
        if let Some(name) = &query.output {
            // Placeholder location; pass 3 re-registers at the greedy
            // engine once it is known. Statistics are what matter here.
            let def = synthetic_table_def(name, out_rows, out_bytes, &SystemId::master());
            aug.register_table(def).map_err(|e| {
                PlanError::Catalog(format!("duplicate workload output `{name}`: {e}"))
            })?;
            outputs.insert(name.clone(), QueryId(i));
        }
        drafts.push(NodeDraft {
            inputs,
            join_row,
            agg_row,
            out_rows,
            out_bytes,
            fingerprint: fp,
        });
    }

    // Pass 2: grouped batch estimation, one snapshot for everything.
    let systems: Vec<SystemId> = catalog.systems().map(|p| p.id.clone()).collect();
    let mut exec: Vec<BTreeMap<SystemId, f64>> = Vec::new();
    exec.resize_with(drafts.len(), BTreeMap::new);
    for system in &systems {
        for op in [OperatorKind::Join, OperatorKind::Aggregation] {
            let mut rows = Vec::new();
            let mut owners = Vec::new();
            for (i, draft) in drafts.iter().enumerate() {
                let row = match op {
                    OperatorKind::Join => draft.join_row.as_ref(),
                    _ => draft.agg_row.as_ref(),
                };
                if let Some(row) = row {
                    rows.push(row.clone());
                    owners.push(i);
                }
            }
            if rows.is_empty() {
                continue;
            }
            match service.estimate_batch_dedup_pinned(snapshot, system, op, &rows) {
                Ok(estimates) => {
                    for (i, est) in owners.iter().zip(estimates.iter()) {
                        if let Some(per_system) = exec.get_mut(*i) {
                            // NaN-poisoned entries stay poisoned: x + NaN
                            // is NaN, so a failed operator on this system
                            // keeps the node uncostable there.
                            *per_system.entry(system.clone()).or_insert(0.0) += est.secs;
                        }
                    }
                }
                // No model (or wrong arity) for this (system, op): every
                // node needing that operator is uncostable on the system —
                // the same skip the per-query path applies per candidate.
                Err(_) => {
                    for i in &owners {
                        if let Some(per_system) = exec.get_mut(*i) {
                            per_system.insert(system.clone(), f64::NAN);
                        }
                    }
                }
            }
        }
    }

    // Pass 3: enumerate, rank, and pick greedily per node.
    let mut aug2 = catalog.clone();
    let mut nodes = Vec::new();
    let mut assignment = Vec::new();
    let planner = &service.telemetry().planner;
    for (i, (query, draft)) in spec.queries.iter().zip(drafts).enumerate() {
        let options = enumerate_placements(&aug2, &query.plan)
            .map_err(|e| PlanError::Catalog(e.to_string()))?;
        let per_system = exec.get(i);
        let (candidates, skipped, _) = cost_candidates(options, transfer_model, |opt| {
            match per_system.and_then(|m| m.get(&opt.system)) {
                Some(secs) if secs.is_finite() => Ok(*secs),
                _ => Err(()),
            }
        });
        planner.plans.inc();
        planner.costed.add(candidates.len() as u64);
        planner.skipped.add(skipped);
        if candidates.is_empty() {
            return Err(PlanError::NoViablePlacement);
        }
        let report = PlanReport {
            candidates,
            epoch: Some(snapshot.epoch().get()),
        };
        report.emit_ranking(&service.telemetry().tracer);
        let greedy = report.best().option.system.clone();
        if let Some(name) = &query.output {
            let def = synthetic_table_def(name, draft.out_rows, draft.out_bytes, &greedy);
            aug2.register_table(def)
                .map_err(|e| PlanError::Catalog(e.to_string()))?;
        }
        assignment.push(greedy);
        nodes.push(WorkloadNode {
            id: QueryId(i),
            label: query.label.clone(),
            output: query.output.clone(),
            inputs: draft.inputs,
            candidates: report.candidates,
            skipped,
            out_rows: draft.out_rows,
            out_bytes: draft.out_bytes,
            fingerprint: draft.fingerprint,
        });
    }
    let merged_into = vec![None; nodes.len()];
    Ok(WorkloadPlan {
        nodes,
        assignment,
        merged_into,
        share_scans: false,
        slots: slots.clone(),
        transfer: *transfer_model,
        epoch: snapshot.epoch().get(),
    })
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
/// This is a *degenerate single-node workload*: the statement becomes a
/// [`WorkloadSpec::singleton`], [`build_workload_pinned`] costs its
/// candidates through the service's deduplicating batch path (bit-
/// identical to a per-candidate loop of pinned estimates —
/// proptest-enforced in `tests/it_workload_optimizer.rs`), and the
/// node's per-query greedy report is returned unchanged. One costing
/// path serves both single statements and whole workloads.
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
        // The report names the epoch it pinned; a publication in between
        // shows up as the next epoch and, models unchanged, the same ranking.
        let epoch = service.epoch().get();
        assert_eq!(report.epoch, Some(epoch));
        service.republish();
        let again = plan_query_with_service(&catalog, &service, &transfer, &join_plan()).unwrap();
        assert_eq!(again.epoch, Some(epoch + 1));
        assert_eq!(again.candidates, report.candidates);
    }

    #[test]
    fn fanout_planning_counts_plans_and_placements() {
        let (catalog, service) = setup();
        let transfer = TransferCostModel::default();
        for _ in 0..6 {
            plan_query_with_service(&catalog, &service, &transfer, &join_plan()).unwrap();
        }
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
