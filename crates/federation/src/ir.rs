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
//!   flag.
//! * `PlanModel` / `PlanState` — the plan split in two for the search.
//!   The model is the half no rewrite touches, interned once per plan:
//!   engines as dense indices, a hop table over every engine pair, each
//!   node's execution seconds per engine, its inputs as base-table keys
//!   or producer indices, its output bytes and fingerprint. The state is
//!   the half the rules in [`crate::rules`] edit in place: an engine
//!   index per node, the merge map and the shared-scan flag.
//! * `PlanModel::simulate` — the deterministic capacity-slot list
//!   scheduler, run over a `PlanState` on reusable scratch. The rule
//!   objective and the physical layer ([`crate::schedule`], through
//!   `WorkloadPlan::simulate`) share this one body, so "does this
//!   rewrite help?" and "what will dispatch do?" can never disagree.
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
use sqlkit::analyze::analyze;
use sqlkit::logical::LogicalPlan;
use std::collections::BTreeMap;

/// Index of a query node inside its workload (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryId(pub usize);

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for QueryId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for QueryId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

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
    pub(crate) id: QueryId,
    /// The statement label.
    pub(crate) label: String,
    /// Published output name, if any.
    pub(crate) output: Option<String>,
    /// Resolved inputs, in the plan's table-reference order.
    pub(crate) inputs: Vec<InputRef>,
    /// Ranked placement candidates (cheapest first) — the per-query
    /// greedy view, identical to what [`crate::planner`] would report
    /// for the statement in isolation.
    pub candidates: Vec<PlacementCost>,
    /// Candidates skipped because no model could cost them.
    pub(crate) skipped: u64,
    /// Estimated output cardinality.
    pub(crate) out_rows: f64,
    /// Estimated output bytes (what consuming the result remotely moves).
    pub(crate) out_bytes: f64,
    /// Structural fingerprint: two nodes with equal fingerprints compute
    /// the same result from the same inputs (same resolved inputs, same
    /// operator features) and are mergeable by the reuse rule.
    pub(crate) fingerprint: u64,
}

/// Concurrency capacity for the slot scheduler: every engine runs up to
/// the same number of nodes at once.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMap {
    /// Slots per engine (min 1).
    pub(crate) per_engine: usize,
}

impl Default for SlotMap {
    fn default() -> Self {
        SlotMap { per_engine: 2 }
    }
}

impl SlotMap {
    /// `slots` per engine (at least one).
    pub fn uniform(slots: usize) -> Self {
        SlotMap {
            per_engine: slots.max(1),
        }
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
    pub(crate) slots: SlotMap,
    /// The transfer cost model (hop costs for dynamic re-costing).
    pub(crate) transfer: TransferCostModel,
    /// The pinned model-snapshot epoch every execution estimate in this
    /// plan was computed from.
    pub(crate) epoch: u64,
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

/// One scheduled task of the simulated dispatch. It runs on the
/// executing node's assigned engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimTask {
    /// The executing node.
    pub(crate) query: QueryId,
    /// Execution component, seconds.
    pub(crate) exec_secs: f64,
    /// Inbound transfer component (after any shared-scan dedup), seconds.
    pub(crate) transfer_secs: f64,
    /// Simulated start time, seconds from workload start.
    pub(crate) start_secs: f64,
    /// Simulated finish time.
    pub(crate) finish_secs: f64,
    /// Dependency depth (0 = no intermediate inputs) — the wave the
    /// physical layer dispatches the task in.
    pub(crate) wave: usize,
}

/// The totals of one simulated plan state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimTotals {
    /// Predicted makespan, seconds.
    pub(crate) makespan_secs: f64,
    /// Sum of task durations, seconds.
    pub(crate) total_secs: f64,
    /// Transfer seconds removed by shared-scan dedup.
    pub(crate) shared_scan_secs_saved: f64,
    /// Count of deduplicated scan transfers.
    pub(crate) shared_scan_hits: u64,
    /// Number of dispatch waves (max depth + 1; 0 when nothing runs).
    pub(crate) waves: usize,
}

/// The deterministic slot-scheduler outcome for one plan state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimSchedule {
    /// Scheduled tasks in node-index order (merged nodes absent).
    pub(crate) tasks: Vec<SimTask>,
    /// What the whole schedule adds up to.
    pub(crate) totals: SimTotals,
}

/// Resolves a node through a duplicate-merge map.
fn canonical_in(merged_into: &[Option<QueryId>], q: QueryId) -> QueryId {
    merged_into.get(q.0).copied().flatten().unwrap_or(q)
}

/// Whether a node is dispatched under a duplicate-merge map (not merged
/// away).
fn executes_in(merged_into: &[Option<QueryId>], q: QueryId) -> bool {
    matches!(merged_into.get(q.0), Some(None))
}

impl WorkloadPlan {
    /// Resolves a node through the duplicate-merge map.
    pub(crate) fn canonical(&self, q: QueryId) -> QueryId {
        canonical_in(&self.merged_into, q)
    }

    /// Whether a node is actually dispatched (not merged away).
    pub(crate) fn executes(&self, q: QueryId) -> bool {
        executes_in(&self.merged_into, q)
    }

    /// The engine serving a node's result (its canonical's assignment).
    pub(crate) fn engine_of(&self, q: QueryId) -> Option<&SystemId> {
        self.assignment.get(self.canonical(q).0)
    }

    /// Runs the slot scheduler ([`PlanModel::simulate`]) over the
    /// current plan state and collects every task.
    pub(crate) fn simulate(&self) -> SimSchedule {
        let (model, state) = PlanModel::intern(self);
        let mut tasks = Vec::new();
        let totals = model.simulate(&state, &mut SimScratch::default(), |task| tasks.push(task));
        SimSchedule { tasks, totals }
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

/// One input of an interned node.
#[derive(Debug, Clone, Copy)]
enum Input {
    /// A catalog base table.
    Base {
        /// The table's scan key (dense over the plan's base tables).
        key: usize,
        /// The owning engine.
        engine: usize,
        /// Stored bytes.
        bytes: f64,
    },
    /// The output of an earlier node, resolved through the merge map
    /// when simulated.
    Produced(QueryId),
}

/// The half of a [`WorkloadPlan`] no rewrite touches, interned once per
/// plan so the simulator reads indices and flat tables instead of
/// strings and maps.
#[derive(Debug)]
pub(crate) struct PlanModel {
    /// Engine index → id: every engine a node was costed on, a base
    /// table lives on, or the plan assigns.
    engines: Vec<SystemId>,
    /// QueryGrid hops from engine `a` to engine `b`, at `a * E + b`.
    hops: Vec<u32>,
    /// Engine `e`'s capacity slots are `slots[e * S..(e + 1) * S]`.
    slots_per_engine: usize,
    /// Node `q`'s execution seconds on engine `e`, at `q * E + e`: the
    /// first candidate on that engine, `None` where none was costed.
    exec: Vec<Option<f64>>,
    /// Every node's inputs, back to back.
    inputs: Vec<Input>,
    /// Node `q`'s inputs are `inputs[start..end]`.
    input_spans: Vec<(usize, usize)>,
    /// Estimated output bytes per node.
    out_bytes: Vec<f64>,
    /// Nodes sharing a fingerprint, groups of two or more only, in
    /// fingerprint order with members in index order.
    fingerprint_groups: Vec<Vec<usize>>,
    /// Distinct base tables: scan keys below this are tables, a node
    /// `q`'s output scans under key `base_tables + q`.
    base_tables: usize,
    /// Hop costs.
    transfer: TransferCostModel,
}

/// The half of a [`WorkloadPlan`] the rules rewrite, in place.
#[derive(Debug)]
pub(crate) struct PlanState {
    /// Engine index (into the model's engines) per node.
    pub(crate) assignment: Vec<usize>,
    /// As [`WorkloadPlan::merged_into`].
    pub(crate) merged_into: Vec<Option<QueryId>>,
    /// As [`WorkloadPlan::share_scans`].
    pub(crate) share_scans: bool,
}

impl PlanState {
    /// Resolves a node through the duplicate-merge map.
    pub(crate) fn canonical(&self, q: QueryId) -> QueryId {
        canonical_in(&self.merged_into, q)
    }

    /// Whether a node is dispatched (not merged away).
    pub(crate) fn executes(&self, q: QueryId) -> bool {
        executes_in(&self.merged_into, q)
    }
}

/// Reusable simulator scratch, sized and cleared by every run.
#[derive(Debug, Default)]
pub(crate) struct SimScratch {
    /// Finish time per node (a merged node's is its canonical's).
    finish: Vec<f64>,
    /// Dependency depth per node.
    depths: Vec<usize>,
    /// Every engine's slot free-times, back to back.
    slots: Vec<f64>,
    /// Bitset of `(scan key, engine)` transfers already paid.
    seen: Vec<u64>,
}

impl SimScratch {
    fn reset(&mut self, nodes: usize, slots: usize, scan_bits: usize) {
        refill(&mut self.finish, nodes, 0.0);
        refill(&mut self.depths, nodes, 0);
        refill(&mut self.slots, slots, 0.0);
        refill(&mut self.seen, scan_bits.div_ceil(64), 0);
    }

    /// Marks a `(scan key, engine)` bit; `true` if it was clear.
    fn first_scan(&mut self, bit: usize) -> bool {
        match self.seen.get_mut(bit / 64) {
            Some(word) => {
                let mask = 1u64 << (bit % 64);
                let first = *word & mask == 0;
                *word |= mask;
                first
            }
            None => true,
        }
    }
}

fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// The dense index of `id` in `engines`, appending it when new.
fn intern_engine(engines: &mut Vec<SystemId>, id: &SystemId) -> usize {
    match engines.iter().position(|e| e == id) {
        Some(i) => i,
        None => {
            engines.push(id.clone());
            engines.len() - 1
        }
    }
}

impl PlanModel {
    /// Splits `plan` into its interned read-only model and its writable
    /// state.
    pub(crate) fn intern(plan: &WorkloadPlan) -> (PlanModel, PlanState) {
        let mut engines = Vec::new();
        for node in &plan.nodes {
            for c in &node.candidates {
                intern_engine(&mut engines, &c.option.system);
            }
            for input in &node.inputs {
                if let InputRef::Base { location, .. } = input {
                    intern_engine(&mut engines, location);
                }
            }
        }
        let assignment = plan
            .assignment
            .iter()
            .map(|s| intern_engine(&mut engines, s))
            .collect();
        let e_count = engines.len();

        let hops = engines
            .iter()
            .flat_map(|from| engines.iter().map(move |to| hops_between(from, to)))
            .collect();

        let mut exec = vec![None; plan.nodes.len() * e_count];
        let mut tables: BTreeMap<&str, usize> = BTreeMap::new();
        let mut inputs = Vec::new();
        let mut input_spans = Vec::with_capacity(plan.nodes.len());
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (q, node) in plan.nodes.iter().enumerate() {
            for c in &node.candidates {
                let e = intern_engine(&mut engines, &c.option.system);
                if let Some(slot) = exec.get_mut(q * e_count + e) {
                    slot.get_or_insert(c.execution_secs);
                }
            }
            let start = inputs.len();
            for input in &node.inputs {
                inputs.push(match input {
                    InputRef::Base {
                        table,
                        location,
                        bytes,
                    } => {
                        let next = tables.len();
                        Input::Base {
                            key: *tables.entry(table.as_str()).or_insert(next),
                            engine: intern_engine(&mut engines, location),
                            bytes: *bytes,
                        }
                    }
                    InputRef::Intermediate { producer, .. } => Input::Produced(*producer),
                });
            }
            input_spans.push((start, inputs.len()));
            groups.entry(node.fingerprint).or_default().push(q);
        }

        let model = PlanModel {
            engines,
            hops,
            slots_per_engine: plan.slots.per_engine,
            exec,
            inputs,
            input_spans,
            out_bytes: plan.nodes.iter().map(|n| n.out_bytes).collect(),
            fingerprint_groups: groups.into_values().filter(|g| g.len() > 1).collect(),
            base_tables: tables.len(),
            transfer: plan.transfer,
        };
        let state = PlanState {
            assignment,
            merged_into: plan.merged_into.clone(),
            share_scans: plan.share_scans,
        };
        (model, state)
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.input_spans.len()
    }

    fn inputs_of(&self, q: usize) -> &[Input] {
        self.input_spans
            .get(q)
            .and_then(|&(start, end)| self.inputs.get(start..end))
            .unwrap_or_default()
    }

    /// Producers of node `q`'s intermediate inputs, in input order.
    pub(crate) fn producers(&self, q: usize) -> impl Iterator<Item = QueryId> + '_ {
        self.inputs_of(q).iter().filter_map(|input| match input {
            Input::Produced(p) => Some(*p),
            Input::Base { .. } => None,
        })
    }

    /// Whether node `q` has a costed candidate on engine `e`.
    pub(crate) fn costed(&self, q: usize, e: usize) -> bool {
        self.exec
            .get(q * self.engines.len() + e)
            .is_some_and(Option::is_some)
    }

    /// Groups of two or more nodes computing the same result.
    pub(crate) fn fingerprint_groups(&self) -> &[Vec<usize>] {
        &self.fingerprint_groups
    }

    /// Writes `state` back into `plan` (the plan it was interned from).
    pub(crate) fn write_back(&self, state: PlanState, plan: &mut WorkloadPlan) {
        for (slot, e) in plan.assignment.iter_mut().zip(&state.assignment) {
            if let Some(system) = self.engines.get(*e) {
                if slot != system {
                    *slot = system.clone();
                }
            }
        }
        plan.merged_into = state.merged_into;
        plan.share_scans = state.share_scans;
    }

    /// The scheduling objective of `state`.
    pub(crate) fn objective(&self, state: &PlanState, scratch: &mut SimScratch) -> Objective {
        let totals = self.simulate(state, scratch, |_| {});
        Objective {
            makespan_secs: totals.makespan_secs,
            total_secs: totals.total_secs,
        }
    }

    /// Runs the deterministic capacity-slot list scheduler over `state`,
    /// handing each task to `emit` as it is placed.
    ///
    /// Tasks are placed in node-index order (a topological order by
    /// construction): each executing node starts when its producers have
    /// finished *and* a slot on its engine frees up, and runs for its
    /// execution estimate plus its inbound transfer costs. With
    /// `share_scans` set, repeated `(table, engine)` transfers are paid
    /// by the first reader only. Pure arithmetic on predicted costs — no
    /// wall clock — so identical states always simulate identically.
    pub(crate) fn simulate(
        &self,
        state: &PlanState,
        scratch: &mut SimScratch,
        mut emit: impl FnMut(SimTask),
    ) -> SimTotals {
        let e_count = self.engines.len();
        scratch.reset(
            self.nodes(),
            e_count * self.slots_per_engine,
            (self.base_tables + self.nodes()) * e_count,
        );
        let mut makespan: f64 = 0.0;
        let mut total: f64 = 0.0;
        let mut saved: f64 = 0.0;
        let mut hits: u64 = 0;
        let mut waves: usize = 0;

        for i in 0..self.nodes() {
            let q = QueryId(i);
            let inputs = self.inputs_of(i);
            // Depth: 0 without intermediate inputs, else 1 + the deepest
            // canonical producer.
            let mut depth = 0usize;
            for p in self.producers(i) {
                if let Some(pd) = scratch.depths.get(state.canonical(p).0) {
                    depth = depth.max(pd + 1);
                }
            }
            if let Some(slot) = scratch.depths.get_mut(i) {
                *slot = depth;
            }
            if !state.executes(q) {
                // Merged: the result is the canonical's; it finishes when
                // the canonical does.
                let f = scratch
                    .finish
                    .get(state.canonical(q).0)
                    .copied()
                    .unwrap_or(0.0);
                if let Some(slot) = scratch.finish.get_mut(i) {
                    *slot = f;
                }
                continue;
            }
            let Some(&system) = state.assignment.get(i) else {
                continue;
            };
            let exec_secs = self
                .exec
                .get(i * e_count + system)
                .copied()
                .flatten()
                .unwrap_or(0.0);
            let mut transfer_secs = 0.0;
            let mut ready = 0.0f64;
            for input in inputs {
                let (key, from, bytes) = match *input {
                    Input::Base { key, engine, bytes } => (key, engine, bytes),
                    Input::Produced(producer) => {
                        let cp = state.canonical(producer).0;
                        ready = ready.max(scratch.finish.get(cp).copied().unwrap_or(0.0));
                        let Some(&from) = state.assignment.get(cp) else {
                            continue;
                        };
                        let bytes = self.out_bytes.get(cp).copied().unwrap_or(0.0);
                        (self.base_tables + cp, from, bytes)
                    }
                };
                if from == system {
                    continue;
                }
                let hops = self.hops.get(from * e_count + system).copied().unwrap_or(0);
                let cost = self.transfer.transfer_secs(bytes, hops);
                if state.share_scans && !scratch.first_scan(key * e_count + system) {
                    saved += cost;
                    hits += 1;
                    continue;
                }
                transfer_secs += cost;
            }
            let transfer_secs = transfer_secs + 0.0; // normalise -0.0
            let duration = exec_secs + transfer_secs;
            let per = self.slots_per_engine;
            let slot = scratch
                .slots
                .get_mut(system * per..(system + 1) * per)
                .and_then(|slots| slots.iter_mut().min_by(|a, b| mathkit::total_cmp_f64(a, b)));
            let start = match slot {
                Some(slot) => {
                    let start = ready.max(*slot);
                    *slot = start + duration;
                    start
                }
                None => ready,
            };
            let end = start + duration;
            if let Some(slot) = scratch.finish.get_mut(i) {
                *slot = end;
            }
            makespan = makespan.max(end);
            total += duration;
            waves = waves.max(depth + 1);
            emit(SimTask {
                query: q,
                exec_secs,
                transfer_secs,
                start_secs: start,
                finish_secs: end,
                wave: depth,
            });
        }
        SimTotals {
            makespan_secs: makespan,
            total_secs: total,
            shared_scan_secs_saved: saved,
            shared_scan_hits: hits,
            waves,
        }
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
/// `federation_placements_skipped_total` counters. The ranking itself is
/// the returned [`PlanReport::candidates`], cheapest first.
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

    /// One task of the reference schedule.
    struct RefTask {
        query: QueryId,
        system: SystemId,
        exec_secs: f64,
        transfer_secs: f64,
        start_secs: f64,
        finish_secs: f64,
        wave: usize,
    }

    /// The reference schedule: tasks and `[makespan, total, saved]`,
    /// hits and waves.
    struct RefSchedule {
        tasks: Vec<RefTask>,
        secs: [f64; 3],
        hits: u64,
        waves: usize,
    }

    /// The `String`-keyed slot scheduler the interned simulator replaced,
    /// kept as its oracle: `format!` scan keys, `SystemId` engines,
    /// `BTreeMap` slots and a `BTreeSet` of paid transfers, and each
    /// node's execution seconds looked up by candidate search.
    fn reference_simulate(plan: &WorkloadPlan) -> RefSchedule {
        use std::collections::BTreeSet;
        let mut depths = vec![0usize; plan.nodes.len()];
        for (i, node) in plan.nodes.iter().enumerate() {
            let mut d = 0usize;
            for input in &node.inputs {
                if let InputRef::Intermediate { producer, .. } = input {
                    if let Some(pd) = depths.get(plan.canonical(*producer).0) {
                        d = d.max(pd + 1);
                    }
                }
            }
            depths[i] = d;
        }
        let mut slots: BTreeMap<SystemId, Vec<f64>> = BTreeMap::new();
        let mut finish: Vec<f64> = vec![0.0; plan.nodes.len()];
        let mut seen: BTreeSet<(String, SystemId)> = BTreeSet::new();
        let mut tasks = Vec::new();
        let mut makespan: f64 = 0.0;
        let mut total: f64 = 0.0;
        let mut saved: f64 = 0.0;
        let mut hits: u64 = 0;
        let mut waves: usize = 0;

        for (i, node) in plan.nodes.iter().enumerate() {
            let q = QueryId(i);
            if !plan.executes(q) {
                finish[i] = finish.get(plan.canonical(q).0).copied().unwrap_or(0.0);
                continue;
            }
            let system = match plan.assignment.get(i) {
                Some(s) => s.clone(),
                None => continue,
            };
            let exec_secs = node
                .candidates
                .iter()
                .find(|c| c.option.system == system)
                .map_or(0.0, |c| c.execution_secs);
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
                        let cp = plan.canonical(*producer);
                        ready = ready.max(finish.get(cp.0).copied().unwrap_or(0.0));
                        let from = match plan.assignment.get(cp.0) {
                            Some(s) => s.clone(),
                            None => continue,
                        };
                        let bytes = plan.nodes.get(cp.0).map(|n| n.out_bytes).unwrap_or(0.0);
                        (format!("q:{}", cp.0), from, bytes)
                    }
                };
                if from == system {
                    continue;
                }
                let cost = plan
                    .transfer
                    .transfer_secs(bytes, hops_between(&from, &system));
                if plan.share_scans && !seen.insert((key, system.clone())) {
                    saved += cost;
                    hits += 1;
                    continue;
                }
                transfer_secs += cost;
            }
            let transfer_secs = transfer_secs + 0.0;
            let duration = exec_secs + transfer_secs;
            let engine_slots = slots
                .entry(system.clone())
                .or_insert_with(|| vec![0.0; plan.slots.per_engine]);
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
            finish[i] = end;
            makespan = makespan.max(end);
            total += duration;
            let wave = depths[i];
            waves = waves.max(wave + 1);
            tasks.push(RefTask {
                query: q,
                system,
                exec_secs,
                transfer_secs,
                start_secs: start,
                finish_secs: end,
                wave,
            });
        }
        RefSchedule {
            tasks,
            secs: [makespan, total, saved],
            hits,
            waves,
        }
    }

    /// splitmix64: a seeded generator with no dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A greedy plan for a seeded `workload::dag_workload` DAG over the
    /// master and `engines - 1` Hive remotes, base tables round-robin on
    /// the remotes, each engine with its own cost scale.
    fn dag_plan(queries: usize, engines: usize, seed: u64) -> WorkloadPlan {
        use workload::{build_table, dag_base_tables, dag_workload, DagConfig};
        let dag = DagConfig {
            queries,
            reuse: 0.5,
            seed,
            ..DagConfig::default()
        };
        let mut catalog = Catalog::new();
        catalog
            .register_system(RemoteSystemProfile::new(
                SystemId::master(),
                catalog::SystemKind::Teradata,
                1,
                32,
                1 << 38,
                vec![catalog::Capability::Join, catalog::Capability::Aggregate],
            ))
            .unwrap();
        let remotes: Vec<SystemId> = (1..engines)
            .map(|i| SystemId::new(&format!("hive-w{i}")))
            .collect();
        for id in &remotes {
            catalog
                .register_system(RemoteSystemProfile::paper_hive_cluster(id.as_str()))
                .unwrap();
        }
        for (i, spec) in dag_base_tables(&dag).iter().enumerate() {
            let mut def = build_table(spec);
            def.location = remotes[i % remotes.len()].clone();
            catalog.register_table(def).unwrap();
        }
        // Three cost scales, trained once for every plan.
        static FLOWS: std::sync::OnceLock<Vec<(LogicalOpCosting, LogicalOpCosting)>> =
            std::sync::OnceLock::new();
        let trained = FLOWS.get_or_init(|| [0.8, 1.4, 2.0].map(flows).to_vec());
        let service = EstimatorService::default();
        for (i, id) in std::iter::once(SystemId::master())
            .chain(remotes)
            .enumerate()
        {
            let (j, a) = trained[i % trained.len()].clone();
            service.register(id.clone(), j);
            service.register(id, a);
        }
        let mut spec = WorkloadSpec::default();
        for stmt in dag_workload(&dag) {
            spec.push_sql(&stmt.label, &stmt.sql, stmt.output.as_deref())
                .unwrap();
        }
        build_workload_pinned(
            &catalog,
            &service,
            &service.snapshot(),
            &TransferCostModel::default(),
            &spec,
            &SlotMap::uniform(1 + seed as usize % 2),
        )
        .unwrap()
    }

    /// A random state of `plan`: a random costed engine per node, random
    /// merges of later members onto a random member of each fingerprint
    /// group, and shared scans on or off.
    fn randomize(plan: &mut WorkloadPlan, rng: &mut SplitMix) {
        for (node, slot) in plan.nodes.iter().zip(plan.assignment.iter_mut()) {
            let pick = rng.below(node.candidates.len());
            *slot = node.candidates[pick].option.system.clone();
        }
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (q, node) in plan.nodes.iter().enumerate() {
            groups.entry(node.fingerprint).or_default().push(q);
        }
        plan.merged_into = vec![None; plan.nodes.len()];
        for members in groups.values() {
            let canonical = members[rng.below(members.len())];
            for &m in members.iter().filter(|&&m| m > canonical) {
                if rng.below(2) == 0 {
                    plan.merged_into[m] = Some(QueryId(canonical));
                }
            }
        }
        plan.share_scans = rng.below(2) == 0;
    }

    #[test]
    fn interned_simulator_equals_the_string_keyed_reference_to_the_bit() {
        let mut rng = SplitMix(0x5eed);
        let mut scratch = SimScratch::default();
        for (queries, engines, seed) in [
            (8, 2, 1),
            (8, 3, 2),
            (8, 5, 3),
            (48, 2, 4),
            (48, 3, 5),
            (48, 5, 6),
        ] {
            let mut plan = dag_plan(queries, engines, seed);
            for round in 0..200 {
                // Round 0 is the greedy plan as built.
                if round > 0 {
                    randomize(&mut plan, &mut rng);
                }
                let want = reference_simulate(&plan);
                let got = plan.simulate();
                let case = format!("{queries} statements, {engines} engines, round {round}");
                let totals = &got.totals;
                for (name, g, w) in [
                    ("makespan", totals.makespan_secs, want.secs[0]),
                    ("total", totals.total_secs, want.secs[1]),
                    ("saved", totals.shared_scan_secs_saved, want.secs[2]),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{case}: {name} {g} vs {w}");
                }
                assert_eq!(totals.shared_scan_hits, want.hits, "{case}: hits");
                assert_eq!(totals.waves, want.waves, "{case}: waves");
                assert_eq!(got.tasks.len(), want.tasks.len(), "{case}: task count");
                for (g, w) in got.tasks.iter().zip(&want.tasks) {
                    assert_eq!(g.query, w.query, "{case}");
                    assert_eq!(plan.assignment.get(g.query.0), Some(&w.system), "{case}");
                    assert_eq!(g.wave, w.wave, "{case}: {:?} wave", g.query);
                    for (name, gv, wv) in [
                        ("exec", g.exec_secs, w.exec_secs),
                        ("transfer", g.transfer_secs, w.transfer_secs),
                        ("start", g.start_secs, w.start_secs),
                        ("finish", g.finish_secs, w.finish_secs),
                    ] {
                        assert_eq!(gv.to_bits(), wv.to_bits(), "{case}: {:?} {name}", g.query);
                    }
                }
                // The rules' path: one scratch reused across every state.
                let (model, state) = PlanModel::intern(&plan);
                let objective = model.objective(&state, &mut scratch);
                assert_eq!(objective.makespan_secs.to_bits(), want.secs[0].to_bits());
                assert_eq!(objective.total_secs.to_bits(), want.secs[1].to_bits());
            }
        }
    }

    #[test]
    fn write_back_restores_the_interned_plan() {
        let mut plan = dag_plan(48, 5, 7);
        randomize(&mut plan, &mut SplitMix(9));
        let (model, state) = PlanModel::intern(&plan);
        let mut copy = plan.clone();
        copy.assignment.reverse();
        copy.merged_into = vec![None; plan.nodes.len()];
        copy.share_scans = !plan.share_scans;
        model.write_back(state, &mut copy);
        assert_eq!(copy, plan);
    }
}
