//! The rule-pass framework of the logical layer.
//!
//! The driver ([`optimize`]) interns the plan once into a read-only
//! `PlanModel` and a writable `PlanState`, then applies the default pass
//! list round-robin over that state until no rule fires (with an
//! iteration cap as a belt-and-braces termination bound). A rule edits
//! the state in place: it applies a candidate rewrite, scores it with
//! the shared simulator, and either keeps it — returning the new
//! objective — or reverts it. No candidate copies the plan; the driver
//! clones the input plan once, at the end, and writes the state back.
//!
//! The acceptance contract all rules share, enforced by `improves`:
//! a rewrite is kept only if it lowers predicted makespan, or keeps
//! makespan (within epsilon) while lowering total predicted work. Since
//! every accepted step is non-increasing in makespan, the optimized
//! plan is *never worse than the greedy per-query baseline* by
//! construction — the bench's "never worse beyond noise" bar is a
//! property of the driver, not of luck.
//!
//! Shipped rules:
//!
//! * `shared_scan_dedup` — queries reading the same table on the same
//!   engine share one scan transfer.
//! * `reuse_intermediates` — a result computed by ≥ 2 equivalent
//!   nodes is computed once; the duplicates are served from the
//!   canonical node (costed once plus transfers).
//! * `placement_pinning` — co-locate a consumer with its producer (or
//!   vice versa) when the transfer saved exceeds the execution delta of
//!   moving, via the [`crate::transfer`] hop costs baked into the
//!   simulator.

use crate::ir::{Objective, PlanModel, PlanState, QueryId, SimScratch, WorkloadPlan};

/// Absolute epsilon for objective comparisons (seconds).
const EPS_SECS: f64 = 1e-9;

/// One rewrite rule. Given the state's current objective, it returns the
/// improved objective with the rewrite applied to the state, or `None`
/// with the state as it found it.
pub(crate) type Rule =
    fn(&PlanModel, &mut PlanState, &Objective, &mut SimScratch) -> Option<Objective>;

/// A named rule, for trace output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RulePass {
    /// The rule's name as reported in [`RuleTrace`].
    pub name: &'static str,
    /// The rewrite function.
    pub rule: Rule,
}

/// The shipped pass list, in application order.
pub(crate) fn default_rules() -> Vec<RulePass> {
    vec![
        RulePass {
            name: "shared_scan_dedup",
            rule: shared_scan_dedup,
        },
        RulePass {
            name: "reuse_intermediates",
            rule: reuse_intermediates,
        },
        RulePass {
            name: "placement_pinning",
            rule: placement_pinning,
        },
    ]
}

/// One accepted rewrite.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleApplication {
    /// Which rule fired.
    pub rule: String,
    /// Objective before the rewrite.
    pub before: Objective,
    /// Objective after the rewrite.
    pub after: Objective,
}

/// The fixpoint driver's decision trail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleTrace {
    /// Every accepted rewrite, in order.
    pub applications: Vec<RuleApplication>,
    /// Driver iterations (rule sweeps) consumed.
    pub iterations: usize,
}

impl RuleTrace {
    /// How many times a named rule fired.
    pub(crate) fn count_of(&self, rule: &str) -> usize {
        self.applications.iter().filter(|a| a.rule == rule).count()
    }
}

/// The acceptance predicate: lexicographic strict improvement on
/// (makespan, total work) with an epsilon guard, so fixpoint iteration
/// terminates and makespan never regresses.
pub(crate) fn improves(new: &Objective, old: &Objective) -> bool {
    if new.makespan_secs < old.makespan_secs - EPS_SECS {
        return true;
    }
    new.makespan_secs <= old.makespan_secs + EPS_SECS && new.total_secs < old.total_secs - EPS_SECS
}

/// Scores the candidate already applied to `state`: its objective when
/// it improves on `current`, else `None` (the caller reverts).
fn score(
    model: &PlanModel,
    state: &PlanState,
    current: &Objective,
    scratch: &mut SimScratch,
) -> Option<Objective> {
    let objective = model.objective(state, scratch);
    improves(&objective, current).then_some(objective)
}

/// Applies the default pass list to fixpoint.
///
/// Round-robin: after any rule fires, the sweep restarts from the first
/// rule (earlier rules may be enabled by later rewrites). Terminates
/// when a full sweep fires nothing, or at the iteration cap.
pub fn optimize(plan: &WorkloadPlan) -> (WorkloadPlan, RuleTrace) {
    optimize_with(plan, &default_rules())
}

/// [`optimize`] with an explicit pass list.
pub(crate) fn optimize_with(plan: &WorkloadPlan, rules: &[RulePass]) -> (WorkloadPlan, RuleTrace) {
    let (model, mut state) = PlanModel::intern(plan);
    let mut scratch = SimScratch::default();
    let mut current = model.objective(&state, &mut scratch);
    let mut trace = RuleTrace::default();
    // Every acceptance strictly shrinks the objective by ≥ EPS, so this
    // cap is never the binding constraint on sane inputs.
    let cap = 8 * (plan.nodes.len() + 1) * rules.len().max(1);
    loop {
        trace.iterations += 1;
        if trace.iterations > cap {
            break;
        }
        let mut fired = false;
        for pass in rules {
            if let Some(next) = (pass.rule)(&model, &mut state, &current, &mut scratch) {
                trace.applications.push(RuleApplication {
                    rule: pass.name.to_string(),
                    before: current,
                    after: next,
                });
                current = next;
                fired = true;
                break;
            }
        }
        if !fired {
            break;
        }
    }
    let mut optimized = plan.clone();
    model.write_back(state, &mut optimized);
    (optimized, trace)
}

/// Rule 1: queries reading the same table on the same engine share one
/// scan transfer. A single global rewrite — it sets the state's
/// shared-scan mode, which the simulator implements by charging each
/// `(table, engine)` inbound transfer to its first reader only.
fn shared_scan_dedup(
    model: &PlanModel,
    state: &mut PlanState,
    current: &Objective,
    scratch: &mut SimScratch,
) -> Option<Objective> {
    if state.share_scans {
        return None;
    }
    state.share_scans = true;
    let kept = score(model, state, current, scratch);
    state.share_scans = kept.is_some();
    kept
}

/// Rule 2: materialized-intermediate reuse. Nodes with identical
/// fingerprints (same resolved inputs, same operator features — the
/// same computation) are collapsed onto the lowest-index member: the
/// canonical node runs once, every duplicate is served from its result,
/// and consumers of a duplicate's output re-resolve to the canonical.
/// "Costed once plus transfers": consumers on other engines still pay
/// the result's movement, which the simulator charges dynamically.
///
/// One equivalence group is merged per invocation (the driver re-runs
/// to fixpoint), and only if the objective strictly improves.
fn reuse_intermediates(
    model: &PlanModel,
    state: &mut PlanState,
    current: &Objective,
    scratch: &mut SimScratch,
) -> Option<Objective> {
    let mut members = Vec::new();
    for group in model.fingerprint_groups() {
        members.clear();
        members.extend(
            group
                .iter()
                .copied()
                .filter(|&q| state.executes(QueryId(q))),
        );
        let Some((&canonical, duplicates)) = members.split_first() else {
            continue;
        };
        if duplicates.is_empty() {
            continue;
        }
        for dup in duplicates {
            if let Some(slot) = state.merged_into.get_mut(*dup) {
                *slot = Some(QueryId(canonical));
            }
        }
        if let Some(kept) = score(model, state, current, scratch) {
            return Some(kept);
        }
        // The duplicates executed before, so their entries were `None`.
        for dup in duplicates {
            if let Some(slot) = state.merged_into.get_mut(*dup) {
                *slot = None;
            }
        }
    }
    None
}

/// Rule 3: placement pinning. For every producer→consumer edge whose
/// endpoints sit on different engines, try co-locating: move the
/// consumer to the producer's engine, or the producer to the
/// consumer's. A move is only proposed onto engines the node has a
/// costed candidate for, and kept only when the transfer saved exceeds
/// the execution-cost delta — which is exactly what the objective
/// check computes from the hop costs.
fn placement_pinning(
    model: &PlanModel,
    state: &mut PlanState,
    current: &Objective,
    scratch: &mut SimScratch,
) -> Option<Objective> {
    for consumer in 0..model.nodes() {
        if !state.executes(QueryId(consumer)) {
            continue;
        }
        let Some(&consumer_engine) = state.assignment.get(consumer) else {
            continue;
        };
        for producer in model.producers(consumer) {
            let cp = state.canonical(producer).0;
            let Some(&producer_engine) = state.assignment.get(cp) else {
                continue;
            };
            if producer_engine == consumer_engine {
                continue;
            }
            // Move the consumer to the producer…
            if model.costed(consumer, producer_engine) {
                if let Some(kept) =
                    try_move(model, state, current, scratch, consumer, producer_engine)
                {
                    return Some(kept);
                }
            }
            // …or the producer to the consumer.
            if model.costed(cp, consumer_engine) {
                if let Some(kept) = try_move(model, state, current, scratch, cp, consumer_engine) {
                    return Some(kept);
                }
            }
        }
    }
    None
}

/// Moves node `q` to engine `to` and keeps the move if it improves,
/// else moves it back.
fn try_move(
    model: &PlanModel,
    state: &mut PlanState,
    current: &Objective,
    scratch: &mut SimScratch,
    q: usize,
    to: usize,
) -> Option<Objective> {
    let from = std::mem::replace(state.assignment.get_mut(q)?, to);
    let kept = score(model, state, current, scratch);
    if kept.is_none() {
        if let Some(slot) = state.assignment.get_mut(q) {
            *slot = from;
        }
    }
    kept
}
