//! The rule-pass framework of the logical layer.
//!
//! Each rewrite rule is a pure function from plan to plan —
//! `fn(&WorkloadPlan) -> Option<WorkloadPlan>` — returning `Some` only
//! when it found a *strictly improving* rewrite under the shared
//! scheduling objective, and `None` at its local fixpoint. The driver
//! ([`optimize`]) applies the default pass list round-robin until every
//! rule returns `None` (with an iteration cap as a belt-and-braces
//! termination bound).
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

use crate::ir::{Objective, QueryId, WorkloadPlan};
use std::collections::BTreeMap;

/// Absolute epsilon for objective comparisons (seconds).
const EPS_SECS: f64 = 1e-9;

/// One rewrite rule: pure, returns `Some(improved)` or `None`.
pub type Rule = fn(&WorkloadPlan) -> Option<WorkloadPlan>;

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
    let mut current = plan.clone();
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
            if let Some(next) = (pass.rule)(&current) {
                trace.applications.push(RuleApplication {
                    rule: pass.name.to_string(),
                    before: current.objective(),
                    after: next.objective(),
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
    (current, trace)
}

/// Rule 1: queries reading the same table on the same engine share one
/// scan transfer. A single global rewrite — it flips the plan's
/// [`WorkloadPlan::share_scans`] mode, which the simulator implements by
/// charging each `(table, engine)` inbound transfer to its first reader
/// only.
pub(crate) fn shared_scan_dedup(plan: &WorkloadPlan) -> Option<WorkloadPlan> {
    if plan.share_scans {
        return None;
    }
    let mut candidate = plan.clone();
    candidate.share_scans = true;
    improves(&candidate.objective(), &plan.objective()).then_some(candidate)
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
pub(crate) fn reuse_intermediates(plan: &WorkloadPlan) -> Option<WorkloadPlan> {
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, node) in plan.nodes.iter().enumerate() {
        if plan.executes(QueryId(i)) {
            groups.entry(node.fingerprint).or_default().push(i);
        }
    }
    let before = plan.objective();
    for members in groups.values() {
        let (canonical, duplicates) = match members.split_first() {
            Some((c, rest)) if !rest.is_empty() => (*c, rest),
            _ => continue,
        };
        let mut candidate = plan.clone();
        for dup in duplicates {
            if let Some(slot) = candidate.merged_into.get_mut(*dup) {
                *slot = Some(QueryId(canonical));
            }
        }
        if improves(&candidate.objective(), &before) {
            return Some(candidate);
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
pub(crate) fn placement_pinning(plan: &WorkloadPlan) -> Option<WorkloadPlan> {
    let before = plan.objective();
    for (i, node) in plan.nodes.iter().enumerate() {
        let consumer = QueryId(i);
        if !plan.executes(consumer) {
            continue;
        }
        let consumer_engine = match plan.assignment.get(i) {
            Some(e) => e.clone(),
            None => continue,
        };
        for producer in node.producers() {
            let cp = plan.canonical(producer);
            let producer_engine = match plan.assignment.get(cp.0) {
                Some(e) => e.clone(),
                None => continue,
            };
            if producer_engine == consumer_engine {
                continue;
            }
            // Move the consumer to the producer…
            if node.exec_secs_on(&producer_engine).is_some() {
                let mut candidate = plan.clone();
                if let Some(slot) = candidate.assignment.get_mut(i) {
                    *slot = producer_engine.clone();
                }
                if improves(&candidate.objective(), &before) {
                    return Some(candidate);
                }
            }
            // …or the producer to the consumer.
            let producer_costed = plan
                .nodes
                .get(cp.0)
                .and_then(|n| n.exec_secs_on(&consumer_engine))
                .is_some();
            if producer_costed {
                let mut candidate = plan.clone();
                if let Some(slot) = candidate.assignment.get_mut(cp.0) {
                    *slot = consumer_engine.clone();
                }
                if improves(&candidate.objective(), &before) {
                    return Some(candidate);
                }
            }
        }
    }
    None
}
