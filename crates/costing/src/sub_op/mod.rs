//! Sub-operator costing (§4): open-box remotes.
//!
//! [`SubOpCosting`] bundles everything the costing profile stores for a
//! sub-op-costed system: the fitted per-sub-op models, the per-algorithm
//! cost formulas, the applicability rules, and the choice policy.

pub mod algorithms;
pub mod choice;
pub mod formula;
pub mod measurement;
pub mod models;
pub mod rules;
pub mod subop;

pub use choice::ChoicePolicy;
pub use formula::CostFormula;
pub(crate) use formula::FormulaContext;
pub use measurement::{ProbeObservation, SubOpMeasurement};
pub use models::{SubOpModelError, SubOpModels};
pub use rules::{ApplicabilityRule, RuleInputs};
pub use subop::{SubOp, SubOpCategory};

use crate::estimator::{CostEstimate, EstimateSource};
use catalog::remote::{AggInfo, JoinAlgorithm, JoinInfo};
use catalog::SystemKind;
use serde::{Deserialize, Serialize};

/// A complete sub-op costing unit for one remote system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubOpCosting {
    /// Engine family (selects formulas and rules).
    pub kind: SystemKind,
    /// Fitted per-sub-op models.
    pub models: SubOpModels,
    /// The applicability rules.
    pub rules: Vec<ApplicabilityRule>,
    /// Resolution policy when several algorithms stay applicable.
    pub policy: ChoicePolicy,
    /// DFS block size (expert knowledge; drives the `blocks(X)` terms).
    pub block_bytes: f64,
    /// Whether the engine is distributed (MR/Spark) or single-node.
    pub distributed: bool,
    /// Hash-aggregation spill threshold multiplier (the engine switches
    /// to sort aggregation past `factor × task budget`).
    pub agg_sort_switch_factor: f64,
}

impl SubOpCosting {
    /// Builds the costing unit for an engine family with default expert
    /// settings (32 MB Hive / 10 MB Spark broadcast thresholds).
    pub fn for_system(kind: SystemKind, models: SubOpModels, block_bytes: f64) -> Self {
        let broadcast_threshold = match kind {
            SystemKind::Hive => 32.0 * 1024.0 * 1024.0,
            SystemKind::Spark => 10.0 * 1024.0 * 1024.0,
            _ => f64::INFINITY,
        };
        let policy = match kind {
            // Paper: in-house comparable applies to RDBMS remotes.
            SystemKind::Rdbms | SystemKind::Teradata => ChoicePolicy::InHouseComparable,
            _ => ChoicePolicy::Average,
        };
        // The RDBMS hash-memory ceiling: the standard budget convention is
        // node_memory × 0.10 / cores, and the engine hash-joins while the
        // build side fits half of node memory — invert the convention.
        let rdbms_hash_memory = models.task_hash_budget_bytes * models.cores / 0.10 * 0.5;
        SubOpCosting {
            rules: rules::default_rules(kind, broadcast_threshold, rdbms_hash_memory),
            kind,
            models,
            policy,
            block_bytes,
            distributed: !matches!(kind, SystemKind::Rdbms | SystemKind::Teradata),
            agg_sort_switch_factor: 4.0,
        }
    }

    /// Builds the formula evaluation context for a join.
    fn join_ctx(&self, j: &JoinInfo) -> FormulaContext {
        FormulaContext {
            big_rows: j.big.rows,
            big_row_bytes: j.big.row_bytes,
            big_proj_bytes: j.big.proj_bytes,
            small_rows: j.small.rows,
            small_row_bytes: j.small.row_bytes,
            small_proj_bytes: j.small.proj_bytes,
            out_rows: j.out_rows,
            out_row_bytes: j.out_bytes,
            heavy_key_rows: j.heavy_key_rows,
            cores: self.models.cores,
            nodes: self.models.nodes,
            block_bytes: self.block_bytes,
            ..Default::default()
        }
    }

    /// Cost of a join under one specific algorithm (seconds).
    pub fn estimate_join_with(&self, algo: JoinAlgorithm, j: &JoinInfo) -> f64 {
        algorithms::join_formula(algo).evaluate(&self.models, &self.join_ctx(j))
    }

    /// Full §4 join estimation: apply the applicability rules, cost every
    /// surviving algorithm, resolve via the policy.
    pub fn estimate_join(&self, j: &JoinInfo, inputs: &RuleInputs) -> CostEstimate {
        let menu = algorithms::algorithms_for(self.kind);
        let surviving = rules::applicable_algorithms(&menu, &self.rules, inputs);
        let costs: Vec<f64> = surviving
            .iter()
            .map(|&a| self.estimate_join_with(a, j))
            .collect();
        if let ([cost], [algorithm]) = (costs.as_slice(), surviving.as_slice()) {
            CostEstimate::new(
                *cost,
                EstimateSource::SubOpFormula {
                    algorithm: *algorithm,
                },
            )
        } else {
            CostEstimate::new(
                self.policy.resolve(&costs),
                EstimateSource::SubOpPolicy {
                    policy: self.policy.name().to_string(),
                    candidates: surviving.len(),
                },
            )
        }
    }

    /// The algorithms that survive the rules (for reports).
    pub fn surviving_algorithms(&self, inputs: &RuleInputs) -> Vec<JoinAlgorithm> {
        rules::applicable_algorithms(&algorithms::algorithms_for(self.kind), &self.rules, inputs)
    }

    /// Aggregation estimation: the expert predicts hash vs sort from the
    /// group volume against the task budget (the same observable rule the
    /// engine itself uses).
    pub fn estimate_agg(&self, a: &AggInfo) -> CostEstimate {
        let ctx = FormulaContext {
            in_rows: a.in_rows,
            in_row_bytes: a.in_bytes,
            groups: a.groups,
            out_row_bytes: a.out_bytes,
            n_aggs: a.n_aggs as f64,
            cores: self.models.cores,
            nodes: self.models.nodes,
            block_bytes: self.block_bytes,
            ..Default::default()
        };
        let spills = a.groups * a.out_bytes
            > self.agg_sort_switch_factor * self.models.task_hash_budget_bytes;
        let formula = if spills {
            algorithms::agg_sort_formula(self.distributed)
        } else {
            algorithms::agg_hash_formula(self.distributed)
        };
        CostEstimate::new(
            formula.evaluate(&self.models, &ctx),
            EstimateSource::SubOpAggregation,
        )
    }

    /// `ORDER BY` estimation over an intermediate result.
    pub(crate) fn estimate_sort(&self, rows: f64, row_bytes: f64) -> CostEstimate {
        let ctx = FormulaContext {
            in_rows: rows,
            in_row_bytes: row_bytes,
            cores: self.models.cores,
            nodes: self.models.nodes,
            block_bytes: self.block_bytes,
            ..Default::default()
        };
        CostEstimate::new(
            algorithms::sort_formula(self.distributed).evaluate(&self.models, &ctx),
            EstimateSource::SubOpSort,
        )
    }

    /// Scan estimation.
    pub(crate) fn estimate_scan(
        &self,
        in_rows: f64,
        in_bytes: f64,
        out_rows: f64,
        out_bytes: f64,
    ) -> CostEstimate {
        let ctx = FormulaContext {
            in_rows,
            in_row_bytes: in_bytes,
            out_rows,
            out_row_bytes: out_bytes,
            cores: self.models.cores,
            nodes: self.models.nodes,
            block_bytes: self.block_bytes,
            ..Default::default()
        };
        CostEstimate::new(
            algorithms::scan_formula(self.distributed).evaluate(&self.models, &ctx),
            EstimateSource::SubOpScan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::remote::SideInfo;
    use remote_sim::ClusterEngine;
    use workload::probe_suite;

    fn costing() -> SubOpCosting {
        let mut e = ClusterEngine::paper_hive("hive", 5).without_noise();
        let m = SubOpMeasurement::run(&mut e, &probe_suite());
        let models = SubOpModels::fit(&m, 8.0 * 1024.0 * 1024.0 * 1024.0 * 0.10 / 2.0).unwrap();
        SubOpCosting::for_system(SystemKind::Hive, models, 32.0 * 1024.0 * 1024.0)
    }

    fn join_info() -> JoinInfo {
        JoinInfo {
            big: SideInfo {
                rows: 1e6,
                row_bytes: 250.0,
                proj_bytes: 8.0,
            },
            small: SideInfo {
                rows: 1e5,
                row_bytes: 100.0,
                proj_bytes: 8.0,
            },
            out_rows: 1e5,
            out_bytes: 8.0,
            heavy_key_rows: 1.0,
        }
    }

    fn rule_inputs(j: &JoinInfo) -> RuleInputs {
        RuleInputs {
            has_equi_keys: true,
            big_bucketed: false,
            small_bucketed: false,
            small_total_bytes: j.small.total_bytes(),
            big_total_bytes: j.big.total_bytes(),
            heavy_key_rows: j.heavy_key_rows,
            big_rows: j.big.rows,
        }
    }

    #[test]
    fn join_estimate_is_positive_and_finite() {
        let c = costing();
        let j = join_info();
        let e = c.estimate_join(&j, &rule_inputs(&j));
        assert!(e.secs.is_finite() && e.secs > 0.0, "estimate {}", e.secs);
    }

    #[test]
    fn small_build_side_survivors_include_broadcast() {
        let c = costing();
        let j = join_info(); // small side = 10 MB < 32 MB threshold
        let survivors = c.surviving_algorithms(&rule_inputs(&j));
        assert!(survivors.contains(&JoinAlgorithm::HiveBroadcastJoin));
        assert!(!survivors.contains(&JoinAlgorithm::HiveSortMergeBucketJoin));
    }

    #[test]
    fn estimate_tracks_input_scale() {
        let c = costing();
        let mut big = join_info();
        big.big.rows = 1e7;
        big.out_rows = 1e5;
        let small = join_info();
        let e_small = c.estimate_join(&small, &rule_inputs(&small)).secs;
        let e_big = c.estimate_join(&big, &rule_inputs(&big)).secs;
        assert!(e_big > e_small * 2.0, "small {e_small} big {e_big}");
    }

    #[test]
    fn policy_changes_resolution() {
        let mut c = costing();
        let j = join_info();
        let inputs = rule_inputs(&j);
        c.policy = ChoicePolicy::Worst;
        let worst = c.estimate_join(&j, &inputs).secs;
        c.policy = ChoicePolicy::InHouseComparable;
        let best = c.estimate_join(&j, &inputs).secs;
        assert!(worst >= best);
    }

    #[test]
    fn agg_estimate_switches_formula_on_group_volume() {
        let c = costing();
        let small = AggInfo {
            in_rows: 1e6,
            in_bytes: 250.0,
            groups: 1e3,
            out_bytes: 12.0,
            n_aggs: 1,
        };
        let e1 = c.estimate_agg(&small);
        assert!(e1.secs > 0.0);
        let huge = AggInfo {
            groups: 1e9,
            out_bytes: 100.0,
            ..small
        };
        let e2 = c.estimate_agg(&huge);
        assert!(e2.secs > e1.secs);
    }

    #[test]
    fn scan_estimate_positive() {
        let c = costing();
        let e = c.estimate_scan(1e6, 250.0, 1e5, 8.0);
        assert!(e.secs > 0.0);
        assert_eq!(e.source, EstimateSource::SubOpScan);
    }

    #[test]
    fn costing_profile_serializes() {
        let c = costing();
        let json = serde_json::to_string(&c).unwrap();
        let back: SubOpCosting = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
