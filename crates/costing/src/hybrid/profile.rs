//! The Costing Profile (CP).
//!
//! Fig. 9: "each remote system has a costing profile (CP) containing all
//! needed details based on its costing model. For example, for the sub-op
//! costing, it includes a list of the sub-ops, a list of the physical
//! algorithms for each logical operator, the costing formula of each
//! algorithm, and the applicability rules … For the logical-op costing,
//! it includes the neural network model for each operator, the metadata
//! information of the training dataset, plus other information."
//!
//! The profile also implements the paper's planned extension ("the hybrid
//! approach is also applicable within a single system … some operators
//! can be trained using the logical-op approach, while other operators
//! such as joins can be trained using the sub-op approach") via
//! per-operator overrides, and the Fig. 9 timed switch
//! (`sub-op costing [0…t1], logical-op costing [t1…]`).

use crate::{
    estimator::{CostEstimate, OperatorKind},
    features::{agg_features, join_features},
    logical_op::flow::LogicalOpCosting,
    sub_op::{RuleInputs, SubOpCosting},
};
use catalog::{SystemId, SystemKind};
use serde::{Deserialize, Serialize};
use sqlkit::analyze::QueryAnalysis;
use std::collections::BTreeMap;

/// Logical-op models per operator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LogicalOpSuite {
    /// The join model (7 dims).
    pub join: Option<LogicalOpCosting>,
    /// The aggregation model (4 dims).
    pub aggregation: Option<LogicalOpCosting>,
}

/// One costing approach, as stored in a profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[expect(
    clippy::large_enum_variant,
    reason = "a profile holds one approach for its lifetime; boxing the large variant buys nothing"
)]
pub enum CostingApproach {
    /// Sub-operator costing (open box).
    SubOp(SubOpCosting),
    /// Logical-operator costing (black box).
    LogicalOp(LogicalOpSuite),
    /// Fig. 9's system C: one approach until `switch_after_estimates`
    /// cost estimates have been served, then another ("an approximate
    /// sub-op costing can be applied to C … until the more extensive
    /// training for the logical-op costing is performed").
    Timed {
        /// Approach used first.
        before: Box<CostingApproach>,
        /// Approach used after the switch.
        after: Box<CostingApproach>,
        /// Estimate count at which to switch.
        switch_after_estimates: u64,
    },
}

/// Costing failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CostingError {
    /// The query has no costable operator of the requested kind.
    NoOperator(OperatorKind),
    /// Logical-op costing was selected but no model is trained for the
    /// operator.
    ModelMissing(OperatorKind),
    /// No profile registered for the system.
    UnknownSystem(SystemId),
}

impl std::fmt::Display for CostingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostingError::NoOperator(k) => write!(f, "query has no {k} operator"),
            CostingError::ModelMissing(k) => write!(f, "no trained logical-op model for {k}"),
            CostingError::UnknownSystem(s) => write!(f, "no costing profile for system `{s}`"),
        }
    }
}

impl std::error::Error for CostingError {}

/// Per-operator estimates for one query, plus the total.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    /// Each costed operator with its estimate.
    pub operators: Vec<(OperatorKind, CostEstimate)>,
    /// Sum of operator estimates (seconds).
    pub total_secs: f64,
}

/// A remote system's costing profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostingProfile {
    /// The system this profile costs.
    pub system: SystemId,
    /// Engine family.
    pub kind: SystemKind,
    /// The default approach.
    pub approach: CostingApproach,
    /// Per-operator overrides (the §5 within-one-system extension).
    pub overrides: BTreeMap<OperatorKind, CostingApproach>,
    /// Estimates served so far (drives timed switching).
    pub estimates_made: u64,
}

impl CostingProfile {
    /// Creates a profile with one approach for everything.
    pub fn new(system: SystemId, kind: SystemKind, approach: CostingApproach) -> Self {
        CostingProfile {
            system,
            kind,
            approach,
            overrides: BTreeMap::new(),
            estimates_made: 0,
        }
    }

    /// Costs every costable operator in an analysed query.
    pub fn estimate_query(&mut self, analysis: &QueryAnalysis) -> Result<QueryCost, CostingError> {
        let mut operators = Vec::new();
        if analysis.join.is_some() {
            operators.push((
                OperatorKind::Join,
                self.estimate_operator(OperatorKind::Join, analysis)?,
            ));
        }
        if analysis.agg.is_some() {
            operators.push((
                OperatorKind::Aggregation,
                self.estimate_operator(OperatorKind::Aggregation, analysis)?,
            ));
        }
        if operators.is_empty() {
            operators.push((
                OperatorKind::Scan,
                self.estimate_operator(OperatorKind::Scan, analysis)?,
            ));
        }
        if analysis.sort_in.is_some() {
            // Sub-op profiles price the ORDER BY pass explicitly; black-box
            // logical-op profiles have no sort model (their grids measure
            // whole logical operators), so a missing model means the sort
            // is treated as absorbed into the operator estimate rather
            // than failing the query.
            match self.estimate_operator(OperatorKind::Sort, analysis) {
                Ok(est) => operators.push((OperatorKind::Sort, est)),
                Err(CostingError::ModelMissing(OperatorKind::Sort)) => {}
                Err(e) => return Err(e),
            }
        }
        let total_secs = operators.iter().map(|(_, e)| e.secs).sum();
        Ok(QueryCost {
            operators,
            total_secs,
        })
    }

    /// Costs one operator of the query.
    pub fn estimate_operator(
        &mut self,
        op: OperatorKind,
        analysis: &QueryAnalysis,
    ) -> Result<CostEstimate, CostingError> {
        self.estimates_made += 1;
        let approach = self.overrides.get(&op).unwrap_or(&self.approach);
        estimate_with(approach, op, analysis, self.estimates_made)
    }

    /// Routes an observed actual execution back into the logical-op
    /// machinery (log + α tuning). Sub-op approaches ignore observations
    /// ("model continuous tuning … less critical because extrapolation is
    /// straightforward", Fig. 8).
    pub(crate) fn observe_actual(
        &mut self,
        op: OperatorKind,
        analysis: &QueryAnalysis,
        actual_secs: f64,
    ) {
        let n = self.estimates_made;
        let approach = match self.overrides.get_mut(&op) {
            Some(a) => a,
            None => &mut self.approach,
        };
        observe_with(approach, op, analysis, actual_secs, n);
    }
}

fn active_ref(approach: &CostingApproach, estimates_made: u64) -> &CostingApproach {
    match approach {
        CostingApproach::Timed {
            before,
            after,
            switch_after_estimates,
        } => {
            if estimates_made <= *switch_after_estimates {
                active_ref(before, estimates_made)
            } else {
                active_ref(after, estimates_made)
            }
        }
        other => other,
    }
}

fn active(approach: &mut CostingApproach, estimates_made: u64) -> &mut CostingApproach {
    match approach {
        CostingApproach::Timed {
            before,
            after,
            switch_after_estimates,
        } => {
            if estimates_made <= *switch_after_estimates {
                active(before, estimates_made)
            } else {
                active(after, estimates_made)
            }
        }
        other => other,
    }
}

#[expect(
    clippy::unreachable,
    reason = "active_ref() recursively unwraps Timed, so the Timed arm is unreachable by construction"
)]
fn estimate_with(
    approach: &CostingApproach,
    op: OperatorKind,
    analysis: &QueryAnalysis,
    estimates_made: u64,
) -> Result<CostEstimate, CostingError> {
    match active_ref(approach, estimates_made) {
        CostingApproach::SubOp(sub) => match op {
            OperatorKind::Join => {
                let (info, ctx) = analysis.join.as_ref().ok_or(CostingError::NoOperator(op))?;
                let inputs = RuleInputs::from_join(info, ctx);
                Ok(sub.estimate_join(info, &inputs))
            }
            OperatorKind::Aggregation => {
                let a = analysis.agg.as_ref().ok_or(CostingError::NoOperator(op))?;
                Ok(sub.estimate_agg(a))
            }
            OperatorKind::Scan => {
                let scan_in = analysis.scan_in.ok_or(CostingError::NoOperator(op))?;
                Ok(sub.estimate_scan(
                    scan_in.rows,
                    scan_in.row_bytes,
                    analysis.root.rows,
                    analysis.root.row_bytes,
                ))
            }
            OperatorKind::Sort => {
                let sort_in = analysis.sort_in.ok_or(CostingError::NoOperator(op))?;
                Ok(sub.estimate_sort(sort_in.rows, sort_in.row_bytes))
            }
        },
        CostingApproach::LogicalOp(suite) => match op {
            OperatorKind::Join => {
                let features = join_features(analysis).ok_or(CostingError::NoOperator(op))?;
                let flow = suite.join.as_ref().ok_or(CostingError::ModelMissing(op))?;
                Ok(flow.estimate(&features))
            }
            OperatorKind::Aggregation => {
                let features = agg_features(analysis).ok_or(CostingError::NoOperator(op))?;
                let flow = suite
                    .aggregation
                    .as_ref()
                    .ok_or(CostingError::ModelMissing(op))?;
                Ok(flow.estimate(&features))
            }
            OperatorKind::Scan | OperatorKind::Sort => Err(CostingError::ModelMissing(op)),
        },
        CostingApproach::Timed { .. } => unreachable!("active_ref() resolves Timed"),
    }
}

fn observe_with(
    approach: &mut CostingApproach,
    op: OperatorKind,
    analysis: &QueryAnalysis,
    actual_secs: f64,
    estimates_made: u64,
) {
    if let CostingApproach::LogicalOp(suite) = active(approach, estimates_made) {
        match op {
            OperatorKind::Join => {
                if let (Some(f), Some(flow)) = (join_features(analysis), suite.join.as_mut()) {
                    flow.observe_actual(&f, actual_secs);
                }
            }
            OperatorKind::Aggregation => {
                if let (Some(f), Some(flow)) = (agg_features(analysis), suite.aggregation.as_mut())
                {
                    flow.observe_actual(&f, actual_secs);
                }
            }
            OperatorKind::Scan | OperatorKind::Sort => {}
        }
    }
}

#[cfg(test)]
#[expect(clippy::unreachable, reason = "test: a wrong variant fails the test")]
mod tests {
    use super::*;
    use crate::estimator::EstimateSource;
    use crate::logical_op::model::{FitConfig, LogicalOpModel};
    use crate::sub_op::{SubOpMeasurement, SubOpModels};
    use neuro::Dataset;
    use remote_sim::ClusterEngine;
    use sqlkit::analyze::analyze;
    use sqlkit::RemoteSystem;
    use workload::{probe_suite, register_tables, TableSpec};

    fn engine() -> ClusterEngine {
        let mut e = ClusterEngine::paper_hive("hive", 5).without_noise();
        register_tables(
            &mut e,
            &[
                TableSpec::new(1_000_000, 250),
                TableSpec::new(100_000, 100),
                TableSpec::new(10_000, 40),
            ],
        )
        .unwrap();
        e
    }

    fn subop_approach(e: &mut ClusterEngine) -> CostingApproach {
        let m = SubOpMeasurement::run(e, &probe_suite());
        let models = SubOpModels::fit(&m, 4.0e8).unwrap();
        CostingApproach::SubOp(SubOpCosting::for_system(
            SystemKind::Hive,
            models,
            32.0 * 1024.0 * 1024.0,
        ))
    }

    fn logical_approach() -> CostingApproach {
        // A small trained agg model over synthetic features.
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=12 {
            for g in [2.0, 5.0, 10.0] {
                let rows = r as f64 * 1e5;
                inputs.push(vec![rows, 100.0, rows / g, 12.0]);
                targets.push(4.0 + rows * 1e-5);
            }
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["in_rows", "in_bytes", "groups", "out_bytes"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        CostingApproach::LogicalOp(LogicalOpSuite {
            join: None,
            aggregation: Some(LogicalOpCosting::new(model)),
        })
    }

    fn analysis_of(e: &ClusterEngine, sql: &str) -> QueryAnalysis {
        let plan = sqlkit::sql_to_plan(sql).unwrap();
        analyze(e.catalog(), &plan).unwrap()
    }

    #[test]
    fn subop_profile_costs_joins_and_aggs() {
        let mut e = engine();
        let mut p = CostingProfile::new(
            SystemId::new("hive"),
            SystemKind::Hive,
            subop_approach(&mut e),
        );
        let a = analysis_of(
            &e,
            "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1",
        );
        let cost = p.estimate_query(&a).unwrap();
        assert_eq!(cost.operators.len(), 1);
        assert_eq!(cost.operators[0].0, OperatorKind::Join);
        assert!(cost.total_secs > 0.0);

        let a2 = analysis_of(&e, "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5");
        let cost2 = p.estimate_query(&a2).unwrap();
        assert_eq!(cost2.operators[0].0, OperatorKind::Aggregation);
    }

    #[test]
    fn logical_profile_uses_nn_and_errors_without_model() {
        let e = engine();
        let mut p =
            CostingProfile::new(SystemId::new("hive"), SystemKind::Hive, logical_approach());
        let a = analysis_of(&e, "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5");
        let cost = p.estimate_query(&a).unwrap();
        assert!(matches!(
            cost.operators[0].1.source,
            EstimateSource::NeuralNetwork | EstimateSource::OnlineRemedy { .. }
        ));
        // No join model trained -> join queries error.
        let aj = analysis_of(
            &e,
            "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1",
        );
        assert_eq!(
            p.estimate_query(&aj),
            Err(CostingError::ModelMissing(OperatorKind::Join))
        );
    }

    #[test]
    fn timed_switching_changes_approach() {
        let mut e = engine();
        let mut p = CostingProfile::new(
            SystemId::new("hive"),
            SystemKind::Hive,
            CostingApproach::Timed {
                before: Box::new(subop_approach(&mut e)),
                after: Box::new(logical_approach()),
                switch_after_estimates: 2,
            },
        );
        let a = analysis_of(&e, "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5");
        let first = p.estimate_query(&a).unwrap();
        assert!(matches!(
            first.operators[0].1.source,
            EstimateSource::SubOpAggregation
        ));
        let second = p.estimate_query(&a).unwrap();
        assert!(matches!(
            second.operators[0].1.source,
            EstimateSource::SubOpAggregation
        ));
        let third = p.estimate_query(&a).unwrap();
        assert!(matches!(
            third.operators[0].1.source,
            EstimateSource::NeuralNetwork | EstimateSource::OnlineRemedy { .. }
        ));
    }

    #[test]
    fn per_operator_override_routes_independently() {
        let mut e = engine();
        let mut p = CostingProfile::new(
            SystemId::new("hive"),
            SystemKind::Hive,
            subop_approach(&mut e),
        );
        p.overrides
            .insert(OperatorKind::Aggregation, logical_approach());
        let aj = analysis_of(
            &e,
            "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1",
        );
        let join_cost = p.estimate_query(&aj).unwrap();
        assert!(matches!(
            join_cost.operators[0].1.source,
            EstimateSource::SubOpFormula { .. } | EstimateSource::SubOpPolicy { .. }
        ));
        let aa = analysis_of(&e, "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5");
        let agg_cost = p.estimate_query(&aa).unwrap();
        assert!(matches!(
            agg_cost.operators[0].1.source,
            EstimateSource::NeuralNetwork | EstimateSource::OnlineRemedy { .. }
        ));
    }

    #[test]
    fn observing_actuals_reaches_logical_log() {
        let e = engine();
        let mut p =
            CostingProfile::new(SystemId::new("hive"), SystemKind::Hive, logical_approach());
        let a = analysis_of(&e, "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5");
        let _ = p.estimate_query(&a).unwrap();
        p.observe_actual(OperatorKind::Aggregation, &a, 12.0);
        match &mut p.approach {
            CostingApproach::LogicalOp(suite) => {
                assert_eq!(suite.aggregation.as_ref().unwrap().log.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn logical_profiles_absorb_order_by_instead_of_failing() {
        let e = engine();
        let mut p =
            CostingProfile::new(SystemId::new("hive"), SystemKind::Hive, logical_approach());
        let a = analysis_of(
            &e,
            "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5 ORDER BY a5 LIMIT 10",
        );
        let cost = p
            .estimate_query(&a)
            .expect("sorted queries must still cost");
        assert_eq!(
            cost.operators.len(),
            1,
            "sort absorbed into the operator estimate"
        );
        assert_eq!(cost.operators[0].0, OperatorKind::Aggregation);
    }

    #[test]
    fn join_plus_aggregation_costs_both_operators() {
        let mut e = engine();
        let mut p = CostingProfile::new(
            SystemId::new("hive"),
            SystemKind::Hive,
            subop_approach(&mut e),
        );
        let a = analysis_of(
            &e,
            "SELECT r.a5, SUM(s.a1) AS s FROM T1000000_250 r JOIN T100000_100 s              ON r.a1 = s.a1 GROUP BY r.a5",
        );
        let cost = p.estimate_query(&a).unwrap();
        let ops: Vec<OperatorKind> = cost.operators.iter().map(|(k, _)| *k).collect();
        assert_eq!(ops, vec![OperatorKind::Join, OperatorKind::Aggregation]);
        assert!(cost.operators.iter().all(|(_, e)| e.secs > 0.0));
        assert!(
            (cost.total_secs - cost.operators.iter().map(|(_, e)| e.secs).sum::<f64>()).abs()
                < 1e-12
        );
    }

    #[test]
    fn order_by_adds_a_sort_operator_estimate() {
        let mut e = engine();
        let mut p = CostingProfile::new(
            SystemId::new("hive"),
            SystemKind::Hive,
            subop_approach(&mut e),
        );
        let plain = analysis_of(&e, "SELECT a1 FROM T1000000_250 WHERE a1 < 500000");
        let sorted = analysis_of(
            &e,
            "SELECT a1 FROM T1000000_250 WHERE a1 < 500000 ORDER BY a1 LIMIT 100",
        );
        let plain_cost = p.estimate_query(&plain).unwrap();
        let sorted_cost = p.estimate_query(&sorted).unwrap();
        assert_eq!(plain_cost.operators.len(), 1);
        assert_eq!(sorted_cost.operators.len(), 2);
        assert_eq!(sorted_cost.operators[1].0, OperatorKind::Sort);
        assert!(sorted_cost.total_secs > plain_cost.total_secs);
    }

    #[test]
    fn scan_queries_cost_through_subop() {
        let mut e = engine();
        let mut p = CostingProfile::new(
            SystemId::new("hive"),
            SystemKind::Hive,
            subop_approach(&mut e),
        );
        let a = analysis_of(&e, "SELECT a1 FROM T10000_40 WHERE a1 < 100");
        let cost = p.estimate_query(&a).unwrap();
        assert_eq!(cost.operators[0].0, OperatorKind::Scan);
        assert!(cost.total_secs > 0.0);
    }
}
