#![warn(missing_docs)]

//! Shared helpers for the cross-crate integration tests.

use catalog::remote::{JoinContext, JoinInfo};
use catalog::SystemKind;
use costing::features::{agg_dim_names, join_dim_names};
use costing::logical_op::flow::LogicalOpCosting;
use costing::logical_op::model::{FitConfig, LogicalOpModel};
use costing::sub_op::{RuleInputs, SubOpCosting, SubOpMeasurement, SubOpModels};
use costing::{OperatorKind, AGG_DIMS, JOIN_DIMS};
use neuro::Dataset;
use remote_sim::ClusterEngine;
use sqlkit::RemoteSystem;
use workload::{probe_suite, register_tables, TableSpec};

/// A noiseless paper-cluster Hive engine with the given tables.
pub fn hive_engine(specs: &[TableSpec], seed: u64) -> ClusterEngine {
    let mut e = ClusterEngine::paper_hive("hive-it", seed).without_noise();
    register_tables(&mut e, specs).expect("tables register");
    e
}

/// Trains a sub-op costing unit on an engine via the standard probe suite.
pub fn trained_subop(engine: &mut ClusterEngine) -> SubOpCosting {
    let measurement = SubOpMeasurement::run(engine, &probe_suite());
    let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
        / engine.profile().cores_per_node as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("sub-op models fit");
    SubOpCosting::for_system(SystemKind::Hive, models, 32.0 * 1024.0 * 1024.0)
}

/// Builds rule inputs from a join analysis pair.
pub fn rule_inputs(info: &JoinInfo, ctx: &JoinContext) -> RuleInputs {
    RuleInputs::from_join(info, ctx)
}

/// A trained aggregation flow over a 2-dim grid (rows, size). Golden
/// fixtures and `to_bits` suites depend on these exact weights: the
/// grid and `FitConfig::fast()` must not change.
pub fn trained_flow() -> LogicalOpCosting {
    let mut inputs = vec![];
    let mut targets = vec![];
    for r in 1..=15 {
        for s in 1..=4 {
            let rows = r as f64 * 1e5;
            let size = s as f64 * 100.0;
            inputs.push(vec![rows, size]);
            targets.push(1.0 + 2e-6 * rows + 0.01 * size);
        }
    }
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &["rows", "size"],
        &Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    LogicalOpCosting::new(model)
}

fn fit_join_agg(join: Dataset, agg: Dataset) -> (LogicalOpCosting, LogicalOpCosting) {
    let (join, _) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &join,
        &FitConfig::fast(),
    );
    let (agg, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &agg,
        &FitConfig::fast(),
    );
    (LogicalOpCosting::new(join), LogicalOpCosting::new(agg))
}

/// Trains small join + aggregation models for one simulated system on
/// a 20-point size ladder. The `scale` knob makes each registered
/// system answer differently, so a cross-system mix-up would show up as
/// a wrong estimate.
pub fn flows(scale: f64) -> (LogicalOpCosting, LogicalOpCosting) {
    let mut j_in = vec![];
    let mut j_out = vec![];
    let mut a_in = vec![];
    let mut a_out = vec![];
    for i in 1..=20 {
        let r = i as f64 * 1e5;
        let s = r / 4.0;
        j_in.push(vec![250.0, r, 100.0, s, 16.0, 16.0, s]);
        j_out.push(scale * (3.0 + r * 4e-7 + s * 2e-7));
        a_in.push(vec![r, 250.0, r / 10.0, 12.0]);
        a_out.push(scale * (2.0 + r * 3e-7));
    }
    fit_join_agg(Dataset::new(j_in, j_out), Dataset::new(a_in, a_out))
}

/// Trains tiny join + aggregation models with a per-system cost scale
/// on an 80-point (10 × 8) grid — the same fixture the federation unit
/// tests use, so engines rank differently without ties.
pub fn federation_flows(scale: f64) -> (LogicalOpCosting, LogicalOpCosting) {
    let mut jin = vec![];
    let mut jt = vec![];
    let mut ain = vec![];
    let mut at = vec![];
    for i in 0..80 {
        let r = 1e5 + (i % 10) as f64 * 1e6;
        let s = 1e4 + (i % 8) as f64 * 1e5;
        let jf = vec![250.0, r, 100.0, s, 16.0, 16.0, s];
        assert_eq!(jf.len(), JOIN_DIMS);
        jin.push(jf);
        jt.push(scale * (2.0 + r * 4e-7 + s * 2e-7));
        let af = vec![r, 250.0, r / 10.0, 12.0];
        assert_eq!(af.len(), AGG_DIMS);
        ain.push(af);
        at.push(scale * (1.0 + r * 3e-7));
    }
    fit_join_agg(Dataset::new(jin, jt), Dataset::new(ain, at))
}
