//! Ablation experiments for the design choices DESIGN.md §5 calls out:
//!
//! * NN topology: cross-validated search (the paper's §3 procedure) vs
//!   fixed topologies;
//! * the choice policy used when the applicability rules leave several
//!   candidate algorithms (worst / average / in-house-comparable);
//! * sub-op model construction: the paper's group-by-size-then-average
//!   simplification vs a direct two-dimensional regression.

use crate::report::{heading, kv, ExpConfig};
use catalog::SystemKind;
use costing::estimator::OperatorKind;
use costing::features::agg_dim_names;
use costing::logical_op::{
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    run_training,
};
use costing::sub_op::{
    ChoicePolicy, RuleInputs, SubOp, SubOpCosting, SubOpMeasurement, SubOpModels,
};
use mathkit::{rmse_pct, LinearModel};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{
    agg_training_queries_with, join_training_queries_with, probe_suite, specs_up_to, TableSpec,
};

/// Results of all four ablations.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// (label, held-out RMSE%) per topology strategy.
    pub(crate) topology: Vec<(String, f64)>,
    /// (policy, RMSE% vs actual) on ambiguous joins.
    pub(crate) choice: Vec<(String, f64)>,
    /// (method, WriteDFS slope absolute error vs hidden truth).
    pub(crate) subop_fit: Vec<(String, f64)>,
    /// (mode, in-range R², out-of-range raw-NN RMSE%) per scaling mode.
    pub(crate) scaling: Vec<(String, f64, f64)>,
}

/// Runs all ablations.
pub fn run(cfg: &ExpConfig) -> AblationResult {
    let result = AblationResult {
        topology: topology_ablation(cfg),
        choice: choice_policy_ablation(cfg),
        subop_fit: subop_fit_ablation(cfg),
        scaling: scaling_ablation(cfg),
    };
    print_result(&result);
    result
}

/// Linear (paper) vs log-domain normalisation: in-range accuracy and raw
/// out-of-range extrapolation. The finding: log scaling both fits the
/// heavy-tailed join surface better *and* largely removes the
/// extrapolation failure that motivates the paper's online remedy — a
/// one-line change that would have absorbed much of §3's machinery.
fn scaling_ablation(cfg: &ExpConfig) -> Vec<(String, f64, f64)> {
    use costing::features::{join_dim_names, join_features};
    use costing::logical_op::model::ScalingMode;
    use workload::{build_table, oor_join_queries};

    let specs: Vec<TableSpec> = crate::experiments::fig14::training_specs(cfg.quick);
    let mut engine = super::hive_with(cfg, &specs);
    for spec in workload::oor_all_table_specs() {
        if engine.catalog().table(&spec.name()).is_err() {
            engine
                .register_table(build_table(&spec))
                .expect("oor table");
        }
    }
    let queries: Vec<String> = join_training_queries_with(&specs, &[100, 50, 25])
        .iter()
        .map(|q| q.sql())
        .collect();
    let training = run_training(&mut engine, OperatorKind::Join, &queries);
    let data = training.dataset();

    // Out-of-range evaluation set (restricted to the registered sizes).
    let mut oor_points = Vec::new();
    for q in oor_join_queries() {
        let Ok(plan) = sqlkit::sql_to_plan(&q.sql()) else {
            continue;
        };
        let Ok(analysis) = analyze(engine.catalog(), &plan) else {
            continue;
        };
        let Some(features) = join_features(&analysis) else {
            continue;
        };
        let Ok(exec) = engine.submit_plan(&plan) else {
            continue;
        };
        oor_points.push((features.to_vec(), exec.elapsed.as_secs()));
    }

    [ScalingMode::Linear, ScalingMode::Log]
        .into_iter()
        .map(|mode| {
            // Same budget as the Fig. 14 experiment, only the scaling
            // domain differs.
            let fit = FitConfig {
                scaling: mode,
                trace_every: 0,
                ..super::fit_config(cfg)
            };
            let (model, report) =
                LogicalOpModel::fit(OperatorKind::Join, &join_dim_names(), &data, &fit);
            let preds: Vec<f64> = oor_points
                .iter()
                .map(|(f, _)| model.predict_nn(f))
                .collect();
            let actuals: Vec<f64> = oor_points.iter().map(|&(_, a)| a).collect();
            let label = match mode {
                ScalingMode::Linear => "linear min-max (paper)",
                ScalingMode::Log => "log-domain",
            };
            (
                label.to_string(),
                report.test_r2,
                rmse_pct(&preds, &actuals),
            )
        })
        .collect()
}

/// Topology strategies on the aggregation model.
fn topology_ablation(cfg: &ExpConfig) -> Vec<(String, f64)> {
    let specs = specs_up_to(if cfg.quick { 200_000 } else { 2_000_000 });
    let queries: Vec<String> = agg_training_queries_with(&specs, &[2, 10, 50], 3)
        .iter()
        .map(|q| q.sql())
        .collect();
    let mut engine = super::hive_with(cfg, &specs);
    let training = run_training(&mut engine, OperatorKind::Aggregation, &queries);
    let data = training.dataset();

    let iterations = if cfg.quick { 2_500 } else { 8_000 };
    let strategies = [
        (
            "fixed minimal (4x3)",
            TopologyChoice::Fixed {
                layer1: 4,
                layer2: 3,
            },
        ),
        (
            "fixed paper-max (8x4)",
            TopologyChoice::Fixed {
                layer1: 8,
                layer2: 4,
            },
        ),
        (
            "cross-validated (paper)",
            TopologyChoice::CrossValidated {
                step: 1,
                search_iterations: iterations / 4,
            },
        ),
    ];
    strategies
        .into_iter()
        .map(|(label, topology)| {
            let fit = FitConfig {
                topology,
                iterations,
                batch_size: 32,
                trace_every: 0,
                seed: cfg.seed,
                scaling: Default::default(),
            };
            let (_, report) =
                LogicalOpModel::fit(OperatorKind::Aggregation, &agg_dim_names(), &data, &fit);
            (label.to_string(), report.test_rmse_pct)
        })
        .collect()
}

/// Choice policies on joins where the rules leave several candidates.
fn choice_policy_ablation(cfg: &ExpConfig) -> Vec<(String, f64)> {
    // Medium build sides: small enough to keep broadcast applicable, so
    // the rules leave {shuffle, broadcast, skew} and the policy matters.
    let mut specs: Vec<TableSpec> = Vec::new();
    for k in [1u64, 2, 4, 8] {
        specs.push(TableSpec::new(k * 100_000, 250));
        specs.push(TableSpec::new(k * 1_000_000, 250));
    }
    specs.dedup();
    let mut engine = super::hive_with(cfg, &specs);

    let measurement = SubOpMeasurement::run(&mut engine, &probe_suite());
    let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
        / engine.profile().cores_per_node as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("sub-op fit");
    let mut costing = SubOpCosting::for_system(SystemKind::Hive, models, 32.0 * 1024.0 * 1024.0);

    let queries = join_training_queries_with(&specs, &[100, 25]);
    let mut per_policy: Vec<(String, Vec<f64>, Vec<f64>)> = vec![
        ("worst".into(), vec![], vec![]),
        ("average".into(), vec![], vec![]),
        ("in-house".into(), vec![], vec![]),
    ];
    for q in &queries {
        let plan = sqlkit::sql_to_plan(&q.sql()).expect("parses");
        let analysis = analyze(engine.catalog(), &plan).expect("analysis");
        let (info, ctx) = analysis.join.expect("join");
        let inputs = RuleInputs::from_join(&info, &ctx);
        if costing.surviving_algorithms(&inputs).len() < 2 {
            continue; // the policy only matters when there is ambiguity
        }
        let actual = engine.submit_plan(&plan).expect("runs").elapsed.as_secs();
        for (i, policy) in [
            ChoicePolicy::Worst,
            ChoicePolicy::Average,
            ChoicePolicy::InHouseComparable,
        ]
        .iter()
        .enumerate()
        {
            costing.policy = *policy;
            per_policy[i]
                .1
                .push(costing.estimate_join(&info, &inputs).secs);
            per_policy[i].2.push(actual);
        }
    }
    per_policy
        .into_iter()
        .map(|(name, preds, actuals)| (name, rmse_pct(&preds, &actuals)))
        .collect()
}

/// Paper's grouped-average sub-op fitting vs a direct 2-D regression.
fn subop_fit_ablation(cfg: &ExpConfig) -> Vec<(String, f64)> {
    let mut engine = super::hive_with(cfg, &[]);
    let measurement = SubOpMeasurement::run(&mut engine, &probe_suite());
    // Hidden truth for WriteDFS (the simulator's own constant).
    let truth = remote_sim::subop_cost::MicroCosts::hive_baseline().write_dfs;

    // Method 1 (paper): group by record size, average across row counts,
    // then regress per-record work on record size.
    let budget = 4.0e8;
    let models = SubOpModels::fit(&measurement, budget).expect("fit");
    let grouped_err = (models.line(SubOp::WriteDfs).slope - truth.per_byte).abs();

    // Method 2: direct 2-D regression elapsed ~ (rows, rows·bytes), then
    // derive the per-byte work from the interaction coefficient.
    let cores = measurement.cores;
    let mut rows2d: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for o in &measurement.observations {
        let is_write = o.kind == catalog::remote::ProbeKind::ReadWriteDfs && !o.spill;
        let is_read = o.kind == catalog::remote::ProbeKind::ReadDfs && !o.spill;
        if !(is_write || is_read) {
            continue;
        }
        // Indicator feature isolates the write component.
        let w = if is_write { 1.0 } else { 0.0 };
        rows2d.push(vec![
            o.rows as f64,
            o.rows as f64 * o.record_bytes as f64,
            w * o.rows as f64,
            w * o.rows as f64 * o.record_bytes as f64,
        ]);
        ys.push(o.elapsed_us);
    }
    let lm = LinearModel::fit(&rows2d, &ys).expect("2d fit");
    // Coefficient 3 is the write-only per-(row·byte) elapsed; work =
    // elapsed × cores.
    let direct_slope = lm.weights[3] * cores;
    let direct_err = (direct_slope - truth.per_byte).abs();

    vec![
        ("grouped-average (paper)".into(), grouped_err),
        ("direct 2-D regression".into(), direct_err),
    ]
}

fn print_result(r: &AblationResult) {
    heading("Ablation — NN topology strategy (agg model, held-out RMSE%)");
    for (label, rmse) in &r.topology {
        kv(label, format!("{rmse:.2} RMSE%"));
    }
    heading("Ablation — choice policy on ambiguous joins (RMSE% vs actual)");
    for (label, rmse) in &r.choice {
        kv(label, format!("{rmse:.2} RMSE%"));
    }
    heading("Ablation — sub-op fitting method (WriteDFS slope |error| vs truth)");
    for (label, err) in &r.subop_fit {
        kv(label, format!("{err:.5} µs/byte absolute slope error"));
    }
    heading("Ablation — NN normalisation domain (join model)");
    for (label, r2, oor) in &r.scaling {
        kv(
            label,
            format!("in-range R² = {r2:.3}; raw-NN out-of-range RMSE% = {oor:.1}"),
        );
    }
}
