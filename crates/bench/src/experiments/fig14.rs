//! Fig. 14 — out-of-range prediction: sub-op vs raw NN vs NN + online
//! remedy vs NN + offline tuning, on merge joins whose input cardinality
//! (20 M rows) lies far beyond the trained range (≤ 8 M rows).

use crate::report::{heading, kv, write_csv, ExpConfig, Series};
use catalog::SystemKind;
use costing::estimator::OperatorKind;
use costing::features::{join_dim_names, join_features};
use costing::logical_op::{
    model::LogicalOpModel, remedy::remedy_estimate, remedy::RemedyConfig, run_training,
    tuning::offline_tune, tuning::ExecutionLog,
};
use costing::sub_op::{RuleInputs, SubOpCosting, SubOpMeasurement, SubOpModels};
use mathkit::{pearson_r, rmse_pct};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{
    build_table, join_training_queries_with, oor_all_table_specs, oor_join_queries, probe_suite,
    JoinQuery, TableSpec,
};

/// One evaluated out-of-range query.
#[derive(Debug, Clone)]
pub struct OorPoint {
    /// Observed execution time, seconds.
    pub(crate) actual: f64,
    /// Sub-op composed estimate.
    pub(crate) sub_op: f64,
    /// Raw (extrapolating) NN estimate.
    pub(crate) nn: f64,
    /// NN + online remedy (α = 0.5).
    pub(crate) remedy: f64,
}

/// Result of the Fig. 14 experiment.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// All 45 evaluated queries.
    pub points: Vec<OorPoint>,
    /// RMSE% per method over all 45 queries.
    pub(crate) rmse_sub_op: f64,
    /// Raw NN RMSE%.
    pub rmse_nn: f64,
    /// Remedy RMSE%.
    pub rmse_remedy: f64,
    /// RMSE% of the tuned NN on its held-out 30 % of the OOR queries.
    pub rmse_tuned: f64,
    /// Raw-NN RMSE% on the same held-out 30 % (for a fair comparison).
    pub rmse_nn_on_tuned_split: f64,
    /// Pearson correlation with the actuals per method — the paper's
    /// "the sub-op approach is relatively consistent" claim.
    pub corr_sub_op: f64,
    /// Raw NN correlation.
    pub corr_nn: f64,
    /// The trained join model (reused by Table 1).
    pub(crate) model: LogicalOpModel,
    /// The OOR query set and observed actuals (reused by Table 1).
    pub(crate) observations: Vec<(Vec<f64>, f64)>,
}

/// The training tables: merge-join-sized relations up to 8 M rows.
pub(crate) fn training_specs(quick: bool) -> Vec<TableSpec> {
    let sizes: &[u64] = if quick {
        &[250, 1000]
    } else {
        &[40, 100, 250, 500, 1000]
    };
    let mut specs = Vec::new();
    for &size in sizes {
        for k in [1u64, 2, 4, 6, 8] {
            specs.push(TableSpec::new(k * 1_000_000, size));
        }
        // The in-range join partners used by the OOR suite.
        specs.push(TableSpec::new(500_000, size));
        specs.push(TableSpec::new(2_000_000, size));
    }
    specs.sort_by_key(|s| (s.rows, s.record_bytes));
    specs.dedup();
    specs
}

/// Runs the Fig. 14 experiment.
pub fn run(cfg: &ExpConfig) -> Fig14Result {
    let specs = training_specs(cfg.quick);
    let mut engine = super::hive_with(cfg, &specs);

    // Register the 20M-row out-of-range tables.
    for spec in oor_all_table_specs() {
        if engine.catalog().table(&spec.name()).is_err() {
            engine
                .register_table(build_table(&spec))
                .expect("oor table registers");
        }
    }

    // --- Train both approaches on the in-range data ---
    let train_queries: Vec<String> = join_training_queries_with(&specs, &[100, 50, 25])
        .iter()
        .map(JoinQuery::sql)
        .collect();
    let training = run_training(&mut engine, OperatorKind::Join, &train_queries);
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &training.dataset(),
        &super::fit_config(cfg),
    );

    let measurement = SubOpMeasurement::run(&mut engine, &probe_suite());
    let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
        / engine.profile().cores_per_node as f64;
    let sub_models = SubOpModels::fit(&measurement, budget).expect("sub-op fit");
    let sub = SubOpCosting::for_system(SystemKind::Hive, sub_models, 32.0 * 1024.0 * 1024.0);

    // --- Evaluate the 45 OOR queries ---
    let remedy_cfg = RemedyConfig::default();
    let oor = oor_join_queries();
    let mut points = Vec::new();
    let mut observations = Vec::new();
    for q in &oor {
        let plan = sqlkit::sql_to_plan(&q.sql()).expect("oor query parses");
        let analysis = analyze(engine.catalog(), &plan).expect("analysis");
        let features = join_features(&analysis).expect("join features");
        let (info, ctx) = analysis.join.expect("join node");
        let exec = engine.submit_plan(&plan).expect("oor execution");
        let actual = exec.elapsed.as_secs();

        let inputs = RuleInputs::from_join(&info, &ctx);
        let sub_est = sub.estimate_join(&info, &inputs).secs;
        let nn_est = model.predict_nn(&features);
        let remedy = if model.meta.all_in_range(&features, remedy_cfg.beta) {
            nn_est
        } else {
            remedy_estimate(&model, &features, &remedy_cfg, 0.5).estimate
        };
        points.push(OorPoint {
            actual,
            sub_op: sub_est,
            nn: nn_est,
            remedy,
        });
        observations.push((features.to_vec(), actual));
    }

    // --- Offline tuning: absorb 70 % of the OOR observations, test 30 % ---
    let n = points.len();
    let cut = (n as f64 * 0.7) as usize;
    let mut tuned_model = model.clone();
    let mut log = ExecutionLog::new();
    for (features, actual) in &observations[..cut] {
        log.push(features.clone(), *actual);
    }
    offline_tune(
        &mut tuned_model,
        &mut log,
        remedy_cfg.beta,
        &super::fit_config(cfg),
    );
    let heldout = &observations[cut..];
    let tuned_preds: Vec<f64> = heldout
        .iter()
        .map(|(f, _)| tuned_model.predict_nn(f))
        .collect();
    let nn_preds_heldout: Vec<f64> = heldout.iter().map(|(f, _)| model.predict_nn(f)).collect();
    let heldout_actuals: Vec<f64> = heldout.iter().map(|&(_, a)| a).collect();

    let actuals: Vec<f64> = points.iter().map(|p| p.actual).collect();
    let col = |f: fn(&OorPoint) -> f64| points.iter().map(f).collect::<Vec<f64>>();
    let result = Fig14Result {
        rmse_sub_op: rmse_pct(&col(|p| p.sub_op), &actuals),
        rmse_nn: rmse_pct(&col(|p| p.nn), &actuals),
        rmse_remedy: rmse_pct(&col(|p| p.remedy), &actuals),
        corr_sub_op: pearson_r(&col(|p| p.sub_op), &actuals),
        corr_nn: pearson_r(&col(|p| p.nn), &actuals),
        rmse_tuned: rmse_pct(&tuned_preds, &heldout_actuals),
        rmse_nn_on_tuned_split: rmse_pct(&nn_preds_heldout, &heldout_actuals),
        points,
        model,
        observations,
    };
    print_result(cfg, &result);
    result
}

fn print_result(cfg: &ExpConfig, r: &Fig14Result) {
    heading("Fig. 14 — Out-of-range prediction (trained ≤ 8M rows, tested at 20M)");
    kv(
        "out-of-range queries",
        format!("{} (paper: 45)", r.points.len()),
    );
    kv(
        "sub-op RMSE% / correlation",
        format!(
            "{:.1} / {:.3} (paper: relatively consistent — extrapolates easily; our \
             estimates carry the Fig. 13g ~1.6x overestimate, so correlation is the \
             consistency measure)",
            r.rmse_sub_op, r.corr_sub_op
        ),
    );
    kv(
        "raw NN RMSE% / correlation",
        format!(
            "{:.1} / {:.3} (paper: degrades, cannot extrapolate)",
            r.rmse_nn, r.corr_nn
        ),
    );
    kv(
        "NN + online remedy RMSE% (α = 0.5)",
        format!("{:.1} (paper: improves significantly)", r.rmse_remedy),
    );
    kv(
        "NN + offline tuning RMSE% (held-out 30%)",
        format!(
            "{:.1} vs raw NN {:.1} on the same split (paper: adjusts and learns the new range)",
            r.rmse_tuned, r.rmse_nn_on_tuned_split
        ),
    );
    let mk = |name: &str, f: fn(&OorPoint) -> f64| {
        Series::new(name, r.points.iter().map(|p| (p.actual, f(p))).collect())
    };
    write_csv(
        cfg,
        "fig14_oor_scatter",
        &[
            mk("sub_op", |p| p.sub_op),
            mk("nn", |p| p.nn),
            mk("nn_online_remedy", |p| p.remedy),
        ],
    );
}
