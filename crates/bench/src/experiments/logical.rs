//! Shared core for the logical-operator experiments (Figs. 11 and 12):
//! execute a training grid, fit the NN (with convergence trace), and fit
//! the linear-regression baseline on the same split.

use crate::report::ExpConfig;
use catalog::remote::SimDuration;
use costing::estimator::OperatorKind;
use costing::logical_op::{model::LogicalOpModel, run_training};
use mathkit::{r2_score, rmse_pct, LinearModel};
use neuro::Dataset;
use remote_sim::ClusterEngine;

/// Result of one logical-operator training experiment.
#[derive(Debug, Clone)]
pub struct LogicalExpResult {
    /// Queries executed.
    pub(crate) n_queries: usize,
    /// Cumulative remote busy time after each query (panel a).
    pub(crate) cumulative: Vec<SimDuration>,
    /// Total training time on the remote.
    pub total_training: SimDuration,
    /// Convergence trace `(iteration, RMSE%)` (panel b).
    pub trace: Vec<(f64, f64)>,
    /// Network-training wall time (the paper's "negligible ~70 s").
    pub(crate) nn_fit_wall: std::time::Duration,
    /// Chosen topology (layer1, layer2).
    pub(crate) topology: (usize, usize),
    /// Held-out `(actual, predicted)` pairs for the NN (panel c).
    pub(crate) nn_scatter: Vec<(f64, f64)>,
    /// NN held-out R².
    pub nn_r2: f64,
    /// NN held-out RMSE%.
    pub(crate) nn_rmse_pct: f64,
    /// Held-out `(actual, predicted)` pairs for linear regression (panel d).
    pub(crate) lr_scatter: Vec<(f64, f64)>,
    /// LR held-out R².
    pub lr_r2: f64,
    /// LR held-out RMSE%.
    pub(crate) lr_rmse_pct: f64,
}

/// Executes `queries` on `engine`, fits NN + LR, and evaluates both on
/// the held-out 30 %.
pub(crate) fn run_logical_experiment(
    cfg: &ExpConfig,
    engine: &mut ClusterEngine,
    op: OperatorKind,
    dim_names: &[&str],
    queries: &[String],
) -> LogicalExpResult {
    let training = run_training(engine, op, queries);
    assert!(
        training.failures.is_empty(),
        "training queries failed: {:?}",
        &training.failures[..training.failures.len().min(3)]
    );
    let data = training.dataset();

    let fit_cfg = super::fit_config(cfg);
    let started = std::time::Instant::now();
    let (_, report) = LogicalOpModel::fit(op, dim_names, &data, &fit_cfg);
    let nn_fit_wall = started.elapsed();

    // Linear-regression baseline on the identical 70/30 split.
    let (train_set, test_set) = data.split(0.7, fit_cfg.seed);
    let (lr_scatter, lr_r2, lr_rmse_pct) = linear_baseline(&train_set, &test_set);

    LogicalExpResult {
        n_queries: training.runs.len(),
        cumulative: training.cumulative.clone(),
        total_training: training.total_time(),
        trace: report
            .trace
            .points
            .iter()
            .map(|p| (p.iteration as f64, p.rmse_pct))
            .collect(),
        nn_fit_wall,
        topology: (report.topology.layer1, report.topology.layer2),
        nn_r2: report.test_r2,
        nn_rmse_pct: report.test_rmse_pct,
        nn_scatter: report.test_scatter,
        lr_scatter,
        lr_r2,
        lr_rmse_pct,
    }
}

/// Fits the paper's linear-regression comparison model and evaluates it.
pub(crate) fn linear_baseline(
    train_set: &Dataset,
    test_set: &Dataset,
) -> (Vec<(f64, f64)>, f64, f64) {
    let lr = LinearModel::fit(&train_set.inputs, &train_set.targets).expect("linear baseline fit");
    let scatter: Vec<(f64, f64)> = test_set
        .inputs
        .iter()
        .zip(&test_set.targets)
        .map(|(x, &y)| (y, lr.predict(x).max(0.0)))
        .collect();
    let (actuals, preds): (Vec<f64>, Vec<f64>) = scatter.iter().copied().unzip();
    (
        scatter.clone(),
        r2_score(&preds, &actuals),
        rmse_pct(&preds, &actuals),
    )
}

/// Prints the four panels of a Fig. 11/12-style result.
pub(crate) fn print_logical_result(title: &str, r: &LogicalExpResult, paper: &PaperNumbers) {
    use crate::report::{heading, kv};
    heading(title);
    kv("(a) training queries executed", r.n_queries);
    kv(
        "(a) total training time",
        format!(
            "{:.2} h (paper: {})",
            r.total_training.as_hours(),
            paper.training_time
        ),
    );
    kv(
        "(b) NN convergence",
        format!(
            "normalised RMSE% {:.2} → {:.2} over {} trace points (paper: steady by 7k-9k iters)",
            r.trace.first().map_or(f64::NAN, |p| p.1),
            r.trace.last().map_or(f64::NAN, |p| p.1),
            r.trace.len()
        ),
    );
    kv(
        "(b) NN fit wall time",
        format!("{:.1?} (paper: ~{})", r.nn_fit_wall, paper.fit_time),
    );
    kv("    topology", format!("{}x{}", r.topology.0, r.topology.1));
    let line = |scatter: &[(f64, f64)]| {
        crate::report::Series::new("", scatter.to_vec())
            .line_fit()
            .map(|(m, b, _)| format!("y = {m:.4}x + {b:.4}"))
            .unwrap_or_default()
    };
    kv(
        "(c) NN accuracy",
        format!(
            "{}, R² = {:.4}, RMSE% = {:.2} (paper: {})",
            line(&r.nn_scatter),
            r.nn_r2,
            r.nn_rmse_pct,
            paper.nn_r2
        ),
    );
    kv(
        "(d) LR accuracy",
        format!(
            "{}, R² = {:.4}, RMSE% = {:.2} (paper: {})",
            line(&r.lr_scatter),
            r.lr_r2,
            r.lr_rmse_pct,
            paper.lr_r2
        ),
    );
}

/// The paper's reported numbers, for side-by-side printing.
pub(crate) struct PaperNumbers {
    /// Training time as reported.
    pub(crate) training_time: &'static str,
    /// NN fit time as reported.
    pub(crate) fit_time: &'static str,
    /// NN R² annotation.
    pub(crate) nn_r2: &'static str,
    /// LR R² annotation.
    pub(crate) lr_r2: &'static str,
}

/// Writes the four panels as CSV files.
pub(crate) fn print_logical_experiment_csv(
    cfg: &crate::report::ExpConfig,
    stem: &str,
    r: &LogicalExpResult,
) {
    use crate::report::{write_csv, Series};
    let cumulative = Series::new(
        "cumulative_training_min",
        r.cumulative
            .iter()
            .enumerate()
            .map(|(i, d)| ((i + 1) as f64, d.as_mins()))
            .collect(),
    );
    let trace = Series::new("nn_rmse_pct", r.trace.clone());
    let nn = Series::new("nn_actual_vs_predicted", r.nn_scatter.clone());
    let lr = Series::new("lr_actual_vs_predicted", r.lr_scatter.clone());
    write_csv(cfg, &format!("{stem}_a_training_cost"), &[cumulative]);
    write_csv(cfg, &format!("{stem}_b_convergence"), &[trace]);
    write_csv(cfg, &format!("{stem}_cd_scatter"), &[nn, lr]);
}
