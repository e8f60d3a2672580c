//! Fig. 13 — sub-operator costing: probe training cost (a), per-record
//! flatness across row counts (b), fitted linear models (c–e), the
//! two-regime HashBuild model (f), and composed-formula accuracy on the
//! merge (shuffle) join (g).

use crate::report::{heading, kv, write_csv, ExpConfig, Series};
use catalog::remote::{JoinAlgorithm, SimDuration};
use catalog::SystemKind;
use costing::sub_op::{SubOp, SubOpCosting, SubOpMeasurement, SubOpModels};
use mathkit::{rmse_pct, SimpleLinearModel};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{join_training_queries_with, probe_suite, TableSpec};

/// Result of the Fig. 13 experiment.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Probe queries executed (panel a; paper: 6–32 per sub-op).
    pub(crate) probe_queries: usize,
    /// Total probe campaign time (paper: a few minutes).
    pub probe_time: SimDuration,
    /// WriteDFS per-record work across row counts (panel b flatness).
    pub write_dfs_series: Vec<(u64, f64)>,
    /// Fitted lines `(slope, intercept, r2)` keyed by sub-op (panels c–e).
    pub lines: Vec<(SubOp, f64, f64, f64)>,
    /// HashBuild in-memory line.
    pub hash_mem: SimpleLinearModel,
    /// HashBuild spill line (panel f).
    pub hash_spill: SimpleLinearModel,
    /// Merge-join `(actual, predicted)` scatter (panel g).
    pub(crate) merge_scatter: Vec<(f64, f64)>,
    /// Fitted slope of predicted-vs-actual (paper: 1.578 — overestimate).
    pub merge_slope: f64,
    /// R² of the panel-g fit (paper: 0.929).
    pub merge_r2: f64,
    /// RMSE% of the composed formula.
    pub(crate) merge_rmse_pct: f64,
}

/// Runs the Fig. 13 experiment.
pub fn run(cfg: &ExpConfig) -> Fig13Result {
    // Tables large enough that the engine picks the shuffle (merge) join:
    // the smallest build side must exceed the 32 MB broadcast threshold.
    let mut specs: Vec<TableSpec> = Vec::new();
    let sizes: &[u64] = if cfg.quick { &[250] } else { &[250, 500, 1000] };
    for &size in sizes {
        for k in [1u64, 2, 4, 6, 8] {
            specs.push(TableSpec::new(k * 1_000_000, size));
        }
    }
    let mut engine = super::hive_with(cfg, &specs);

    // --- Panels a–f: probe campaign + model fitting ---
    let suite = probe_suite();
    let measurement = SubOpMeasurement::run(&mut engine, &suite);
    let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
        / engine.profile().cores_per_node as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("sub-op fit");
    let costing =
        SubOpCosting::for_system(SystemKind::Hive, models.clone(), 32.0 * 1024.0 * 1024.0);

    let write_dfs_series = measurement.per_record_series(SubOp::WriteDfs, 1000, false);
    let lines: Vec<(SubOp, f64, f64, f64)> = [
        SubOp::ReadDfs,
        SubOp::WriteDfs,
        SubOp::Shuffle,
        SubOp::RecMerge,
        SubOp::Broadcast,
        SubOp::HashProbe,
    ]
    .iter()
    .map(|&s| {
        let line = models.line(s);
        (s, line.slope, line.intercept, line.r2)
    })
    .collect();

    // --- Panel g: composed formula vs actual for the merge join ---
    // The paper's panel projects just the join keys; pin the projection
    // level so every query exercises the same merge-join composition.
    let mut queries = join_training_queries_with(&specs, &[100, 50, 25]);
    for q in &mut queries {
        q.projection = 0;
    }
    let mut merge_scatter = Vec::new();
    for q in &queries {
        let plan = sqlkit::sql_to_plan(&q.sql()).expect("join query parses");
        let analysis = analyze(engine.catalog(), &plan).expect("analysis");
        let (info, _) = analysis.join.expect("join present");
        let exec = engine.submit_plan(&plan).expect("execution");
        // Panel g is specifically about the merge-join composition; skip
        // the occasional query the engine routed elsewhere.
        if exec.join_algorithm != Some(JoinAlgorithm::HiveShuffleJoin) {
            continue;
        }
        let predicted = costing.estimate_join_with(JoinAlgorithm::HiveShuffleJoin, &info);
        merge_scatter.push((exec.elapsed.as_secs(), predicted));
    }
    let (actuals, preds): (Vec<f64>, Vec<f64>) = merge_scatter.iter().copied().unzip();
    // The paper annotates the *fitted line* through (actual, predicted)
    // and its R² — a linearity measure (y = 1.5781x + 3.68, R² = 0.929),
    // not prediction accuracy.
    let fit = SimpleLinearModel::fit(&actuals, &preds).expect("panel g fit");
    let merge_rmse_pct = rmse_pct(&preds, &actuals);

    let result = Fig13Result {
        probe_queries: measurement.queries_run,
        probe_time: measurement.training_time,
        write_dfs_series,
        lines,
        hash_mem: models.line(SubOp::HashBuild).clone(),
        hash_spill: models.hash_spilled.clone(),
        merge_slope: fit.slope,
        merge_r2: fit.r2,
        merge_rmse_pct,
        merge_scatter,
    };
    print_result(cfg, &result);
    result
}

fn print_result(cfg: &ExpConfig, r: &Fig13Result) {
    heading("Fig. 13 — Sub-op model: training cost & accuracy");
    kv(
        "(a) probe campaign",
        format!(
            "{} probe queries in {:.1} min total — ~{:.1} min per sub-op of ~{} \
             queries (paper Fig. 13a: up to ~32 queries in ~7 min per sub-op)",
            r.probe_queries,
            r.probe_time.as_mins(),
            r.probe_time.as_mins() / 11.0,
            r.probe_queries / 11,
        ),
    );
    let flat: Vec<f64> = r.write_dfs_series.iter().map(|&(_, v)| v).collect();
    let mean = flat.iter().sum::<f64>() / flat.len().max(1) as f64;
    kv(
        "(b) WriteDFS per-record @1000B across 1/2/4/8M rows",
        format!(
            "{:?} µs (mean {mean:.2} — flat, as in the paper)",
            flat.iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
    );
    let paper_line = |s: SubOp| match s {
        SubOp::WriteDfs => " (paper: y = 0.0314x + 0.7403, R² 0.999)",
        SubOp::Shuffle => " (paper: y = 0.0126x + 5.2551, R² 0.998)",
        SubOp::RecMerge => " (paper: y = 0.0344x + 36.701, R² 0.967)",
        SubOp::ReadDfs => " (paper: y = 0.0041x + 0.6323)",
        _ => "",
    };
    for (s, slope, intercept, r2) in &r.lines {
        kv(
            &format!("(c-e) {s} line"),
            format!(
                "y = {slope:.4}x + {intercept:.3}, R² = {r2:.4}{}",
                paper_line(*s)
            ),
        );
    }
    kv(
        "(f) HashBuild in-memory",
        format!(
            "y = {:.4}x + {:.2} (paper: 0.0248x + 18.241)",
            r.hash_mem.slope, r.hash_mem.intercept
        ),
    );
    kv(
        "(f) HashBuild spilled",
        format!(
            "y = {:.4}x + {:.2} (paper: 0.1821x - 51.614)",
            r.hash_spill.slope, r.hash_spill.intercept
        ),
    );
    kv(
        "(g) merge-join formula accuracy",
        format!(
            "{} queries, predicted = {:.3}·actual, R² = {:.3}, RMSE% = {:.1} \
             (paper: y = 1.5781x + 3.68, R² 0.929 — consistent overestimate)",
            r.merge_scatter.len(),
            r.merge_slope,
            r.merge_r2,
            r.merge_rmse_pct
        ),
    );
    write_csv(
        cfg,
        "fig13_b_flatness",
        &[Series::new(
            "write_dfs_us_per_record",
            r.write_dfs_series
                .iter()
                .map(|&(rows, v)| (rows as f64, v))
                .collect(),
        )],
    );
    write_csv(
        cfg,
        "fig13_g_merge_join",
        &[Series::new("actual_vs_predicted", r.merge_scatter.clone())],
    );
}
