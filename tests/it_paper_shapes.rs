//! The headline shape assertions of the paper's evaluation, run through
//! the bench experiments in quick mode:
//!
//! * Fig. 10 — the workload inventory matches the paper's counts.
//! * Figs. 11/12 — NN beats linear regression on the join operator, while
//!   LR remains serviceable for aggregation; join training costs far more
//!   than sub-op probing.
//! * Fig. 13 — recovered sub-op lines match the hidden truth; the
//!   composed merge-join formula correlates linearly with actuals and
//!   overestimates.
//! * Fig. 14 / Table 1 — the online remedy beats the raw NN out of range;
//!   offline tuning beats both; the α-tuning batches trend downward.

use bench::experiments::{fig10, fig11, fig12, fig13, fig14, heterogeneous, skew, table1};
use bench::ExpConfig;

fn cfg() -> ExpConfig {
    ExpConfig::quick_silent()
}

#[test]
fn fig10_inventory_matches_paper() {
    let r = fig10::run(&cfg());
    assert_eq!(r.tables, 120);
    assert_eq!(r.row_configs, 20);
    assert_eq!(r.size_configs, 6);
    assert_eq!(r.oor_queries, 45);
    assert!(
        (3_000..=4_500).contains(&r.agg_queries),
        "{}",
        r.agg_queries
    );
    assert!(
        (3_500..=5_000).contains(&r.join_queries),
        "{}",
        r.join_queries
    );
}

#[test]
fn fig11_aggregation_models_learn_and_lr_is_serviceable() {
    let r = fig11::run(&cfg());
    assert!(r.nn_r2 > 0.85, "NN R² {}", r.nn_r2);
    assert!(
        r.lr_r2 > 0.6,
        "LR should be serviceable for agg: {}",
        r.lr_r2
    );
    assert!(r.nn_r2 >= r.lr_r2, "NN {} vs LR {}", r.nn_r2, r.lr_r2);
    assert!(r.total_training.as_secs() > 0.0);
    // The convergence trace improves from its early points.
    let early = r.trace.first().map(|p| p.1).unwrap_or(f64::INFINITY);
    let late = r.trace.last().map(|p| p.1).unwrap_or(f64::INFINITY);
    assert!(late < early, "trace should descend: {early} -> {late}");
}

#[test]
fn fig12_join_defeats_linear_regression_but_not_the_nn() {
    let r = fig12::run(&cfg());
    assert!(r.nn_r2 > 0.75, "NN R² {}", r.nn_r2);
    assert!(
        r.nn_r2 - r.lr_r2 > 0.05,
        "the NN's margin over LR must be clear on joins: NN {} LR {}",
        r.nn_r2,
        r.lr_r2
    );
}

#[test]
fn fig13_subop_lines_match_hidden_truth_and_formula_overestimates() {
    let r = fig13::run(&cfg());
    // Probe campaign is orders of magnitude cheaper than logical-op
    // training (minutes vs hours).
    assert!(r.probe_time.as_mins() < 120.0);
    // WriteDFS line ≈ the simulator's hidden 0.0314x + 0.74.
    let wd = r
        .lines
        .iter()
        .find(|(s, ..)| *s == costing::sub_op::SubOp::WriteDfs)
        .unwrap();
    assert!((wd.1 - 0.0314).abs() < 0.003, "slope {}", wd.1);
    assert!(wd.3 > 0.99, "R² {}", wd.3);
    // Flatness across row counts (Fig. 13b).
    let vals: Vec<f64> = r.write_dfs_series.iter().map(|&(_, v)| v).collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    assert!(
        vals.iter().all(|v| (v - mean).abs() / mean < 0.15),
        "{vals:?}"
    );
    // Two hash regimes, spill above memory at large record sizes.
    assert!(r.hash_spill.predict(1000.0) > 1.5 * r.hash_mem.predict(1000.0));
    // Panel g: tight line, consistent overestimate (paper: 1.578, R² .93).
    assert!(
        r.merge_slope > 1.1 && r.merge_slope < 2.2,
        "slope {}",
        r.merge_slope
    );
    assert!(r.merge_r2 > 0.85, "line R² {}", r.merge_r2);
}

#[test]
fn fig14_and_table1_remedies_beat_raw_extrapolation() {
    let c = cfg();
    let r = fig14::run(&c);
    assert_eq!(r.points.len(), 45);
    assert!(
        r.rmse_remedy < r.rmse_nn,
        "online remedy {} must beat raw NN {}",
        r.rmse_remedy,
        r.rmse_nn
    );
    assert!(
        r.rmse_tuned < r.rmse_nn_on_tuned_split,
        "offline tuning {} must beat raw NN {} on the held-out split",
        r.rmse_tuned,
        r.rmse_nn_on_tuned_split
    );
    // Sub-op stays the most *consistent* estimator (highest correlation),
    // even though its systematic overestimate costs it RMSE%.
    assert!(
        r.corr_sub_op > r.corr_nn,
        "sub-op correlation {} vs NN {}",
        r.corr_sub_op,
        r.corr_nn
    );

    let t = table1::run_with(&c, &r);
    assert_eq!(t.rows.len(), 5);
    assert_eq!(t.rows[0].alpha, 0.5, "α starts at the paper's 0.5");
    assert!(t.rows.iter().all(|b| (0.0..=1.0).contains(&b.alpha)));
    // Per-batch RMSE% is dominated by batch composition (9 queries each),
    // so the trend is asserted on deterministic aggregates instead: the
    // retuned α can never be worse than sticking with the initial 0.5 over
    // the same history (the tuner minimises exactly that objective), and
    // some later batch must improve on the first.
    assert!(
        t.rmse_final_alpha <= t.rmse_initial_alpha,
        "retuned α {} (RMSE% {}) must not lose to the initial α=0.5 (RMSE% {})",
        t.final_alpha,
        t.rmse_final_alpha,
        t.rmse_initial_alpha
    );
    let first = t.rows[0].rmse_pct;
    let best_later = t.rows[1..]
        .iter()
        .map(|b| b.rmse_pct)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_later < first,
        "some later batch should beat the first: first {first}, best later {best_later}"
    );
}

#[test]
fn heterogeneous_personas_validate_with_shared_methodology() {
    let r = heterogeneous::run(&cfg());
    assert_eq!(r.personas.len(), 4);
    for p in &r.personas {
        assert!(
            p.correlation > 0.7,
            "{:?} persona correlation {} too low",
            p.kind,
            p.correlation
        );
        assert!(!p.algorithms_seen.is_empty());
        assert!(p.probe_minutes > 0.0);
    }
}

#[test]
fn skew_sweep_predicts_the_engines_algorithm_switch() {
    let r = skew::run(&cfg());
    assert_eq!(
        r.prediction_hits,
        r.points.len(),
        "all predictions must match"
    );
    // The low-skew point shuffles, the high-skew point skew-joins, and
    // skew costs more.
    let low = &r.points[0];
    let high = r.points.last().unwrap();
    assert_eq!(
        low.actual_algorithm,
        catalog::remote::JoinAlgorithm::HiveShuffleJoin
    );
    assert_eq!(
        high.actual_algorithm,
        catalog::remote::JoinAlgorithm::HiveSkewJoin
    );
    assert!(high.actual_secs > low.actual_secs);
    assert!(high.estimated_secs > low.estimated_secs);
}
