//! Black-box (logical-operator) costing end to end (§3).
//!
//! When nothing is known about a remote system's internals, the only way
//! in is to execute a grid of training queries and learn the cost surface
//! — here for the aggregation operator (4 dimensions): run the grid,
//! train the two-hidden-layer network with the paper's cross-validation
//! topology search, then serve estimates through the Fig. 3 flow.
//!
//! ```text
//! cargo run --release --bin blackbox_hive
//! ```

use costing::estimator::OperatorKind;
use costing::features::{agg_dim_names, features_from_sql};
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    run_training,
};
use remote_sim::ClusterEngine;
use sqlkit::RemoteSystem;
use workload::{agg_training_queries_with, register_tables, specs_up_to};

fn main() {
    let mut hive = ClusterEngine::paper_hive("hive-blackbox", 7);
    let specs = specs_up_to(2_000_000);
    register_tables(&mut hive, &specs).expect("tables register");

    // Phase 1: execute the training grid (this is the expensive part the
    // paper's Figs. 11a/12a measure — hours of remote cluster time).
    let queries: Vec<String> = agg_training_queries_with(&specs, &[2, 5, 10, 20, 50], 3)
        .iter()
        .map(|q| q.sql())
        .collect();
    println!(
        "executing {} training queries on the black-box remote…",
        queries.len()
    );
    let training = run_training(&mut hive, OperatorKind::Aggregation, &queries);
    println!(
        "training campaign took {:.2} simulated hours",
        training.total_time().as_hours()
    );

    // Phase 2: fit the NN with the paper's cross-validated topology.
    let fit = FitConfig {
        topology: TopologyChoice::CrossValidated {
            step: 1,
            search_iterations: 1_000,
        },
        iterations: 12_000,
        batch_size: 32,
        trace_every: 0,
        seed: 7,
        scaling: Default::default(),
    };
    let (model, report) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &training.dataset(),
        &fit,
    );
    println!(
        "chosen topology: {}x{}; held-out R² = {:.3}, RMSE% = {:.1}",
        report.topology.layer1, report.topology.layer2, report.test_r2, report.test_rmse_pct
    );

    // Phase 3: serve estimates through the Fig. 3 query-time flow.
    let mut flow = LogicalOpCosting::new(model);
    let sql = "SELECT a10, SUM(a1) AS s1, SUM(a2) AS s2 FROM T800000_250 GROUP BY a10";
    let features = features_from_sql(hive.catalog(), sql).expect("features");
    let estimate = flow.estimate(&features.values);
    let actual = hive.submit_sql(sql).expect("query runs").elapsed.as_secs();
    println!("\nquery: {sql}");
    println!("estimated {:.1} s ({:?})", estimate.secs, estimate.source);
    println!("actual    {:.1} s", actual);

    // Every real execution feeds the offline-tuning log (Fig. 3's bottom
    // half); periodic retraining keeps the model current.
    flow.observe_actual(&features.values, actual);
    println!(
        "logged for offline tuning: {} pending record(s)",
        flow.log.len()
    );
}
