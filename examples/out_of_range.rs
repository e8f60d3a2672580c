//! The out-of-range machinery (Figs. 3, 4, 14): what happens when a query
//! lands far outside the trained grid, and how the online remedy and
//! offline tuning phases recover.
//!
//! ```text
//! cargo run --release --bin out_of_range
//! ```

use costing::estimator::{EstimateSource, OperatorKind};
use costing::features::{features_from_sql, join_dim_names};
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    run_training,
};
use remote_sim::ClusterEngine;
use sqlkit::RemoteSystem;
use workload::{build_table, join_training_queries_with, register_tables, TableSpec};

fn main() {
    let mut hive = ClusterEngine::paper_hive("hive-oor", 5);

    // Train on joins of 1–8 M row tables (the Fig. 14 setup) …
    let train_specs: Vec<TableSpec> = [1u64, 2, 4, 6, 8]
        .iter()
        .map(|&k| TableSpec::new(k * 1_000_000, 500))
        .collect();
    register_tables(&mut hive, &train_specs).expect("tables");
    let queries: Vec<String> = join_training_queries_with(&train_specs, &[100, 50, 25])
        .iter()
        .map(|q| q.sql())
        .collect();
    let training = run_training(&mut hive, OperatorKind::Join, &queries);
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &training.dataset(),
        &FitConfig {
            topology: TopologyChoice::Fixed {
                layer1: 12,
                layer2: 6,
            },
            iterations: 15_000,
            batch_size: 32,
            trace_every: 0,
            seed: 5,
            scaling: Default::default(),
        },
    );
    let mut flow = LogicalOpCosting::new(model);
    for dim in &flow.model.meta.dims {
        println!(
            "trained range of {:<18} [{:>12.0}, {:>12.0}]  step {:.0}",
            dim.name, dim.min, dim.max, dim.step_size
        );
    }

    // … then query a 20 M row join: way off the trained range (Fig. 3's
    // top diamond fails, the remedy kicks in).
    hive.register_table(build_table(&TableSpec::new(20_000_000, 500)))
        .expect("oor table");
    let sql = "SELECT r.a1, s.a1 FROM T20000000_500 r JOIN T4000000_500 s ON r.a1 = s.a1";
    let features = features_from_sql(hive.catalog(), sql).expect("features");
    let estimate = flow.estimate(&features.values);
    match &estimate.source {
        EstimateSource::OnlineRemedy { alpha, pivots } => {
            let names: Vec<&str> = pivots
                .iter()
                .map(|&p| flow.model.meta.dims[p].name.as_str())
                .collect();
            println!(
                "\nremedy triggered: pivot dimension(s) {names:?}, α = {alpha}, \
                 estimate {:.1} s",
                estimate.secs
            );
        }
        other => println!("\nunexpected source {other:?}"),
    }
    println!(
        "raw NN would have said {:.1} s",
        flow.model.predict_nn(&features.values)
    );

    let actual = hive.submit_sql(sql).expect("runs").elapsed.as_secs();
    println!("actual execution {actual:.1} s");
    flow.observe_actual(&features.values, actual);

    // After a few more observed out-of-range executions, α re-fits …
    for k in [6u64, 8, 10, 12] {
        let partner = format!(
            "SELECT r.a1, s.a1 FROM T20000000_500 r JOIN T{}_500 s ON r.a1 = s.a1",
            k * 500_000
        );
        if let Ok(f) = features_from_sql(hive.catalog(), &partner) {
            let _ = flow.estimate(&f.values);
            if let Ok(x) = hive.submit_sql(&partner) {
                flow.observe_actual(&f.values, x.elapsed.as_secs());
            }
        }
    }
    let alpha = flow.adjust_alpha();
    println!(
        "\nafter {} observed executions, α re-fit to {alpha:.2}",
        flow.tuner.observations()
    );

    // … and the offline tuning phase retrains the network on the log.
    let report = flow.offline_tune(&FitConfig::fast());
    println!(
        "offline tuning consumed {} log entries; expanded dims {:?}; RMSE% now {:.1}",
        report.entries_used, report.dims_expanded, report.rmse_pct_after
    );
    let after = flow.estimate(&features.values);
    println!(
        "the same query now estimates {:.1} s via {:?}",
        after.secs, after.source
    );
}
