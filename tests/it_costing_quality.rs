//! Cross-crate quality gates: both costing approaches, trained through
//! their public interfaces against the same remote system, must produce
//! estimates in the right ballpark (and with the documented biases) for
//! in-range queries.

use costing::estimator::OperatorKind;
use costing::features::{features_from_sql, join_dim_names};
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    run_training,
};
use integration_tests::{hive_engine, rule_inputs, trained_subop};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{join_training_queries_with, TableSpec};

fn fast_fit() -> FitConfig {
    FitConfig {
        topology: TopologyChoice::Fixed {
            layer1: 12,
            layer2: 6,
        },
        iterations: 3_000,
        batch_size: 32,
        trace_every: 0,
        seed: 17,
        scaling: Default::default(),
    }
}

fn join_specs() -> Vec<TableSpec> {
    [1u64, 2, 4, 6, 8]
        .iter()
        .map(|&k| TableSpec::new(k * 1_000_000, 250))
        .collect()
}

#[test]
fn both_approaches_track_in_range_joins() {
    let specs = join_specs();
    let mut engine = hive_engine(&specs, 21);

    // Logical-op training through the public pipeline.
    let queries: Vec<String> = join_training_queries_with(&specs, &[100, 50, 25])
        .iter()
        .map(|q| q.sql())
        .collect();
    let training = run_training(&mut engine, OperatorKind::Join, &queries);
    let (model, report) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &training.dataset(),
        &fast_fit(),
    );
    assert!(report.test_r2 > 0.7, "join NN R² {}", report.test_r2);
    let flow = LogicalOpCosting::new(model);

    // Sub-op training through the probe pipeline.
    let sub = trained_subop(&mut engine);

    // Evaluate a held-out query shape (not in the grid: 75% selectivity).
    let sql = "SELECT r.a1, s.a1 FROM T8000000_250 r JOIN T2000000_250 s \
               ON r.a1 = s.a1 WHERE s.a1 + r.z < 1500000";
    let plan = sqlkit::sql_to_plan(sql).unwrap();
    let analysis = analyze(engine.catalog(), &plan).unwrap();
    let (info, ctx) = analysis.join.unwrap();
    let actual = engine.submit_plan(&plan).unwrap().elapsed.as_secs();

    let features = features_from_sql(engine.catalog(), sql).unwrap();
    let nn_est = flow.estimate(&features.values).secs;
    let sub_est = sub.estimate_join(&info, &rule_inputs(&info, &ctx)).secs;

    // NN interpolates well in range.
    assert!(
        (nn_est - actual).abs() / actual < 0.5,
        "NN estimate {nn_est} vs actual {actual}"
    );
    // Sub-op lands within its documented overestimation band.
    let ratio = sub_est / actual;
    assert!((0.9..=2.3).contains(&ratio), "sub-op ratio {ratio}");
}

#[test]
fn estimates_scale_monotonically_with_input_size() {
    let specs = join_specs();
    let mut engine = hive_engine(&specs, 22);
    let sub = trained_subop(&mut engine);

    let mut last = 0.0;
    for k in [1u64, 2, 4, 8] {
        let sql = format!(
            "SELECT r.a1, s.a1 FROM T{}_250 r JOIN T1000000_250 s ON r.a1 = s.a1",
            k * 1_000_000
        );
        if k == 1 {
            continue; // self-join of the same table name is not in the catalog twice
        }
        let plan = sqlkit::sql_to_plan(&sql).unwrap();
        let analysis = analyze(engine.catalog(), &plan).unwrap();
        let (info, ctx) = analysis.join.unwrap();
        let est = sub.estimate_join(&info, &rule_inputs(&info, &ctx)).secs;
        assert!(
            est > last,
            "estimate must grow with the probe side: {est} vs {last}"
        );
        last = est;
    }
}

#[test]
fn aggregation_estimates_track_aggregate_count_and_groups() {
    let specs = [TableSpec::new(4_000_000, 250)];
    let mut engine = hive_engine(&specs, 23);
    let sub = trained_subop(&mut engine);

    let est = |sql: &str, engine: &remote_sim::ClusterEngine| {
        let plan = sqlkit::sql_to_plan(sql).unwrap();
        let analysis = analyze(engine.catalog(), &plan).unwrap();
        sub.estimate_agg(analysis.agg.as_ref().unwrap()).secs
    };
    let one = est(
        "SELECT a5, SUM(a1) AS s FROM T4000000_250 GROUP BY a5",
        &engine,
    );
    let five = est(
        "SELECT a5, SUM(a1) AS s1, SUM(a2) AS s2, SUM(a10) AS s3, SUM(a20) AS s4, \
         SUM(a50) AS s5 FROM T4000000_250 GROUP BY a5",
        &engine,
    );
    assert!(
        five > one,
        "more aggregates must cost more: {five} vs {one}"
    );

    // And the estimate tracks the actual within a reasonable band.
    let actual = engine
        .submit_sql("SELECT a5, SUM(a1) AS s FROM T4000000_250 GROUP BY a5")
        .unwrap()
        .elapsed
        .as_secs();
    let ratio = one / actual;
    assert!((0.5..=2.5).contains(&ratio), "agg ratio {ratio}");
}

#[test]
fn remedy_recovers_from_extrapolation_on_this_pipeline() {
    let specs = join_specs();
    let mut engine = hive_engine(&specs, 24);
    let queries: Vec<String> = join_training_queries_with(&specs, &[100, 50])
        .iter()
        .map(|q| q.sql())
        .collect();
    let training = run_training(&mut engine, OperatorKind::Join, &queries);
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &training.dataset(),
        &fast_fit(),
    );
    let flow = LogicalOpCosting::new(model);

    engine
        .register_table(workload::build_table(&TableSpec::new(24_000_000, 250)))
        .unwrap();
    let sql = "SELECT r.a1, s.a1 FROM T24000000_250 r JOIN T4000000_250 s ON r.a1 = s.a1";
    let features = features_from_sql(engine.catalog(), sql).unwrap();
    let est = flow.estimate(&features.values);
    assert!(matches!(
        est.source,
        costing::estimator::EstimateSource::OnlineRemedy { .. }
    ));
    let actual = engine.submit_sql(sql).unwrap().elapsed.as_secs();
    let nn_only = flow.model.predict_nn(&features.values);
    assert!(
        (est.secs - actual).abs() <= (nn_only - actual).abs() * 1.5,
        "remedy {} should not be much worse than NN {} against actual {actual}",
        est.secs,
        nn_only
    );
}
