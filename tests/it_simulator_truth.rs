//! Invariants of the remote-system substrate against the Fig. 10
//! workload: exact cardinalities, monotone costs, deterministic noise,
//! and heterogeneous-persona ordering.

use integration_tests::hive_engine;
use remote_sim::{ClusterConfig, ClusterEngine};
use sqlkit::RemoteSystem;
use workload::{
    agg_training_queries_with, join_training_queries_with, register_tables, AggQuery, TableSpec,
};

#[test]
fn aggregation_outputs_match_fig10_shrink_factors_exactly() {
    let specs = [TableSpec::new(1_000_000, 250), TableSpec::new(40_000, 100)];
    let mut engine = hive_engine(&specs, 41);
    for q in agg_training_queries_with(&specs, &[2, 5, 10, 20, 50, 100], 1) {
        let exec = engine.submit_sql(&q.sql()).unwrap();
        let expect = q.expected_groups();
        assert!(
            (exec.output_rows as f64 - expect as f64).abs() <= 1.0,
            "{}: got {} expected {expect}",
            q.sql(),
            exec.output_rows
        );
    }
}

#[test]
fn join_outputs_match_fig10_selectivities_exactly() {
    let specs = [
        TableSpec::new(1_000_000, 100),
        TableSpec::new(200_000, 100),
        TableSpec::new(40_000, 100),
    ];
    let mut engine = hive_engine(&specs, 42);
    for q in join_training_queries_with(&specs, &[100, 50, 25, 1]) {
        let exec = engine.submit_sql(&q.sql()).unwrap();
        let expect = q.expected_output_rows() as f64;
        let got = exec.output_rows as f64;
        assert!(
            (got - expect).abs() <= expect * 0.01 + 2.0,
            "{}: got {got} expected {expect}",
            q.sql()
        );
    }
}

#[test]
fn elapsed_time_is_monotone_in_table_size() {
    let specs: Vec<TableSpec> = [1u64, 2, 4, 8]
        .iter()
        .map(|&k| TableSpec::new(k * 1_000_000, 250))
        .collect();
    let mut engine = hive_engine(&specs, 43);
    let mut last = 0.0;
    for spec in &specs {
        let sql = format!("SELECT a5, SUM(a1) AS s FROM {} GROUP BY a5", spec.name());
        let t = engine.submit_sql(&sql).unwrap().elapsed.as_secs();
        assert!(t > last, "{}: {t} should exceed {last}", spec.name());
        last = t;
    }
}

#[test]
fn identical_seeds_reproduce_identical_campaigns() {
    let run = || {
        let specs = [TableSpec::new(500_000, 250)];
        let mut e = ClusterEngine::paper_hive("hive-det", 777); // noise ON
        register_tables(&mut e, &specs).unwrap();
        let mut out = vec![];
        for q in agg_training_queries_with(&specs, &[2, 10], 2) {
            out.push(e.submit_sql(&q.sql()).unwrap().elapsed.as_micros());
        }
        out
    };
    assert_eq!(run(), run(), "simulation must be bit-for-bit reproducible");
}

#[test]
fn personas_order_as_expected_on_identical_work() {
    let sql = "SELECT a5, SUM(a1) AS s FROM T2000000_250 GROUP BY a5";
    let spec = [TableSpec::new(2_000_000, 250)];
    let mk = |persona| {
        let mut e =
            ClusterEngine::new("x", persona, ClusterConfig::paper_hive(), 5).without_noise();
        register_tables(&mut e, &spec).unwrap();
        e.submit_sql(sql).unwrap().elapsed.as_secs()
    };
    let hive = mk(remote_sim::personas::hive_persona());
    let spark = mk(remote_sim::personas::spark_persona());
    assert!(
        spark < hive,
        "the Spark persona must beat Hive on identical hardware: {spark} vs {hive}"
    );
}

#[test]
fn training_campaign_time_equals_sum_of_query_times() {
    let specs = [TableSpec::new(100_000, 100)];
    let mut engine = hive_engine(&specs, 44);
    let queries: Vec<AggQuery> = agg_training_queries_with(&specs, &[2, 5], 2);
    let mut sum = 0.0;
    for q in &queries {
        sum += engine.submit_sql(&q.sql()).unwrap().elapsed.as_micros();
    }
    assert!((engine.total_busy().as_micros() - sum).abs() < 1.0);
    assert_eq!(engine.queries_executed(), queries.len() as u64);
}
