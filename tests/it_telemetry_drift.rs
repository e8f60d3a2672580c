//! Observability contract, end to end: train a logical-op model against
//! the simulator, serve estimates through the [`EstimatorService`], and
//! check that (a) an out-of-range estimate is the remedy outcome for its
//! row, bit for bit, with its provenance returned beside it, and (b)
//! after a simulated regime change on one system the drift monitor flags
//! that model — and only that model — within a single window, and the
//! metrics exposition says so.

use catalog::SystemId;
use costing::estimator::{EstimateSource, OperatorKind};
use costing::features::{features_from_sql, join_dim_names};
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    remedy::{remedy_estimate, RemedyConfig},
    run_training,
};
use costing::service::{CacheStats, EstimatorService, ServiceConfig};
use costing::{publish_drift, ModelKey};
use remote_sim::ClusterEngine;
use sqlkit::RemoteSystem;
use telemetry::{DriftConfig, DriftMonitor};
use workload::{join_training_queries_with, register_tables, TableSpec};

fn fast_fit() -> FitConfig {
    FitConfig {
        topology: TopologyChoice::Fixed {
            layer1: 12,
            layer2: 6,
        },
        iterations: 3_000,
        batch_size: 32,
        trace_every: 0,
        seed: 29,
        scaling: Default::default(),
    }
}

fn join_specs() -> Vec<TableSpec> {
    [1u64, 2, 4, 6, 8]
        .iter()
        .map(|&k| TableSpec::new(k * 1_000_000, 250))
        .collect()
}

/// One pass through the whole loop: train on the simulator (noise
/// reseeded, not disabled), estimate out of range, replay actuals into
/// two registered systems — one faithful, one with a 5× regime change —
/// and read the story back out of the returned estimate, the drift
/// report, and the metrics exposition.
#[test]
fn full_cycle_estimates_and_flags_the_degraded_model() {
    let specs = join_specs();
    let mut engine = ClusterEngine::paper_hive("hive-obs", 11).with_noise_seed(777);
    register_tables(&mut engine, &specs).expect("tables register");

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

    let service = EstimatorService::new(ServiceConfig::default());
    let live = SystemId::new("hive-live");
    let drifty = SystemId::new("hive-drift");
    service.register(live.clone(), LogicalOpCosting::new(model.clone()));
    service.register(drifty.clone(), LogicalOpCosting::new(model.clone()));

    // --- Estimate far out of the trained range: the remedy path must
    // fire, and the returned seconds must be the remedy's own blend for
    // this row at the reported α, not merely resemble it.
    engine
        .register_table(workload::build_table(&TableSpec::new(24_000_000, 250)))
        .unwrap();
    let sql = "SELECT r.a1, s.a1 FROM T24000000_250 r JOIN T4000000_250 s ON r.a1 = s.a1";
    let features = features_from_sql(engine.catalog(), sql).unwrap();
    let est = service
        .estimate(&live, OperatorKind::Join, &features.values)
        .unwrap();
    let (est_alpha, est_pivots) = match &est.source {
        EstimateSource::OnlineRemedy { alpha, pivots } => (*alpha, pivots.clone()),
        other => panic!("expected the remedy path out of range, got {other:?}"),
    };

    assert!(!est_pivots.is_empty(), "an out-of-range row has a pivot");
    let outcome = remedy_estimate(
        &model,
        &features.values,
        &RemedyConfig::default(),
        est_alpha,
    );
    assert_eq!(
        outcome.estimate.to_bits(),
        est.secs.to_bits(),
        "returned seconds vs the remedy outcome at the returned α"
    );
    assert_eq!(
        service.stats(),
        CacheStats { hits: 0, misses: 1 },
        "first request cannot be a cache hit"
    );

    // --- Observe one window of actuals from the simulator. The live
    // system reports faithfully; the drifty one reports a 5× slowdown
    // the model has never seen (a regime change the monitor must catch).
    let observe_sqls: Vec<String> = join_training_queries_with(&specs, &[75])
        .iter()
        .map(|q| q.sql())
        .collect();
    let mut observed = 0usize;
    for sql in &observe_sqls {
        let actual = engine.submit_sql(sql).unwrap().elapsed.as_secs();
        let x = features_from_sql(engine.catalog(), sql).unwrap().values;
        service
            .observe_actual(&live, OperatorKind::Join, &x, actual)
            .unwrap();
        service
            .observe_actual(&drifty, OperatorKind::Join, &x, actual * 5.0)
            .unwrap();
        observed += 2;
    }

    // --- Drift check: everything observed flows into the monitor, the
    // degraded model is flagged inside this first window, the faithful
    // one is left alone.
    let mut monitor: DriftMonitor<ModelKey> = DriftMonitor::new(DriftConfig {
        window: 32,
        min_samples: 6,
        rmse_pct_threshold: 75.0,
        q_error_threshold: 2.5,
    });
    let fed = service.feed_drift_monitor(&mut monitor);
    assert_eq!(fed, observed, "every logged actual reaches the monitor");

    let flagged = publish_drift(&monitor, service.telemetry());
    assert_eq!(
        flagged,
        vec![(drifty.clone(), OperatorKind::Join)],
        "exactly the degraded model is flagged"
    );
    let healthy = monitor
        .status(&(live.clone(), OperatorKind::Join))
        .expect("health entry for the live system");
    assert!(!healthy.drifted, "healthy model flagged: {healthy:?}");
    let degraded = monitor
        .status(&(drifty.clone(), OperatorKind::Join))
        .expect("health entry for the degraded system");
    assert!(degraded.drifted);
    assert!(
        degraded.rmse_pct > healthy.rmse_pct,
        "degraded {} vs healthy {}",
        degraded.rmse_pct,
        healthy.rmse_pct
    );
    let snap = service.telemetry().metrics.snapshot();
    let drifted = |system| snap.gauge("model_drifted", &[("system", system), ("operator", "join")]);
    assert_eq!(
        drifted("hive-drift"),
        Some(1.0),
        "the degraded model's gauge"
    );
    assert_eq!(
        drifted("hive-live"),
        Some(0.0),
        "the faithful model's gauge"
    );

    // --- The exposition carries the whole story and parses as
    // Prometheus text: comment lines, then `name[{labels}] value` rows.
    let text = service.telemetry().metrics.render_prometheus();
    assert!(text.contains("estimator_cache_misses_total"));
    assert!(text.contains("model_drifted"));
    assert!(text.contains("hive-drift"));
    for line in text.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let value = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
        assert!(value.is_some(), "sample line must end in a number: {line}");
        let name_part = &line[..line.rfind(' ').unwrap()];
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line}"
        );
    }
}
