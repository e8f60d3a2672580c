//! Observability contract, end to end: train a logical-op model against
//! the simulator, serve estimates through the [`EstimatorService`] with a
//! subscriber attached, and check that (a) the decision-trail events
//! agree exactly with the estimate the caller got back, and (b) after a
//! simulated regime change on one system the drift monitor flags that
//! model — and only that model — within a single window.

use std::sync::Arc;

use catalog::SystemId;
use costing::estimator::{EstimateSource, OperatorKind};
use costing::features::{features_from_sql, join_dim_names};
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    run_training,
};
use costing::service::{EstimatorService, ServiceConfig};
use costing::{publish_drift, ModelKey};
use remote_sim::ClusterEngine;
use sqlkit::RemoteSystem;
use telemetry::{DriftConfig, DriftMonitor, Event, Telemetry, VecSubscriber};
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
/// and read the story back out of the events, the drift report, and the
/// metrics exposition.
#[test]
fn full_cycle_traces_decisions_and_flags_the_degraded_model() {
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

    let subscriber = Arc::new(VecSubscriber::new());
    let service = EstimatorService::with_telemetry(
        ServiceConfig::default(),
        Telemetry::with_subscriber(subscriber.clone()),
    );
    let live = SystemId::new("hive-live");
    let drifty = SystemId::new("hive-drift");
    service.register(live.clone(), LogicalOpCosting::new(model.clone()));
    service.register(drifty.clone(), LogicalOpCosting::new(model));

    // --- Estimate far out of the trained range: the remedy path must
    // fire, and the emitted decision trail must agree with the returned
    // estimate, not merely resemble it.
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

    let trail = subscriber.take();
    let pivots_event = trail
        .iter()
        .find_map(|e| match e {
            Event::PivotsDetected { system, pivots, .. } if system == "hive-live" => {
                Some(pivots.clone())
            }
            _ => None,
        })
        .expect("a pivots_detected event");
    assert_eq!(pivots_event, est_pivots, "trail pivots vs returned source");

    let (blend_alpha, blend_nn, blend_reg, blended) = trail
        .iter()
        .find_map(|e| match e {
            Event::RemedyBlend {
                system,
                alpha,
                nn_estimate,
                regression_estimate,
                blended,
                ..
            } if system == "hive-live" => {
                Some((*alpha, *nn_estimate, *regression_estimate, *blended))
            }
            _ => None,
        })
        .expect("a remedy_blend event");
    assert_eq!(blend_alpha, est_alpha, "trail α vs returned source");
    assert_eq!(blended, est.secs, "trail blend vs returned seconds");
    let recombined = blend_alpha * blend_nn + (1.0 - blend_alpha) * blend_reg;
    assert!(
        (recombined - blended).abs() < 1e-9,
        "blend components must recombine: {recombined} vs {blended}"
    );

    let served = trail
        .iter()
        .find_map(|e| match e {
            Event::EstimateServed {
                system,
                secs,
                source,
                cache_hit,
                ..
            } if system == "hive-live" => Some((*secs, source.clone(), *cache_hit)),
            _ => None,
        })
        .expect("an estimate_served event");
    assert_eq!(served.0, est.secs);
    assert!(served.1.starts_with("OnlineRemedy"), "source {}", served.1);
    assert!(!served.2, "first request cannot be a cache hit");

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

    let actual_events = subscriber
        .take()
        .iter()
        .filter(|e| e.kind() == "actual_observed")
        .count();
    assert_eq!(actual_events, observed, "one event per observed actual");

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
    let drift_events = subscriber.take();
    assert!(
        drift_events.iter().any(
            |e| matches!(e, Event::DriftFlagged { model, .. } if model.contains("hive-drift"))
        ),
        "publish_drift must emit a drift_flagged event"
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

/// The single-row and the batch entry points are one body, so the same
/// out-of-range row leaves the same decision trail through either, and
/// every out-of-range row of a batch gets its remedy pair.
#[test]
fn batch_and_single_row_estimates_leave_the_same_remedy_trail() {
    let mut inputs = vec![];
    let mut targets = vec![];
    for r in 1..=15 {
        for s in 1..=4 {
            let (rows, size) = (r as f64 * 1e5, s as f64 * 100.0);
            inputs.push(vec![rows, size]);
            targets.push(1.0 + 2e-6 * rows + 0.01 * size);
        }
    }
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &["rows", "size"],
        &neuro::Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    let subscriber = Arc::new(VecSubscriber::new());
    let service = EstimatorService::with_telemetry(
        ServiceConfig::default(),
        Telemetry::with_subscriber(subscriber.clone()),
    );
    let sys = SystemId::new("hive-live");
    service.register(sys.clone(), LogicalOpCosting::new(model));
    let op = OperatorKind::Aggregation;
    let kinds = |trail: &[Event]| trail.iter().map(Event::kind).collect::<Vec<_>>();

    let oor = vec![2e7, 200.0];
    let single_est = service.estimate(&sys, op, &oor).unwrap();
    let single = subscriber.take();
    assert_eq!(
        kinds(&single),
        ["pivots_detected", "remedy_blend", "estimate_served"]
    );
    service.clear_cache();
    let snapshot = service.snapshot();
    let batch_est = service
        .estimate_batch_pinned(&snapshot, &sys, op, std::slice::from_ref(&oor))
        .unwrap();
    assert_eq!(batch_est, [single_est]);
    // Same kinds, same order, equal pivots / α / blended payloads.
    assert_eq!(subscriber.take(), single);

    service.clear_cache();
    let rows = vec![
        vec![5e5, 200.0],
        vec![3e7, 300.0],
        vec![7e5, 100.0],
        vec![2e7, 5_000.0],
    ];
    let ests = service
        .estimate_batch_pinned(&snapshot, &sys, op, &rows)
        .unwrap();
    let trail = subscriber.take();
    assert_eq!(
        kinds(&trail),
        [
            "pivots_detected",
            "remedy_blend",
            "pivots_detected",
            "remedy_blend",
            "estimate_served",
            "estimate_served",
            "estimate_served",
            "estimate_served",
        ]
    );
    for (pair, est) in trail[..4].chunks(2).zip([&ests[1], &ests[3]]) {
        let EstimateSource::OnlineRemedy { alpha, pivots } = &est.source else {
            panic!("expected the remedy path, got {:?}", est.source);
        };
        assert!(matches!(&pair[0], Event::PivotsDetected { pivots: p, .. } if p == pivots));
        assert!(matches!(
            &pair[1],
            Event::RemedyBlend { alpha: a, blended, .. } if a == alpha && *blended == est.secs
        ));
    }
}
