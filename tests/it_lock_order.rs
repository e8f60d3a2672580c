//! Dynamic validation of the workspace lock-order discipline.
//!
//! These tests only exist with the `lock-order-check` feature, which
//! arms the `parking_lot` shim's thread-local acquisition checker — the
//! workspace's one lock-order enforcer: every ranked lock taken out of
//! order, on any thread and across any number of calls, panics on the
//! spot. Estimates read an atomically loaded snapshot and take one lock
//! at a time (`SERVICE_CACHE` to probe, released before the kernel
//! runs; `TRACE_SUBSCRIBER` per emitted event; `SERVICE_CACHE` again to
//! insert). The nestings that do occur are on the write and exposition
//! sides, and this suite drives each of them:
//!
//! * `EPOCH_COMMIT` → `EPOCH_RETIRED`: publishing a snapshot retires
//!   the previous one inside the commit critical section;
//! * `EPOCH_COMMIT` → `TRACE_SUBSCRIBER`: `observe_actual` and
//!   `adjust_alpha` emit their trail events inside the transaction;
//! * `REGISTRY_METRICS` → `REGISTRY_HELP`: Prometheus exposition.
//!
//! Run with: `cargo test -q --features lock-order-check -p tests`.
#![cfg(feature = "lock-order-check")]

use std::sync::Arc;

use catalog::SystemId;
use costing::estimator::OperatorKind;
use costing::features::agg_dim_names;
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel},
};
use costing::service::{EstimatorService, ServiceConfig};
use neuro::Dataset;
use telemetry::{Telemetry, VecSubscriber};

fn agg_flow() -> LogicalOpCosting {
    let mut inputs = vec![];
    let mut targets = vec![];
    for i in 1..=20 {
        let r = i as f64 * 1e5;
        inputs.push(vec![r, 250.0, r / 10.0, 12.0]);
        targets.push(2.0 + r * 3e-7);
    }
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    LogicalOpCosting::new(model)
}

/// The checker itself must be armed, otherwise a green run below proves
/// nothing: a deliberate inversion on two ranked shim locks panics.
#[test]
fn checker_is_armed() {
    let low = parking_lot::Mutex::new(());
    let high = parking_lot::Mutex::new(());
    low.set_rank(1);
    high.set_rank(2);
    let result = std::panic::catch_unwind(|| {
        let _h = high.lock();
        let _l = low.lock(); // inversion: 1 after 2
    });
    let err = result.expect_err("rank inversion must panic under lock-order-check");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(msg.contains("rank inversion"), "unexpected panic: {msg}");
}

/// The full estimation hot path — cache hits, NN misses, remedy rows,
/// observes, α adjustment, tracing enabled — under 8 threads with the
/// checker armed. Any cache/commit/retired/subscriber acquisition that
/// violates the ranked order panics the worker and fails the test.
#[test]
fn estimation_hot_path_holds_ranked_order_under_contention() {
    let subscriber = Arc::new(VecSubscriber::new());
    let telemetry = Telemetry::with_subscriber(subscriber.clone());
    let service = EstimatorService::with_telemetry(ServiceConfig::default(), telemetry);
    let sys = SystemId::new("lock-order-sys");
    service.register(sys.clone(), agg_flow());

    let rows: Vec<Vec<f64>> = (0..240)
        .map(|i| {
            // Every 7th probe is far out of range: the remedy path emits
            // more events (more subscriber acquisitions) per estimate.
            let r = if i % 7 == 0 {
                9.0e7
            } else {
                (1 + i % 16) as f64 * 1e5
            };
            vec![r, 250.0, r / 10.0, 12.0]
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let service = service.clone();
            let sys = sys.clone();
            let rows = &rows;
            scope.spawn(move || {
                for (i, row) in rows.iter().enumerate() {
                    let est = service
                        .estimate(&sys, OperatorKind::Aggregation, row)
                        .expect("estimate");
                    assert!(est.secs.is_finite());
                    if (i + t) % 40 == 0 {
                        service
                            .observe_actual(&sys, OperatorKind::Aggregation, row, est.secs * 1.1)
                            .expect("observe");
                    }
                }
                service
                    .adjust_alpha(&sys, OperatorKind::Aggregation)
                    .expect("adjust_alpha");
            });
        }
    });

    // Batched path: one cache acquisition to probe, released, a second
    // to insert the misses — re-acquisition, never re-entry.
    let batch = service
        .estimate_batch_pinned(&service.snapshot(), &sys, OperatorKind::Aggregation, &rows)
        .expect("estimate_batch_pinned");
    assert_eq!(batch.len(), rows.len());

    // Registry exposition holds REGISTRY_METRICS → REGISTRY_HELP.
    let text = service.telemetry().metrics.render_prometheus();
    assert!(text.contains("estimator_cache_hits_total"));
    assert!(!subscriber.is_empty(), "tracing was live during the run");
}
