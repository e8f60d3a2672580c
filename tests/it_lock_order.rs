//! Dynamic validation of the workspace lock-order discipline.
//!
//! These tests only exist with the `lock-order-check` feature, which
//! arms the `parking_lot` shim's thread-local acquisition checker — the
//! workspace's one lock-order enforcer: every ranked lock taken out of
//! order, on any thread and across any number of calls, panics on the
//! spot. Estimates read an atomically loaded snapshot and take one lock
//! at a time (`SERVICE_CACHE` to probe, released before the kernel
//! runs; `SERVICE_CACHE` again to insert). The nestings that do occur
//! are on the write and exposition sides, and this suite drives each of
//! them:
//!
//! * `EPOCH_COMMIT` → `EPOCH_RETIRED`: publishing a snapshot retires
//!   the previous one inside the commit critical section;
//! * `REGISTRY_METRICS` → `REGISTRY_HELP`: Prometheus exposition.
//!
//! The checker also logs every rank a thread acquires; the suite uses
//! that to pin a feedback write to the commit and the retired list, and
//! the read path to the one lock it may take: the costed model's
//! estimate memo.
//!
//! Run with: `cargo test -q --features lock-order-check -p tests`.
#![cfg(feature = "lock-order-check")]

use catalog::{
    Capability, Catalog, ColumnDef, ColumnStats, RemoteSystemProfile, SystemId, SystemKind,
    TableDef, TableStats,
};
use costing::estimator::OperatorKind;
use costing::features::agg_dim_names;
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel},
    PackedOpScratch,
};
use costing::service::{EstimatorService, ServiceConfig};
use costing::EstimateScratch;
use federation::{
    build_workload_pinned, plan_query_with_service_pinned, plan_workload, ScheduleConfig, SlotMap,
    TransferCostModel, WorkloadSpec,
};
use integration_tests::federation_flows;
use neuro::{Dataset, PackedScratch};
use parking_lot::{rank, ranks_acquired_during};

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
/// observes, α adjustment — under 8 threads with the checker armed.
/// Any cache/commit/retired/registry acquisition that violates the
/// ranked order panics the worker and fails the test.
#[test]
fn estimation_hot_path_holds_ranked_order_under_contention() {
    let service = EstimatorService::new(ServiceConfig::default());
    let sys = SystemId::new("lock-order-sys");
    service.register(sys.clone(), agg_flow());

    let rows: Vec<Vec<f64>> = (0..240)
        .map(|i| {
            // Every 7th probe is far out of range: the remedy path.
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

    // A feedback write takes nothing under the commit lock but the
    // retired-snapshot list; the log-eviction gauge `observe_actual`
    // sets afterwards is a registry lookup, taken once the commit is
    // released.
    let op = OperatorKind::Aggregation;
    let observe = ranks_acquired_during(|| {
        service
            .observe_actual(&sys, op, &rows[0], 40.0)
            .expect("observe");
    });
    let expected = [
        rank::EPOCH_COMMIT,
        rank::EPOCH_RETIRED,
        rank::REGISTRY_METRICS,
    ];
    assert_eq!(observe, expected, "observe_actual acquired {observe:?}");
    let adjust = ranks_acquired_during(|| {
        service.adjust_alpha(&sys, op).expect("adjust_alpha");
    });
    let expected = [rank::EPOCH_COMMIT, rank::EPOCH_RETIRED];
    assert_eq!(adjust, expected, "adjust_alpha acquired {adjust:?}");
}

/// The master and one Hive remote, both with join and aggregation
/// models, and two tables on the remote.
fn federation_setup() -> (Catalog, EstimatorService) {
    let mut catalog = Catalog::new();
    catalog
        .register_system(RemoteSystemProfile::new(
            SystemId::master(),
            SystemKind::Teradata,
            1,
            32,
            1 << 38,
            vec![
                Capability::Filter,
                Capability::Project,
                Capability::Join,
                Capability::Aggregate,
            ],
        ))
        .expect("fresh catalog");
    catalog
        .register_system(RemoteSystemProfile::paper_hive_cluster("hive-a"))
        .expect("unique system ids");
    for (name, rows) in [("t_r", 2_000_000u64), ("t_s", 300_000)] {
        let stats = TableStats::new(rows, 250)
            .with_column("a1", ColumnStats::duplicated_range(rows, 1))
            .with_column("a5", ColumnStats::duplicated_range(rows / 10, 10));
        catalog
            .register_table(TableDef::new(
                name,
                vec![
                    ColumnDef::int("a1"),
                    ColumnDef::int("a5"),
                    ColumnDef::chars("d", 242),
                ],
                stats,
                SystemId::new("hive-a"),
            ))
            .expect("unique table names");
    }
    let service = EstimatorService::new(ServiceConfig::default());
    for (id, scale) in [(SystemId::master(), 2.0), (SystemId::new("hive-a"), 1.0)] {
        let (join, agg) = federation_flows(scale);
        service.register(id.clone(), join);
        service.register(id, agg);
    }
    (catalog, service)
}

/// The read path takes no lock but the estimate cache. Every lock the
/// calling thread takes through the pinned estimate
/// entries, both packed kernels, single-query placement, the workload
/// build and `plan_workload` must be a model's `SERVICE_CACHE` memo: a
/// registry lookup (`REGISTRY_METRICS`), a commit or any unranked lock
/// fails here. `plan_workload`'s dispatch threads
/// are not the calling thread, so their locks are not seen.
#[test]
fn read_path_takes_no_lock_but_the_cache() {
    let (catalog, service) = federation_setup();
    let snapshot = service.snapshot();
    let transfer = TransferCostModel::default();
    let master = SystemId::master();
    let agg = OperatorKind::Aggregation;
    let rows: Vec<f64> = (1..=32)
        .flat_map(|i| {
            let r = 1e5 + i as f64 * 2.5e5;
            [r, 250.0, r / 10.0, 12.0]
        })
        .collect();
    let (_, flow) = federation_flows(1.0);
    let packed = flow.model.packed();
    let plan = sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1")
        .expect("fixture SQL parses");
    let mut spec = WorkloadSpec::default();
    for (label, sql, out) in [
        (
            "q0",
            "SELECT a5, SUM(a1) AS s1 FROM t_r GROUP BY a5",
            Some("out_0"),
        ),
        (
            "q1",
            "SELECT r.a1, s.a1 FROM out_0 r JOIN t_s s ON r.a1 = s.a1",
            None,
        ),
        (
            "q2",
            "SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1",
            None,
        ),
    ] {
        spec.push_sql(label, sql, out).expect("fixture SQL parses");
    }

    let mut scratch = EstimateScratch::new();
    let mut out = Vec::new();
    let mut raw = Vec::new();
    let paths = [
        (
            "estimate_pinned",
            ranks_acquired_during(|| {
                for row in rows.chunks_exact(4) {
                    service
                        .estimate_pinned(&snapshot, &master, agg, row)
                        .expect("estimate");
                }
            }),
        ),
        (
            "estimate_batch_flat_pinned_scratch",
            ranks_acquired_during(|| {
                service
                    .estimate_batch_flat_pinned_scratch(
                        &snapshot,
                        &master,
                        agg,
                        &rows,
                        4,
                        &mut out,
                        &mut scratch,
                    )
                    .expect("batch");
            }),
        ),
        (
            "PackedOpModel::predict_batch_into",
            ranks_acquired_during(|| {
                packed.predict_batch_into(&rows, 4, &mut raw, &mut PackedOpScratch::new());
            }),
        ),
        (
            "PackedNetwork::predict_batch_into",
            ranks_acquired_during(|| {
                packed
                    .network()
                    .predict_batch_into(&rows, 4, &mut raw, &mut PackedScratch::new());
            }),
        ),
        (
            "plan_query_with_service_pinned",
            ranks_acquired_during(|| {
                plan_query_with_service_pinned(&catalog, &service, &snapshot, &transfer, &plan)
                    .expect("query plans");
            }),
        ),
        (
            "build_workload_pinned",
            ranks_acquired_during(|| {
                build_workload_pinned(
                    &catalog,
                    &service,
                    &snapshot,
                    &transfer,
                    &spec,
                    &SlotMap::default(),
                )
                .expect("workload builds");
            }),
        ),
        (
            "plan_workload",
            ranks_acquired_during(|| {
                plan_workload(
                    &catalog,
                    &service,
                    &transfer,
                    &spec,
                    &ScheduleConfig::default(),
                )
                .expect("workload plans");
            }),
        ),
    ];
    for (path, ranks) in &paths {
        assert!(
            ranks.iter().all(|&r| r == rank::SERVICE_CACHE),
            "{path} acquired ranks {ranks:?}; the read path may take only SERVICE_CACHE ({})",
            rank::SERVICE_CACHE
        );
    }
    // The log is live: the cached estimates probed the cache.
    assert!(
        paths[0].1.contains(&rank::SERVICE_CACHE),
        "no cache acquisition logged: the rank log is not recording"
    );
}
