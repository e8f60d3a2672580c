//! End-to-end observability plane (DESIGN.md §14): the request span
//! tree assembled across the serving front-end, the estimator service,
//! and the federation planner; and the observe → drift → retune loop
//! closing on a real breach.
//!
//! The span assertions pin the layer's accounting contract: for a
//! front-end request, the recorded stage segments (queue-wait and
//! coalesce on the injected clock, kernel/remedy on the
//! monotonic clock) must never sum past the span's total, and the
//! unattributed remainder must stay small — stages are real
//! measurements, not estimates.

use catalog::{
    Capability, Catalog, ColumnDef, ColumnStats, RemoteSystemProfile, SystemId, SystemKind,
    TableDef, TableStats,
};
use costing::logical_op::model::FitConfig;
use costing::{DriftRetuner, EstimatorService, OperatorKind, TuningPipeline};
use federation::{plan_query_with_service_pinned, TransferCostModel};
use integration_tests::{federation_flows, trained_flow};
use serving::{Clock, EstimateRequest, Frontend, FrontendConfig};
use telemetry::{DriftConfig, SloConfig, Stage};

/// A drained front-end batch produces one leader span whose stage tree
/// reflects the injected clock (queue-wait, coalesce) and the monotonic
/// clock (service stages), and whose segments never sum past the total.
#[test]
fn frontend_span_tree_attributes_stages_and_bounds_the_gap() {
    let service = EstimatorService::default();
    let system = SystemId::new("obs-e2e");
    service.register(system.clone(), trained_flow());
    let spans = service.telemetry().spans.clone();
    spans.set_sampling(1);

    let clock = Clock::manual(0);
    let fe = Frontend::with_clock(
        service,
        FrontendConfig {
            workers: 0, // drained manually for a deterministic leader
            coalesce_window_us: 0,
            slo: Some(SloConfig::default()),
            ..FrontendConfig::default()
        },
        clock.clone(),
    );
    let epoch = fe.service().snapshot().epoch().get();

    let tickets: Vec<_> = (0..4)
        .map(|i| {
            fe.submit(EstimateRequest {
                tenant: 9,
                system: system.clone(),
                op: OperatorKind::Aggregation,
                features: vec![3e5 + i as f64 * 1e4, 200.0],
            })
            .expect("admitted")
        })
        .collect();
    // The whole batch waits 100 injected micros before a leader drains it.
    clock.advance_micros(100);
    assert_eq!(fe.drain_now(), 4);
    for t in tickets {
        t.wait().expect("reply");
    }

    let snap = spans.snapshot();
    assert!(snap.sampled_total >= 1, "no span sampled: {snap:?}");
    let ex = snap
        .exemplars
        .iter()
        .find(|e| e.tenant == 9)
        .expect("leader exemplar for the drained batch");
    assert_eq!(ex.epoch, epoch, "span must carry the pinned epoch");

    // Queue-wait is measured on the injected clock: exactly the 100 us
    // the batch sat admitted (greedy coalesce window = 0 us of it).
    let queue_wait = ex.stage_us(Stage::QueueWait);
    let coalesce = ex.stage_us(Stage::Coalesce);
    assert!(
        (queue_wait - 100.0).abs() < 1e-9,
        "queue-wait {queue_wait} us, want the 100 injected us"
    );
    assert!((0.0..=100.0).contains(&coalesce), "coalesce {coalesce} us");
    // The service stages ran under the leader's armed slab.
    assert!(ex.stage_us(Stage::Kernel) + ex.stage_us(Stage::Remedy) >= 0.0);
    assert!(
        ex.stage_us(Stage::RemoteExec) == 0.0,
        "no remote engine ran in this request"
    );

    // Accounting identity: segments are disjoint measurements, so their
    // sum can never exceed the span total (within f64 noise), and the
    // unattributed remainder (front-end bookkeeping) stays small.
    let attributed = ex.wall_stages_us();
    assert!(
        attributed <= ex.total_us + 1e-6,
        "stages sum to {attributed} us > total {} us",
        ex.total_us
    );
    assert!(
        ex.total_us - attributed < 2_000.0,
        "unattributed gap {} us is not 'measurement error'",
        ex.total_us - attributed
    );
    fe.shutdown();
}

/// Two-system catalog + service, mirroring the federation fanout tests.
fn federation_setup() -> (Catalog, EstimatorService) {
    let mut catalog = Catalog::new();
    catalog
        .register_system(RemoteSystemProfile::paper_hive_cluster("hive-a"))
        .unwrap();
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
        .unwrap();
    for (name, sys, rows) in [
        ("t_r", "hive-a", 4_000_000u64),
        ("t_s", "teradata", 400_000),
    ] {
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
                SystemId::new(sys),
            ))
            .unwrap();
    }
    let service = EstimatorService::default();
    let (j, a) = federation_flows(1.0);
    service.register(SystemId::new("hive-a"), j);
    service.register(SystemId::new("hive-a"), a);
    let (j, a) = federation_flows(3.0);
    service.register(SystemId::master(), j);
    service.register(SystemId::master(), a);
    (catalog, service)
}

/// A sampled federation planning request attributes its whole
/// candidate-costing loop to the federation-placement stage, with the
/// per-estimate service stages nesting *inside* it (so no disjoint-sum
/// identity is asserted across them — see DESIGN.md §14).
#[test]
fn federation_planning_attributes_the_placement_stage() {
    let (catalog, service) = federation_setup();
    let spans = service.telemetry().spans.clone();
    spans.set_sampling(1);

    let snapshot = service.snapshot();
    let plan =
        sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1").unwrap();
    let transfer = TransferCostModel::default();
    {
        let mut guard = spans.start_request(42);
        assert!(guard.is_sampled());
        guard.set_epoch(snapshot.epoch().get());
        let report =
            plan_query_with_service_pinned(&catalog, &service, &snapshot, &transfer, &plan)
                .expect("plan");
        assert_eq!(report.candidates.len(), 2);
    }

    let snap = spans.snapshot();
    let ex = snap
        .exemplars
        .iter()
        .find(|e| e.tenant == 42)
        .expect("planning exemplar");
    let placement = ex.stage_us(Stage::FederationPlacement);
    assert!(
        placement > 0.0,
        "candidate costing attributed no placement time: {ex:?}"
    );
    assert!(
        placement <= ex.total_us + 1e-6,
        "placement {placement} us exceeds span total {} us",
        ex.total_us
    );
}

/// The observe → drift → retune loop: a controlled accuracy collapse
/// trips the drift monitor, which flags the model and triggers exactly
/// one tuning pass (one epoch bump); the cooldown suppresses the immediate
/// re-trigger; post-retune traffic at restored accuracy recovers.
#[test]
fn drift_breach_fires_one_retune_then_cooldown_then_recovery() {
    let service = EstimatorService::default();
    let system = SystemId::new("hive-a");
    service.register(system.clone(), trained_flow());
    let key = (system.clone(), OperatorKind::Aggregation);

    // Window of 16: each 16-observation feed below fully displaces the
    // previous regime, so recovery is judged on recovered traffic only.
    let mut retuner = DriftRetuner::new(
        DriftConfig {
            window: 16,
            ..DriftConfig::default()
        },
        TuningPipeline::new(FitConfig::fast()),
        service.telemetry(),
    )
    .with_cooldown_checks(3);

    // Healthy traffic: predictions match actuals, nothing flags.
    let snapshot = service.snapshot();
    let features: Vec<[f64; 2]> = (0..40)
        .map(|i| [2e5 + (i % 12) as f64 * 1e5, 150.0 + (i % 4) as f64 * 50.0])
        .collect();
    for f in &features[..16] {
        let predicted = service
            .estimate_pinned(&snapshot, &system, OperatorKind::Aggregation, f)
            .expect("estimate")
            .secs;
        retuner.record(
            key.clone(),
            predicted,
            predicted,
            Some(snapshot.epoch().get()),
        );
    }
    let outcome = retuner.check(&service);
    assert!(
        outcome.flagged.is_empty(),
        "healthy traffic flagged: {outcome:?}"
    );
    assert_eq!(retuner.retunes_total(), 0);

    // Regime change: actuals now 4x the prediction. Feed the execution
    // log (retraining data) and the monitor (breach detection).
    for f in &features {
        let predicted = service
            .estimate_pinned(&snapshot, &system, OperatorKind::Aggregation, f)
            .expect("estimate")
            .secs;
        let actual = predicted * 4.0;
        service
            .observe_actual(&system, OperatorKind::Aggregation, f, actual)
            .expect("log observation");
        retuner.record(key.clone(), predicted, actual, Some(snapshot.epoch().get()));
    }
    let epoch_before = service.snapshot().epoch().get();
    let outcome = retuner.check(&service);
    assert_eq!(
        outcome.flagged,
        vec![key.clone()],
        "breach must flag the model"
    );
    assert!(!outcome.suppressed_by_cooldown);
    let retuned_epoch = outcome.retuned.expect("breach must retune").get();
    assert_eq!(
        retuned_epoch,
        epoch_before + 1,
        "exactly one epoch bump from the retune"
    );
    assert_eq!(retuner.retunes_total(), 1);
    assert_eq!(service.snapshot().epoch().get(), retuned_epoch);
    let drifted = service.telemetry().metrics.snapshot().gauge(
        "model_drifted",
        &[("system", "hive-a"), ("operator", "aggregation")],
    );
    assert_eq!(drifted, Some(1.0), "the breach must raise the drift gauge");

    // Still inside the cooldown: a fresh breach is flagged but must not
    // retune again.
    for f in &features[..16] {
        let predicted = service
            .estimate_pinned(&snapshot, &system, OperatorKind::Aggregation, f)
            .expect("estimate")
            .secs;
        retuner.record(
            key.clone(),
            predicted,
            predicted * 4.0,
            Some(snapshot.epoch().get()),
        );
    }
    let outcome = retuner.check(&service);
    assert!(outcome.suppressed_by_cooldown, "{outcome:?}");
    assert_eq!(outcome.retuned, None);
    assert_eq!(retuner.retunes_total(), 1, "cooldown must hold the line");
    assert_eq!(service.snapshot().epoch().get(), retuned_epoch);

    // Recovery: the retuned model meets post-retune traffic head-on.
    let snapshot = service.snapshot();
    for f in &features[..16] {
        let predicted = service
            .estimate_pinned(&snapshot, &system, OperatorKind::Aggregation, f)
            .expect("estimate")
            .secs;
        retuner.record(
            key.clone(),
            predicted,
            predicted * 1.02,
            Some(snapshot.epoch().get()),
        );
    }
    let outcome = retuner.check(&service);
    assert!(
        outcome.flagged.is_empty(),
        "recovered traffic flagged: {outcome:?}"
    );
    assert_eq!(retuner.retunes_total(), 1);
}
