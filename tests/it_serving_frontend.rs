//! Serving-layer contract (DESIGN.md §12): concurrent single-estimate
//! requests coalesced into batches must be *bit-identical* to serial
//! `estimate` calls; overload must shed at admission with typed
//! rejections instead of deadlocking; and every submitted request must
//! resolve — to a reply or a typed rejection — under every combination
//! of workers, shutdown, and rate limiting.
//!
//! Run with `--features lock-order-check` to add runtime lock-rank
//! validation underneath the whole suite (the CI test job does).

use catalog::SystemId;
use costing::estimator::OperatorKind;
use costing::service::EstimatorService;
use integration_tests::flows;
use serving::{Clock, EstimateRequest, Frontend, FrontendConfig, RateLimitConfig, Rejection};
use std::time::{Duration, Instant};

fn service_with_two_systems() -> (EstimatorService, SystemId, SystemId) {
    let service = EstimatorService::default();
    let hive = SystemId::new("hive-fe-it");
    let spark = SystemId::new("spark-fe-it");
    let (j1, a1) = flows(1.0);
    let (j2, a2) = flows(2.5);
    service.register(hive.clone(), j1);
    service.register(hive.clone(), a1);
    service.register(spark.clone(), j2);
    service.register(spark.clone(), a2);
    (service, hive, spark)
}

/// The request mix: both systems, both operators, repeated features.
fn request_mix(hive: &SystemId, spark: &SystemId, n: usize) -> Vec<EstimateRequest> {
    (0..n)
        .map(|i| {
            let system = if i % 3 == 0 {
                spark.clone()
            } else {
                hive.clone()
            };
            if i % 2 == 0 {
                let r = (1 + i % 16) as f64 * 1e5;
                EstimateRequest {
                    tenant: (i % 5) as u64,
                    system,
                    op: OperatorKind::Aggregation,
                    features: vec![r, 250.0, r / 10.0, 12.0],
                }
            } else {
                let r = (1 + i % 12) as f64 * 1e5;
                let s = r / 4.0;
                EstimateRequest {
                    tenant: (i % 5) as u64,
                    system,
                    op: OperatorKind::Join,
                    features: vec![250.0, r, 100.0, s, 16.0, 16.0, s],
                }
            }
        })
        .collect()
}

/// Tentpole contract: replies served through worker threads and
/// cross-request coalescing carry exactly the bits a serial `estimate`
/// loop produces, whatever batches the scheduler happened to form.
#[test]
fn coalesced_replies_are_bit_identical_to_serial() {
    let (service, hive, spark) = service_with_two_systems();
    let mix = request_mix(&hive, &spark, 240);

    let serial: Vec<f64> = mix
        .iter()
        .map(|r| {
            service
                .estimate(&r.system, r.op, &r.features)
                .expect("serial estimate")
                .secs
        })
        .collect();

    let fe = Frontend::new(
        service.clone(),
        FrontendConfig {
            workers: 4,
            coalesce_window_us: 100,
            max_batch: 32,
            ..FrontendConfig::default()
        },
    );
    let epoch = service.epoch().get();
    // Fan the submissions out over threads so arrival order, batch
    // membership, and batch sizes are genuinely scheduler-dependent.
    let mut replies: Vec<Option<serving::EstimateReply>> = vec![None; mix.len()];
    std::thread::scope(|scope| {
        let mut strips: Vec<Vec<(usize, &mut Option<serving::EstimateReply>)>> =
            (0..6).map(|_| Vec::new()).collect();
        for (i, slot) in replies.iter_mut().enumerate() {
            strips[i % 6].push((i, slot));
        }
        for strip in strips {
            let fe = &fe;
            let mix = &mix;
            scope.spawn(move || {
                for (i, slot) in strip {
                    let ticket = fe.submit(mix[i].clone()).expect("admitted");
                    *slot = Some(ticket.wait().expect("estimated"));
                }
            });
        }
    });
    let mut saw_coalescing = false;
    for (i, reply) in replies.iter().enumerate() {
        let reply = reply.as_ref().expect("every slot filled");
        assert_eq!(
            reply.estimate.secs.to_bits(),
            serial[i].to_bits(),
            "request {i}: coalesced {} vs serial {}",
            reply.estimate.secs,
            serial[i]
        );
        assert_eq!(reply.epoch, epoch, "no republish ran, one epoch");
        if reply.batch_size > 1 {
            saw_coalescing = true;
        }
    }
    assert!(
        saw_coalescing,
        "6 submitter threads against a 100us window should coalesce"
    );
    fe.shutdown();
}

/// Coalescing contract: the window is a deadline from a batch's first
/// dequeue, not an idle timeout. A trickle with 50 µs gaps never goes
/// quiet for a 200 µs window, so an idle timer would hold one batch open
/// for the whole 40 ms stream (~800 requests); a deadline seals a batch
/// every window — about five requests, even in a debug build, whose
/// leader spends ~15 µs a row — and 200 in one batch would take a 10 ms
/// stall of the leader.
#[test]
fn a_steady_trickle_cannot_hold_a_batch_open_past_its_window() {
    let (service, hive, spark) = service_with_two_systems();
    let fe = Frontend::new(
        service,
        FrontendConfig {
            workers: 1,
            queue_capacity: 4_096,
            coalesce_window_us: 200,
            max_batch: 1_024,
            ..FrontendConfig::default()
        },
    );
    let mix = request_mix(&hive, &spark, 64);
    let stream_end = Instant::now() + Duration::from_millis(40);
    let mut tickets = Vec::new();
    while Instant::now() < stream_end {
        let ticket = fe.submit(mix[tickets.len() % mix.len()].clone());
        tickets.push(ticket.expect("the queue holds the whole stream"));
        // Paced from the last submit, so a late one never bursts, and
        // yielding, so the pacing loop does not starve the leader.
        let next = Instant::now() + Duration::from_micros(50);
        while Instant::now() < next {
            std::thread::yield_now();
        }
    }
    let sizes: Vec<usize> = tickets
        .into_iter()
        .map(|t| t.wait().expect("estimated").batch_size)
        .collect();
    let largest = sizes.iter().copied().max().unwrap_or(0);
    assert!(
        largest <= 200,
        "{} requests, largest batch {largest}: the window did not seal batches",
        sizes.len()
    );
    fe.shutdown();
}

/// Overload contract: a tiny bounded queue in front of one slow worker
/// sheds with `QueueFull` — and the whole flood still resolves, which
/// is the no-deadlock proof (a hang here fails the harness timeout).
#[test]
fn overload_sheds_at_the_bounded_queue_and_never_deadlocks() {
    let (service, hive, spark) = service_with_two_systems();
    let fe = Frontend::new(
        service,
        FrontendConfig {
            workers: 1,
            queue_capacity: 8,
            coalesce_window_us: 0,
            max_batch: 4,
            ..FrontendConfig::default()
        },
    );
    let mix = request_mix(&hive, &spark, 500);

    let mut admitted = Vec::new();
    let mut shed_queue_full = 0u64;
    for req in &mix {
        match fe.submit(req.clone()) {
            Ok(ticket) => admitted.push(ticket),
            Err(Rejection::QueueFull { capacity }) => {
                assert_eq!(capacity, 8, "rejection names the configured bound");
                shed_queue_full += 1;
            }
            Err(other) => panic!("unexpected rejection under flood: {other:?}"),
        }
    }
    assert!(
        shed_queue_full > 0,
        "500 un-awaited submits must overflow a queue of 8"
    );
    assert!(!admitted.is_empty(), "some requests are admitted");
    // Every admitted ticket resolves; nothing is silently dropped.
    for ticket in admitted {
        let reply = ticket.wait().expect("admitted requests are estimated");
        assert!(reply.estimate.secs.is_finite());
        assert!(reply.batch_size <= 4, "max_batch is honoured");
    }
    fe.shutdown();
    assert!(
        matches!(fe.submit(mix[0].clone()), Err(Rejection::ShuttingDown)),
        "post-shutdown submissions are refused, not queued"
    );
}

/// Completeness contract: valid, unknown-model, and wrong-arity
/// requests interleaved with a mid-stream shutdown — every single
/// submission resolves to a reply or a *typed* rejection, and the
/// ledger reconciles exactly.
#[test]
fn every_request_resolves_to_a_reply_or_a_typed_rejection() {
    let (service, hive, spark) = service_with_two_systems();
    let ghost = SystemId::new("ghost-fe-it");
    let fe = Frontend::new(
        service,
        FrontendConfig {
            workers: 2,
            coalesce_window_us: 50,
            ..FrontendConfig::default()
        },
    );

    let mut requests = request_mix(&hive, &spark, 150);
    for i in 0..150 {
        match i % 3 {
            0 => requests.push(EstimateRequest {
                tenant: 9,
                system: ghost.clone(),
                op: OperatorKind::Aggregation,
                features: vec![1e5, 250.0, 1e4, 12.0],
            }),
            1 => requests.push(EstimateRequest {
                tenant: 9,
                system: hive.clone(),
                op: OperatorKind::Aggregation,
                features: vec![1e5], // wrong arity
            }),
            _ => requests.push(EstimateRequest {
                tenant: 9,
                system: spark.clone(),
                op: OperatorKind::Join,
                features: vec![250.0, 4e5, 100.0, 1e5, 16.0, 16.0, 1e5],
            }),
        }
    }

    let (mut ok, mut unknown, mut arity, mut shutdown, mut queue_full) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let total = requests.len() as u64;
    std::thread::scope(|scope| {
        let fe = &fe;
        let stopper = scope.spawn(move || {
            // Let some traffic through, then slam the door mid-stream.
            std::thread::sleep(std::time::Duration::from_millis(10));
            fe.shutdown();
        });
        for req in requests {
            match fe.submit(req).map(|t| t.wait()) {
                Ok(Ok(reply)) => {
                    assert!(reply.estimate.secs.is_finite());
                    ok += 1;
                }
                Ok(Err(Rejection::Service(costing::service::ServiceError::UnknownModel {
                    ..
                })))
                | Err(Rejection::Service(costing::service::ServiceError::UnknownModel {
                    ..
                })) => unknown += 1,
                Ok(Err(Rejection::Service(costing::service::ServiceError::ArityMismatch {
                    ..
                })))
                | Err(Rejection::Service(costing::service::ServiceError::ArityMismatch {
                    ..
                })) => arity += 1,
                Ok(Err(Rejection::ShuttingDown)) | Err(Rejection::ShuttingDown) => shutdown += 1,
                Ok(Err(Rejection::QueueFull { .. })) | Err(Rejection::QueueFull { .. }) => {
                    queue_full += 1
                }
                Ok(Err(other)) | Err(other) => panic!("untyped outcome: {other:?}"),
            }
        }
        stopper.join().expect("stopper thread");
    });
    assert_eq!(
        ok + unknown + arity + shutdown + queue_full,
        total,
        "ledger reconciles: ok {ok} unknown {unknown} arity {arity} \
         shutdown {shutdown} queue_full {queue_full}"
    );
    assert!(ok > 0, "pre-shutdown traffic succeeded");
    assert!(shutdown > 0, "mid-stream shutdown rejected the tail");
}

/// Rate-limit contract under an injected manual clock: admission
/// decisions are a pure function of virtual time, replayable exactly.
#[test]
fn per_tenant_rate_limits_shed_deterministically_under_manual_clock() {
    let (service, hive, _spark) = service_with_two_systems();
    let clock = Clock::manual(0);
    let fe = Frontend::with_clock(
        service,
        FrontendConfig {
            workers: 0, // drained manually; admission is what's under test
            coalesce_window_us: 0,
            rate_limit: Some(RateLimitConfig {
                burst: 2.0,
                per_tenant_rps: 1_000.0, // one token per virtual millisecond
            }),
            ..FrontendConfig::default()
        },
        clock.clone(),
    );
    let req = |tenant: u64| EstimateRequest {
        tenant,
        system: hive.clone(),
        op: OperatorKind::Aggregation,
        features: vec![4e5, 250.0, 4e4, 12.0],
    };

    // Burst of 2, then the bucket is dry — but only for that tenant.
    let t1 = fe.submit(req(1)).expect("burst 1");
    let t2 = fe.submit(req(1)).expect("burst 2");
    assert!(
        matches!(fe.submit(req(1)), Err(Rejection::RateLimited { tenant: 1 })),
        "third request in the same instant is shed"
    );
    let t3 = fe.submit(req(2)).expect("tenant 2 has its own bucket");

    // One virtual millisecond refills exactly one token.
    clock.advance_micros(1_000);
    let t4 = fe.submit(req(1)).expect("refilled");
    assert!(matches!(
        fe.submit(req(1)),
        Err(Rejection::RateLimited { tenant: 1 })
    ));

    assert_eq!(fe.drain_now(), 4, "all admitted requests drain");
    for t in [t1, t2, t3, t4] {
        let reply = t.wait().expect("admitted requests are estimated");
        assert!(reply.estimate.secs.is_finite());
    }
    fe.shutdown();
}

/// Telemetry contract: the front-end's counters reconcile with what
/// the caller observed — requests in, responses out, sheds by reason.
#[test]
fn frontend_telemetry_reconciles_with_observed_outcomes() {
    let (service, hive, spark) = service_with_two_systems();
    let fe = Frontend::new(
        service.clone(),
        FrontendConfig {
            workers: 0,
            queue_capacity: 4,
            coalesce_window_us: 0,
            ..FrontendConfig::default()
        },
    );
    let mix = request_mix(&hive, &spark, 10);
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for req in &mix {
        match fe.submit(req.clone()) {
            Ok(t) => admitted.push(t),
            Err(Rejection::QueueFull { .. }) => shed += 1,
            Err(other) => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(admitted.len(), 4);
    assert_eq!(shed, 6);
    while fe.drain_now() > 0 {}
    let completed = admitted
        .into_iter()
        .filter(|t| t.try_wait().is_some())
        .count() as u64;
    assert_eq!(completed, 4, "drained tickets resolve immediately");

    let snap = service.telemetry().metrics.snapshot();
    assert_eq!(snap.counter("frontend_requests_total", &[]), Some(10));
    assert_eq!(snap.counter("frontend_responses_total", &[]), Some(4));
    assert_eq!(
        snap.counter("frontend_shed_total", &[("reason", "queue_full")]),
        Some(6)
    );
    assert_eq!(snap.gauge("frontend_queue_depth", &[]), Some(0.0));
    let coalesce = snap
        .histogram("frontend_coalesce_batch_size", &[])
        .expect("coalesce histogram registered");
    assert_eq!(coalesce.count, 1, "one greedy batch served all four");
    fe.shutdown();
}
