//! Concurrency contract of the [`EstimatorService`]: a planner fanning
//! estimates out over threads must get *exactly* what a serial loop gets
//! (bit-identical seconds, same provenance), and the cache counters must
//! account for every request — no lost updates under contention.

use catalog::SystemId;
use costing::estimator::{CostEstimate, OperatorKind};
use costing::service::{EstimatorService, ServiceConfig};
use integration_tests::flows;

fn service_with_two_systems() -> (EstimatorService, SystemId, SystemId) {
    let service = EstimatorService::new(ServiceConfig::default());
    let hive = SystemId::new("hive-conc");
    let spark = SystemId::new("spark-conc");
    let (j1, a1) = flows(1.0);
    let (j2, a2) = flows(2.5);
    service.register(hive.clone(), j1);
    service.register(hive.clone(), a1);
    service.register(spark.clone(), j2);
    service.register(spark.clone(), a2);
    (service, hive, spark)
}

/// The request mix: every entry is `(system, op, features)`. Repeats (for
/// cache hits), both operators, both systems, and a few out-of-range rows
/// (remedy path) are all in the stream.
fn request_mix(
    hive: &SystemId,
    spark: &SystemId,
    n: usize,
) -> Vec<(SystemId, OperatorKind, Vec<f64>)> {
    (0..n)
        .map(|i| {
            let system = if i % 3 == 0 {
                spark.clone()
            } else {
                hive.clone()
            };
            if i % 2 == 0 {
                // Aggregations; every 7th probe is far out of range so the
                // online remedy's blended path is exercised concurrently.
                let r = if i % 7 == 0 {
                    9.0e7
                } else {
                    (1 + i % 16) as f64 * 1e5
                };
                (
                    system,
                    OperatorKind::Aggregation,
                    vec![r, 250.0, r / 10.0, 12.0],
                )
            } else {
                let r = (1 + i % 12) as f64 * 1e5;
                let s = r / 4.0;
                (
                    system,
                    OperatorKind::Join,
                    vec![250.0, r, 100.0, s, 16.0, 16.0, s],
                )
            }
        })
        .collect()
}

fn run_serial(
    service: &EstimatorService,
    mix: &[(SystemId, OperatorKind, Vec<f64>)],
) -> Vec<CostEstimate> {
    mix.iter()
        .map(|(sys, op, x)| service.estimate(sys, *op, x).unwrap())
        .collect()
}

fn run_threaded(
    service: &EstimatorService,
    mix: &[(SystemId, OperatorKind, Vec<f64>)],
    threads: usize,
) -> Vec<CostEstimate> {
    let mut results: Vec<Option<CostEstimate>> = vec![None; mix.len()];
    std::thread::scope(|scope| {
        let mut strips: Vec<Vec<(usize, &mut Option<CostEstimate>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, slot) in results.iter_mut().enumerate() {
            strips[i % threads].push((i, slot));
        }
        for strip in strips {
            let service = service.clone();
            scope.spawn(move || {
                for (i, slot) in strip {
                    let (sys, op, x) = &mix[i];
                    *slot = Some(service.estimate(sys, *op, x).unwrap());
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[test]
fn threaded_fanout_is_bit_identical_to_serial() {
    let (service, hive, spark) = service_with_two_systems();
    let mix = request_mix(&hive, &spark, 600);

    let serial = run_serial(&service, &mix);
    for threads in [2, 4, 8] {
        service.clear_cache();
        let threaded = run_threaded(&service, &mix, threads);
        assert_eq!(serial.len(), threaded.len());
        for (i, (a, b)) in serial.iter().zip(&threaded).enumerate() {
            assert_eq!(
                a.secs.to_bits(),
                b.secs.to_bits(),
                "request {i} diverged with {threads} threads: serial {} vs threaded {}",
                a.secs,
                b.secs
            );
            assert_eq!(a.source, b.source, "provenance diverged at request {i}");
        }
    }
}

#[test]
fn cache_counters_account_for_every_request() {
    let (service, hive, spark) = service_with_two_systems();
    let mix = request_mix(&hive, &spark, 600);

    // Serial baseline: every request is either a hit or a miss.
    service.reset_stats();
    let _ = run_serial(&service, &mix);
    let stats = service.stats();
    assert_eq!(stats.requests(), mix.len() as u64, "serial: {stats:?}");
    assert!(stats.hits > 0, "repeats in the mix should hit: {stats:?}");
    assert!(stats.misses > 0, "first sightings should miss: {stats:?}");

    // Under contention no increment may be lost: hits + misses still
    // equals the exact number of requests issued.
    service.clear_cache();
    service.reset_stats();
    let _ = run_threaded(&service, &mix, 8);
    let stats = service.stats();
    assert_eq!(stats.requests(), mix.len() as u64, "threaded: {stats:?}");

    // A fully warm second pass is all hits.
    service.reset_stats();
    let _ = run_threaded(&service, &mix, 4);
    let stats = service.stats();
    assert_eq!(stats.requests(), mix.len() as u64);
    assert_eq!(
        stats.misses, 0,
        "warm cache must not re-run models: {stats:?}"
    );
}

#[test]
fn writes_between_fanouts_keep_reads_consistent() {
    let (service, hive, _spark) = service_with_two_systems();
    let x = vec![4.0e5, 250.0, 4.0e4, 12.0];
    let before = service
        .estimate(&hive, OperatorKind::Aggregation, &x)
        .unwrap();

    // A write (observed actual on an out-of-range probe) bumps the
    // generation, so cached pre-write answers are not served afterwards.
    let oor = vec![9.0e7, 250.0, 9.0e6, 12.0];
    let _ = service
        .estimate(&hive, OperatorKind::Aggregation, &oor)
        .unwrap();
    service
        .observe_actual(&hive, OperatorKind::Aggregation, &oor, 321.0)
        .unwrap();
    service
        .adjust_alpha(&hive, OperatorKind::Aggregation)
        .unwrap();

    // In-range estimates are a pure function of the (unchanged) NN, so
    // they stay identical; the service must still agree with itself from
    // every thread after the invalidation.
    let after = service
        .estimate(&hive, OperatorKind::Aggregation, &x)
        .unwrap();
    assert_eq!(before.secs.to_bits(), after.secs.to_bits());

    let mix: Vec<_> = (0..64)
        .map(|_| (hive.clone(), OperatorKind::Aggregation, x.clone()))
        .collect();
    let threaded = run_threaded(&service, &mix, 4);
    for t in &threaded {
        assert_eq!(t.secs.to_bits(), after.secs.to_bits());
    }
}
