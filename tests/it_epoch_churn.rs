//! Epoch-churn contract of the [`EstimatorService`]: readers hammering
//! the estimate path while a writer continuously republishes model
//! snapshots must only ever observe *complete* model states. Every
//! estimate must be bit-identical to what one of the two known model
//! variants produces — never a torn mix — and a batch must come wholly
//! from one pinned snapshot.
//!
//! Run with `--features lock-order-check` to layer runtime lock-rank
//! validation over the same schedule (CI does both).

use catalog::SystemId;
use costing::estimator::OperatorKind;
use costing::features::agg_dim_names;
use costing::hybrid::persist::{load_snapshot, save_snapshot};
use costing::hybrid::PersistError;
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel},
};
use costing::service::{EstimatorService, ServiceConfig};
use neuro::Dataset;
use std::sync::atomic::{AtomicBool, Ordering};

/// Trains one aggregation model variant; `scale` separates the two
/// variants' outputs so a torn read would be detectable.
fn variant(scale: f64) -> LogicalOpCosting {
    let mut inputs = vec![];
    let mut targets = vec![];
    for i in 1..=20 {
        let r = i as f64 * 1e5;
        inputs.push(vec![r, 250.0, r / 10.0, 12.0]);
        targets.push(scale * (2.0 + r * 3e-7));
    }
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    LogicalOpCosting::new(model)
}

/// The probe rows: in-range points plus one far out-of-range row so the
/// remedy path runs under churn too.
fn probe_rows() -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = (1..=12)
        .map(|i| {
            let r = i as f64 * 1e5;
            vec![r, 250.0, r / 10.0, 12.0]
        })
        .collect();
    rows.push(vec![9.0e7, 250.0, 9.0e6, 12.0]);
    rows
}

#[test]
fn reads_under_republish_churn_always_see_a_complete_model_state() {
    let service = EstimatorService::new(ServiceConfig::default());
    let sys = SystemId::new("churn");
    let a = variant(1.0);
    let b = variant(2.5);
    let rows = probe_rows();

    // Ground truth per variant, computed outside the service. The
    // service's read path delegates to the same pure function, so any
    // value that matches neither variant exposes a torn or stale read.
    let truth_a: Vec<u64> = rows.iter().map(|r| a.estimate(r).secs.to_bits()).collect();
    let truth_b: Vec<u64> = rows.iter().map(|r| b.estimate(r).secs.to_bits()).collect();
    assert!(
        truth_a.iter().zip(&truth_b).all(|(x, y)| x != y),
        "variants must be distinguishable on every probe row"
    );

    service.register(sys.clone(), a.clone());
    let epoch_start = service.epoch().get();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer: alternate the two variants and sprinkle no-op
        // republishes, each publication one epoch bump.
        let writer = {
            let service = service.clone();
            let sys = sys.clone();
            let done = &done;
            scope.spawn(move || {
                let mut flips = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let next = if flips % 2 == 0 { b.clone() } else { a.clone() };
                    service.register(sys.clone(), next);
                    service.republish();
                    flips += 1;
                }
                flips
            })
        };

        // Readers: single estimates and batches, every result checked
        // against the two ground-truth variants.
        let mut readers = Vec::new();
        for t in 0..4 {
            let service = service.clone();
            let sys = sys.clone();
            let rows = &rows;
            let truth_a = &truth_a;
            let truth_b = &truth_b;
            readers.push(scope.spawn(move || {
                for i in 0..300 {
                    if (i + t) % 3 == 0 {
                        let batch = service
                            .estimate_batch_pinned(
                                &service.snapshot(),
                                &sys,
                                OperatorKind::Aggregation,
                                rows,
                            )
                            .unwrap();
                        let bits: Vec<u64> = batch.iter().map(|e| e.secs.to_bits()).collect();
                        assert!(
                            bits == *truth_a || bits == *truth_b,
                            "iteration {i}: batch mixed two model states"
                        );
                    } else {
                        let j = (i * 7 + t) % rows.len();
                        let est = service
                            .estimate(&sys, OperatorKind::Aggregation, &rows[j])
                            .unwrap();
                        let got = est.secs.to_bits();
                        assert!(
                            got == truth_a[j] || got == truth_b[j],
                            "iteration {i}: row {j} matches neither variant"
                        );
                    }
                }
            }));
        }
        for r in readers {
            r.join().expect("reader thread");
        }
        done.store(true, Ordering::Relaxed);
        let flips = writer.join().expect("writer thread");
        assert!(flips > 0, "the writer must actually have churned");
        // Every publication is visible as an epoch bump: one register at
        // setup, then two per writer flip.
        assert_eq!(service.epoch().get(), epoch_start + 2 * flips);
    });

    // Quiesced: the service serves exactly the last-registered variant.
    let last = service.snapshot();
    let final_bits: Vec<u64> = rows
        .iter()
        .map(|r| {
            service
                .estimate(&sys, OperatorKind::Aggregation, r)
                .unwrap()
                .secs
                .to_bits()
        })
        .collect();
    let expect = last
        .model(&sys, OperatorKind::Aggregation)
        .expect("model registered");
    let expect_bits: Vec<u64> = rows
        .iter()
        .map(|r| expect.estimate(r).secs.to_bits())
        .collect();
    assert_eq!(final_bits, expect_bits);
}

/// The packed fast path under churn: with the cache disabled, every
/// read runs the snapshot's fused [`costing::PackedOpModel`] kernel
/// through caller scratch. Readers using the flat batch entry point
/// must still only ever observe complete model states, and each pinned
/// snapshot's packed form must agree bit for bit with the reference
/// chain over its model.
#[test]
fn packed_reads_under_republish_churn_stay_bit_consistent() {
    use costing::logical_op::packed::PackedOpScratch;
    use costing::service::EstimateScratch;

    let service = EstimatorService::new(ServiceConfig {
        cache_capacity_per_model: 0, // force the packed compute path
    });
    let sys = SystemId::new("churn-packed");
    let a = variant(1.0);
    let b = variant(2.5);
    let rows = probe_rows();
    let width = rows.first().map(Vec::len).unwrap_or(0);
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();

    let truth_a: Vec<u64> = rows.iter().map(|r| a.estimate(r).secs.to_bits()).collect();
    let truth_b: Vec<u64> = rows.iter().map(|r| b.estimate(r).secs.to_bits()).collect();

    service.register(sys.clone(), a.clone());
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writer = {
            let service = service.clone();
            let sys = sys.clone();
            let done = &done;
            scope.spawn(move || {
                let mut flips = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let next = if flips % 2 == 0 { b.clone() } else { a.clone() };
                    service.register(sys.clone(), next);
                    service.republish();
                    flips += 1;
                }
                flips
            })
        };

        let mut readers = Vec::new();
        for _ in 0..3 {
            let service = service.clone();
            let sys = sys.clone();
            let (flat, truth_a, truth_b) = (&flat, &truth_a, &truth_b);
            readers.push(scope.spawn(move || {
                let mut scratch = EstimateScratch::new();
                let mut packed_scratch = PackedOpScratch::new();
                let mut out = Vec::new();
                for i in 0..200 {
                    let snapshot = service.snapshot();
                    service
                        .estimate_batch_flat_pinned_scratch(
                            &snapshot,
                            &sys,
                            OperatorKind::Aggregation,
                            flat,
                            width,
                            &mut out,
                            &mut scratch,
                        )
                        .unwrap();
                    let bits: Vec<u64> = out.iter().map(|e| e.secs.to_bits()).collect();
                    assert!(
                        bits == *truth_a || bits == *truth_b,
                        "iteration {i}: packed flat batch mixed two model states"
                    );
                    // The pinned snapshot's packed form and the reference
                    // chain over the same model must be the same
                    // generation: identical bits on an in-range probe row.
                    let flow = snapshot
                        .model(&sys, OperatorKind::Aggregation)
                        .expect("model registered");
                    let packed = snapshot
                        .packed(&sys, OperatorKind::Aggregation)
                        .expect("snapshot carries a packed form");
                    let probe = &flat[..width];
                    assert_eq!(
                        flow.model.predict_nn_reference(probe).to_bits(),
                        packed.predict_one(probe, &mut packed_scratch).to_bits(),
                        "iteration {i}: snapshot's packed form diverged from its model"
                    );
                }
            }));
        }
        for r in readers {
            r.join().expect("reader thread");
        }
        done.store(true, Ordering::Relaxed);
        let flips = writer.join().expect("writer thread");
        assert!(flips > 0, "the writer must actually have churned");
    });
}

#[test]
fn pinned_batches_survive_concurrent_tuning_pipeline_passes() {
    let service = EstimatorService::new(ServiceConfig::default());
    let sys = SystemId::new("churn-tune");
    let flow = variant(1.0);
    service.register(sys.clone(), flow);
    let rows = probe_rows();

    // Feed observations that keep the tuning pipeline busy retraining.
    for i in 0..8 {
        let r = 1.6e6 + i as f64 * 1e5;
        service
            .observe_actual(
                &sys,
                OperatorKind::Aggregation,
                &[r, 250.0, r / 10.0, 12.0],
                2.0 + r * 3e-7,
            )
            .unwrap();
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let tuner = {
            let service = service.clone();
            let sys = sys.clone();
            let done = &done;
            scope.spawn(move || {
                let pipeline = costing::TuningPipeline::new(FitConfig::fast());
                let mut passes = 0u32;
                while !done.load(Ordering::Relaxed) {
                    service.run_tuning(&pipeline);
                    // Refill the log so later passes retrain too.
                    let r = 1.7e6;
                    let _ = service.observe_actual(
                        &sys,
                        OperatorKind::Aggregation,
                        &[r, 250.0, r / 10.0, 12.0],
                        2.0 + r * 3e-7,
                    );
                    passes += 1;
                }
                passes
            })
        };
        let mut readers = Vec::new();
        for _ in 0..3 {
            let service = service.clone();
            let sys = sys.clone();
            let rows = &rows;
            readers.push(scope.spawn(move || {
                for _ in 0..120 {
                    // A pinned snapshot must answer consistently no
                    // matter how many epochs the tuner publishes.
                    let snapshot = service.snapshot();
                    let batch = service
                        .estimate_batch_pinned(&snapshot, &sys, OperatorKind::Aggregation, rows)
                        .unwrap();
                    let again = service
                        .estimate_batch_pinned(&snapshot, &sys, OperatorKind::Aggregation, rows)
                        .unwrap();
                    assert_eq!(batch, again, "pinned snapshot answered inconsistently");
                }
            }));
        }
        for r in readers {
            r.join().expect("reader thread");
        }
        done.store(true, Ordering::Relaxed);
        let passes = tuner.join().expect("tuner thread");
        assert!(passes > 0);
    });
}

/// The recovery path end to end: a snapshot saved to disk, reloaded
/// after the service has moved on, and published again by
/// `rollback_to` serves exactly what it served when it was saved.
#[test]
fn a_reloaded_snapshot_rolls_the_service_back_under_a_new_epoch() {
    let service = EstimatorService::new(ServiceConfig::default());
    let systems = [SystemId::new("churn-a"), SystemId::new("churn-b")];
    service.register(systems[0].clone(), variant(1.0));
    service.register(systems[1].clone(), variant(2.5));
    let rows = probe_rows();
    // Out-of-range actuals feed the log and the α tuner, so the saved
    // state is more than two freshly trained models.
    for i in 0..6 {
        let r = 6.0e7 + i as f64 * 5e6;
        service
            .observe_actual(
                &systems[0],
                OperatorKind::Aggregation,
                &[r, 250.0, r / 10.0, 12.0],
                2.0 + r * 4e-7,
            )
            .unwrap();
    }
    service
        .adjust_alpha(&systems[0], OperatorKind::Aggregation)
        .unwrap();
    let bits = |service: &EstimatorService| -> Vec<u64> {
        systems
            .iter()
            .flat_map(|sys| rows.iter().map(move |row| (sys, row)))
            .map(|(sys, row)| {
                let estimate = service.estimate(sys, OperatorKind::Aggregation, row);
                estimate.unwrap().secs.to_bits()
            })
            .collect()
    };
    let saved = service.snapshot();
    let saved_bits = bits(&service);

    let path = std::env::temp_dir().join(format!("it-epoch-churn-{}.json", std::process::id()));
    save_snapshot(&saved, &path).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    assert_eq!(loaded.epoch(), saved.epoch());
    assert_eq!(loaded.lineage(), saved.lineage());

    // Two more epochs, each changing what the service answers.
    service.register(systems[0].clone(), variant(4.0));
    service.register(systems[1].clone(), variant(0.5));
    assert_ne!(bits(&service), saved_bits);
    let before = service.epoch();

    let published = service.rollback_to(&loaded);
    assert_eq!(bits(&service), saved_bits, "estimates of the saved epoch");
    assert_eq!(service.epoch(), published.epoch());
    assert_eq!(
        published.epoch().get(),
        before.get() + 1,
        "a rollback advances the epoch, it does not rewind it"
    );
    let lineage = published.lineage();
    assert_eq!(lineage.parent, Some(before.get()));
    assert_eq!(lineage.restores, Some(saved.epoch().get()));
    // Log and tuner came back with the models.
    let restored = published
        .model(&systems[0], OperatorKind::Aggregation)
        .unwrap();
    let original = saved.model(&systems[0], OperatorKind::Aggregation).unwrap();
    assert_eq!(restored.log.len(), 6);
    assert_eq!(restored.tuner.alpha(), original.tuner.alpha());

    // A file cut short is refused, not half-loaded and not a panic.
    let json = std::fs::read(&path).unwrap();
    std::fs::write(&path, &json[..json.len() / 2]).unwrap();
    assert!(matches!(load_snapshot(&path), Err(PersistError::Serde(_))));
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(load_snapshot(&path), Err(PersistError::Io(_))));
}
