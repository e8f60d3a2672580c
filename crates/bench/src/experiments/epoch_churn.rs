//! Read-path latency under epoch churn (DESIGN.md §11).
//!
//! The epoch-snapshot refactor's whole point is that estimate traffic
//! never takes a lock on the model registry, so concurrent republishing
//! must not stall readers. This experiment puts a number on that claim:
//! one reader times `estimate` calls (every call a cache miss, so the
//! full snapshot-load + forward-pass path runs) while 0, 1, or 4 writer
//! threads republish the model as fast as they can. The interesting
//! figure is the p99 ratio between the contended and uncontended runs —
//! the acceptance bar for the refactor is "within 2×", i.e. churn costs
//! snapshot reclamation noise, not lock convoys.
//!
//! Writers swap between two *pre-trained* model variants (training
//! happens once, up front), so writer CPU is spent on publication, not
//! on retraining — the bench measures the store, not the optimiser.
//!
//! Results land in `results/epoch_churn.{txt,json}`.

use crate::harness;
use crate::report::{heading, kv, write_text_table, ExpConfig};
use catalog::SystemId;
use costing::logical_op::flow::LogicalOpCosting;
use costing::service::EstimatorService;
use costing::OperatorKind;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnRow {
    /// Number of concurrent republisher threads.
    pub republishers: usize,
    /// Timed estimate calls.
    pub reads: usize,
    /// Epochs published while the reader was being timed.
    pub epochs_published: u64,
    /// Median read latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile read latency, microseconds.
    pub p99_us: f64,
}

/// Result of the epoch-churn experiment.
#[derive(Debug, Clone)]
pub struct EpochChurnResult {
    /// One row per republisher count (0, 1, 4).
    pub rows: Vec<ChurnRow>,
    /// p99 at the highest churn level over p99 uncontended.
    pub p99_ratio: f64,
}

/// Times `reads` estimate calls with `republishers` writer threads
/// churning the store underneath.
fn measure(
    service: &EstimatorService,
    sys: &SystemId,
    a: &LogicalOpCosting,
    b: &LogicalOpCosting,
    republishers: usize,
    reads: usize,
) -> ChurnRow {
    let epoch_before = service.epoch().get();
    let done = AtomicBool::new(false);
    // All writers must be publishing before the first read is timed —
    // otherwise a fast reader drains its iterations while the OS is
    // still scheduling the writer threads and measures no churn at all.
    let start = std::sync::Barrier::new(republishers + 1);
    let mut latencies_us = std::thread::scope(|scope| {
        for w in 0..republishers {
            let service = service.clone();
            let sys = sys.clone();
            let (a, b) = (a.clone(), b.clone());
            let done = &done;
            let start = &start;
            scope.spawn(move || {
                let mut flips = w as u64;
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    let next = if flips % 2 == 0 { a.clone() } else { b.clone() };
                    service.register(sys.clone(), next);
                    service.republish();
                    flips += 1;
                }
            });
        }
        start.wait();
        let mut samples = Vec::with_capacity(reads);
        for i in 0..reads {
            // Unique features per call: every read misses the cache, so
            // all three configurations time the same full path.
            let features = [
                1e5 + i as f64 * 3.7,
                100.0 * (1 + i % 4) as f64 + republishers as f64,
            ];
            let start = Instant::now();
            let est = service
                .estimate(sys, OperatorKind::Aggregation, &features)
                .expect("churn model registered");
            let elapsed = start.elapsed();
            assert!(est.secs.is_finite());
            samples.push(elapsed.as_secs_f64() * 1e6);
        }
        done.store(true, Ordering::Relaxed);
        samples
    });
    let (p50_us, p99_us, _) = harness::summarize(&mut latencies_us);
    ChurnRow {
        republishers,
        reads,
        epochs_published: service.epoch().get() - epoch_before,
        p50_us,
        p99_us,
    }
}

/// Runs the churn sweep and returns the latency table.
pub fn run(cfg: &ExpConfig) -> EpochChurnResult {
    heading("Epoch churn — read-path latency vs concurrent republishers");

    let service = EstimatorService::default();
    let sys = SystemId::new("hive-churn");
    let a = harness::trained_flow(1.0);
    let b = harness::trained_flow(1.5);
    service.register(sys.clone(), a.clone());

    // Long enough that the measured window spans many scheduler quanta;
    // a couple of milliseconds of reads would under-sample the churn.
    let reads = if cfg.quick { 20_000 } else { 100_000 };
    // Warm up allocator and instruction caches before timing.
    let _ = measure(&service, &sys, &a, &b, 0, reads / 10);

    let rows: Vec<ChurnRow> = [0usize, 1, 4]
        .iter()
        .map(|&republishers| measure(&service, &sys, &a, &b, republishers, reads))
        .collect();

    let uncontended_p99 = rows[0].p99_us;
    let contended_p99 = rows[rows.len() - 1].p99_us;
    let p99_ratio = if uncontended_p99 > 0.0 {
        contended_p99 / uncontended_p99
    } else {
        f64::INFINITY
    };

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.republishers.to_string(),
                r.reads.to_string(),
                r.epochs_published.to_string(),
                format!("{:.2}", r.p50_us),
                format!("{:.2}", r.p99_us),
            ]
        })
        .collect();
    write_text_table(
        cfg,
        "epoch_churn",
        &[
            "republishers",
            "reads",
            "epochs published",
            "p50 us",
            "p99 us",
        ],
        &table,
    );
    kv(
        "p99 ratio (4 republishers / uncontended)",
        format!("{p99_ratio:.2}"),
    );
    write_json(cfg, &rows, p99_ratio);

    EpochChurnResult { rows, p99_ratio }
}

/// The document written to `results/epoch_churn.json`.
#[derive(Serialize)]
struct ChurnDoc {
    experiment: String,
    rows: Vec<ChurnRow>,
    p99_ratio_max_vs_uncontended: f64,
}

/// Writes `results/epoch_churn.json` (skipped when output is disabled).
fn write_json(cfg: &ExpConfig, rows: &[ChurnRow], p99_ratio: f64) {
    let Some(dir) = &cfg.out_dir else {
        return;
    };
    let doc = ChurnDoc {
        experiment: "epoch_churn".to_string(),
        rows: rows.to_vec(),
        p99_ratio_max_vs_uncontended: p99_ratio,
    };
    harness::write_json(&dir.join("epoch_churn.json"), &doc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sweep_produces_sane_latencies() {
        let r = run(&ExpConfig::quick_silent());
        assert_eq!(r.rows.len(), 3);
        assert_eq!(
            r.rows
                .iter()
                .map(|row| row.republishers)
                .collect::<Vec<_>>(),
            vec![0, 1, 4]
        );
        for row in &r.rows {
            assert!(row.p50_us > 0.0, "{row:?}");
            assert!(row.p99_us >= row.p50_us, "{row:?}");
        }
        // No publications without writers; plenty with them.
        assert_eq!(r.rows[0].epochs_published, 0);
        assert!(r.rows[2].epochs_published > 0);
        assert!(r.p99_ratio.is_finite() && r.p99_ratio > 0.0);
    }

    #[derive(serde::Deserialize)]
    struct JsonRow {
        republishers: u64,
        reads: u64,
        epochs_published: u64,
        p50_us: f64,
        p99_us: f64,
    }

    #[derive(serde::Deserialize)]
    struct JsonDoc {
        experiment: String,
        rows: Vec<JsonRow>,
        p99_ratio_max_vs_uncontended: f64,
    }

    #[test]
    fn json_payload_is_well_formed() {
        let dir = std::env::temp_dir().join("epoch_churn_json_test");
        let cfg = ExpConfig {
            quick: true,
            out_dir: Some(dir.clone()),
            ..ExpConfig::default()
        };
        let rows = vec![ChurnRow {
            republishers: 4,
            reads: 10,
            epochs_published: 7,
            p50_us: 1.25,
            p99_us: 2.5,
        }];
        write_json(&cfg, &rows, 1.8);
        let text = std::fs::read_to_string(dir.join("epoch_churn.json")).unwrap();
        let doc: JsonDoc = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(doc.experiment, "epoch_churn");
        assert_eq!(doc.rows.len(), 1);
        assert_eq!(doc.rows[0].republishers, 4);
        assert_eq!(doc.rows[0].reads, 10);
        assert_eq!(doc.rows[0].epochs_published, 7);
        assert!((doc.rows[0].p50_us - 1.25).abs() < 1e-9);
        assert!((doc.rows[0].p99_us - 2.5).abs() < 1e-9);
        assert!((doc.p99_ratio_max_vs_uncontended - 1.8).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
