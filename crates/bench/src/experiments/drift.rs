//! Model-health drift monitoring: the telemetry pipeline end to end.
//!
//! The paper's offline tuning loop assumes someone notices *when* a model
//! needs retraining ("periodically, this log is fed to the neural network
//! model"). This experiment exercises the workspace's answer — the
//! [`telemetry::DriftMonitor`] fed from the estimation service's
//! execution logs — on a controlled scenario:
//!
//! * two remote systems share the same trained aggregation model;
//! * `hive-stable` keeps behaving as trained (actuals jitter a few
//!   percent around the truth the model learned);
//! * `hive-degraded` suffers a regime change mid-stream (a shrunk
//!   cluster): actuals ramp up to 3× what the model predicts.
//!
//! The monitor must flag the degraded system's model within one window
//! while leaving the stable one alone. The per-`(system, operator)`
//! rolling-RMSE% table lands in `results/drift_health.{txt,csv}`, and
//! the same numbers are published as registry gauges via
//! [`costing::publish_drift`].

use crate::harness::{self, BenchDoc, Envelope, Host};
use crate::report::{heading, kv, write_csv, write_text_table, ExpConfig, Series};
use catalog::SystemId;
use costing::service::EstimatorService;
use costing::{publish_drift, ModelKey, OperatorKind};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use telemetry::{DriftConfig, DriftMonitor, ModelHealth};

/// One row of the model-health table.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// The model's key, `system/operator`.
    pub model: String,
    /// The rolled-up health numbers.
    pub health: ModelHealth,
}

/// Result of the drift experiment.
#[derive(Debug, Clone)]
pub struct DriftExpResult {
    /// One row per monitored model.
    pub rows: Vec<DriftRow>,
    /// The keys the monitor flagged for retraining.
    pub flagged: Vec<ModelKey>,
}

/// One model's health as written to `BENCH_drift.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftJsonRow {
    /// The model's key, `system/operator`.
    pub model: String,
    /// Observations in the rolling window.
    pub samples: u64,
    /// Rolling RMSE%, relative to the actuals.
    pub rmse_pct: f64,
    /// Mean multiplicative (Q) error over the window.
    pub mean_q_error: f64,
    /// Worst Q error over the window.
    pub max_q_error: f64,
    /// Whether the monitor currently flags this model.
    pub drifted: bool,
}

/// The full document written to `BENCH_drift.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftDoc {
    /// Always `"drift"`.
    pub experiment: String,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Master seed the scenario's jitter was generated from.
    pub seed: u64,
    /// The measuring host, stamped by the harness writer.
    #[serde(default)]
    pub host: Option<Host>,
    /// One row per monitored model.
    pub rows: Vec<DriftJsonRow>,
    /// `system/operator` labels of the models flagged for retraining.
    pub flagged: Vec<String>,
}

impl BenchDoc for DriftDoc {
    const NAME: &'static str = "drift";

    fn envelope(&mut self) -> Envelope<'_> {
        Envelope {
            experiment: &self.experiment,
            quick: self.quick,
            rows: self.rows.len(),
            host: &mut self.host,
        }
    }

    /// Health-number sanity and the scenario's acceptance bar — the
    /// flagged set is exactly the rows marked drifted, and the
    /// controlled regime change must have flagged at least one model.
    fn check(&self) -> Result<(), String> {
        let mut drifted_models = Vec::new();
        for (i, r) in self.rows.iter().enumerate() {
            if r.model.is_empty() || !r.model.contains('/') {
                return Err(format!("row {i}: malformed model key {:?}", r.model));
            }
            if r.samples == 0 {
                return Err(format!("row {i}: no samples in the window"));
            }
            if !r.rmse_pct.is_finite() || r.rmse_pct < 0.0 {
                return Err(format!("row {i}: bad rmse_pct {}", r.rmse_pct));
            }
            if !r.mean_q_error.is_finite() || r.mean_q_error < 1.0 {
                return Err(format!("row {i}: bad mean_q_error {}", r.mean_q_error));
            }
            if !r.max_q_error.is_finite() || r.max_q_error < r.mean_q_error {
                return Err(format!(
                    "row {i}: max_q_error {} below mean {}",
                    r.max_q_error, r.mean_q_error
                ));
            }
            if r.drifted {
                drifted_models.push(r.model.clone());
            }
        }
        let mut flagged = self.flagged.clone();
        flagged.sort();
        drifted_models.sort();
        if flagged != drifted_models {
            return Err(format!(
                "flagged set {flagged:?} disagrees with drifted rows {drifted_models:?}"
            ));
        }
        if flagged.is_empty() {
            return Err("the controlled regime change flagged no model".to_string());
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!(
            "{} model rows, {} flagged",
            self.rows.len(),
            self.flagged.len()
        )
    }
}

impl DriftDoc {
    fn new(cfg: &ExpConfig, rows: &[DriftRow], flagged: &[ModelKey]) -> Self {
        DriftDoc {
            experiment: DriftDoc::NAME.to_string(),
            quick: cfg.quick,
            seed: cfg.seed,
            host: None,
            rows: rows
                .iter()
                .map(|r| DriftJsonRow {
                    model: r.model.clone(),
                    samples: r.health.samples as u64,
                    rmse_pct: r.health.rmse_pct,
                    mean_q_error: r.health.mean_q_error,
                    max_q_error: r.health.max_q_error,
                    drifted: r.health.drifted,
                })
                .collect(),
            flagged: flagged.iter().map(|k| format!("{}/{}", k.0, k.1)).collect(),
        }
    }
}

/// Runs the drift scenario and returns the health table.
pub fn run(cfg: &ExpConfig) -> DriftExpResult {
    heading("Drift monitoring — model health per (system, operator)");

    let service = EstimatorService::default();
    let stable = SystemId::new("hive-stable");
    let degraded = SystemId::new("hive-degraded");
    service.register(stable.clone(), harness::trained_flow(1.0));
    service.register(degraded.clone(), harness::trained_flow(1.0));

    let drift_cfg = DriftConfig::default();
    let n = if cfg.quick {
        drift_cfg.window / 2
    } else {
        drift_cfg.window
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD21F7);
    for i in 0..n {
        let rows = rng.gen_range(1e5..1.5e6);
        let size = 100.0 * rng.gen_range(1..=4) as f64;
        let base = harness::agg_truth(rows, size);
        // Stable system: a few percent of execution jitter.
        let jitter = 1.0 + rng.gen_range(-0.03..0.03);
        service
            .observe_actual(
                &stable,
                OperatorKind::Aggregation,
                &[rows, size],
                base * jitter,
            )
            .expect("stable model registered");
        // Degraded system: a regime change ramping actuals up to 3x.
        let ramp = 1.0 + 2.0 * (i as f64 + 1.0) / n as f64;
        service
            .observe_actual(
                &degraded,
                OperatorKind::Aggregation,
                &[rows, size],
                base * ramp * jitter,
            )
            .expect("degraded model registered");
    }

    let mut monitor = DriftMonitor::new(drift_cfg);
    let fed = service.feed_drift_monitor(&mut monitor);
    kv("observations fed to the monitor", fed);
    let flagged = publish_drift(&monitor, service.telemetry());

    let rows: Vec<DriftRow> = monitor
        .report()
        .into_iter()
        .map(|(key, health)| DriftRow {
            model: format!("{}/{}", key.0, key.1),
            health,
        })
        .collect();
    print_health_table(cfg, &rows);
    kv(
        "flagged for retraining",
        if flagged.is_empty() {
            "none".to_string()
        } else {
            flagged
                .iter()
                .map(|k| format!("{}/{}", k.0, k.1))
                .collect::<Vec<_>>()
                .join(", ")
        },
    );

    harness::write(cfg, &mut DriftDoc::new(cfg, &rows, &flagged));

    DriftExpResult { rows, flagged }
}

fn print_health_table(cfg: &ExpConfig, rows: &[DriftRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.health.samples.to_string(),
                format!("{:.2}", r.health.rmse_pct),
                format!("{:.2}", r.health.mean_q_error),
                format!("{:.2}", r.health.max_q_error),
                if r.health.drifted { "DRIFTED" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    write_text_table(
        cfg,
        "drift_health",
        &[
            "model",
            "samples",
            "rolling RMSE%",
            "mean q-error",
            "max q-error",
            "status",
        ],
        &table,
    );
    write_csv(
        cfg,
        "drift_health",
        &[
            Series::new(
                "rolling_rmse_pct",
                rows.iter()
                    .enumerate()
                    .map(|(i, r)| (i as f64, r.health.rmse_pct))
                    .collect(),
            ),
            Series::new(
                "mean_q_error",
                rows.iter()
                    .enumerate()
                    .map(|(i, r)| (i as f64, r.health.mean_q_error))
                    .collect(),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate_doc(text: &str) -> Result<DriftDoc, String> {
        harness::parse(text)
    }

    fn sample_doc() -> DriftDoc {
        DriftDoc {
            experiment: "drift".to_string(),
            quick: true,
            seed: 1,
            host: None,
            rows: vec![
                DriftJsonRow {
                    model: "hive-stable/aggregation".to_string(),
                    samples: 32,
                    rmse_pct: 3.0,
                    mean_q_error: 1.02,
                    max_q_error: 1.08,
                    drifted: false,
                },
                DriftJsonRow {
                    model: "hive-degraded/aggregation".to_string(),
                    samples: 32,
                    rmse_pct: 80.0,
                    mean_q_error: 2.1,
                    max_q_error: 3.0,
                    drifted: true,
                },
            ],
            flagged: vec!["hive-degraded/aggregation".to_string()],
        }
    }

    #[test]
    fn drift_schema_roundtrips_and_validates() {
        let text = serde_json::to_string_pretty(&sample_doc()).unwrap();
        let doc = validate_doc(&text).expect("valid doc");
        assert_eq!(doc.rows.len(), 2);
        assert_eq!(doc.flagged.len(), 1);
    }

    #[test]
    fn drift_validation_rejects_broken_payloads() {
        // Flagged set must be exactly the drifted rows.
        let mut doc = sample_doc();
        doc.flagged.clear();
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("disagrees"));

        // The controlled scenario must flag someone.
        let mut doc = sample_doc();
        doc.rows[1].drifted = false;
        doc.flagged.clear();
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text)
            .unwrap_err()
            .contains("flagged no model"));

        let mut doc = sample_doc();
        doc.rows[0].max_q_error = 1.0; // below its mean
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("max_q_error"));
    }

    #[test]
    fn run_produces_a_doc_that_would_validate() {
        let cfg = ExpConfig::quick_silent();
        let r = run(&cfg);
        let doc = DriftDoc::new(&cfg, &r.rows, &r.flagged);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        validate_doc(&text).expect("live run validates");
    }

    #[test]
    fn degraded_system_is_flagged_and_stable_is_not() {
        let r = run(&ExpConfig::quick_silent());
        assert_eq!(r.rows.len(), 2);
        assert_eq!(
            r.flagged,
            vec![(SystemId::new("hive-degraded"), OperatorKind::Aggregation)]
        );
        let stable = r
            .rows
            .iter()
            .find(|row| row.model == "hive-stable/aggregation")
            .unwrap();
        assert!(!stable.health.drifted);
        assert!(stable.health.rmse_pct < 25.0, "{}", stable.health.rmse_pct);
        let degraded = r
            .rows
            .iter()
            .find(|row| row.model == "hive-degraded/aggregation")
            .unwrap();
        assert!(degraded.health.drifted);
        assert!(degraded.health.rmse_pct > stable.health.rmse_pct);
    }
}
