//! Drift-monitoring glue for the costing crate.
//!
//! A costing decision reports itself through what it returns: an
//! estimate carries its [`crate::EstimateSource`] (the remedy's α and
//! pivots included), a tuning pass its [`crate::epoch::PipelineReport`],
//! a drift check its [`RetuneOutcome`]. Components with runtime state
//! of their own (the estimation service) hold a
//! [`telemetry::Telemetry`] directly and count into its registry.
//!
//! This module defines the model key used across the workspace,
//! [`publish_drift`], which turns a [`DriftMonitor`] report into
//! registry gauges, and [`DriftRetuner`], which closes the observe →
//! drift → retune loop.

use crate::epoch::{Epoch, TuningPipeline};
use crate::estimator::OperatorKind;
use crate::service::EstimatorService;
use catalog::SystemId;
use telemetry::{Counter, DriftConfig, DriftMonitor, ModelHealth, Telemetry};

/// Identifies one trained model for drift monitoring: which operator on
/// which remote system.
pub type ModelKey = (SystemId, OperatorKind);

/// Publishes a drift monitor's current report into a telemetry handle:
/// per-model gauges (`model_rolling_rmse_pct`, `model_mean_q_error`,
/// `model_drifted`, labelled by system and operator). Returns the
/// flagged keys so callers can schedule retraining.
pub fn publish_drift(monitor: &DriftMonitor<ModelKey>, telemetry: &Telemetry) -> Vec<ModelKey> {
    let reg = &telemetry.metrics;
    reg.set_help(
        "model_rolling_rmse_pct",
        "Rolling RMSE% of a costing model over the drift window.",
    );
    reg.set_help(
        "model_mean_q_error",
        "Mean multiplicative (Q) error of a costing model over the drift window.",
    );
    reg.set_help(
        "model_drifted",
        "1 when the drift monitor currently flags the model, else 0.",
    );
    let mut flagged = Vec::new();
    for (key, health) in monitor.report() {
        publish_health(&key, &health, telemetry);
        if health.drifted {
            flagged.push(key);
        }
    }
    flagged
}

fn publish_health(key: &ModelKey, health: &ModelHealth, telemetry: &Telemetry) {
    let (system, op) = (key.0.to_string(), key.1.to_string());
    let labels = [("system", system.as_str()), ("operator", op.as_str())];
    let reg = &telemetry.metrics;
    reg.gauge("model_rolling_rmse_pct", &labels)
        .set(health.rmse_pct);
    reg.gauge("model_mean_q_error", &labels)
        .set(health.mean_q_error);
    reg.gauge("model_drifted", &labels)
        .set(if health.drifted { 1.0 } else { 0.0 });
}

/// What one [`DriftRetuner::check`] pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneOutcome {
    /// Models the drift monitor flagged during this pass.
    pub flagged: Vec<ModelKey>,
    /// Epoch published by the breach-triggered tuning pass (`None` when
    /// no breach fired, the cooldown suppressed the retune, or the
    /// pipeline found nothing to retrain).
    pub retuned: Option<Epoch>,
    /// `true` when a breach was detected but the retune was suppressed
    /// because the previous one happened too recently.
    pub suppressed_by_cooldown: bool,
}

/// Closes the observe → drift → retune loop: a [`DriftMonitor`] fed
/// with `(predicted, actual)` pairs, a [`TuningPipeline`] to run when a
/// model breaches, and a cooldown so a persistently noisy model cannot
/// force back-to-back retraining storms.
///
/// Each [`DriftRetuner::check`] pass publishes the monitor's health
/// gauges ([`publish_drift`]), returns the flagged models in its
/// [`RetuneOutcome`], and — when the cooldown allows — runs the
/// service's tuning pipeline exactly once for the whole breach set,
/// producing a single epoch bump. The cooldown counts `check` calls
/// rather than wall time, keeping the loop fully deterministic under
/// test.
pub struct DriftRetuner {
    monitor: DriftMonitor<ModelKey>,
    pipeline: TuningPipeline,
    cooldown_checks: u64,
    checks: u64,
    last_retune_check: Option<u64>,
    retunes: Counter,
}

impl DriftRetuner {
    /// Builds a retuner publishing into `telemetry` (registers the
    /// `drift_retunes_total` counter). Default cooldown is one check:
    /// consecutive passes may each retune.
    pub fn new(config: DriftConfig, pipeline: TuningPipeline, telemetry: &Telemetry) -> Self {
        telemetry.metrics.set_help(
            "drift_retunes_total",
            "Tuning passes triggered by a drift-breach alert.",
        );
        let retunes = telemetry.metrics.counter("drift_retunes_total", &[]);
        DriftRetuner {
            monitor: DriftMonitor::new(config),
            pipeline,
            cooldown_checks: 1,
            checks: 0,
            last_retune_check: None,
            retunes,
        }
    }

    /// Sets the cooldown, measured in `check` calls since the last
    /// breach-triggered retune.
    pub fn with_cooldown_checks(mut self, checks: u64) -> Self {
        self.cooldown_checks = checks.max(1);
        self
    }

    /// Feeds one `(predicted, actual)` observation into the monitor.
    pub fn record(&mut self, key: ModelKey, predicted: f64, actual: f64, epoch: Option<u64>) {
        self.monitor.record_versioned(key, predicted, actual, epoch);
    }

    /// Total breach-triggered tuning passes so far.
    pub fn retunes_total(&self) -> u64 {
        self.retunes.get()
    }

    /// One pass of the loop: publish drift health, report breaches,
    /// and retune (once, for the whole flagged set) if the cooldown
    /// allows. Clears the monitor's windows after a retune so the fresh
    /// model is judged only on post-retune traffic.
    pub fn check(&mut self, service: &EstimatorService) -> RetuneOutcome {
        self.checks += 1;
        let flagged = publish_drift(&self.monitor, service.telemetry());
        if flagged.is_empty() {
            return RetuneOutcome {
                flagged,
                retuned: None,
                suppressed_by_cooldown: false,
            };
        }
        let cooled = self.last_retune_check.map_or(true, |at| {
            self.checks.saturating_sub(at) >= self.cooldown_checks
        });
        if !cooled {
            return RetuneOutcome {
                flagged,
                retuned: None,
                suppressed_by_cooldown: true,
            };
        }
        let report = service.run_tuning(&self.pipeline);
        self.retunes.inc();
        self.last_retune_check = Some(self.checks);
        self.monitor.clear();
        RetuneOutcome {
            flagged,
            retuned: report.epoch,
            suppressed_by_cooldown: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> DriftMonitor<ModelKey> {
        let mut m = DriftMonitor::new(DriftConfig {
            window: 8,
            min_samples: 4,
            rmse_pct_threshold: 25.0,
            q_error_threshold: 2.0,
        });
        let healthy = (SystemId::new("hive-a"), OperatorKind::Join);
        let drifted = (SystemId::new("presto-b"), OperatorKind::Aggregation);
        for _ in 0..8 {
            m.record(healthy.clone(), 10.0, 10.0);
            m.record(drifted.clone(), 40.0, 10.0);
        }
        m
    }

    #[test]
    fn publish_drift_sets_gauges_and_returns_the_flagged_keys() {
        let telemetry = Telemetry::new();
        let flagged = publish_drift(&monitor(), &telemetry);
        assert_eq!(
            flagged,
            vec![(SystemId::new("presto-b"), OperatorKind::Aggregation)]
        );
        let snap = telemetry.metrics.snapshot();
        let healthy_labels = [("system", "hive-a"), ("operator", "join")];
        let drifted_labels = [("system", "presto-b"), ("operator", "aggregation")];
        assert_eq!(snap.gauge("model_drifted", &healthy_labels), Some(0.0));
        assert_eq!(snap.gauge("model_drifted", &drifted_labels), Some(1.0));
        assert!(
            snap.gauge("model_rolling_rmse_pct", &drifted_labels)
                .unwrap()
                > 25.0
        );
    }

    #[test]
    fn borrowed_key_lookup_finds_owned_entries() {
        let (inputs, targets) = (1..=12).map(|r| (vec![r as f64], r as f64)).unzip();
        let (model, _) = crate::logical_op::model::LogicalOpModel::fit(
            OperatorKind::Join,
            &["rows"],
            &neuro::Dataset::new(inputs, targets),
            &crate::logical_op::model::FitConfig::fast(),
        );
        let flow = crate::logical_op::flow::LogicalOpCosting::new(model);
        let store = crate::epoch::EpochStore::new(0);
        let (_, snapshot) = store.transaction("register", |tx| {
            for name in ["presto-b", "hive-a"] {
                tx.insert_model(SystemId::new(name), OperatorKind::Join, flow.clone());
            }
        });
        // The snapshot owns its keys; a lookup borrows the system.
        let system = SystemId::new("hive-a");
        assert!(snapshot.model(&system, OperatorKind::Join).is_some());
        assert!(snapshot.model(&system, OperatorKind::Sort).is_none());
        assert!(snapshot
            .model(&SystemId::new("spark-c"), OperatorKind::Join)
            .is_none());
        // Slots are kept in key order, whatever the insertion order.
        assert_eq!(
            snapshot.keys(),
            vec![
                (SystemId::new("hive-a"), OperatorKind::Join),
                (SystemId::new("presto-b"), OperatorKind::Join),
            ]
        );
    }
}
