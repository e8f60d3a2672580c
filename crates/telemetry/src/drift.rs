//! Model-health monitoring: rolling error windows per model key.
//!
//! The paper's offline-tuning loop (§4.3) retrains a model when its
//! logged estimates diverge from the actual execution times the remote
//! systems report. [`DriftMonitor`] is the signal generator for that
//! loop: it keeps a sliding window of `(predicted, actual)` pairs per
//! model key — typically `(system, operator)` — and computes the
//! paper's RMSE% plus the Q-error literature's multiplicative error
//! over the window. A model whose rolling error crosses the configured
//! thresholds is *flagged* ([`ModelHealth::drifted`]) for whoever
//! schedules tuning passes.

use mathkit::metrics::rmse_pct;
use std::collections::{BTreeMap, VecDeque};

/// Small denominator guard so Q-error stays finite for near-zero times.
const Q_ERROR_EPS: f64 = 1e-9;

/// Tuning knobs for the drift monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Sliding-window length per model key (observations retained).
    pub window: usize,
    /// Minimum observations before a model can be flagged; below this
    /// the health report carries the numbers but `drifted` stays false.
    pub min_samples: usize,
    /// Rolling RMSE% above which a model counts as drifted.
    pub rmse_pct_threshold: f64,
    /// Mean Q-error above which a model counts as drifted.
    pub q_error_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 64,
            min_samples: 8,
            rmse_pct_threshold: 50.0,
            q_error_threshold: 3.0,
        }
    }
}

/// The rolling health of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHealth {
    /// Observations currently in the window.
    pub samples: usize,
    /// Rolling RMSE% (the paper's `RMSE * 100 / mean(actual)`).
    pub rmse_pct: f64,
    /// Mean multiplicative error `max(p,a) / min(p,a)` over the window.
    pub mean_q_error: f64,
    /// Worst single multiplicative error in the window.
    pub(crate) max_q_error: f64,
    /// Whether the window crossed a drift threshold (with enough
    /// samples to trust it).
    pub drifted: bool,
    /// `(oldest, newest)` model-state epoch among the window's
    /// epoch-tagged samples, `None` when no sample carried an epoch.
    /// A drifted window whose span covers a single epoch attributes the
    /// drift to that exact model version.
    pub epoch_span: Option<(u64, u64)>,
}

fn q_error(predicted: f64, actual: f64) -> f64 {
    let (p, a) = (predicted.abs(), actual.abs());
    (p.max(a) + Q_ERROR_EPS) / (p.min(a) + Q_ERROR_EPS)
}

#[derive(Debug, Clone, Default)]
struct ModelWindow {
    /// `(predicted, actual, producing epoch)` samples, oldest first.
    pairs: VecDeque<(f64, f64, Option<u64>)>,
}

/// Tracks rolling prediction error per model key and flags drift.
///
/// `K` is whatever identifies a model — the costing layer uses
/// `(SystemId, OperatorKind)`. The monitor is plain data (no interior
/// mutability); hold it behind a lock if multiple threads feed it.
#[derive(Debug, Clone)]
pub struct DriftMonitor<K: Ord + Clone> {
    config: DriftConfig,
    windows: BTreeMap<K, ModelWindow>,
}

impl<K: Ord + Clone> Default for DriftMonitor<K> {
    fn default() -> Self {
        DriftMonitor::new(DriftConfig::default())
    }
}

impl<K: Ord + Clone> DriftMonitor<K> {
    /// A monitor with the given thresholds and window length.
    pub fn new(config: DriftConfig) -> Self {
        assert!(config.window > 0, "drift window must be positive");
        assert!(config.min_samples > 0, "drift min_samples must be positive");
        DriftMonitor {
            config,
            windows: BTreeMap::new(),
        }
    }

    /// Records one `(predicted, actual)` pair for `key`, evicting the
    /// oldest pair once the window is full.
    pub fn record(&mut self, key: K, predicted: f64, actual: f64) {
        self.record_versioned(key, predicted, actual, None);
    }

    /// [`DriftMonitor::record`] with provenance: tags the sample with
    /// the model-state epoch that produced `predicted`, so a drift flag
    /// can be attributed to a specific model version (see
    /// [`ModelHealth::epoch_span`]).
    pub fn record_versioned(&mut self, key: K, predicted: f64, actual: f64, epoch: Option<u64>) {
        let window = self.windows.entry(key).or_default();
        if window.pairs.len() == self.config.window {
            window.pairs.pop_front();
        }
        window.pairs.push_back((predicted, actual, epoch));
    }

    /// The current health of `key`, if any observations were recorded.
    pub fn status(&self, key: &K) -> Option<ModelHealth> {
        self.windows.get(key).map(|w| self.health_of(w))
    }

    /// Health of every observed model, keyed like [`DriftMonitor::record`].
    pub fn report(&self) -> BTreeMap<K, ModelHealth> {
        self.windows
            .iter()
            .map(|(k, w)| (k.clone(), self.health_of(w)))
            .collect()
    }

    /// Drops all recorded windows (e.g. after a retraining pass).
    pub fn clear(&mut self) {
        self.windows.clear();
    }

    fn health_of(&self, window: &ModelWindow) -> ModelHealth {
        let predicted: Vec<f64> = window.pairs.iter().map(|&(p, _, _)| p).collect();
        let actual: Vec<f64> = window.pairs.iter().map(|&(_, a, _)| a).collect();
        let epoch_span = window.pairs.iter().filter_map(|&(_, _, e)| e).fold(
            None,
            |span: Option<(u64, u64)>, e| match span {
                None => Some((e, e)),
                Some((lo, hi)) => Some((lo.min(e), hi.max(e))),
            },
        );
        let samples = predicted.len();
        let rmse_pct = rmse_pct(&predicted, &actual);
        let qs: Vec<f64> = predicted
            .iter()
            .zip(&actual)
            .map(|(&p, &a)| q_error(p, a))
            .collect();
        let mean_q_error = if qs.is_empty() {
            1.0
        } else {
            qs.iter().sum::<f64>() / qs.len() as f64
        };
        let max_q_error = qs.iter().copied().fold(1.0, f64::max);
        let drifted = samples >= self.config.min_samples
            && (rmse_pct > self.config.rmse_pct_threshold
                || mean_q_error > self.config.q_error_threshold);
        ModelHealth {
            samples,
            rmse_pct,
            mean_q_error,
            max_q_error,
            drifted,
            epoch_span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DriftConfig {
        DriftConfig {
            window: 8,
            min_samples: 4,
            rmse_pct_threshold: 25.0,
            q_error_threshold: 2.0,
        }
    }

    #[test]
    fn healthy_model_stays_unflagged() {
        let mut m = DriftMonitor::new(cfg());
        for i in 0..8 {
            let actual = 10.0 + i as f64;
            m.record("a", actual * 1.02, actual);
        }
        let h = m.status(&"a").unwrap();
        assert!(!h.drifted);
        assert!(h.rmse_pct < 5.0);
        assert!(h.mean_q_error < 1.1);
    }

    #[test]
    fn degraded_model_flags_within_one_window() {
        let mut m = DriftMonitor::new(cfg());
        for _ in 0..8 {
            m.record("bad", 30.0, 10.0); // 3x over-estimate
        }
        let h = m.status(&"bad").unwrap();
        assert!(h.drifted);
        assert!(h.mean_q_error > 2.5);
    }

    #[test]
    fn min_samples_gates_flagging() {
        let mut m = DriftMonitor::new(cfg());
        for _ in 0..3 {
            m.record("young", 100.0, 1.0);
        }
        let h = m.status(&"young").unwrap();
        assert_eq!(h.samples, 3);
        assert!(h.mean_q_error > 50.0);
        assert!(!h.drifted, "below min_samples must not flag");
        m.record("young", 100.0, 1.0);
        assert!(m.status(&"young").unwrap().drifted);
    }

    #[test]
    fn window_slides_and_recovers() {
        let mut m = DriftMonitor::new(cfg());
        for _ in 0..8 {
            m.record("k", 50.0, 10.0);
        }
        assert!(m.status(&"k").unwrap().drifted);
        // Model retrained: predictions now accurate. After a full
        // window of good pairs, the bad ones have been evicted.
        for _ in 0..8 {
            m.record("k", 10.0, 10.0);
        }
        let h = m.status(&"k").unwrap();
        assert_eq!(h.samples, 8);
        assert!(!h.drifted);
        assert!((h.mean_q_error - 1.0).abs() < 1e-6);
    }

    #[test]
    fn q_error_is_symmetric_and_guarded() {
        assert!((q_error(2.0, 8.0) - q_error(8.0, 2.0)).abs() < 1e-12);
        assert!(q_error(0.0, 0.0).is_finite());
        assert!((q_error(0.0, 0.0) - 1.0).abs() < 1e-6);
        assert!(q_error(0.0, 1.0) > 1e6);
    }

    #[test]
    fn epoch_span_tracks_tagged_samples() {
        let mut m = DriftMonitor::new(cfg());
        m.record("k", 10.0, 10.0);
        assert_eq!(m.status(&"k").unwrap().epoch_span, None);
        m.record_versioned("k", 10.0, 10.0, Some(3));
        m.record_versioned("k", 10.0, 10.0, Some(7));
        m.record_versioned("k", 10.0, 10.0, None);
        assert_eq!(m.status(&"k").unwrap().epoch_span, Some((3, 7)));
        // The span follows the sliding window: once the old epochs are
        // evicted, only the surviving tags contribute.
        for _ in 0..8 {
            m.record_versioned("k", 10.0, 10.0, Some(9));
        }
        assert_eq!(m.status(&"k").unwrap().epoch_span, Some((9, 9)));
    }

    #[test]
    fn report_covers_all_models() {
        let mut m = DriftMonitor::new(cfg());
        m.record(("hive", "join"), 1.0, 1.0);
        m.record(("hive", "agg"), 2.0, 2.0);
        m.record(("presto", "join"), 3.0, 3.0);
        assert_eq!(m.windows.len(), 3);
        let report = m.report();
        assert_eq!(report.len(), 3);
        assert!(report.values().all(|h| h.samples == 1 && !h.drifted));
        m.clear();
        assert!(m.windows.is_empty());
        assert!(m.status(&("hive", "join")).is_none());
    }
}
