//! The offline tuning phase (§3).
//!
//! "Whenever IntelliSphere executes a remote operator on an external
//! system … it captures the actual execution cost and pushes this
//! information to a log. Periodically, this log is fed to the neural
//! network model to tune its structure with the new observed data."
//! Range metadata is expanded only under the continuity rule (see
//! [`crate::logical_op::dims`]).

use crate::logical_op::model::{FitConfig, LogicalOpModel};
use neuro::Dataset;
use serde::{Deserialize, Serialize};

/// One logged remote execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LogEntry {
    /// The operator's model features.
    pub(crate) features: Vec<f64>,
    /// Observed elapsed time, seconds.
    pub(crate) actual_secs: f64,
}

/// Default bound on pending log entries when none is configured.
pub(crate) const DEFAULT_LOG_CAPACITY: usize = 8192;

/// The execution log feeding offline tuning.
///
/// The log is bounded: once `capacity()` entries are pending, each new
/// observation evicts the oldest one, so a system that never runs a
/// tuning pass cannot grow memory without limit. Evictions are counted
/// in `ExecutionLog::dropped` for telemetry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionLog {
    entries: Vec<LogEntry>,
    /// Configured bound; `None` means [`DEFAULT_LOG_CAPACITY`]. Kept as
    /// an `Option` so profiles persisted before the bound existed load
    /// with the default.
    #[serde(default)]
    capacity: Option<usize>,
    /// Total entries evicted oldest-first since the log was created.
    #[serde(default)]
    dropped: u64,
}

impl ExecutionLog {
    /// An empty log with the default capacity.
    pub fn new() -> Self {
        ExecutionLog::default()
    }

    /// The bound on pending entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity.unwrap_or(DEFAULT_LOG_CAPACITY).max(1)
    }

    /// Reconfigures the bound (zero is treated as one), evicting
    /// oldest-first immediately if the log is over the new bound.
    #[cfg(test)]
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = Some(capacity.max(1));
        let cap = self.capacity();
        if self.entries.len() > cap {
            let excess = self.entries.len() - cap;
            self.entries.drain(..excess);
            self.dropped += excess as u64;
        }
    }

    /// Total observations evicted (oldest-first) because the log was at
    /// capacity when they would have been retained.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends one observation ("Dump a record into the batch", Fig. 3),
    /// evicting the oldest pending entry if the log is at capacity.
    pub fn push(&mut self, features: Vec<f64>, actual_secs: f64) {
        let cap = self.capacity();
        if self.entries.len() >= cap {
            let excess = self.entries.len() + 1 - cap;
            self.entries.drain(..excess);
            self.dropped += excess as u64;
        }
        self.entries.push(LogEntry {
            features,
            actual_secs,
        });
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pending entries, oldest first (read-only view for drift
    /// monitoring and reports).
    pub(crate) fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// The entries as a dataset.
    pub(crate) fn dataset(&self) -> Dataset {
        Dataset::new(
            self.entries.iter().map(|e| e.features.clone()).collect(),
            self.entries.iter().map(|e| e.actual_secs).collect(),
        )
    }

    /// Drains the log (after a tuning pass consumed it).
    pub(crate) fn drain(&mut self) -> Vec<LogEntry> {
        std::mem::take(&mut self.entries)
    }
}

/// What a tuning pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Entries consumed from the log.
    pub entries_used: usize,
    /// Dimensions whose `[min,max]` range was expanded.
    pub dims_expanded: Vec<usize>,
    /// Held-out RMSE% after retraining.
    pub rmse_pct_after: f64,
}

/// Runs one offline tuning pass: absorb logged ranges (continuity rule),
/// retrain the network on training ∪ log, and drain the log.
pub fn offline_tune(
    model: &mut LogicalOpModel,
    log: &mut ExecutionLog,
    beta: f64,
    config: &FitConfig,
) -> TuneReport {
    if log.is_empty() {
        return TuneReport {
            entries_used: 0,
            dims_expanded: vec![],
            rmse_pct_after: f64::NAN,
        };
    }
    let extra = log.dataset();
    // Absorb under the continuity rule FIRST, on the pre-retrain metadata;
    // retraining rebuilds metadata from the raw union (which would wrongly
    // swallow discontiguous points), so the absorbed metadata is restored
    // afterwards.
    let dims_expanded = model.meta.absorb_rows(&extra.inputs, beta);
    let preserved_meta = model.meta.clone();
    // The log is typically a thin slice of newly-observed territory next
    // to a much larger in-range training set, and refitting the scalers
    // to the extended range compresses that territory further. Oversample
    // the log so the new region carries roughly a quarter of the SGD
    // sampling mass; duplicating observations adds no information but
    // makes mini-batch training actually visit the region being learned.
    let n_train = model.training_data().len();
    let reps = (n_train + extra.len())
        .div_ceil(2 * extra.len().max(1))
        .max(1);
    let mut weighted = extra.clone();
    for _ in 1..reps {
        weighted.extend(&extra);
    }
    let rmse_pct_after = model.retrain(&weighted, config);
    model.meta = preserved_meta;
    let entries_used = log.drain().len();
    TuneReport {
        entries_used,
        dims_expanded,
        rmse_pct_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::OperatorKind;

    fn base_model() -> LogicalOpModel {
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=15 {
            for s in 1..=4 {
                let rows = r as f64 * 1e5;
                let size = s as f64 * 100.0;
                inputs.push(vec![rows, size]);
                targets.push(0.5 + 3e-6 * rows + 0.02 * size);
            }
        }
        let data = Dataset::new(inputs, targets);
        LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size"],
            &data,
            &FitConfig::fast(),
        )
        .0
    }

    #[test]
    fn log_evicts_oldest_first_at_capacity() {
        let mut log = ExecutionLog::new();
        log.set_capacity(3);
        for i in 0..5 {
            log.push(vec![i as f64], i as f64);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let oldest: Vec<f64> = log.entries().iter().map(|e| e.actual_secs).collect();
        assert_eq!(oldest, vec![2.0, 3.0, 4.0]);
        // Shrinking the bound evicts immediately, still oldest-first.
        log.set_capacity(1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 4);
        assert_eq!(log.entries()[0].actual_secs, 4.0);
    }

    #[test]
    fn unbounded_era_json_loads_with_the_default_capacity() {
        let json = r#"{"entries":[{"features":[1.0,2.0],"actual_secs":3.0}]}"#;
        let log: ExecutionLog = serde_json::from_str(json).expect("legacy log");
        assert_eq!(log.len(), 1);
        assert_eq!(log.capacity(), DEFAULT_LOG_CAPACITY);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn log_accumulates_and_drains() {
        let mut log = ExecutionLog::new();
        assert!(log.is_empty());
        log.push(vec![1.0, 2.0], 3.0);
        log.push(vec![4.0, 5.0], 6.0);
        assert_eq!(log.len(), 2);
        let ds = log.dataset();
        assert_eq!(ds.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn tuning_consumes_log_and_improves_oor_accuracy() {
        let mut model = base_model();
        let mut log = ExecutionLog::new();
        // Log a contiguous ladder of larger row counts (continuity holds:
        // trained max 1.5M with top step 1e5; beta=2 slack 2e5).
        let mut rows = 1.6e6;
        while rows <= 3.0e6 {
            for s in [100.0, 200.0] {
                log.push(vec![rows, s], 0.5 + 3e-6 * rows + 0.02 * s);
            }
            rows += 2e5;
        }
        let probe = vec![2.8e6, 200.0];
        let truth = 0.5 + 3e-6 * 2.8e6 + 0.02 * 200.0;
        let before = (model.predict_nn(&probe) - truth).abs();

        let report = offline_tune(&mut model, &mut log, 2.0, &FitConfig::fast());
        assert!(report.entries_used > 0);
        assert!(report.dims_expanded.contains(&0));
        assert!(log.is_empty());
        // Range expanded to the last contiguous point.
        assert!(model.meta.dims[0].max >= 3.0e6 - 2e5);
        let after = (model.predict_nn(&probe) - truth).abs();
        assert!(after < before, "before {before}, after {after}");
    }

    #[test]
    fn discontiguous_log_entries_do_not_expand_range() {
        let mut model = base_model();
        let trained_max = model.meta.dims[0].max;
        let mut log = ExecutionLog::new();
        // One far-away observation: continuity broken.
        log.push(vec![5e7, 200.0], 150.0);
        // Need ≥... retrain requires data; single point fine.
        let report = offline_tune(&mut model, &mut log, 2.0, &FitConfig::fast());
        assert!(report.dims_expanded.is_empty());
        assert_eq!(model.meta.dims[0].max, trained_max);
        assert!(model.meta.dims[0].detached.contains(&5e7));
    }

    #[test]
    fn empty_log_is_a_noop() {
        let mut model = base_model();
        let before = model.clone();
        let mut log = ExecutionLog::new();
        let report = offline_tune(&mut model, &mut log, 2.0, &FitConfig::fast());
        assert_eq!(report.entries_used, 0);
        assert_eq!(model.network(), before.network());
    }
}
