//! The Fig. 3 query-time flow, assembled.
//!
//! ```text
//! Query Q
//!   └─ input parameters within the trained range (β threshold)?
//!        ├─ yes → use the existing NN model
//!        └─ no  → online remedy: combined estimate
//!   └─ operator executed remotely?
//!        └─ yes → logging phase: collect actual cost, dump a record
//!                 into the batch (offline tuning + α adjustment)
//! ```

use crate::{
    estimator::{CostEstimate, EstimateSource},
    logical_op::{
        model::{FitConfig, LogicalOpModel},
        remedy::{
            remedy_estimate, remedy_estimate_scratch, AlphaTuner, RemedyConfig, RemedyScratch,
        },
        tuning::{offline_tune, ExecutionLog, TuneReport, DEFAULT_LOG_CAPACITY},
    },
    observability::TraceCtx,
};
use serde::{Deserialize, Serialize};

/// A complete logical-operator costing unit for one operator on one
/// remote system: model + remedy machinery + execution log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogicalOpCosting {
    /// The trained model.
    pub model: LogicalOpModel,
    /// Remedy configuration (β, k).
    pub remedy: RemedyConfig,
    /// The α auto-tuner.
    pub tuner: AlphaTuner,
    /// The offline-tuning execution log.
    pub log: ExecutionLog,
    /// Pending remedy components (nn, regression) for α adjustment, keyed
    /// by the feature vector of the estimate they came from. Bounded at
    /// [`DEFAULT_LOG_CAPACITY`], oldest evicted first, so estimates that
    /// are never observed cannot grow it without limit.
    pending_remedies: Vec<(Vec<f64>, f64, f64)>,
}

impl LogicalOpCosting {
    /// Wraps a trained model with default remedy settings.
    pub fn new(model: LogicalOpModel) -> Self {
        LogicalOpCosting {
            model,
            remedy: RemedyConfig::default(),
            tuner: AlphaTuner::default(),
            log: ExecutionLog::new(),
            pending_remedies: Vec::new(),
        }
    }

    /// The top half of the Fig. 3 flowchart, once: range check, then the
    /// NN alone or the online remedy. Remedy estimates also return their
    /// `(nn, regression)` components, which [`LogicalOpCosting::estimate`]
    /// keeps for α adjustment.
    fn estimate_core(
        &self,
        x: &[f64],
        scratch: &mut RemedyScratch,
        trace: Option<&TraceCtx<'_>>,
    ) -> (CostEstimate, Option<(f64, f64)>) {
        if self.model.meta.all_in_range(x, self.remedy.beta) {
            let nn = CostEstimate::new(self.model.predict_nn(x), EstimateSource::NeuralNetwork);
            return (nn, None);
        }
        let out = remedy_estimate_scratch(
            &self.model,
            x,
            &self.remedy,
            self.tuner.alpha(),
            scratch,
            trace,
        );
        let blended = CostEstimate::new(
            out.estimate,
            EstimateSource::OnlineRemedy {
                alpha: out.alpha,
                pivots: out.pivots,
            },
        );
        (blended, Some((out.nn_estimate, out.regression_estimate)))
    }

    /// Estimates the cost of an operator with features `x`, remembering a
    /// remedy estimate's components until the operator's actual cost is
    /// observed ([`LogicalOpCosting::observe_actual`]).
    pub fn estimate(&mut self, x: &[f64]) -> CostEstimate {
        let (estimate, remedy) = self.estimate_core(x, &mut RemedyScratch::new(), None);
        if let Some((nn, regression)) = remedy {
            if self.pending_remedies.len() >= DEFAULT_LOG_CAPACITY {
                let excess = self.pending_remedies.len() + 1 - DEFAULT_LOG_CAPACITY;
                self.pending_remedies.drain(..excess);
            }
            self.pending_remedies.push((x.to_vec(), nn, regression));
        }
        estimate
    }

    /// Read-only estimate that does not track remedy components (for
    /// what-if probing).
    pub fn estimate_readonly(&self, x: &[f64]) -> CostEstimate {
        self.estimate_readonly_scratch(x, &mut RemedyScratch::new(), None)
    }

    /// [`LogicalOpCosting::estimate_readonly`] with a caller-provided
    /// remedy workspace and an optional decision-trail context: identical
    /// result, but an out-of-range estimate reuses `remedy`'s buffers
    /// instead of allocating its own and, given `trace`, emits the remedy
    /// event pair (see [`remedy_estimate_scratch`]). In-range estimates
    /// emit nothing.
    pub fn estimate_readonly_scratch(
        &self,
        x: &[f64],
        remedy: &mut RemedyScratch,
        trace: Option<&TraceCtx<'_>>,
    ) -> CostEstimate {
        self.estimate_core(x, remedy, trace).0
    }

    /// The bottom half of Fig. 3: the operator actually ran remotely —
    /// log the actual cost, and if it had gone through the remedy path,
    /// feed the α tuner.
    pub fn observe_actual(&mut self, x: &[f64], actual_secs: f64) {
        self.log.push(x.to_vec(), actual_secs);
        if let Some(pos) = self.pending_remedies.iter().position(|(fx, _, _)| fx == x) {
            let (_, nn, reg) = self.pending_remedies.remove(pos);
            self.tuner.record(nn, reg, actual_secs);
        }
    }

    /// Observes an actual execution whose estimate was served through a
    /// read-only path (e.g. a shared estimation service) and therefore left
    /// no pending remedy record. If the features were out of the trained
    /// range the remedy components are recomputed here so the α tuner is
    /// still fed; either way the observation lands in the offline-tuning
    /// log.
    pub fn observe_detached(&mut self, x: &[f64], actual_secs: f64) {
        if !self.model.meta.all_in_range(x, self.remedy.beta) {
            let out = remedy_estimate(&self.model, x, &self.remedy, self.tuner.alpha());
            self.tuner
                .record(out.nn_estimate, out.regression_estimate, actual_secs);
        }
        self.log.push(x.to_vec(), actual_secs);
    }

    /// Re-fits α from everything recorded so far (the paper adjusts after
    /// each batch — Table 1).
    pub fn adjust_alpha(&mut self) -> f64 {
        self.tuner.retune()
    }

    /// Runs the offline tuning phase over the accumulated log.
    pub fn offline_tune(&mut self, config: &FitConfig) -> TuneReport {
        offline_tune(&mut self.model, &mut self.log, self.remedy.beta, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::OperatorKind;
    use neuro::Dataset;

    fn costing() -> LogicalOpCosting {
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=15 {
            for s in 1..=4 {
                let rows = r as f64 * 1e5;
                let size = s as f64 * 100.0;
                inputs.push(vec![rows, size]);
                targets.push(1.0 + 2e-6 * rows + 0.01 * size);
            }
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        LogicalOpCosting::new(model)
    }

    #[test]
    fn in_range_inputs_use_the_network() {
        let mut c = costing();
        let e = c.estimate(&[5e5, 200.0]);
        assert_eq!(e.source, EstimateSource::NeuralNetwork);
    }

    #[test]
    fn out_of_range_inputs_trigger_the_remedy() {
        let mut c = costing();
        let e = c.estimate(&[2e7, 200.0]);
        match e.source {
            EstimateSource::OnlineRemedy { alpha, ref pivots } => {
                assert_eq!(alpha, 0.5);
                assert_eq!(pivots, &vec![0]);
            }
            ref other => panic!("expected remedy, got {other:?}"),
        }
    }

    #[test]
    fn observing_actuals_feeds_alpha_tuning() {
        let mut c = costing();
        for i in 0..10 {
            let x = vec![2e7 + i as f64 * 1e5, 200.0];
            let _ = c.estimate(&x);
            let truth = 1.0 + 2e-6 * x[0] + 0.01 * x[1];
            c.observe_actual(&x, truth);
        }
        assert_eq!(c.tuner.observations(), 10);
        let a = c.adjust_alpha();
        // The regression extrapolates this linear truth better than the
        // NN, so alpha should move off 0.5 (usually towards 0).
        assert!((0.0..=1.0).contains(&a));
        assert_eq!(c.log.len(), 10);
    }

    #[test]
    fn full_loop_estimate_observe_tune_improves() {
        let mut c = costing();
        let probe = vec![2.5e6, 200.0];
        let truth = 1.0 + 2e-6 * probe[0] + 0.01 * probe[1];
        let before = (c.estimate_readonly(&probe).secs - truth).abs();
        // Observe a contiguous ladder past the trained max (1.5M).
        let mut rows = 1.6e6;
        while rows <= 2.6e6 {
            c.observe_actual(&[rows, 200.0], 1.0 + 2e-6 * rows + 2.0);
            rows += 1e5;
        }
        // Note deliberately shifted actuals (+2s): tuning must follow the
        // observed system, not our original formula.
        let report = c.offline_tune(&FitConfig::fast());
        assert!(report.entries_used > 0);
        let after_estimate = c.estimate_readonly(&probe).secs;
        let shifted_truth = 1.0 + 2e-6 * probe[0] + 2.0;
        let after = (after_estimate - shifted_truth).abs();
        assert!(
            after < before + 2.0,
            "tuning should track the shifted system: err {after}"
        );
        // The expanded range means the probe no longer pivots.
        assert!(c.model.meta.all_in_range(&probe, c.remedy.beta));
    }

    #[test]
    fn detached_observation_feeds_tuner_and_log() {
        let mut c = costing();
        // Out of range: the tuner must be fed even though no estimate()
        // call recorded pending remedy components.
        c.observe_detached(&[2e7, 200.0], 60.0);
        assert_eq!(c.tuner.observations(), 1);
        assert_eq!(c.log.len(), 1);
        // In range: log only.
        c.observe_detached(&[5e5, 200.0], 2.0);
        assert_eq!(c.tuner.observations(), 1);
        assert_eq!(c.log.len(), 2);
    }

    #[test]
    fn readonly_estimate_does_not_accumulate_state() {
        let c = costing();
        let before_len = c.pending_remedies.len();
        let _ = c.estimate_readonly(&[2e7, 200.0]);
        assert_eq!(c.pending_remedies.len(), before_len);
    }

    #[test]
    fn traced_estimate_trail_agrees_with_the_returned_source() {
        use catalog::SystemId;
        use std::sync::Arc;
        use telemetry::{Event, Tracer, VecSubscriber};

        let mut c = costing();
        let sub = Arc::new(VecSubscriber::new());
        let tracer = Tracer::new(sub.clone());
        let system = SystemId::new("hive-a");
        let ctx = TraceCtx::new(&tracer, &system);
        // In-range estimates leave no remedy trail.
        let mut scratch = RemedyScratch::new();
        let e = c.estimate_readonly_scratch(&[5e5, 200.0], &mut scratch, Some(&ctx));
        assert_eq!(e.source, EstimateSource::NeuralNetwork);
        assert!(sub.is_empty());
        // Out-of-range: the emitted pivots and α must agree with the
        // source the estimate itself reports.
        let e = c.estimate_readonly_scratch(&[2e7, 200.0], &mut scratch, Some(&ctx));
        assert_eq!(
            e,
            c.estimate(&[2e7, 200.0]),
            "the context never changes the estimate"
        );
        let (src_alpha, src_pivots) = match &e.source {
            EstimateSource::OnlineRemedy { alpha, pivots } => (*alpha, pivots.clone()),
            other => panic!("expected remedy, got {other:?}"),
        };
        let events = sub.take();
        assert_eq!(events.len(), 2);
        match &events[0] {
            Event::PivotsDetected { pivots, .. } => assert_eq!(pivots, &src_pivots),
            other => panic!("unexpected {other:?}"),
        }
        match &events[1] {
            Event::RemedyBlend {
                alpha,
                nn_estimate,
                regression_estimate,
                blended,
                ..
            } => {
                assert_eq!(*alpha, src_alpha);
                let expect =
                    (src_alpha * nn_estimate + (1.0 - src_alpha) * regression_estimate).max(0.0);
                assert!((blended - expect).abs() < 1e-12);
                assert_eq!(*blended, e.secs);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unobserved_remedy_estimates_stay_bounded_and_pairing_still_feeds_alpha() {
        let mut c = costing();
        let probe = |i: usize| [2e7 + i as f64, 200.0];
        for i in 0..DEFAULT_LOG_CAPACITY + 3 {
            let _ = c.estimate(&probe(i));
            assert!(c.pending_remedies.len() <= DEFAULT_LOG_CAPACITY);
        }
        // Oldest first: the three earliest records made room.
        assert_eq!(c.pending_remedies.len(), DEFAULT_LOG_CAPACITY);
        assert_eq!(c.pending_remedies[0].0, probe(3));
        // An evicted estimate's actual only lands in the log; a paired
        // estimate → observation still reaches the α tuner.
        c.observe_actual(&probe(0), 55.0);
        assert_eq!(c.tuner.observations(), 0);
        c.observe_actual(&probe(DEFAULT_LOG_CAPACITY + 2), 55.0);
        assert_eq!(c.tuner.observations(), 1);
        assert_eq!(c.pending_remedies.len(), DEFAULT_LOG_CAPACITY - 1);
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = costing();
        let _ = c.estimate(&[2e7, 200.0]);
        c.observe_actual(&[2e7, 200.0], 42.0);
        let json = serde_json::to_string(&c).unwrap();
        let back: LogicalOpCosting = serde_json::from_str(&json).unwrap();
        assert_eq!(back.log.len(), c.log.len());
        assert_eq!(back.tuner.alpha(), c.tuner.alpha());
    }
}
