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
//!
//! The two halves are two calls. The top one is a read —
//! [`LogicalOpCosting::estimate`] takes `&self` — because a cross-engine
//! optimizer costs every candidate engine and executes one. The bottom
//! one, [`LogicalOpCosting::observe_actual`], is the only write: the
//! logged executions, not a memory of past estimates, are what α
//! adjustment and offline tuning learn from.
//!
//! The top half has one body, [`LogicalOpCosting::estimate_rows`], over a
//! flat batch of rows: which rows go to the NN, which to the remedy, and
//! which kernel computes the NN are decided here and nowhere else. Both
//! costing stacks bottom out in it — the manager stack through
//! [`LogicalOpCosting::estimate`] (a batch of one), the estimation
//! service by handing it every row of a request.

use crate::{
    estimator::{CostEstimate, EstimateSource},
    logical_op::{
        model::{FitConfig, LogicalOpModel},
        packed::PackedOpScratch,
        remedy::{
            remedy_estimate, remedy_estimate_scratch, AlphaTuner, RemedyConfig, RemedyScratch,
        },
        tuning::{offline_tune, ExecutionLog, TuneReport},
    },
};
use serde::{Deserialize, Serialize};
use telemetry::span::{time as stage_time, Stage};

/// A complete logical-operator costing unit for one operator on one
/// remote system: model + remedy machinery + execution log.
///
/// Estimating is a read and [`LogicalOpCosting::observe_actual`] is the
/// only write: the flow keeps no memory of what it once predicted, so a
/// planner may cost any number of placements and execute one of them.
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
}

/// Reusable workspace for [`LogicalOpCosting::estimate_rows`]: the
/// in-range rows staged flat for the packed kernel, its outputs and
/// scratch, and the remedy's own workspace. With a warm scratch an
/// in-range batch costs zero heap allocations.
///
/// All buffers start empty, so `new` is `const` and a scratch embedded in
/// a const-initialised thread-local allocates nothing until first use.
#[derive(Debug, Default)]
pub struct FlowScratch {
    /// Slot indices of the in-range rows (order matches `nn_rows`).
    in_range: Vec<usize>,
    /// Flat `(rows × width)` staging for the batched NN forward pass.
    nn_rows: Vec<f64>,
    /// Batched NN outputs.
    nn_out: Vec<f64>,
    /// Fused packed-kernel workspace.
    kernel: PackedOpScratch,
    /// Workspace for out-of-range remedy estimates.
    remedy: RemedyScratch,
}

impl FlowScratch {
    /// An empty scratch; every buffer grows on first use and is retained.
    pub const fn new() -> Self {
        FlowScratch {
            in_range: Vec::new(),
            nn_rows: Vec::new(),
            nn_out: Vec::new(),
            kernel: PackedOpScratch::new(),
            remedy: RemedyScratch::new(),
        }
    }
}

impl LogicalOpCosting {
    /// Wraps a trained model with default remedy settings.
    pub fn new(model: LogicalOpModel) -> Self {
        LogicalOpCosting {
            model,
            remedy: RemedyConfig::default(),
            tuner: AlphaTuner::default(),
            log: ExecutionLog::new(),
        }
    }

    /// Estimates the cost of an operator with features `x` (the top half
    /// of Fig. 3) with a throwaway workspace.
    pub fn estimate(&self, x: &[f64]) -> CostEstimate {
        self.estimate_scratch(x, &mut FlowScratch::new())
    }

    /// [`LogicalOpCosting::estimate_rows`] for the one row `x`.
    #[expect(clippy::expect_used, reason = "estimate_rows fills every slot")]
    pub(crate) fn estimate_scratch(&self, x: &[f64], scratch: &mut FlowScratch) -> CostEstimate {
        let mut slot = [None];
        self.estimate_rows(x, x.len(), &mut slot, scratch);
        let [est] = slot;
        est.expect("estimate_rows fills every slot")
    }

    /// The top half of the Fig. 3 flowchart, once, over the row-major
    /// flat batch `rows` (`slots.len()` rows of `width` features): every
    /// row is range-checked; the in-range ones share one
    /// [`crate::logical_op::packed::PackedOpModel::predict_batch_into`]
    /// pass, the others go through the online remedy one by one, and
    /// each row's estimate is written into its slot. The kernel pass and
    /// each remedy run under their [`Stage`] timers.
    ///
    /// # Panics
    /// Panics when `width` differs from the model's arity or `rows` is not
    /// `slots.len()` rows of it.
    pub fn estimate_rows(
        &self,
        rows: &[f64],
        width: usize,
        slots: &mut [Option<CostEstimate>],
        scratch: &mut FlowScratch,
    ) {
        assert_eq!(
            width,
            self.model.arity(),
            "LogicalOpCosting::estimate_rows: arity mismatch"
        );
        assert_eq!(
            rows.len(),
            slots.len() * width,
            "LogicalOpCosting::estimate_rows: one slot per row"
        );
        let FlowScratch {
            in_range,
            nn_rows,
            nn_out,
            kernel,
            remedy,
        } = scratch;
        in_range.clear();
        nn_rows.clear();
        for (i, (row, slot)) in rows.chunks_exact(width).zip(slots.iter_mut()).enumerate() {
            if self.model.meta.all_in_range(row, self.remedy.beta) {
                in_range.push(i);
                nn_rows.extend_from_slice(row);
                continue;
            }
            let _remedy = stage_time(Stage::Remedy);
            let out =
                remedy_estimate_scratch(&self.model, row, &self.remedy, self.tuner.alpha(), remedy);
            *slot = Some(CostEstimate::new(
                out.estimate,
                EstimateSource::OnlineRemedy {
                    alpha: out.alpha,
                    pivots: out.pivots,
                },
            ));
        }
        if in_range.is_empty() {
            return;
        }
        let _kernel = stage_time(Stage::Kernel);
        self.model
            .packed()
            .predict_batch_into(nn_rows, width, nn_out, kernel);
        for (&i, &secs) in in_range.iter().zip(nn_out.iter()) {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(CostEstimate::new(secs, EstimateSource::NeuralNetwork));
            }
        }
    }

    /// The bottom half of Fig. 3: the operator actually ran remotely —
    /// log the actual cost, and if `x` is out of the trained range feed
    /// the α tuner. The remedy's `(nn, regression)` components depend on
    /// the model and `x` only, never on α, so they are recomputed here
    /// rather than remembered from the estimate.
    pub fn observe_actual(&mut self, x: &[f64], actual_secs: f64) {
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
        let c = costing();
        let e = c.estimate(&[5e5, 200.0]);
        assert_eq!(e.source, EstimateSource::NeuralNetwork);
    }

    #[test]
    fn out_of_range_inputs_trigger_the_remedy() {
        let c = costing();
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
        let before = (c.estimate(&probe).secs - truth).abs();
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
        let after_estimate = c.estimate(&probe).secs;
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
    fn estimating_is_a_read_and_every_remedy_actual_feeds_alpha() {
        use crate::logical_op::tuning::DEFAULT_LOG_CAPACITY;

        let mut c = costing();
        let probe = |i: usize| [2e7 + i as f64, 200.0];
        // A planner costs many placements and runs few: estimates that
        // are never observed leave nothing behind.
        let before = serde_json::to_string(&c).unwrap();
        for i in 0..DEFAULT_LOG_CAPACITY + 3 {
            let _ = c.estimate(&probe(i));
        }
        assert_eq!(serde_json::to_string(&c).unwrap(), before);
        // Out of range: the tuner is fed once per actual, whether the
        // estimate was the first of thousands, the last, or never made.
        for (n, x) in [probe(0), probe(DEFAULT_LOG_CAPACITY + 2), [3e7, 200.0]]
            .iter()
            .enumerate()
        {
            c.observe_actual(x, 55.0);
            assert_eq!(c.tuner.observations(), n + 1);
            assert_eq!(c.log.len(), n + 1);
        }
        // In range: log only.
        c.observe_actual(&[5e5, 200.0], 2.0);
        assert_eq!(c.tuner.observations(), 3);
        assert_eq!(c.log.len(), 4);
    }

    #[test]
    fn estimate_source_agrees_with_the_remedy_outcome() {
        let c = costing();
        // One workspace serves an in-range and then an out-of-range row.
        let mut scratch = FlowScratch::new();
        let e = c.estimate_scratch(&[5e5, 200.0], &mut scratch);
        assert_eq!(e.source, EstimateSource::NeuralNetwork);
        let x = [2e7, 200.0];
        let e = c.estimate_scratch(&x, &mut scratch);
        assert_eq!(
            e,
            c.estimate(&x),
            "the workspace never changes the estimate"
        );
        // Out of range: the returned source and seconds are the remedy
        // outcome's own fields for the same row, config and α.
        let out = remedy_estimate(&c.model, &x, &c.remedy, c.tuner.alpha());
        assert_eq!(
            e.source,
            EstimateSource::OnlineRemedy {
                alpha: out.alpha,
                pivots: out.pivots.clone(),
            }
        );
        assert_eq!(e.secs.to_bits(), out.estimate.to_bits());
        let recombined =
            (out.alpha * out.nn_estimate + (1.0 - out.alpha) * out.regression_estimate).max(0.0);
        assert_eq!(recombined.to_bits(), e.secs.to_bits());
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

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// One trained flow, cloned per case (training dominates).
        fn shared_flow() -> &'static LogicalOpCosting {
            static FLOW: OnceLock<LogicalOpCosting> = OnceLock::new();
            FLOW.get_or_init(costing)
        }

        proptest! {
            /// The `(nn, regression)` pair an out-of-range estimate
            /// blended (the remedy outcome for the same row, config and
            /// α) and the pair `observe_actual` later feeds the tuner
            /// are the same bits: nothing is lost by not remembering the
            /// estimate.
            #[test]
            fn prop_observe_feeds_the_pair_the_estimate_reported(
                rows in 5.0e6f64..5.0e7,
                size in 50.0f64..5_000.0,
                actual in 1.0f64..500.0,
            ) {
                let mut flow = shared_flow().clone();
                let x = [rows, size];
                prop_assume!(!flow.model.meta.all_in_range(&x, flow.remedy.beta));
                let mut scratch = FlowScratch::new();
                let est = flow.estimate_scratch(&x, &mut scratch);
                let out = remedy_estimate_scratch(
                    &flow.model,
                    &x,
                    &flow.remedy,
                    flow.tuner.alpha(),
                    &mut scratch.remedy,
                );
                prop_assert_eq!(est.secs.to_bits(), out.estimate.to_bits());
                let mut by_hand = flow.tuner.clone();
                by_hand.record(out.nn_estimate, out.regression_estimate, actual);
                flow.observe_actual(&x, actual);
                prop_assert_eq!(by_hand.observations(), 1);
                prop_assert_eq!(
                    serde_json::to_string(&by_hand).unwrap(),
                    serde_json::to_string(&flow.tuner).unwrap()
                );
            }
        }
    }
}
