//! The online remedy phase (Fig. 4).
//!
//! When a query-time input is *way off* the trained range on one or more
//! pivot dimensions, the NN cannot be trusted alone. The remedy:
//!
//! 1. extract the `k` training records "having the following properties:
//!    (1) their values in the D_inRange dimensions are matching (or very
//!    close) to the corresponding values in Q, and (2) their values in the
//!    Pivot dimension are the immediate successors and/or predecessors of
//!    the corresponding value in Q";
//! 2. fit a regression over the pivot value(s) of those records;
//! 3. combine: `final = α·c_nn + (1−α)·c_reg`;
//! 4. "initially, α is set to 0.5, and as the system executes more
//!    queries, α gets automatically adjusted to narrow the gap between the
//!    estimated and actual execution times" ([`AlphaTuner`], Table 1).

use crate::logical_op::model::LogicalOpModel;
use crate::logical_op::packed::PackedOpScratch;
use mathkit::{LinearModel, SimpleLinearModel};
use serde::{Deserialize, Serialize};

/// Online-remedy configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemedyConfig {
    /// The paper's β (> 1): a value is *way off* when outside the trained
    /// range by more than `β · stepSize`.
    pub beta: f64,
    /// How many nearest training records feed the pivot regression (the
    /// paper's system parameter `k`).
    pub(crate) k_neighbors: usize,
}

impl Default for RemedyConfig {
    fn default() -> Self {
        RemedyConfig {
            beta: 2.0,
            k_neighbors: 8,
        }
    }
}

/// Reusable workspace for one remedy invocation: the packed kernel's
/// scratch for the NN term and the pivot regression's buffers.
///
/// The pivot regression scores every training record, sorts a candidate
/// pool, and assembles regression inputs — each a heap buffer. Callers
/// on the estimate hot path hold one `RemedyScratch` (inside the flow's
/// [`FlowScratch`]) so those buffers are allocated once and reused across
/// out-of-range estimates instead of per call. The remedy path is still
/// not strictly allocation-free (the outcome carries an owned pivot
/// list, and the multi-pivot branch builds its regression rows fresh),
/// but the O(n) scoring buffers — the dominant cost — are amortised.
///
/// All buffers start empty, so `new` is `const` and a scratch embedded
/// in a const-initialised thread-local allocates nothing until first
/// use.
///
/// [`FlowScratch`]: crate::logical_op::flow::FlowScratch
#[derive(Debug, Default)]
pub(crate) struct RemedyScratch {
    /// Packed-kernel workspace for the NN term.
    nn: PackedOpScratch,
    /// Per-dimension trained spans (distance normalisers).
    spans: Vec<f64>,
    /// (distance, index) pairs over the whole training set.
    scored: Vec<(f64, usize)>,
    /// Indices of the k nearest candidate records.
    candidates: Vec<usize>,
    /// Single-pivot regression inputs.
    xs: Vec<f64>,
    /// Regression targets.
    ys: Vec<f64>,
    /// Multi-pivot probe point.
    probe: Vec<f64>,
}

impl RemedyScratch {
    /// An empty workspace; buffers grow on first use and are reused
    /// afterwards.
    pub(crate) const fn new() -> Self {
        RemedyScratch {
            nn: PackedOpScratch::new(),
            spans: Vec::new(),
            scored: Vec::new(),
            candidates: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            probe: Vec::new(),
        }
    }
}

/// The outcome of one remedy invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RemedyOutcome {
    /// The blended estimate (seconds).
    pub estimate: f64,
    /// The NN's own (extrapolated) estimate.
    pub(crate) nn_estimate: f64,
    /// The pivot regression's estimate.
    pub(crate) regression_estimate: f64,
    /// Indices of the pivot dimensions.
    pub(crate) pivots: Vec<usize>,
    /// The α used for blending.
    pub(crate) alpha: f64,
}

/// Runs the `QueryTime-Remedy()` procedure for input `x` (which must have
/// at least one pivot dimension under `cfg.beta`) with a throwaway
/// workspace.
pub fn remedy_estimate(
    model: &LogicalOpModel,
    x: &[f64],
    cfg: &RemedyConfig,
    alpha: f64,
) -> RemedyOutcome {
    remedy_estimate_scratch(model, x, cfg, alpha, &mut RemedyScratch::new())
}

/// The one body of the remedy procedure: the pivot-regression buffers
/// come from (and return to) `scratch`. The outcome carries the pivot
/// set, the α weight and both blend components next to the blend.
pub(crate) fn remedy_estimate_scratch(
    model: &LogicalOpModel,
    x: &[f64],
    cfg: &RemedyConfig,
    alpha: f64,
    scratch: &mut RemedyScratch,
) -> RemedyOutcome {
    let pivots = model.meta.pivots(x, cfg.beta);
    assert!(
        !pivots.is_empty(),
        "remedy_estimate called with all dimensions in range"
    );
    let nn_estimate = model.packed().predict_one(x, &mut scratch.nn);
    let regression_estimate = pivot_regression(model, x, &pivots, cfg.k_neighbors, scratch);
    let estimate = (alpha * nn_estimate + (1.0 - alpha) * regression_estimate).max(0.0);
    RemedyOutcome {
        estimate,
        nn_estimate,
        regression_estimate,
        pivots,
        alpha,
    }
}

/// Builds the on-the-fly regression over the pivot dimension(s) from the
/// closest training points and extrapolates to the query's pivot values.
/// All O(n) working buffers live in `scratch` and are reused across
/// calls.
#[expect(
    clippy::indexing_slicing,
    reason = "i < n == data.len(); j and every pivot index a feature column, and x, spans and every row share the model's arity"
)]
fn pivot_regression(
    model: &LogicalOpModel,
    x: &[f64],
    pivots: &[usize],
    k: usize,
    scratch: &mut RemedyScratch,
) -> f64 {
    let data = model.training_data();
    let n = data.len();
    let k = k.clamp(2, n);
    let RemedyScratch {
        spans,
        scored,
        candidates,
        xs,
        ys,
        probe,
        ..
    } = scratch;

    // Distance in the in-range dimensions only, normalised by each
    // dimension's trained span so no dimension dominates.
    spans.clear();
    spans.extend(
        model
            .meta
            .dims
            .iter()
            .map(|d| (d.max - d.min).max(f64::EPSILON)),
    );
    scored.clear();
    scored.extend((0..n).map(|i| {
        let row = &data.inputs[i];
        let mut dist = 0.0;
        for j in 0..row.len() {
            if pivots.contains(&j) {
                continue;
            }
            let d = (row[j] - x[j]) / spans[j];
            dist += d * d;
        }
        (dist, i)
    }));
    scored.sort_by(|a, b| mathkit::total_cmp_f64(&a.0, &b.0));

    // Among the closest matches in the in-range dims, prefer the records
    // whose pivot values are nearest the query's (its "immediate
    // successors and/or predecessors").
    let pool = (k * 4).min(n);
    candidates.clear();
    candidates.extend(scored[..pool].iter().map(|&(_, i)| i));
    candidates.sort_by(|&a, &b| {
        let da = pivot_distance(&data.inputs[a], x, pivots, spans);
        let db = pivot_distance(&data.inputs[b], x, pivots, spans);
        mathkit::total_cmp_f64(&da, &db)
    });
    candidates.truncate(k);

    ys.clear();
    ys.extend(candidates.iter().map(|&i| data.targets[i]));
    if pivots.len() == 1 {
        // One-dimension pivot: simple linear regression (Fig. 4a).
        let p = pivots[0];
        xs.clear();
        xs.extend(candidates.iter().map(|&i| data.inputs[i][p]));
        match SimpleLinearModel::fit(xs, ys) {
            Ok(m) => m.predict(x[p]).max(0.0),
            Err(_) => mean(ys),
        }
    } else {
        // Multi-dimension pivot: multiple regression over the pivot dims
        // (Fig. 4b). The nested rows match `LinearModel::fit`'s input
        // shape; this rare branch still allocates them per call.
        let rows: Vec<Vec<f64>> = candidates
            .iter()
            .map(|&i| pivots.iter().map(|&p| data.inputs[i][p]).collect())
            .collect();
        probe.clear();
        probe.extend(pivots.iter().map(|&p| x[p]));
        match LinearModel::fit(&rows, ys) {
            Ok(m) => m.predict(probe).max(0.0),
            Err(_) => mean(ys),
        }
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "every pivot indexes a feature column, and row, x and spans share the model's arity"
)]
fn pivot_distance(row: &[f64], x: &[f64], pivots: &[usize], spans: &[f64]) -> f64 {
    pivots
        .iter()
        .map(|&p| {
            let d = (row[p] - x[p]) / spans[p];
            d * d
        })
        .sum()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The α auto-adjuster of Table 1: after each batch of observed remedy
/// executions, pick the α minimising RMSE% over everything seen so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlphaTuner {
    alpha: f64,
    /// Observed (nn, regression, actual) triples.
    history: Vec<(f64, f64, f64)>,
}

impl Default for AlphaTuner {
    fn default() -> Self {
        AlphaTuner::new(0.5)
    }
}

impl AlphaTuner {
    /// Starts with the paper's initial α = 0.5.
    pub(crate) fn new(initial_alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&initial_alpha));
        AlphaTuner {
            alpha: initial_alpha,
            history: Vec::new(),
        }
    }

    /// The current α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one completed remedy execution.
    pub(crate) fn record(&mut self, nn: f64, regression: f64, actual: f64) {
        self.history.push((nn, regression, actual));
    }

    /// Number of recorded executions.
    pub fn observations(&self) -> usize {
        self.history.len()
    }

    /// Re-fits α over the full history by grid search (step 0.01),
    /// minimising RMSE%. Returns the new α.
    pub(crate) fn retune(&mut self) -> f64 {
        if self.history.len() < 2 {
            return self.alpha;
        }
        let mut best = (f64::INFINITY, self.alpha);
        let mut a = 0.0;
        while a <= 1.0 + 1e-9 {
            let preds: Vec<f64> = self
                .history
                .iter()
                .map(|&(nn, reg, _)| a * nn + (1.0 - a) * reg)
                .collect();
            let actuals: Vec<f64> = self.history.iter().map(|&(_, _, y)| y).collect();
            let err = mathkit::rmse_pct(&preds, &actuals);
            if err < best.0 {
                best = (err, a);
            }
            a += 0.01;
        }
        self.alpha = best.1;
        self.alpha
    }

    /// RMSE% that a fixed α would achieve over a slice of the history
    /// (used by the Table 1 experiment to report per-batch error).
    pub fn rmse_pct_for(&self, alpha: f64, from: usize, to: usize) -> f64 {
        let len = self.history.len();
        let slice = self
            .history
            .get(from.min(len)..to.min(len))
            .unwrap_or_default();
        let preds: Vec<f64> = slice
            .iter()
            .map(|&(nn, reg, _)| alpha * nn + (1.0 - alpha) * reg)
            .collect();
        let actuals: Vec<f64> = slice.iter().map(|&(_, _, y)| y).collect();
        mathkit::rmse_pct(&preds, &actuals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::OperatorKind;
    use crate::logical_op::model::FitConfig;
    use neuro::Dataset;

    /// Linear ground truth so the pivot regression can extrapolate
    /// exactly: y = 1 + 2e-6·rows + 0.01·size.
    fn linear_dataset() -> Dataset {
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=20 {
            for s in 1..=6 {
                let rows = r as f64 * 1e5;
                let size = s as f64 * 100.0;
                inputs.push(vec![rows, size]);
                targets.push(1.0 + 2e-6 * rows + 0.01 * size);
            }
        }
        Dataset::new(inputs, targets)
    }

    fn fitted_model() -> LogicalOpModel {
        let (m, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size"],
            &linear_dataset(),
            &FitConfig::fast(),
        );
        m
    }

    #[test]
    fn remedy_extrapolates_linear_truth_well() {
        let model = fitted_model();
        let cfg = RemedyConfig::default();
        // rows = 10M: trained max is 2M (step 1e5), so way off.
        let x = vec![1e7, 300.0];
        assert!(!model.meta.all_in_range(&x, cfg.beta));
        let out = remedy_estimate(&model, &x, &cfg, 0.0); // pure regression
        let truth = 1.0 + 2e-6 * 1e7 + 0.01 * 300.0;
        let rel = (out.regression_estimate - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "regression {} vs truth {truth}",
            out.regression_estimate
        );
        assert_eq!(out.pivots, vec![0]);
    }

    #[test]
    fn remedy_beats_raw_nn_far_out_of_range() {
        let model = fitted_model();
        let cfg = RemedyConfig::default();
        let x = vec![2e7, 300.0];
        let truth = 1.0 + 2e-6 * 2e7 + 0.01 * 300.0; // 44
        let nn_err = (model.predict_nn(&x) - truth).abs();
        let out = remedy_estimate(&model, &x, &cfg, 0.5);
        let remedy_err = (out.estimate - truth).abs();
        assert!(
            remedy_err < nn_err,
            "remedy err {remedy_err} should beat nn err {nn_err}"
        );
    }

    #[test]
    fn blend_respects_alpha() {
        let model = fitted_model();
        let cfg = RemedyConfig::default();
        let x = vec![1e7, 300.0];
        let o0 = remedy_estimate(&model, &x, &cfg, 0.0);
        let o1 = remedy_estimate(&model, &x, &cfg, 1.0);
        assert!((o0.estimate - o0.regression_estimate).abs() < 1e-9);
        assert!((o1.estimate - o1.nn_estimate).abs() < 1e-9);
        let o_mid = remedy_estimate(&model, &x, &cfg, 0.5);
        let expect = 0.5 * o_mid.nn_estimate + 0.5 * o_mid.regression_estimate;
        assert!((o_mid.estimate - expect).abs() < 1e-9);
    }

    #[test]
    fn two_pivot_dimensions_use_multiple_regression() {
        let model = fitted_model();
        let cfg = RemedyConfig::default();
        // Both rows and size way off.
        let x = vec![1e7, 5_000.0];
        let out = remedy_estimate(&model, &x, &cfg, 0.0);
        assert_eq!(out.pivots, vec![0, 1]);
        let truth = 1.0 + 2e-6 * 1e7 + 0.01 * 5_000.0;
        let rel = (out.regression_estimate - truth).abs() / truth;
        assert!(
            rel < 0.3,
            "estimate {} vs truth {truth}",
            out.regression_estimate
        );
    }

    #[test]
    fn remedy_outcome_recombines_to_its_estimate() {
        let model = fitted_model();
        let cfg = RemedyConfig::default();
        let x = vec![1e7, 300.0];
        let out = remedy_estimate(&model, &x, &cfg, 0.4);
        assert_eq!(out.alpha, 0.4);
        assert_eq!(out.pivots, model.meta.pivots(&x, cfg.beta));
        // The components the outcome reports are the ones it blended.
        let recombined =
            (out.alpha * out.nn_estimate + (1.0 - out.alpha) * out.regression_estimate).max(0.0);
        assert_eq!(recombined.to_bits(), out.estimate.to_bits());
    }

    #[test]
    fn scratch_variant_is_bit_identical_and_reuses_buffers() {
        let model = fitted_model();
        let cfg = RemedyConfig::default();
        let mut scratch = RemedyScratch::new();
        // Cover both the single-pivot and the multi-pivot branch with one
        // reused workspace, interleaved to prove clearing works.
        let probes = [
            vec![1e7, 300.0],
            vec![1e7, 5_000.0],
            vec![2e7, 250.0],
            vec![1.5e7, 8_000.0],
        ];
        for x in &probes {
            let fresh = remedy_estimate(&model, x, &cfg, 0.3);
            let reused = remedy_estimate_scratch(&model, x, &cfg, 0.3, &mut scratch);
            assert_eq!(fresh, reused);
            assert_eq!(fresh.estimate.to_bits(), reused.estimate.to_bits());
            assert_eq!(
                fresh.regression_estimate.to_bits(),
                reused.regression_estimate.to_bits()
            );
        }
        // The scoring buffer retains its capacity between calls.
        assert!(scratch.scored.capacity() >= model.training_data().len());
    }

    #[test]
    #[should_panic(expected = "all dimensions in range")]
    fn remedy_rejects_in_range_inputs() {
        let model = fitted_model();
        remedy_estimate(&model, &[1e5, 300.0], &RemedyConfig::default(), 0.5);
    }

    #[test]
    fn alpha_tuner_moves_toward_better_source() {
        let mut t = AlphaTuner::default();
        assert_eq!(t.alpha(), 0.5);
        // NN is consistently right, regression consistently 50% high: the
        // best alpha is 1.0 (all weight on the NN).
        for i in 0..20 {
            let actual = 10.0 + i as f64;
            t.record(actual, actual * 1.5, actual);
        }
        let a = t.retune();
        assert!(a > 0.95, "alpha {a}");
    }

    #[test]
    fn alpha_tuner_finds_interior_optimum() {
        let mut t = AlphaTuner::default();
        // NN reads 20% low, regression 20% high: best blend is 0.5.
        for i in 0..20 {
            let actual = 50.0 + i as f64;
            t.record(actual * 0.8, actual * 1.2, actual);
        }
        let a = t.retune();
        assert!((a - 0.5).abs() < 0.05, "alpha {a}");
    }

    #[test]
    fn rmse_pct_for_slices_history() {
        let mut t = AlphaTuner::default();
        for _ in 0..10 {
            t.record(10.0, 10.0, 10.0);
        }
        assert_eq!(t.rmse_pct_for(0.5, 0, 10), 0.0);
        assert_eq!(t.observations(), 10);
    }

    mod properties {
        use super::*;
        use crate::estimator::{CostEstimate, EstimateSource};
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Training an NN per generated case would dominate the suite;
        /// the properties below only need *one* model, probed many ways.
        fn shared_model() -> &'static LogicalOpModel {
            static MODEL: OnceLock<LogicalOpModel> = OnceLock::new();
            MODEL.get_or_init(fitted_model)
        }

        proptest! {
            /// For any α ∈ [0,1] the blend can never escape the interval
            /// spanned by its two ingredients, and the reported pivots are
            /// exactly the way-off dimensions.
            #[test]
            fn prop_blend_stays_between_sources(
                rows in 5.0e6f64..5.0e7,
                size in 50.0f64..5_000.0,
                alpha in 0.0f64..=1.0,
            ) {
                let model = shared_model();
                let cfg = RemedyConfig::default();
                // `rows` is always way beyond the trained 2e6; `size`
                // straddles the boundary, so both the single- and the
                // multi-pivot regression branches get exercised.
                let x = vec![rows, size];
                prop_assume!(!model.meta.all_in_range(&x, cfg.beta));
                let out = remedy_estimate(model, &x, &cfg, alpha);
                let lo = out.nn_estimate.min(out.regression_estimate);
                let hi = out.nn_estimate.max(out.regression_estimate);
                prop_assert!(
                    out.estimate >= lo - 1e-9 && out.estimate <= hi + 1e-9,
                    "blend {} escaped [{lo}, {hi}] at alpha {alpha}",
                    out.estimate
                );
                prop_assert!(out.estimate >= 0.0);
                prop_assert!(out.alpha == alpha);
                prop_assert_eq!(&out.pivots, &model.meta.pivots(&x, cfg.beta));
                prop_assert!(!out.pivots.is_empty());
            }

            /// Probes within β·stepSize slack of every trained range have
            /// no pivot dimensions — the remedy must never trigger there.
            #[test]
            fn prop_no_pivots_within_slack(
                f_rows in 0.0f64..=1.0,
                f_size in 0.0f64..=1.0,
                beta in 1.1f64..4.0,
            ) {
                let model = shared_model();
                let x: Vec<f64> = model
                    .meta
                    .dims
                    .iter()
                    .zip([f_rows, f_size])
                    .map(|(d, f)| {
                        let slack = beta * d.step_size;
                        (d.min - slack) + f * ((d.max + slack) - (d.min - slack))
                    })
                    .collect();
                prop_assert!(
                    model.meta.pivots(&x, beta).is_empty(),
                    "pivot reported for in-slack probe {x:?} at beta {beta}"
                );
                prop_assert!(model.meta.all_in_range(&x, beta));
            }

            /// However the history looks, retuning keeps α inside [0,1].
            #[test]
            fn prop_retuned_alpha_stays_in_unit_interval(
                triples in prop::collection::vec(
                    (0.1f64..100.0, 0.1f64..100.0, 0.1f64..100.0),
                    2..30,
                ),
            ) {
                let mut t = AlphaTuner::default();
                for &(nn, reg, actual) in &triples {
                    t.record(nn, reg, actual);
                }
                let a = t.retune();
                prop_assert!((0.0..=1.0).contains(&a), "alpha {a}");
                prop_assert!(t.alpha() == a);
            }

            /// The retuned α is optimal over the 0.01 grid: no fixed grid
            /// point may beat it on the history it was fitted to.
            #[test]
            fn prop_retune_beats_any_fixed_grid_alpha(
                triples in prop::collection::vec(
                    (0.1f64..100.0, 0.1f64..100.0, 0.1f64..100.0),
                    2..30,
                ),
                k in 0usize..=100,
            ) {
                let mut t = AlphaTuner::default();
                for &(nn, reg, actual) in &triples {
                    t.record(nn, reg, actual);
                }
                t.retune();
                let n = t.observations();
                let tuned = t.rmse_pct_for(t.alpha(), 0, n);
                let fixed = t.rmse_pct_for(k as f64 * 0.01, 0, n);
                prop_assert!(
                    tuned <= fixed + 1e-6 * (1.0 + fixed),
                    "tuned RMSE% {tuned} lost to fixed alpha {}: {fixed}",
                    k as f64 * 0.01
                );
            }

            /// `CostEstimate::new` clamps: seconds (and hence micros) are
            /// never negative, whatever a regression extrapolates.
            #[test]
            fn prop_cost_estimate_never_negative(secs in any::<f64>()) {
                let e = CostEstimate::new(secs, EstimateSource::NeuralNetwork);
                prop_assert!(e.secs >= 0.0, "secs {} from input {secs}", e.secs);
                prop_assert!(e.secs >= 0.0);
            }
        }

        #[test]
        fn cost_estimate_clamps_non_finite_inputs() {
            assert_eq!(
                CostEstimate::new(f64::NAN, EstimateSource::NeuralNetwork).secs,
                0.0
            );
            assert_eq!(
                CostEstimate::new(f64::NEG_INFINITY, EstimateSource::NeuralNetwork).secs,
                0.0
            );
            let inf = CostEstimate::new(f64::INFINITY, EstimateSource::NeuralNetwork);
            assert!(inf.secs.is_infinite() && inf.secs > 0.0);
        }
    }
}
