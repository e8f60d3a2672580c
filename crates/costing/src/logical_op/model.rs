//! The neural-network cost model for one logical operator.
//!
//! §3: inputs are min–max normalised, the network has two hidden layers,
//! and the topology is selected by cross validation ("we vary the number
//! of nodes in the 1st layer between the number of inputs and the double
//! of that number, and vary the number of nodes in the 2nd layer between
//! three and half the number of the 1st layer's nodes"), training 70 % /
//! testing 30 %, selecting the least-RMSE topology.
//!
//! A [`LogicalOpModel`] owns its fused inference form
//! ([`PackedOpModel`]): it is derived once, wherever a model value comes
//! into being — [`LogicalOpModel::fit`] (hence
//! `LogicalOpModel::retrain`), [`LogicalOpModel::with_network`] and
//! deserialisation all go through one private constructor — never on a
//! read, and never written to disk. [`LogicalOpModel::predict_nn`] *is*
//! that packed kernel. The layer-by-layer chain the packed form was
//! derived from ([`neuro::Network::predict`] behind the scalers) stays
//! as [`LogicalOpModel::predict_nn_reference`] (and its test-only batch
//! form, `predict_nn_batch_reference`): the oracle of the bit-identity
//! tests and the `legacy` cells of `exp_hotpath`, on no production path.

use crate::estimator::OperatorKind;
use crate::logical_op::dims::TrainingMeta;
use crate::logical_op::packed::{PackedOpModel, PackedOpScratch};
use mathkit::scale::{MinMaxScaler, ScalarScaler};
use mathkit::{r2_score, rmse_pct};
use neuro::{search_topology, train, Adam, Dataset, Network, Topology, TrainConfig, TrainTrace};
use serde::{Deserialize, Serialize, Value};

/// How model inputs and targets are normalised before training.
///
/// `Linear` min–max scaling is the paper-faithful default — and it is what
/// gives the NN the extrapolation weakness that motivates the whole online
/// remedy / offline tuning machinery (§3, Fig. 14). `Log` scaling
/// (`ln(1+x)` on features and target before min–max) is the modern
/// engineering choice: it fits heavy-tailed cost surfaces better *and*
/// largely removes the out-of-range failure — quantified in the scaling
/// ablation (`exp_ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScalingMode {
    /// Raw min–max normalisation (the paper's setting).
    #[default]
    Linear,
    /// `ln(1+x)` before min–max, on features and target.
    Log,
}

/// How to pick the network topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologyChoice {
    /// Fixed hidden widths.
    Fixed {
        /// First hidden layer width.
        layer1: usize,
        /// Second hidden layer width.
        layer2: usize,
    },
    /// The paper's cross-validation search, stepping the first layer by
    /// the given stride (1 = exhaustive).
    CrossValidated {
        /// Stride through the first-layer candidates.
        step: usize,
        /// Per-candidate training budget (iterations).
        search_iterations: usize,
    },
}

/// Model-fitting configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitConfig {
    /// Topology selection strategy.
    pub topology: TopologyChoice,
    /// Final training iterations (the paper uses 20 000).
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Trace cadence for the convergence curve (0 disables).
    pub trace_every: usize,
    /// RNG seed (weights, shuffling, splits).
    pub seed: u64,
    /// Input/target normalisation mode.
    #[serde(default)]
    pub scaling: ScalingMode,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            topology: TopologyChoice::CrossValidated {
                step: 2,
                search_iterations: 1_500,
            },
            iterations: 20_000,
            batch_size: 32,
            trace_every: 250,
            seed: 0xC0575,
            scaling: ScalingMode::Linear,
        }
    }
}

impl FitConfig {
    /// A fast configuration for tests and quick experiments.
    pub fn fast() -> Self {
        FitConfig {
            topology: TopologyChoice::Fixed {
                layer1: 10,
                layer2: 5,
            },
            iterations: 2_500,
            batch_size: 32,
            trace_every: 0,
            seed: 0xC0575,
            scaling: ScalingMode::Linear,
        }
    }
}

/// Diagnostics from a fit.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The convergence trace (RMSE% on the held-out set per iteration
    /// checkpoint) — Figs. 11b/12b.
    pub trace: TrainTrace,
    /// The chosen hidden topology.
    pub topology: Topology,
    /// RMSE% on the held-out set.
    pub test_rmse_pct: f64,
    /// R² on the held-out set — the number annotated on Figs. 11c/12c.
    pub test_r2: f64,
    /// (actual, predicted) pairs for the held-out set — the scatter data
    /// of Figs. 11c/12c.
    pub test_scatter: Vec<(f64, f64)>,
}

/// A trained logical-operator model: scalers + network + range metadata +
/// the raw training data (kept because the online remedy regresses over
/// the nearest training points, §3), plus the fused inference form
/// derived from the scalers and the network.
///
/// Inputs are normalised in the log domain (`log1p` then min–max): the
/// Fig. 10 training grids are log-spaced over three decades, and raw
/// min–max would crush most of the grid into a corner of the unit cube.
/// The range metadata and the online remedy still operate on raw feature
/// values.
///
/// Scalers and network are private and never reassigned after
/// construction, so the packed form cannot go stale.
#[derive(Debug, Clone)]
pub struct LogicalOpModel {
    /// The operator this model covers.
    pub op: OperatorKind,
    /// Input scaler (fitted in the configured scaling domain).
    scaler_x: MinMaxScaler,
    /// Target scaler (same domain).
    scaler_y: ScalarScaler,
    /// The normalisation domain used at fit time.
    scaling: ScalingMode,
    /// The trained network.
    network: Network,
    /// Trained-range metadata per dimension.
    pub meta: TrainingMeta,
    /// The raw (unscaled) training data.
    training: Dataset,
    /// Fused inference form of `scaling`, the scalers and `network`.
    packed: PackedOpModel,
}

/// What a model is made of and what it looks like on disk: everything
/// but the packed form, which [`LogicalOpModel::from_parts`] derives.
#[derive(Serialize, Deserialize)]
struct ModelParts {
    op: OperatorKind,
    scaler_x: MinMaxScaler,
    scaler_y: ScalarScaler,
    #[serde(default)]
    scaling: ScalingMode,
    network: Network,
    meta: TrainingMeta,
    training: Dataset,
}

impl Serialize for LogicalOpModel {
    fn to_value(&self) -> Value {
        ModelParts {
            op: self.op,
            scaler_x: self.scaler_x.clone(),
            scaler_y: self.scaler_y.clone(),
            scaling: self.scaling,
            network: self.network.clone(),
            meta: self.meta.clone(),
            training: self.training.clone(),
        }
        .to_value()
    }
}

impl Deserialize for LogicalOpModel {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        ModelParts::from_value(v).map(LogicalOpModel::from_parts)
    }
}

impl LogicalOpModel {
    /// The one place a model value is assembled, and so the one place
    /// its packed form is derived.
    fn from_parts(parts: ModelParts) -> Self {
        let ModelParts {
            op,
            scaler_x,
            scaler_y,
            scaling,
            network,
            meta,
            training,
        } = parts;
        let packed = PackedOpModel::from_parts(
            scaling,
            scaler_x.mins.clone(),
            scaler_x.maxs.clone(),
            scaler_y.min,
            scaler_y.max,
            &network,
        );
        LogicalOpModel {
            op,
            scaler_x,
            scaler_y,
            scaling,
            network,
            meta,
            training,
            packed,
        }
    }

    /// Fits a model on a raw dataset (features → elapsed seconds).
    pub fn fit(
        op: OperatorKind,
        dim_names: &[&str],
        data: &Dataset,
        config: &FitConfig,
    ) -> (Self, FitReport) {
        assert!(data.len() >= 10, "need at least 10 training examples");
        let meta = TrainingMeta::from_rows(dim_names, &data.inputs);
        let scaling = config.scaling;
        let domain_inputs: Vec<Vec<f64>> =
            data.inputs.iter().map(|r| to_domain(scaling, r)).collect();
        let scaler_x = MinMaxScaler::fit(&domain_inputs);
        let domain_targets: Vec<f64> = data
            .targets
            .iter()
            .map(|&t| to_domain_scalar(scaling, t))
            .collect();
        let scaler_y = ScalarScaler::fit(&domain_targets);
        let scaled = Dataset::new(
            scaler_x.transform_batch(&domain_inputs),
            domain_targets
                .iter()
                .map(|&t| scaler_y.transform(t))
                .collect(),
        );

        let (train_set, test_set) = scaled.split(0.7, config.seed);
        let train_cfg = TrainConfig {
            iterations: config.iterations,
            batch_size: config.batch_size,
            trace_every: config.trace_every,
            seed: config.seed,
        };

        let (network, topology, trace) = match config.topology {
            TopologyChoice::Fixed { layer1, layer2 } => {
                let mut net = Network::new(scaled.arity(), &[layer1, layer2], config.seed);
                let mut adam = Adam::new(1e-3);
                let trace = train(&mut net, &train_set, &test_set, &mut adam, &train_cfg);
                (net, Topology { layer1, layer2 }, trace)
            }
            TopologyChoice::CrossValidated {
                step,
                search_iterations,
            } => {
                let (net, best) =
                    search_topology(&scaled, step, search_iterations, &train_cfg, config.seed);
                // Re-derive a trace for the winner (search_topology trains
                // with trace disabled internally when trace_every == 0).
                let mut net2 = net.clone();
                let trace = if config.trace_every > 0 {
                    let mut fresh = Network::new(
                        scaled.arity(),
                        &[best.layer1, best.layer2],
                        config.seed ^ 0xA5A5,
                    );
                    let mut adam = Adam::new(1e-3);
                    let t = train(&mut fresh, &train_set, &test_set, &mut adam, &train_cfg);
                    net2 = fresh;
                    t
                } else {
                    let preds = net2.predict_batch(&test_set.inputs);
                    TrainTrace {
                        points: vec![],
                        final_rmse_pct: rmse_pct(&preds, &test_set.targets),
                        iterations: train_cfg.iterations,
                    }
                };
                (net2, best, trace)
            }
        };

        // The trainer's trace is RMSE% over the *normalised log-domain*
        // targets — a pure convergence curve (the shape of Figs. 11b/12b).
        // Original-unit accuracy is reported separately in the FitReport.

        let model = LogicalOpModel::from_parts(ModelParts {
            op,
            scaler_x,
            scaler_y,
            scaling,
            network,
            meta,
            training: data.clone(),
        });

        // Held-out evaluation in original units.
        let mut scatter = Vec::with_capacity(test_set.len());
        let mut scratch = PackedOpScratch::new();
        for (x, &y) in test_set.inputs.iter().zip(&test_set.targets) {
            let raw_x = from_domain(scaling, &model.scaler_x.inverse(x));
            let actual = from_domain_scalar(scaling, model.scaler_y.inverse(y));
            scatter.push((actual, model.packed.predict_one(&raw_x, &mut scratch)));
        }
        let (actuals, preds): (Vec<f64>, Vec<f64>) = scatter.iter().copied().unzip();
        let report = FitReport {
            trace,
            topology,
            test_rmse_pct: rmse_pct(&preds, &actuals),
            test_r2: r2_score(&preds, &actuals),
            test_scatter: scatter,
        };
        (model, report)
    }

    /// This model with its network replaced by `network` (same scalers,
    /// metadata and training data), repacked. For benches that measure
    /// inference over a chosen topology rather than a fitted one.
    ///
    /// # Panics
    /// Panics when `network`'s input width differs from the model's arity.
    pub fn with_network(self, network: Network) -> Self {
        assert_eq!(
            network.input_dim(),
            self.arity(),
            "LogicalOpModel::with_network: arity mismatch"
        );
        LogicalOpModel::from_parts(ModelParts {
            op: self.op,
            scaler_x: self.scaler_x,
            scaler_y: self.scaler_y,
            scaling: self.scaling,
            network,
            meta: self.meta,
            training: self.training,
        })
    }

    /// Raw NN prediction (seconds), for inputs inside or outside the
    /// trained range, through the packed kernel with a throwaway
    /// scratch. Negative outputs are clamped to zero. Callers with a
    /// scratch to reuse go through [`LogicalOpModel::packed`].
    pub fn predict_nn(&self, x: &[f64]) -> f64 {
        self.packed.predict_one(x, &mut PackedOpScratch::new())
    }

    /// The fused inference form: allocation-free kernels over a
    /// caller-owned [`PackedOpScratch`], bit-identical to the reference
    /// chain.
    pub fn packed(&self) -> &PackedOpModel {
        &self.packed
    }

    /// The trained network the packed form was derived from.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Reference for [`LogicalOpModel::predict_nn`]: the layer-by-layer
    /// chain (domain map, scaler transform, [`Network::predict`], inverse
    /// scale, clamp), allocating at every step. Differential tests and
    /// `exp_hotpath`'s `legacy` cells compare the packed kernel against
    /// it; nothing serves estimates from it.
    pub fn predict_nn_reference(&self, x: &[f64]) -> f64 {
        let scaled = self.scaler_x.transform(&to_domain(self.scaling, x));
        let y = self.network.predict(&scaled);
        from_domain_scalar(self.scaling, self.scaler_y.inverse(y)).max(0.0)
    }

    /// Batch form of [`LogicalOpModel::predict_nn_reference`] — one
    /// scaling pass and one [`Network::predict_batch`] call, producing
    /// exactly the values the single-row reference would, row by row.
    /// The oracle of this crate's batch bit-identity tests.
    #[cfg(test)]
    pub(crate) fn predict_nn_batch_reference(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let scaled: Vec<Vec<f64>> = rows
            .iter()
            .map(|x| self.scaler_x.transform(&to_domain(self.scaling, x)))
            .collect();
        self.network
            .predict_batch(&scaled)
            .into_iter()
            .map(|y| from_domain_scalar(self.scaling, self.scaler_y.inverse(y)).max(0.0))
            .collect()
    }

    /// The raw training data (used by the online remedy).
    pub(crate) fn training_data(&self) -> &Dataset {
        &self.training
    }

    /// Number of input dimensions.
    pub fn arity(&self) -> usize {
        self.meta.dims.len()
    }

    /// Retrains the network on the union of the original training data
    /// and `extra`, replacing the model in place. The scalers are refit so
    /// extended value ranges normalise properly, and the metadata is
    /// recomputed from the union — callers that enforce the continuity
    /// rule (offline tuning) preserve and restore their own metadata.
    /// Returns the new held-out RMSE%.
    pub(crate) fn retrain(&mut self, extra: &Dataset, config: &FitConfig) -> f64 {
        let mut all = self.training.clone();
        all.extend(extra);
        let names: Vec<&str> = self.meta.dims.iter().map(|d| d.name.as_str()).collect();
        let (new_model, report) = LogicalOpModel::fit(self.op, &names, &all, config);
        *self = new_model;
        report.test_rmse_pct
    }
}

/// Maps a feature vector into the scaling domain.
fn to_domain(mode: ScalingMode, x: &[f64]) -> Vec<f64> {
    match mode {
        ScalingMode::Linear => x.to_vec(),
        ScalingMode::Log => x.iter().map(|&v| v.max(0.0).ln_1p()).collect(),
    }
}

/// Inverse of [`to_domain`].
fn from_domain(mode: ScalingMode, x: &[f64]) -> Vec<f64> {
    match mode {
        ScalingMode::Linear => x.to_vec(),
        ScalingMode::Log => x.iter().map(|&v| v.exp_m1().max(0.0)).collect(),
    }
}

/// Scalar versions for the target.
fn to_domain_scalar(mode: ScalingMode, y: f64) -> f64 {
    match mode {
        ScalingMode::Linear => y,
        ScalingMode::Log => y.max(0.0).ln_1p(),
    }
}

/// Inverse of [`to_domain_scalar`].
fn from_domain_scalar(mode: ScalingMode, y: f64) -> f64 {
    match mode {
        ScalingMode::Linear => y,
        ScalingMode::Log => y.exp_m1(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic 4-dim "aggregation-like" dataset with a mildly nonlinear
    /// response.
    fn synth_dataset(n: usize) -> Dataset {
        let mut inputs = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for i in 0..n {
            let rows = 1e4 + (i % 20) as f64 * 5e4;
            let size = 40.0 + (i % 6) as f64 * 160.0;
            let groups = rows / [2.0, 5.0, 10.0][i % 3];
            let width = 12.0 + (i % 5) as f64 * 8.0;
            let y = 2.0 + rows * size * 4e-9 + groups * 1e-6 + width * 0.001;
            inputs.push(vec![rows, size, groups, width]);
            targets.push(y);
        }
        Dataset::new(inputs, targets)
    }

    const NAMES: [&str; 4] = ["rows", "size", "groups", "width"];

    #[test]
    fn fixed_topology_fit_learns_the_surface() {
        let data = synth_dataset(300);
        let cfg = FitConfig::fast();
        let (_, report) = LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &cfg);
        assert!(report.test_r2 > 0.9, "r2 {}", report.test_r2);
        assert_eq!(
            report.topology,
            Topology {
                layer1: 10,
                layer2: 5
            }
        );
    }

    #[test]
    fn predictions_are_in_original_units() {
        let data = synth_dataset(300);
        let (model, _) =
            LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &FitConfig::fast());
        let x = &data.inputs[7];
        let pred = model.predict_nn(x);
        let actual = data.targets[7];
        assert!(
            (pred - actual).abs() / actual < 0.5,
            "pred {pred} vs {actual}"
        );
    }

    #[test]
    fn metadata_covers_training_ranges() {
        let data = synth_dataset(100);
        let (model, _) =
            LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &FitConfig::fast());
        assert_eq!(model.arity(), 4);
        assert_eq!(model.meta.dims[1].min, 40.0);
        assert!(model.meta.all_in_range(&data.inputs[0], 2.0));
    }

    #[test]
    fn cross_validated_topology_is_within_paper_bounds() {
        let data = synth_dataset(120);
        let cfg = FitConfig {
            topology: TopologyChoice::CrossValidated {
                step: 4,
                search_iterations: 200,
            },
            iterations: 600,
            batch_size: 16,
            trace_every: 0,
            seed: 5,
            scaling: Default::default(),
        };
        let (_, report) = LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &cfg);
        assert!((4..=8).contains(&report.topology.layer1));
        assert!(report.topology.layer2 >= 3);
    }

    #[test]
    fn retrain_improves_out_of_range_predictions() {
        let data = synth_dataset(300);
        let (mut model, _) =
            LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &FitConfig::fast());
        // Out-of-range points: much larger row counts.
        let mut extra = Dataset::new(vec![], vec![]);
        for i in 0..60 {
            let rows = 3e6 + (i % 10) as f64 * 1e5;
            let size = 40.0 + (i % 6) as f64 * 160.0;
            let groups = rows / 5.0;
            let width = 20.0;
            let y = 2.0 + rows * size * 4e-9 + groups * 1e-6 + width * 0.001;
            extra.push(vec![rows, size, groups, width], y);
        }
        let probe = vec![3.5e6, 500.0, 7e5, 20.0];
        let truth = 2.0 + 3.5e6 * 500.0 * 4e-9 + 7e5 * 1e-6 + 0.02;
        let before = (model.predict_nn(&probe) - truth).abs();
        model.retrain(&extra, &FitConfig::fast());
        let after = (model.predict_nn(&probe) - truth).abs();
        assert!(after < before, "before err {before}, after err {after}");
    }

    #[test]
    fn batched_predictions_match_single_row_path() {
        let data = synth_dataset(120);
        let (model, _) =
            LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &FitConfig::fast());
        let batched = model.predict_nn_batch_reference(&data.inputs);
        for (x, &b) in data.inputs.iter().zip(&batched) {
            assert_eq!(model.predict_nn_reference(x).to_bits(), b.to_bits());
            assert_eq!(model.predict_nn(x).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let data = synth_dataset(100);
        let (model, _) =
            LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &FitConfig::fast());
        let json = serde_json::to_string(&model).unwrap();
        let back: LogicalOpModel = serde_json::from_str(&json).unwrap();
        let x = &data.inputs[3];
        assert_eq!(model.predict_nn(x), back.predict_nn(x));
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn fit_requires_enough_data() {
        let data = synth_dataset(5);
        LogicalOpModel::fit(OperatorKind::Aggregation, &NAMES, &data, &FitConfig::fast());
    }
}
