//! Fused packed inference for one logical-operator model.
//!
//! The layer-by-layer chain a model is trained through walks three heap
//! allocations per call (domain mapping, scaler output, per-layer
//! activations) before a single multiply runs. [`PackedOpModel`] fuses
//! the whole chain — domain map, min–max scale, [`neuro::PackedNetwork`]
//! forward pass, inverse scale, clamp — into one read-only object with
//! contiguous parameter arenas and a caller-owned [`PackedOpScratch`],
//! so a warm estimate performs **zero** heap allocations. Every
//! [`crate::logical_op::LogicalOpModel`] owns one, derived when the
//! model is constructed, and serves every NN prediction through it.
//!
//! # Bit-identity contract
//!
//! Every value produced here is bit-identical to the reference chain
//! ([`crate::logical_op::LogicalOpModel::predict_nn_reference`] and its
//! batch form): the per-column scaling replays `MinMaxScaler::transform`
//! exactly (`span == 0.0 → 0.0`, else `(d − min) / span`), the domain
//! maps replay `to_domain` / `from_domain_scalar`, and the network kernel
//! carries [`neuro::PackedNetwork`]'s own bit-identity guarantee.
//! Derivation is deterministic — the same scalers and network always
//! pack to identical arenas; differential tests enforce the contract.

use crate::logical_op::model::ScalingMode;
use neuro::{Network, PackedNetwork, PackedScratch};

/// Reusable per-thread scratch for [`PackedOpModel`]: one scaled feature
/// row, a flat scaled-batch staging buffer, and the network's internal
/// buffers. Steady-state inference through a warm scratch performs zero
/// heap allocations.
#[derive(Debug, Default)]
pub struct PackedOpScratch {
    xrow: Vec<f64>,
    scaled: Vec<f64>,
    nn: PackedScratch,
}

impl PackedOpScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    pub const fn new() -> Self {
        PackedOpScratch {
            xrow: Vec::new(),
            scaled: Vec::new(),
            nn: PackedScratch::new(),
        }
    }
}

/// The read-only fused-inference form of a [`crate::logical_op::LogicalOpModel`]:
/// the scaling parameters flattened next to a [`PackedNetwork`], with the
/// scale → forward → inverse chain fused into allocation-free kernels.
/// Training works on the model's scalers and network; the model packs
/// them once at construction and every prediction reads this form.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedOpModel {
    scaling: ScalingMode,
    /// Per-column fitted minima (input scaler).
    mins: Vec<f64>,
    /// Per-column fitted maxima (input scaler).
    maxs: Vec<f64>,
    /// Target-scaler fitted minimum.
    y_min: f64,
    /// Target-scaler fitted maximum.
    y_max: f64,
    network: PackedNetwork,
}

impl PackedOpModel {
    /// Assembles a packed model from its scaling parameters and a trained
    /// network. Called by the model's one constructor, which owns the
    /// private scaler state.
    pub(crate) fn from_parts(
        scaling: ScalingMode,
        mins: Vec<f64>,
        maxs: Vec<f64>,
        y_min: f64,
        y_max: f64,
        network: &Network,
    ) -> Self {
        PackedOpModel {
            scaling,
            mins,
            maxs,
            y_min,
            y_max,
            network: PackedNetwork::from_network(network),
        }
    }

    /// Number of input dimensions.
    pub(crate) fn arity(&self) -> usize {
        self.mins.len()
    }

    /// The packed network kernel (for benches that want the bare NN).
    pub fn network(&self) -> &PackedNetwork {
        &self.network
    }

    /// Fused domain-map + min–max scale of one raw feature row into
    /// `out`. Bit-identical to `transform(&to_domain(scaling, row))`.
    fn scale_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            row.iter()
                .zip(self.mins.iter().zip(&self.maxs))
                .map(|(&v, (&min, &max))| {
                    let d = match self.scaling {
                        ScalingMode::Linear => v,
                        ScalingMode::Log => v.max(0.0).ln_1p(),
                    };
                    let span = max - min;
                    if span == 0.0 {
                        0.0
                    } else {
                        (d - min) / span
                    }
                }),
        );
    }

    /// Inverse target scaling + domain unmap + clamp-to-zero — the exact
    /// tail of the reference chain.
    fn unscale(&self, y: f64) -> f64 {
        let y = self.y_min + y * (self.y_max - self.y_min);
        let y = match self.scaling {
            ScalingMode::Linear => y,
            ScalingMode::Log => y.exp_m1(),
        };
        y.max(0.0)
    }

    /// Fused raw-NN prediction (seconds) for one raw feature row.
    /// Bit-identical to
    /// [`crate::logical_op::LogicalOpModel::predict_nn_reference`];
    /// allocation-free once `scratch` is warm.
    ///
    /// # Panics
    /// Panics when `x.len()` differs from the model's arity.
    pub fn predict_one(&self, x: &[f64], scratch: &mut PackedOpScratch) -> f64 {
        assert_eq!(
            x.len(),
            self.arity(),
            "PackedOpModel::predict_one: arity mismatch"
        );
        self.scale_into(x, &mut scratch.xrow);
        self.unscale(self.network.predict_one(&scratch.xrow, &mut scratch.nn))
    }

    /// Fused raw-NN predictions for a row-major flat batch
    /// (`rows.len() / width` rows of `width` raw features), written into
    /// `out` (cleared first). Bit-identical, row for row, to
    /// [`crate::logical_op::LogicalOpModel::predict_nn_reference`];
    /// allocation-free once `out` and `scratch` are warm.
    ///
    /// # Panics
    /// Panics when `width` differs from the model's arity or `rows.len()`
    /// is not a multiple of `width`.
    pub fn predict_batch_into(
        &self,
        rows: &[f64],
        width: usize,
        out: &mut Vec<f64>,
        scratch: &mut PackedOpScratch,
    ) {
        assert_eq!(
            width,
            self.arity(),
            "PackedOpModel::predict_batch_into: arity mismatch"
        );
        assert_eq!(
            rows.len() % width.max(1),
            0,
            "PackedOpModel::predict_batch_into: flat batch is not a multiple of width"
        );
        // Stage the whole batch scaled and flat, run the network's
        // blocked lane-parallel kernel over it, then unscale in place.
        // Each element's arithmetic is unchanged from the row-at-a-time
        // form, so bit-identity holds.
        scratch.scaled.clear();
        scratch.scaled.reserve(rows.len());
        for row in rows.chunks_exact(width) {
            self.scale_into(row, &mut scratch.xrow);
            scratch.scaled.extend_from_slice(&scratch.xrow);
        }
        self.network
            .predict_batch_into(&scratch.scaled, width, out, &mut scratch.nn);
        for y in out.iter_mut() {
            *y = self.unscale(*y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::OperatorKind;
    use crate::logical_op::model::{FitConfig, LogicalOpModel};
    use neuro::Dataset;

    fn synth_model(scaling: ScalingMode) -> LogicalOpModel {
        let inputs: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let f = i as f64;
                vec![
                    f * 10.0 + 1.0,
                    f * 3.0,
                    50.0 - f * 0.5,
                    f.mul_add(0.25, 2.0),
                ]
            })
            .collect();
        let targets: Vec<f64> = inputs
            .iter()
            .map(|r| r.iter().sum::<f64>() * 0.01 + 0.5)
            .collect();
        let data = Dataset::new(inputs, targets);
        let mut cfg = FitConfig::fast();
        cfg.scaling = scaling;
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["a", "b", "c", "d"],
            &data,
            &cfg,
        );
        model
    }

    #[test]
    fn packed_matches_predict_nn_bit_for_bit() {
        for scaling in [ScalingMode::Linear, ScalingMode::Log] {
            let model = synth_model(scaling);
            let packed = model.packed();
            let mut scratch = PackedOpScratch::new();
            for i in 0..40 {
                let f = i as f64;
                // Mix in-range, out-of-range, and negative probes.
                let x = vec![f * 17.0 - 30.0, f * 5.0, 60.0 - f, f * 0.4];
                assert_eq!(
                    model.predict_nn_reference(&x).to_bits(),
                    packed.predict_one(&x, &mut scratch).to_bits(),
                    "probe {i} under {scaling:?}"
                );
                assert_eq!(
                    model.predict_nn(&x).to_bits(),
                    packed.predict_one(&x, &mut scratch).to_bits(),
                    "predict_nn is the packed kernel"
                );
            }
        }
    }

    #[test]
    fn packed_batch_matches_predict_nn_batch_bit_for_bit() {
        let model = synth_model(ScalingMode::Log);
        let packed = model.packed();
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| {
                let f = i as f64;
                vec![f * 11.0, f * 2.0 + 1.0, 40.0 - f, f]
            })
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let legacy = model.predict_nn_batch_reference(&rows);
        let mut out = Vec::new();
        let mut scratch = PackedOpScratch::new();
        packed.predict_batch_into(&flat, 4, &mut out, &mut scratch);
        assert_eq!(legacy.len(), out.len());
        for (i, (l, p)) in legacy.iter().zip(&out).enumerate() {
            assert_eq!(l.to_bits(), p.to_bits(), "row {i}: legacy {l} packed {p}");
        }
    }

    #[test]
    fn packing_is_deterministic() {
        // Deserialisation packs again from the same scalers and network.
        let model = synth_model(ScalingMode::Log);
        let json = serde_json::to_string(&model).unwrap();
        let reloaded: LogicalOpModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model.packed(), reloaded.packed());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_one_checks_arity() {
        let model = synth_model(ScalingMode::Linear);
        model
            .packed()
            .predict_one(&[1.0], &mut PackedOpScratch::new());
    }
}
