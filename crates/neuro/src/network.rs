//! A feed-forward network: a stack of dense layers with a scalar
//! (regression) output head.

use crate::{
    activation::Activation,
    layer::{DenseLayer, LayerGrads},
};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A feed-forward regression network.
///
/// The paper fixes the depth to two hidden layers (§3, citing its reference 18) and
/// searches only the widths; this type supports any depth so the ablation
/// benches can vary it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<DenseLayer>,
}

impl Network {
    /// Builds a network with the given hidden widths and a single
    /// identity-activated output unit, e.g. `Network::new(7, &[14, 7], seed)`
    /// for a 7-input join model.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        Self::with_activation(input_dim, hidden, Activation::Tanh, seed)
    }

    /// Like [`Network::new`] but with a chosen hidden activation.
    pub fn with_activation(input_dim: usize, hidden: &[usize], act: Activation, seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = input_dim;
        for &h in hidden {
            layers.push(DenseLayer::new(prev, h, act, &mut rng));
            prev = h;
        }
        layers.push(DenseLayer::new(prev, 1, Activation::Identity, &mut rng));
        Network { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim)
    }

    /// Hidden layer widths (excluding the output head); the shape probe
    /// of this crate's construction and topology-search tests.
    #[cfg(test)]
    pub(crate) fn hidden_widths(&self) -> Vec<usize> {
        self.layers
            .split_last()
            .map(|(_, hidden)| hidden.iter().map(|l| l.out_dim).collect())
            .unwrap_or_default()
    }

    /// Predicts the scalar output for one input row.
    #[expect(clippy::indexing_slicing, reason = "the output head is one unit wide")]
    pub fn predict(&self, input: &[f64]) -> f64 {
        assert_eq!(
            input.len(),
            self.input_dim(),
            "Network::predict: arity mismatch"
        );
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x[0]
    }

    /// Predicts for a batch of rows, amortising the per-layer activation
    /// allocations across the whole batch: two scratch buffers are ping-
    /// ponged through the layer stack instead of allocating one vector per
    /// layer per row. The arithmetic (and therefore every bit of every
    /// prediction) is identical to calling [`Network::predict`] per row.
    #[expect(clippy::indexing_slicing, reason = "the output head is one unit wide")]
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let widest = self
            .layers
            .iter()
            .map(|l| l.out_dim)
            .max()
            .unwrap_or(0)
            .max(self.input_dim());
        let mut cur: Vec<f64> = Vec::with_capacity(widest);
        let mut next: Vec<f64> = Vec::with_capacity(widest);
        rows.iter()
            .map(|r| {
                assert_eq!(
                    r.len(),
                    self.input_dim(),
                    "Network::predict_batch: arity mismatch"
                );
                cur.clear();
                cur.extend_from_slice(r);
                for layer in &self.layers {
                    layer.forward_into(&cur, &mut next);
                    std::mem::swap(&mut cur, &mut next);
                }
                cur[0]
            })
            .collect()
    }

    /// [`Network::predict_batch`] over a row-major flat buffer:
    /// `rows.len() / width` rows of `width` features each, no per-row
    /// `Vec` required. Call sites that already own contiguous data
    /// (batch staging buffers, benchmark matrices) should prefer this
    /// over cloning rows into a `Vec<Vec<f64>>`. Bit-identical to the
    /// nested-slice path.
    #[expect(clippy::indexing_slicing, reason = "the output head is one unit wide")]
    pub fn predict_batch_flat(&self, rows: &[f64], width: usize) -> Vec<f64> {
        assert_eq!(
            width,
            self.input_dim(),
            "Network::predict_batch_flat: arity mismatch"
        );
        assert_eq!(
            rows.len() % width,
            0,
            "Network::predict_batch_flat: flat batch is not a multiple of width"
        );
        let widest = self
            .layers
            .iter()
            .map(|l| l.out_dim)
            .max()
            .unwrap_or(0)
            .max(self.input_dim());
        let mut cur: Vec<f64> = Vec::with_capacity(widest);
        let mut next: Vec<f64> = Vec::with_capacity(widest);
        rows.chunks_exact(width)
            .map(|r| {
                cur.clear();
                cur.extend_from_slice(r);
                for layer in &self.layers {
                    layer.forward_into(&cur, &mut next);
                    std::mem::swap(&mut cur, &mut next);
                }
                cur[0]
            })
            .collect()
    }

    /// Forward pass keeping every layer's activated output (index 0 is the
    /// input itself); used by backprop.
    fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        let mut x = input.to_vec();
        for layer in &self.layers {
            let next = layer.forward(&x);
            acts.push(std::mem::replace(&mut x, next));
        }
        acts.push(x);
        acts
    }

    /// Accumulates MSE gradients for one example into `grads` and returns
    /// its squared error.
    #[expect(
        clippy::indexing_slicing,
        reason = "forward_trace returns layers+1 activations, grads has one entry per layer, and the output head is one unit wide"
    )]
    pub(crate) fn accumulate_grads(
        &self,
        input: &[f64],
        target: f64,
        grads: &mut [LayerGrads],
    ) -> f64 {
        debug_assert_eq!(grads.len(), self.layers.len());
        let acts = self.forward_trace(input);
        let pred = acts[self.layers.len()][0];
        let err = pred - target;
        // d(0.5·err²)/d(pred) = err
        let mut grad = vec![err];
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            grad = layer.backward(&acts[idx], &acts[idx + 1], &grad, &mut grads[idx]);
        }
        err * err
    }

    /// Fresh zeroed gradient buffers matching this network.
    pub(crate) fn zero_grads(&self) -> Vec<LayerGrads> {
        self.layers.iter().map(LayerGrads::zeros_like).collect()
    }

    /// Read access to the layer stack (for optimisers).
    pub(crate) fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable access to the layer stack (for optimisers).
    pub(crate) fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let n = Network::new(7, &[14, 7], 1);
        assert_eq!(n.input_dim(), 7);
        assert_eq!(n.hidden_widths(), vec![14, 7]);
    }

    #[test]
    fn same_seed_same_network() {
        let a = Network::new(4, &[8, 4], 99);
        let b = Network::new(4, &[8, 4], 99);
        assert_eq!(a, b);
        let c = Network::new(4, &[8, 4], 100);
        assert_ne!(a, c);
    }

    #[test]
    fn predict_is_deterministic() {
        let n = Network::new(3, &[5], 7);
        let x = [0.1, 0.2, 0.3];
        assert_eq!(n.predict(&x), n.predict(&x));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_checks_arity() {
        Network::new(3, &[4], 0).predict(&[1.0]);
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "indices walk layers and grads in lockstep"
    )]
    fn network_gradients_match_finite_differences() {
        let mut net = Network::new(2, &[4, 3], 5);
        let input = [0.4, -0.6];
        let target = 0.8;
        let mut grads = net.zero_grads();
        net.accumulate_grads(&input, target, &mut grads);

        let loss = |n: &Network| {
            let e = n.predict(&input) - target;
            0.5 * e * e
        };
        let eps = 1e-6;
        for li in 0..net.layers().len() {
            for k in 0..net.layers()[li].weights.len() {
                let orig = net.layers()[li].weights[k];
                net.layers_mut()[li].weights[k] = orig + eps;
                let up = loss(&net);
                net.layers_mut()[li].weights[k] = orig - eps;
                let down = loss(&net);
                net.layers_mut()[li].weights[k] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - grads[li].weights[k]).abs() < 1e-5,
                    "layer {li} weight {k}: {numeric} vs {}",
                    grads[li].weights[k]
                );
            }
        }
    }

    #[test]
    fn predict_batch_matches_predict_bit_for_bit() {
        let n = Network::new(5, &[11, 6], 21);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..5).map(|d| (i * 5 + d) as f64 * 0.013 - 1.2).collect())
            .collect();
        let batched = n.predict_batch(&rows);
        for (row, &b) in rows.iter().zip(&batched) {
            assert_eq!(n.predict(row), b, "row {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_batch_checks_arity() {
        Network::new(3, &[4], 0).predict_batch(&[vec![1.0, 2.0]]);
    }

    #[test]
    fn predict_batch_flat_matches_nested_bit_for_bit() {
        let n = Network::new(4, &[9, 5], 13);
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| (0..4).map(|d| (i * 4 + d) as f64 * 0.021 - 0.9).collect())
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let nested = n.predict_batch(&rows);
        let from_flat = n.predict_batch_flat(&flat, 4);
        assert_eq!(nested.len(), from_flat.len());
        for (a, b) in nested.iter().zip(&from_flat) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "multiple of width")]
    fn predict_batch_flat_checks_length() {
        Network::new(3, &[4], 0).predict_batch_flat(&[1.0, 2.0, 3.0, 4.0], 3);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let n = Network::new(4, &[8, 4], 2);
        let json = serde_json::to_string(&n).unwrap();
        let back: Network = serde_json::from_str(&json).unwrap();
        let x = [0.1, 0.9, -0.4, 0.0];
        assert_eq!(n.predict(&x), back.predict(&x));
    }
}
