//! A fully-connected layer with explicit forward/backward passes.

use crate::activation::Activation;
use rand::{rngs::StdRng, Rng};
use serde::{Deserialize, Serialize};

/// A dense layer `y = act(W·x + b)` with `W` stored row-major
/// (`out_dim × in_dim`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DenseLayer {
    /// Weight matrix, row-major `out_dim × in_dim`.
    pub(crate) weights: Vec<f64>,
    /// One bias per output unit.
    pub(crate) biases: Vec<f64>,
    /// Input dimensionality.
    pub(crate) in_dim: usize,
    /// Output dimensionality.
    pub(crate) out_dim: usize,
    /// Activation applied to the affine output.
    pub(crate) activation: Activation,
}

/// Gradients for one layer, same shapes as the parameters.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// d(loss)/d(weights), row-major `out_dim × in_dim`.
    pub(crate) weights: Vec<f64>,
    /// d(loss)/d(biases).
    pub(crate) biases: Vec<f64>,
}

impl LayerGrads {
    /// Zeroed gradients matching `layer`.
    pub(crate) fn zeros_like(layer: &DenseLayer) -> Self {
        LayerGrads {
            weights: vec![0.0; layer.weights.len()],
            biases: vec![0.0; layer.biases.len()],
        }
    }

    /// Scales the gradient by a constant (e.g. 1/batch_size).
    pub(crate) fn scale(&mut self, k: f64) {
        for w in &mut self.weights {
            *w *= k;
        }
        for b in &mut self.biases {
            *b *= k;
        }
    }
}

impl DenseLayer {
    /// Creates a layer with Xavier/Glorot-uniform initialised weights and
    /// zero biases, drawing from the caller's RNG.
    pub(crate) fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        DenseLayer {
            weights,
            biases: vec![0.0; out_dim],
            in_dim,
            out_dim,
            activation,
        }
    }

    /// Forward pass: returns the activated output.
    pub(crate) fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.out_dim);
        self.forward_into(input, &mut out);
        out
    }

    /// Forward pass into a caller-owned buffer, so batched inference can
    /// reuse one allocation across rows. The buffer is cleared first;
    /// the arithmetic is identical to [`DenseLayer::forward`].
    pub(crate) fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(input.len(), self.in_dim);
        out.clear();
        out.extend(
            self.weights
                .chunks_exact(self.in_dim)
                .zip(&self.biases)
                .map(|(row, &bias)| {
                    let z: f64 = row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + bias;
                    self.activation.apply(z)
                }),
        );
    }

    /// Backward pass for one example.
    ///
    /// `input` is the layer input, `output` the activated output from the
    /// forward pass, and `grad_out` is d(loss)/d(output). Returns
    /// d(loss)/d(input) and fills `grads`.
    #[expect(
        clippy::indexing_slicing,
        reason = "o < out_dim and i < in_dim index buffers of out_dim, in_dim and out_dim*in_dim entries"
    )]
    pub(crate) fn backward(
        &self,
        input: &[f64],
        output: &[f64],
        grad_out: &[f64],
        grads: &mut LayerGrads,
    ) -> Vec<f64> {
        debug_assert_eq!(grad_out.len(), self.out_dim);
        let mut grad_in = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            // delta = dL/dz for the affine pre-activation z.
            let delta = grad_out[o] * self.activation.derivative_from_output(output[o]);
            if delta == 0.0 {
                continue;
            }
            grads.biases[o] += delta;
            let wrow = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut grads.weights[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += delta * input[i];
                grad_in[i] += delta * wrow[i];
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fixed_layer() -> DenseLayer {
        // 2 -> 2 identity layer with known weights.
        DenseLayer {
            weights: vec![1.0, 2.0, 3.0, 4.0],
            biases: vec![0.5, -0.5],
            in_dim: 2,
            out_dim: 2,
            activation: Activation::Identity,
        }
    }

    #[test]
    fn forward_computes_affine_map() {
        let l = fixed_layer();
        let y = l.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn xavier_init_within_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = DenseLayer::new(10, 5, Activation::Tanh, &mut rng);
        let limit = (6.0f64 / 15.0).sqrt();
        assert!(l.weights.iter().all(|w| w.abs() <= limit));
        assert!(l.biases.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = DenseLayer::new(3, 2, Activation::Tanh, &mut rng);
        let input = [0.3, -0.8, 0.5];
        // Loss = sum(output) so grad_out = ones.
        let loss = |l: &DenseLayer| -> f64 { l.forward(&input).iter().sum() };

        let output = layer.forward(&input);
        let mut grads = LayerGrads::zeros_like(&layer);
        let grad_in = layer.backward(&input, &output, &[1.0, 1.0], &mut grads);

        let eps = 1e-6;
        for k in 0..layer.weights.len() {
            let orig = layer.weights[k];
            layer.weights[k] = orig + eps;
            let up = loss(&layer);
            layer.weights[k] = orig - eps;
            let down = loss(&layer);
            layer.weights[k] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grads.weights[k]).abs() < 1e-5,
                "weight {k}: numeric {numeric} vs analytic {}",
                grads.weights[k]
            );
        }
        // Input gradient check.
        let mut input_v = input.to_vec();
        for i in 0..3 {
            let orig = input_v[i];
            input_v[i] = orig + eps;
            let up: f64 = layer.forward(&input_v).iter().sum();
            input_v[i] = orig - eps;
            let down: f64 = layer.forward(&input_v).iter().sum();
            input_v[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!((numeric - grad_in[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let l = fixed_layer();
        let mut g = LayerGrads::zeros_like(&l);
        let out = l.forward(&[1.0, 0.0]);
        l.backward(&[1.0, 0.0], &out, &[1.0, 1.0], &mut g);
        // A second backward pass accumulates into the same buffers.
        let mut g2 = g.clone();
        l.backward(&[1.0, 0.0], &out, &[1.0, 1.0], &mut g2);
        g2.scale(0.5);
        assert_eq!(g2.weights, g.weights);
        assert_eq!(g2.biases, g.biases);
    }
}
