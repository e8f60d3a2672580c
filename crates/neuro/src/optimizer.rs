//! The first-order optimiser: Adam.

use crate::{layer::LayerGrads, network::Network};

/// A parameter-update rule applied after each mini-batch.
pub trait Optimizer {
    /// Applies one update step given averaged mini-batch gradients.
    fn step(&mut self, net: &mut Network, grads: &[LayerGrads]);
}

/// Adam (Kingma & Ba) with bias-corrected first/second moments.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (default 1e-3 via [`Adam::new`]).
    pub lr: f64,
    /// First-moment decay (0.9).
    pub beta1: f64,
    /// Second-moment decay (0.999).
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: u64,
    m: Vec<LayerGrads>,
    v: Vec<LayerGrads>,
}

impl Adam {
    /// Creates an Adam optimiser with the standard β₁=0.9, β₂=0.999.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![],
            v: vec![],
        }
    }

    fn ensure_state(&mut self, net: &Network) {
        if self.m.len() != net.layers().len() {
            self.m = net.zero_grads();
            self.v = net.zero_grads();
            self.t = 0;
        }
    }
}

impl Optimizer for Adam {
    #[expect(
        clippy::indexing_slicing,
        reason = "k indexes three parallel buffers of one layer's length; ensure_state sized m and v to net"
    )]
    fn step(&mut self, net: &mut Network, grads: &[LayerGrads]) {
        self.ensure_state(net);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (li, (layer, g)) in net.layers_mut().iter_mut().zip(grads).enumerate() {
            let (m, v) = (&mut self.m[li], &mut self.v[li]);
            for k in 0..layer.weights.len() {
                m.weights[k] = self.beta1 * m.weights[k] + (1.0 - self.beta1) * g.weights[k];
                v.weights[k] =
                    self.beta2 * v.weights[k] + (1.0 - self.beta2) * g.weights[k] * g.weights[k];
                let mhat = m.weights[k] / b1t;
                let vhat = v.weights[k] / b2t;
                layer.weights[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            for k in 0..layer.biases.len() {
                m.biases[k] = self.beta1 * m.biases[k] + (1.0 - self.beta1) * g.biases[k];
                v.biases[k] =
                    self.beta2 * v.biases[k] + (1.0 - self.beta2) * g.biases[k] * g.biases[k];
                let mhat = m.biases[k] / b1t;
                let vhat = v.biases[k] / b2t;
                layer.biases[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One gradient step must reduce the loss on a smooth toy problem.
    fn loss(net: &Network, x: &[f64], t: f64) -> f64 {
        let e = net.predict(x) - t;
        0.5 * e * e
    }

    #[test]
    fn adam_step_reduces_loss_over_iterations() {
        let mut net = Network::new(2, &[4], 2);
        let x = [0.5, -0.5];
        let mut adam = Adam::new(0.01);
        let before = loss(&net, &x, 2.0);
        for _ in 0..200 {
            let mut grads = net.zero_grads();
            net.accumulate_grads(&x, 2.0, &mut grads);
            adam.step(&mut net, &grads);
        }
        let after = loss(&net, &x, 2.0);
        assert!(after < before * 0.01, "before {before}, after {after}");
    }

    #[test]
    fn adam_state_resizes_with_new_network() {
        let mut adam = Adam::new(0.01);
        let mut a = Network::new(2, &[3], 1);
        let g = a.zero_grads();
        adam.step(&mut a, &g);
        // Switching to a different architecture must not panic.
        let mut b = Network::new(2, &[5, 4], 1);
        let g2 = b.zero_grads();
        adam.step(&mut b, &g2);
    }
}
