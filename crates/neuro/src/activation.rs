//! Element-wise activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent — the default hidden activation; smooth and
    /// bounded, appropriate for the min-max-normalised inputs used here.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (used for the output layer of a regression network).
    Identity,
}

impl Activation {
    /// Applies the activation to one pre-activation value.
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// The derivative of the activation expressed in terms of the
    /// *activated* value `y = apply(x)`, which is what backprop has at hand.
    pub(crate) fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_matches_std() {
        assert!((Activation::Tanh.apply(0.7) - 0.7f64.tanh()).abs() < 1e-15);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn sigmoid_midpoint() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn identity_is_identity() {
        assert_eq!(Activation::Identity.apply(42.0), 42.0);
        assert_eq!(Activation::Identity.derivative_from_output(42.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Tanh, Activation::Sigmoid] {
            for &x in &[-2.0, -0.5, 0.0, 0.5, 2.0] {
                let y = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_from_output() {
        assert_eq!(Activation::Relu.derivative_from_output(5.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
    }
}
