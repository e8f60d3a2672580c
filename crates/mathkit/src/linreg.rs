//! Ordinary-least-squares linear regression.
//!
//! Two shapes are provided:
//!
//! * [`SimpleLinearModel`] — one predictor, closed-form fit. This is the
//!   model the paper uses for each sub-operator (e.g. Fig. 7b:
//!   `y = 0.0041·x + 0.6323` for ReadDFS), and the model built on the fly
//!   over pivot-dimension neighbours during the online remedy phase.
//! * [`LinearModel`] — multiple predictors, fit via the normal equations
//!   with optional ridge stabilisation. This is the paper's "linear
//!   regression" baseline for the logical-operator models (Figs. 11d, 12d).

use crate::{all_finite, matrix::Matrix, MathError, Result};
use serde::{Deserialize, Serialize};

/// A fitted one-predictor linear model `y = slope·x + intercept`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimpleLinearModel {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// R² of the fit on its training data.
    pub r2: f64,
}

impl SimpleLinearModel {
    /// Fits `y = slope·x + intercept` by least squares.
    ///
    /// Requires at least two points. When all `x` are identical the model
    /// degenerates to the constant mean with zero slope.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self> {
        if xs.len() != ys.len() {
            return Err(MathError::DimensionMismatch {
                context: "SimpleLinearModel::fit",
            });
        }
        if xs.len() < 2 {
            return Err(MathError::NotEnoughData {
                have: xs.len(),
                need: 2,
            });
        }
        if !all_finite(xs) || !all_finite(ys) {
            return Err(MathError::NonFinite);
        }
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let (slope, intercept) = if sxx == 0.0 {
            (0.0, my)
        } else {
            let s = sxy / sxx;
            (s, my - s * mx)
        };
        let preds: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let r2 = crate::metrics::r2_score(&preds, ys);
        Ok(SimpleLinearModel {
            slope,
            intercept,
            r2,
        })
    }

    /// Predicts `y` for a given `x` (extrapolates freely).
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// A fitted multi-predictor linear model `y = w·x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Per-feature weights.
    pub weights: Vec<f64>,
    /// Intercept.
    pub(crate) intercept: f64,
}

impl LinearModel {
    /// Fits by solving the normal equations `(XᵀX)θ = Xᵀy` where `X` is the
    /// design matrix augmented with a constant column.
    ///
    /// If `XᵀX` is singular, a small ridge term is added and the solve is
    /// retried; only if that also fails is [`MathError::Singular`] returned.
    pub fn fit(rows: &[Vec<f64>], ys: &[f64]) -> Result<Self> {
        let n = rows.len();
        if n != ys.len() {
            return Err(MathError::DimensionMismatch {
                context: "LinearModel::fit",
            });
        }
        let d = rows.first().map_or(0, Vec::len);
        if n < d + 1 {
            return Err(MathError::NotEnoughData {
                have: n,
                need: d + 1,
            });
        }
        if rows.iter().any(|r| r.len() != d) {
            return Err(MathError::DimensionMismatch {
                context: "LinearModel::fit (ragged)",
            });
        }
        if rows.iter().any(|r| !all_finite(r)) || !all_finite(ys) {
            return Err(MathError::NonFinite);
        }

        // Augmented design matrix: features + bias column.
        let mut x = Matrix::zeros(n, d + 1);
        for (i, r) in rows.iter().enumerate() {
            if let Some((bias, features)) = x.row_mut(i).split_last_mut() {
                features.copy_from_slice(r);
                *bias = 1.0;
            }
        }
        let xt = x.transpose();
        let mut xtx = xt.matmul(&x)?;
        let xty = xt.matvec(ys)?;

        let theta = match xtx.solve(&xty) {
            Ok(t) => t,
            Err(MathError::Singular) => {
                // Scale the ridge to the matrix magnitude: features like
                // row counts make the Gram matrix entries huge, and an
                // absolute epsilon would vanish against them.
                let mean_diag = (0..=d).map(|i| xtx[(i, i)].abs()).sum::<f64>() / (d + 1) as f64;
                xtx.add_ridge(1e-8 * mean_diag.max(1.0));
                xtx.solve(&xty)?
            }
            Err(e) => return Err(e),
        };
        let Some((&intercept, weights)) = theta.split_last() else {
            return Err(MathError::DimensionMismatch {
                context: "LinearModel::fit (solution)",
            });
        };
        Ok(LinearModel {
            weights: weights.to_vec(),
            intercept,
        })
    }

    /// Predicts `y` for one feature vector.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the number of fitted weights.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.weights.len(),
            "LinearModel::predict: arity mismatch"
        );
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let m = SimpleLinearModel::fit(&xs, &ys).unwrap();
        assert!((m.slope - 3.0).abs() < 1e-10);
        assert!((m.intercept - 2.0).abs() < 1e-10);
        assert!((m.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simple_fit_constant_x_degenerates_to_mean() {
        let m = SimpleLinearModel::fit(&[2.0, 2.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
        assert_eq!(m.slope, 0.0);
        assert!((m.intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn simple_fit_needs_two_points() {
        assert!(matches!(
            SimpleLinearModel::fit(&[1.0], &[1.0]),
            Err(MathError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn simple_fit_rejects_nan() {
        assert_eq!(
            SimpleLinearModel::fit(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(MathError::NonFinite)
        );
    }

    #[test]
    fn simple_extrapolates_linearly() {
        let m = SimpleLinearModel {
            slope: 2.0,
            intercept: 1.0,
            r2: 1.0,
        };
        assert_eq!(m.predict(100.0), 201.0);
        assert_eq!(m.predict(-10.0), -19.0);
    }

    #[test]
    fn multi_fit_recovers_exact_plane() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 0.5 * r[1] + 4.0).collect();
        let m = LinearModel::fit(&rows, &ys).unwrap();
        assert!((m.weights[0] - 2.0).abs() < 1e-8);
        assert!((m.weights[1] + 0.5).abs() < 1e-8);
        assert!((m.intercept - 4.0).abs() < 1e-8);
    }

    #[test]
    fn multi_fit_handles_collinear_features_via_ridge() {
        // Second feature is an exact copy of the first: X^T X singular.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let m = LinearModel::fit(&rows, &ys).unwrap();
        // The split between the two collinear weights is arbitrary, but the
        // prediction must still be right.
        assert!((m.predict(&[5.0, 5.0]) - 10.0).abs() < 1e-4);
    }

    #[test]
    fn multi_fit_requires_enough_rows() {
        let rows = vec![vec![1.0, 2.0, 3.0]];
        assert!(matches!(
            LinearModel::fit(&rows, &[1.0]),
            Err(MathError::NotEnoughData { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_panics_on_wrong_arity() {
        let m = LinearModel {
            weights: vec![1.0, 2.0],
            intercept: 0.0,
        };
        m.predict(&[1.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let m = SimpleLinearModel {
            slope: 0.0314,
            intercept: 0.7403,
            r2: 0.99875,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: SimpleLinearModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    proptest! {
        /// Fitting noiseless linear data recovers it within tolerance.
        #[test]
        fn prop_simple_fit_recovers_line(
            slope in -50.0f64..50.0,
            intercept in -50.0f64..50.0,
        ) {
            let xs: Vec<f64> = (0..25).map(|i| i as f64 * 0.5).collect();
            let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
            let m = SimpleLinearModel::fit(&xs, &ys).unwrap();
            prop_assert!((m.slope - slope).abs() < 1e-6);
            prop_assert!((m.intercept - intercept).abs() < 1e-6);
        }

        /// The fitted multi-model reproduces its own training targets for
        /// exactly-linear data.
        #[test]
        fn prop_multi_fit_interpolates(
            w0 in -5.0f64..5.0, w1 in -5.0f64..5.0, b in -5.0f64..5.0,
        ) {
            let rows: Vec<Vec<f64>> =
                (0..30).map(|i| vec![(i % 7) as f64, (i % 5) as f64 * 1.3]).collect();
            let ys: Vec<f64> = rows.iter().map(|r| w0 * r[0] + w1 * r[1] + b).collect();
            let m = LinearModel::fit(&rows, &ys).unwrap();
            for (r, y) in rows.iter().zip(&ys) {
                prop_assert!((m.predict(r) - y).abs() < 1e-5);
            }
        }
    }
}
