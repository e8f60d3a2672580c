#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Numerical substrate for the IntelliSphere cost-estimation reproduction.
//!
//! The paper's cost models are built from two mathematical ingredients:
//!
//! * **ordinary least squares** regression — used for the sub-operator
//!   models (Figs. 7 and 13, the two-regime HashBuild of Fig. 13f being two
//!   such lines chosen by `costing::sub_op::models`) and for the on-the-fly
//!   pivot regressions of the online remedy phase (Fig. 4),
//! * **model-quality metrics** (RMSE, RMSE%, R²) — the paper reports every
//!   model with these.
//!
//! This crate implements them from scratch on a small crate-private
//! dense-matrix kernel, with no external numerical dependencies, so the
//! rest of the workspace has a single well-tested numerical foundation.

pub mod linreg;
mod matrix;
pub mod metrics;
pub mod quantiles;
pub mod scale;

pub use linreg::{LinearModel, SimpleLinearModel};
pub use metrics::{pearson_r, r2_score, rmse, rmse_pct};
pub use quantiles::{exact_quantiles, nearest_rank, QuantileSketch};
pub use scale::MinMaxScaler;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// A matrix dimension mismatch, e.g. multiplying incompatible shapes.
    DimensionMismatch {
        /// Description of the failing operation.
        context: &'static str,
    },
    /// The linear system is singular (or numerically so) and cannot be
    /// solved even after ridge stabilisation.
    Singular,
    /// The caller supplied fewer observations than the model has parameters.
    NotEnoughData {
        /// Observations provided.
        have: usize,
        /// Observations required.
        need: usize,
    },
    /// Inputs contained NaN or infinity.
    NonFinite,
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::DimensionMismatch { context } => {
                write!(f, "matrix dimension mismatch in {context}")
            }
            MathError::Singular => write!(f, "singular linear system"),
            MathError::NotEnoughData { have, need } => {
                write!(f, "not enough data points: have {have}, need {need}")
            }
            MathError::NonFinite => write!(f, "non-finite value in input"),
        }
    }
}

impl std::error::Error for MathError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MathError>;

/// NaN-safe total ordering for `f64` sort keys.
///
/// A drop-in comparator for `sort_by` that never panics and never returns
/// an arbitrary order in the presence of NaN: it forwards to IEEE 754
/// `totalOrder` ([`f64::total_cmp`]), which places NaN after +∞. Every
/// ranking step in the estimation path (planner candidate ordering, remedy
/// neighbour selection, measurement sorting) must use this instead of
/// `partial_cmp(..).unwrap()` so a single corrupted estimate cannot panic
/// the optimizer.
#[inline]
pub fn total_cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.total_cmp(b)
}

/// Returns true when every value in `xs` is finite.
pub(crate) fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}
