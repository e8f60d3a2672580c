//! Common estimate types shared by all three costing approaches.

use catalog::remote::JoinAlgorithm;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The logical operator being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Binary join.
    Join,
    /// Grouped aggregation.
    Aggregation,
    /// Scan / filter / projection.
    Scan,
    /// `ORDER BY` sorting of a result.
    Sort,
}

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for OperatorKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for OperatorKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OperatorKind::Join => "join",
            OperatorKind::Aggregation => "aggregation",
            OperatorKind::Scan => "scan",
            OperatorKind::Sort => "sort",
        })
    }
}

/// How an estimate was produced — carried for observability and for the
/// evaluation figures, which compare the sources against each other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EstimateSource {
    /// Plain neural-network prediction (inputs were in the trained range).
    NeuralNetwork,
    /// Online remedy: NN blended with an on-the-fly pivot regression.
    OnlineRemedy {
        /// The α used in `α·c_nn + (1−α)·c_reg`.
        alpha: f64,
        /// Indices of the pivot (way-off) dimensions.
        pivots: Vec<usize>,
    },
    /// Sub-op formula for a single predicted algorithm.
    SubOpFormula {
        /// The algorithm whose formula was evaluated.
        algorithm: JoinAlgorithm,
    },
    /// Sub-op costing where several algorithms remained applicable and a
    /// choice policy resolved them.
    SubOpPolicy {
        /// The resolution policy used.
        policy: String,
        /// How many candidate algorithms were still applicable.
        candidates: usize,
    },
    /// Sub-op aggregation formula (no algorithm ambiguity).
    SubOpAggregation,
    /// Sub-op scan formula.
    SubOpScan,
    /// Sub-op sort formula (`ORDER BY`).
    SubOpSort,
}

/// A produced cost estimate: predicted elapsed execution time on the
/// remote system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Predicted elapsed time in seconds.
    pub secs: f64,
    /// Provenance.
    pub source: EstimateSource,
}

impl CostEstimate {
    /// Creates an estimate, clamping negative predictions to zero (a
    /// regression extrapolation can dip below zero near the origin).
    pub fn new(secs: f64, source: EstimateSource) -> Self {
        CostEstimate {
            secs: secs.max(0.0),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_estimates_clamped() {
        let e = CostEstimate::new(-3.0, EstimateSource::NeuralNetwork);
        assert_eq!(e.secs, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let e = CostEstimate::new(
            1.0,
            EstimateSource::OnlineRemedy {
                alpha: 0.62,
                pivots: vec![1, 3],
            },
        );
        let json = serde_json::to_string(&e).unwrap();
        let back: CostEstimate = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn operator_kind_display() {
        assert_eq!(OperatorKind::Join.to_string(), "join");
        assert_eq!(OperatorKind::Aggregation.to_string(), "aggregation");
    }
}
