//! Choice policies (§4).
//!
//! "If there are still multiple possible choices, then the system can
//! either take the highest cost (assuming the worst case scenario), the
//! average cost, or the 'in-house comparable' cost. The in-house
//! comparable cost is applicable when the remote system is another
//! relational database system. In this case, IntelliSphere assumes that
//! the remote system will pick the algorithm that Teradata would have
//! picked were the data in-house" — i.e. the cost-minimal one.

use serde::{Deserialize, Serialize};

/// How to resolve multiple applicable algorithm costs into one estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChoicePolicy {
    /// Take the highest candidate cost (worst case).
    Worst,
    /// Take the mean of the candidate costs.
    Average,
    /// Assume the remote optimizer picks what a cost-based in-house
    /// optimizer would: the cheapest candidate.
    InHouseComparable,
}

impl ChoicePolicy {
    /// Resolves candidate costs (seconds) into one estimate.
    ///
    /// # Panics
    /// Panics on an empty candidate list.
    pub(crate) fn resolve(self, costs: &[f64]) -> f64 {
        assert!(!costs.is_empty(), "ChoicePolicy::resolve: no candidates");
        match self {
            ChoicePolicy::Worst => costs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ChoicePolicy::Average => costs.iter().sum::<f64>() / costs.len() as f64,
            ChoicePolicy::InHouseComparable => costs.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Short name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ChoicePolicy::Worst => "worst",
            ChoicePolicy::Average => "average",
            ChoicePolicy::InHouseComparable => "in-house",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COSTS: [f64; 3] = [10.0, 20.0, 60.0];

    #[test]
    fn worst_takes_max() {
        assert_eq!(ChoicePolicy::Worst.resolve(&COSTS), 60.0);
    }

    #[test]
    fn average_takes_mean() {
        assert_eq!(ChoicePolicy::Average.resolve(&COSTS), 30.0);
    }

    #[test]
    fn in_house_takes_min() {
        assert_eq!(ChoicePolicy::InHouseComparable.resolve(&COSTS), 10.0);
    }

    #[test]
    fn single_candidate_is_identity_for_all() {
        for p in [
            ChoicePolicy::Worst,
            ChoicePolicy::Average,
            ChoicePolicy::InHouseComparable,
        ] {
            assert_eq!(p.resolve(&[42.0]), 42.0);
        }
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_panic() {
        ChoicePolicy::Worst.resolve(&[]);
    }
}
