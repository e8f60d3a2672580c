//! The paper's cross-validation topology search (§3).
//!
//! > "we fix the number of layers to two … we vary the number of nodes in
//! > the 1st layer between the number of inputs and the double of that
//! > number, and vary the number of nodes in the 2nd layer between three
//! > and half the number of the 1st layer's nodes. Then, for each topology,
//! > we use a cross validation test involving 70% of data as training and
//! > 30% as a test … Finally, we select the topology that introduces the
//! > least root-mean-square error."

use crate::{
    dataset::Dataset,
    network::Network,
    optimizer::Adam,
    train::{train, TrainConfig},
};
use mathkit::metrics::rmse;
use serde::{Deserialize, Serialize};

/// A two-hidden-layer topology candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Width of the first hidden layer.
    pub layer1: usize,
    /// Width of the second hidden layer.
    pub layer2: usize,
}

impl Topology {
    /// Enumerates the paper's candidate grid for `n_in` inputs, stepping the
    /// first layer by `step` (1 = exhaustive; larger steps cut search cost).
    pub(crate) fn candidates(n_in: usize, step: usize) -> Vec<Topology> {
        assert!(n_in > 0 && step > 0);
        let mut out = Vec::new();
        let mut l1 = n_in;
        while l1 <= 2 * n_in {
            let hi = (l1 / 2).max(3);
            for l2 in 3..=hi {
                out.push(Topology {
                    layer1: l1,
                    layer2: l2,
                });
            }
            l1 += step;
        }
        out
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyScore {
    /// The candidate.
    pub topology: Topology,
    /// RMSE on the held-out 30 %.
    pub rmse: f64,
}

/// Result of the topology search.
#[derive(Debug, Clone)]
pub struct TopologySearchReport {
    /// The winning topology (least validation RMSE).
    pub best: Topology,
    /// Every evaluated candidate, in evaluation order.
    pub scores: Vec<TopologyScore>,
}

/// Runs the paper's topology search and returns the winner plus a trained
/// network for it (retrained on the full training split).
///
/// `search_iterations` bounds the per-candidate training budget; the final
/// winner is retrained with `final_config`.
#[expect(
    clippy::expect_used,
    reason = "the candidate grid is a non-empty constant, so a best topology always exists"
)]
pub fn search_topology(
    data: &Dataset,
    step: usize,
    search_iterations: usize,
    final_config: &TrainConfig,
    seed: u64,
) -> (Network, TopologySearchReport) {
    let n_in = data.arity();
    let (tr, te) = data.split(0.7, seed);
    let mut scores = Vec::new();
    let mut best: Option<(f64, Topology)> = None;

    for topo in Topology::candidates(n_in, step) {
        let mut net = Network::new(n_in, &[topo.layer1, topo.layer2], seed ^ 0xA5A5);
        let mut adam = Adam::new(1e-3);
        let cfg = TrainConfig {
            iterations: search_iterations,
            trace_every: 0,
            ..final_config.clone()
        };
        train(&mut net, &tr, &te, &mut adam, &cfg);
        let e = rmse(&net.predict_batch(&te.inputs), &te.targets);
        scores.push(TopologyScore {
            topology: topo,
            rmse: e,
        });
        if best.map_or(true, |(b, _)| e < b) {
            best = Some((e, topo));
        }
    }
    let (_, winner) = best.expect("candidate grid is never empty");

    let mut net = Network::new(n_in, &[winner.layer1, winner.layer2], seed ^ 0xA5A5);
    let mut adam = Adam::new(1e-3);
    train(&mut net, &tr, &te, &mut adam, final_config);
    (
        net,
        TopologySearchReport {
            best: winner,
            scores,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_grid_matches_paper_bounds_for_join() {
        // Join: 7 inputs -> layer1 in [7, 14], layer2 in [3, layer1/2].
        let cands = Topology::candidates(7, 1);
        assert!(cands.iter().all(|t| (7..=14).contains(&t.layer1)));
        assert!(cands
            .iter()
            .all(|t| t.layer2 >= 3 && t.layer2 <= (t.layer1 / 2).max(3)));
        assert!(cands.contains(&Topology {
            layer1: 7,
            layer2: 3
        }));
        assert!(cands.contains(&Topology {
            layer1: 14,
            layer2: 7
        }));
    }

    #[test]
    fn candidate_grid_for_aggregation() {
        // Aggregation: 4 inputs -> layer1 in [4, 8]; layer1/2 may be < 3,
        // in which case only layer2 = 3 is offered.
        let cands = Topology::candidates(4, 1);
        assert!(cands.contains(&Topology {
            layer1: 4,
            layer2: 3
        }));
        assert!(cands.contains(&Topology {
            layer1: 8,
            layer2: 4
        }));
        assert!(cands.iter().all(|t| t.layer2 >= 3));
    }

    #[test]
    fn step_reduces_candidate_count() {
        assert!(Topology::candidates(7, 7).len() < Topology::candidates(7, 1).len());
    }

    #[test]
    fn search_returns_best_scoring_candidate() {
        // Small learnable dataset.
        let inputs: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    (i % 12) as f64 / 11.0,
                    (i % 7) as f64 / 6.0,
                    (i % 5) as f64 / 4.0,
                    0.5,
                ]
            })
            .collect();
        let targets: Vec<f64> = inputs.iter().map(|r| r[0] + 0.5 * r[1] * r[2]).collect();
        let data = Dataset::new(inputs, targets);
        let cfg = TrainConfig {
            iterations: 400,
            batch_size: 16,
            trace_every: 0,
            seed: 3,
            early_stop_patience: 0,
        };
        let (net, report) = search_topology(&data, 2, 150, &cfg, 11);
        let best_score = report
            .scores
            .iter()
            .map(|s| s.rmse)
            .fold(f64::INFINITY, f64::min);
        let winner = report
            .scores
            .iter()
            .find(|s| s.topology == report.best)
            .unwrap();
        assert_eq!(winner.rmse, best_score);
        assert_eq!(
            net.hidden_widths(),
            vec![report.best.layer1, report.best.layer2]
        );
    }
}
