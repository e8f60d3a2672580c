//! Mini-batch training loop with an RMSE%-vs-iteration trace.
//!
//! The paper trains each logical-operator network for 20 000 iterations and
//! plots the convergence of RMSE% (Figs. 11b, 12b: "the y-axis represents
//! the error percentage, which is measured as (e × 100/v), where e is the
//! root mean square error and v is the average execution time over all
//! queries"). [`train`] reproduces that: an *iteration* is one mini-batch
//! update, and the trace samples RMSE% on an evaluation set at a fixed
//! cadence.

use crate::{dataset::Dataset, network::Network, optimizer::Optimizer};
use mathkit::metrics::rmse_pct;
use rand::{rngs::StdRng, SeedableRng};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Total mini-batch updates (the paper uses 20 000).
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Record a trace point every `trace_every` iterations (0 disables).
    pub trace_every: usize,
    /// Seed for batch shuffling.
    pub seed: u64,
    /// Early stopping: abort when the evaluation RMSE% has not improved
    /// for this many consecutive trace points (0 disables; requires
    /// `trace_every > 0`).
    pub early_stop_patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            iterations: 20_000,
            batch_size: 32,
            trace_every: 250,
            seed: 0x5EED,
            early_stop_patience: 0,
        }
    }
}

/// One sampled point of the convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Iteration index (1-based, after the update).
    pub iteration: usize,
    /// RMSE% on the evaluation set at that iteration.
    pub rmse_pct: f64,
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainTrace {
    /// Convergence samples (empty when tracing is disabled).
    pub points: Vec<TracePoint>,
    /// Final RMSE% on the evaluation set.
    pub final_rmse_pct: f64,
    /// Iterations actually executed.
    pub iterations: usize,
    /// True when early stopping cut the run short.
    pub early_stopped: bool,
}

/// Trains `net` on `train_set`, tracing RMSE% on `eval_set`.
///
/// Gradients are averaged over each mini-batch; batches are reshuffled each
/// epoch from `config.seed`, so runs are fully reproducible.
pub fn train(
    net: &mut Network,
    train_set: &Dataset,
    eval_set: &Dataset,
    opt: &mut dyn Optimizer,
    config: &TrainConfig,
) -> TrainTrace {
    assert!(!train_set.is_empty(), "train: empty training set");
    assert_eq!(
        train_set.arity(),
        net.input_dim(),
        "train: dataset arity does not match network input"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut points: Vec<TracePoint> = Vec::new();
    let mut done = 0usize;
    let mut best_rmse = f64::INFINITY;
    let mut stale = 0usize;
    let mut early_stopped = false;

    let eval = |net: &Network| -> f64 {
        let preds = net.predict_batch(&eval_set.inputs);
        rmse_pct(&preds, &eval_set.targets)
    };

    'outer: loop {
        for batch in train_set.batch_indices(config.batch_size, &mut rng) {
            let mut grads = net.zero_grads();
            for &i in &batch {
                if let (Some(x), Some(&y)) = (train_set.inputs.get(i), train_set.targets.get(i)) {
                    net.accumulate_grads(x, y, &mut grads);
                }
            }
            let scale = 1.0 / batch.len() as f64;
            for g in &mut grads {
                g.scale(scale);
            }
            opt.step(net, &grads);
            done += 1;
            if config.trace_every > 0 && done % config.trace_every == 0 {
                let rmse = eval(net);
                points.push(TracePoint {
                    iteration: done,
                    rmse_pct: rmse,
                });
                if config.early_stop_patience > 0 {
                    if rmse < best_rmse - 1e-12 {
                        best_rmse = rmse;
                        stale = 0;
                    } else {
                        stale += 1;
                        if stale >= config.early_stop_patience {
                            early_stopped = true;
                            break 'outer;
                        }
                    }
                }
            }
            if done >= config.iterations {
                break 'outer;
            }
        }
    }
    TrainTrace {
        final_rmse_pct: eval(net),
        points,
        iterations: done,
        early_stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;

    /// y = 2·x0 + x1 with inputs in [0,1]; easily learnable.
    fn toy_dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 17) as f64 / 16.0;
                let b = (i % 11) as f64 / 10.0;
                vec![a, b]
            })
            .collect();
        let targets = inputs.iter().map(|r| 2.0 * r[0] + r[1]).collect();
        Dataset::new(inputs, targets)
    }

    #[test]
    fn training_reduces_error() {
        let data = toy_dataset(200);
        let (tr, te) = data.split(0.7, 1);
        let mut net = Network::new(2, &[6, 3], 42);
        let initial = mathkit::rmse_pct(&net.predict_batch(&te.inputs), &te.targets);
        let mut adam = Adam::new(0.01);
        let cfg = TrainConfig {
            iterations: 2_000,
            batch_size: 16,
            trace_every: 100,
            seed: 7,
            early_stop_patience: 0,
        };
        let trace = train(&mut net, &tr, &te, &mut adam, &cfg);
        assert!(
            trace.final_rmse_pct < initial * 0.2,
            "initial {initial}, final {}",
            trace.final_rmse_pct
        );
        assert_eq!(trace.iterations, 2_000);
        assert_eq!(trace.points.len(), 20);
    }

    #[test]
    fn training_is_reproducible() {
        let data = toy_dataset(100);
        let (tr, te) = data.split(0.7, 3);
        let run = || {
            let mut net = Network::new(2, &[4], 5);
            let mut adam = Adam::new(0.01);
            let cfg = TrainConfig {
                iterations: 300,
                batch_size: 8,
                trace_every: 0,
                seed: 9,
                early_stop_patience: 0,
            };
            train(&mut net, &tr, &te, &mut adam, &cfg);
            net
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_disabled_when_zero() {
        let data = toy_dataset(50);
        let (tr, te) = data.split(0.7, 3);
        let mut net = Network::new(2, &[4], 5);
        let mut adam = Adam::new(0.01);
        let cfg = TrainConfig {
            iterations: 50,
            batch_size: 8,
            trace_every: 0,
            seed: 9,
            early_stop_patience: 0,
        };
        let trace = train(&mut net, &tr, &te, &mut adam, &cfg);
        assert!(trace.points.is_empty());
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let data = toy_dataset(200);
        let (tr, te) = data.split(0.7, 1);
        let mut net = Network::new(2, &[6, 3], 42);
        let mut adam = Adam::new(0.01);
        let cfg = TrainConfig {
            iterations: 100_000,
            batch_size: 16,
            trace_every: 100,
            seed: 7,
            early_stop_patience: 5,
        };
        let trace = train(&mut net, &tr, &te, &mut adam, &cfg);
        assert!(trace.early_stopped, "a learnable toy problem must plateau");
        assert!(
            trace.iterations < 100_000,
            "stopped at {} iterations",
            trace.iterations
        );
        // Quality is still good at the stop point.
        assert!(trace.final_rmse_pct < 10.0, "rmse {}", trace.final_rmse_pct);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn train_checks_arity() {
        let data = toy_dataset(50);
        let mut net = Network::new(3, &[4], 5);
        let mut adam = Adam::new(0.01);
        train(&mut net, &data, &data, &mut adam, &TrainConfig::default());
    }
}
