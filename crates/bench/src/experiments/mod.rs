//! The experiment implementations, one module per paper artefact.

pub mod ablations;
pub mod drift;
pub mod epoch_churn;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod frontend;
pub mod heterogeneous;
pub mod hotpath;
pub mod logical;
pub mod observability;
pub mod skew;
pub mod table1;
pub mod workload;

use crate::report::ExpConfig;
use costing::logical_op::model::{FitConfig, TopologyChoice};
use remote_sim::{ClusterConfig, ClusterEngine};
// `::workload` is the crate; plain `workload` would resolve to the
// experiment module of the same name declared above.
use ::workload::{register_tables, TableSpec};

/// A fresh paper-cluster Hive engine with the given tables registered.
pub(crate) fn hive_with(cfg: &ExpConfig, specs: &[TableSpec]) -> ClusterEngine {
    let mut e = ClusterEngine::new(
        "hive-exp",
        remote_sim::personas::hive_persona(),
        ClusterConfig::paper_hive(),
        cfg.seed,
    );
    register_tables(&mut e, specs).expect("workload tables register");
    e
}

/// The model-fitting configuration for an experiment run: the paper's
/// setup in full mode (cross-validated topology, 20 000 iterations), a
/// fixed-topology short run in quick mode.
pub(crate) fn fit_config(cfg: &ExpConfig) -> FitConfig {
    if cfg.quick {
        FitConfig {
            topology: TopologyChoice::Fixed {
                layer1: 10,
                layer2: 5,
            },
            iterations: 10_000,
            batch_size: 32,
            trace_every: 250,
            seed: cfg.seed,
            scaling: Default::default(),
        }
    } else {
        // "Iterations" here are mini-batch (32) updates; the paper trains
        // for 20,000 iterations of an unspecified batch size. 60k updates
        // is where our join model's held-out R² plateaus at the paper's
        // level (≈0.88) — see EXPERIMENTS.md.
        FitConfig {
            topology: TopologyChoice::CrossValidated {
                step: 2,
                search_iterations: 4_000,
            },
            iterations: 120_000,
            batch_size: 32,
            trace_every: 250,
            seed: cfg.seed,
            scaling: Default::default(),
        }
    }
}
