#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! A small, dependency-free feed-forward neural-network library.
//!
//! The paper's logical-operator costing (§3) trains "simple light-weight
//! neural networks" — two hidden layers, topology chosen by cross
//! validation — to map operator parameters (7 dims for join, 4 for
//! aggregation) to elapsed execution time. This crate provides exactly that
//! machinery, implemented from scratch:
//!
//! * dense layers with tanh/ReLU/sigmoid/identity activations,
//! * mean-squared-error loss with hand-rolled backpropagation,
//! * the Adam optimiser,
//! * a mini-batch training loop that records an RMSE-vs-iteration trace
//!   (the convergence curves of Figs. 11b and 12b),
//! * the paper's cross-validation topology search (§3: first layer between
//!   `n_in` and `2·n_in` nodes, second layer between 3 and half the first),
//! * serde persistence so trained models can live inside a remote system's
//!   Costing Profile.
//!
//! All randomness (weight init, shuffling) flows from caller-provided
//! seeds, so every training run is reproducible.

pub mod activation;
pub mod dataset;
pub mod layer;
pub mod network;
pub mod optimizer;
pub mod packed;
pub mod topology;
pub mod train;

pub use activation::Activation;
pub use dataset::Dataset;
pub use network::Network;
pub use optimizer::{Adam, Optimizer};
pub use packed::{PackedNetwork, PackedScratch};
pub use topology::{search_topology, Topology, TopologySearchReport};
pub use train::{train, TrainConfig, TrainTrace};
