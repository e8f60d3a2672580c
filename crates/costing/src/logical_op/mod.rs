//! Logical-operator costing (§3): black-box remotes.
//!
//! The pipeline:
//!
//! 1. [`training`] — run a grid of training queries on the remote system
//!    and label each configuration with the observed elapsed time;
//! 2. [`dims`] — record per-dimension metadata (min, max, stepSize) for
//!    the trained ranges;
//! 3. [`model`] — fit a two-hidden-layer neural network (topology via the
//!    paper's cross-validation search); the model owns its fused
//!    inference form ([`packed`]), through which every prediction runs;
//! 4. [`flow`] — the Fig. 3 query-time flow, one body for every caller:
//!    inside the trained range → use the NN; way off → trigger the
//!    online remedy;
//! 5. [`remedy`] — the Fig. 4 online remedy: an on-the-fly regression on
//!    the pivot dimension(s), blended as `α·c_nn + (1−α)·c_reg`, with α
//!    auto-adjusted batch by batch (Table 1);
//! 6. [`tuning`] — the offline tuning phase: log actual executions,
//!    periodically retrain, expand `[min,max]` under the continuity rule.

pub mod dims;
pub mod flow;
pub mod model;
pub mod packed;
pub mod remedy;
pub mod training;
pub mod tuning;

pub use dims::{DimensionMeta, TrainingMeta};
pub use flow::{FlowScratch, LogicalOpCosting};
pub use model::{FitConfig, FitReport, LogicalOpModel, TopologyChoice};
pub use packed::{PackedOpModel, PackedOpScratch};
pub use remedy::{AlphaTuner, RemedyConfig, RemedyOutcome};
pub use training::{run_training, LabeledRun, TrainingOutput};
pub use tuning::{ExecutionLog, TuneReport};
