#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Catalog: tables, statistics, and remote-system registration.
//!
//! §2 of the paper describes the metadata plumbing this crate provides:
//!
//! * every remote table "is registered inside Teradata as a foreign table —
//!   and thus Teradata knows its schema and location";
//! * "Teradata can collect basic statistics on remote tables, e.g., the
//!   number of rows, average row size, the number of distinct values in
//!   each column";
//! * "each remote system registers in the IntelliSphere architecture
//!   through a profile \[which\] describes the remote system setup, e.g., a
//!   cluster configuration, and the capabilities of the remote system".
//!
//! The costing crate stores its per-system costing state (neural models,
//! sub-op models, formulas) in its own `CostingProfile`, keyed by the
//! [`SystemId`]s registered here, mirroring the paper's "we will use the
//! profile extensively to store all metadata information related to the
//! cost estimation module".

pub mod column;
mod physical;
mod probe;
pub mod registry;
pub mod remote;
pub mod stats;
pub mod table;
mod time;

pub use column::{ColumnDef, ColumnStats, ColumnType};
pub use registry::{Catalog, CatalogError};
pub use remote::{Capability, RemoteSystemProfile, SystemId, SystemKind};
pub use stats::TableStats;
pub use table::TableDef;
