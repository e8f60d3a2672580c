//! The remote-system boundary.
//!
//! [`RemoteSystem`] is the only interface the costing crate may use — the
//! same contract the paper has with a real remote system: register tables,
//! submit a SQL query (or a Fig. 5 probe), observe an elapsed time. The
//! simulated engines of `remote-sim` implement it; the costing crate does
//! not depend on them.

use crate::cardinality::CardError;
use crate::logical::LogicalPlan;
use catalog::remote::{AggAlgorithm, JoinAlgorithm, ProbeSpec, SimDuration};
use catalog::{Capability, Catalog, RemoteSystemProfile, SystemId};

/// The observable result of one remote execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Elapsed wall-clock time inside the remote system.
    pub elapsed: SimDuration,
    /// Rows produced.
    pub output_rows: u64,
    /// Average output row width in bytes.
    pub output_row_bytes: u64,
    /// The join algorithm the remote optimizer chose, if the query joined.
    pub join_algorithm: Option<JoinAlgorithm>,
    /// The aggregation algorithm chosen, if the query aggregated.
    pub agg_algorithm: Option<AggAlgorithm>,
}

/// Errors surfaced by a remote engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL failed to parse or plan.
    Sql(String),
    /// The plan references tables this system does not store.
    Cardinality(CardError),
    /// The system does not support an operation in the plan (§2: "a remote
    /// system may not have the capability to perform a join operation").
    CapabilityMissing(Capability),
    /// A plan shape the simulator does not model.
    Unsupported(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Sql(m) => write!(f, "sql error: {m}"),
            EngineError::Cardinality(e) => write!(f, "{e}"),
            EngineError::CapabilityMissing(c) => {
                write!(f, "remote system does not support {c:?}")
            }
            EngineError::Unsupported(m) => write!(f, "unsupported plan shape: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CardError> for EngineError {
    fn from(e: CardError) -> Self {
        EngineError::Cardinality(e)
    }
}

/// The interface a remote system exposes to IntelliSphere.
pub trait RemoteSystem {
    /// This system's id.
    fn id(&self) -> &SystemId;

    /// The registration profile (§2).
    fn profile(&self) -> &RemoteSystemProfile;

    /// The tables this system stores.
    fn catalog(&self) -> &Catalog;

    /// Executes a SQL query and reports the observed execution.
    fn submit_sql(&mut self, sql: &str) -> Result<Execution, EngineError>;

    /// Executes an already-planned query.
    fn submit_plan(&mut self, plan: &LogicalPlan) -> Result<Execution, EngineError>;

    /// Executes a Fig. 5 primitive probe query.
    fn submit_probe(&mut self, probe: &ProbeSpec) -> Result<Execution, EngineError>;

    /// Cumulative busy time across everything submitted so far — the
    /// "total training time" axis of Figs. 11a/12a/13a.
    fn total_busy(&self) -> SimDuration;

    /// Number of queries/probes executed.
    fn queries_executed(&self) -> u64;
}
