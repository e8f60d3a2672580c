//! Remote-system identity, kind, capabilities, and registration profile,
//! and the plain data the remote-system interface speaks: simulated
//! durations, probe queries, physical algorithm names, and the operator
//! size profiles a remote optimizer and the sub-op formulas consume.

pub use crate::physical::{AggAlgorithm, JoinAlgorithm};
pub use crate::probe::{ProbeKind, ProbeSpec};
pub use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a system participating in the IntelliSphere ecosystem
/// (the master engine or a remote system).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemId(String);

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for SystemId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SystemId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SystemId {
    /// Creates an id from a name.
    pub fn new(name: &str) -> Self {
        SystemId(name.to_string())
    }

    /// The reserved id of the master (Teradata) engine.
    pub fn master() -> Self {
        SystemId("teradata".to_string())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The engine family of a remote system. Determines which simulator
/// persona backs it and which physical algorithms it offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Hive on Hadoop (map-reduce execution, HDFS storage).
    Hive,
    /// Spark SQL (in-memory shuffle, cheaper task startup).
    Spark,
    /// A single-node relational database.
    Rdbms,
    /// The Teradata master engine itself.
    Teradata,
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SystemKind::Hive => "hive",
            SystemKind::Spark => "spark",
            SystemKind::Rdbms => "rdbms",
            SystemKind::Teradata => "teradata",
        })
    }
}

/// SQL operations a remote system may (not) support — §2: "a remote system
/// may not have the capability to perform a join operation".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capability {
    /// Row filtering (selection).
    Filter,
    /// Column projection.
    Project,
    /// Binary join.
    Join,
    /// Grouped aggregation.
    Aggregate,
}

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for Capability {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for Capability {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The registration profile of a remote system (§2 "Remote System
/// Profile"): setup description plus supported operations. Costing state
/// is attached separately by the costing crate, keyed by [`SystemId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteSystemProfile {
    /// Unique system id.
    pub id: SystemId,
    /// Engine family.
    pub kind: SystemKind,
    /// Worker node count of the cluster backing this system.
    pub nodes: u32,
    /// CPU cores per node (total parallelism = nodes × cores).
    pub cores_per_node: u32,
    /// Memory per node in bytes (drives the HashBuild spill regime).
    pub memory_per_node_bytes: u64,
    /// Supported SQL operations.
    pub capabilities: Vec<Capability>,
}

impl RemoteSystemProfile {
    /// Builds a profile; capabilities are deduplicated and sorted.
    pub fn new(
        id: SystemId,
        kind: SystemKind,
        nodes: u32,
        cores_per_node: u32,
        memory_per_node_bytes: u64,
        mut capabilities: Vec<Capability>,
    ) -> Self {
        capabilities.sort();
        capabilities.dedup();
        RemoteSystemProfile {
            id,
            kind,
            nodes,
            cores_per_node,
            memory_per_node_bytes,
            capabilities,
        }
    }

    /// The paper's evaluation cluster: 4 nodes (1 master + 3 data nodes),
    /// 2 cores and 8 GB each (§7 "Cluster and Dataset Description").
    pub fn paper_hive_cluster(id: &str) -> Self {
        RemoteSystemProfile::new(
            SystemId::new(id),
            SystemKind::Hive,
            3, // data nodes doing work
            2,
            8 * 1024 * 1024 * 1024,
            vec![
                Capability::Filter,
                Capability::Project,
                Capability::Join,
                Capability::Aggregate,
            ],
        )
    }

    /// Whether the system supports an operation.
    pub fn supports(&self, cap: Capability) -> bool {
        self.capabilities.contains(&cap)
    }

    /// Total parallel task slots (the paper's "total number of cores",
    /// denominator of `NumTaskWaves`).
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }
}

/// Size profile of one join input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideInfo {
    /// Rows.
    pub rows: f64,
    /// Stored row width in bytes (what scans read).
    pub row_bytes: f64,
    /// Width shuffled/kept after projection (join key + projected
    /// attributes), bytes.
    pub proj_bytes: f64,
}

impl SideInfo {
    /// Total stored bytes.
    pub fn total_bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }

    /// Total projected bytes.
    pub fn total_proj_bytes(&self) -> f64 {
        self.rows * self.proj_bytes
    }
}

/// Everything the execution model needs to cost a join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinInfo {
    /// The probe (usually larger) side.
    pub big: SideInfo,
    /// The build (usually smaller) side — broadcast/hash-built.
    pub small: SideInfo,
    /// Output rows.
    pub out_rows: f64,
    /// Output row width in bytes.
    pub out_bytes: f64,
    /// Rows carried by the most frequent join-key value (drives skew).
    pub heavy_key_rows: f64,
}

/// Everything needed to cost an aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggInfo {
    /// Input rows.
    pub in_rows: f64,
    /// Input row width, bytes.
    pub in_bytes: f64,
    /// Output groups.
    pub groups: f64,
    /// Output row width, bytes.
    pub out_bytes: f64,
    /// Number of aggregate functions computed (Fig. 10 varies 1–5).
    pub n_aggs: u32,
}

/// Inputs to the join-algorithm decision beyond raw sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinContext {
    /// The join has at least one equi-key conjunct.
    pub has_equi_keys: bool,
    /// Big (probe) side is bucketed/partitioned on the join key.
    pub big_bucketed: bool,
    /// Small (build) side is bucketed/partitioned on the join key.
    pub small_bucketed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_id_is_reserved_name() {
        assert_eq!(SystemId::master().as_str(), "teradata");
    }

    #[test]
    fn paper_cluster_dimensions() {
        let p = RemoteSystemProfile::paper_hive_cluster("hive-a");
        assert_eq!(p.total_cores(), 6);
        assert!(p.supports(Capability::Join));
        assert_eq!(p.kind, SystemKind::Hive);
    }

    #[test]
    fn capabilities_dedup() {
        let p = RemoteSystemProfile::new(
            SystemId::new("x"),
            SystemKind::Rdbms,
            1,
            4,
            1024,
            vec![Capability::Join, Capability::Join, Capability::Filter],
        );
        assert_eq!(p.capabilities.len(), 2);
    }

    #[test]
    fn missing_capability_detected() {
        let p = RemoteSystemProfile::new(
            SystemId::new("scan-only"),
            SystemKind::Rdbms,
            1,
            1,
            1024,
            vec![Capability::Filter, Capability::Project],
        );
        assert!(!p.supports(Capability::Join));
    }

    #[test]
    fn system_id_display_and_eq() {
        let a = SystemId::new("hive-a");
        assert_eq!(a.to_string(), "hive-a");
        assert_eq!(a, SystemId::new("hive-a"));
    }
}
