//! Probe (primitive) queries.
//!
//! Fig. 5 of the paper describes how each sub-operator is measured
//! *without instrumenting the remote system*: submit primitive queries
//! whose only variable work is the target sub-op (plus a DFS read, which
//! is measured first and subtracted). [`ProbeSpec`] is the representation
//! of those primitive queries; the costing crate submits them through
//! `sqlkit::RemoteSystem::submit_probe` and only ever sees elapsed times.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of primitive query, mirroring the numbered footnotes of
/// Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeKind {
    /// ¹ "Query that reads from HDFS and does not produce any output."
    ReadDfs,
    /// ² "Query that reads from HDFS and writes back to HDFS."
    ReadWriteDfs,
    /// ³ "Query that reads from HDFS and writes content to local file."
    ReadDfsWriteLocal,
    /// Reads from HDFS and re-reads the data from the local file system
    /// (isolates ReadLocal).
    ReadDfsReadLocal,
    /// ⁴ "Query that reads from HDFS, produces no output, and broadcasts a
    /// file (distributed cache) to all nodes (without reading it)."
    ReadDfsBroadcast,
    /// ⁵ "Query that reads from HDFS, builds a hash table for each HDFS
    /// block, and does not produce any output."
    ReadDfsHashBuild,
    /// Reads from HDFS and probes a pre-built hash table per record.
    ReadDfsHashProbe,
    /// Reads from HDFS and sorts each block in memory.
    ReadDfsSort,
    /// Reads from HDFS and scans each block in memory a second time.
    ReadDfsScan,
    /// Reads from HDFS and merges record pairs.
    ReadDfsMerge,
    /// Reads from HDFS and shuffles every record across machines.
    ReadDfsShuffle,
}

impl ProbeKind {
    /// All probe kinds, in a stable order.
    pub const ALL: [ProbeKind; 11] = [
        ProbeKind::ReadDfs,
        ProbeKind::ReadWriteDfs,
        ProbeKind::ReadDfsWriteLocal,
        ProbeKind::ReadDfsReadLocal,
        ProbeKind::ReadDfsBroadcast,
        ProbeKind::ReadDfsHashBuild,
        ProbeKind::ReadDfsHashProbe,
        ProbeKind::ReadDfsSort,
        ProbeKind::ReadDfsScan,
        ProbeKind::ReadDfsMerge,
        ProbeKind::ReadDfsShuffle,
    ];
}

impl fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeKind::ReadDfs => "read-dfs",
            ProbeKind::ReadWriteDfs => "read-write-dfs",
            ProbeKind::ReadDfsWriteLocal => "read-dfs-write-local",
            ProbeKind::ReadDfsReadLocal => "read-dfs-read-local",
            ProbeKind::ReadDfsBroadcast => "read-dfs-broadcast",
            ProbeKind::ReadDfsHashBuild => "read-dfs-hash-build",
            ProbeKind::ReadDfsHashProbe => "read-dfs-hash-probe",
            ProbeKind::ReadDfsSort => "read-dfs-sort",
            ProbeKind::ReadDfsScan => "read-dfs-scan",
            ProbeKind::ReadDfsMerge => "read-dfs-merge",
            ProbeKind::ReadDfsShuffle => "read-dfs-shuffle",
        };
        f.write_str(s)
    }
}

/// A fully-specified probe query: what to do, over how many records of
/// what size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// The primitive operation.
    pub kind: ProbeKind,
    /// Number of records processed.
    pub rows: u64,
    /// Record size in bytes.
    pub record_bytes: u64,
    /// For [`ProbeKind::ReadDfsHashBuild`]: force the spill regime even if
    /// the data would fit (lets the costing module measure both regimes of
    /// Fig. 13f on one cluster, as the paper does: "We experimented with
    /// both cases and constructed a model for each case").
    pub force_spill: bool,
}

impl ProbeSpec {
    /// Creates a probe.
    pub fn new(kind: ProbeKind, rows: u64, record_bytes: u64) -> Self {
        ProbeSpec {
            kind,
            rows,
            record_bytes,
            force_spill: false,
        }
    }

    /// Marks a hash-build probe as spilling.
    pub fn spilling(mut self) -> Self {
        self.force_spill = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_volume() {
        let p = ProbeSpec::new(ProbeKind::ReadDfs, 1_000_000, 1_000);
        assert_eq!((p.rows, p.record_bytes), (1_000_000, 1_000));
        assert!(!p.force_spill);
        assert!(
            ProbeSpec::new(ProbeKind::ReadDfsHashBuild, 1, 1)
                .spilling()
                .force_spill
        );
    }

    #[test]
    fn all_kinds_have_distinct_names() {
        let names: std::collections::HashSet<String> =
            ProbeKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), ProbeKind::ALL.len());
    }
}
