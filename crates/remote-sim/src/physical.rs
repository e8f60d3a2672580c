//! Physical algorithm inventory.
//!
//! §4 of the paper enumerates the algorithm menus this module mirrors:
//! "Hive supports five types of join algorithms, which are: Shuffle Join,
//! Broadcast Join, Bucket Map Join, Sort Merge Bucket Join, and Skew Join.
//! Similarly, Spark supports five join algorithms, which are: Broadcast
//! Hash Join, Shuffle Hash Join, SortMerge Join, Broadcast NestedLoop
//! Join, and Cartesian Product Join."

use serde::{Deserialize, Serialize};
use std::fmt;

/// Every physical join algorithm across the simulated engine personas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinAlgorithm {
    // --- Hive ---
    /// Hive's common (reduce-side) join: both inputs shuffled by key.
    HiveShuffleJoin,
    /// Hive's map join: the small side is broadcast and hash-built per task.
    HiveBroadcastJoin,
    /// Joins matching buckets when the small side is bucketed by the key.
    HiveBucketMapJoin,
    /// Merge of pre-sorted, co-bucketed inputs.
    HiveSortMergeBucketJoin,
    /// Shuffle join with special handling of heavily skewed keys.
    HiveSkewJoin,
    // --- Spark ---
    /// Broadcast the small side, hash-join per partition.
    SparkBroadcastHashJoin,
    /// Shuffle both sides, hash-join each partition.
    SparkShuffleHashJoin,
    /// Shuffle both sides, sort, merge.
    SparkSortMergeJoin,
    /// Broadcast the small side, nested-loop against each partition.
    SparkBroadcastNestedLoopJoin,
    /// Full Cartesian product.
    SparkCartesianProductJoin,
    // --- RDBMS ---
    /// Classic in-memory/grace hash join.
    RdbmsHashJoin,
    /// Sort-merge join.
    RdbmsSortMergeJoin,
    /// Nested-loop join (only sensible for tiny inputs or non-equi joins).
    RdbmsNestedLoopJoin,
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinAlgorithm::HiveShuffleJoin => "Shuffle Join",
            JoinAlgorithm::HiveBroadcastJoin => "Broadcast Join",
            JoinAlgorithm::HiveBucketMapJoin => "Bucket Map Join",
            JoinAlgorithm::HiveSortMergeBucketJoin => "Sort Merge Bucket Join",
            JoinAlgorithm::HiveSkewJoin => "Skew Join",
            JoinAlgorithm::SparkBroadcastHashJoin => "Broadcast Hash Join",
            JoinAlgorithm::SparkShuffleHashJoin => "Shuffle Hash Join",
            JoinAlgorithm::SparkSortMergeJoin => "SortMerge Join",
            JoinAlgorithm::SparkBroadcastNestedLoopJoin => "Broadcast NestedLoop Join",
            JoinAlgorithm::SparkCartesianProductJoin => "Cartesian Product Join",
            JoinAlgorithm::RdbmsHashJoin => "Hash Join",
            JoinAlgorithm::RdbmsSortMergeJoin => "Sort-Merge Join",
            JoinAlgorithm::RdbmsNestedLoopJoin => "Nested-Loop Join",
        })
    }
}

/// Physical aggregation algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggAlgorithm {
    /// Hash-based grouping with map-side partial aggregation.
    HashAggregate,
    /// Sort-based grouping (chosen when the hash table would spill badly).
    SortAggregate,
}

impl fmt::Display for AggAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggAlgorithm::HashAggregate => "Hash Aggregate",
            AggAlgorithm::SortAggregate => "Sort Aggregate",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        assert_eq!(JoinAlgorithm::HiveShuffleJoin.to_string(), "Shuffle Join");
        assert_eq!(
            JoinAlgorithm::SparkSortMergeJoin.to_string(),
            "SortMerge Join"
        );
        assert_eq!(
            JoinAlgorithm::SparkBroadcastNestedLoopJoin.to_string(),
            "Broadcast NestedLoop Join"
        );
    }
}
