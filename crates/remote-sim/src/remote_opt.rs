//! The remote system's *internal* optimizer: rule-based physical-algorithm
//! selection.
//!
//! §4 notes that "within a single remote system, it is not trivial for
//! IntelliSphere to predict which physical algorithm, possibly from
//! several candidates, will be used". This module is the thing being
//! predicted: a deterministic rule set, per engine persona, that picks a
//! join/aggregation algorithm from the input statistics. The costing
//! crate's applicability rules try to reconstruct these decisions from the
//! outside.

use crate::cluster::ClusterConfig;
use catalog::remote::{AggAlgorithm, AggInfo, JoinAlgorithm, JoinContext, JoinInfo};
use catalog::SystemKind;

/// Tunable thresholds of a persona's optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerRules {
    /// Broadcast the build side when it is at most this many bytes.
    pub(crate) broadcast_threshold_bytes: f64,
    /// Treat a key as skewed when its heaviest value carries more than
    /// this fraction of the big side's rows.
    pub(crate) skew_fraction: f64,
    /// Below this many result pairs a nested loop is acceptable (RDBMS).
    pub(crate) nested_loop_pair_limit: f64,
}

impl OptimizerRules {
    /// Hive defaults (32 MB broadcast threshold, mirroring
    /// `hive.mapjoin.smalltable.filesize`-style settings).
    pub(crate) fn hive() -> Self {
        OptimizerRules {
            broadcast_threshold_bytes: 32.0 * 1024.0 * 1024.0,
            skew_fraction: 0.20,
            nested_loop_pair_limit: 0.0,
        }
    }

    /// Spark defaults (10 MB `autoBroadcastJoinThreshold`).
    pub(crate) fn spark() -> Self {
        OptimizerRules {
            broadcast_threshold_bytes: 10.0 * 1024.0 * 1024.0,
            skew_fraction: 0.20,
            nested_loop_pair_limit: 0.0,
        }
    }

    /// RDBMS defaults.
    pub(crate) fn rdbms() -> Self {
        OptimizerRules {
            broadcast_threshold_bytes: f64::INFINITY,
            skew_fraction: 1.0,
            nested_loop_pair_limit: 1.0e6,
        }
    }
}

/// Picks the join algorithm the remote system would use.
pub(crate) fn choose_join(
    kind: SystemKind,
    rules: &OptimizerRules,
    cluster: &ClusterConfig,
    j: &JoinInfo,
    ctx: &JoinContext,
) -> JoinAlgorithm {
    match kind {
        SystemKind::Hive => {
            if !ctx.has_equi_keys {
                // Hive runs cross joins through the common shuffle join.
                return JoinAlgorithm::HiveShuffleJoin;
            }
            if j.heavy_key_rows > rules.skew_fraction * j.big.rows && j.big.rows > 1_000.0 {
                return JoinAlgorithm::HiveSkewJoin;
            }
            if ctx.big_bucketed && ctx.small_bucketed {
                return JoinAlgorithm::HiveSortMergeBucketJoin;
            }
            if j.small.total_bytes() <= rules.broadcast_threshold_bytes {
                return JoinAlgorithm::HiveBroadcastJoin;
            }
            if ctx.small_bucketed
                && j.small.total_bytes() / cluster.total_cores() as f64
                    <= cluster.task_hash_budget_bytes() as f64
            {
                return JoinAlgorithm::HiveBucketMapJoin;
            }
            JoinAlgorithm::HiveShuffleJoin
        }
        SystemKind::Spark => {
            if !ctx.has_equi_keys {
                return if j.small.total_bytes() <= rules.broadcast_threshold_bytes {
                    JoinAlgorithm::SparkBroadcastNestedLoopJoin
                } else {
                    JoinAlgorithm::SparkCartesianProductJoin
                };
            }
            if j.small.total_bytes() <= rules.broadcast_threshold_bytes {
                return JoinAlgorithm::SparkBroadcastHashJoin;
            }
            let partitions = cluster.total_cores().max(1) as f64;
            let per_partition = j.small.total_proj_bytes() / partitions;
            if per_partition <= cluster.task_hash_budget_bytes() as f64
                && j.big.rows >= 3.0 * j.small.rows
            {
                return JoinAlgorithm::SparkShuffleHashJoin;
            }
            JoinAlgorithm::SparkSortMergeJoin
        }
        SystemKind::Rdbms | SystemKind::Teradata => {
            if !ctx.has_equi_keys {
                return JoinAlgorithm::RdbmsNestedLoopJoin;
            }
            if j.big.rows * j.small.rows <= rules.nested_loop_pair_limit {
                return JoinAlgorithm::RdbmsNestedLoopJoin;
            }
            let mem = cluster.memory_per_node_bytes as f64 * 0.5;
            if j.small.total_bytes() <= mem {
                JoinAlgorithm::RdbmsHashJoin
            } else {
                JoinAlgorithm::RdbmsSortMergeJoin
            }
        }
    }
}

/// Picks the aggregation algorithm.
pub(crate) fn choose_agg(cluster: &ClusterConfig, a: &AggInfo) -> AggAlgorithm {
    // Spill the hash table badly (> 4× budget) and sorting wins.
    let hash_bytes = a.groups * a.out_bytes;
    if hash_bytes > 4.0 * cluster.task_hash_budget_bytes() as f64 {
        AggAlgorithm::SortAggregate
    } else {
        AggAlgorithm::HashAggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::remote::SideInfo;

    fn ctx() -> JoinContext {
        JoinContext {
            has_equi_keys: true,
            big_bucketed: false,
            small_bucketed: false,
        }
    }

    fn info(big_rows: f64, small_rows: f64, small_bytes: f64) -> JoinInfo {
        JoinInfo {
            big: SideInfo {
                rows: big_rows,
                row_bytes: 250.0,
                proj_bytes: 12.0,
            },
            small: SideInfo {
                rows: small_rows,
                row_bytes: small_bytes,
                proj_bytes: 12.0,
            },
            out_rows: small_rows,
            out_bytes: 24.0,
            heavy_key_rows: 1.0,
        }
    }

    #[test]
    fn hive_broadcasts_small_tables() {
        let cluster = ClusterConfig::paper_hive();
        // 10k rows × 100 B = 1 MB < 32 MB threshold.
        let a = choose_join(
            SystemKind::Hive,
            &OptimizerRules::hive(),
            &cluster,
            &info(1e7, 1e4, 100.0),
            &ctx(),
        );
        assert_eq!(a, JoinAlgorithm::HiveBroadcastJoin);
    }

    #[test]
    fn hive_shuffles_two_large_tables() {
        let cluster = ClusterConfig::paper_hive();
        // 10M × 100 B = 1 GB build side.
        let a = choose_join(
            SystemKind::Hive,
            &OptimizerRules::hive(),
            &cluster,
            &info(1e7, 1e7, 100.0),
            &ctx(),
        );
        assert_eq!(a, JoinAlgorithm::HiveShuffleJoin);
    }

    #[test]
    fn hive_uses_smb_when_both_bucketed() {
        let cluster = ClusterConfig::paper_hive();
        let c = JoinContext {
            has_equi_keys: true,
            big_bucketed: true,
            small_bucketed: true,
        };
        let a = choose_join(
            SystemKind::Hive,
            &OptimizerRules::hive(),
            &cluster,
            &info(1e7, 1e7, 100.0),
            &c,
        );
        assert_eq!(a, JoinAlgorithm::HiveSortMergeBucketJoin);
    }

    #[test]
    fn hive_detects_skew() {
        let cluster = ClusterConfig::paper_hive();
        let mut j = info(1e6, 1e6, 100.0);
        j.heavy_key_rows = 0.5 * 1e6;
        let a = choose_join(
            SystemKind::Hive,
            &OptimizerRules::hive(),
            &cluster,
            &j,
            &ctx(),
        );
        assert_eq!(a, JoinAlgorithm::HiveSkewJoin);
    }

    #[test]
    fn spark_cross_joins_pick_by_size() {
        let cluster = ClusterConfig::paper_hive();
        let no_keys = JoinContext {
            has_equi_keys: false,
            ..ctx()
        };
        let small = choose_join(
            SystemKind::Spark,
            &OptimizerRules::spark(),
            &cluster,
            &info(1e6, 1e3, 100.0),
            &no_keys,
        );
        assert_eq!(small, JoinAlgorithm::SparkBroadcastNestedLoopJoin);
        let large = choose_join(
            SystemKind::Spark,
            &OptimizerRules::spark(),
            &cluster,
            &info(1e6, 1e7, 100.0),
            &no_keys,
        );
        assert_eq!(large, JoinAlgorithm::SparkCartesianProductJoin);
    }

    #[test]
    fn spark_sort_merge_for_balanced_large_inputs() {
        let cluster = ClusterConfig::paper_hive();
        let a = choose_join(
            SystemKind::Spark,
            &OptimizerRules::spark(),
            &cluster,
            &info(1e7, 1e7, 1000.0),
            &ctx(),
        );
        assert_eq!(a, JoinAlgorithm::SparkSortMergeJoin);
    }

    #[test]
    fn rdbms_nested_loop_for_tiny_inputs() {
        let cluster = ClusterConfig::single_node(8, 1 << 33);
        let a = choose_join(
            SystemKind::Rdbms,
            &OptimizerRules::rdbms(),
            &cluster,
            &info(100.0, 100.0, 100.0),
            &ctx(),
        );
        assert_eq!(a, JoinAlgorithm::RdbmsNestedLoopJoin);
        let b = choose_join(
            SystemKind::Rdbms,
            &OptimizerRules::rdbms(),
            &cluster,
            &info(1e6, 1e5, 100.0),
            &ctx(),
        );
        assert_eq!(b, JoinAlgorithm::RdbmsHashJoin);
    }

    #[test]
    fn agg_switches_to_sort_for_huge_group_counts() {
        let cluster = ClusterConfig::paper_hive();
        let small = AggInfo {
            in_rows: 1e6,
            in_bytes: 100.0,
            groups: 1e3,
            out_bytes: 12.0,
            n_aggs: 1,
        };
        assert_eq!(choose_agg(&cluster, &small), AggAlgorithm::HashAggregate);
        let huge = AggInfo {
            groups: 1e9,
            out_bytes: 100.0,
            ..small
        };
        assert_eq!(choose_agg(&cluster, &huge), AggAlgorithm::SortAggregate);
    }
}
