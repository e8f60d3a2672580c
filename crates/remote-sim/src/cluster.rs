//! Cluster configuration for a simulated shared-nothing engine.

use serde::{Deserialize, Serialize};

/// Physical layout of a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Worker (data) nodes.
    pub nodes: u32,
    /// CPU cores per node; `nodes × cores_per_node` is the total task
    /// parallelism — the denominator of the paper's `NumTaskWaves`.
    pub cores_per_node: u32,
    /// Memory per node in bytes.
    pub memory_per_node_bytes: u64,
    /// Distributed-filesystem block size in bytes (one map task per block).
    pub dfs_block_bytes: u64,
    /// Fraction of node memory one task may use for hash tables before the
    /// simulator switches the HashBuild sub-op into its spill regime
    /// (Fig. 13f's "fits in memory" boundary).
    pub task_memory_fraction: f64,
}

impl ClusterConfig {
    /// The paper's evaluation cluster (§7): 3 data nodes, 2 cores and 8 GB
    /// each, with a 32 MB block size chosen so the Fig. 10 tables split
    /// into enough tasks to exercise multi-wave scheduling.
    pub fn paper_hive() -> Self {
        ClusterConfig {
            nodes: 3,
            cores_per_node: 2,
            memory_per_node_bytes: 8 * 1024 * 1024 * 1024,
            dfs_block_bytes: 32 * 1024 * 1024,
            task_memory_fraction: 0.10,
        }
    }

    /// A single-node RDBMS host.
    pub fn single_node(cores: u32, memory_bytes: u64) -> Self {
        ClusterConfig {
            nodes: 1,
            cores_per_node: cores,
            memory_per_node_bytes: memory_bytes,
            dfs_block_bytes: 1024 * 1024 * 1024, // irrelevant: no DFS
            task_memory_fraction: 0.25,
        }
    }

    /// Total parallel task slots.
    pub(crate) fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Number of DFS blocks (and hence map tasks) for a dataset.
    pub(crate) fn blocks_for(&self, total_bytes: u64) -> u64 {
        total_bytes.div_ceil(self.dfs_block_bytes).max(1)
    }

    /// Per-task hash-table memory budget in bytes.
    pub(crate) fn task_hash_budget_bytes(&self) -> u64 {
        ((self.memory_per_node_bytes as f64 * self.task_memory_fraction)
            / self.cores_per_node as f64) as u64
    }

    /// The paper's `NumTaskWaves`: "total number of tasks … divided by the
    /// total number of parallelism in the system" (§4), rounded up.
    pub(crate) fn task_waves(&self, tasks: u64) -> u64 {
        tasks.div_ceil(self.total_cores() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_has_six_slots() {
        let c = ClusterConfig::paper_hive();
        assert_eq!(c.total_cores(), 6);
    }

    #[test]
    fn blocks_round_up_and_floor_at_one() {
        let c = ClusterConfig::paper_hive();
        assert_eq!(c.blocks_for(1), 1);
        assert_eq!(c.blocks_for(32 * 1024 * 1024), 1);
        assert_eq!(c.blocks_for(32 * 1024 * 1024 + 1), 2);
        assert_eq!(c.blocks_for(0), 1);
    }

    #[test]
    fn waves_follow_paper_definition() {
        let c = ClusterConfig::paper_hive(); // 6 slots
        assert_eq!(c.task_waves(1), 1);
        assert_eq!(c.task_waves(6), 1);
        assert_eq!(c.task_waves(7), 2);
        assert_eq!(c.task_waves(13), 3);
        assert_eq!(c.task_waves(0), 1);
    }

    #[test]
    fn hash_budget_divides_by_cores() {
        let c = ClusterConfig::paper_hive();
        let expect = (8.0 * 1024.0 * 1024.0 * 1024.0 * 0.10 / 2.0) as u64;
        assert_eq!(c.task_hash_budget_bytes(), expect);
    }

    #[test]
    fn single_node_shape() {
        let c = ClusterConfig::single_node(8, 1 << 34);
        assert_eq!(c.nodes, 1);
        assert_eq!(c.total_cores(), 8);
    }
}
