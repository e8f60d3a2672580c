//! Fig. 10 — the experimental setup: dataset and query-construction
//! inventory. This experiment validates and prints the generated workload
//! rather than measuring anything.

use crate::report::{heading, kv, ExpConfig};
use workload::{agg_training_queries, fig10_table_specs, join_training_queries, oor_join_queries};

/// Inventory counts for the Fig. 10 workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// Generated tables (paper: 120).
    pub tables: usize,
    /// Distinct row-count configurations (paper: 20).
    pub row_configs: usize,
    /// Distinct record sizes (paper: 6).
    pub size_configs: usize,
    /// Aggregation training queries (paper: ~3 700).
    pub agg_queries: usize,
    /// Join training queries (paper: ~4 000).
    pub join_queries: usize,
    /// Out-of-range evaluation queries (paper: 45).
    pub oor_queries: usize,
    /// Total dataset bytes across all tables.
    pub(crate) total_bytes: u64,
}

/// Runs the inventory.
pub fn run(_cfg: &ExpConfig) -> Fig10Result {
    let specs = fig10_table_specs();
    let rows: std::collections::BTreeSet<u64> = specs.iter().map(|s| s.rows).collect();
    let sizes: std::collections::BTreeSet<u64> = specs.iter().map(|s| s.record_bytes).collect();
    let result = Fig10Result {
        tables: specs.len(),
        row_configs: rows.len(),
        size_configs: sizes.len(),
        agg_queries: agg_training_queries(&specs).len(),
        join_queries: join_training_queries(&specs).len(),
        oor_queries: oor_join_queries().len(),
        total_bytes: specs.iter().map(|s| s.total_bytes()).sum(),
    };

    heading("Fig. 10 — experimental setup & synthetic dataset");
    kv("tables (Tx_y)", format!("{} (paper: 120)", result.tables));
    kv(
        "row-count configurations",
        format!("{} (paper: 20)", result.row_configs),
    );
    kv(
        "record-size configurations",
        format!("{} (paper: 6)", result.size_configs),
    );
    kv(
        "total dataset size",
        format!("{:.1} GB", result.total_bytes as f64 / 1e9),
    );
    kv(
        "aggregation training queries",
        format!("{} (paper: ~3,700)", result.agg_queries),
    );
    kv(
        "join training queries",
        format!("{} (paper: ~4,000)", result.join_queries),
    );
    kv(
        "out-of-range queries",
        format!("{} (paper: 45)", result.oor_queries),
    );
    kv(
        "example agg query",
        agg_training_queries(&specs[..1])[0].sql(),
    );
    kv(
        "example join query",
        join_training_queries(&specs[..20])
            .iter()
            .find(|q| q.selectivity_pct == 25)
            .map(|q| q.sql())
            .unwrap_or_default(),
    );
    result
}
