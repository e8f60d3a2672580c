//! Table-level statistics.

use crate::column::ColumnStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Statistics for one table: row count, average row size, and per-column
/// detail — exactly the basic statistics §2 assumes Teradata can collect
/// on remote tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of rows.
    pub(crate) row_count: u64,
    /// Average row width in bytes.
    pub(crate) avg_row_bytes: u64,
    /// Per-column statistics keyed by column name (BTreeMap so that serde
    /// output and iteration order are deterministic).
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// Creates empty stats for a table of known size.
    pub fn new(row_count: u64, avg_row_bytes: u64) -> Self {
        TableStats {
            row_count,
            avg_row_bytes,
            columns: BTreeMap::new(),
        }
    }

    /// Adds stats for one column (builder style).
    pub fn with_column(mut self, name: &str, stats: ColumnStats) -> Self {
        self.columns.insert(name.to_string(), stats);
        self
    }

    /// Looks up stats for a column.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Total data volume in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.row_count * self.avg_row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let s = TableStats::new(1000, 250)
            .with_column("a1", ColumnStats::duplicated_range(1000, 1))
            .with_column("a5", ColumnStats::duplicated_range(1000, 5));
        assert_eq!(s.column("a1").unwrap().distinct_values, 1000);
        assert_eq!(s.column("a5").unwrap().distinct_values, 200);
        assert!(s.column("nope").is_none());
        assert_eq!(s.total_bytes(), 250_000);
    }

    #[test]
    fn serde_roundtrip() {
        let s = TableStats::new(10, 40).with_column("z", ColumnStats::constant(0));
        let json = serde_json::to_string(&s).unwrap();
        let back: TableStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
