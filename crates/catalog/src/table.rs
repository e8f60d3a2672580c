//! Table definitions (schema + stats + location).

use crate::{column::ColumnDef, remote::SystemId, stats::TableStats};
use serde::{Deserialize, Serialize};

/// A table registered in the IntelliSphere catalog. Tables stored on a
/// remote system are *foreign tables* from the master engine's point of
/// view; its schema and location are known (§2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name (unique within the catalog).
    pub name: String,
    /// Ordered column definitions.
    pub schema: Vec<ColumnDef>,
    /// Collected statistics.
    pub stats: TableStats,
    /// The system that stores this table.
    pub location: SystemId,
    /// Column the table is physically partitioned/bucketed by, when known.
    /// The sub-op applicability rules consult this (a table not partitioned
    /// by the join key rules out bucketed join algorithms).
    pub partitioned_by: Option<String>,
}

impl TableDef {
    /// Creates a table definition.
    pub fn new(name: &str, schema: Vec<ColumnDef>, stats: TableStats, location: SystemId) -> Self {
        TableDef {
            name: name.to_string(),
            schema,
            stats,
            location,
            partitioned_by: None,
        }
    }

    /// Declares a partitioning column (builder style).
    pub fn partitioned_by(mut self, column: &str) -> Self {
        self.partitioned_by = Some(column.to_string());
        self
    }

    /// Looks up a column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.schema.iter().find(|c| c.name == name)
    }

    /// Declared row width from the schema (sum of column widths).
    pub fn schema_row_width(&self) -> u64 {
        self.schema.iter().map(|c| c.ty.width()).sum()
    }

    /// Row count shortcut.
    pub fn rows(&self) -> u64 {
        self.stats.row_count
    }

    /// Average row size shortcut.
    pub fn row_bytes(&self) -> u64 {
        self.stats.avg_row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnStats;

    fn sample_table() -> TableDef {
        let schema = vec![
            ColumnDef::int("a1"),
            ColumnDef::int("a5"),
            ColumnDef::int("z"),
            ColumnDef::chars("dummy", 28),
        ];
        let stats = TableStats::new(1_000, 40)
            .with_column("a1", ColumnStats::duplicated_range(1_000, 1))
            .with_column("a5", ColumnStats::duplicated_range(1_000, 5))
            .with_column("z", ColumnStats::constant(0));
        TableDef::new("T1000_40", schema, stats, SystemId::new("hive-prod"))
    }

    #[test]
    fn schema_row_width_sums_columns() {
        assert_eq!(sample_table().schema_row_width(), 4 + 4 + 4 + 28);
    }

    #[test]
    fn partitioning_builder() {
        let t = sample_table().partitioned_by("a1");
        assert_eq!(t.partitioned_by.as_deref(), Some("a1"));
    }

    #[test]
    fn column_lookup() {
        let t = sample_table();
        assert!(t.column("z").is_some());
        assert!(t.column("q").is_none());
    }
}
