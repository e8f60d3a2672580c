//! The 120-table Fig. 10 dataset.

use catalog::{ColumnDef, ColumnStats, SystemId, TableDef, TableStats};
use remote_sim::ClusterEngine;
use serde::{Deserialize, Serialize};

/// Duplication factors of the `aᵢ` columns in the Fig. 10 schema.
pub(crate) const DUPLICATION_FACTORS: [u64; 7] = [1, 2, 5, 10, 20, 50, 100];

/// Record-size configurations (`y`) in bytes.
pub(crate) const RECORD_SIZES: [u64; 6] = [40, 70, 100, 250, 500, 1000];

/// Row-count multipliers (`k`).
pub(crate) const ROW_MULTIPLIERS: [u64; 5] = [1, 2, 4, 6, 8];

/// Row-count magnitudes (the `10^n` factors).
pub(crate) const ROW_MAGNITUDES: [u64; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

/// One `Tx_y` table configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TableSpec {
    /// Number of records (`x`).
    pub rows: u64,
    /// Record size in bytes (`y`).
    pub record_bytes: u64,
}

impl TableSpec {
    /// Creates a spec.
    pub fn new(rows: u64, record_bytes: u64) -> Self {
        TableSpec { rows, record_bytes }
    }

    /// The `Tx_y` name.
    pub fn name(&self) -> String {
        table_name(self.rows, self.record_bytes)
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.rows * self.record_bytes
    }
}

/// The Fig. 10 naming convention `Tx_y`.
pub(crate) fn table_name(rows: u64, record_bytes: u64) -> String {
    format!("T{rows}_{record_bytes}")
}

/// All 120 Fig. 10 table specs (20 row configurations × 6 record sizes).
pub fn fig10_table_specs() -> Vec<TableSpec> {
    let mut out = Vec::with_capacity(120);
    for &mag in &ROW_MAGNITUDES {
        for &k in &ROW_MULTIPLIERS {
            for &size in &RECORD_SIZES {
                out.push(TableSpec::new(k * mag, size));
            }
        }
    }
    out
}

/// Materialises a spec into a [`TableDef`] with the Fig. 10 schema and
/// exact statistics. `location` is rewritten on registration, so any
/// placeholder id works.
pub fn build_table(spec: &TableSpec) -> TableDef {
    let mut schema = Vec::with_capacity(9);
    let mut stats = TableStats::new(spec.rows, spec.record_bytes);
    for &dup in &DUPLICATION_FACTORS {
        let col = format!("a{dup}");
        schema.push(ColumnDef::int(&col));
        stats = stats.with_column(&col, ColumnStats::duplicated_range(spec.rows, dup));
    }
    schema.push(ColumnDef::int("z"));
    stats = stats.with_column("z", ColumnStats::constant(0));
    // 8 integer columns × 4 bytes = 32; `dummy` pads the rest (Fig. 10:
    // "used to reach a specific record size").
    let pad = spec.record_bytes.saturating_sub(32).max(1) as u32;
    schema.push(ColumnDef::chars("dummy", pad));
    TableDef::new(&spec.name(), schema, stats, SystemId::new("unassigned"))
}

/// Registers a set of specs on an engine. Returns how many were added.
pub fn register_tables(
    engine: &mut ClusterEngine,
    specs: &[TableSpec],
) -> Result<usize, sqlkit::EngineError> {
    for spec in specs {
        engine.register_table(build_table(spec))?;
    }
    Ok(specs.len())
}

/// The specs with at most `max_rows` rows — the paper's Fig. 14 trains on
/// tables of "up-to 8×10⁶ records".
pub fn specs_up_to(max_rows: u64) -> Vec<TableSpec> {
    fig10_table_specs()
        .into_iter()
        .filter(|s| s.rows <= max_rows)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_120_tables() {
        let specs = fig10_table_specs();
        assert_eq!(specs.len(), 120);
        // All distinct names.
        let names: std::collections::HashSet<String> = specs.iter().map(TableSpec::name).collect();
        assert_eq!(names.len(), 120);
    }

    #[test]
    fn row_configurations_match_fig10() {
        let specs = fig10_table_specs();
        let rows: std::collections::BTreeSet<u64> = specs.iter().map(|s| s.rows).collect();
        assert_eq!(rows.len(), 20);
        assert!(rows.contains(&10_000));
        assert!(rows.contains(&80_000_000));
        assert!(rows.contains(&6_000_000));
    }

    #[test]
    fn naming_convention() {
        assert_eq!(table_name(10_000, 40), "T10000_40");
        assert_eq!(TableSpec::new(2_000_000, 250).name(), "T2000000_250");
    }

    #[test]
    fn built_table_has_fig10_schema() {
        let t = build_table(&TableSpec::new(1_000, 250));
        let cols: Vec<&str> = t.schema.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            cols,
            vec!["a1", "a2", "a5", "a10", "a20", "a50", "a100", "z", "dummy"]
        );
        assert_eq!(t.rows(), 1_000);
        assert_eq!(t.row_bytes(), 250);
        // dummy pads to the record size.
        assert_eq!(t.schema_row_width(), 250);
    }

    #[test]
    fn duplication_stats_are_exact() {
        let t = build_table(&TableSpec::new(1_000_000, 100));
        assert_eq!(t.stats.column("a1").unwrap().distinct_values, 1_000_000);
        assert_eq!(t.stats.column("a20").unwrap().distinct_values, 50_000);
        assert_eq!(t.stats.column("z").unwrap().distinct_values, 1);
    }

    #[test]
    fn tiny_record_sizes_still_have_positive_padding() {
        let t = build_table(&TableSpec::new(10, 40));
        assert_eq!(t.schema_row_width(), 40);
    }

    #[test]
    fn specs_up_to_filters_by_rows() {
        let small = specs_up_to(8_000_000);
        assert!(small.iter().all(|s| s.rows <= 8_000_000));
        // 15 of the 20 row configs survive (everything at 10^4, 10^5, and
        // 10^6 magnitude; nothing at 10^7) × 6 sizes.
        assert_eq!(small.len(), 15 * 6);
    }

    #[test]
    fn registration_on_engine_works() {
        use sqlkit::RemoteSystem as _;
        let mut e = ClusterEngine::paper_hive("hive", 1).without_noise();
        let n = register_tables(&mut e, &specs_up_to(100_000)).unwrap();
        assert!(n > 0);
        assert_eq!(e.catalog().table_count(), n);
    }
}
