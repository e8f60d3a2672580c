//! Skewed-workload generation.
//!
//! §4 lists Hive's Skew Join among the algorithms an expert must model,
//! but the Fig. 10 dataset joins on the unique `a1` column and can never
//! trigger it. This module generates tables whose join key carries a
//! *heavy hitter* — one value holding a configurable fraction of all
//! rows — so the skew path (engine-side skew detection, the skew-join
//! cost formula, and the skew applicability rules) can be exercised and
//! evaluated.

use crate::tables::{build_table, TableSpec};
use catalog::TableDef;
use serde::{Deserialize, Serialize};

/// A Fig. 10-style table whose `a1` column is skewed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkewedTableSpec {
    /// The base table shape.
    pub(crate) base: TableSpec,
    /// Fraction of all rows carried by the heaviest `a1` value
    /// (0 < fraction < 1).
    pub(crate) heavy_fraction: f64,
}

impl SkewedTableSpec {
    /// Creates a skewed spec.
    pub fn new(rows: u64, record_bytes: u64, heavy_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&heavy_fraction),
            "heavy fraction must be in (0, 1)"
        );
        SkewedTableSpec {
            base: TableSpec::new(rows, record_bytes),
            heavy_fraction,
        }
    }

    /// The generated table name: `K{rows}_{size}_{pct}` (K for skewed so
    /// the name never collides with the uniform `Tx_y` tables).
    pub(crate) fn name(&self) -> String {
        format!(
            "K{}_{}_{}",
            self.base.rows,
            self.base.record_bytes,
            (self.heavy_fraction * 100.0).round() as u64
        )
    }

    /// Rows carried by the heavy `a1` value.
    pub(crate) fn heavy_rows(&self) -> u64 {
        (self.base.rows as f64 * self.heavy_fraction).round() as u64
    }
}

/// Materialises a skewed table: the Fig. 10 schema, but `a1` holds one
/// value with `heavy_fraction` of the rows and unique values elsewhere.
pub fn build_skewed_table(spec: &SkewedTableSpec) -> TableDef {
    let mut def = build_table(&spec.base);
    def.name = spec.name();
    let heavy = spec.heavy_rows().max(1);
    let distinct = (spec.base.rows - heavy + 1).max(1);
    if let Some(a1) = def.stats.columns.get_mut("a1") {
        a1.distinct_values = distinct;
        a1.max = Some(distinct as i64);
        a1.heavy_hitter_rows = Some(heavy);
    }
    def
}

/// Builds the join-query SQL between a skewed probe table and a uniform
/// build table (joined on `a1`, projecting the keys).
pub fn skew_join_sql(skewed: &SkewedTableSpec, uniform: &TableSpec) -> String {
    format!(
        "SELECT r.a1, s.a1 FROM {} r JOIN {} s ON r.a1 = s.a1",
        skewed.name(),
        uniform.name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_table_carries_heavy_hitter_stats() {
        let spec = SkewedTableSpec::new(1_000_000, 250, 0.4);
        let t = build_skewed_table(&spec);
        assert_eq!(t.name, "K1000000_250_40");
        let a1 = t.stats.column("a1").unwrap();
        assert_eq!(a1.heavy_hitter_rows, Some(400_000));
        // 400k rows share one value; the remaining 600k are unique.
        assert_eq!(a1.distinct_values, 600_001);
    }

    #[test]
    fn other_columns_keep_fig10_semantics() {
        let spec = SkewedTableSpec::new(100_000, 100, 0.3);
        let t = build_skewed_table(&spec);
        assert_eq!(t.stats.column("a5").unwrap().distinct_values, 20_000);
        assert_eq!(t.stats.column("z").unwrap().distinct_values, 1);
        assert_eq!(t.row_bytes(), 100);
    }

    #[test]
    fn join_sql_parses() {
        let spec = SkewedTableSpec::new(1_000_000, 250, 0.4);
        let sql = skew_join_sql(&spec, &TableSpec::new(500_000, 250));
        sqlkit::parse_query(&sql).unwrap();
    }

    #[test]
    #[should_panic(expected = "heavy fraction")]
    fn fraction_must_be_sane() {
        SkewedTableSpec::new(100, 40, 1.5);
    }
}
