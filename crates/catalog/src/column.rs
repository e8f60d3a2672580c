//! Column definitions and per-column statistics.

use serde::{Deserialize, Serialize};

/// Supported column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 4-byte integer.
    Integer,
    /// Fixed-width character field of the given byte length (the Fig. 10
    /// `dummy` column "used to reach a specific record size").
    Character(u32),
}

impl ColumnType {
    /// On-disk width in bytes.
    pub fn width(self) -> u64 {
        match self {
            ColumnType::Integer => 4,
            ColumnType::Character(n) => n as u64,
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl ColumnDef {
    /// Convenience constructor for an integer column.
    pub fn int(name: &str) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty: ColumnType::Integer,
        }
    }

    /// Convenience constructor for a character column.
    pub fn chars(name: &str, width: u32) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty: ColumnType::Character(width),
        }
    }
}

/// An equi-width histogram over an integer column's value range, for
/// non-uniform selectivity estimation (real optimizers — Teradata
/// included — collect these alongside the basic §2 statistics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower bound of the first bucket.
    pub(crate) lo: f64,
    /// Upper bound of the last bucket.
    pub(crate) hi: f64,
    /// Row counts per bucket (equal-width buckets across `[lo, hi]`).
    pub(crate) counts: Vec<u64>,
}

/// Per-column statistics, as Teradata would collect them on a foreign
/// table (§2: "the number of distinct values in each column").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct_values: u64,
    /// Minimum value (integer domain; `None` for character columns).
    pub min: Option<i64>,
    /// Maximum value (integer domain; `None` for character columns).
    pub max: Option<i64>,
    /// Rows carried by the single most frequent value, when it deviates
    /// from the uniform `rows / distinct` (drives skew detection).
    #[serde(default)]
    pub heavy_hitter_rows: Option<u64>,
    /// Optional histogram for non-uniform range selectivity.
    #[serde(default)]
    pub(crate) histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Stats for a column holding `1..=n` with each value repeated
    /// `duplication` times — the Fig. 10 construction where "each value in
    /// a5 is duplicated 5 times".
    pub fn duplicated_range(rows: u64, duplication: u64) -> Self {
        assert!(duplication > 0, "duplication factor must be positive");
        let distinct = rows.div_ceil(duplication).max(1);
        ColumnStats {
            distinct_values: distinct,
            min: Some(1),
            max: Some(distinct as i64),
            heavy_hitter_rows: None,
            histogram: None,
        }
    }

    /// Stats for a constant column (the Fig. 10 `z` column of all zeros).
    pub fn constant(value: i64) -> Self {
        ColumnStats {
            distinct_values: 1,
            min: Some(value),
            max: Some(value),
            heavy_hitter_rows: None,
            histogram: None,
        }
    }

    /// Rows carried by the most frequent value: the declared heavy hitter
    /// when known, otherwise the uniform average.
    pub fn heavy_rows(&self, table_rows: u64) -> f64 {
        self.heavy_hitter_rows
            .map(|h| h as f64)
            .unwrap_or_else(|| self.rows_per_value(table_rows))
    }

    /// Average number of rows sharing one value, given the table row count.
    pub(crate) fn rows_per_value(&self, rows: u64) -> f64 {
        rows as f64 / self.distinct_values as f64
    }

    /// Estimated selectivity of `column = literal` (1/distinct when the
    /// literal is within range).
    pub fn eq_selectivity(&self, literal: f64) -> f64 {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => {
                if literal < lo as f64 || literal > hi as f64 {
                    0.0
                } else {
                    1.0 / self.distinct_values as f64
                }
            }
            _ => 1.0 / self.distinct_values as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ColumnType::Integer.width(), 4);
        assert_eq!(ColumnType::Character(12).width(), 12);
    }

    #[test]
    fn duplicated_range_matches_fig10_semantics() {
        // 1000 rows, duplication 5 -> 200 distinct values 1..=200.
        let s = ColumnStats::duplicated_range(1000, 5);
        assert_eq!(s.distinct_values, 200);
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(200));
        assert_eq!(s.rows_per_value(1000), 5.0);
    }

    #[test]
    fn duplication_rounds_up_for_uneven_division() {
        let s = ColumnStats::duplicated_range(10, 3);
        assert_eq!(s.distinct_values, 4);
    }

    #[test]
    fn constant_column() {
        let s = ColumnStats::constant(0);
        assert_eq!(s.distinct_values, 1);
        assert_eq!(s.eq_selectivity(0.0), 1.0);
        assert_eq!(s.eq_selectivity(5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplication factor")]
    fn zero_duplication_panics() {
        ColumnStats::duplicated_range(10, 0);
    }

    #[test]
    fn heavy_rows_defaults_to_uniform_average() {
        let s = ColumnStats::duplicated_range(1000, 5);
        assert_eq!(s.heavy_rows(1000), 5.0);
        let skewed = ColumnStats {
            heavy_hitter_rows: Some(400),
            ..s
        };
        assert_eq!(skewed.heavy_rows(1000), 400.0);
    }
}
