//! Join training queries.
//!
//! Fig. 10: "The join condition between R and S is fixed to
//! `R.a1 = S.a1` (which are unique-value columns). The output cardinality
//! of the join is thus the cardinality of the smaller table. … an extra
//! condition is added in the form of `(R.a1 + S.z < threshold)`. Since
//! `S.z` is always zero, we can precisely control the selectivity of this
//! predicate … the output selectivity is controlled to be 100%, 50%, 25%,
//! or 1% of the smaller table cardinality."
//!
//! One deliberate refinement: the threshold predicate here references the
//! *smaller* table's `a1` (the paper's R/S roles are symmetric), so the
//! uniform-range cardinality model computes the output as exactly
//! `selectivity × |smaller|` — the cardinality Fig. 10 intends.

use crate::tables::TableSpec;
use serde::{Deserialize, Serialize};

/// Output selectivities from Fig. 10, as percentages.
pub const SELECTIVITY_PCTS: [u32; 4] = [100, 50, 25, 1];

/// How much of each row the query projects — this varies the Fig. 2
/// "projected size" training dimensions (levels 0/1/2: join keys only, a
/// handful of attributes, everything including the padding column).
pub const PROJECTION_LEVELS: u8 = 3;

/// One join training query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinQuery {
    /// The larger relation (probe side).
    pub big: TableSpec,
    /// The smaller relation (whose cardinality bounds the output).
    pub small: TableSpec,
    /// Output selectivity as a percentage of `|small|`.
    pub selectivity_pct: u32,
    /// Projection level (0..PROJECTION_LEVELS).
    pub projection: u8,
}

impl JoinQuery {
    /// The projected column list for one side at this projection level.
    fn proj_list(&self, alias: &str) -> String {
        match self.projection {
            0 => format!("{alias}.a1"),
            1 => format!("{alias}.a1, {alias}.a2, {alias}.a5, {alias}.a10"),
            _ => format!(
                "{alias}.a1, {alias}.a2, {alias}.a5, {alias}.a10, {alias}.a20,                  {alias}.a50, {alias}.a100, {alias}.dummy"
            ),
        }
    }

    /// Renders the query as SQL (plus the threshold predicate when
    /// selectivity < 100 %).
    pub fn sql(&self) -> String {
        let base = format!(
            "SELECT {}, {} FROM {} r JOIN {} s ON r.a1 = s.a1",
            self.proj_list("r"),
            self.proj_list("s"),
            self.big.name(),
            self.small.name()
        );
        if self.selectivity_pct >= 100 {
            base
        } else {
            format!("{base} WHERE s.a1 + r.z < {}", self.threshold())
        }
    }

    /// The literal threshold implementing the requested selectivity.
    pub(crate) fn threshold(&self) -> u64 {
        (self.small.rows as f64 * self.selectivity_pct as f64 / 100.0).round() as u64
    }

    /// Exact expected output rows on the Fig. 10 data.
    pub fn expected_output_rows(&self) -> u64 {
        self.small.rows * self.selectivity_pct as u64 / 100
    }
}

/// The join training grid over the given tables: within every record
/// size, all ordered (bigger, smaller) row-count pairs, times the four
/// selectivities. Over the full 120 tables this yields
/// `6 sizes × C(20,2) pairs × 4 = 4 560` queries — the paper's "training
/// set of 4,000 queries" scale.
pub fn join_training_queries(tables: &[TableSpec]) -> Vec<JoinQuery> {
    join_training_queries_with(tables, &SELECTIVITY_PCTS)
}

/// Grid with custom selectivities.
pub fn join_training_queries_with(tables: &[TableSpec], selectivities: &[u32]) -> Vec<JoinQuery> {
    let mut sizes: Vec<u64> = tables.iter().map(|t| t.record_bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();

    let mut out = Vec::new();
    for &size in &sizes {
        let mut same_size: Vec<TableSpec> = tables
            .iter()
            .copied()
            .filter(|t| t.record_bytes == size)
            .collect();
        same_size.sort_by_key(|t| t.rows);
        same_size.dedup();
        for (i, &small) in same_size.iter().enumerate() {
            for (j, &big) in same_size.iter().enumerate().skip(i + 1) {
                for (si, &sel) in selectivities.iter().enumerate() {
                    // Cycle the projection level deterministically so all
                    // seven Fig. 2 dimensions vary across the grid.
                    let projection = ((i + j + si) % PROJECTION_LEVELS as usize) as u8;
                    out.push(JoinQuery {
                        big,
                        small,
                        selectivity_pct: sel,
                        projection,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::fig10_table_specs;

    #[test]
    fn full_grid_is_about_4000_queries() {
        let qs = join_training_queries(&fig10_table_specs());
        // 6 sizes × C(20,2)=190 pairs × 4 selectivities.
        assert_eq!(qs.len(), 6 * 190 * 4);
    }

    #[test]
    fn big_side_always_has_more_rows() {
        let qs = join_training_queries(&fig10_table_specs());
        assert!(qs.iter().all(|q| q.big.rows > q.small.rows));
    }

    #[test]
    fn pairs_share_record_size() {
        let qs = join_training_queries(&fig10_table_specs());
        assert!(qs
            .iter()
            .all(|q| q.big.record_bytes == q.small.record_bytes));
    }

    #[test]
    fn sql_includes_threshold_only_below_100pct() {
        let full = JoinQuery {
            big: TableSpec::new(1_000_000, 100),
            small: TableSpec::new(10_000, 100),
            selectivity_pct: 100,
            projection: 0,
        };
        assert!(!full.sql().contains("WHERE"));
        let quarter = JoinQuery {
            selectivity_pct: 25,
            ..full.clone()
        };
        assert!(quarter.sql().contains("WHERE s.a1 + r.z < 2500"));
    }

    #[test]
    fn expected_output_follows_selectivity() {
        let q = JoinQuery {
            big: TableSpec::new(1_000_000, 100),
            small: TableSpec::new(40_000, 100),
            selectivity_pct: 25,
            projection: 0,
        };
        assert_eq!(q.expected_output_rows(), 10_000);
        assert_eq!(q.threshold(), 10_000);
    }

    #[test]
    fn queries_parse() {
        let specs = [TableSpec::new(10_000, 40), TableSpec::new(20_000, 40)];
        for q in join_training_queries(&specs) {
            sqlkit::parse_query(&q.sql()).unwrap_or_else(|e| panic!("{}: {e}", q.sql()));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any JoinQuery over sane specs renders parseable SQL whose
            /// expected output respects the selectivity bound.
            #[test]
            fn prop_query_renders_and_bounds(
                big_rows in 1_000u64..100_000_000,
                small_rows in 1_000u64..100_000_000,
                size in prop::sample::select(vec![40u64, 70, 100, 250, 500, 1000]),
                sel in prop::sample::select(vec![100u32, 50, 25, 1]),
                projection in 0u8..PROJECTION_LEVELS,
            ) {
                prop_assume!(big_rows > small_rows);
                let q = JoinQuery {
                    big: TableSpec::new(big_rows, size),
                    small: TableSpec::new(small_rows, size),
                    selectivity_pct: sel,
                    projection,
                };
                sqlkit::parse_query(&q.sql()).expect("renders parseable SQL");
                prop_assert!(q.expected_output_rows() <= q.small.rows);
                prop_assert!(q.threshold() <= q.small.rows);
            }

            /// The grid never pairs a table with itself and always orders
            /// big > small.
            #[test]
            fn prop_grid_well_formed(
                seeds in proptest::collection::vec(1_000u64..10_000_000, 2..8),
            ) {
                let specs: Vec<TableSpec> =
                    seeds.iter().map(|&r| TableSpec::new(r, 100)).collect();
                for q in join_training_queries(&specs) {
                    prop_assert!(q.big.rows > q.small.rows);
                    prop_assert_ne!(q.big.name(), q.small.name());
                }
            }
        }
    }
}
