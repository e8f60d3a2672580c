//! Out-of-range query sets (Fig. 14 and Table 1).
//!
//! §7: "Both the sub-op and logical-op approaches are trained using
//! datasets of up-to 8×10⁶ records with different record sizes. … The
//! figure shows the estimation accuracy for a set of new queries, where
//! the number of input records is 20×10⁶, while the record sizes are
//! within the trained ranges. We generated 45 queries with different
//! configurations, e.g., in some configurations only one of the join
//! tables is out-of-range and in other configurations both tables are
//! out-of-range."

use crate::{joinq::JoinQuery, tables::TableSpec};

/// The out-of-range row count (20 million).
pub(crate) const OOR_ROWS: u64 = 20_000_000;

/// In-range partner row counts for the "one side out of range" cases.
const IN_RANGE_PARTNERS: [u64; 3] = [1_000_000, 4_000_000, 8_000_000];

/// Record sizes used (all within the trained ranges).
const OOR_SIZES: [u64; 5] = [40, 100, 250, 500, 1000];

/// Selectivities cycled across the suite.
const OOR_SELECTIVITIES: [u32; 3] = [100, 50, 25];

/// The tables the OOR suite needs in addition to the training tables.
pub fn oor_table_specs() -> Vec<TableSpec> {
    OOR_SIZES
        .iter()
        .map(|&s| TableSpec::new(OOR_ROWS, s))
        .collect()
}

/// The 45-query out-of-range join suite: for each of the five record
/// sizes, three "one side out of range" queries (20 M joined with an
/// in-range table) and — sharing the same size — cycling selectivities;
/// plus "both sides out of range" self-pairings across sizes.
#[expect(
    clippy::indexing_slicing,
    reason = "each selectivity index is reduced modulo the constant's length"
)]
pub fn oor_join_queries() -> Vec<JoinQuery> {
    let mut out = Vec::new();
    // One side out of range: 5 sizes × 3 partners = 15 queries.
    for (qi, &size) in OOR_SIZES.iter().enumerate() {
        for (pi, &partner) in IN_RANGE_PARTNERS.iter().enumerate() {
            out.push(JoinQuery {
                big: TableSpec::new(OOR_ROWS, size),
                small: TableSpec::new(partner, size),
                selectivity_pct: OOR_SELECTIVITIES[(qi + pi) % OOR_SELECTIVITIES.len()],
                projection: 0,
            });
        }
    }
    // One side out of range, different selectivity mix: 5 × 3 = 15 more.
    for (qi, &size) in OOR_SIZES.iter().enumerate() {
        for (pi, &partner) in IN_RANGE_PARTNERS.iter().enumerate() {
            out.push(JoinQuery {
                big: TableSpec::new(OOR_ROWS, size),
                small: TableSpec::new(partner / 2, size),
                selectivity_pct: OOR_SELECTIVITIES[(qi + pi + 1) % OOR_SELECTIVITIES.len()],
                projection: 0,
            });
        }
    }
    // Both sides out of range: 5 sizes × 3 selectivities = 15.
    for &size in &OOR_SIZES {
        for &sel in &OOR_SELECTIVITIES {
            out.push(JoinQuery {
                big: TableSpec::new(OOR_ROWS, size),
                // A second 20 M table of the same size; the generator gives
                // it a distinct name suffix via a slightly different row
                // count so both can be registered.
                small: TableSpec::new(OOR_ROWS - 1, size),
                selectivity_pct: sel,
                projection: 0,
            });
        }
    }
    out
}

/// Every table spec referenced by the OOR suite (deduplicated).
pub fn oor_all_table_specs() -> Vec<TableSpec> {
    let mut specs: Vec<TableSpec> = oor_join_queries()
        .iter()
        .flat_map(|q| [q.big, q.small])
        .collect();
    specs.sort_by_key(|s| (s.rows, s.record_bytes));
    specs.dedup();
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_45_queries() {
        assert_eq!(oor_join_queries().len(), 45);
    }

    #[test]
    fn every_query_has_an_out_of_range_side() {
        for q in oor_join_queries() {
            assert!(
                q.big.rows >= OOR_ROWS - 1,
                "big side must be OOR: {:?}",
                q.big
            );
        }
    }

    #[test]
    fn mix_of_one_and_two_sided_oor() {
        let qs = oor_join_queries();
        let both = qs.iter().filter(|q| q.small.rows >= OOR_ROWS - 1).count();
        let one = qs.len() - both;
        assert_eq!(both, 15);
        assert_eq!(one, 30);
    }

    #[test]
    fn record_sizes_stay_in_trained_range() {
        for q in oor_join_queries() {
            assert!(crate::tables::RECORD_SIZES.contains(&q.big.record_bytes));
        }
    }

    #[test]
    fn all_specs_dedupe_cleanly() {
        let specs = oor_all_table_specs();
        let mut unique = specs.clone();
        unique.dedup();
        assert_eq!(specs.len(), unique.len());
        assert!(specs.iter().any(|s| s.rows == OOR_ROWS));
    }
}
