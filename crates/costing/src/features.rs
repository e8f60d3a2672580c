//! Feature extraction: from a query analysis to the model input vectors.
//!
//! Fig. 2 defines the join model's seven training dimensions — "the row
//! size and the number of rows in each of the two tables, the sum of the
//! projected attribute sizes from each table, and the number of output
//! rows" — and §3 gives the aggregation model four: "the number of input
//! rows, input row size, number of output rows, and output row size".

use crate::estimator::OperatorKind;
use serde::{Deserialize, Serialize};
use sqlkit::analyze::{analyze, CoreKind, QueryAnalysis};
use sqlkit::cardinality::CardError;

/// Join model dimensionality (Fig. 2).
pub const JOIN_DIMS: usize = 7;

/// Aggregation model dimensionality (§3).
pub const AGG_DIMS: usize = 4;

/// Names of the join dimensions, in feature order.
pub fn join_dim_names() -> [&'static str; JOIN_DIMS] {
    [
        "row_size_r",
        "num_rows_r",
        "row_size_s",
        "num_rows_s",
        "projected_size_r",
        "projected_size_s",
        "num_output_rows",
    ]
}

/// Names of the aggregation dimensions, in feature order.
pub fn agg_dim_names() -> [&'static str; AGG_DIMS] {
    [
        "num_input_rows",
        "input_row_size",
        "num_output_rows",
        "output_row_size",
    ]
}

/// An extracted feature vector tagged with its operator kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryFeatures {
    /// Which operator model these features feed.
    pub(crate) op: OperatorKind,
    /// The feature vector (length [`JOIN_DIMS`] or [`AGG_DIMS`]).
    pub values: Vec<f64>,
}

/// Extracts the Fig. 2 join features from an analysed query. `R` is the
/// big (probe) side, `S` the small (build) side. Returns `None` when the
/// query has no join.
pub fn join_features(analysis: &QueryAnalysis) -> Option<[f64; JOIN_DIMS]> {
    let (info, _) = analysis.join.as_ref()?;
    Some([
        info.big.row_bytes,
        info.big.rows,
        info.small.row_bytes,
        info.small.rows,
        info.big.proj_bytes,
        info.small.proj_bytes,
        info.out_rows,
    ])
}

/// Extracts the §3 aggregation features. Returns `None` when the query
/// has no aggregation.
pub fn agg_features(analysis: &QueryAnalysis) -> Option<[f64; AGG_DIMS]> {
    let a = analysis.agg.as_ref()?;
    Some([a.in_rows, a.in_bytes, a.groups, a.out_bytes])
}

/// Classifies a query and extracts its features in one step.
pub(crate) fn extract(analysis: &QueryAnalysis) -> QueryFeatures {
    if let Some(f) = agg_features(analysis) {
        // Aggregation above a join is still modelled by the aggregation
        // operator here; the join contributes its own operator estimate.
        if analysis.core != CoreKind::Join {
            return QueryFeatures {
                op: OperatorKind::Aggregation,
                values: f.to_vec(),
            };
        }
    }
    if let Some(f) = join_features(analysis) {
        return QueryFeatures {
            op: OperatorKind::Join,
            values: f.to_vec(),
        };
    }
    if let Some(f) = agg_features(analysis) {
        return QueryFeatures {
            op: OperatorKind::Aggregation,
            values: f.to_vec(),
        };
    }
    let scan_in = analysis.scan_in.unwrap_or(analysis.root);
    QueryFeatures {
        op: OperatorKind::Scan,
        values: vec![
            scan_in.rows,
            scan_in.row_bytes,
            analysis.root.rows,
            analysis.root.row_bytes,
        ],
    }
}

/// Parses SQL against a catalog and extracts features.
pub fn features_from_sql(
    catalog: &catalog::Catalog,
    sql: &str,
) -> Result<QueryFeatures, FeatureError> {
    let plan = sqlkit::sql_to_plan(sql).map_err(|e| FeatureError::Sql(e.to_string()))?;
    let analysis = analyze(catalog, &plan)?;
    Ok(extract(&analysis))
}

/// Feature-extraction failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureError {
    /// SQL failed to parse or plan.
    Sql(String),
    /// Cardinality estimation failed (unknown table).
    Cardinality(CardError),
}

impl std::fmt::Display for FeatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureError::Sql(m) => write!(f, "sql error: {m}"),
            FeatureError::Cardinality(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FeatureError {}

impl From<CardError> for FeatureError {
    fn from(e: CardError) -> Self {
        FeatureError::Cardinality(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::Catalog;
    use remote_sim::ClusterEngine;
    use sqlkit::RemoteSystem;
    use workload::{register_tables, TableSpec};

    fn catalog_with(specs: &[TableSpec]) -> Catalog {
        let mut e = ClusterEngine::paper_hive("hive", 1).without_noise();
        register_tables(&mut e, specs).unwrap();
        e.catalog().clone()
    }

    #[test]
    fn join_features_have_seven_dims_in_fig2_order() {
        let cat = catalog_with(&[TableSpec::new(1_000_000, 250), TableSpec::new(100_000, 100)]);
        let f = features_from_sql(
            &cat,
            "SELECT r.a1, s.a1 FROM T1000000_250 r JOIN T100000_100 s ON r.a1 = s.a1",
        )
        .unwrap();
        assert_eq!(f.op, OperatorKind::Join);
        assert_eq!(f.values.len(), JOIN_DIMS);
        assert_eq!(f.values[0], 250.0); // R row size
        assert_eq!(f.values[1], 1_000_000.0); // R rows
        assert_eq!(f.values[2], 100.0); // S row size
        assert_eq!(f.values[3], 100_000.0); // S rows
        assert!((f.values[6] - 100_000.0).abs() < 1.0); // output rows
    }

    #[test]
    fn agg_features_have_four_dims() {
        let cat = catalog_with(&[TableSpec::new(1_000_000, 250)]);
        let f = features_from_sql(
            &cat,
            "SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5",
        )
        .unwrap();
        assert_eq!(f.op, OperatorKind::Aggregation);
        assert_eq!(f.values, vec![1_000_000.0, 250.0, 200_000.0, 12.0]);
    }

    #[test]
    fn scan_features_fall_through() {
        let cat = catalog_with(&[TableSpec::new(10_000, 40)]);
        let f = features_from_sql(&cat, "SELECT a1 FROM T10000_40 WHERE a1 < 100").unwrap();
        assert_eq!(f.op, OperatorKind::Scan);
        assert_eq!(f.values.len(), 4);
    }

    #[test]
    fn unknown_table_is_a_cardinality_error() {
        let cat = Catalog::new();
        assert!(matches!(
            features_from_sql(&cat, "SELECT * FROM ghost"),
            Err(FeatureError::Cardinality(_))
        ));
    }

    #[test]
    fn dim_name_arrays_match_dims() {
        assert_eq!(join_dim_names().len(), JOIN_DIMS);
        assert_eq!(agg_dim_names().len(), AGG_DIMS);
    }
}
