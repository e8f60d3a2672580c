//! Analytic cardinality evaluation of logical plans against catalog
//! statistics.
//!
//! The paper explicitly scopes cardinality estimation out of the costing
//! module (§4: "the values for factors such as NumTaskWaves, |Block(R)|,
//! and |TaskOutput| are calculated and/or estimated by another module in
//! the IntelliSphere system"). This module is that other module. Both the
//! simulator (as ground truth) and the master engine (as its estimate) use
//! it; the Fig. 10 workload is constructed so the uniform/containment
//! assumptions below are exact for every training and test query.
//!
//! Rules:
//! * **Scan** — rows and average row size from the catalog.
//! * **Filter** — uniform-range selectivity via interval arithmetic over
//!   the predicate (which handles Fig. 10's `R.a1 + S.z < threshold`
//!   trick exactly, because `z` is the constant-zero column).
//! * **Join** — `|R ⋈ S| = |R|·|S| / max(ndv(R.k), ndv(S.k))`, the classic
//!   containment assumption; extra non-equi conjuncts multiply in their
//!   selectivity.
//! * **Aggregate** — output groups = min(input rows, ∏ ndv(group cols)).
//! * **Project** — row count unchanged; width recomputed from the
//!   projected columns.

use crate::ast::{BinOp, Expr, SelectItem};
use crate::logical::LogicalOp;
use catalog::{Catalog, ColumnStats, TableDef};
use std::collections::HashMap;

/// Estimated size of an operator's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEstimate {
    /// Output rows.
    pub rows: f64,
    /// Average output row width in bytes.
    pub row_bytes: f64,
}

impl NodeEstimate {
    /// Total output volume in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }
}

/// Cardinality-evaluation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CardError {
    /// A scan references a table the catalog does not know.
    UnknownTable(String),
}

impl std::fmt::Display for CardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CardError::UnknownTable(t) => write!(f, "unknown table `{t}` in plan"),
        }
    }
}

impl std::error::Error for CardError {}

/// One side of an equi-join conjunct: `(binding, column)`.
pub(crate) type ColRef = (String, String);

/// Evaluates cardinalities for plans over one catalog.
pub(crate) struct CardinalityModel<'a> {
    catalog: &'a Catalog,
}

impl<'a> CardinalityModel<'a> {
    /// Creates a model over a catalog.
    pub(crate) fn new(catalog: &'a Catalog) -> Self {
        CardinalityModel { catalog }
    }

    /// Builds the binding → table map for a plan subtree.
    pub(crate) fn bindings(
        &self,
        op: &LogicalOp,
    ) -> Result<HashMap<String, &'a TableDef>, CardError> {
        let mut map = HashMap::new();
        for (table, binding) in op.tables() {
            let def = self
                .catalog
                .table(&table)
                .map_err(|_| CardError::UnknownTable(table.clone()))?;
            map.insert(binding, def);
        }
        Ok(map)
    }

    /// Estimates the output of an operator subtree.
    pub(crate) fn estimate(&self, op: &LogicalOp) -> Result<NodeEstimate, CardError> {
        let bindings = self.bindings(op)?;
        self.estimate_with(op, &bindings)
    }

    fn estimate_with(
        &self,
        op: &LogicalOp,
        bindings: &HashMap<String, &'a TableDef>,
    ) -> Result<NodeEstimate, CardError> {
        match op {
            LogicalOp::Scan { table, .. } => {
                let def = self
                    .catalog
                    .table(table)
                    .map_err(|_| CardError::UnknownTable(table.clone()))?;
                Ok(NodeEstimate {
                    rows: def.rows() as f64,
                    row_bytes: def.row_bytes() as f64,
                })
            }
            LogicalOp::Filter { input, predicate } => {
                let base = self.estimate_with(input, bindings)?;
                let sel = self.selectivity(predicate, bindings);
                Ok(NodeEstimate {
                    rows: base.rows * sel,
                    row_bytes: base.row_bytes,
                })
            }
            LogicalOp::Join { left, right, on } => {
                let l = self.estimate_with(left, bindings)?;
                let r = self.estimate_with(right, bindings)?;
                let (equi, residual) = split_join_condition(on);
                let mut rows = l.rows * r.rows;
                for (lk, rk) in &equi {
                    let ndv_l = self
                        .column_stats(lk, bindings)
                        .map_or(l.rows, |s| s.distinct_values as f64);
                    let ndv_r = self
                        .column_stats(rk, bindings)
                        .map_or(r.rows, |s| s.distinct_values as f64);
                    rows /= ndv_l.max(ndv_r).max(1.0);
                }
                if equi.is_empty() {
                    // Pure cross product: rows already l*r.
                }
                for pred in &residual {
                    rows *= self.selectivity(pred, bindings);
                }
                Ok(NodeEstimate {
                    rows: rows.max(0.0),
                    row_bytes: l.row_bytes + r.row_bytes,
                })
            }
            LogicalOp::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let base = self.estimate_with(input, bindings)?;
                let mut groups = 1.0f64;
                for g in group_by {
                    groups *= self.expr_ndv(g, bindings, base.rows);
                }
                let groups = groups.min(base.rows).max(1.0);
                let width = agg_output_width(group_by, aggregates, bindings);
                Ok(NodeEstimate {
                    rows: groups,
                    row_bytes: width,
                })
            }
            LogicalOp::Project { input, items } => {
                let base = self.estimate_with(input, bindings)?;
                if items.is_empty() || input_is_aggregate(input) {
                    // `*` keeps the width; aggregate output is already sized.
                    return Ok(base);
                }
                let width: f64 = items.iter().map(|i| expr_width(&i.expr, bindings)).sum();
                Ok(NodeEstimate {
                    rows: base.rows,
                    row_bytes: width.max(4.0),
                })
            }
            LogicalOp::Sort { input, .. } => self.estimate_with(input, bindings),
            LogicalOp::Limit { input, n } => {
                let base = self.estimate_with(input, bindings)?;
                Ok(NodeEstimate {
                    rows: base.rows.min(*n as f64),
                    row_bytes: base.row_bytes,
                })
            }
        }
    }

    /// Selectivity of a boolean predicate under uniform/independence
    /// assumptions.
    pub(crate) fn selectivity(&self, pred: &Expr, bindings: &HashMap<String, &'a TableDef>) -> f64 {
        match pred {
            Expr::Binary { op, left, right } if op.is_logical() => {
                let a = self.selectivity(left, bindings);
                let b = self.selectivity(right, bindings);
                // `is_logical` admits exactly And/Or, so the guard fully
                // determines the arm — no unreachable fallthrough needed.
                if matches!(op, BinOp::And) {
                    a * b
                } else {
                    a + b - a * b
                }
            }
            Expr::Not(inner) => 1.0 - self.selectivity(inner, bindings),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                self.comparison_selectivity(*op, left, right, bindings)
            }
            // Anything else (bare column, literal) — neutral.
            _ => 1.0,
        }
    }

    fn comparison_selectivity(
        &self,
        op: BinOp,
        left: &Expr,
        right: &Expr,
        bindings: &HashMap<String, &'a TableDef>,
    ) -> f64 {
        // Equality on a single column against a constant: use ndv.
        if op == BinOp::Eq {
            if let (Expr::Column { .. }, Expr::Number(n)) = (left, right) {
                if let Some(stats) = self.expr_column_stats(left, bindings) {
                    return stats.eq_selectivity(*n);
                }
            }
            if let (Expr::Number(n), Expr::Column { .. }) = (left, right) {
                if let Some(stats) = self.expr_column_stats(right, bindings) {
                    return stats.eq_selectivity(*n);
                }
            }
        }
        // General range handling: selectivity of (left - right) vs 0.
        let lr = self.expr_range(left, bindings);
        let rr = self.expr_range(right, bindings);
        let (Some((llo, lhi)), Some((rlo, rhi))) = (lr, rr) else {
            return default_comparison_selectivity(op);
        };
        let lo = llo - rhi;
        let hi = lhi - rlo;
        let frac_lt = if hi <= lo {
            if lo < 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            ((0.0 - lo) / (hi - lo)).clamp(0.0, 1.0)
        };
        match op {
            BinOp::Lt | BinOp::LtEq => frac_lt,
            BinOp::Gt | BinOp::GtEq => 1.0 - frac_lt,
            BinOp::Eq => default_comparison_selectivity(BinOp::Eq),
            BinOp::NotEq => 1.0 - default_comparison_selectivity(BinOp::Eq),
            _ => 1.0,
        }
    }

    /// Interval of possible values of a scalar expression, when derivable.
    fn expr_range(&self, e: &Expr, bindings: &HashMap<String, &'a TableDef>) -> Option<(f64, f64)> {
        match e {
            Expr::Number(n) => Some((*n, *n)),
            Expr::Column { .. } => {
                let s = self.expr_column_stats(e, bindings)?;
                Some((s.min? as f64, s.max? as f64))
            }
            Expr::Binary { op, left, right } => {
                let (llo, lhi) = self.expr_range(left, bindings)?;
                let (rlo, rhi) = self.expr_range(right, bindings)?;
                match op {
                    BinOp::Add => Some((llo + rlo, lhi + rhi)),
                    BinOp::Sub => Some((llo - rhi, lhi - rlo)),
                    BinOp::Mul => {
                        let cands = [llo * rlo, llo * rhi, lhi * rlo, lhi * rhi];
                        Some((
                            cands.iter().copied().fold(f64::INFINITY, f64::min),
                            cands.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        ))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Column stats for a bare column expression.
    fn expr_column_stats(
        &self,
        e: &Expr,
        bindings: &HashMap<String, &'a TableDef>,
    ) -> Option<&'a ColumnStats> {
        if let Expr::Column { qualifier, name } = e {
            self.lookup_column(qualifier.as_deref(), name, bindings)
        } else {
            None
        }
    }

    /// Stats for a `(binding, column)` reference.
    pub(crate) fn column_stats(
        &self,
        col: &ColRef,
        bindings: &HashMap<String, &'a TableDef>,
    ) -> Option<&'a ColumnStats> {
        self.lookup_column(Some(&col.0), &col.1, bindings)
    }

    fn lookup_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        bindings: &HashMap<String, &'a TableDef>,
    ) -> Option<&'a ColumnStats> {
        match qualifier {
            Some(q) => bindings.get(q).and_then(|t| t.stats.column(name)),
            None => bindings.values().find_map(|t| t.stats.column(name)),
        }
    }

    /// Distinct values of a grouping expression (falls back to √rows for
    /// opaque expressions, a common optimizer default).
    fn expr_ndv(&self, e: &Expr, bindings: &HashMap<String, &'a TableDef>, input_rows: f64) -> f64 {
        match self.expr_column_stats(e, bindings) {
            Some(s) => s.distinct_values as f64,
            None => input_rows.sqrt().max(1.0),
        }
    }
}

fn input_is_aggregate(op: &LogicalOp) -> bool {
    matches!(op, LogicalOp::Aggregate { .. })
}

fn default_comparison_selectivity(op: BinOp) -> f64 {
    match op {
        BinOp::Eq => 0.1,
        BinOp::NotEq => 0.9,
        _ => 1.0 / 3.0,
    }
}

/// Splits a join condition into equi-join column pairs and residual
/// predicates. A conjunct `l.c1 = r.c2` with two distinct qualifiers is an
/// equi-join key; everything else is residual.
pub(crate) fn split_join_condition(on: &Expr) -> (Vec<(ColRef, ColRef)>, Vec<Expr>) {
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    collect_conjuncts(on, &mut |conj| {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = conj
        {
            if let (
                Expr::Column {
                    qualifier: Some(lq),
                    name: ln,
                },
                Expr::Column {
                    qualifier: Some(rq),
                    name: rn,
                },
            ) = (left.as_ref(), right.as_ref())
            {
                if lq != rq {
                    equi.push(((lq.clone(), ln.clone()), (rq.clone(), rn.clone())));
                    return;
                }
            }
        }
        residual.push(conj.clone());
    });
    (equi, residual)
}

fn collect_conjuncts(e: &Expr, f: &mut impl FnMut(&Expr)) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        collect_conjuncts(left, f);
        collect_conjuncts(right, f);
    } else {
        f(e);
    }
}

/// Width of an expression's output in bytes.
fn expr_width(e: &Expr, bindings: &HashMap<String, &TableDef>) -> f64 {
    match e {
        Expr::Column { qualifier, name } => {
            let def = match qualifier {
                Some(q) => bindings.get(q.as_str()).and_then(|t| t.column(name)),
                None => bindings.values().find_map(|t| t.column(name)),
            };
            def.map_or(4.0, |c| c.ty.width() as f64)
        }
        Expr::Number(_) => 4.0,
        Expr::StringLit(s) => s.len() as f64,
        Expr::Agg { .. } => 8.0,
        Expr::Binary { left, right, .. } => {
            expr_width(left, bindings).max(expr_width(right, bindings))
        }
        Expr::Not(_) => 1.0,
    }
}

/// Output row width of an aggregation: group keys + 8 bytes per aggregate.
fn agg_output_width(
    group_by: &[Expr],
    aggregates: &[SelectItem],
    bindings: &HashMap<String, &TableDef>,
) -> f64 {
    let keys: f64 = group_by.iter().map(|g| expr_width(g, bindings)).sum();
    keys + 8.0 * aggregates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql_to_plan;
    use catalog::{ColumnDef, RemoteSystemProfile, SystemId, TableStats};

    /// Builds a catalog holding two Fig. 10-style tables on one Hive system.
    fn fig10_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_system(RemoteSystemProfile::paper_hive_cluster("hive-a"))
            .unwrap();
        for (name, rows, size) in [
            ("t_big", 1_000_000u64, 250u64),
            ("t_small", 100_000u64, 100u64),
        ] {
            let mut stats = TableStats::new(rows, size);
            for dup in [1u64, 2, 5, 10, 20, 50, 100] {
                stats =
                    stats.with_column(&format!("a{dup}"), ColumnStats::duplicated_range(rows, dup));
            }
            stats = stats.with_column("z", ColumnStats::constant(0));
            let mut schema: Vec<ColumnDef> = [1u64, 2, 5, 10, 20, 50, 100]
                .iter()
                .map(|d| ColumnDef::int(&format!("a{d}")))
                .collect();
            schema.push(ColumnDef::int("z"));
            schema.push(ColumnDef::chars("dummy", (size - 32) as u32));
            c.register_table(catalog::TableDef::new(
                name,
                schema,
                stats,
                SystemId::new("hive-a"),
            ))
            .unwrap();
        }
        c
    }

    fn estimate(sql: &str) -> NodeEstimate {
        let cat = fig10_catalog();
        let model = CardinalityModel::new(&cat);
        let plan = sql_to_plan(sql).unwrap();
        model.estimate(&plan.root).unwrap()
    }

    #[test]
    fn scan_uses_catalog_stats() {
        let e = estimate("SELECT * FROM t_big");
        assert_eq!(e.rows, 1_000_000.0);
        assert_eq!(e.row_bytes, 250.0);
    }

    #[test]
    fn projection_narrows_width() {
        let e = estimate("SELECT a1, a5 FROM t_big");
        assert_eq!(e.rows, 1_000_000.0);
        assert_eq!(e.row_bytes, 8.0);
    }

    #[test]
    fn unique_key_join_outputs_smaller_table() {
        // a1 unique in both; containment -> min(|R|,|S|) = 100 000.
        let e = estimate("SELECT * FROM t_big r JOIN t_small s ON r.a1 = s.a1");
        assert!((e.rows - 100_000.0).abs() < 1.0, "rows {}", e.rows);
        assert_eq!(e.row_bytes, 350.0);
    }

    #[test]
    fn fig10_selectivity_trick_controls_join_output() {
        // WHERE r.a1 + s.z < threshold: z is constant zero, a1 of t_big
        // ranges 1..=1_000_000, so threshold 500_000 halves the output.
        let full = estimate("SELECT * FROM t_big r JOIN t_small s ON r.a1 = s.a1");
        let half = estimate(
            "SELECT * FROM t_big r JOIN t_small s ON r.a1 = s.a1 \
             WHERE r.a1 + s.z < 500000",
        );
        let ratio = half.rows / full.rows;
        assert!((ratio - 0.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn aggregation_groups_follow_duplication_factor() {
        let e = estimate("SELECT a5, SUM(a1) AS s FROM t_big GROUP BY a5");
        // duplication 5 over 1M rows -> 200k groups.
        assert!((e.rows - 200_000.0).abs() < 1.0);
        // width = 4 (key) + 8 (one aggregate).
        assert_eq!(e.row_bytes, 12.0);
    }

    #[test]
    fn aggregation_output_capped_by_input_rows() {
        let e = estimate("SELECT a1, SUM(a2) AS s FROM t_small WHERE a1 < 10 GROUP BY a1");
        assert!(e.rows <= 10.0 + 1.0, "rows {}", e.rows);
    }

    #[test]
    fn filter_on_plain_column_uses_uniform_range() {
        // a1 of t_big is 1..=1e6; a1 < 250000 keeps ~25%.
        let e = estimate("SELECT * FROM t_big WHERE a1 < 250000");
        assert!((e.rows - 250_000.0).abs() < 1_000.0, "rows {}", e.rows);
    }

    #[test]
    fn equality_filter_uses_ndv() {
        let e = estimate("SELECT * FROM t_big WHERE a5 = 7");
        // ndv(a5) = 200k -> 1M / 200k = 5 rows.
        assert!((e.rows - 5.0).abs() < 0.01, "rows {}", e.rows);
    }

    #[test]
    fn and_multiplies_or_unions() {
        let both = estimate("SELECT * FROM t_big WHERE a1 < 500000 AND a2 < 250000");
        assert!(
            (both.rows - 250_000.0).abs() < 2_000.0,
            "rows {}",
            both.rows
        );
        // OR combines under independence: 0.5 + 0.5 - 0.25 = 0.75 (the
        // model does not know both disjuncts reference the same column).
        let either = estimate("SELECT * FROM t_big WHERE a1 < 500000 OR a1 >= 500000");
        assert!(
            (either.rows - 750_000.0).abs() < 2_000.0,
            "rows {}",
            either.rows
        );
    }

    #[test]
    fn split_join_condition_extracts_keys_and_residual() {
        let plan =
            sql_to_plan("SELECT * FROM t_big r JOIN t_small s ON r.a1 = s.a1 AND r.a2 < 100")
                .unwrap();
        // Find the join node.
        fn find_join(op: &LogicalOp) -> Option<&Expr> {
            match op {
                LogicalOp::Join { on, .. } => Some(on),
                LogicalOp::Filter { input, .. }
                | LogicalOp::Project { input, .. }
                | LogicalOp::Sort { input, .. }
                | LogicalOp::Limit { input, .. }
                | LogicalOp::Aggregate { input, .. } => find_join(input),
                LogicalOp::Scan { .. } => None,
            }
        }
        let on = find_join(&plan.root).unwrap();
        let (equi, residual) = split_join_condition(on);
        assert_eq!(equi.len(), 1);
        assert_eq!(equi[0].0, ("r".to_string(), "a1".to_string()));
        assert_eq!(residual.len(), 1);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let cat = fig10_catalog();
        let model = CardinalityModel::new(&cat);
        let plan = sql_to_plan("SELECT * FROM ghost").unwrap();
        assert!(matches!(
            model.estimate(&plan.root),
            Err(CardError::UnknownTable(_))
        ));
    }

    #[test]
    fn not_inverts_selectivity() {
        let e = estimate("SELECT * FROM t_big WHERE NOT a1 < 250000");
        assert!((e.rows - 750_000.0).abs() < 2_000.0, "rows {}", e.rows);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any threshold predicate keeps the estimate within
            /// [0, unfiltered rows].
            #[test]
            fn prop_filter_never_exceeds_input(threshold in 0i64..2_000_000) {
                let e = estimate(&format!(
                    "SELECT * FROM t_big WHERE a1 < {threshold}"
                ));
                prop_assert!(e.rows >= 0.0);
                prop_assert!(e.rows <= 1_000_000.0 + 1.0);
            }

            /// Join output never exceeds the cross product, and equals the
            /// containment bound for the unique key.
            #[test]
            fn prop_join_bounded_by_smaller_side(threshold in 1i64..100_000) {
                let e = estimate(&format!(
                    "SELECT * FROM t_big r JOIN t_small s ON r.a1 = s.a1                      WHERE s.a1 + r.z < {threshold}"
                ));
                prop_assert!(e.rows <= 100_000.0 + 1.0, "rows {}", e.rows);
                // Selectivity model: ~threshold rows survive.
                prop_assert!(
                    (e.rows - threshold as f64).abs() < threshold as f64 * 0.05 + 5.0,
                    "rows {} vs threshold {threshold}", e.rows
                );
            }

            /// Conjunction can only shrink an estimate.
            #[test]
            fn prop_and_is_monotone(a in 1i64..1_000_000, b in 1i64..1_000_000) {
                let single = estimate(&format!("SELECT * FROM t_big WHERE a1 < {a}"));
                let both = estimate(&format!(
                    "SELECT * FROM t_big WHERE a1 < {a} AND a2 < {b}"
                ));
                prop_assert!(both.rows <= single.rows + 1e-6);
            }

            /// Grouping never yields more groups than input rows, and the
            /// duplication columns yield exactly rows/i groups.
            #[test]
            fn prop_group_counts(dup in prop::sample::select(vec![1u64, 2, 5, 10, 20, 50, 100])) {
                let e = estimate(&format!(
                    "SELECT a{dup}, SUM(a1) AS s FROM t_small GROUP BY a{dup}"
                ));
                let expect = (100_000u64).div_ceil(dup) as f64;
                prop_assert!((e.rows - expect).abs() < 1.0, "groups {} vs {expect}", e.rows);
            }
        }
    }
}
