//! Query analysis: from a logical plan to operator-level size profiles.
//!
//! Both sides of the paper's contract need the same arithmetic:
//!
//! * the *remote engine* needs input/output sizes to run its internal
//!   optimizer and cost a physical plan (ground truth), and
//! * the *costing module* needs the very same quantities as the "input
//!   parameters for the operator's model" (§3) — the seven join dimensions
//!   of Fig. 2 and the four aggregation dimensions — which §4 says are
//!   "calculated and/or estimated by another module in the IntelliSphere
//!   system".
//!
//! This module is that shared arithmetic, built on [`crate::cardinality`].

use crate::ast::{Expr, SelectItem};
use crate::cardinality::{split_join_condition, CardError, CardinalityModel, ColRef, NodeEstimate};
use crate::logical::{LogicalOp, LogicalPlan};
use catalog::remote::{AggInfo, JoinContext, JoinInfo, SideInfo};
use catalog::{Catalog, TableDef};
use std::collections::{HashMap, HashSet};

/// What kind of core operator a query is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// Scan / filter / project only.
    Scan,
    /// Contains a join (possibly nested).
    Join,
}

/// The analysed shape of one query.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Estimate of the final (root) output.
    pub root: NodeEstimate,
    /// Core operator class.
    pub core: CoreKind,
    /// Estimate of the core operator output including any filter above it.
    pub core_out: NodeEstimate,
    /// Join profile for the topmost join, when present.
    pub join: Option<(JoinInfo, JoinContext)>,
    /// Aggregation profile, when the query aggregates.
    pub agg: Option<AggInfo>,
    /// Estimate of the scan input (for scan-only queries).
    pub scan_in: Option<NodeEstimate>,
    /// True when the topmost join's left input is itself a join.
    pub nested_join: bool,
    /// When the query has an `ORDER BY`: the estimate of the sort's input
    /// (rows × row bytes sorted).
    pub sort_in: Option<NodeEstimate>,
    /// The `LIMIT`, when present.
    pub limit: Option<u64>,
}

/// Analyses a plan against a catalog.
pub fn analyze(catalog: &Catalog, plan: &LogicalPlan) -> Result<QueryAnalysis, CardError> {
    let model = CardinalityModel::new(catalog);
    let root_est = model.estimate(&plan.root)?;

    // Peel Limit → Sort → Project → Aggregate → Filter → core.
    let (limit, below_limit) = match &plan.root {
        LogicalOp::Limit { input, n } => (Some(*n), input.as_ref()),
        other => (None, other),
    };
    let (sort_in, below_sort) = match below_limit {
        LogicalOp::Sort { input, .. } => (Some(model.estimate(input)?), input.as_ref()),
        other => (None, other),
    };
    let (proj_items, below_project): (&[SelectItem], &LogicalOp) = match below_sort {
        LogicalOp::Project { input, items } => (items, input.as_ref()),
        other => (&[], other),
    };
    let (agg_node, below_agg) = match below_project {
        LogicalOp::Aggregate {
            input,
            group_by,
            aggregates,
        } => (Some((group_by, aggregates)), input.as_ref()),
        other => (None, other),
    };
    let (has_filter, core_op) = match below_agg {
        LogicalOp::Filter { input, .. } => (true, input.as_ref()),
        other => (false, other),
    };

    let core_out = if has_filter {
        model.estimate(below_agg)?
    } else {
        model.estimate(core_op)?
    };

    let mut analysis = QueryAnalysis {
        root: root_est,
        core: CoreKind::Scan,
        core_out,
        join: None,
        agg: None,
        scan_in: None,
        nested_join: false,
        sort_in,
        limit,
    };

    match core_op {
        LogicalOp::Join { left, right, on } => {
            analysis.core = CoreKind::Join;
            analysis.nested_join = left.join_count() > 0;
            analysis.join = Some(join_inputs(
                &model, left, right, on, core_out, proj_items, root_est,
            )?);
        }
        LogicalOp::Scan { .. } => {
            analysis.scan_in = Some(model.estimate(core_op)?);
        }
        // Exotic shapes (filter-over-filter etc.) are treated as scans of
        // their input estimate.
        other => {
            analysis.scan_in = Some(model.estimate(other)?);
        }
    }

    if let Some((_, aggregates)) = agg_node {
        let agg_est = model.estimate(below_project)?;
        analysis.agg = Some(AggInfo {
            in_rows: core_out.rows,
            in_bytes: core_out.row_bytes,
            groups: agg_est.rows,
            out_bytes: agg_est.row_bytes,
            n_aggs: aggregates.len().max(1) as u32,
        });
    }
    Ok(analysis)
}

/// Derives the `JoinInfo`/`JoinContext` pair for a join node.
pub(crate) fn join_inputs(
    model: &CardinalityModel<'_>,
    left: &LogicalOp,
    right: &LogicalOp,
    on: &Expr,
    out: NodeEstimate,
    proj_items: &[SelectItem],
    root_est: NodeEstimate,
) -> Result<(JoinInfo, JoinContext), CardError> {
    let l_est = model.estimate(left)?;
    let r_est = model.estimate(right)?;
    let join_op = LogicalOp::Join {
        left: Box::new(left.clone()),
        right: Box::new(right.clone()),
        on: on.clone(),
    };
    let bindings = model.bindings(&join_op)?;

    let (equi, _) = split_join_condition(on);
    let has_equi_keys = !equi.is_empty();

    let l_bind: HashSet<String> = left.tables().into_iter().map(|(_, b)| b).collect();
    let r_bind: HashSet<String> = right.tables().into_iter().map(|(_, b)| b).collect();

    let l_proj = side_proj_bytes(&bindings, proj_items, &equi, &l_bind, l_est.row_bytes);
    let r_proj = side_proj_bytes(&bindings, proj_items, &equi, &r_bind, r_est.row_bytes);

    let mut heavy = 1.0f64;
    for (lk, rk) in &equi {
        if let Some(s) = model.column_stats(lk, &bindings) {
            heavy = heavy.max(s.heavy_rows(l_est.rows.max(1.0) as u64));
        }
        if let Some(s) = model.column_stats(rk, &bindings) {
            heavy = heavy.max(s.heavy_rows(r_est.rows.max(1.0) as u64));
        }
    }

    let l_side = SideInfo {
        rows: l_est.rows,
        row_bytes: l_est.row_bytes,
        proj_bytes: l_proj,
    };
    let r_side = SideInfo {
        rows: r_est.rows,
        row_bytes: r_est.row_bytes,
        proj_bytes: r_proj,
    };
    let (big, small, big_bind, small_bind) = if l_side.total_bytes() >= r_side.total_bytes() {
        (l_side, r_side, &l_bind, &r_bind)
    } else {
        (r_side, l_side, &r_bind, &l_bind)
    };

    let info = JoinInfo {
        big,
        small,
        out_rows: out.rows,
        out_bytes: root_est.row_bytes,
        heavy_key_rows: heavy,
    };
    let ctx = JoinContext {
        has_equi_keys,
        big_bucketed: side_bucketed(&bindings, &equi, big_bind),
        small_bucketed: side_bucketed(&bindings, &equi, small_bind),
    };
    Ok((info, ctx))
}

/// Projected width for one join side: referenced projection columns plus
/// the join key. Falls back to the full row for `SELECT *`.
fn side_proj_bytes(
    bindings: &HashMap<String, &TableDef>,
    proj_items: &[SelectItem],
    equi: &[(ColRef, ColRef)],
    side_bindings: &HashSet<String>,
    full_row_bytes: f64,
) -> f64 {
    if proj_items.is_empty() {
        return full_row_bytes;
    }
    let mut cols: HashSet<(String, String)> = HashSet::new();
    for item in proj_items {
        let mut refs = vec![];
        item.expr.columns(&mut refs);
        for (q, n) in refs {
            if let Some(q) = q {
                if side_bindings.contains(&q) {
                    cols.insert((q, n));
                }
            } else {
                for b in side_bindings {
                    if bindings.get(b).is_some_and(|t| t.column(&n).is_some()) {
                        cols.insert((b.clone(), n.clone()));
                        break;
                    }
                }
            }
        }
    }
    for (lk, rk) in equi {
        for key in [lk, rk] {
            if side_bindings.contains(&key.0) {
                cols.insert(key.clone());
            }
        }
    }
    let width: f64 = cols
        .iter()
        .map(|(b, n)| {
            bindings
                .get(b)
                .and_then(|t| t.column(n))
                .map_or(4.0, |c| c.ty.width() as f64)
        })
        .sum();
    width.max(4.0).min(full_row_bytes)
}

/// Whether a join side is a single base table bucketed on its join key.
fn side_bucketed(
    bindings: &HashMap<String, &TableDef>,
    equi: &[(ColRef, ColRef)],
    side_bindings: &HashSet<String>,
) -> bool {
    if side_bindings.len() != 1 {
        return false;
    }
    let Some(b) = side_bindings.iter().next() else {
        return false;
    };
    let Some(table) = bindings.get(b) else {
        return false;
    };
    let Some(part) = &table.partitioned_by else {
        return false;
    };
    equi.iter()
        .any(|(lk, rk)| (lk.0 == *b && lk.1 == *part) || (rk.0 == *b && rk.1 == *part))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql_to_plan;
    use catalog::{ColumnDef, ColumnStats, RemoteSystemProfile, SystemId, TableStats};

    fn test_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_system(RemoteSystemProfile::paper_hive_cluster("hive"))
            .unwrap();
        for (name, rows, size) in [("t_big", 1_000_000u64, 250u64), ("t_small", 100_000, 100)] {
            let mut stats = TableStats::new(rows, size);
            let mut schema = vec![];
            for dup in [1u64, 5] {
                let col = format!("a{dup}");
                stats = stats.with_column(&col, ColumnStats::duplicated_range(rows, dup));
                schema.push(ColumnDef::int(&col));
            }
            stats = stats.with_column("z", ColumnStats::constant(0));
            schema.push(ColumnDef::int("z"));
            schema.push(ColumnDef::chars("dummy", (size - 12) as u32));
            c.register_table(TableDef::new(name, schema, stats, SystemId::new("hive")))
                .unwrap();
        }
        c
    }

    #[test]
    fn scan_query_analysis() {
        let cat = test_catalog();
        let plan = sql_to_plan("SELECT a1 FROM t_small WHERE a1 < 50000").unwrap();
        let a = analyze(&cat, &plan).unwrap();
        assert_eq!(a.core, CoreKind::Scan);
        assert!(a.join.is_none());
        assert!(a.agg.is_none());
        assert_eq!(a.scan_in.unwrap().rows, 100_000.0);
        assert!((a.core_out.rows - 50_000.0).abs() < 500.0);
    }

    #[test]
    fn join_analysis_exposes_fig2_dimensions() {
        let cat = test_catalog();
        let plan =
            sql_to_plan("SELECT r.a1, s.a5 FROM t_big r JOIN t_small s ON r.a1 = s.a1").unwrap();
        let a = analyze(&cat, &plan).unwrap();
        assert_eq!(a.core, CoreKind::Join);
        let (info, ctx) = a.join.unwrap();
        assert_eq!(info.big.rows, 1_000_000.0);
        assert_eq!(info.big.row_bytes, 250.0);
        assert_eq!(info.small.rows, 100_000.0);
        // Projected width of big side: a1 (4 bytes, also the key).
        assert_eq!(info.big.proj_bytes, 4.0);
        // Small side projects a5 + join key a1 = 8 bytes.
        assert_eq!(info.small.proj_bytes, 8.0);
        assert!((info.out_rows - 100_000.0).abs() < 1.0);
        assert!(ctx.has_equi_keys);
        assert!(!ctx.small_bucketed);
    }

    #[test]
    fn aggregation_analysis_exposes_four_dimensions() {
        let cat = test_catalog();
        let plan = sql_to_plan("SELECT a5, SUM(a1) AS s FROM t_big GROUP BY a5").unwrap();
        let a = analyze(&cat, &plan).unwrap();
        let agg = a.agg.unwrap();
        assert_eq!(agg.in_rows, 1_000_000.0);
        assert_eq!(agg.in_bytes, 250.0);
        assert!((agg.groups - 200_000.0).abs() < 1.0);
        assert_eq!(agg.n_aggs, 1);
        assert_eq!(agg.out_bytes, 12.0);
    }

    #[test]
    fn order_by_and_limit_are_analysed() {
        let cat = test_catalog();
        let plan = sql_to_plan("SELECT a1 FROM t_small WHERE a1 < 50000 ORDER BY a1 DESC LIMIT 10")
            .unwrap();
        let a = analyze(&cat, &plan).unwrap();
        let sort_in = a.sort_in.expect("sort analysed");
        assert!(
            (sort_in.rows - 50_000.0).abs() < 500.0,
            "sort over {}",
            sort_in.rows
        );
        assert_eq!(a.limit, Some(10));
        assert!(
            (a.root.rows - 10.0).abs() < 1e-9,
            "limit caps root: {}",
            a.root.rows
        );
        // Plain queries have neither.
        let plain = sql_to_plan("SELECT a1 FROM t_small").unwrap();
        let pa = analyze(&cat, &plain).unwrap();
        assert!(pa.sort_in.is_none());
        assert_eq!(pa.limit, None);
    }

    #[test]
    fn filter_feeds_join_output_not_inputs() {
        let cat = test_catalog();
        let plan = sql_to_plan(
            "SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1 \
             WHERE s.a1 + r.z < 50000",
        )
        .unwrap();
        let a = analyze(&cat, &plan).unwrap();
        let (info, _) = a.join.unwrap();
        // Inputs are unfiltered …
        assert_eq!(info.big.rows, 1_000_000.0);
        // … but the output reflects the threshold predicate (~50 % of 100k).
        assert!(
            (info.out_rows - 50_000.0).abs() < 500.0,
            "out {}",
            info.out_rows
        );
    }
}
