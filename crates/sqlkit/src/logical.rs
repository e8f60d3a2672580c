//! Logical operator trees.
//!
//! IntelliSphere's unit of placement and costing is the *logical SQL
//! operator* (§1: "Teradata is responsible for building a SQL query plan
//! and deciding where each SQL operator, e.g., join or aggregation, will
//! execute"). This module lowers a parsed [`Query`] into a left-deep tree
//! of such operators.

use crate::ast::{Expr, OrderKey, Query, SelectItem};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced while lowering an AST to a logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An aggregate appeared without a `GROUP BY` alongside plain columns,
    /// or in a position we do not support.
    MixedAggregation,
    /// `SELECT *` combined with `GROUP BY` is not meaningful here.
    StarWithGroupBy,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::MixedAggregation => {
                write!(f, "aggregate expressions mixed with non-grouped columns")
            }
            PlanError::StarWithGroupBy => write!(f, "SELECT * cannot be combined with GROUP BY"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A logical operator node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogicalOp {
    /// Base-table access. `binding` is the alias expressions refer to.
    Scan {
        /// Catalog table name.
        table: String,
        /// Alias used in expressions (equals `table` when no alias given).
        binding: String,
    },
    /// Row filter.
    Filter {
        /// Input operator.
        input: Box<LogicalOp>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Inner join.
    Join {
        /// Left input (the accumulated left-deep tree).
        left: Box<LogicalOp>,
        /// Right input (always a scan in this subset).
        right: Box<LogicalOp>,
        /// Join condition.
        on: Expr,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input operator.
        input: Box<LogicalOp>,
        /// Grouping expressions.
        group_by: Vec<Expr>,
        /// Aggregate output expressions (each contains an [`Expr::Agg`]).
        aggregates: Vec<SelectItem>,
    },
    /// Column projection.
    Project {
        /// Input operator.
        input: Box<LogicalOp>,
        /// Projected items (empty means `*`).
        items: Vec<SelectItem>,
    },
    /// Row ordering.
    Sort {
        /// Input operator.
        input: Box<LogicalOp>,
        /// Sort keys, outermost first.
        keys: Vec<OrderKey>,
    },
    /// Row-count cap.
    Limit {
        /// Input operator.
        input: Box<LogicalOp>,
        /// Maximum rows emitted.
        n: u64,
    },
}

impl LogicalOp {
    /// All base tables referenced below (and including) this node, as
    /// `(table, binding)` pairs in scan order.
    pub fn tables(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<(String, String)>) {
        match self {
            LogicalOp::Scan { table, binding } => out.push((table.clone(), binding.clone())),
            LogicalOp::Filter { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Sort { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Aggregate { input, .. } => input.collect_tables(out),
            LogicalOp::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// Number of join nodes in this subtree.
    pub fn join_count(&self) -> usize {
        match self {
            LogicalOp::Scan { .. } => 0,
            LogicalOp::Filter { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Sort { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Aggregate { input, .. } => input.join_count(),
            LogicalOp::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// True when the subtree contains an aggregation node.
    pub fn has_aggregate(&self) -> bool {
        match self {
            LogicalOp::Aggregate { .. } => true,
            LogicalOp::Scan { .. } => false,
            LogicalOp::Filter { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Sort { input, .. }
            | LogicalOp::Limit { input, .. } => input.has_aggregate(),
            LogicalOp::Join { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
        }
    }

    /// A compact single-line rendering, useful in logs and test assertions.
    pub fn describe(&self) -> String {
        match self {
            LogicalOp::Scan { table, binding } if table == binding => format!("Scan({table})"),
            LogicalOp::Scan { table, binding } => format!("Scan({table} as {binding})"),
            LogicalOp::Filter { input, predicate } => {
                format!("Filter[{predicate}]({})", input.describe())
            }
            LogicalOp::Join { left, right, on } => {
                format!("Join[{on}]({}, {})", left.describe(), right.describe())
            }
            LogicalOp::Aggregate {
                input,
                group_by,
                aggregates,
            } => format!(
                "Agg[keys={}, aggs={}]({})",
                group_by.len(),
                aggregates.len(),
                input.describe()
            ),
            LogicalOp::Project { input, items } => {
                format!("Project[{}]({})", items.len(), input.describe())
            }
            LogicalOp::Sort { input, keys } => {
                format!("Sort[{}]({})", keys.len(), input.describe())
            }
            LogicalOp::Limit { input, n } => format!("Limit[{n}]({})", input.describe()),
        }
    }
}

/// A complete logical plan (the root operator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicalPlan {
    /// The root operator.
    pub root: LogicalOp,
}

/// Lowers an AST query into a left-deep logical plan:
/// scans → joins → filter → aggregate (or project).
pub fn build_logical_plan(q: &Query) -> Result<LogicalPlan, PlanError> {
    let mut node = LogicalOp::Scan {
        table: q.from.name.clone(),
        binding: q.from.binding().to_string(),
    };
    for j in &q.joins {
        let right = LogicalOp::Scan {
            table: j.table.name.clone(),
            binding: j.table.binding().to_string(),
        };
        node = LogicalOp::Join {
            left: Box::new(node),
            right: Box::new(right),
            on: j.on.clone(),
        };
    }
    if let Some(pred) = &q.where_clause {
        node = LogicalOp::Filter {
            input: Box::new(node),
            predicate: pred.clone(),
        };
    }

    let has_agg = q.select.iter().any(|s| s.expr.contains_aggregate());
    if has_agg || !q.group_by.is_empty() {
        if q.select_star {
            return Err(PlanError::StarWithGroupBy);
        }
        let mut aggregates = Vec::new();
        for item in &q.select {
            if item.expr.contains_aggregate() {
                aggregates.push(item.clone());
            } else {
                // Non-aggregate select items must appear in GROUP BY.
                if !q.group_by.contains(&item.expr) {
                    return Err(PlanError::MixedAggregation);
                }
            }
        }
        node = LogicalOp::Aggregate {
            input: Box::new(node),
            group_by: q.group_by.clone(),
            aggregates,
        };
        // Re-project to the declared select order.
        node = LogicalOp::Project {
            input: Box::new(node),
            items: q.select.clone(),
        };
    } else {
        let items = if q.select_star {
            vec![]
        } else {
            q.select.clone()
        };
        node = LogicalOp::Project {
            input: Box::new(node),
            items,
        };
    }
    if !q.order_by.is_empty() {
        node = LogicalOp::Sort {
            input: Box::new(node),
            keys: q.order_by.clone(),
        };
    }
    if let Some(n) = q.limit {
        node = LogicalOp::Limit {
            input: Box::new(node),
            n,
        };
    }
    Ok(LogicalPlan { root: node })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn plan(sql: &str) -> LogicalPlan {
        build_logical_plan(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_scan_project() {
        let p = plan("SELECT a1 FROM t");
        assert_eq!(p.root.describe(), "Project[1](Scan(t))");
        assert_eq!(p.root.tables(), vec![("t".into(), "t".into())]);
    }

    #[test]
    fn select_star_yields_empty_projection() {
        let p = plan("SELECT * FROM t");
        match &p.root {
            LogicalOp::Project { items, .. } => assert!(items.is_empty()),
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn join_builds_left_deep_tree() {
        let p = plan("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y");
        assert_eq!(p.root.join_count(), 2);
        let tables: Vec<String> = p.root.tables().into_iter().map(|(t, _)| t).collect();
        assert_eq!(tables, vec!["a", "b", "c"]);
    }

    #[test]
    fn where_becomes_filter_above_join() {
        let p = plan("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.x < 10");
        let desc = p.root.describe();
        assert!(desc.starts_with("Project"), "{desc}");
        assert!(desc.contains("Filter"), "{desc}");
        assert!(desc.contains("Join"), "{desc}");
    }

    #[test]
    fn aggregation_groups_and_projects() {
        let p = plan("SELECT a5, SUM(a1) AS s FROM t GROUP BY a5");
        assert!(p.root.has_aggregate());
        match &p.root {
            LogicalOp::Project { input, .. } => match input.as_ref() {
                LogicalOp::Aggregate {
                    group_by,
                    aggregates,
                    ..
                } => {
                    assert_eq!(group_by.len(), 1);
                    assert_eq!(aggregates.len(), 1);
                }
                other => panic!("expected aggregate, got {other:?}"),
            },
            other => panic!("expected project root, got {other:?}"),
        }
    }

    #[test]
    fn ungrouped_select_column_with_aggregate_is_rejected() {
        let q = parse_query("SELECT a1, SUM(a2) FROM t").unwrap();
        assert_eq!(build_logical_plan(&q), Err(PlanError::MixedAggregation));
    }

    #[test]
    fn star_with_group_by_is_rejected() {
        let q = parse_query("SELECT * FROM t GROUP BY a1").unwrap();
        assert_eq!(build_logical_plan(&q), Err(PlanError::StarWithGroupBy));
    }

    #[test]
    fn aliases_become_bindings() {
        let p = plan("SELECT r.a1 FROM t1 r JOIN t2 s ON r.a1 = s.a1");
        assert_eq!(
            p.root.tables(),
            vec![("t1".into(), "r".into()), ("t2".into(), "s".into())]
        );
    }

    #[test]
    fn order_by_and_limit_stack_above_project() {
        let p = plan("SELECT a1 FROM t ORDER BY a1 DESC LIMIT 5");
        assert_eq!(p.root.describe(), "Limit[5](Sort[1](Project[1](Scan(t))))");
    }

    #[test]
    fn sql_to_plan_entry_point() {
        let p = crate::sql_to_plan("SELECT a5, SUM(a1) AS s FROM t GROUP BY a5").unwrap();
        assert!(p.root.has_aggregate());
    }
}
