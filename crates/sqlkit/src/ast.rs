//! Typed AST for the SPJA subset, with a pretty-printer that emits valid
//! SQL (used when the master engine ships an operator to a remote system).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregate functions supported in select lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// `SUM(expr)`
    Sum,
    /// `COUNT(expr)` / `COUNT(*)`
    Count,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        })
    }
}

/// Binary operators in scalar expressions and predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// True for comparison operators (producing a boolean).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// True for the boolean connectives.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        })
    }
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference with an optional table qualifier: `r.a1` or `a1`.
    Column {
        /// Table/alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Numeric literal.
    Number(f64),
    /// String literal.
    StringLit(String),
    /// `left op right`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// Aggregate call; `expr` is `None` for `COUNT(*)`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Argument (`None` means `*`).
        expr: Option<Box<Expr>>,
        /// Whether `DISTINCT` was written.
        distinct: bool,
    },
}

impl Expr {
    /// Convenience: an unqualified column reference.
    #[cfg(test)]
    pub(crate) fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Convenience: a qualified column reference.
    #[cfg(test)]
    pub(crate) fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
        }
    }

    /// Convenience: a binary expression.
    pub(crate) fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// True when the expression contains an aggregate call.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) => e.contains_aggregate(),
            _ => false,
        }
    }

    /// Collects every column referenced, as `(qualifier, name)` pairs.
    pub fn columns(&self, out: &mut Vec<(Option<String>, String)>) {
        match self {
            Expr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
            Expr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            Expr::Not(e) => e.columns(out),
            Expr::Agg { expr: Some(e), .. } => e.columns(out),
            _ => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column {
                qualifier: Some(q),
                name,
            } => write!(f, "{q}.{name}"),
            Expr::Column {
                qualifier: None,
                name,
            } => write!(f, "{name}"),
            Expr::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Expr::StringLit(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Agg {
                func,
                expr,
                distinct,
            } => {
                let d = if *distinct { "DISTINCT " } else { "" };
                match expr {
                    Some(e) => write!(f, "{func}({d}{e})"),
                    None => write!(f, "{func}(*)"),
                }
            }
        }
    }
}

/// One item in a `SELECT` list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRef {
    /// Table name as registered in the catalog.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in expressions.
    pub(crate) fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} {a}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// An `[INNER] JOIN table ON condition` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Join {
    /// The joined table.
    pub table: TableRef,
    /// The `ON` condition.
    pub on: Expr,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderKey {
    /// The sort expression.
    pub expr: Expr,
    /// True for ascending (the default), false for `DESC`.
    pub ascending: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.expr,
            if self.ascending { "" } else { " DESC" }
        )
    }
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// `SELECT` list; `None` items list means `SELECT *`.
    pub select: Vec<SelectItem>,
    /// True when the select list was `*`.
    pub select_star: bool,
    /// The leading `FROM` table.
    pub from: TableRef,
    /// Zero or more join clauses, in order.
    pub joins: Vec<Join>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions (possibly empty).
    pub group_by: Vec<Expr>,
    /// `ORDER BY` keys (possibly empty).
    pub order_by: Vec<OrderKey>,
    /// Optional `LIMIT`.
    pub limit: Option<u64>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.select_star {
            write!(f, "*")?;
        } else {
            for (i, item) in self.select.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            write!(f, " JOIN {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}")?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_parenthesises_binaries() {
        let e = Expr::binary(
            BinOp::Lt,
            Expr::binary(BinOp::Add, Expr::qcol("r", "a1"), Expr::qcol("s", "z")),
            Expr::Number(500.0),
        );
        assert_eq!(e.to_string(), "((r.a1 + s.z) < 500)");
    }

    #[test]
    fn integer_numbers_print_without_decimal_point() {
        assert_eq!(Expr::Number(42.0).to_string(), "42");
        assert_eq!(Expr::Number(2.5).to_string(), "2.5");
    }

    #[test]
    fn string_literals_escape_quotes() {
        assert_eq!(Expr::StringLit("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn count_star_display() {
        let e = Expr::Agg {
            func: AggFunc::Count,
            expr: None,
            distinct: false,
        };
        assert_eq!(e.to_string(), "COUNT(*)");
    }

    #[test]
    fn contains_aggregate_recurses() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("x"),
            Expr::Agg {
                func: AggFunc::Sum,
                expr: Some(Box::new(Expr::col("y"))),
                distinct: false,
            },
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn columns_collects_qualified_and_bare() {
        let e = Expr::binary(BinOp::Eq, Expr::qcol("r", "a1"), Expr::col("z"));
        let mut cols = vec![];
        e.columns(&mut cols);
        assert_eq!(
            cols,
            vec![(Some("r".into()), "a1".into()), (None, "z".into())]
        );
    }

    #[test]
    fn table_binding_prefers_alias() {
        let t = TableRef {
            name: "t_big".into(),
            alias: Some("r".into()),
        };
        assert_eq!(t.binding(), "r");
        let t2 = TableRef {
            name: "t_big".into(),
            alias: None,
        };
        assert_eq!(t2.binding(), "t_big");
    }

    #[test]
    fn query_display_full_shape() {
        let q = Query {
            select: vec![
                SelectItem {
                    expr: Expr::qcol("r", "a1"),
                    alias: None,
                },
                SelectItem {
                    expr: Expr::Agg {
                        func: AggFunc::Sum,
                        expr: Some(Box::new(Expr::qcol("r", "a2"))),
                        distinct: false,
                    },
                    alias: Some("s".into()),
                },
            ],
            select_star: false,
            from: TableRef {
                name: "t1".into(),
                alias: Some("r".into()),
            },
            joins: vec![Join {
                table: TableRef {
                    name: "t2".into(),
                    alias: Some("s".into()),
                },
                on: Expr::binary(BinOp::Eq, Expr::qcol("r", "a1"), Expr::qcol("s", "a1")),
            }],
            where_clause: Some(Expr::binary(
                BinOp::Lt,
                Expr::qcol("r", "a1"),
                Expr::Number(100.0),
            )),
            group_by: vec![Expr::qcol("r", "a1")],
            order_by: vec![],
            limit: None,
        };
        assert_eq!(
            q.to_string(),
            "SELECT r.a1, SUM(r.a2) AS s FROM t1 r JOIN t2 s ON (r.a1 = s.a1) WHERE (r.a1 < 100) GROUP BY r.a1"
        );
    }
}
