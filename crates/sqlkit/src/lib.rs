#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! SQL front-end for the select-project-join-aggregate (SPJA) subset that
//! IntelliSphere ships to remote systems.
//!
//! The paper assumes every remote system exposes a SQL-like interface that
//! "can receive a SQL operation such as a join, aggregation, filter, and
//! projection" (§2). This crate supplies the concrete language layer:
//!
//! * a hand-written lexer and recursive-descent parser for that subset,
//! * a typed AST with a pretty-printer that round-trips (so the master
//!   engine can re-emit an operator as remote SQL text),
//! * a translation to a small logical-operator tree
//!   ([`logical::LogicalPlan`]) which the costing and federation crates
//!   consume,
//! * the master's size arithmetic over that tree against catalog
//!   statistics ([`cardinality`], [`mod@analyze`]) — the "another module in
//!   the IntelliSphere system" of the paper's §4 that supplies operator
//!   sizes to the costing module,
//! * and the interface a remote system exposes ([`RemoteSystem`]): the
//!   costing module submits SQL, plans or probes through it and observes
//!   elapsed times, never the engine behind it.
//!
//! The grammar deliberately covers exactly what the evaluation needs
//! (Fig. 10's training queries, the sub-op probe queries of Fig. 5, and the
//! federated examples) — `SELECT` lists with aggregates and aliases, a
//! single `FROM` table plus `JOIN … ON` chains, `WHERE` with arithmetic and
//! comparison predicates, and `GROUP BY`.

pub mod analyze;
pub mod ast;
pub mod cardinality;
pub mod lexer;
pub mod logical;
pub mod parser;
pub mod remote;
pub mod token;

pub use ast::{AggFunc, BinOp, Expr, Join, Query, SelectItem, TableRef};
pub use logical::{build_logical_plan, LogicalOp, LogicalPlan, PlanError};
pub use parser::{parse_query, ParseError};
pub use remote::{EngineError, RemoteSystem};

/// Parses SQL text straight to a logical plan — the common entry point.
pub fn sql_to_plan(sql: &str) -> Result<LogicalPlan, Box<dyn std::error::Error>> {
    let q = parse_query(sql)?;
    Ok(build_logical_plan(&q)?)
}
