//! The rule engine: one trait, five domain rules (R1, R4, R5, R7, R8 —
//! ids are not renumbered when a rule leaves; DESIGN.md §10 keeps the
//! ledger of what each rule has caught and why R2/R3/R6 are gone).
//!
//! | id                 | enforces                                                  |
//! |--------------------|-----------------------------------------------------------|
//! | `panic-freedom`    | no `unwrap`/`expect`/panic macros/arithmetic indexing in the estimation hot path |
//! | `float-discipline` | no `==`/`!=` against float literals, no NaN-unsafe sorts  |
//! | `nondeterminism`   | no ambient time/entropy outside approved modules          |
//! | `alloc-freedom`    | nothing reachable from a zero-alloc entry point allocates |
//! | `blocking-freedom` | nothing reachable from a snapshot-read entry point blocks |
//!
//! The hot-path rules (`panic-freedom`, `float-discipline`,
//! `alloc-freedom`, `blocking-freedom`) are *interprocedural*: their
//! scope is the union of the configured module lists and the call-graph
//! closure from the declared entry points, so a helper in an unlisted
//! module is covered the moment the hot path calls it.
//! Reachability-seeded findings carry a call-path witness.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;
use crate::Context;

mod alloc_freedom;
mod blocking_freedom;
mod float_discipline;
mod nondeterminism;
mod panic_freedom;

pub(crate) use alloc_freedom::AllocFreedom;
pub(crate) use blocking_freedom::BlockingFreedom;
pub(crate) use float_discipline::FloatDiscipline;
pub(crate) use nondeterminism::Nondeterminism;
pub(crate) use panic_freedom::PanicFreedom;

/// One analysis rule. Rules are stateless: each sees every scanned
/// file once, with the full [`Context`] — sources, config, call graph,
/// reachability.
pub trait Rule {
    /// Stable rule id used in diagnostics and `analysis:allow`.
    fn id(&self) -> &'static str;

    /// Scans `ctx.files[file_idx]`, appending findings.
    fn check_file(&self, ctx: &Context<'_>, file_idx: usize, out: &mut Vec<Finding>);
}

/// Every shipped rule.
pub(crate) fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFreedom),
        Box::new(FloatDiscipline),
        Box::new(Nondeterminism),
        Box::new(AllocFreedom),
        Box::new(BlockingFreedom),
    ]
}

/// Methods whose closure/argument expressions only run on cold
/// branches: the error/miss/trace arms of the steady-state path. The
/// alloc- and blocking-freedom rules skip tokens inside their argument
/// lists — `tracer.emit(|| Event{…to_string()…})` allocates only when
/// tracing is on, `ok_or_else(|| Error{…clone()…})` only on failure.
pub(crate) const LAZY_COLD_METHODS: &[&str] = &[
    "emit",
    "ok_or_else",
    "map_err",
    "unwrap_or_else",
    "get_or_insert_with",
];

/// Token ranges (exclusive of the parens) covered by
/// [`LAZY_COLD_METHODS`] argument lists in `file`.
pub(crate) fn lazy_cold_spans(file: &SourceFile) -> Vec<std::ops::Range<usize>> {
    let tokens = &file.tokens;
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !LAZY_COLD_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if let Some(close) = matching_paren(tokens, i + 1) {
            spans.push(i + 2..close);
        }
    }
    spans
}

/// The index of the `)` matching the `(` at `open`.
pub(crate) fn matching_paren(tokens: &[crate::lexer::Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}
