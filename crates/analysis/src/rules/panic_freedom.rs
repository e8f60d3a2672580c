//! R1 — panic-freedom on the estimation hot path.
//!
//! A panic inside the costing path silently degrades the optimizer to
//! guessing, which is worse than a biased estimate. In the configured
//! hot-path modules — and in *any* function reachable from a declared
//! hot-path entry point over the call graph — this rule denies, outside
//! `#[cfg(test)]` code:
//!
//! * `.unwrap()` / `.expect(…)` method calls,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros,
//! * slice indexing whose index expression contains arithmetic
//!   (`xs[i - 1]`) — plain `xs[i]` loop indexing stays legal, computed
//!   offsets must go through `.get()`.
//!
//! Reachability-seeded findings (module not listed, function reached
//! from an entry point) carry the call-path witness. Two escapes exist:
//! a function whose doc comment declares a `# Panics` section (a
//! documented API contract), and the inline
//! `// analysis:allow(panic-freedom): reason` annotation.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::Rule;
use crate::Context;

/// See the module docs.
pub(crate) struct PanicFreedom;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl Rule for PanicFreedom {
    fn id(&self) -> &'static str {
        "panic-freedom"
    }

    fn check_file(&self, ctx: &Context<'_>, file_idx: usize, out: &mut Vec<Finding>) {
        let file = &ctx.files[file_idx];
        let config = ctx.config;
        let listed = file.module_in(&config.hot_path_modules);
        // Bodies of functions with a documented `# Panics` contract.
        let documented: Vec<std::ops::Range<usize>> = file
            .functions
            .iter()
            .filter(|f| f.documents_panics())
            .map(|f| f.body.clone())
            .collect();
        let excused = |i: usize, line: usize| -> bool {
            file.in_test_code(line) || documented.iter().any(|r| r.contains(&i))
        };
        // Where the rule applies at token `i`: the module list, or the
        // enclosing function being hot-reachable. Returns the witness
        // for the latter (the module case needs none).
        let coverage = |i: usize| -> Option<Vec<String>> {
            if listed {
                return Some(Vec::new());
            }
            let node = ctx.reachable_node(&ctx.hot, file_idx, i)?;
            Some(ctx.witness(&ctx.hot, node))
        };
        let scope = |witness: &[String]| -> String {
            if witness.is_empty() {
                format!("hot-path module `{}`", file.module)
            } else {
                "a hot-path-reachable function".to_string()
            }
        };

        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let t = &tokens[i];
            if t.kind != TokenKind::Ident {
                // Arithmetic slice indexing: `expr[… + …]`.
                if t.is_punct('[') && i > 0 && is_indexable(&tokens[i - 1]) && !excused(i, t.line) {
                    if let Some(close) = matching_bracket(tokens, i) {
                        let has_arithmetic = tokens[i + 1..close].iter().any(|x| {
                            matches!(
                                x.kind,
                                TokenKind::Punct('+')
                                    | TokenKind::Punct('-')
                                    | TokenKind::Punct('*')
                                    | TokenKind::Punct('/')
                                    | TokenKind::Punct('%')
                            )
                        });
                        if has_arithmetic {
                            if let Some(witness) = coverage(i) {
                                out.push(
                                    Finding::error(
                                        self.id(),
                                        &file.path,
                                        t.line,
                                        format!(
                                            "computed slice index in {} can panic — use .get()",
                                            scope(&witness)
                                        ),
                                    )
                                    .with_witness(witness),
                                );
                            }
                        }
                    }
                }
                continue;
            }
            if excused(i, t.line) {
                continue;
            }
            let next_is = |c: char| tokens.get(i + 1).is_some_and(|n| n.is_punct(c));
            let prev_is_dot = i > 0 && tokens[i - 1].is_punct('.');
            if prev_is_dot && next_is('(') && (t.text == "unwrap" || t.text == "expect") {
                if let Some(witness) = coverage(i) {
                    out.push(
                        Finding::error(
                            self.id(),
                            &file.path,
                            t.line,
                            format!(
                                "`.{}()` in {} — propagate a typed error instead",
                                t.text,
                                scope(&witness)
                            ),
                        )
                        .with_witness(witness),
                    );
                }
            } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                if let Some(witness) = coverage(i) {
                    out.push(
                        Finding::error(
                            self.id(),
                            &file.path,
                            t.line,
                            format!(
                                "`{}!` in {} — return an error or document `# Panics`",
                                t.text,
                                scope(&witness)
                            ),
                        )
                        .with_witness(witness),
                    );
                }
            }
        }
    }
}

/// Can the token directly before `[` be an indexed expression? Rules
/// out array literals (`= [1, 2]`), attribute openers (`#[…]`), and
/// macro brackets (`vec![…]`).
fn is_indexable(prev: &crate::lexer::Token) -> bool {
    const KEYWORDS: &[&str] = &[
        "in", "return", "if", "else", "match", "break", "let", "mut", "const", "static",
    ];
    match prev.kind {
        TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
        _ => prev.is_punct(')') || prev.is_punct(']'),
    }
}

fn matching_bracket(tokens: &[crate::lexer::Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}
