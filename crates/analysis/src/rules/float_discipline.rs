//! R4 — float comparison discipline.
//!
//! Cost estimates are `f64` end to end; two habits corrupt them
//! silently:
//!
//! * `==` / `!=` against a nonzero float literal — representation
//!   error makes the comparison flaky (comparisons against `0.0` are
//!   exempt: exact zero is a meaningful sentinel, e.g. "no cardinality
//!   recorded");
//! * `sort_by(|a, b| a.partial_cmp(b).unwrap())` — NaN poisons the
//!   sort or panics. The approved spelling is
//!   `mathkit::total_cmp_f64`.
//!
//! The `mathkit` crate (and any module listed in
//! [`crate::config::Config::float_exempt_modules`]) is the approved
//! home of raw float handling and is skipped — *except* inside
//! functions reachable from a hot-path entry point: reachability
//! overrides the exemption, because a NaN-unsafe comparator that the
//! estimate path actually calls corrupts estimates no matter which
//! crate it lives in. Those findings carry the call-path witness.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::Rule;
use crate::Context;

/// See the module docs.
pub(crate) struct FloatDiscipline;

/// How far ahead of `partial_cmp` we look for the `unwrap` that makes
/// it NaN-unsafe (covers `.partial_cmp(&b.0).unwrap()` and
/// `unwrap_or(Ordering::Equal)` spellings).
const UNWRAP_WINDOW: usize = 12;

impl Rule for FloatDiscipline {
    fn id(&self) -> &'static str {
        "float-discipline"
    }

    fn check_file(&self, ctx: &Context<'_>, file_idx: usize, out: &mut Vec<Finding>) {
        let file = &ctx.files[file_idx];
        let exempt_module = file.module_in(&ctx.config.float_exempt_modules);
        // Exempt modules are only scanned where the hot closure reaches
        // into them; elsewhere every token is in scope.
        let coverage = |i: usize| -> Option<Vec<String>> {
            if !exempt_module {
                return Some(Vec::new());
            }
            let node = ctx.reachable_node(&ctx.hot, file_idx, i)?;
            Some(ctx.witness(&ctx.hot, node))
        };
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let t = &tokens[i];
            if file.in_test_code(t.line) {
                continue;
            }
            if t.is_ident("partial_cmp") {
                let window_end = (i + UNWRAP_WINDOW).min(tokens.len());
                let unwrapped = tokens[i..window_end]
                    .iter()
                    .any(|x| x.is_ident("unwrap") || x.is_ident("unwrap_or"));
                if unwrapped {
                    if let Some(witness) = coverage(i) {
                        out.push(
                            Finding::error(
                                self.id(),
                                &file.path,
                                t.line,
                                "NaN-unsafe `partial_cmp(..).unwrap()` comparator — use \
                                 `mathkit::total_cmp_f64`"
                                    .to_string(),
                            )
                            .with_witness(witness),
                        );
                    }
                }
                continue;
            }
            // `==` / `!=` with a float literal on either side.
            let eq = t.is_punct('=') && tokens.get(i + 1).is_some_and(|n| n.is_punct('='));
            let ne = t.is_punct('!') && tokens.get(i + 1).is_some_and(|n| n.is_punct('='));
            if !(eq || ne) {
                continue;
            }
            let lhs = i.checked_sub(1).and_then(|j| tokens.get(j));
            let rhs = tokens.get(i + 2);
            let nonzero_float = |tok: Option<&crate::lexer::Token>| {
                tok.is_some_and(|x| {
                    x.kind == TokenKind::Float
                        && x.text
                            .trim_end_matches("f64")
                            .trim_end_matches("f32")
                            .trim_end_matches('_')
                            .parse::<f64>()
                            .map(|v| v != 0.0)
                            .unwrap_or(false)
                })
            };
            if nonzero_float(lhs) || nonzero_float(rhs) {
                if let Some(witness) = coverage(i) {
                    out.push(
                        Finding::error(
                            self.id(),
                            &file.path,
                            t.line,
                            format!(
                                "`{}` against a nonzero float literal is representation-fragile — \
                                 compare with a tolerance",
                                if eq { "==" } else { "!=" }
                            ),
                        )
                        .with_witness(witness),
                    );
                }
            }
        }
    }
}
