//! R7 — static allocation-freedom on steady-state paths.
//!
//! The hot-path perf tests (`it_hotpath_alloc`) prove *dynamically*,
//! with a counting allocator, that a warm pinned estimate performs
//! exactly zero heap allocations. This rule is the static mirror: in
//! every function reachable from a `zero_alloc` entry point over the
//! workspace call graph it denies, outside `#[cfg(test)]` code:
//!
//! * allocating constructors — `Box::new`, `Vec::new` /
//!   `with_capacity`, `String::new` / `from` / `with_capacity`, map
//!   constructors,
//! * allocating conversions — `.to_vec()`, `.to_owned()`,
//!   `.to_string()`, `.collect()`, `.into_owned()`, `.into_bytes()`,
//! * allocating macros — `format!`, `vec!`,
//! * `.clone()` on receivers whose declared type is in
//!   [`crate::config::Config::heap_clone_types`] (unknown receiver
//!   types are skipped — a documented imprecision; the counting
//!   allocator catches what the types hide).
//!
//! Amortized warm-buffer operations (`push`, `extend`, `reserve`,
//! `resize`, `clear`) stay legal: the dynamic test measures them at
//! zero once warm, and banning them would outlaw the scratch-buffer
//! pattern the zero-alloc path is built on.
//!
//! Two structural escapes keep the rule precise:
//!
//! * **cold boundaries** ([`crate::config::Config::cold_boundary_functions`],
//!   e.g. `Tracer::emit`) stop the reachability closure — tracing is
//!   off in steady state;
//! * **lazy cold arguments** ([`crate::rules::LAZY_COLD_METHODS`]):
//!   allocations inside `emit(|| …)` / `ok_or_else(|| …)` /
//!   `map_err(|…| …)` argument lists only run on the trace/error
//!   branch and are skipped.
//!
//! Remaining intentional cold-branch allocations (e.g. the cache-fill
//! after a miss) carry `// analysis:allow(alloc-freedom): reason`.
//! Every finding includes the entry-point→…→violation call-path
//! witness.

use crate::graph::local_types;
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::{lazy_cold_spans, Rule};
use crate::Context;

/// See the module docs.
pub(crate) struct AllocFreedom;

/// Allocating zero-or-more-arg method calls (`.to_vec()`).
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "into_owned",
    "into_bytes",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
];

/// `Type::ctor` pairs that allocate.
const ALLOC_TYPES: &[&str] = &[
    "Box", "Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

impl Rule for AllocFreedom {
    fn id(&self) -> &'static str {
        "alloc-freedom"
    }

    fn check_file(&self, ctx: &Context<'_>, file_idx: usize, out: &mut Vec<Finding>) {
        let file = &ctx.files[file_idx];
        // Cheap pre-filter: any zero-alloc-reachable node in this file?
        let owners = &ctx.graph.token_owner[file_idx];
        if !owners
            .iter()
            .any(|o| o.is_some_and(|n| ctx.zero_alloc.flag[n]))
        {
            return;
        }
        let cold = lazy_cold_spans(file);
        let tokens = &file.tokens;
        let mut flag = |i: usize, node: usize, what: String| {
            let witness = ctx.witness(&ctx.zero_alloc, node);
            out.push(
                Finding::error(
                    self.id(),
                    &file.path,
                    tokens[i].line,
                    format!(
                        "{what} allocates on the zero-alloc estimate path — reuse scratch \
                         buffers or move it behind a cold boundary"
                    ),
                )
                .with_witness(witness),
            );
        };
        for i in 0..tokens.len() {
            let Some(node) = owners.get(i).copied().flatten() else {
                continue;
            };
            if !ctx.zero_alloc.flag[node] {
                continue;
            }
            if cold.iter().any(|r| r.contains(&i)) {
                continue;
            }
            let t = &tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next_is = |c: char| tokens.get(i + 1).is_some_and(|n| n.is_punct(c));
            let prev_is_dot = i > 0 && tokens[i - 1].is_punct('.');
            let prev_is_path = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
            if ALLOC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                flag(i, node, format!("`{}!`", t.text));
            } else if prev_is_dot && next_is('(') && ALLOC_METHODS.contains(&t.text.as_str()) {
                flag(i, node, format!("`.{}()`", t.text));
            } else if prev_is_path
                && next_is('(')
                && ALLOC_CTORS.contains(&t.text.as_str())
                && i >= 3
                && ALLOC_TYPES.contains(&tokens[i - 3].text.as_str())
            {
                flag(i, node, format!("`{}::{}`", tokens[i - 3].text, t.text));
            } else if prev_is_dot
                && t.text == "clone"
                && next_is('(')
                && tokens.get(i + 2).is_some_and(|x| x.is_punct(')'))
            {
                // `.clone()` — only when the receiver's declared type is
                // a known heap type.
                let Some(recv) = tokens.get(i.wrapping_sub(2)) else {
                    continue;
                };
                if recv.kind != TokenKind::Ident {
                    continue;
                }
                let function = &file.functions[ctx.graph.nodes[node].func];
                let locals = local_types(file, &function.body, function);
                if let Some(ty) = locals.get(&recv.text) {
                    if ctx.config.heap_clone_types.iter().any(|h| h == ty) {
                        flag(i, node, format!("`{}.clone()` (type `{ty}`)", recv.text));
                    }
                }
            }
        }
    }
}
