//! R8 — blocking-freedom on snapshot-read paths.
//!
//! The epoch refactor made estimate reads lock-free: pin a snapshot,
//! serve from it. Anything that can *block* — a mutex, a channel
//! receive, a sleep, file IO, a thread join — reintroduces the tail
//! latencies the refactor removed, and does it invisibly when buried
//! three calls deep. In every function reachable from a `nonblocking`
//! entry point over the workspace call graph this rule denies, outside
//! `#[cfg(test)]` code:
//!
//! * blocking lock acquisitions — `.lock()` / `.read()` / `.write()`
//!   (dot or `Mutex::lock(&x)` qualified form) on any receiver *not*
//!   in [`crate::config::Config::blocking_exempt_receivers`] (the
//!   ranked cache-LRU mutex class is the one sanctioned wait;
//!   `try_*` variants never block and stay legal),
//! * channel/thread waits — `.recv()`, `.recv_timeout(…)`,
//!   `.join()`, `.wait(…)`, `.park()`,
//! * `thread::spawn` / `thread::sleep` / free `sleep`,
//! * file IO — `File::open` / `create`, `.read_to_string()`,
//!   `.read_to_end()`, `.write_all()`, `.sync_all()`, `read_dir`.
//!
//! The same cold-boundary and lazy-cold-argument escapes as
//! `alloc-freedom` apply, plus `// analysis:allow(blocking-freedom)`.
//! Every finding carries the entry-point→…→violation call-path
//! witness.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::{lazy_cold_spans, matching_paren, Rule};
use crate::Context;

/// See the module docs.
pub(crate) struct BlockingFreedom;

/// Zero-argument lock acquisitions that block.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Blocking waits (any arity).
const WAIT_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "park",
];

/// Blocking IO method calls.
const IO_METHODS: &[&str] = &["read_to_string", "read_to_end", "write_all", "sync_all"];

impl Rule for BlockingFreedom {
    fn id(&self) -> &'static str {
        "blocking-freedom"
    }

    fn check_file(&self, ctx: &Context<'_>, file_idx: usize, out: &mut Vec<Finding>) {
        let file = &ctx.files[file_idx];
        let owners = &ctx.graph.token_owner[file_idx];
        if !owners
            .iter()
            .any(|o| o.is_some_and(|n| ctx.nonblocking.flag[n]))
        {
            return;
        }
        let cold = lazy_cold_spans(file);
        let tokens = &file.tokens;
        let mut flag = |i: usize, node: usize, what: String| {
            let witness = ctx.witness(&ctx.nonblocking, node);
            out.push(
                Finding::error(
                    self.id(),
                    &file.path,
                    tokens[i].line,
                    format!(
                        "{what} can block on the snapshot-read path — serve from the pinned \
                         snapshot or move the wait off the read path"
                    ),
                )
                .with_witness(witness),
            );
        };
        for i in 0..tokens.len() {
            let Some(node) = owners.get(i).copied().flatten() else {
                continue;
            };
            if !ctx.nonblocking.flag[node] {
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
            let name = t.text.as_str();
            if prev_is_dot
                && next_is('(')
                && LOCK_METHODS.contains(&name)
                && tokens.get(i + 2).is_some_and(|x| x.is_punct(')'))
            {
                // `recv.lock()` — the receiver is the ident before the
                // dot; `.read()`/`.write()` with args are IO, not locks.
                let Some(recv) = tokens.get(i.wrapping_sub(2)) else {
                    continue;
                };
                if recv.kind != TokenKind::Ident {
                    continue;
                }
                if ctx
                    .config
                    .blocking_exempt_receivers
                    .iter()
                    .any(|r| r == &recv.text)
                {
                    continue;
                }
                // `store.load()`-style snapshot reads never reach here
                // (`load` is not a lock method); `guard.read()` on a
                // non-lock receiver is conservative noise an allow can
                // excuse.
                flag(i, node, format!("`{}.{}()`", recv.text, name));
            } else if prev_is_path
                && next_is('(')
                && LOCK_METHODS.contains(&name)
                && i >= 3
                && (tokens[i - 3].is_ident("Mutex") || tokens[i - 3].is_ident("RwLock"))
            {
                // `Mutex::lock(&x)` qualified form.
                let recv = matching_paren(tokens, i + 1).and_then(|close| {
                    tokens[i + 2..close]
                        .iter()
                        .rev()
                        .find(|x| x.kind == TokenKind::Ident)
                        .map(|x| x.text.clone())
                });
                if let Some(recv) = &recv {
                    if ctx
                        .config
                        .blocking_exempt_receivers
                        .iter()
                        .any(|r| r == recv)
                    {
                        continue;
                    }
                }
                flag(i, node, format!("`{}::{}(…)`", tokens[i - 3].text, name));
            } else if prev_is_dot
                && next_is('(')
                && (WAIT_METHODS.contains(&name) || IO_METHODS.contains(&name))
            {
                flag(i, node, format!("`.{name}(…)`"));
            } else if prev_is_path
                && next_is('(')
                && (name == "spawn" || name == "sleep")
                && i >= 3
                && tokens[i - 3].is_ident("thread")
            {
                flag(i, node, format!("`thread::{name}`"));
            } else if prev_is_path
                && next_is('(')
                && (name == "open" || name == "create")
                && i >= 3
                && tokens[i - 3].is_ident("File")
            {
                flag(i, node, format!("`File::{name}`"));
            } else if !prev_is_dot && !prev_is_path && next_is('(') && name == "read_dir" {
                flag(i, node, "`read_dir`".to_string());
            }
        }
    }
}
