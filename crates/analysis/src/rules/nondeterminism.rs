//! R5 — nondeterminism containment.
//!
//! Cost estimation must be replayable: the same query against the same
//! model state must produce the same estimate and the same decision
//! trail. Ambient time and entropy break that. Outside the modules
//! listed in [`crate::config::Config::entropy_exempt_modules`] (the bench harness and
//! the trace clock) this rule denies:
//!
//! * `SystemTime::now()` / `Instant::now()`,
//! * `thread_rng()` / `from_entropy()` (unseeded RNG construction —
//!   the `rand` shim's seeded `StdRng::seed_from_u64` stays legal).

use crate::report::Finding;
use crate::rules::Rule;
use crate::Context;

/// See the module docs.
pub(crate) struct Nondeterminism;

impl Rule for Nondeterminism {
    fn id(&self) -> &'static str {
        "nondeterminism"
    }

    fn check_file(&self, ctx: &Context<'_>, file_idx: usize, out: &mut Vec<Finding>) {
        let file = &ctx.files[file_idx];
        if file.module_in(&ctx.config.entropy_exempt_modules) {
            return;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let t = &tokens[i];
            if file.in_test_code(t.line) {
                continue;
            }
            let colons = |j: usize| {
                tokens.get(j).is_some_and(|x| x.is_punct(':'))
                    && tokens.get(j + 1).is_some_and(|x| x.is_punct(':'))
            };
            if (t.is_ident("SystemTime") || t.is_ident("Instant"))
                && colons(i + 1)
                && tokens.get(i + 3).is_some_and(|x| x.is_ident("now"))
            {
                out.push(Finding::error(
                    self.id(),
                    &file.path,
                    t.line,
                    format!(
                        "`{}::now()` makes estimation non-replayable — inject a clock or \
                         take the timestamp at the telemetry boundary",
                        t.text
                    ),
                ));
            } else if (t.is_ident("thread_rng") || t.is_ident("from_entropy"))
                && tokens.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                out.push(Finding::error(
                    self.id(),
                    &file.path,
                    t.line,
                    format!(
                        "`{}()` draws ambient entropy — use a seeded `StdRng` so runs replay",
                        t.text
                    ),
                ));
            }
        }
    }
}
