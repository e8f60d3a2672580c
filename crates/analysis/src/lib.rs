//! Workspace-specific static analysis for the cost-estimation hot path.
//!
//! This crate is a lint pass over the workspace's own source that
//! depends on nothing at all: a lightweight Rust lexer ([`lexer`]), a
//! per-file structural model ([`source`]), a workspace-wide call graph
//! with hot-path reachability ([`graph`]), and five rules ([`rules`])
//! that enforce the invariants the estimation pipeline relies on but
//! `rustc`/`clippy` cannot see, and that no other check in the
//! workspace enforces:
//!
//! * panic-freedom on the hot path (`panic-freedom`),
//! * NaN-safe float handling (`float-discipline`),
//! * replayable estimation — no ambient time/entropy
//!   (`nondeterminism`),
//! * static zero-allocation on steady-state paths (`alloc-freedom`),
//! * no blocking on snapshot-read paths (`blocking-freedom`).
//!
//! Lock *ordering* is not here: the `parking_lot` shim's
//! `lock-order-check` feature validates every acquisition on every
//! thread at runtime, and one enforcer per invariant is the rule
//! (DESIGN.md §10 keeps the per-rule ledger).
//!
//! The scope of the hot-path rules is *interprocedural*: the module
//! lists in [`config::Config`] are seeds, and anything reachable from
//! the declared entry points over the call graph is covered too, with
//! findings carrying an entry-point→…→violation call-path witness.
//!
//! Run it with `cargo run -p analysis -- check`; the exit code and the
//! tier-1 `workspace_clean` test gate on the same predicate,
//! [`report::Report::is_clean`]. Violations can be suppressed inline
//! with `// analysis:allow(rule-id): reason` — the reason is mandatory;
//! a bare allow is itself a finding, and so is an allow that no longer
//! suppresses anything (`unused-allow`) or a policy name in
//! [`config::Config`] that matches no function.

#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use config::Config;
use graph::{CallGraph, Reach};
use report::{AllowUse, Report};
use source::SourceFile;

/// Everything a rule can see: the parsed sources, the policy, the
/// workspace call graph, and the reachability closures seeded from the
/// configured entry points. Built once per run by `Context::build`.
pub struct Context<'a> {
    /// The active policy.
    pub config: &'a Config,
    /// Every scanned file, in path order.
    pub files: &'a [SourceFile],
    /// The interprocedural call graph over `files`.
    pub graph: CallGraph,
    /// Union closure from every entry point — seeds panic-freedom,
    /// float-discipline and friends beyond the module lists.
    pub hot: Reach,
    /// Closure from `zero_alloc` entries (the `alloc-freedom` scope).
    pub zero_alloc: Reach,
    /// Closure from `nonblocking` entries (the `blocking-freedom`
    /// scope).
    pub nonblocking: Reach,
    /// Entry points declared in the config that matched no function —
    /// `check_sources` reports these so the seed list cannot rot.
    pub unresolved_entries: Vec<String>,
}

impl<'a> Context<'a> {
    /// Builds the graph and the three closures for one run.
    pub(crate) fn build(files: &'a [SourceFile], config: &'a Config) -> Context<'a> {
        let graph = CallGraph::build(files);
        let (hot_seeds, za_seeds, nb_seeds, unresolved) = graph::resolve_entries(&graph, config);
        let cold = |node: &graph::Node| {
            config
                .cold_boundary_functions
                .iter()
                .any(|f| f == &node.name)
        };
        let za_cold = |node: &graph::Node| {
            cold(node)
                || config
                    .zero_alloc_boundary_functions
                    .iter()
                    .any(|f| f == &node.name)
        };
        let hot = Reach::compute(&graph, &hot_seeds, &|_| false);
        let zero_alloc = Reach::compute(&graph, &za_seeds, &za_cold);
        let nonblocking = Reach::compute(&graph, &nb_seeds, &cold);
        Context {
            config,
            files,
            graph,
            hot,
            zero_alloc,
            nonblocking,
            unresolved_entries: unresolved,
        }
    }

    /// The innermost function node owning `token` of `files[file]`.
    pub(crate) fn node_at(&self, file: usize, token: usize) -> Option<usize> {
        *self.graph.token_owner.get(file)?.get(token)?
    }

    /// Is the token inside a function reachable in `reach`? Returns the
    /// node when so.
    pub(crate) fn reachable_node(&self, reach: &Reach, file: usize, token: usize) -> Option<usize> {
        let node = self.node_at(file, token)?;
        reach.flag[node].then_some(node)
    }

    /// The call-path witness for a node under `reach`.
    pub(crate) fn witness(&self, reach: &Reach, node: usize) -> Vec<String> {
        reach.witness(&self.graph, node)
    }
}

/// Runs every rule over pre-parsed sources, applies the
/// `analysis:allow` filter, and audits the policy itself (stale allows,
/// policy names matching no function). This is the engine the CLI, the
/// fixture tests, and the live-workspace test all share.
pub(crate) fn check_sources(files: &[SourceFile], config: &Config) -> Report {
    let ctx = Context::build(files, config);
    let rules = rules::all_rules();
    let mut findings = Vec::new();
    for file_idx in 0..files.len() {
        for rule in &rules {
            rule.check_file(&ctx, file_idx, &mut findings);
        }
    }

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    // An allow is "used" when it suppressed at least one finding.
    let mut used: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.allows.len()]).collect();
    for finding in findings {
        let allow = files
            .iter()
            .enumerate()
            .find(|(_, f)| f.path == finding.file)
            .and_then(|(fi, f)| {
                f.allows
                    .iter()
                    .enumerate()
                    .find(|(_, a)| {
                        a.rule == finding.rule
                            && !a.reason.is_empty()
                            && (a.line == finding.line || a.line + 1 == finding.line)
                    })
                    .map(|(ai, a)| (fi, ai, a))
            });
        match allow {
            Some((fi, ai, a)) => {
                used[fi][ai] = true;
                report.allows.push(AllowUse {
                    rule: a.rule.clone(),
                    file: finding.file.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
            None => report.findings.push(finding),
        }
    }
    for (fi, file) in files.iter().enumerate() {
        for (ai, a) in file.allows.iter().enumerate() {
            if a.reason.is_empty() {
                // A reasonless allow never suppresses anything and is
                // itself a violation: the annotation exists to carry
                // the justification.
                report.findings.push(report::Finding::error(
                    "allow-missing-reason",
                    &file.path,
                    a.line,
                    format!(
                        "`analysis:allow({})` without a reason — write \
                         `analysis:allow({}): why it is safe`",
                        a.rule, a.rule
                    ),
                ));
            } else if !used[fi][ai] {
                // The escape-hatch inventory must not rot.
                report.findings.push(report::Finding::warning(
                    "unused-allow",
                    &file.path,
                    a.line,
                    format!(
                        "`analysis:allow({})` suppresses nothing — the finding it \
                         excused is gone; delete the annotation",
                        a.rule
                    ),
                ));
            }
        }
    }
    // `Config` matches functions by *name*: a renamed entry point or
    // boundary would silently shrink (or widen) what the rules cover.
    for entry in &ctx.unresolved_entries {
        report.findings.push(report::Finding::warning(
            "unresolved-entry-point",
            POLICY_FILE,
            1,
            format!("declared hot-path entry point `{entry}` matches no function"),
        ));
    }
    for name in config
        .cold_boundary_functions
        .iter()
        .chain(&config.zero_alloc_boundary_functions)
    {
        if !ctx.graph.nodes.iter().any(|n| &n.name == name) {
            report.findings.push(report::Finding::warning(
                "unresolved-boundary",
                POLICY_FILE,
                1,
                format!("declared closure boundary `{name}` matches no function"),
            ));
        }
    }
    report.sort();
    // Deduplicate allow uses: one annotation may suppress findings on
    // its own line and the next.
    report
        .allows
        .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    report
}

/// Where findings about the policy itself point.
const POLICY_FILE: &str = "crates/analysis/src/config.rs";

/// Parses a set of `(path, source)` pairs and runs the rules. Test
/// convenience over `check_sources`.
pub fn check_str(sources: &[(&str, &str)], config: &Config) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    check_sources(&files, config)
}

/// Scans `crates/*/src/**/*.rs` under `root` and runs the shipped
/// rules. Paths in the report are workspace-relative with `/`
/// separators. I/O errors surface as `Err`; unreadable trees should
/// fail the build, not pass silently.
pub fn check_workspace(root: &std::path::Path, config: &Config) -> std::io::Result<Report> {
    Ok(check_sources(&load_workspace(root)?, config))
}

/// Parses every `crates/*/src/**/*.rs` file under `root`, sorted by
/// workspace-relative path.
pub fn load_workspace(root: &std::path::Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(files)
}

fn collect_rs_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::EntryPoint;

    /// The shipped module lists and exemptions without the entry points
    /// and boundaries, which name functions of the live tree.
    fn module_policy() -> Config {
        Config {
            entry_points: Vec::new(),
            cold_boundary_functions: Vec::new(),
            zero_alloc_boundary_functions: Vec::new(),
            ..Config::workspace_default()
        }
    }

    #[test]
    fn policy_names_matching_no_function_are_findings() {
        let src =
            "pub fn estimate_pinned(x: f64) -> f64 { emit(x) }\nfn emit(x: f64) -> f64 { x }\n";
        let sources = [("crates/costing/src/service/mod.rs", src)];
        let resolved = Config {
            entry_points: vec![EntryPoint::new(
                "costing::service",
                "estimate_pinned",
                true,
                true,
            )],
            cold_boundary_functions: vec!["emit".into()],
            ..module_policy()
        };
        let report = check_str(&sources, &resolved);
        assert!(report.is_clean(), "{}", report.render_text());

        // Rename either and the rules would silently cover less (or
        // more); the report says so instead.
        let rotten = Config {
            entry_points: vec![EntryPoint::new("costing::service", "estimate", true, true)],
            cold_boundary_functions: vec!["emit_event".into()],
            zero_alloc_boundary_functions: vec!["remedy".into()],
            ..module_policy()
        };
        let report = check_str(&sources, &rotten);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            [
                "unresolved-boundary",
                "unresolved-boundary",
                "unresolved-entry-point"
            ],
            "{}",
            report.render_text()
        );
        assert!(report.findings[2]
            .message
            .contains("`costing::service::estimate`"));
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_reported() {
        let config = module_policy();
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // analysis:allow(panic-freedom): fixture exercises the escape hatch
    x.unwrap()
}
";
        let report = check_str(&[("crates/costing/src/service/mod.rs", src)], &config);
        assert!(report.is_clean(), "unexpected: {}", report.render_text());
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].rule, "panic-freedom");
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let config = module_policy();
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // analysis:allow(panic-freedom)
    x.unwrap()
}
";
        let report = check_str(&[("crates/costing/src/service/mod.rs", src)], &config);
        // Both the unsuppressed unwrap and the bare allow fire.
        assert_eq!(report.findings.len(), 2, "{}", report.render_text());
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "allow-missing-reason"));
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let config = module_policy();
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // analysis:allow(float-discipline): wrong rule on purpose
    x.unwrap()
}
";
        let report = check_str(&[("crates/costing/src/service/mod.rs", src)], &config);
        // The unwrap fires, and the mismatched allow is itself flagged
        // as unused (warning severity).
        assert_eq!(report.findings.len(), 2, "{}", report.render_text());
        assert!(report.findings.iter().any(|f| f.rule == "panic-freedom"));
        assert!(report.findings.iter().any(|f| f.rule == "unused-allow"));
    }

    #[test]
    fn unused_allow_is_a_warning() {
        let config = module_policy();
        let src = "\
fn f(x: Option<u32>) -> Option<u32> {
    // analysis:allow(panic-freedom): nothing here panics any more
    x
}
";
        let report = check_str(&[("crates/costing/src/service/mod.rs", src)], &config);
        assert_eq!(report.findings.len(), 1, "{}", report.render_text());
        let f = &report.findings[0];
        assert_eq!(f.rule, "unused-allow");
        assert_eq!(f.severity, report::Severity::Warning);
    }

    #[test]
    fn findings_are_sorted_by_file_then_line() {
        let config = Config::workspace_default();
        let bad = "fn f(x: Option<u32>) { x.unwrap(); panic!(\"no\"); }\n";
        let report = check_str(
            &[
                ("crates/federation/src/ir.rs", bad),
                ("crates/costing/src/service/mod.rs", bad),
            ],
            &config,
        );
        let files: Vec<&str> = report.findings.iter().map(|f| f.file.as_str()).collect();
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
        assert_eq!(report.files_scanned, 2);
    }
}
