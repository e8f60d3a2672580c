//! The one gate: the live workspace must pass its own lint pass under
//! `Report::is_clean()` — the predicate the CLI's exit code uses — and
//! the allow budget must stay small. A failure prints the CLI's text
//! report.

use analysis::config::Config;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn live_workspace_is_clean_under_shipped_config() {
    let config = Config::workspace_default();
    let report =
        analysis::check_workspace(&workspace_root(), &config).expect("scanning the workspace");
    assert!(
        report.is_clean(),
        "the workspace violates its own lint pass:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

#[test]
fn allow_budget_stays_small() {
    // The escape hatch is for proven invariants, not convenience; a
    // growing allow count means the hot path is re-accreting panics.
    // The interprocedural closures pulled the dense Gaussian solver
    // (`mathkit::matrix`, loop-bounded flat indexing) and the cache
    // miss-path key materialisation into coverage, which accounts for
    // most of the current inventory — each annotation states the
    // invariant that makes it safe, and an allow that suppresses
    // nothing is a finding, which keeps the set exercised.
    let config = Config::workspace_default();
    let report =
        analysis::check_workspace(&workspace_root(), &config).expect("scanning the workspace");
    assert!(
        report.allows.len() < 20,
        "allow budget exceeded ({} >= 20):\n{:?}",
        report.allows.len(),
        report.allows
    );
}

#[test]
fn every_function_the_policy_names_exists_on_the_live_tree() {
    // `Config` matches functions by *name*, so a renamed entry point or
    // boundary would silently shrink (or widen) what the rules cover.
    // `check_sources` reports both; this names the culprit directly.
    let config = Config::workspace_default();
    let files = analysis::load_workspace(&workspace_root()).expect("scanning the workspace");
    let graph = analysis::graph::CallGraph::build(&files);
    let (.., unresolved) = analysis::graph::resolve_entries(&graph, &config);
    assert!(
        unresolved.is_empty(),
        "entry points matching no function: {unresolved:?}"
    );
    for name in config
        .cold_boundary_functions
        .iter()
        .chain(&config.zero_alloc_boundary_functions)
    {
        assert!(
            graph.nodes.iter().any(|n| &n.name == name),
            "boundary function `{name}` matches no function in the workspace"
        );
    }
}
