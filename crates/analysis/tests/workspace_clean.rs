//! The live workspace must pass its own lint pass, the allow budget
//! must stay small, every function name in the policy must still exist,
//! and the static rank table must match the runtime checker's.

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
    // invariant that makes it safe, and `--strict-allows` keeps the
    // set exercised.
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
    // `Config` matches functions by *name*. A renamed entry point is
    // only a CLI warning and a renamed boundary is ignored outright, so
    // either would silently shrink (or widen) what the rules cover.
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

#[test]
fn static_ranks_mirror_the_runtime_checker() {
    // The analysis crate does not link the `parking_lot` shim, so it
    // duplicates the rank numbers instead of importing `parking_lot::rank`. This test pins
    // the two tables together by parsing the shim source.
    let shim = workspace_root().join("shims/parking_lot/src/lib.rs");
    let text = std::fs::read_to_string(&shim).expect("reading the parking_lot shim");

    let shim_rank = |name: &str| -> u32 {
        let needle = format!("pub const {name}: u32 = ");
        let at = text
            .find(&needle)
            .unwrap_or_else(|| panic!("`{name}` not found in {}", shim.display()));
        text[at + needle.len()..]
            .split(';')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("`{name}` has a non-literal value"))
    };

    let config = Config::workspace_default();
    assert!(!config.lock_classes.is_empty());
    // The epoch store's cells must be in the shared table (the commit
    // mutex below every other rank, reclamation just above it).
    for expected in ["EPOCH_COMMIT", "EPOCH_RETIRED"] {
        assert!(
            config.lock_classes.iter().any(|c| c.name == expected),
            "lock class {expected} missing from the shipped config"
        );
    }
    for class in &config.lock_classes {
        let Some(rank) = class.rank else { continue };
        assert_eq!(
            rank,
            shim_rank(&class.name),
            "rank table divergence for {}: analysis says {rank}, shim says {}",
            class.name,
            shim_rank(&class.name)
        );
    }
}
