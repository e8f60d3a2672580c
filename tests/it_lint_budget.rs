//! The lint escape budget.
//!
//! The production crates opt into the workspace lint table, which
//! denies the panic family, slice indexing and bare `#[allow]`s, and
//! `clippy.toml` disallows the wall clock, `partial_cmp` and blocking
//! calls. Clippy itself fails a bare or stale escape (`allow_attributes`,
//! `unfulfilled_lint_expectations`); what it cannot see is the escapes
//! accreting. This suite caps their number and keeps the set of crates
//! under the table from shrinking.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates the costing path runs through. Each must opt into the
/// workspace lint table.
const PRODUCTION_CRATES: [&str; 10] = [
    "catalog",
    "costing",
    "federation",
    "mathkit",
    "neuro",
    "remote-sim",
    "serving",
    "sqlkit",
    "telemetry",
    "workload",
];

/// `#[expect(clippy::…)]` attributes under the production crates'
/// `src/` when this cap was set. Lower it when escapes go; raising it
/// means a new escape whose reason a reviewer should read.
const EXPECT_BUDGET: usize = 58;

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Clippy escapes in one source text: a line opening with `#[expect(`
/// whose first lint, on that line or the next (rustfmt wraps long
/// attributes), is a `clippy::` one.
fn clippy_expects(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
    lines
        .iter()
        .enumerate()
        .filter_map(|(i, line)| Some((i, line.strip_prefix("#[expect(")?)))
        .filter(|(i, rest)| {
            let rest = match rest.trim() {
                "" => lines.get(i + 1).copied().unwrap_or_default(),
                rest => rest,
            };
            rest.starts_with("clippy::")
        })
        .count()
}

#[test]
fn every_production_crate_opts_into_the_workspace_lints() {
    for name in PRODUCTION_CRATES {
        let manifest =
            fs::read_to_string(crates_dir().join(name).join("Cargo.toml")).expect("crate manifest");
        assert!(
            manifest.contains("[lints]\nworkspace = true"),
            "crates/{name} does not opt into [workspace.lints]"
        );
    }
}

/// The black-box contract (the paper's §2 and §4): the costing module
/// submits queries and observes times through `sqlkit::RemoteSystem`, so
/// the simulator behind it may be a test dependency of `costing`, never
/// a production one.
#[test]
fn costing_does_not_depend_on_the_simulator() {
    let manifest =
        fs::read_to_string(crates_dir().join("costing/Cargo.toml")).expect("crate manifest");
    let dependencies: Vec<&str> = manifest
        .lines()
        .skip_while(|line| line.trim() != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .collect();
    assert!(
        !dependencies.is_empty(),
        "crates/costing/Cargo.toml has no [dependencies] table"
    );
    assert!(
        !dependencies
            .iter()
            .any(|line| line.trim_start().starts_with("remote-sim")),
        "crates/costing lists remote-sim under [dependencies]: {dependencies:#?}"
    );
}

#[test]
fn allow_budget_stays_small() {
    let mut per_file = Vec::new();
    for name in PRODUCTION_CRATES {
        let mut files = Vec::new();
        rust_files(&crates_dir().join(name).join("src"), &mut files);
        for file in files {
            let n = clippy_expects(&fs::read_to_string(&file).expect("source file"));
            if n > 0 {
                per_file.push((file, n));
            }
        }
    }
    let total: usize = per_file.iter().map(|(_, n)| n).sum();
    assert!(
        total <= EXPECT_BUDGET,
        "{total} #[expect(clippy::…)] escapes, budget {EXPECT_BUDGET}: {per_file:#?}"
    );
}
