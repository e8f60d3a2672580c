//! Fixture tests: every module-scoped rule must fire on its bad fixture
//! (with file:line diagnostics) and stay silent on its good fixture;
//! the reachability-scoped rules (R7, R8) have theirs in
//! `interprocedural.rs`. The CLI's exit codes are exercised against the
//! `ws_bad` and `ws_stale` mini-workspaces.

use analysis::config::Config;
use analysis::{check_str, report::Report};

/// Hot-path module for R1 fixtures.
const PANIC_PATH: &str = "crates/costing/src/service/fixture.rs";
/// Any non-exempt module for R4/R5 fixtures.
const PLAIN_PATH: &str = "crates/costing/src/plain_fixture.rs";

/// Runs the shipped module lists and exemptions over one fixture file.
/// The entry points and boundaries are dropped: they name functions of
/// the live tree, and a policy name matching nothing in the scanned set
/// is itself a finding.
fn check(path: &str, src: &str) -> Report {
    let config = Config {
        entry_points: Vec::new(),
        cold_boundary_functions: Vec::new(),
        zero_alloc_boundary_functions: Vec::new(),
        ..Config::workspace_default()
    };
    check_str(&[(path, src)], &config)
}

fn assert_fires(report: &Report, rule: &str, times: usize) {
    let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == rule).collect();
    assert_eq!(
        hits.len(),
        times,
        "expected `{rule}` x{times}, got:\n{}",
        report.render_text()
    );
}

#[test]
fn bad_panic_fixture_fires_on_every_class() {
    let report = check(PANIC_PATH, include_str!("fixtures/bad_panic.rs"));
    // unwrap, computed index, panic!, expect — one finding each.
    assert_fires(&report, "panic-freedom", 4);
    for f in &report.findings {
        assert_eq!(f.file, PANIC_PATH);
        assert!(f.line > 0);
    }
    // Diagnostics carry file:line.
    let text = report.render_text();
    assert!(
        text.contains(&format!("{PANIC_PATH}:3: [panic-freedom]")),
        "{text}"
    );
}

#[test]
fn good_panic_fixture_is_clean() {
    let report = check(PANIC_PATH, include_str!("fixtures/good_panic.rs"));
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn allow_hatch_suppresses_with_reason() {
    let report = check(PANIC_PATH, include_str!("fixtures/allow_hatch.rs"));
    assert!(report.is_clean(), "{}", report.render_text());
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "panic-freedom");
    assert!(report.allows[0].reason.contains("escape hatch"));
}

#[test]
fn bad_float_fixture_fires_on_both_classes() {
    let report = check(PLAIN_PATH, include_str!("fixtures/bad_float.rs"));
    assert_fires(&report, "float-discipline", 2);
    let text = report.render_text();
    assert!(text.contains("total_cmp_f64"), "{text}");
    assert!(text.contains("nonzero float literal"), "{text}");
}

#[test]
fn good_float_fixture_is_clean() {
    let report = check(PLAIN_PATH, include_str!("fixtures/good_float.rs"));
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn float_rule_skips_mathkit() {
    let report = check(
        "crates/mathkit/src/cmp.rs",
        include_str!("fixtures/bad_float.rs"),
    );
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn bad_entropy_fixture_fires_on_every_class() {
    let report = check(PLAIN_PATH, include_str!("fixtures/bad_entropy.rs"));
    // SystemTime::now, Instant::now, thread_rng.
    assert_fires(&report, "nondeterminism", 3);
}

#[test]
fn good_entropy_fixture_is_clean() {
    let report = check(PLAIN_PATH, include_str!("fixtures/good_entropy.rs"));
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn entropy_rule_skips_exempt_modules() {
    let bad = include_str!("fixtures/bad_entropy.rs");
    for path in [
        "crates/bench/src/harness.rs",
        "crates/telemetry/src/trace.rs",
    ] {
        let report = check(path, bad);
        assert_fires(&report, "nondeterminism", 0);
    }
}

#[test]
fn cli_exits_nonzero_with_diagnostics_on_bad_workspace() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws_bad");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analysis"))
        .args(["check", "--root", root])
        .output()
        .expect("running the analysis binary");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/costing/src/service/mod.rs:5: [panic-freedom]"),
        "{stdout}"
    );
}

#[test]
fn cli_rejects_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_analysis");
    // An unknown command, and each of the four retired flags.
    for args in [
        &["frobnicate"][..],
        &["check", "--format", "json"][..],
        &["check", "--graph", "-"][..],
        &["check", "--baseline", "b.json"][..],
        &["check", "--strict-allows"][..],
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("running the analysis binary");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

#[test]
fn cli_strict_allows_gates_stale_annotations() {
    // Strict is the only mode: a stale allow is marked `warning:` in
    // the report and fails the run like any other finding.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws_stale");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analysis"))
        .args(["check", "--root", root])
        .output()
        .expect("running the analysis binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("warning: [unused-allow]"), "{stdout}");
}
