//! Fixture tests: every rule must fire on its bad fixture (with
//! file:line diagnostics in text and JSON) and stay silent on its good
//! fixture. The CLI's exit codes are exercised against the `ws_bad`
//! mini-workspace.

use analysis::config::{Config, LockClass};
use analysis::{check_str, report::Report};

/// Hot-path module for R1 fixtures.
const PANIC_PATH: &str = "crates/costing/src/service/fixture.rs";
/// Lock-scope module for R2 fixtures.
const LOCK_PATH: &str = "crates/costing/src/service/locks.rs";
/// Any non-exempt module for R4/R5 fixtures.
const PLAIN_PATH: &str = "crates/costing/src/plain_fixture.rs";

fn check(path: &str, src: &str) -> Report {
    check_str(&[(path, src)], &Config::workspace_default())
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
    // Diagnostics carry file:line in both formats.
    let text = report.render_text();
    assert!(
        text.contains(&format!("{PANIC_PATH}:3: [panic-freedom]")),
        "{text}"
    );
    let json = report.render_json();
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"line\": 3"));
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
fn bad_lock_fixture_fires_inversion_and_double_acquisition() {
    let report = check(LOCK_PATH, include_str!("fixtures/bad_lock_inversion.rs"));
    assert_fires(&report, "lock-order", 2);
    let text = report.render_text();
    assert!(text.contains("rank inversion"), "{text}");
    assert!(text.contains("self-deadlock"), "{text}");
}

#[test]
fn lock_fixture_recognises_self_field_and_qualified_forms() {
    // Regression: acquisitions spelled `self.<field>.lock()` and
    // `Mutex::lock(&x.field)` must feed the same rank check as the
    // plain `receiver.lock()` form — one inversion per function.
    let report = check(LOCK_PATH, include_str!("fixtures/bad_lock_forms.rs"));
    assert_fires(&report, "lock-order", 2);
    let text = report.render_text();
    assert!(
        text.contains("SERVICE_CACHE") && text.contains("EPOCH_COMMIT"),
        "{text}"
    );
}

#[test]
fn good_lock_fixture_is_clean() {
    let report = check(LOCK_PATH, include_str!("fixtures/good_lock.rs"));
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn bad_hot_path_lock_fixture_fires_per_acquisition() {
    let report = check(LOCK_PATH, include_str!("fixtures/bad_hot_path_lock.rs"));
    // models.read, models.write, store.lock — one finding each.
    assert_fires(&report, "hot-path-write-lock", 3);
    let text = report.render_text();
    assert!(text.contains("load an epoch snapshot"), "{text}");
}

#[test]
fn good_hot_path_lock_fixture_is_clean() {
    let report = check(LOCK_PATH, include_str!("fixtures/good_hot_path_lock.rs"));
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn hot_path_lock_rule_skips_mutation_modules() {
    // The same store locks are legal outside the snapshot-read modules
    // (e.g. in the epoch store's own commit path).
    let report = check(
        "crates/costing/src/epoch.rs",
        include_str!("fixtures/bad_hot_path_lock.rs"),
    );
    assert_fires(&report, "hot-path-write-lock", 0);
}

#[test]
fn lock_cycle_across_files_is_detected() {
    // Unranked classes: only the merged-graph cycle check can catch
    // this — neither file is wrong in isolation under a rank check.
    let config = Config {
        lock_scope_modules: vec!["costing".into()],
        lock_classes: vec![
            LockClass::unranked("alpha", "ALPHA"),
            LockClass::unranked("beta", "BETA"),
        ],
        ..Config::workspace_default()
    };
    let report = check_str(
        &[
            (
                "crates/costing/src/cycle_a.rs",
                include_str!("fixtures/bad_lock_cycle_a.rs"),
            ),
            (
                "crates/costing/src/cycle_b.rs",
                include_str!("fixtures/bad_lock_cycle_b.rs"),
            ),
        ],
        &config,
    );
    assert_fires(&report, "lock-order", 1);
    assert!(
        report.findings[0].message.contains("cycle"),
        "{}",
        report.render_text()
    );
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
    let bin = env!("CARGO_BIN_EXE_analysis");

    let text = std::process::Command::new(bin)
        .args(["check", "--root", root])
        .output()
        .expect("running the analysis binary");
    assert_eq!(text.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(
        stdout.contains("crates/costing/src/service/mod.rs:5: [panic-freedom]"),
        "{stdout}"
    );

    let json = std::process::Command::new(bin)
        .args(["check", "--root", root, "--format", "json"])
        .output()
        .expect("running the analysis binary");
    assert_eq!(json.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"clean\": false"), "{stdout}");
    assert!(stdout.contains("\"line\": 5"), "{stdout}");
}

#[test]
fn cli_rejects_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_analysis");
    for args in [&["frobnicate"][..], &["check", "--format", "xml"][..]] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("running the analysis binary");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

#[test]
fn cli_graph_output_is_byte_identical_across_runs() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws_bad");
    let bin = env!("CARGO_BIN_EXE_analysis");
    let run = || {
        std::process::Command::new(bin)
            .args(["check", "--root", root, "--graph", "-"])
            .output()
            .expect("running the analysis binary")
    };
    let (a, b) = (run(), run());
    // `--graph -` prints the graph instead of the report and exits 0.
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout, "graph JSON must be deterministic");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("\"nodes\""), "{text}");
    assert!(text.contains("\"edges\""), "{text}");
    assert!(
        text.contains("costing::service::estimate"),
        "nodes carry qualified names: {text}"
    );
}

#[test]
fn cli_baseline_gates_only_new_findings() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws_bad");
    let bin = env!("CARGO_BIN_EXE_analysis");
    let json = std::process::Command::new(bin)
        .args(["check", "--root", root, "--format", "json"])
        .output()
        .expect("running the analysis binary");
    assert_eq!(json.status.code(), Some(1), "ws_bad has findings");

    let dir = std::env::temp_dir().join(format!("analysis_baseline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let accepted = dir.join("accepted.json");
    std::fs::write(&accepted, &json.stdout).expect("writing baseline");
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "{\"findings\": []}").expect("writing baseline");

    // Every current finding is in the baseline: the gate passes.
    let ok = std::process::Command::new(bin)
        .args(["check", "--root", root, "--baseline"])
        .arg(&accepted)
        .output()
        .expect("running the analysis binary");
    assert_eq!(
        ok.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // An empty baseline makes the same findings "new": the gate fails
    // and names them on stderr.
    let bad = std::process::Command::new(bin)
        .args(["check", "--root", root, "--baseline"])
        .arg(&empty)
        .output()
        .expect("running the analysis binary");
    assert_eq!(bad.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("not in baseline"), "{stderr}");
    assert!(stderr.contains("panic-freedom"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_strict_allows_gates_stale_annotations() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ws_stale");
    let bin = env!("CARGO_BIN_EXE_analysis");

    // The stale allow is a warning: advisory by default…
    let lax = std::process::Command::new(bin)
        .args(["check", "--root", root])
        .output()
        .expect("running the analysis binary");
    assert_eq!(
        lax.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&lax.stdout)
    );
    let stdout = String::from_utf8_lossy(&lax.stdout);
    assert!(stdout.contains("warning: [unused-allow]"), "{stdout}");

    // …and a gate under --strict-allows.
    let strict = std::process::Command::new(bin)
        .args(["check", "--root", root, "--strict-allows"])
        .output()
        .expect("running the analysis binary");
    assert_eq!(strict.status.code(), Some(1));
}
