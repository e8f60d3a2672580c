//! Integration tests for the interprocedural layer: reachability-seeded
//! rule scope, the zero-alloc/nonblocking closures with call-path
//! witnesses, per-closure cold boundaries, and coverage the module
//! lists alone would miss.

use analysis::config::Config;
use analysis::report::Report;

/// `crates/costing/src/service/mod.rs` → module `costing::service`,
/// where `estimate_pinned` is a declared zero-alloc + nonblocking
/// entry point.
const SERVICE: &str = "crates/costing/src/service/mod.rs";
/// A module in no rule's module list — only reachability covers it.
const MATHKIT: &str = "crates/mathkit/src/lib.rs";

/// Runs the shipped policy narrowed to the entry points and boundaries
/// these sources define: the rest name functions of the live tree, and
/// a policy name matching nothing in the scanned set is itself a
/// finding.
fn check(sources: &[(&str, &str)]) -> Report {
    let defines = |name: &str| {
        let decl = format!("fn {name}(");
        sources.iter().any(|(_, text)| text.contains(&decl))
    };
    let mut config = Config::workspace_default();
    config.entry_points.retain(|e| defines(&e.function));
    config.cold_boundary_functions.retain(|f| defines(f));
    config.zero_alloc_boundary_functions.retain(|f| defines(f));
    analysis::check_str(sources, &config)
}

#[test]
fn alloc_freedom_follows_calls_below_a_zero_alloc_entry() {
    let report = check(&[(
        SERVICE,
        "pub fn estimate_pinned(x: f64) -> f64 { stage(x) }\n\
         fn stage(x: f64) -> f64 { let mut v = Vec::new(); v.push(x); x }\n",
    )]);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "alloc-freedom")
        .expect("Vec::new one call below the entry must be flagged");
    assert_eq!(f.line, 2);
    assert_eq!(
        f.witness.first().map(String::as_str),
        Some("costing::service::estimate_pinned"),
        "witness starts at the entry point: {:?}",
        f.witness
    );
}

#[test]
fn blocking_freedom_follows_calls_below_a_nonblocking_entry() {
    let report = check(&[(
        SERVICE,
        "pub fn estimate_pinned(x: f64) -> f64 { nap(x) }\n\
         fn nap(x: f64) -> f64 { std::thread::sleep(std::time::Duration::from_millis(1)); x }\n",
    )]);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "blocking-freedom")
        .expect("a sleep one call below the entry must be flagged");
    assert_eq!(f.line, 2);
    assert_eq!(
        f.witness.last().map(String::as_str),
        Some("costing::service::nap"),
        "witness ends at the violating function: {:?}",
        f.witness
    );
}

/// The read path of the deleted `hot-path-write-lock` fixture: every
/// way of taking a lock, one call below wherever `estimate_pinned`
/// sends it.
const LOCKING_HELPER: &str = "\
fn serve(inner: &Inner, v: u32) -> u32 {
    let m = inner.models.read();
    let w = inner.models.write();
    let s = inner.store.lock();
    let q = Mutex::lock(&inner.store);
    let c = inner.cache.lock();
    let t = inner.store.try_lock();
    let k = Mutex::lock(&inner.cache);
    v
}
";

#[test]
fn blocking_freedom_flags_lock_acquisitions_below_a_nonblocking_entry() {
    let entry = "pub fn estimate_pinned(inner: &Inner, v: u32) -> u32 { serve(inner, v) }\n";
    let report = check(&[(SERVICE, &format!("{entry}{LOCKING_HELPER}"))]);
    let hits: Vec<(usize, &str)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "blocking-freedom")
        .map(|f| {
            assert_eq!(
                f.witness,
                [
                    "costing::service::estimate_pinned",
                    "costing::service::serve"
                ],
                "witness runs from the entry to the locking function"
            );
            let what = f.message.split(' ').next().unwrap_or_default();
            (f.line, what)
        })
        .collect();
    // Dot and qualified forms on the store receivers; `cache` (the
    // exempt LRU mutex, either form) and `try_lock` stay legal.
    assert_eq!(
        hits,
        [
            (3, "`models.read()`"),
            (4, "`models.write()`"),
            (5, "`store.lock()`"),
            (6, "`Mutex::lock(…)`"),
        ],
        "{}",
        report.render_text()
    );

    // The same body where no entry reaches it is out of scope.
    let unreached = "pub fn estimate_pinned(v: u32) -> u32 { v }\n";
    let report = check(&[(SERVICE, &format!("{unreached}{LOCKING_HELPER}"))]);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn pure_arithmetic_chain_below_an_entry_is_clean() {
    let report = check(&[(
        SERVICE,
        "pub fn estimate_pinned(x: f64) -> f64 { double(x) }\n\
         fn double(x: f64) -> f64 { x * 2.0 }\n",
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn unlisted_module_is_covered_only_via_reachability() {
    let helper = "pub fn helper(x: Option<f64>) -> f64 { x.unwrap() }\n";
    // Called from the entry: flagged, with a cross-crate witness.
    let called = check(&[
        (
            SERVICE,
            "pub fn estimate_pinned(x: Option<f64>) -> f64 { mathkit::helper(x) }\n",
        ),
        (MATHKIT, helper),
    ]);
    let f = called
        .findings
        .iter()
        .find(|f| f.rule == "panic-freedom" && f.file == MATHKIT)
        .expect("mathkit is in no module list; only reachability can flag it");
    assert_eq!(
        f.witness,
        vec![
            "costing::service::estimate_pinned".to_string(),
            "mathkit::helper".to_string()
        ]
    );
    // Same code, never called from an entry: out of scope.
    let uncalled = check(&[
        (SERVICE, "pub fn estimate_pinned(x: f64) -> f64 { x }\n"),
        (MATHKIT, helper),
    ]);
    assert!(
        uncalled.findings.iter().all(|f| f.file != MATHKIT),
        "{}",
        uncalled.render_text()
    );
}

#[test]
fn zero_alloc_boundary_stops_alloc_scope_but_not_panic_scope() {
    // `remedy_estimate_scratch` is a configured zero-alloc boundary:
    // its own body is still in the alloc scope, its callees are not —
    // but panic-freedom (hot closure, no boundary) still reaches
    // through it, even into a module no rule lists.
    let report = check(&[
        (
            SERVICE,
            "pub fn estimate_pinned(x: f64) -> f64 { remedy_estimate_scratch(x) }\n\
             fn remedy_estimate_scratch(x: f64) -> f64 { let v = vec![x]; mathkit::refit(x) + v.len() as f64 }\n",
        ),
        (
            MATHKIT,
            "pub fn refit(x: f64) -> f64 { let w = vec![x]; Some(x).unwrap() + w.len() as f64 }\n",
        ),
    ]);
    let alloc: Vec<(&str, usize)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "alloc-freedom")
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        alloc,
        vec![(SERVICE, 2)],
        "the boundary node allocates in scope; its callee does not:\n{}",
        report.render_text()
    );
    let panic = report
        .findings
        .iter()
        .find(|f| f.rule == "panic-freedom")
        .expect("panic-freedom must reach through the zero-alloc boundary");
    assert_eq!((panic.file.as_str(), panic.line), (MATHKIT, 1));
}

#[test]
fn cold_boundary_exempts_callees_of_emit() {
    // `emit` is the configured cold boundary for both derived closures:
    // allocations behind it (disabled tracing) are invisible.
    let report = check(&[(
        SERVICE,
        "pub fn estimate_pinned(x: f64) -> f64 { emit(x); x }\n\
         fn emit(x: f64) { build_event(x); }\n\
         fn build_event(x: f64) -> Vec<f64> { vec![x] }\n",
    )]);
    assert!(
        report.findings.iter().all(|f| f.rule != "alloc-freedom"),
        "{}",
        report.render_text()
    );
}

#[test]
fn witnesses_render_in_text() {
    let report = check(&[(
        SERVICE,
        "pub fn estimate_pinned(x: f64) -> f64 { stage(x) }\n\
         fn stage(x: f64) -> f64 { let mut v = Vec::new(); v.push(x); x }\n",
    )]);
    let text = report.render_text();
    assert!(
        text.contains("via costing::service::estimate_pinned -> costing::service::stage"),
        "{text}"
    );
}
