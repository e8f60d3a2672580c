//! Baseline diffing: the `--baseline <file>` no-new-findings gate.
//!
//! CI checks in the current report (`results/analysis_baseline.json`,
//! regenerated whenever the tree is intentionally changed) and fails a
//! PR only on findings *not* present in the baseline — so a
//! pre-existing, allowed debt item never blocks an unrelated change,
//! while any new violation does.
//!
//! Findings are keyed on `(rule, file, message)` — line numbers shift
//! with every edit and are deliberately ignored. Only error-severity
//! findings gate; warnings (unused allows) are handled by
//! `--strict-allows`.
//!
//! The baseline is read with the workspace's own `serde`/`serde_json`
//! shims; fields of the report this gate does not key on are ignored.

use crate::report::{Report, Severity};
use serde::Deserialize;
use std::collections::BTreeSet;

/// What the gate reads of one finding in a baseline report.
#[derive(Deserialize)]
struct BaselineFinding {
    rule: String,
    file: String,
    message: String,
    /// Absent in baselines that predate the field; those count as errors.
    #[serde(default)]
    severity: Option<String>,
}

/// What the gate reads of a baseline report.
#[derive(Deserialize)]
struct BaselineReport {
    findings: Vec<BaselineFinding>,
}

/// The `(rule, file, message)` keys of error-severity findings in a
/// baseline report JSON. Entries without a `severity` field count as
/// errors (older baselines predate the field).
pub fn baseline_keys(text: &str) -> Result<BTreeSet<(String, String, String)>, String> {
    let report: BaselineReport =
        serde_json::from_str(text).map_err(|e| format!("bad baseline: {e}"))?;
    Ok(report
        .findings
        .into_iter()
        .filter(|f| f.severity.as_deref().unwrap_or("error") == "error")
        .map(|f| (f.rule, f.file, f.message))
        .collect())
}

/// Error findings in `report` that are not in the baseline keyed set.
pub fn new_findings<'a>(
    report: &'a Report,
    baseline: &BTreeSet<(String, String, String)>,
) -> Vec<&'a crate::report::Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .filter(|f| !baseline.contains(&(f.rule.to_string(), f.file.clone(), f.message.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Finding;

    #[test]
    fn parses_report_shaped_json() {
        // Fields the gate does not key on are ignored; a finding without
        // a severity counts as an error.
        let keys = baseline_keys(
            r#"{"clean": false, "n": 2, "findings": [
                {"rule": "panic-freedom", "file": "a.rs", "line": 3,
                 "severity": "error", "message": "x \"q\" y"},
                {"rule": "lock-order", "file": "b.rs", "message": "old"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&("panic-freedom".into(), "a.rs".into(), "x \"q\" y".into())));
        assert!(keys.contains(&("lock-order".into(), "b.rs".into(), "old".into())));
    }

    #[test]
    fn roundtrips_the_report_renderer() {
        let mut report = Report::default();
        report.findings.push(Finding::error(
            "lock-order",
            "crates/a/src/lib.rs",
            9,
            "cycle: A -> B".into(),
        ));
        report.findings.push(Finding::warning(
            "unused-allow",
            "crates/a/src/lib.rs",
            4,
            "stale".into(),
        ));
        let keys = baseline_keys(&report.render_json()).unwrap();
        assert_eq!(keys.len(), 1, "warnings are not baseline keys");
        assert!(keys.contains(&(
            "lock-order".into(),
            "crates/a/src/lib.rs".into(),
            "cycle: A -> B".into()
        )));
    }

    #[test]
    fn diff_flags_only_new_errors() {
        let mut old = Report::default();
        old.findings.push(Finding::error(
            "panic-freedom",
            "a.rs",
            1,
            "old debt".into(),
        ));
        let keys = baseline_keys(&old.render_json()).unwrap();

        let mut cur = Report::default();
        cur.findings.push(Finding::error(
            "panic-freedom",
            "a.rs",
            40,
            "old debt".into(),
        ));
        cur.findings.push(Finding::error(
            "panic-freedom",
            "b.rs",
            2,
            "brand new".into(),
        ));
        cur.findings.push(Finding::warning(
            "unused-allow",
            "b.rs",
            3,
            "advisory".into(),
        ));
        let new = new_findings(&cur, &keys);
        assert_eq!(new.len(), 1, "line drift is ignored, warnings skipped");
        assert_eq!(new[0].message, "brand new");
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(baseline_keys("{\"findings\": ").is_err());
        assert!(baseline_keys("{\"findings\": [1, 2,,]}").is_err());
        assert!(baseline_keys("{}").is_err());
        assert!(baseline_keys("{\"findings\": [{\"rule\": \"r\", \"file\": \"f\"}]}").is_err());
    }
}
