//! Findings and report rendering.

/// What a finding is about. Both kinds fail the run — the split only
/// tells the reader whether to fix code or to fix the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// A rule violation in the scanned code.
    #[default]
    Error,
    /// Rot in the policy itself: an unused allow, a `Config` name that
    /// matches no function.
    Warning,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `panic-freedom`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// Error or warning.
    pub severity: Severity,
    /// Call-path witness for reachability-seeded findings: qualified
    /// function names from the hot-path entry point down to the
    /// function containing the violation. Empty for per-file findings.
    pub witness: Vec<String>,
}

impl Finding {
    /// An error-severity finding with no witness.
    pub(crate) fn error(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            severity: Severity::Error,
            witness: Vec::new(),
        }
    }

    /// A warning-severity finding with no witness.
    pub(crate) fn warning(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
        Finding {
            severity: Severity::Warning,
            ..Finding::error(rule, file, line, message)
        }
    }

    /// Attaches a call-path witness.
    pub(crate) fn with_witness(mut self, witness: Vec<String>) -> Finding {
        self.witness = witness;
        self
    }
}

/// A used `analysis:allow` annotation (a suppressed finding).
#[derive(Debug, Clone)]
pub struct AllowUse {
    /// The suppressed rule.
    pub rule: String,
    /// Workspace-relative file path of the annotation.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: usize,
    /// The justification the annotation carries.
    pub reason: String,
}

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, ordered by file then line.
    pub findings: Vec<Finding>,
    /// Allow annotations that suppressed a finding.
    pub allows: Vec<AllowUse>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing fired, warnings included. This is the one
    /// gate: the CLI's exit code and the tier-1 live-workspace test
    /// both assert it.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Orders findings by (file, line, rule) for stable output.
    pub(crate) fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// `file:line: [rule] message` lines plus a summary footer.
    /// Warnings carry a `warning:` marker; reachability-seeded findings
    /// get an indented `via entry -> … -> fn` witness line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let marker = match f.severity {
                Severity::Error => "",
                Severity::Warning => "warning: ",
            };
            out.push_str(&format!(
                "{}:{}: {}[{}] {}\n",
                f.file, f.line, marker, f.rule, f.message
            ));
            if !f.witness.is_empty() {
                out.push_str(&format!("    via {}\n", f.witness.join(" -> ")));
            }
        }
        out.push_str(&format!(
            "{} finding{} in {} file{} ({} allow annotation{} in effect)\n",
            self.findings.len(),
            plural(self.findings.len()),
            self.files_scanned,
            plural(self.files_scanned),
            self.allows.len(),
            plural(self.allows.len()),
        ));
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![Finding::error(
                "panic-freedom",
                "crates/x/src/lib.rs",
                7,
                "`.unwrap()` on a \"hot\" path".into(),
            )
            .with_witness(vec!["a::entry".into(), "a::helper".into()])],
            allows: vec![AllowUse {
                rule: "panic-freedom".into(),
                file: "crates/y/src/lib.rs".into(),
                line: 3,
                reason: "invariant".into(),
            }],
            files_scanned: 2,
        };
        r.sort();
        r
    }

    #[test]
    fn text_has_file_line_rule() {
        let text = sample().render_text();
        assert!(text.contains("crates/x/src/lib.rs:7: [panic-freedom]"));
        assert!(text.contains("    via a::entry -> a::helper\n"));
        assert!(text.contains("1 finding in 2 files (1 allow annotation in effect)"));
    }

    #[test]
    fn warnings_are_marked_and_counted() {
        let mut r = sample();
        r.findings.push(Finding::warning(
            "unused-allow",
            "crates/x/src/lib.rs",
            9,
            "stale".into(),
        ));
        r.sort();
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("crates/x/src/lib.rs:9: warning: [unused-allow]"));
        assert!(text.contains("2 findings in 2 files"), "{text}");
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_text().contains("0 findings"));
    }
}
