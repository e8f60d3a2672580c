//! Findings and report rendering (human-readable text and JSON).

/// How serious a finding is: errors gate CI, warnings are advisory
/// unless `--strict-allows` (or a caller policy) promotes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// A rule violation; fails the run.
    #[default]
    Error,
    /// Advisory (unused allows, unresolved entry points).
    Warning,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
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
    pub fn error(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
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
    pub fn warning(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
        Finding {
            severity: Severity::Warning,
            ..Finding::error(rule, file, line, message)
        }
    }

    /// Attaches a call-path witness.
    pub fn with_witness(mut self, witness: Vec<String>) -> Finding {
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
    /// True when no rule fired (warnings included — the live tree is
    /// held to zero warnings too).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Error-severity findings only (the CI gate).
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings (advisory unless `--strict-allows`).
    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// Orders findings by (file, line, rule) for stable output.
    pub fn sort(&mut self) {
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

    /// The report as a JSON object (hand-rolled: fields stay in reading
    /// order, where the serde shim would sort them by key).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"allow_count\": {},\n", self.allows.len()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let witness = if f.witness.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> = f.witness.iter().map(|w| json_str(w)).collect();
                format!(", \"witness\": [{}]", parts.join(", "))
            };
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"severity\": {}, \
                 \"message\": {}{}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(f.severity.label()),
                json_str(&f.message),
                witness
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(&a.rule),
                json_str(&a.file),
                a.line,
                json_str(&a.reason)
            ));
        }
        if !self.allows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
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

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r
            .render_text()
            .contains("crates/x/src/lib.rs:9: warning: [unused-allow]"));
        assert!(r.render_json().contains("\"severity\": \"warning\""));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let json = sample().render_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains(r#"a \"hot\" path"#));
        assert!(json.contains("\"allow_count\": 1"));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(json.contains("\"witness\": [\"a::entry\", \"a::helper\"]"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_json().contains("\"clean\": true"));
        assert!(r.render_text().contains("0 findings"));
    }
}
