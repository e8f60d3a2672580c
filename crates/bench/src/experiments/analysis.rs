//! Micro-report timing the workspace lint pass (DESIGN.md §16).
//!
//! The interprocedural analysis runs on every CI push and inside two
//! integration tests, so its own cost is part of the workspace's build
//! budget. This experiment pins that cost as a standing number: it
//! loads the live tree once, then times the parse phase (lexing +
//! structural model) and the analyze phase (call-graph construction,
//! the three reachability closures, all seven rules, allow filtering)
//! separately over several iterations, reporting medians alongside the
//! graph's size and the closure populations.
//!
//! Results land in `results/analysis.txt`. The absolute numbers are
//! machine-dependent; the interesting trend across PRs is the ratio of
//! analyze-time to parse-time (the interprocedural layer's overhead on
//! top of the flat per-file pass) and the closure sizes (how much of
//! the workspace the declared entry points actually pull into scope).

use crate::report::{heading, kv, write_text_table, ExpConfig};
use analysis::config::Config;
use std::time::Instant;

/// The measured outcome of one run.
#[derive(Debug, Clone)]
pub struct AnalysisBenchResult {
    /// Files scanned.
    pub files: usize,
    /// Call-graph nodes (non-test functions).
    pub nodes: usize,
    /// Call-graph edges (deduplicated call sites).
    pub edges: usize,
    /// Functions in the hot / zero-alloc / nonblocking closures.
    pub reach: (usize, usize, usize),
    /// Findings on the live tree (must be zero).
    pub findings: usize,
    /// Allow annotations in effect.
    pub allows: usize,
    /// Median wall time of the parse phase, milliseconds.
    pub parse_ms: f64,
    /// Median wall time of the analyze phase, milliseconds.
    pub analyze_ms: f64,
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(mathkit::total_cmp_f64);
    xs[xs.len() / 2]
}

/// Runs the micro-report and writes `results/analysis.txt`.
pub fn run(cfg: &ExpConfig) -> AnalysisBenchResult {
    heading("Workspace lint pass: timing micro-report");
    let config = Config::workspace_default();
    let root = workspace_root();
    let iters = if cfg.quick { 3 } else { 9 };

    // One warm-up load establishes the page cache; the timed parse
    // iterations then measure lexing + structural modelling, not disk.
    let files = analysis::load_workspace(&root).expect("loading the workspace");
    let mut parse_times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let reparsed = analysis::load_workspace(&root).expect("loading the workspace");
        parse_times.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(reparsed.len(), files.len());
    }

    let mut analyze_times = Vec::with_capacity(iters);
    let mut outcome = analysis::analyze_sources(&files, &config);
    for _ in 0..iters {
        let t = Instant::now();
        outcome = analysis::analyze_sources(&files, &config);
        analyze_times.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let result = AnalysisBenchResult {
        files: files.len(),
        nodes: outcome.graph_nodes,
        edges: outcome.graph_edges,
        reach: outcome.reach_counts,
        findings: outcome.report.findings.len(),
        allows: outcome.report.allows.len(),
        parse_ms: median(parse_times),
        analyze_ms: median(analyze_times),
    };

    kv("files scanned", result.files);
    kv("graph nodes", result.nodes);
    kv("graph edges", result.edges);
    kv(
        "reach (hot / zero-alloc / nonblocking)",
        format!(
            "{} / {} / {}",
            result.reach.0, result.reach.1, result.reach.2
        ),
    );
    kv("findings", result.findings);
    kv("allows in effect", result.allows);
    kv("parse phase (median ms)", format!("{:.2}", result.parse_ms));
    kv(
        "analyze phase (median ms)",
        format!("{:.2}", result.analyze_ms),
    );

    write_text_table(
        cfg,
        "analysis",
        &["metric", "value"],
        &[
            vec!["files_scanned".into(), result.files.to_string()],
            vec!["graph_nodes".into(), result.nodes.to_string()],
            vec!["graph_edges".into(), result.edges.to_string()],
            vec!["reach_hot".into(), result.reach.0.to_string()],
            vec!["reach_zero_alloc".into(), result.reach.1.to_string()],
            vec!["reach_nonblocking".into(), result.reach.2.to_string()],
            vec!["findings".into(), result.findings.to_string()],
            vec!["allows_in_effect".into(), result.allows.to_string()],
            vec!["parse_ms_p50".into(), format!("{:.2}", result.parse_ms)],
            vec!["analyze_ms_p50".into(), format!("{:.2}", result.analyze_ms)],
            vec![
                "analyze_over_parse".into(),
                format!("{:.2}", result.analyze_ms / result.parse_ms.max(1e-9)),
            ],
        ],
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_pass_times_and_stays_clean() {
        let result = run(&ExpConfig::quick_silent());
        assert_eq!(result.findings, 0, "the live tree must stay clean");
        assert!(result.nodes > 100, "graph looks truncated");
        assert!(result.edges > result.nodes / 2, "edges look truncated");
        assert!(result.reach.0 >= result.reach.1, "za closure is a subset");
        assert!(result.parse_ms > 0.0 && result.analyze_ms > 0.0);
    }
}
