//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root
//! says the same thing for the driver; a unit test holds the two equal.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller readings are better.
    Lower,
    /// Larger readings are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The name later issues refer to.
    pub name: &'static str,
    /// Unit of the reading.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// A count or accuracy reading that must repeat exactly for a seed.
    pub exact: bool,
    /// A setting the harness chose, such as a step of a rate ladder: it
    /// has a time in its unit but is not brought to reference speed.
    pub setting: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        setting: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        setting: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
        setting: false,
    }
}

const fn setting(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        setting: true,
    }
}

use Better::{Higher, Lower};

/// The workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sql_adhoc",
        "8,192 distinct statements cycled: the cache-probe working set is several times the estimate cache, so parse, catalog, IR build, kernel and remedy all run",
    ),
    (
        "sql_repeat",
        "64 templates drawn Zipf(1.1): the estimate cache answers, the kernel is bypassed, and per-plan overhead (parse, catalog clone, IR build) is what is left",
    ),
    (
        "estimate_serving",
        "pre-built feature rows through serving::Frontend, open loop at 32,000 req/s then closed-loop saturation: queueing, coalescing, admission and the batched kernel, no SQL",
    ),
    (
        "dag_batch",
        "64 DAGs of 48 statements through plan_workload: federation ir, rules and schedule dominate and one catalog clone is spread over 48 statements",
    ),
    (
        "feedback_churn",
        "a writer thread observing, adjusting alpha and retuning beside a reader planning the sql_repeat stream: clone-modify-publish against lock-free reads",
    ),
    (
        "facade_hybrid",
        "IntelliSphere over HybridCostManager with logical-op, sub-op and Timed profiles, 90% plan and 10% execute: the second costing stack and the sub-op rule path",
    ),
];

/// End-to-end metrics: defined on every workload, never zero.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("ok_share", "share", Higher, 0.01),
    e2e("slo_ok_share", "share", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics, grouped by layer.
pub const PER_LAYER: [Metric; 58] = [
    layer("sqlkit.parse_us", "us", Lower),
    layer("sqlkit.logical_us", "us", Lower),
    count("sqlkit.stmts", "count", Higher),
    count("sqlkit.errors", "count", Lower),
    layer("catalog.clone_us", "us", Lower),
    layer("catalog.lookup_ns", "ns", Lower),
    count("catalog.tables", "count", Lower),
    layer("remote_sim.analyze_us", "us", Lower),
    layer("remote_sim.exec_us", "us", Lower),
    count("remote_sim.sim_secs", "sim_s", Lower),
    layer("costing.features_us", "us", Lower),
    layer("costing.pin_ns", "ns", Lower),
    layer("costing.estimate_us", "us", Lower),
    layer("costing.batch64_us_per_row", "us", Lower),
    layer("costing.dedup_us", "us", Lower),
    layer("costing.cache_hit_share", "share", Higher),
    count("costing.remedy_share", "share", Lower),
    layer("costing.subop_us", "us", Lower),
    layer("costing.manager_us", "us", Lower),
    layer("costing.observe_us", "us", Lower),
    layer("costing.alpha_us", "us", Lower),
    layer("costing.tune_ms", "ms", Lower),
    count("costing.tune_entries", "count", Higher),
    layer("costing.publish_us", "us", Lower),
    count("costing.epochs", "count", Lower),
    layer("costing.observes_per_s", "1/s", Higher),
    layer("costing.retune_p50_ms", "ms", Lower),
    layer("neuro.row_ns", "ns", Lower),
    layer("neuro.batch64_ns_per_row", "ns", Lower),
    count("neuro.flops_per_row", "count", Lower),
    layer("neuro.fit_ms", "ms", Lower),
    layer("federation.placements_us", "us", Lower),
    layer("federation.build_us", "us", Lower),
    layer("federation.build_self_us", "us", Lower),
    count("federation.candidates", "count", Higher),
    layer("federation.plan_p99_us", "us", Lower),
    layer("federation.rules_us", "us", Lower),
    count("federation.rule_fires", "count", Higher),
    count("federation.merged", "count", Higher),
    layer("federation.dispatch_us", "us", Lower),
    layer("federation.workload_p99_ms", "ms", Lower),
    count("federation.makespan_cut_pct", "%", Higher),
    layer("federation.global_catalog_us", "us", Lower),
    layer("federation.facade_plan_us", "us", Lower),
    layer("federation.facade_exec_us", "us", Lower),
    layer("serving.submit_us", "us", Lower),
    layer("serving.reply_p50_us", "us", Lower),
    layer("serving.reply_p99_us", "us", Lower),
    layer("serving.batch_mean", "count", Higher),
    layer("serving.overhead_us", "us", Lower),
    layer("serving.shed_share", "share", Lower),
    layer("serving.limiter_ns", "ns", Lower),
    setting("serving.max_ok_rps", "1/s", Higher),
    layer("serving.gen_lag_p99_us", "us", Lower),
    layer("telemetry.drift_record_ns", "ns", Lower),
    count("accuracy.q_error_p50", "ratio", Lower),
    count("accuracy.rmse_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// Index of a workload by name.
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}

/// Any metric by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// The file at the repository root, in the driver's schema.
pub fn benchmark_json(run_seconds: u64) -> String {
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(name),
                quoted(why)
            )
        })
        .collect();
    let metric_line = |m: &Metric| {
        let bound = m
            .bound
            .map(|b| format!(", \"bound\": {b}"))
            .unwrap_or_default();
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better.as_str())
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_driver_schema() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").expect("required by the driver");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_at_the_root_says_the_same() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(RUN_SECONDS),
            "regenerate with `benchmark spec > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
