//! Extension experiment — §8's future work, implemented: "we plan to
//! study more types of remote systems such as SparkSQL and Impala."
//!
//! The paper claims its methodology is modular ("extensions to other
//! systems such as SparkSQL, Presto, and Impala follow the same
//! methodology"). This experiment validates that claim against the
//! simulator's other personas: the identical probe suite + formula
//! library + rules are pointed at a Spark-like engine and a single-node
//! RDBMS, and the composed estimates are checked against each engine's
//! actual executions — no per-engine code, only per-engine data
//! (formulas, rules, cluster facts) as the paper prescribes.

use crate::report::{heading, kv, write_csv, ExpConfig, Series};
use catalog::SystemKind;
use costing::sub_op::{RuleInputs, SubOpCosting, SubOpMeasurement, SubOpModels};
use mathkit::{pearson_r, rmse_pct, SimpleLinearModel};
use remote_sim::personas::{hive_persona, presto_persona, rdbms_persona, spark_persona, Persona};
use remote_sim::{ClusterConfig, ClusterEngine};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{join_training_queries_with, probe_suite, register_tables, TableSpec};

/// Per-persona validation result.
#[derive(Debug, Clone)]
pub struct PersonaResult {
    /// Display label.
    pub(crate) label: String,
    /// Engine family.
    pub kind: SystemKind,
    /// Probe campaign time (simulated minutes).
    pub probe_minutes: f64,
    /// `(actual, predicted)` join scatter.
    pub(crate) scatter: Vec<(f64, f64)>,
    /// Slope of the predicted-vs-actual line.
    pub(crate) slope: f64,
    /// Line R² (consistency).
    pub(crate) line_r2: f64,
    /// Correlation with actuals.
    pub correlation: f64,
    /// RMSE%.
    pub(crate) rmse_pct: f64,
    /// Distinct join algorithms the engine actually used.
    pub algorithms_seen: Vec<String>,
}

/// Result across all personas.
#[derive(Debug, Clone)]
pub struct HeterogeneousResult {
    /// One entry per engine persona.
    pub personas: Vec<PersonaResult>,
}

fn join_specs(quick: bool) -> Vec<TableSpec> {
    let sizes: &[u64] = if quick { &[250] } else { &[100, 250, 500] };
    let mut specs = Vec::new();
    for &size in sizes {
        for k in [1u64, 2, 4, 8] {
            specs.push(TableSpec::new(k * 1_000_000, size));
        }
        // A small table so broadcast-class algorithms trigger too.
        specs.push(TableSpec::new(20_000, size));
    }
    specs
}

fn validate_persona(
    cfg: &ExpConfig,
    name: &str,
    persona: Persona,
    cluster: ClusterConfig,
) -> PersonaResult {
    let kind = persona.kind;
    let mut engine = ClusterEngine::new(name, persona, cluster, cfg.seed);
    let specs = join_specs(cfg.quick);
    register_tables(&mut engine, &specs).expect("tables register");

    // The SAME probe suite and fitting pipeline as the Hive evaluation.
    let measurement = SubOpMeasurement::run(&mut engine, &probe_suite());
    let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
        / engine.profile().cores_per_node.max(1) as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("models fit");
    let costing = SubOpCosting::for_system(kind, models, 32.0 * 1024.0 * 1024.0);

    let mut scatter = Vec::new();
    let mut algorithms: Vec<String> = Vec::new();
    for q in join_training_queries_with(&specs, &[100, 50, 25]) {
        let Ok(plan) = sqlkit::sql_to_plan(&q.sql()) else {
            continue;
        };
        let Ok(analysis) = analyze(engine.catalog(), &plan) else {
            continue;
        };
        let Some((info, ctx)) = analysis.join.as_ref() else {
            continue;
        };
        let inputs = RuleInputs::from_join(info, ctx);
        let predicted = costing.estimate_join(info, &inputs).secs;
        let Ok(exec) = engine.submit_plan(&plan) else {
            continue;
        };
        scatter.push((exec.elapsed.as_secs(), predicted));
        if let Some(algo) = exec.join_algorithm {
            let s = algo.to_string();
            if !algorithms.contains(&s) {
                algorithms.push(s);
            }
        }
    }
    let (actuals, preds): (Vec<f64>, Vec<f64>) = scatter.iter().copied().unzip();
    let line = SimpleLinearModel::fit(&actuals, &preds).expect("line fit");
    PersonaResult {
        label: name.to_string(),
        kind,
        probe_minutes: measurement.training_time.as_mins(),
        slope: line.slope,
        line_r2: line.r2,
        correlation: pearson_r(&preds, &actuals),
        rmse_pct: rmse_pct(&preds, &actuals),
        scatter,
        algorithms_seen: algorithms,
    }
}

/// Runs the heterogeneous validation.
pub fn run(cfg: &ExpConfig) -> HeterogeneousResult {
    let personas = vec![
        validate_persona(cfg, "hive-x", hive_persona(), ClusterConfig::paper_hive()),
        validate_persona(
            cfg,
            "spark-x",
            spark_persona(),
            ClusterConfig {
                nodes: 4,
                cores_per_node: 4,
                ..ClusterConfig::paper_hive()
            },
        ),
        validate_persona(
            cfg,
            "presto-x",
            presto_persona(),
            ClusterConfig {
                nodes: 4,
                cores_per_node: 4,
                ..ClusterConfig::paper_hive()
            },
        ),
        validate_persona(
            cfg,
            "rdbms-x",
            rdbms_persona(),
            ClusterConfig::single_node(16, 64 * (1 << 30)),
        ),
    ];
    let result = HeterogeneousResult { personas };
    print_result(cfg, &result);
    result
}

fn print_result(cfg: &ExpConfig, r: &HeterogeneousResult) {
    heading("Extension (§8 future work) — the same methodology on heterogeneous engines");
    for p in &r.personas {
        kv(
            &format!("{} persona", p.label),
            format!(
                "probes {:.1} min; joins {}; predicted = {:.2}·actual, line R² {:.3}, \
                 ρ {:.3}, RMSE% {:.1}; algorithms used: {:?}",
                p.probe_minutes,
                p.scatter.len(),
                p.slope,
                p.line_r2,
                p.correlation,
                p.rmse_pct,
                p.algorithms_seen
            ),
        );
    }
    println!(
        "  (no per-engine code was written for Spark or the RDBMS: the probe suite, \
         fitting pipeline, formula algebra, and rules are shared — only the formula \
         *data* differs per engine family, as §5 prescribes)"
    );
    let series: Vec<Series> = r
        .personas
        .iter()
        .map(|p| Series::new(&p.label, p.scatter.clone()))
        .collect();
    write_csv(cfg, "heterogeneous_scatter", &series);
}
