//! Extension experiment — the Skew Join path (§4's fifth Hive algorithm,
//! never exercised by the Fig. 10 uniform workload).
//!
//! Sweeps the heavy-hitter fraction of a join key from uniform to heavily
//! skewed and checks that
//!
//! 1. the remote engine switches from Shuffle Join to Skew Join at its
//!    skew threshold,
//! 2. the costing module's applicability rules *predict* that switch from
//!    the catalog's heavy-hitter statistic alone, and
//! 3. the skew-join formula tracks the rising cost of the skewed key.

use crate::report::{heading, kv, write_csv, ExpConfig, Series};
use catalog::remote::JoinAlgorithm;
use catalog::SystemKind;
use costing::sub_op::{RuleInputs, SubOpCosting, SubOpMeasurement, SubOpModels};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{build_skewed_table, probe_suite, skew_join_sql, SkewedTableSpec, TableSpec};

/// One point of the skew sweep.
#[derive(Debug, Clone)]
pub struct SkewPoint {
    /// Heavy-hitter fraction of the probe side.
    pub fraction: f64,
    /// The algorithm the engine actually used.
    pub actual_algorithm: JoinAlgorithm,
    /// The single algorithm the rules predicted (when unambiguous).
    pub predicted_algorithm: Option<JoinAlgorithm>,
    /// Observed execution, seconds.
    pub actual_secs: f64,
    /// Costing estimate, seconds.
    pub estimated_secs: f64,
}

/// The skew-sweep result.
#[derive(Debug, Clone)]
pub struct SkewResult {
    /// One point per fraction.
    pub points: Vec<SkewPoint>,
    /// Fractions where prediction matched the engine's choice.
    pub prediction_hits: usize,
}

/// Runs the sweep.
pub fn run(cfg: &ExpConfig) -> SkewResult {
    let probe_rows = 8_000_000u64;
    let build = TableSpec::new(2_000_000, 250);
    let fractions: &[f64] = if cfg.quick {
        &[0.01, 0.30]
    } else {
        &[0.01, 0.05, 0.10, 0.15, 0.25, 0.35, 0.50]
    };

    let mut engine = super::hive_with(cfg, &[build]);
    let measurement = SubOpMeasurement::run(&mut engine, &probe_suite());
    let budget = engine.profile().memory_per_node_bytes as f64 * 0.10
        / engine.profile().cores_per_node as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("models fit");
    let costing = SubOpCosting::for_system(SystemKind::Hive, models, 32.0 * 1024.0 * 1024.0);

    let mut points = Vec::new();
    for &fraction in fractions {
        let spec = SkewedTableSpec::new(probe_rows, 250, fraction);
        engine
            .register_table(build_skewed_table(&spec))
            .expect("skewed table");
        let sql = skew_join_sql(&spec, &build);
        let plan = sqlkit::sql_to_plan(&sql).expect("parses");
        let analysis = analyze(engine.catalog(), &plan).expect("analysis");
        let (info, ctx) = analysis.join.expect("join");
        let inputs = RuleInputs::from_join(&info, &ctx);

        let survivors = costing.surviving_algorithms(&inputs);
        let predicted_algorithm = if survivors.len() == 1 {
            Some(survivors[0])
        } else {
            None
        };
        let estimate = costing.estimate_join(&info, &inputs);
        let exec = engine.submit_plan(&plan).expect("runs");
        points.push(SkewPoint {
            fraction,
            actual_algorithm: exec.join_algorithm.expect("join ran"),
            predicted_algorithm,
            actual_secs: exec.elapsed.as_secs(),
            estimated_secs: estimate.secs,
        });
    }
    let prediction_hits = points
        .iter()
        .filter(|p| p.predicted_algorithm == Some(p.actual_algorithm))
        .count();
    let result = SkewResult {
        points,
        prediction_hits,
    };
    print_result(cfg, &result);
    result
}

fn print_result(cfg: &ExpConfig, r: &SkewResult) {
    heading("Extension — skew-join detection and costing (heavy-hitter sweep)");
    println!(
        "  {:>9} {:>22} {:>22} {:>12} {:>12}",
        "fraction", "engine ran", "rules predicted", "actual (s)", "estimate (s)"
    );
    for p in &r.points {
        println!(
            "  {:>9.2} {:>22} {:>22} {:>12.1} {:>12.1}",
            p.fraction,
            p.actual_algorithm.to_string(),
            p.predicted_algorithm
                .map(|a| a.to_string())
                .unwrap_or_else(|| "ambiguous".into()),
            p.actual_secs,
            p.estimated_secs
        );
    }
    kv(
        "algorithm prediction accuracy",
        format!("{}/{} sweep points", r.prediction_hits, r.points.len()),
    );
    write_csv(
        cfg,
        "skew_sweep",
        &[
            Series::new(
                "actual_secs",
                r.points
                    .iter()
                    .map(|p| (p.fraction, p.actual_secs))
                    .collect(),
            ),
            Series::new(
                "estimated_secs",
                r.points
                    .iter()
                    .map(|p| (p.fraction, p.estimated_secs))
                    .collect(),
            ),
        ],
    );
}
