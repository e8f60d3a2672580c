//! The standing workload-optimizer matrix (DESIGN.md §17).
//!
//! The federation's layered planner exists to beat the greedy per-query
//! baseline on *workloads* — batches of statements that share scans,
//! repeat computations, and consume each other's outputs. This
//! experiment pins that claim as a trajectory: every run plans the same
//! seeded DAG matrix twice (greedy per-query baseline vs rule-optimized
//! plan, both dispatched through the same slot scheduler at one pinned
//! model epoch) and writes the predicted-makespan comparison to
//! `BENCH_workload.json`.
//!
//! The matrix sweeps DAG width (statements per workload) × engine count
//! × reuse factor (the fraction of statements repeating an earlier
//! template, via [`workload::dag`]'s Zipf-skewed generator). The full
//! matrix reaches 256 and 1,024 statements, and every cell records the
//! wall time of its rule pass per statement, so a search that stops
//! scaling shows as a row.
//! The run checks its own document against the acceptance bars (exit 1
//! from `exp_workload` when one fails):
//!
//! * on reuse-heavy cells (reuse ≥ 0.5) the optimized makespan is at
//!   least `REUSE_HEAVY_MIN_REDUCTION_PCT` percent below greedy and
//!   at least one duplicate was actually merged;
//! * on *every* cell the optimized plan is never worse than greedy
//!   beyond noise (`NOISE_FLOOR_PCT`) — which the rule driver
//!   guarantees by construction, so a violation means the acceptance
//!   predicate itself regressed;
//! * every cell's rule time per statement is a positive duration, and
//!   on cells of at least `SCALING_GATE_MIN_QUERIES` statements it is
//!   at most `MAX_RULES_US_PER_STMT`.

use crate::harness::{self, BenchDoc, Envelope, Host};
use crate::report::{heading, kv, write_text_table, ExpConfig};
use catalog::{Capability, Catalog, RemoteSystemProfile, SystemId, SystemKind};
use costing::features::{agg_dim_names, join_dim_names};
use costing::logical_op::flow::LogicalOpCosting;
use costing::logical_op::model::{FitConfig, LogicalOpModel};
use costing::service::EstimatorService;
use costing::{OperatorKind, AGG_DIMS, JOIN_DIMS};
use federation::ir::SlotMap;
use federation::schedule::{dispatch, ScheduleConfig};
use federation::transfer::TransferCostModel;
use federation::{build_workload_pinned, optimize, WorkloadOutcome, WorkloadSpec};
use neuro::Dataset;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use workload::{build_table, dag_base_tables, dag_workload, DagConfig};

/// Reuse-heavy cells (reuse ≥ 0.5) must cut predicted makespan by at
/// least this many percent vs the greedy per-query baseline.
pub(crate) const REUSE_HEAVY_MIN_REDUCTION_PCT: f64 = 15.0;

/// No cell may regress beyond this (negative) reduction — "never worse
/// than greedy beyond noise".
pub(crate) const NOISE_FLOOR_PCT: f64 = -0.5;

/// Cells with at least this many statements are held to
/// `MAX_RULES_US_PER_STMT`.
pub(crate) const SCALING_GATE_MIN_QUERIES: u64 = 1024;

/// The most rule-pass wall time per statement, µs, a cell of
/// `SCALING_GATE_MIN_QUERIES` or more statements may take: a rule pass
/// that re-copies the plan per candidate grows super-linearly and
/// crosses it.
pub(crate) const MAX_RULES_US_PER_STMT: f64 = 200.0;

/// One measured matrix cell, as written to `BENCH_workload.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRow {
    /// Statements in the workload DAG.
    pub(crate) queries: u64,
    /// Systems in the federation (master included).
    pub(crate) engines: u64,
    /// Requested reuse factor of the generator.
    pub(crate) reuse: f64,
    /// Distinct SQL shapes the generator actually emitted.
    pub(crate) distinct_shapes: u64,
    /// Greedy per-query baseline's predicted makespan, seconds.
    pub(crate) greedy_makespan_secs: f64,
    /// Rule-optimized plan's predicted makespan, seconds.
    pub(crate) optimized_makespan_secs: f64,
    /// Makespan reduction vs greedy, percent.
    pub(crate) reduction_pct: f64,
    /// Total predicted work saved by the rules, seconds.
    pub(crate) reuse_savings_secs: f64,
    /// Queries merged away by the reuse rule.
    pub(crate) merged: u64,
    /// Scan transfers deduplicated by shared-scan mode.
    pub(crate) shared_scan_hits: u64,
    /// Dispatch waves of the optimized plan.
    pub(crate) waves: u64,
    /// The pinned model-snapshot epoch behind every estimate.
    pub(crate) epoch: u64,
    /// Wall time of the rule pass (`optimize`) per statement, µs.
    pub(crate) rules_us_per_stmt: f64,
}

/// The full document written to `BENCH_workload.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadDoc {
    /// Always `"workload"`.
    pub(crate) experiment: String,
    /// Whether this was a `--quick` run.
    pub(crate) quick: bool,
    /// Master seed the DAGs were generated from.
    pub(crate) seed: u64,
    /// The measuring host, stamped by the harness writer.
    #[serde(default)]
    pub(crate) host: Option<Host>,
    /// The reuse-heavy acceptance bar validation enforces.
    pub(crate) min_reuse_heavy_reduction_pct: f64,
    /// One row per matrix cell.
    pub(crate) rows: Vec<WorkloadRow>,
}

impl WorkloadDoc {
    /// The smallest makespan reduction over the reuse-heavy cells.
    fn worst_reuse_heavy_reduction_pct(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.reuse >= 0.5)
            .map(|r| r.reduction_pct)
            .fold(f64::INFINITY, f64::min)
    }
}

impl BenchDoc for WorkloadDoc {
    const NAME: &'static str = "workload";

    fn envelope(&mut self) -> Envelope<'_> {
        Envelope {
            experiment: &self.experiment,
            rows: self.rows.len(),
            host: &mut self.host,
        }
    }

    /// Number sanity, the reuse-heavy reduction bar, and the
    /// never-worse noise floor.
    fn check(&self) -> Result<(), String> {
        if !(self.min_reuse_heavy_reduction_pct.is_finite()
            && self.min_reuse_heavy_reduction_pct > 0.0)
        {
            return Err(format!(
                "bad min_reuse_heavy_reduction_pct {}",
                self.min_reuse_heavy_reduction_pct
            ));
        }
        let mut reuse_heavy_cells = 0usize;
        for (i, r) in self.rows.iter().enumerate() {
            if r.queries == 0 || r.engines < 2 {
                return Err(format!("row {i}: degenerate cell"));
            }
            if !(0.0..1.0).contains(&r.reuse) {
                return Err(format!("row {i}: reuse {} out of range", r.reuse));
            }
            if r.distinct_shapes == 0 || r.distinct_shapes > r.queries {
                return Err(format!(
                    "row {i}: distinct_shapes {} vs {} queries",
                    r.distinct_shapes, r.queries
                ));
            }
            for (name, v) in [
                ("greedy_makespan_secs", r.greedy_makespan_secs),
                ("optimized_makespan_secs", r.optimized_makespan_secs),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("row {i}: {name} = {v} is not a duration"));
                }
            }
            if !r.reduction_pct.is_finite() || !r.reuse_savings_secs.is_finite() {
                return Err(format!("row {i}: non-finite derived numbers"));
            }
            if r.reuse_savings_secs < 0.0 {
                return Err(format!("row {i}: negative savings"));
            }
            if r.waves == 0 {
                return Err(format!("row {i}: a planned workload has waves"));
            }
            if !r.rules_us_per_stmt.is_finite() || r.rules_us_per_stmt <= 0.0 {
                return Err(format!(
                    "row {i}: rules_us_per_stmt = {} is not a duration",
                    r.rules_us_per_stmt
                ));
            }
            if r.queries >= SCALING_GATE_MIN_QUERIES && r.rules_us_per_stmt > MAX_RULES_US_PER_STMT
            {
                return Err(format!(
                    "row {i}: rules_us_per_stmt = {:.1} at {} queries (bound: {MAX_RULES_US_PER_STMT} \
                     from {SCALING_GATE_MIN_QUERIES} queries)",
                    r.rules_us_per_stmt, r.queries
                ));
            }
            if r.reduction_pct < NOISE_FLOOR_PCT {
                return Err(format!(
                    "row {i}: optimized plan is {:.2}% WORSE than greedy — the rule driver's \
                     never-worse contract is broken",
                    -r.reduction_pct
                ));
            }
            if r.reuse >= 0.5 {
                reuse_heavy_cells += 1;
                if r.reduction_pct < self.min_reuse_heavy_reduction_pct {
                    return Err(format!(
                        "row {i}: reuse-heavy cell ({} queries, {} engines, reuse {}) reduced \
                         makespan only {:.2}% (bar: {:.1}%)",
                        r.queries,
                        r.engines,
                        r.reuse,
                        r.reduction_pct,
                        self.min_reuse_heavy_reduction_pct
                    ));
                }
                if r.merged == 0 {
                    return Err(format!("row {i}: reuse-heavy cell merged nothing"));
                }
            }
        }
        if reuse_heavy_cells == 0 {
            return Err("matrix has no reuse-heavy cells to hold the bar against".to_string());
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!(
            "{} matrix rows, worst reuse-heavy reduction {:.1}%",
            self.rows.len(),
            self.worst_reuse_heavy_reduction_pct()
        )
    }
}

/// Trains tiny join + aggregation models with a per-system cost scale
/// (the fanout tests' idiom), so engines rank differently.
fn flows(scale: f64) -> (LogicalOpCosting, LogicalOpCosting) {
    let mut jin = vec![];
    let mut jt = vec![];
    let mut ain = vec![];
    let mut at = vec![];
    for i in 0..80 {
        let r = 1e5 + (i % 10) as f64 * 1e6;
        let s = 1e4 + (i % 8) as f64 * 1e5;
        let jf = vec![250.0, r, 100.0, s, 16.0, 16.0, s];
        assert_eq!(jf.len(), JOIN_DIMS);
        jin.push(jf);
        jt.push(scale * (2.0 + r * 4e-7 + s * 2e-7));
        let af = vec![r, 250.0, r / 10.0, 12.0];
        assert_eq!(af.len(), AGG_DIMS);
        ain.push(af);
        at.push(scale * (1.0 + r * 3e-7));
    }
    let (jm, _) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &Dataset::new(jin, jt),
        &FitConfig::fast(),
    );
    let (am, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &Dataset::new(ain, at),
        &FitConfig::fast(),
    );
    (LogicalOpCosting::new(jm), LogicalOpCosting::new(am))
}

/// Builds a federation of `engines` systems (master + remotes), spreads
/// the DAG's base-table pool across the remotes round-robin, and
/// registers per-system cost models.
fn federation_setup(engines: usize, dag: &DagConfig) -> (Catalog, EstimatorService) {
    let mut catalog = Catalog::new();
    catalog
        .register_system(RemoteSystemProfile::new(
            SystemId::master(),
            SystemKind::Teradata,
            1,
            32,
            1 << 38,
            vec![
                Capability::Filter,
                Capability::Project,
                Capability::Join,
                Capability::Aggregate,
            ],
        ))
        .expect("fresh catalog");
    let remotes: Vec<SystemId> = (0..engines.saturating_sub(1))
        .map(|i| SystemId::new(&format!("hive-w{i}")))
        .collect();
    for id in &remotes {
        catalog
            .register_system(RemoteSystemProfile::paper_hive_cluster(id.as_str()))
            .expect("unique remote ids");
    }
    for (i, spec) in dag_base_tables(dag).iter().enumerate() {
        let mut def = build_table(spec);
        def.location = remotes[i % remotes.len()].clone();
        catalog.register_table(def).expect("unique table names");
    }
    let service = EstimatorService::default();
    // The master is the fastest system per row but pays every transfer;
    // remotes get progressively slower, so greedy placement spreads.
    let (j, a) = flows(0.8);
    service.register(SystemId::master(), j);
    service.register(SystemId::master(), a);
    for (i, id) in remotes.iter().enumerate() {
        let (j, a) = flows(1.0 + 0.6 * i as f64);
        service.register(id.clone(), j);
        service.register(id.clone(), a);
    }
    (catalog, service)
}

/// Plans one matrix cell.
fn run_cell(queries: usize, engines: usize, reuse: f64, seed: u64) -> WorkloadRow {
    let dag_cfg = DagConfig {
        queries,
        reuse,
        intermediate_rate: 0.4,
        table_pool: 6,
        zipf_skew: 1.1,
        seed,
    };
    let statements = dag_workload(&dag_cfg);
    let distinct_shapes = statements
        .iter()
        .map(|s| s.sql.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    let (catalog, service) = federation_setup(engines, &dag_cfg);
    let mut spec = WorkloadSpec::default();
    for stmt in &statements {
        spec.push_sql(&stmt.label, &stmt.sql, stmt.output.as_deref())
            .expect("generated SQL parses");
    }
    let schedule = ScheduleConfig {
        slots: SlotMap::uniform(1),
        ..ScheduleConfig::default()
    };
    // `plan_workload`'s pipeline, call for call, with the rule pass timed.
    let greedy_plan = build_workload_pinned(
        &catalog,
        &service,
        &service.snapshot(),
        &TransferCostModel::default(),
        &spec,
        &schedule.slots,
    )
    .expect("generated workload plans");
    let greedy = dispatch(&greedy_plan, &schedule);
    let started = Instant::now();
    let (plan, trace) = optimize(&greedy_plan);
    let rules_us = started.elapsed().as_secs_f64() * 1e6;
    let optimized = dispatch(&plan, &schedule);
    let outcome = WorkloadOutcome {
        greedy,
        optimized,
        plan,
        trace,
    };
    WorkloadRow {
        queries: queries as u64,
        engines: engines as u64,
        reuse,
        distinct_shapes,
        greedy_makespan_secs: outcome.greedy.makespan_secs,
        optimized_makespan_secs: outcome.optimized.makespan_secs,
        reduction_pct: outcome.makespan_reduction_pct(),
        reuse_savings_secs: outcome.reuse_savings_secs(),
        merged: outcome.optimized.merged_queries as u64,
        shared_scan_hits: outcome.optimized.shared_scan_hits,
        waves: outcome.optimized.waves as u64,
        epoch: outcome.optimized.epoch,
        rules_us_per_stmt: rules_us / queries as f64,
    }
}

/// Runs the matrix and returns the document (also written to
/// `results/workload.txt` and `BENCH_workload.json` unless output is
/// disabled).
pub fn run(cfg: &ExpConfig) -> WorkloadDoc {
    heading("Workload optimizer — predicted makespan vs greedy per-query baseline");

    let (widths, engine_counts, reuses): (Vec<usize>, Vec<usize>, Vec<f64>) = if cfg.quick {
        (vec![6, 16], vec![2, 3], vec![0.0, 0.75])
    } else {
        (
            vec![8, 24, 48, 256, 1024],
            vec![2, 3, 5],
            vec![0.0, 0.5, 0.75],
        )
    };

    let mut rows = Vec::new();
    for (wi, &queries) in widths.iter().enumerate() {
        for (ei, &engines) in engine_counts.iter().enumerate() {
            for (ri, &reuse) in reuses.iter().enumerate() {
                let cell = (wi * 64 + ei * 8 + ri) as u64;
                let seed = cfg
                    .seed
                    .wrapping_add(cell.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                rows.push(run_cell(queries, engines, reuse, seed));
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.queries.to_string(),
                r.engines.to_string(),
                format!("{:.2}", r.reuse),
                r.distinct_shapes.to_string(),
                format!("{:.3}", r.greedy_makespan_secs),
                format!("{:.3}", r.optimized_makespan_secs),
                format!("{:.1}", r.reduction_pct),
                format!("{:.3}", r.reuse_savings_secs),
                r.merged.to_string(),
                r.shared_scan_hits.to_string(),
                r.waves.to_string(),
                format!("{:.2}", r.rules_us_per_stmt),
            ]
        })
        .collect();
    write_text_table(
        cfg,
        "workload",
        &[
            "queries",
            "engines",
            "reuse",
            "shapes",
            "greedy s",
            "optimized s",
            "reduction %",
            "saved s",
            "merged",
            "shared scans",
            "waves",
            "rules µs/stmt",
        ],
        &table,
    );
    let mut doc = WorkloadDoc {
        experiment: WorkloadDoc::NAME.to_string(),
        quick: cfg.quick,
        seed: cfg.seed,
        host: None,
        min_reuse_heavy_reduction_pct: REUSE_HEAVY_MIN_REDUCTION_PCT,
        rows,
    };
    kv(
        "worst reuse-heavy makespan reduction",
        format!(
            "{:.1}% (bar: {REUSE_HEAVY_MIN_REDUCTION_PCT}%)",
            doc.worst_reuse_heavy_reduction_pct()
        ),
    );
    harness::write(cfg, &mut doc);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate_doc(text: &str) -> Result<WorkloadDoc, String> {
        harness::parse(text)
    }

    #[test]
    fn quick_matrix_meets_both_acceptance_bars() {
        let doc = run(&ExpConfig::quick_silent());
        assert_eq!(doc.rows.len(), 2 * 2 * 2);
        let text = serde_json::to_string(&doc).unwrap();
        let validated = validate_doc(&text).expect("quick matrix validates");
        assert_eq!(validated.rows.len(), doc.rows.len());
    }

    #[test]
    fn zero_reuse_cells_merge_nothing_structural() {
        let doc = run(&ExpConfig::quick_silent());
        for r in doc.rows.iter().filter(|r| r.reuse == 0.0) {
            // With all-distinct shapes the reuse rule can only merge
            // accidental template collisions, never a Zipf repeat.
            assert!(
                r.merged <= r.queries - r.distinct_shapes,
                "{r:?} merged more than its duplicate count"
            );
            assert!(r.reduction_pct >= NOISE_FLOOR_PCT, "{r:?}");
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let doc = run(&ExpConfig::quick_silent());
        let good = serde_json::to_string(&doc).unwrap();

        let mut worse = doc.clone();
        worse.rows[0].optimized_makespan_secs = worse.rows[0].greedy_makespan_secs * 1.5;
        worse.rows[0].reduction_pct = -50.0;
        let text = serde_json::to_string(&worse).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("WORSE"));

        let mut weak = doc.clone();
        for r in weak.rows.iter_mut().filter(|r| r.reuse >= 0.5) {
            r.reduction_pct = 3.0;
        }
        let text = serde_json::to_string(&weak).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("reuse-heavy"));

        assert!(validate_doc(&good).is_ok());
    }

    /// A two-row document that validates: one reuse-heavy row at
    /// `queries` statements, one reuse-free row at 8.
    fn timed_doc(queries: u64, rules_us_per_stmt: f64) -> WorkloadDoc {
        let row = |queries: u64, reuse: f64, reduction_pct: f64, merged: u64| WorkloadRow {
            queries,
            engines: 5,
            reuse,
            distinct_shapes: 4,
            greedy_makespan_secs: 10.0,
            optimized_makespan_secs: 10.0 * (1.0 - reduction_pct / 100.0),
            reduction_pct,
            reuse_savings_secs: 1.0,
            merged,
            shared_scan_hits: 0,
            waves: 2,
            epoch: 1,
            rules_us_per_stmt: 5.0,
        };
        let mut wide = row(queries, 0.75, 60.0, 3);
        wide.rules_us_per_stmt = rules_us_per_stmt;
        WorkloadDoc {
            experiment: WorkloadDoc::NAME.to_string(),
            quick: false,
            seed: 1,
            host: None,
            min_reuse_heavy_reduction_pct: REUSE_HEAVY_MIN_REDUCTION_PCT,
            rows: vec![wide, row(8, 0.0, 0.0, 0)],
        }
    }

    #[test]
    fn validation_rejects_a_rule_pass_over_the_scaling_bound() {
        let check = |doc: &WorkloadDoc| validate_doc(&serde_json::to_string(doc).unwrap());
        assert!(check(&timed_doc(SCALING_GATE_MIN_QUERIES, MAX_RULES_US_PER_STMT)).is_ok());
        let err = check(&timed_doc(SCALING_GATE_MIN_QUERIES, 1_150.0)).unwrap_err();
        assert!(
            err.contains("row 0: rules_us_per_stmt = 1150.0 at 1024 queries"),
            "{err}"
        );
        // Below the width threshold the bound does not apply.
        assert!(check(&timed_doc(256, 1_150.0)).is_ok());
        // Every row needs a positive duration.
        let err = check(&timed_doc(256, 0.0)).unwrap_err();
        assert!(
            err.contains("rules_us_per_stmt = 0 is not a duration"),
            "{err}"
        );
    }
}
