//! Quickstart: cost a remote join in under a minute.
//!
//! 1. Stand up a (simulated) Hive remote system with two tables.
//! 2. Run the Fig. 5 probe suite on it and fit the sub-op models —
//!    open-box costing, the cheapest way to get a usable cost model.
//! 3. Estimate a join's remote execution time, then actually run the
//!    query and compare.
//!
//! ```text
//! cargo run --release --bin quickstart
//! ```

use catalog::SystemKind;
use costing::sub_op::{RuleInputs, SubOpCosting, SubOpMeasurement, SubOpModels};
use remote_sim::ClusterEngine;
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{probe_suite, register_tables, TableSpec};

fn main() {
    // A Hive-like remote system on the paper's 3-node evaluation cluster.
    let mut hive = ClusterEngine::paper_hive("hive-prod", 42);
    register_tables(
        &mut hive,
        &[
            TableSpec::new(4_000_000, 250),
            TableSpec::new(1_000_000, 250),
        ],
    )
    .expect("tables register");

    // Open-box costing: probe the primitive sub-operators (Fig. 5) and fit
    // the per-record linear models (Fig. 7). A few dozen queries suffice.
    let measurement = SubOpMeasurement::run(&mut hive, &probe_suite());
    println!(
        "probe campaign: {} primitive queries, {:.1} simulated minutes",
        measurement.queries_run,
        measurement.training_time.as_mins()
    );
    let budget =
        hive.profile().memory_per_node_bytes as f64 * 0.10 / hive.profile().cores_per_node as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("models fit");
    let costing = SubOpCosting::for_system(SystemKind::Hive, models, 32.0 * 1024.0 * 1024.0);

    // Estimate a join the optimizer is considering for remote placement.
    let sql = "SELECT r.a1, s.a1 FROM T4000000_250 r JOIN T1000000_250 s \
               ON r.a1 = s.a1 WHERE s.a1 + r.z < 500000";
    let plan = sqlkit::sql_to_plan(sql).expect("sql parses");
    let analysis = analyze(hive.catalog(), &plan).expect("analysis");
    let (info, ctx) = analysis.join.expect("join query");
    let inputs = RuleInputs::from_join(&info, &ctx);
    let estimate = costing.estimate_join(&info, &inputs);
    println!(
        "applicable algorithms: {:?}",
        costing.surviving_algorithms(&inputs)
    );
    println!(
        "estimated remote execution: {:.1} s ({:?})",
        estimate.secs, estimate.source
    );

    // Ground truth: actually run it on the remote system.
    let exec = hive.submit_sql(sql).expect("query runs");
    println!(
        "actual remote execution:    {:.1} s via {} ({} output rows)",
        exec.elapsed.as_secs(),
        exec.join_algorithm
            .map(|a| a.to_string())
            .unwrap_or_default(),
        exec.output_rows
    );
    println!(
        "estimate/actual ratio: {:.2} (the sub-op approach characteristically \
         overestimates a little — see Fig. 13g)",
        estimate.secs / exec.elapsed.as_secs()
    );
}
