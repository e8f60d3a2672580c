//! Open-box (sub-operator) costing, step by step (§4).
//!
//! Shows what the expert path looks like: measure the Fig. 5 primitives
//! without instrumentation, inspect the recovered linear models and the
//! two-regime HashBuild, then watch the applicability rules narrow the
//! algorithm menu and the choice policy resolve the survivors.
//!
//! ```text
//! cargo run --release --bin openbox_subop
//! ```

use catalog::SystemKind;
use costing::sub_op::{RuleInputs, SubOp, SubOpCosting, SubOpMeasurement, SubOpModels};
use remote_sim::ClusterEngine;
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use workload::{probe_suite, register_tables, TableSpec};

fn main() {
    let mut hive = ClusterEngine::paper_hive("hive-openbox", 11);
    register_tables(
        &mut hive,
        &[
            TableSpec::new(8_000_000, 500),
            TableSpec::new(2_000_000, 500),
            TableSpec::new(50_000, 100), // small enough to broadcast
        ],
    )
    .expect("tables register");

    // --- Measure the primitives (Fig. 5's numbered probe queries) ---
    let measurement = SubOpMeasurement::run(&mut hive, &probe_suite());
    let budget =
        hive.profile().memory_per_node_bytes as f64 * 0.10 / hive.profile().cores_per_node as f64;
    let models = SubOpModels::fit(&measurement, budget).expect("models fit");

    println!("recovered per-record models (work µs vs record size):");
    for subop in SubOp::ALL {
        let line = models.line(subop);
        println!(
            "  {:<18} ({:>2})  y = {:.4}x + {:>8.3}   R² = {:.4}   [{:?}]",
            subop.to_string(),
            subop.symbol(),
            line.slope,
            line.intercept,
            line.r2,
            subop.category()
        );
    }
    println!(
        "  HashBuild spill regime: y = {:.4}x + {:.3} (used when the table \
         exceeds the {:.0} MB per-task budget)",
        models.hash_spilled.slope,
        models.hash_spilled.intercept,
        models.task_hash_budget_bytes / 1e6
    );

    let costing = SubOpCosting::for_system(SystemKind::Hive, models, 32.0 * 1024.0 * 1024.0);

    // --- The Fig. 6 formula, as the expert authored it ---
    println!(
        "\nbroadcast-join cost formula (Fig. 6):\n  {}",
        costing::sub_op::algorithms::join_formula(
            catalog::remote::JoinAlgorithm::HiveBroadcastJoin
        )
    );

    // --- Applicability rules in action (§4) ---
    for (label, sql) in [
        (
            "large ⋈ large (broadcast ruled out)",
            "SELECT r.a1, s.a1 FROM T8000000_500 r JOIN T2000000_500 s ON r.a1 = s.a1",
        ),
        (
            "large ⋈ tiny (broadcast applicable)",
            "SELECT r.a1, s.a1 FROM T8000000_500 r JOIN T50000_100 s ON r.a1 = s.a1",
        ),
    ] {
        let plan = sqlkit::sql_to_plan(sql).expect("parses");
        let analysis = analyze(hive.catalog(), &plan).expect("analysis");
        let (info, ctx) = analysis.join.expect("join");
        let inputs = RuleInputs::from_join(&info, &ctx);
        let survivors = costing.surviving_algorithms(&inputs);
        println!("\n{label}");
        println!("  surviving algorithms after the rules:");
        for algo in &survivors {
            println!(
                "    {:<24} {:>9.1} s",
                algo.to_string(),
                costing.estimate_join_with(*algo, &info)
            );
        }
        let estimate = costing.estimate_join(&info, &inputs);
        let actual = hive.submit_sql(sql).expect("runs");
        println!(
            "  policy estimate {:.1} s ({:?}); actual {:.1} s via {}",
            estimate.secs,
            estimate.source,
            actual.elapsed.as_secs(),
            actual
                .join_algorithm
                .map(|a| a.to_string())
                .unwrap_or_default()
        );
    }
}
