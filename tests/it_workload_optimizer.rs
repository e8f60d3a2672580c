//! Integration tests for the layered workload planner (DESIGN.md §17).
//!
//! The federation refactor split planning into a logical layer
//! (`federation::ir`), a rule optimizer (`federation::rules`), and a
//! physical scheduler (`federation::schedule`), and rewired the old
//! per-query entry points as degenerate single-node workloads. The
//! load-bearing contract is that this rewiring changed *nothing*: a
//! singleton workload — and every node of a linear chain — must be
//! **bit-identical** (`f64::to_bits`) to the pre-refactor per-query
//! planner loop replayed inline here. Property tests enforce that over
//! random table sizes, placements, and statement shapes; further tests
//! pin the `SystemId` tie-break, the optimizer's never-worse-than-greedy
//! guarantee on random DAG workloads, and the scheduler's telemetry.

use catalog::{
    Capability, Catalog, ColumnDef, ColumnStats, RemoteSystemProfile, SystemId, SystemKind,
    TableDef, TableStats,
};
use costing::logical_op::flow::LogicalOpCosting;
use costing::service::{EstimatorService, ServiceError};
use costing::{agg_features, join_features, ModelSnapshot, OperatorKind};
use federation::ir::synthetic_table_def;
use federation::planner::PlacementCost;
use federation::{
    build_workload_pinned, enumerate_placements, plan_query_with_service_pinned, plan_workload,
    QueryId, ScheduleConfig, SlotMap, TransferCostModel, WorkloadSpec,
};
use integration_tests::federation_flows;
use proptest::prelude::*;
use sqlkit::analyze::{analyze, QueryAnalysis};
use sqlkit::logical::LogicalPlan;
use std::sync::OnceLock;
use workload::{build_table, dag_base_tables, dag_workload, DagConfig};

/// Per-system cost scales: master first, then the two remotes. Distinct
/// scales keep rankings non-trivial without ties.
const SCALES: [f64; 3] = [2.0, 1.0, 1.4];

/// The shared fitted models, one `(join, agg)` pair per [`SCALES`] entry.
fn trained(scale_idx: usize) -> (LogicalOpCosting, LogicalOpCosting) {
    static FLOWS: OnceLock<Vec<(LogicalOpCosting, LogicalOpCosting)>> = OnceLock::new();
    FLOWS.get_or_init(|| SCALES.iter().map(|s| federation_flows(*s)).collect())[scale_idx].clone()
}

/// A fresh service with the shared models registered for the master and
/// both remotes. Fresh per call so telemetry assertions stay isolated.
fn three_engine_service() -> EstimatorService {
    let service = EstimatorService::default();
    for (i, id) in ["teradata", "hive-a", "hive-b"].iter().enumerate() {
        let (j, a) = trained(i);
        service.register(SystemId::new(id), j);
        service.register(SystemId::new(id), a);
    }
    service
}

/// A catalog with the master and two Hive remotes plus the given tables
/// (`(name, owning system, rows)`), using the planner tests' stats shape.
fn catalog_with(tables: &[(&str, &str, u64)]) -> Catalog {
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
    for id in ["hive-a", "hive-b"] {
        catalog
            .register_system(RemoteSystemProfile::paper_hive_cluster(id))
            .expect("unique system ids");
    }
    for &(name, sys, rows) in tables {
        let stats = TableStats::new(rows, 250)
            .with_column("a1", ColumnStats::duplicated_range(rows, 1))
            .with_column("a5", ColumnStats::duplicated_range(rows / 10, 10));
        catalog
            .register_table(TableDef::new(
                name,
                vec![
                    ColumnDef::int("a1"),
                    ColumnDef::int("a5"),
                    ColumnDef::chars("d", 242),
                ],
                stats,
                SystemId::new(sys),
            ))
            .expect("unique table names");
    }
    catalog
}

/// A query's execution time on one system, one pinned estimate per
/// operator the analysis found (join and/or aggregation), summed — the
/// per-candidate half of the oracle below. `Err` when the snapshot has
/// no model for a required operator on that system, or the query is
/// scan-only.
fn service_execution_secs_pinned(
    service: &EstimatorService,
    snapshot: &ModelSnapshot,
    system: &SystemId,
    analysis: &QueryAnalysis,
) -> Result<f64, ServiceError> {
    let mut total = 0.0;
    let mut costed = false;
    if analysis.join.is_some() {
        if let Some(f) = join_features(analysis) {
            total += service
                .estimate_pinned(snapshot, system, OperatorKind::Join, &f)?
                .secs;
            costed = true;
        }
    }
    if analysis.agg.is_some() {
        if let Some(f) = agg_features(analysis) {
            total += service
                .estimate_pinned(snapshot, system, OperatorKind::Aggregation, &f)?
                .secs;
            costed = true;
        }
    }
    if !costed {
        return Err(ServiceError::UnknownModel {
            system: system.clone(),
            op: OperatorKind::Scan,
        });
    }
    Ok(total)
}

/// The pre-refactor per-query planner loop, replayed inline: enumerate
/// placements, cost each candidate's execution through the pinned
/// service path (skipping systems without models), sum its transfers,
/// and sort by total cost with the `SystemId` tie-break. This is the
/// oracle the workload path must match bit-for-bit.
fn replay_per_query(
    catalog: &Catalog,
    service: &EstimatorService,
    snapshot: &ModelSnapshot,
    transfer_model: &TransferCostModel,
    plan: &LogicalPlan,
) -> Vec<PlacementCost> {
    let options = enumerate_placements(catalog, plan).expect("placements enumerate");
    let analysis = analyze(catalog, plan).expect("plan analyzes");
    let mut costs = Vec::new();
    for option in options {
        let execution_secs =
            match service_execution_secs_pinned(service, snapshot, &option.system, &analysis) {
                Ok(secs) => secs,
                Err(_) => continue,
            };
        let transfer_secs: f64 = option
            .transfers
            .iter()
            .map(|t| transfer_model.transfer_secs(t.bytes, t.hops))
            .sum::<f64>()
            + 0.0;
        costs.push(PlacementCost {
            option,
            execution_secs,
            transfer_secs,
        });
    }
    costs.sort_by(|a, b| {
        mathkit::total_cmp_f64(&a.total_secs(), &b.total_secs())
            .then_with(|| a.option.system.cmp(&b.option.system))
    });
    costs
}

/// Asserts two candidate lists agree bit-for-bit, in order.
fn assert_candidates_bit_identical(got: &[PlacementCost], want: &[PlacementCost]) {
    assert_eq!(got.len(), want.len(), "candidate counts diverge");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.option.system, w.option.system, "candidate {i} system");
        assert_eq!(
            g.execution_secs.to_bits(),
            w.execution_secs.to_bits(),
            "candidate {i} execution_secs: got {} want {}",
            g.execution_secs,
            w.execution_secs
        );
        assert_eq!(
            g.transfer_secs.to_bits(),
            w.transfer_secs.to_bits(),
            "candidate {i} transfer_secs: got {} want {}",
            g.transfer_secs,
            w.transfer_secs
        );
    }
}

proptest! {
    /// A singleton workload through the layered planner is bit-identical
    /// to the pre-refactor per-query loop, over random table sizes,
    /// placements, and statement shapes.
    #[test]
    fn prop_singleton_is_bit_identical_to_per_query_replay(
        rows_r in 1_000u64..4_000_000,
        rows_s in 1_000u64..4_000_000,
        loc_r in proptest::sample::select(vec!["hive-a", "hive-b", "teradata"]),
        loc_s in proptest::sample::select(vec!["hive-a", "hive-b", "teradata"]),
        shape in proptest::sample::select(vec![
            "SELECT r.a1, s.a1 FROM t_r r JOIN t_s s ON r.a1 = s.a1",
            "SELECT a5, SUM(a1) AS s1 FROM t_r GROUP BY a5",
            "SELECT a5, SUM(a1) AS s1 FROM t_s GROUP BY a5",
        ]),
    ) {
        let catalog = catalog_with(&[("t_r", loc_r, rows_r), ("t_s", loc_s, rows_s)]);
        let service = three_engine_service();
        let snapshot = service.snapshot();
        let transfer = TransferCostModel::default();
        let plan = sqlkit::sql_to_plan(shape).expect("fixture SQL parses");

        let report =
            plan_query_with_service_pinned(&catalog, &service, &snapshot, &transfer, &plan)
                .expect("singleton plans");
        let replay = replay_per_query(&catalog, &service, &snapshot, &transfer, &plan);

        prop_assert_eq!(report.epoch, Some(snapshot.epoch().get()));
        assert_candidates_bit_identical(&report.candidates, &replay);
    }

    /// Every node of a linear-chain workload (each statement consuming
    /// the previous statement's published intermediate) is bit-identical
    /// to planning the statements one at a time the pre-refactor way:
    /// plan, pick the greedy winner, register the intermediate's
    /// synthetic stats at that engine, repeat.
    #[test]
    fn prop_linear_chain_is_bit_identical_to_sequential_planning(
        rows in 10_000u64..2_000_000,
        loc in proptest::sample::select(vec!["hive-a", "hive-b", "teradata"]),
        len in 2usize..5,
        start_with_join in any::<bool>(),
    ) {
        let catalog = catalog_with(&[("t_base", loc, rows)]);
        let service = three_engine_service();
        let snapshot = service.snapshot();
        let transfer = TransferCostModel::default();

        // q0 aggregates the base table; q_k alternates join/agg over
        // out_{k-1}. Every statement publishes an intermediate.
        let mut sqls = vec!["SELECT a5, SUM(a1) AS s1 FROM t_base GROUP BY a5".to_string()];
        for k in 1..len {
            let prev = k - 1;
            let join_turn = (k % 2 == 1) == start_with_join;
            sqls.push(if join_turn {
                format!("SELECT r.a1, s.a1 FROM out_{prev} r JOIN t_base s ON r.a1 = s.a1")
            } else {
                format!("SELECT a5, SUM(a1) AS s1 FROM out_{prev} GROUP BY a5")
            });
        }
        let mut spec = WorkloadSpec::default();
        for (k, sql) in sqls.iter().enumerate() {
            spec.push_sql(&format!("q{k}"), sql, Some(&format!("out_{k}")))
                .expect("chain SQL parses");
        }

        let workload = build_workload_pinned(
            &catalog,
            &service,
            &snapshot,
            &transfer,
            &spec,
            &SlotMap::default(),
        )
        .expect("chain workload builds");

        // Sequential replay: each statement planned against a catalog
        // augmented with the previous intermediates at their winners.
        let mut aug = catalog.clone();
        for (k, sql) in sqls.iter().enumerate() {
            let plan = sqlkit::sql_to_plan(sql).expect("chain SQL parses");
            let replay = replay_per_query(&aug, &service, &snapshot, &transfer, &plan);
            prop_assert!(!replay.is_empty(), "statement {} replays", k);
            let report = workload
                .node_report(QueryId(k))
                .expect("chain node has a report");
            assert_candidates_bit_identical(&report.candidates, &replay);

            let analysis = analyze(&aug, &plan).expect("chain plan analyzes");
            let winner = replay[0].option.system.clone();
            aug.register_table(synthetic_table_def(
                &format!("out_{k}"),
                analysis.root.rows,
                analysis.root.total_bytes(),
                &winner,
            ))
            .expect("unique intermediate names");
        }
    }

    /// The rule optimizer never produces a schedule worse than the
    /// greedy per-query baseline, on random DAG-shaped workloads across
    /// reuse levels, and its merge accounting stays consistent.
    #[test]
    fn prop_optimizer_never_worse_than_greedy(
        queries in 4usize..14,
        reuse in 0.0f64..0.9,
        engines in 2usize..4,
        seed in any::<u64>(),
    ) {
        let dag_cfg = DagConfig {
            queries,
            reuse,
            seed,
            ..DagConfig::default()
        };
        let (catalog, service) = dag_setup(engines, &dag_cfg);
        let mut spec = WorkloadSpec::default();
        for stmt in dag_workload(&dag_cfg) {
            spec.push_sql(&stmt.label, &stmt.sql, stmt.output.as_deref())
                .expect("generated SQL parses");
        }
        let outcome = plan_workload(
            &catalog,
            &service,
            &TransferCostModel::default(),
            &spec,
            &ScheduleConfig {
                slots: SlotMap::uniform(1),
                ..ScheduleConfig::default()
            },
        )
        .expect("workload plans");

        prop_assert!(
            outcome.optimized.makespan_secs <= outcome.greedy.makespan_secs + 1e-9,
            "optimizer regressed the makespan: {} > {}",
            outcome.optimized.makespan_secs,
            outcome.greedy.makespan_secs
        );
        prop_assert!(
            outcome.optimized.total_secs <= outcome.greedy.total_secs + 1e-9,
            "optimizer regressed total work: {} > {}",
            outcome.optimized.total_secs,
            outcome.greedy.total_secs
        );
        let merged = outcome
            .optimized
            .queries
            .iter()
            .filter(|q| q.merged_into.is_some())
            .count();
        prop_assert_eq!(outcome.optimized.merged_queries, merged);
        prop_assert_eq!(outcome.greedy.merged_queries, 0);
        prop_assert_eq!(outcome.optimized.queries.len(), queries);
    }
}

/// A catalog + service over the DAG generator's base-table pool, spread
/// round-robin across `engines - 1` remotes — the bench experiment's
/// setup in miniature.
fn dag_setup(engines: usize, dag: &DagConfig) -> (Catalog, EstimatorService) {
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
    let (j, a) = trained(0);
    service.register(SystemId::master(), j);
    service.register(SystemId::master(), a);
    for (i, id) in remotes.iter().enumerate() {
        let (j, a) = trained(1 + i % 2);
        service.register(id.clone(), j);
        service.register(id.clone(), a);
    }
    (catalog, service)
}

/// FNV-1a over a byte slice, folded into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// What the optimizer decided for one workload, reduced to constants:
/// fires per rule, the trace (rule names and `before`/`after` bits) and
/// the final plan state as FNV-1a digests, and both reports' makespan
/// and total bits.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// Fires of `shared_scan_dedup`, `reuse_intermediates`,
    /// `placement_pinning`.
    fires: [usize; 3],
    iterations: usize,
    trace: u64,
    assignment: u64,
    merged_into: u64,
    share_scans: bool,
    /// Greedy report `[makespan, total]` bits.
    greedy: [u64; 2],
    /// Optimized report `[makespan, total]` bits.
    optimized: [u64; 2],
}

fn pin(queries: usize, engines: usize, seed: u64) -> Pinned {
    let dag_cfg = DagConfig {
        queries,
        reuse: 0.5,
        seed,
        ..DagConfig::default()
    };
    let (catalog, service) = dag_setup(engines, &dag_cfg);
    let mut spec = WorkloadSpec::default();
    for stmt in dag_workload(&dag_cfg) {
        spec.push_sql(&stmt.label, &stmt.sql, stmt.output.as_deref())
            .expect("generated SQL parses");
    }
    let outcome = plan_workload(
        &catalog,
        &service,
        &TransferCostModel::default(),
        &spec,
        &ScheduleConfig {
            slots: SlotMap::uniform(1),
            ..ScheduleConfig::default()
        },
    )
    .expect("workload plans");
    let fires = [
        "shared_scan_dedup",
        "reuse_intermediates",
        "placement_pinning",
    ]
    .map(|rule| {
        outcome
            .trace
            .applications
            .iter()
            .filter(|a| a.rule == rule)
            .count()
    });
    let mut trace = 0xcbf2_9ce4_8422_2325;
    for a in &outcome.trace.applications {
        fnv1a(&mut trace, a.rule.as_bytes());
        for v in [
            a.before.makespan_secs,
            a.before.total_secs,
            a.after.makespan_secs,
            a.after.total_secs,
        ] {
            fnv1a(&mut trace, &v.to_bits().to_le_bytes());
        }
    }
    let mut assignment = 0xcbf2_9ce4_8422_2325;
    for system in &outcome.plan.assignment {
        fnv1a(&mut assignment, system.as_str().as_bytes());
        fnv1a(&mut assignment, b";");
    }
    let mut merged_into = 0xcbf2_9ce4_8422_2325;
    for m in &outcome.plan.merged_into {
        let v = m.map_or(u64::MAX, |c| c.0 as u64);
        fnv1a(&mut merged_into, &v.to_le_bytes());
    }
    Pinned {
        fires,
        iterations: outcome.trace.iterations,
        trace,
        assignment,
        merged_into,
        share_scans: outcome.plan.share_scans,
        greedy: [
            outcome.greedy.makespan_secs.to_bits(),
            outcome.greedy.total_secs.to_bits(),
        ],
        optimized: [
            outcome.optimized.makespan_secs.to_bits(),
            outcome.optimized.total_secs.to_bits(),
        ],
    }
}

/// The optimizer's decisions on seeded DAGs of 8, 48 and 256 statements,
/// pinned to constants recorded before the rule pass moved from plan
/// copies to an interned plan state: any change to candidate order, the
/// acceptance predicate or the simulator's float arithmetic shows here.
#[test]
fn optimizer_decisions_match_pinned_goldens() {
    let cases = [
        (
            (8, 3, 3),
            Pinned {
                fires: [0, 3, 0],
                iterations: 4,
                trace: 0x7bd4_160e_2992_d309,
                assignment: 0x756d_cbc3_48c8_73cc,
                merged_into: 0xf100_47e7_5257_9ac7,
                share_scans: false,
                greedy: [0x401c_90f4_31ff_4952, 0x4029_92b4_406a_cddf],
                optimized: [0x4012_7e7b_15a6_52cc, 0x401d_eba9_900c_7020],
            },
        ),
        (
            (48, 5, 1),
            Pinned {
                fires: [1, 12, 3],
                iterations: 17,
                trace: 0x7a56_d8bd_85bc_96eb,
                assignment: 0x98ff_82f6_0fc0_21ec,
                merged_into: 0x40d1_0d71_29e5_b83d,
                share_scans: true,
                greedy: [0x4053_55b9_d40b_c648, 0x4062_e389_459a_8556],
                optimized: [0x4033_a189_68fd_7ab4, 0x404d_75e2_3599_7a7f],
            },
        ),
        (
            (256, 5, 2),
            Pinned {
                fires: [1, 53, 3],
                iterations: 58,
                trace: 0x54a1_a450_e205_dd77,
                assignment: 0x8dea_b1b1_82a4_3f92,
                merged_into: 0xddf5_1073_8975_fe5a,
                share_scans: true,
                greedy: [0x4079_5f9c_424b_58c7, 0x4086_54a2_0cea_9120],
                optimized: [0x4056_246c_9f36_b1da, 0x406a_05b6_9114_be25],
            },
        ),
    ];
    for ((queries, engines, seed), want) in cases {
        let got = pin(queries, engines, seed);
        assert_eq!(
            got, want,
            "{queries} statements, {engines} engines, seed {seed}"
        );
    }
}

/// Two systems with identical models and symmetric table placement tie
/// exactly on total cost; the ranking must pick the lexicographically
/// smaller `SystemId` regardless of registration order.
#[test]
fn equal_cost_ties_break_by_system_id_in_either_registration_order() {
    for order in [["sys-a", "sys-b"], ["sys-b", "sys-a"]] {
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
        for id in order {
            catalog
                .register_system(RemoteSystemProfile::paper_hive_cluster(id))
                .expect("unique system ids");
        }
        // One identically-sized table on each remote: both candidates
        // run one side locally and ship the other the same distance.
        for (name, sys) in [("t_1", order[0]), ("t_2", order[1])] {
            let rows = 500_000u64;
            let stats = TableStats::new(rows, 250)
                .with_column("a1", ColumnStats::duplicated_range(rows, 1))
                .with_column("a5", ColumnStats::duplicated_range(rows / 10, 10));
            catalog
                .register_table(TableDef::new(
                    name,
                    vec![
                        ColumnDef::int("a1"),
                        ColumnDef::int("a5"),
                        ColumnDef::chars("d", 242),
                    ],
                    stats,
                    SystemId::new(sys),
                ))
                .expect("unique table names");
        }
        // Identical models on both remotes, none on the master: the
        // master candidate is skipped, leaving exactly the tied pair.
        let service = EstimatorService::default();
        for id in order {
            let (j, a) = trained(1);
            service.register(SystemId::new(id), j);
            service.register(SystemId::new(id), a);
        }
        let snapshot = service.snapshot();
        let plan = sqlkit::sql_to_plan("SELECT r.a1, s.a1 FROM t_1 r JOIN t_2 s ON r.a1 = s.a1")
            .expect("fixture SQL parses");
        let report = plan_query_with_service_pinned(
            &catalog,
            &service,
            &snapshot,
            &TransferCostModel::default(),
            &plan,
        )
        .expect("tied query plans");

        assert_eq!(report.candidates.len(), 2, "order {order:?}");
        // The tie is real: totals agree to the bit.
        assert_eq!(
            report.candidates[0].total_secs().to_bits(),
            report.candidates[1].total_secs().to_bits(),
            "fixture no longer produces an exact tie (order {order:?})"
        );
        assert_eq!(
            report.best().option.system,
            SystemId::new("sys-a"),
            "tie must break to the smaller SystemId (order {order:?})"
        );
        assert_eq!(report.candidates[1].option.system, SystemId::new("sys-b"));
    }
}

/// One `plan_workload` call lands the full scheduler counter set on the
/// service's telemetry: workloads, scheduled + merged partition the
/// statement count, and waves are at least one.
#[test]
fn scheduler_counters_account_for_every_statement() {
    let dag_cfg = DagConfig {
        queries: 12,
        reuse: 0.75,
        seed: 11,
        ..DagConfig::default()
    };
    let (catalog, service) = dag_setup(3, &dag_cfg);
    let mut spec = WorkloadSpec::default();
    for stmt in dag_workload(&dag_cfg) {
        spec.push_sql(&stmt.label, &stmt.sql, stmt.output.as_deref())
            .expect("generated SQL parses");
    }
    let outcome = plan_workload(
        &catalog,
        &service,
        &TransferCostModel::default(),
        &spec,
        &ScheduleConfig::default(),
    )
    .expect("workload plans");

    let scheduler = &service.telemetry().scheduler;
    assert_eq!(scheduler.workloads.get(), 1);
    assert_eq!(
        scheduler.scheduled.get() + scheduler.merged.get(),
        12,
        "scheduled + merged must partition the statement count"
    );
    assert_eq!(
        scheduler.merged.get(),
        outcome.optimized.merged_queries as u64
    );
    assert!(scheduler.waves.get() >= 1);
    // A reuse-heavy workload (75% duplicate shapes) must actually merge.
    assert!(
        outcome.optimized.merged_queries > 0,
        "reuse-heavy workload produced no merges"
    );
    assert!(
        outcome.makespan_reduction_pct() >= 0.0,
        "optimizer must never lose to greedy"
    );
}
