//! The simulated engine behind the remote-system boundary.
//!
//! [`ClusterEngine`] implements [`RemoteSystem`] — the interface the
//! costing crate programs against, defined in `sqlkit` — by compiling
//! logical plans to jobs via the persona's hidden cost model.

use crate::{
    cluster::ClusterConfig,
    exec::{ExecModel, Job},
    noise::NoiseSource,
    personas::Persona,
    remote_opt::{choose_agg, choose_join},
};
use catalog::remote::{AggAlgorithm, JoinAlgorithm, ProbeSpec, SimDuration};
use catalog::{Capability, Catalog, RemoteSystemProfile, SystemId, SystemKind, TableDef};
use sqlkit::cardinality::NodeEstimate;
use sqlkit::logical::{LogicalOp, LogicalPlan};
use sqlkit::remote::{EngineError, Execution, RemoteSystem};

/// A simulated cluster engine (Hive, Spark, or RDBMS persona).
pub struct ClusterEngine {
    id: SystemId,
    persona: Persona,
    cluster: ClusterConfig,
    profile: RemoteSystemProfile,
    catalog: Catalog,
    noise: NoiseSource,
    busy: SimDuration,
    queries: u64,
}

impl ClusterEngine {
    /// Creates an engine. `seed` drives the execution-time noise.
    #[expect(
        clippy::expect_used,
        reason = "a fresh catalog holds no system, so registering the first cannot collide"
    )]
    pub fn new(id: &str, persona: Persona, cluster: ClusterConfig, seed: u64) -> Self {
        let sys_id = SystemId::new(id);
        let profile = RemoteSystemProfile::new(
            sys_id.clone(),
            persona.kind,
            cluster.nodes,
            cluster.cores_per_node,
            cluster.memory_per_node_bytes,
            vec![
                Capability::Filter,
                Capability::Project,
                Capability::Join,
                Capability::Aggregate,
            ],
        );
        let mut catalog = Catalog::new();
        catalog
            .register_system(profile.clone())
            .expect("fresh catalog");
        let noise = NoiseSource::new(seed, persona.noise_sigma);
        ClusterEngine {
            id: sys_id,
            persona,
            cluster,
            profile,
            catalog,
            noise,
            busy: SimDuration::ZERO,
            queries: 0,
        }
    }

    /// The paper's evaluation target: a Hive persona on the §7 cluster.
    pub fn paper_hive(id: &str, seed: u64) -> Self {
        ClusterEngine::new(
            id,
            crate::personas::hive_persona(),
            ClusterConfig::paper_hive(),
            seed,
        )
    }

    /// Disables execution noise (tests and calibration baselines).
    pub fn without_noise(mut self) -> Self {
        self.noise = NoiseSource::disabled(0);
        self
    }

    /// Reseeds the execution-noise stream explicitly, keeping the
    /// persona's sigma. Two engines driven through identical query
    /// sequences after identical reseeds report identical elapsed times —
    /// the determinism contract the evaluation experiments rely on.
    pub fn with_noise_seed(mut self, seed: u64) -> Self {
        self.noise = NoiseSource::new(seed, self.persona.noise_sigma);
        self
    }

    /// Registers a table as stored on this system.
    pub fn register_table(&mut self, mut table: TableDef) -> Result<(), EngineError> {
        table.location = self.id.clone();
        self.catalog
            .register_table(table)
            .map_err(|e| EngineError::Sql(e.to_string()))
    }

    fn exec_model(&self) -> ExecModel<'_> {
        ExecModel {
            micro: &self.persona.micro,
            cluster: &self.cluster,
        }
    }

    /// Runs jobs through the clock: sums elapsed, applies noise, accrues
    /// busy time.
    fn finish(
        &mut self,
        jobs: &[Job],
        out: NodeEstimate,
        join_algorithm: Option<JoinAlgorithm>,
        agg_algorithm: Option<AggAlgorithm>,
    ) -> Execution {
        let raw: SimDuration = jobs
            .iter()
            .map(|j| j.elapsed(&self.cluster, &self.persona.overheads))
            .sum();
        let elapsed = (raw * self.noise.factor()).max_zero();
        self.busy += elapsed;
        self.queries += 1;
        // Attribute the engine-side *simulated* elapsed time to any
        // request span sampled on this thread. RemoteExec is simulated
        // seconds, not wall time, so the span layer keeps it out of the
        // wall-clock stage identities.
        telemetry::span::attribute(telemetry::span::Stage::RemoteExec, elapsed.as_secs() * 1e6);
        Execution {
            elapsed,
            output_rows: out.rows.round().max(0.0) as u64,
            output_row_bytes: out.row_bytes.round().max(1.0) as u64,
            join_algorithm,
            agg_algorithm,
        }
    }

    /// Explains how this engine would execute a query, without running it
    /// (no clock advance, no noise).
    pub fn explain(&self, sql: &str) -> Result<Explain, EngineError> {
        let plan = sqlkit::sql_to_plan(sql).map_err(|e| EngineError::Sql(e.to_string()))?;
        let compiled = compile(
            &self.catalog,
            &self.profile,
            &self.persona,
            &self.cluster,
            &self.exec_model(),
            &plan,
        )?;
        let estimated: SimDuration = compiled
            .jobs
            .iter()
            .map(|j| j.elapsed(&self.cluster, &self.persona.overheads))
            .sum();
        Ok(Explain {
            logical: plan.root.describe(),
            join_algorithm: compiled.join_algorithm,
            agg_algorithm: compiled.agg_algorithm,
            stages: compiled
                .jobs
                .iter()
                .flat_map(|j| &j.stages)
                .map(|s| (s.tasks, s.io_us / 1e6, s.cpu_us / 1e6))
                .collect(),
            estimated_rows: compiled.out.rows.round().max(0.0) as u64,
            estimated_secs: estimated.as_secs(),
        })
    }

    /// Compiles and costs a plan.
    fn run_plan(&mut self, plan: &LogicalPlan) -> Result<Execution, EngineError> {
        let compiled = compile(
            &self.catalog,
            &self.profile,
            &self.persona,
            &self.cluster,
            &self.exec_model(),
            plan,
        )?;
        Ok(self.finish(
            &compiled.jobs,
            compiled.out,
            compiled.join_algorithm,
            compiled.agg_algorithm,
        ))
    }
}

impl RemoteSystem for ClusterEngine {
    fn id(&self) -> &SystemId {
        &self.id
    }

    fn profile(&self) -> &RemoteSystemProfile {
        &self.profile
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn submit_sql(&mut self, sql: &str) -> Result<Execution, EngineError> {
        let plan = sqlkit::sql_to_plan(sql).map_err(|e| EngineError::Sql(e.to_string()))?;
        self.run_plan(&plan)
    }

    fn submit_plan(&mut self, plan: &LogicalPlan) -> Result<Execution, EngineError> {
        self.run_plan(plan)
    }

    fn submit_probe(&mut self, probe: &ProbeSpec) -> Result<Execution, EngineError> {
        let job = self.exec_model().probe_job(probe);
        let out = NodeEstimate {
            rows: 0.0,
            row_bytes: 1.0,
        };
        Ok(self.finish(&[job], out, None, None))
    }

    fn total_busy(&self) -> SimDuration {
        self.busy
    }

    fn queries_executed(&self) -> u64 {
        self.queries
    }
}

/// A compiled query: the jobs to run plus bookkeeping.
/// A human-readable physical-plan explanation (the engine's `EXPLAIN`).
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The logical plan, one-line form.
    pub(crate) logical: String,
    /// The chosen join algorithm, if any.
    pub(crate) join_algorithm: Option<JoinAlgorithm>,
    /// The chosen aggregation algorithm, if any.
    pub(crate) agg_algorithm: Option<AggAlgorithm>,
    /// Per-job stage summaries: (tasks, io work s, cpu work s).
    pub(crate) stages: Vec<(u64, f64, f64)>,
    /// Estimated output rows.
    pub(crate) estimated_rows: u64,
    /// Estimated elapsed time (noise-free), seconds.
    pub(crate) estimated_secs: f64,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan: {}", self.logical)?;
        if let Some(a) = self.join_algorithm {
            writeln!(f, "join algorithm: {a}")?;
        }
        if let Some(a) = self.agg_algorithm {
            writeln!(f, "aggregation algorithm: {a}")?;
        }
        for (i, (tasks, io, cpu)) in self.stages.iter().enumerate() {
            writeln!(
                f,
                "stage {i}: {tasks} task(s), io work {io:.2}s, cpu work {cpu:.2}s"
            )?;
        }
        write!(
            f,
            "estimated: {} rows in {:.2}s",
            self.estimated_rows, self.estimated_secs
        )
    }
}

/// A compiled query: the jobs to run plus bookkeeping.
struct Compiled {
    jobs: Vec<Job>,
    out: NodeEstimate,
    join_algorithm: Option<JoinAlgorithm>,
    agg_algorithm: Option<AggAlgorithm>,
}

/// Compiles a logical plan into jobs using the persona's optimizer and the
/// shared query analysis of [`sqlkit::analyze`].
fn compile(
    catalog: &Catalog,
    profile: &RemoteSystemProfile,
    persona: &Persona,
    cluster: &ClusterConfig,
    em: &ExecModel<'_>,
    plan: &LogicalPlan,
) -> Result<Compiled, EngineError> {
    let analysis = sqlkit::analyze::analyze(catalog, plan)?;
    let mut jobs = Vec::new();
    let mut join_algorithm = None;
    let mut agg_algorithm = None;
    let distributed = !matches!(persona.kind, SystemKind::Rdbms | SystemKind::Teradata);

    match analysis.core {
        sqlkit::analyze::CoreKind::Join => {
            if !profile.supports(Capability::Join) {
                return Err(EngineError::CapabilityMissing(Capability::Join));
            }
            // Nested joins on the left compile recursively as upstream jobs.
            if analysis.nested_join {
                if let Some(left_plan) = nested_left_join_plan(plan) {
                    let inner = compile(catalog, profile, persona, cluster, em, &left_plan)?;
                    jobs.extend(inner.jobs);
                }
            }
            let (info, ctx) = analysis.join.ok_or_else(|| {
                EngineError::Unsupported("a join core without a join analysis".into())
            })?;
            let algo = choose_join(persona.kind, &persona.rules, cluster, &info, &ctx);
            join_algorithm = Some(algo);
            jobs.push(em.join_job(algo, &info));
        }
        sqlkit::analyze::CoreKind::Scan => {
            if analysis.agg.is_none() {
                let scan_in = analysis.scan_in.ok_or_else(|| {
                    EngineError::Unsupported("a scan core without a scan analysis".into())
                })?;
                jobs.push(em.scan_job(
                    scan_in.rows,
                    scan_in.row_bytes,
                    analysis.root.rows,
                    analysis.root.row_bytes,
                    distributed,
                ));
            }
        }
    }

    if let Some(a) = analysis.agg {
        if !profile.supports(Capability::Aggregate) {
            return Err(EngineError::CapabilityMissing(Capability::Aggregate));
        }
        let algo = choose_agg(cluster, &a);
        agg_algorithm = Some(algo);
        jobs.push(em.agg_job(algo, &a, distributed));
    }

    // An ORDER BY adds a final sort pass over its input (the paper's sort
    // sub-op applied to the result stream). LIMIT itself is free — it only
    // reduces what is returned (already reflected in `analysis.root`).
    if let Some(sort_in) = analysis.sort_in {
        jobs.push(em.sort_job(sort_in.rows, sort_in.row_bytes, distributed));
    }

    Ok(Compiled {
        jobs,
        out: analysis.root,
        join_algorithm,
        agg_algorithm,
    })
}

/// Extracts the left input of the topmost join as a standalone plan (for
/// recursive compilation of multi-join queries).
fn nested_left_join_plan(plan: &LogicalPlan) -> Option<LogicalPlan> {
    fn find_join(op: &LogicalOp) -> Option<&LogicalOp> {
        match op {
            LogicalOp::Join { .. } => Some(op),
            LogicalOp::Filter { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Sort { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Aggregate { input, .. } => find_join(input),
            LogicalOp::Scan { .. } => None,
        }
    }
    if let Some(LogicalOp::Join { left, .. }) = find_join(&plan.root) {
        if left.join_count() > 0 {
            return Some(LogicalPlan {
                root: left.as_ref().clone(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{ColumnDef, ColumnStats, TableStats};

    /// Registers a Fig. 10-style table `name` with `rows` rows of `size`
    /// bytes on the engine.
    fn add_table(e: &mut ClusterEngine, name: &str, rows: u64, size: u64) {
        let mut stats = TableStats::new(rows, size);
        let mut schema = Vec::new();
        for dup in [1u64, 2, 5, 10, 20, 50, 100] {
            let col = format!("a{dup}");
            stats = stats.with_column(&col, ColumnStats::duplicated_range(rows, dup));
            schema.push(ColumnDef::int(&col));
        }
        stats = stats.with_column("z", ColumnStats::constant(0));
        schema.push(ColumnDef::int("z"));
        schema.push(ColumnDef::chars(
            "dummy",
            size.saturating_sub(32).max(1) as u32,
        ));
        let t = TableDef::new(name, schema, stats, SystemId::new("ignored"));
        e.register_table(t).unwrap();
    }

    fn hive_engine() -> ClusterEngine {
        let mut e = ClusterEngine::paper_hive("hive-a", 7).without_noise();
        add_table(&mut e, "t_big", 1_000_000, 250);
        add_table(&mut e, "t_small", 100_000, 100);
        add_table(&mut e, "t_tiny", 10_000, 40);
        e
    }

    /// The same query mix every determinism test drives.
    fn run_mix(e: &mut ClusterEngine) -> Vec<SimDuration> {
        [
            "SELECT a1 FROM t_small WHERE a1 < 50000",
            "SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1",
            "SELECT a5, SUM(a1) AS s FROM t_big GROUP BY a5",
            "SELECT r.a1, s.a1 FROM t_big r JOIN t_tiny s ON r.a1 = s.a1",
            "SELECT a10, SUM(a2) AS s FROM t_small GROUP BY a10",
        ]
        .iter()
        .map(|sql| e.submit_sql(sql).unwrap().elapsed)
        .collect()
    }

    fn noisy_engine(seed: u64) -> ClusterEngine {
        let mut e = ClusterEngine::paper_hive("hive-a", seed);
        add_table(&mut e, "t_big", 1_000_000, 250);
        add_table(&mut e, "t_small", 100_000, 100);
        add_table(&mut e, "t_tiny", 10_000, 40);
        e
    }

    #[test]
    fn same_seed_runs_report_identical_elapsed_times() {
        let mut a = noisy_engine(42);
        let mut b = noisy_engine(42);
        assert_eq!(run_mix(&mut a), run_mix(&mut b));
        assert_eq!(a.total_busy(), b.total_busy());
        // Different seeds jitter differently (noise is actually applied).
        let mut c = noisy_engine(43);
        assert_ne!(run_mix(&mut a), run_mix(&mut c));
    }

    #[test]
    fn explicit_noise_reseed_overrides_the_construction_seed() {
        let mut a = noisy_engine(1).with_noise_seed(777);
        let mut b = noisy_engine(2).with_noise_seed(777);
        assert_eq!(run_mix(&mut a), run_mix(&mut b));
    }

    #[test]
    fn scan_query_runs_and_reports_output() {
        let mut e = hive_engine();
        let x = e
            .submit_sql("SELECT a1 FROM t_small WHERE a1 < 50000")
            .unwrap();
        assert!(x.elapsed > SimDuration::ZERO);
        assert!((x.output_rows as f64 - 50_000.0).abs() < 1_000.0);
        assert_eq!(e.queries_executed(), 1);
        assert_eq!(e.total_busy(), x.elapsed);
    }

    #[test]
    fn small_build_side_triggers_broadcast_join() {
        let mut e = hive_engine();
        let x = e
            .submit_sql("SELECT r.a1, s.a1 FROM t_big r JOIN t_tiny s ON r.a1 = s.a1")
            .unwrap();
        assert_eq!(x.join_algorithm, Some(JoinAlgorithm::HiveBroadcastJoin));
        assert!((x.output_rows as f64 - 10_000.0).abs() < 100.0);
    }

    #[test]
    fn large_sides_trigger_shuffle_join() {
        let mut e = ClusterEngine::paper_hive("hive-a", 7).without_noise();
        add_table(&mut e, "r_big", 10_000_000, 500);
        add_table(&mut e, "s_big", 8_000_000, 500);
        let x = e
            .submit_sql("SELECT r.a1, s.a1 FROM r_big r JOIN s_big s ON r.a1 = s.a1")
            .unwrap();
        assert_eq!(x.join_algorithm, Some(JoinAlgorithm::HiveShuffleJoin));
    }

    #[test]
    fn aggregation_query_reports_algorithm_and_groups() {
        let mut e = hive_engine();
        let x = e
            .submit_sql("SELECT a5, SUM(a1) AS s FROM t_big GROUP BY a5")
            .unwrap();
        assert_eq!(x.agg_algorithm, Some(AggAlgorithm::HashAggregate));
        assert!((x.output_rows as f64 - 200_000.0).abs() < 10.0);
    }

    #[test]
    fn more_aggregates_cost_more() {
        let mut e = hive_engine();
        let one = e
            .submit_sql("SELECT a5, SUM(a1) AS s1 FROM t_big GROUP BY a5")
            .unwrap();
        let five = e
            .submit_sql(
                "SELECT a5, SUM(a1) AS s1, SUM(a2) AS s2, SUM(a10) AS s3, \
                 SUM(a20) AS s4, SUM(a50) AS s5 FROM t_big GROUP BY a5",
            )
            .unwrap();
        assert!(five.elapsed > one.elapsed);
    }

    #[test]
    fn fig10_threshold_predicate_reduces_cost_and_output() {
        let mut e = hive_engine();
        let full = e
            .submit_sql("SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1")
            .unwrap();
        let one_pct = e
            .submit_sql(
                "SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1 \
                 WHERE r.a1 + s.z < 10000",
            )
            .unwrap();
        assert!(one_pct.output_rows < full.output_rows / 50);
        assert!(one_pct.elapsed < full.elapsed);
    }

    #[test]
    fn probes_run_and_accrue_busy_time() {
        let mut e = hive_engine();
        use catalog::remote::{ProbeKind, ProbeSpec};
        let a = e
            .submit_probe(&ProbeSpec::new(ProbeKind::ReadDfs, 1_000_000, 1_000))
            .unwrap();
        let b = e
            .submit_probe(&ProbeSpec::new(ProbeKind::ReadWriteDfs, 1_000_000, 1_000))
            .unwrap();
        assert!(b.elapsed > a.elapsed);
        assert_eq!(e.queries_executed(), 2);
    }

    #[test]
    fn capability_restriction_is_enforced() {
        let mut e = hive_engine();
        e.profile.capabilities = vec![Capability::Filter, Capability::Project];
        let err = e
            .submit_sql("SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1")
            .unwrap_err();
        assert_eq!(err, EngineError::CapabilityMissing(Capability::Join));
    }

    #[test]
    fn unknown_table_surfaces_cardinality_error() {
        let mut e = hive_engine();
        assert!(matches!(
            e.submit_sql("SELECT * FROM ghost"),
            Err(EngineError::Cardinality(_))
        ));
    }

    #[test]
    fn bucketed_tables_get_smb_join() {
        let mut e = ClusterEngine::paper_hive("hive-a", 7).without_noise();
        // Large enough that broadcast is ruled out; both bucketed on a1.
        for name in ["r_b", "s_b"] {
            let rows = 8_000_000u64;
            let size = 500u64;
            let mut stats = TableStats::new(rows, size);
            stats = stats.with_column("a1", ColumnStats::duplicated_range(rows, 1));
            let schema = vec![ColumnDef::int("a1"), ColumnDef::chars("dummy", 496)];
            let t = TableDef::new(name, schema, stats, SystemId::new("x")).partitioned_by("a1");
            e.register_table(t).unwrap();
        }
        let x = e
            .submit_sql("SELECT r.a1, s.a1 FROM r_b r JOIN s_b s ON r.a1 = s.a1")
            .unwrap();
        assert_eq!(
            x.join_algorithm,
            Some(JoinAlgorithm::HiveSortMergeBucketJoin)
        );
    }

    #[test]
    fn spark_engine_is_faster_than_hive_on_the_same_query() {
        let mk = |persona| {
            let mut e =
                ClusterEngine::new("sys", persona, ClusterConfig::paper_hive(), 3).without_noise();
            add_table(&mut e, "t_big", 1_000_000, 250);
            add_table(&mut e, "t_small", 100_000, 100);
            e
        };
        let mut hive = mk(crate::personas::hive_persona());
        let mut spark = mk(crate::personas::spark_persona());
        let sql = "SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1";
        let h = hive.submit_sql(sql).unwrap();
        let s = spark.submit_sql(sql).unwrap();
        assert!(
            s.elapsed < h.elapsed,
            "spark {} vs hive {}",
            s.elapsed,
            h.elapsed
        );
    }

    #[test]
    fn aggregation_over_a_join_runs_both_operators() {
        let mut e = hive_engine();
        let join_only = e
            .submit_sql("SELECT r.a1, s.a1 FROM t_big r JOIN t_small s ON r.a1 = s.a1")
            .unwrap();
        let joined_agg = e
            .submit_sql(
                "SELECT r.a5, SUM(s.a1) AS s FROM t_big r JOIN t_small s                  ON r.a1 = s.a1 GROUP BY r.a5",
            )
            .unwrap();
        assert!(joined_agg.join_algorithm.is_some());
        assert!(joined_agg.agg_algorithm.is_some());
        assert!(
            joined_agg.elapsed > join_only.elapsed,
            "extra agg stage costs time"
        );
        // Groups over a5 of the 100k-row join output (dup 5 on t_big's
        // 1M-row domain, containment-limited): bounded by the join size.
        assert!(joined_agg.output_rows <= join_only.output_rows);
    }

    #[test]
    fn order_by_adds_a_sort_pass_and_limit_caps_output() {
        let mut e = hive_engine();
        let plain = e
            .submit_sql("SELECT a1 FROM t_big WHERE a1 < 500000")
            .unwrap();
        let sorted = e
            .submit_sql("SELECT a1 FROM t_big WHERE a1 < 500000 ORDER BY a1")
            .unwrap();
        assert!(sorted.elapsed > plain.elapsed, "sort must cost extra");
        assert_eq!(plain.output_rows, sorted.output_rows);

        let limited = e
            .submit_sql("SELECT a1 FROM t_big WHERE a1 < 500000 ORDER BY a1 LIMIT 100")
            .unwrap();
        assert_eq!(limited.output_rows, 100);
    }

    #[test]
    fn explain_reports_plan_without_executing() {
        let mut e = hive_engine();
        let before = e.total_busy();
        let ex = e
            .explain("SELECT r.a1, s.a1 FROM t_big r JOIN t_tiny s ON r.a1 = s.a1")
            .unwrap();
        assert_eq!(e.total_busy(), before, "explain must not advance the clock");
        assert_eq!(ex.join_algorithm, Some(JoinAlgorithm::HiveBroadcastJoin));
        assert!(ex.logical.contains("Join"));
        assert!(!ex.stages.is_empty());
        assert!(ex.estimated_secs > 0.0);
        // And the noise-free execution matches the explain estimate.
        let exec = e
            .submit_sql("SELECT r.a1, s.a1 FROM t_big r JOIN t_tiny s ON r.a1 = s.a1")
            .unwrap();
        assert!((exec.elapsed.as_secs() - ex.estimated_secs).abs() < 1e-9);
        let rendered = ex.to_string();
        assert!(rendered.contains("Broadcast Join"), "{rendered}");
    }

    #[test]
    fn noise_changes_repeated_timings_but_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut e = ClusterEngine::paper_hive("hive-a", seed);
            add_table(&mut e, "t_small", 100_000, 100);
            let a = e.submit_sql("SELECT a1 FROM t_small").unwrap().elapsed;
            let b = e.submit_sql("SELECT a1 FROM t_small").unwrap().elapsed;
            (a, b)
        };
        let (a1, b1) = run(9);
        let (a2, b2) = run(9);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1, "noise should vary across submissions");
    }
}
