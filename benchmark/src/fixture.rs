//! The shared fixture; building it is what `setup_s` times.
//!
//! The Fig. 10 tables (plus the out-of-range tables of `workload::oor`)
//! are spread round-robin over four `remote_sim` personas, with the
//! Teradata master beside them. Per system, a join and an aggregation
//! logical-op model are trained the paper's way: the training grids run
//! on the simulated engine through `costing::logical_op::run_training`
//! and a fixed-topology network is fitted to the observed times. The
//! models train on tables of up to 8×10⁶ rows, as in the paper's
//! Fig. 14, so statements over larger tables are out of range.

use crate::hostspeed::ReferenceTimer;
use catalog::{Catalog, SystemId, SystemKind};
use costing::features::{agg_dim_names, join_dim_names};
use costing::hybrid::{CostingApproach, CostingProfile, LogicalOpSuite};
use costing::logical_op::model::{FitConfig, LogicalOpModel, TopologyChoice};
use costing::logical_op::run_training;
use costing::{EstimatorService, LogicalOpCosting, OperatorKind};
use federation::{IntelliSphere, TransferCostModel};
use remote_sim::{
    hive_persona, presto_persona, rdbms_persona, spark_persona, ClusterConfig, ClusterEngine,
    RemoteSystem,
};
use sqlkit::LogicalPlan;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{
    agg_training_queries_with, build_table, fig10_table_specs, join_training_queries_with,
    oor_all_table_specs, probe_suite, specs_up_to, TableSpec,
};

/// Largest table the models are trained on (the paper's Fig. 14 bound).
pub const TRAIN_MAX_ROWS: u64 = 8_000_000;

/// Hidden-layer widths of every fitted network.
pub const HIDDEN: (usize, usize) = (10, 5);

/// Training iterations per model. The issue asks for 10,000; the run
/// budget (136 runs inside 3,420 s, set-up repeated three times in a
/// run) leaves room for 4,000, which converges to the same held-out
/// error on these grids to within a point of RMSE%.
pub const FIT_ITERATIONS: usize = 4_000;

/// Seed of the model fits, the same for every `--seed`. The models are
/// part of the fixture like the catalog, not part of the traffic: another
/// fit gives the planner another cost landscape and the rule engine
/// another number of rewrites to try, and the median `dag_batch` op of
/// one set of DAGs lay between 3.6 and 4.1 ms with the fit seed alone.
const FIT_SEED: u64 = 0xF17;

/// Selectivities of the join training grid. Like the aggregation grid
/// below, it is thinner than the paper's but reaches the same extremes,
/// so the trained range of every dimension is the full grid's.
const TRAIN_SELECTIVITIES: [u32; 3] = [100, 25, 1];

/// Shrink factors and largest SUM() count of the aggregation grid.
const TRAIN_SHRINKS: [u64; 3] = [2, 10, 100];
const TRAIN_MAX_AGGS: u32 = 5;

/// SplitMix64 finalizer, the workspace's seed-derivation idiom: one
/// `--seed` fans out into independent streams.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four remote personas, in the round-robin order tables are
/// assigned to them.
fn remote_engines() -> Vec<ClusterEngine> {
    let wide = ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        ..ClusterConfig::paper_hive()
    };
    vec![
        ClusterEngine::new("hive", hive_persona(), ClusterConfig::paper_hive(), 1),
        ClusterEngine::new("spark", spark_persona(), wide, 2),
        ClusterEngine::new("presto", presto_persona(), wide, 3),
        ClusterEngine::new(
            "rdbms",
            rdbms_persona(),
            ClusterConfig::single_node(16, 64 << 30),
            4,
        ),
    ]
}

/// The master engine, as `IntelliSphere::new` builds it.
fn master_engine() -> ClusterEngine {
    ClusterEngine::new(
        SystemId::master().as_str(),
        rdbms_persona(),
        ClusterConfig::single_node(32, 256 << 30),
        5,
    )
}

/// Every table of the fixture: Fig. 10's 120 and the ten of
/// `workload::oor` that Fig. 10 lacks.
pub fn table_specs() -> Vec<TableSpec> {
    let mut specs = fig10_table_specs();
    for spec in oor_all_table_specs() {
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    specs
}

/// The shared fixture.
pub struct Fixture {
    /// The global catalog: every table at its home system.
    pub catalog: Catalog,
    /// Remote ids in round-robin order, then the master.
    pub systems: Vec<SystemId>,
    /// One noise-free engine per system, each holding every table, for
    /// training and for the true elapsed time of any statement anywhere.
    pub engines: BTreeMap<SystemId, ClusterEngine>,
    /// The trained flows, two per system.
    pub flows: Vec<(SystemId, LogicalOpCosting)>,
    /// Wall time of each `LogicalOpModel::fit`, ms.
    pub fit_ms: Vec<f64>,
    /// Median host slow-down while the models were trained.
    pub fit_slowdown: f64,
    /// The transfer model every planner call uses.
    pub transfer: TransferCostModel,
}

impl Fixture {
    /// Builds catalog, engines and models. `timer` reads the host's speed
    /// after the catalog and after every system's models, so the build is
    /// timed at reference speed piece by piece.
    pub fn build(timer: &mut ReferenceTimer) -> Fixture {
        let specs = table_specs();
        let mut engines: Vec<ClusterEngine> = remote_engines()
            .into_iter()
            .chain([master_engine()])
            .map(ClusterEngine::without_noise)
            .collect();
        let systems: Vec<SystemId> = engines.iter().map(|e| e.id().clone()).collect();

        let mut catalog = Catalog::new();
        for engine in &engines {
            catalog
                .register_system(engine.profile().clone())
                .expect("distinct system ids");
        }
        let remotes = systems.len() - 1;
        for (i, spec) in specs.iter().enumerate() {
            let mut def = build_table(spec);
            def.location = systems[i % remotes].clone();
            catalog.register_table(def).expect("distinct table names");
            for engine in &mut engines {
                engine
                    .register_table(build_table(spec))
                    .expect("distinct table names");
            }
        }

        let train_specs = specs_up_to(TRAIN_MAX_ROWS);
        let joins: Vec<String> = join_training_queries_with(&train_specs, &TRAIN_SELECTIVITIES)
            .iter()
            .map(|q| q.sql())
            .collect();
        let aggs: Vec<String> =
            agg_training_queries_with(&train_specs, &TRAIN_SHRINKS, TRAIN_MAX_AGGS)
                .iter()
                .map(|q| q.sql())
                .collect();
        timer.lap();
        let mut flows = Vec::new();
        let mut fit_ms = Vec::new();
        let mut slowdowns = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            for (op, grid) in [
                (OperatorKind::Join, &joins),
                (OperatorKind::Aggregation, &aggs),
            ] {
                let training = run_training(engine, op, grid);
                assert!(
                    training.failures.is_empty(),
                    "training query failed on {}: {:?}",
                    engine.id(),
                    training.failures.first()
                );
                let config = FitConfig {
                    topology: TopologyChoice::Fixed {
                        layer1: HIDDEN.0,
                        layer2: HIDDEN.1,
                    },
                    iterations: FIT_ITERATIONS,
                    trace_every: 0,
                    seed: mix_seed(FIT_SEED, 2 * i as u64 + u64::from(op == OperatorKind::Join)),
                    ..FitConfig::fast()
                };
                let names: Vec<&str> = match op {
                    OperatorKind::Join => join_dim_names().to_vec(),
                    _ => agg_dim_names().to_vec(),
                };
                let started = Instant::now();
                let (model, _) = LogicalOpModel::fit(op, &names, &training.dataset(), &config);
                fit_ms.push(started.elapsed().as_secs_f64() * 1e3);
                flows.push((engine.id().clone(), LogicalOpCosting::new(model)));
            }
            slowdowns.push(timer.lap().slowdown);
        }

        Fixture {
            catalog,
            systems,
            engines: engines.into_iter().map(|e| (e.id().clone(), e)).collect(),
            flows,
            fit_ms,
            fit_slowdown: crate::stats::median(&slowdowns),
            transfer: TransferCostModel::default(),
        }
    }

    /// A fresh `EstimatorService` (library defaults) holding a copy of
    /// every trained flow. Each workload takes its own, so that the
    /// observations and retunes of one never reach another.
    pub fn service(&self) -> EstimatorService {
        let service = EstimatorService::default();
        for (system, flow) in &self.flows {
            service.register(system.clone(), flow.clone());
        }
        service
    }

    /// The flow trained for `(system, op)`.
    pub fn flow(&self, system: &SystemId, op: OperatorKind) -> &LogicalOpCosting {
        self.flows
            .iter()
            .find(|(s, f)| s == system && f.model.op == op)
            .map(|(_, f)| f)
            .expect("every system has a join and an aggregation flow")
    }

    /// The noise-free elapsed time of `plan` on `system`, seconds.
    pub fn truth_secs(&mut self, system: &SystemId, plan: &LogicalPlan) -> f64 {
        self.engines
            .get_mut(system)
            .expect("a fixture system")
            .submit_plan(plan)
            .expect("generated statements run on every engine")
            .elapsed
            .as_secs()
    }

    /// The `IntelliSphere` facade over `HybridCostManager` for
    /// `facade_hybrid`: each table on its home engine only, hive costed
    /// by its logical-op models (black box), spark, rdbms and the master
    /// by sub-op models from the probe suite (open box), presto by a
    /// `Timed` profile that starts on sub-op and switches to its
    /// logical-op models after `switch_after` estimates.
    pub fn sphere(&self, switch_after: u64) -> IntelliSphere {
        let mut sphere = IntelliSphere::new(0);
        for engine in remote_engines().into_iter().chain([master_engine()]) {
            // Same id as the built-in master: replaces it, noise-free.
            sphere.add_remote(engine.without_noise());
        }
        for table in self.catalog.tables() {
            sphere
                .add_table(&table.location, table.clone())
                .expect("home system exists");
        }
        let suite = probe_suite();
        for system in &self.systems {
            if system.as_str() != "hive" {
                sphere
                    .train_subop(system, &suite)
                    .expect("probe suite fits");
            }
        }
        let logical = |system: &SystemId| {
            CostingApproach::LogicalOp(LogicalOpSuite {
                join: Some(self.flow(system, OperatorKind::Join).clone()),
                aggregation: Some(self.flow(system, OperatorKind::Aggregation).clone()),
            })
        };
        let hive = SystemId::new("hive");
        let presto = SystemId::new("presto");
        let manager = sphere.manager_mut();
        manager.register(CostingProfile::new(
            hive.clone(),
            SystemKind::Hive,
            logical(&hive),
        ));
        let presto_subop = manager
            .profile(&presto)
            .expect("trained above")
            .approach
            .clone();
        manager.register(CostingProfile::new(
            presto.clone(),
            self.catalog.system(&presto).expect("registered").kind,
            CostingApproach::Timed {
                before: Box::new(presto_subop),
                after: Box::new(logical(&presto)),
                switch_after_estimates: switch_after,
            },
        ));
        sphere
    }
}
