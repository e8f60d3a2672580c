//! Costing Profiles are data: the paper stores every costing artefact in
//! the remote system's profile (Fig. 9), so a profile must survive a
//! round trip to JSON and keep producing identical estimates.

use catalog::remote::JoinAlgorithm;
use catalog::{SystemId, SystemKind};
use costing::estimator::OperatorKind;
use costing::estimator::{CostEstimate, EstimateSource};
use costing::features::agg_dim_names;
use costing::hybrid::load_profile;
use costing::hybrid::{CostingApproach, CostingProfile, LogicalOpSuite};
use costing::logical_op::{
    flow::LogicalOpCosting,
    model::{FitConfig, LogicalOpModel, TopologyChoice},
    run_training,
};
use integration_tests::{hive_engine, trained_subop};
use sqlkit::analyze::analyze;
use sqlkit::RemoteSystem;
use std::path::Path;
use workload::{agg_training_queries_with, TableSpec};

fn sample_specs() -> Vec<TableSpec> {
    vec![
        TableSpec::new(1_000_000, 250),
        TableSpec::new(4_000_000, 250),
    ]
}

#[test]
fn subop_profile_roundtrips_and_estimates_identically() {
    let specs = sample_specs();
    let mut engine = hive_engine(&specs, 31);
    let sub = trained_subop(&mut engine);
    let mut profile = CostingProfile::new(
        SystemId::new("hive-it"),
        SystemKind::Hive,
        CostingApproach::SubOp(sub),
    );

    let plan = sqlkit::sql_to_plan(
        "SELECT r.a1, s.a1 FROM T4000000_250 r JOIN T1000000_250 s ON r.a1 = s.a1",
    )
    .unwrap();
    let analysis = analyze(engine.catalog(), &plan).unwrap();
    let before = profile.estimate_query(&analysis).unwrap();

    let json = serde_json::to_string(&profile).unwrap();
    let mut restored: CostingProfile = serde_json::from_str(&json).unwrap();
    let after = restored.estimate_query(&analysis).unwrap();
    assert_eq!(before.total_secs, after.total_secs);
}

#[test]
fn logical_profile_roundtrips_with_log_and_tuner_state() {
    let specs = sample_specs();
    let mut engine = hive_engine(&specs, 32);
    let queries: Vec<String> = agg_training_queries_with(&specs, &[2, 10, 50], 2)
        .iter()
        .map(|q| q.sql())
        .collect();
    let training = run_training(&mut engine, OperatorKind::Aggregation, &queries);
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &training.dataset(),
        &FitConfig {
            topology: TopologyChoice::Fixed {
                layer1: 8,
                layer2: 4,
            },
            iterations: 1_000,
            batch_size: 32,
            trace_every: 0,
            seed: 32,
            scaling: Default::default(),
        },
    );
    let mut flow = LogicalOpCosting::new(model);
    // Exercise the remedy + logging paths so the state is non-trivial.
    let oor = vec![9.9e7, 250.0, 9.9e6, 12.0];
    let _ = flow.estimate(&oor);
    flow.observe_actual(&oor, 123.0);
    flow.adjust_alpha();

    let mut profile = CostingProfile::new(
        SystemId::new("hive-it"),
        SystemKind::Hive,
        CostingApproach::LogicalOp(LogicalOpSuite {
            join: None,
            aggregation: Some(flow),
        }),
    );
    let plan =
        sqlkit::sql_to_plan("SELECT a5, SUM(a1) AS s FROM T4000000_250 GROUP BY a5").unwrap();
    let analysis = analyze(engine.catalog(), &plan).unwrap();
    let before = profile.estimate_query(&analysis).unwrap();

    let json = serde_json::to_string(&profile).unwrap();
    let mut restored: CostingProfile = serde_json::from_str(&json).unwrap();
    let after = restored.estimate_query(&analysis).unwrap();
    assert_eq!(before.total_secs, after.total_secs);

    // The tuner and log state came along.
    if let CostingApproach::LogicalOp(suite) = &restored.approach {
        let agg = suite.aggregation.as_ref().unwrap();
        assert_eq!(agg.log.len(), 1);
        assert_eq!(agg.tuner.observations(), 1);
    } else {
        panic!("wrong approach after restore");
    }
}

#[test]
fn timed_profile_roundtrips_with_switch_counter() {
    let specs = sample_specs();
    let mut engine = hive_engine(&specs, 33);
    let sub = trained_subop(&mut engine);
    let mut profile = CostingProfile::new(
        SystemId::new("hive-it"),
        SystemKind::Hive,
        CostingApproach::Timed {
            before: Box::new(CostingApproach::SubOp(sub.clone())),
            after: Box::new(CostingApproach::SubOp(sub)),
            switch_after_estimates: 3,
        },
    );
    let plan =
        sqlkit::sql_to_plan("SELECT a5, SUM(a1) AS s FROM T1000000_250 GROUP BY a5").unwrap();
    let analysis = analyze(engine.catalog(), &plan).unwrap();
    let _ = profile.estimate_query(&analysis).unwrap();
    let _ = profile.estimate_query(&analysis).unwrap();
    assert_eq!(profile.estimates_made, 2);

    let json = serde_json::to_string(&profile).unwrap();
    let restored: CostingProfile = serde_json::from_str(&json).unwrap();
    assert_eq!(restored.estimates_made, 2, "switch counter persists");
}

/// Every provenance variant a [`CostEstimate`] can carry must survive the
/// trip to JSON unchanged — reports and replay tooling key off of them.
#[test]
fn every_estimate_source_variant_roundtrips() {
    let sources = vec![
        EstimateSource::NeuralNetwork,
        EstimateSource::OnlineRemedy {
            alpha: 0.37,
            pivots: vec![0, 2],
        },
        EstimateSource::SubOpFormula {
            algorithm: JoinAlgorithm::HiveShuffleJoin,
        },
        EstimateSource::SubOpPolicy {
            policy: "min-cost".to_string(),
            candidates: 3,
        },
        EstimateSource::SubOpAggregation,
        EstimateSource::SubOpScan,
        EstimateSource::SubOpSort,
    ];
    for source in sources {
        let estimate = CostEstimate::new(12.5, source.clone());
        let json = serde_json::to_string(&estimate).unwrap();
        let back: CostEstimate = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back, estimate,
            "variant lost in round trip: {source:?}\njson: {json}"
        );
    }
}

/// The checked-in golden profile: regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p tests golden_`.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/logical_agg.profile.json"
);

/// A small, fully deterministic profile (fixed dataset, fixed seed) whose
/// serialized form is pinned by the golden fixture.
fn golden_profile() -> CostingProfile {
    let mut inputs = vec![];
    let mut targets = vec![];
    for i in 0..40 {
        let rows = (i + 1) as f64 * 1e5;
        inputs.push(vec![rows, 100.0, rows / 5.0, 12.0]);
        targets.push(1.0 + rows * 1e-6);
    }
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &neuro::Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    CostingProfile::new(
        SystemId::new("hive-golden"),
        SystemKind::Hive,
        CostingApproach::LogicalOp(LogicalOpSuite {
            join: None,
            aggregation: Some(LogicalOpCosting::new(model)),
        }),
    )
}

/// The serialized wire format is part of the persistence contract: a
/// freshly trained golden profile must serialize byte-for-byte to the
/// checked-in fixture. A mismatch means either training lost determinism
/// or the JSON schema changed — both need a deliberate decision (and a
/// fixture regeneration) rather than a silent drift.
#[test]
fn golden_fixture_matches_freshly_trained_profile() {
    let generated = golden_profile();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        costing::hybrid::save_profile(&generated, Path::new(GOLDEN_PATH)).unwrap();
    }
    let on_disk = std::fs::read_to_string(GOLDEN_PATH)
        .expect("fixture missing: run with UPDATE_GOLDEN=1 to create it");
    let in_memory = serde_json::to_string_pretty(&generated).unwrap();
    assert_eq!(
        in_memory, on_disk,
        "golden profile drifted; if the schema change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Both profiles answer the golden probes (in range and out of range)
/// with the same estimate and provenance.
fn assert_same_estimates(a: &CostingProfile, b: &CostingProfile) {
    let probes = [
        vec![5e5, 100.0, 1e5, 12.0],
        vec![2e6, 100.0, 4e5, 12.0],
        vec![3.9e6, 100.0, 7.8e5, 12.0],
        vec![2e7, 100.0, 4e6, 12.0],
    ];
    for x in &probes {
        let (a, b) = match (&a.approach, &b.approach) {
            (CostingApproach::LogicalOp(s1), CostingApproach::LogicalOp(s2)) => (
                s1.aggregation.as_ref().unwrap().estimate(x),
                s2.aggregation.as_ref().unwrap().estimate(x),
            ),
            _ => panic!("golden profile is a LogicalOp profile"),
        };
        assert_eq!(a.secs, b.secs, "estimate diverged for {x:?}");
        assert_eq!(a.source, b.source);
    }
}

/// Loading the fixture from disk must produce the same estimates as the
/// in-memory profile it was saved from.
#[test]
fn golden_fixture_estimates_identically_to_fresh_fit() {
    let from_disk = load_profile(Path::new(GOLDEN_PATH)).unwrap();
    assert_same_estimates(&from_disk, &golden_profile());
}

/// Profiles written while flows still remembered their remedy estimates
/// carry an array of pending components; such a document still loads
/// (the unknown field is ignored) and estimates exactly like the fixture.
#[test]
fn profile_written_with_pending_remedy_records_still_loads() {
    let current = std::fs::read_to_string(GOLDEN_PATH).unwrap();
    let old_format = current.replacen(
        "\"remedy\": {",
        "\"pending_remedies\": [[[20000000.0, 100.0, 4000000.0, 12.0], 41.5, 38.25]],\n        \"remedy\": {",
        1,
    );
    assert_ne!(old_format, current, "the flow's remedy field was found");
    let old: CostingProfile = serde_json::from_str(&old_format).unwrap();
    let from_disk = load_profile(Path::new(GOLDEN_PATH)).unwrap();
    assert_same_estimates(&old, &from_disk);
}

/// A model's packed form is derived when the model is read, never
/// stored: the fixture's model predicts to the bit like a copy packed
/// afresh from the same scalers and network (and like the reference
/// chain), and writing the profile back yields the fixture's exact bytes.
#[test]
fn loaded_model_packs_like_a_fresh_one_and_reserializes_byte_for_byte() {
    let on_disk = std::fs::read_to_string(GOLDEN_PATH).unwrap();
    let profile: CostingProfile = serde_json::from_str(&on_disk).unwrap();
    let model = match &profile.approach {
        CostingApproach::LogicalOp(suite) => &suite.aggregation.as_ref().unwrap().model,
        other => panic!("golden profile is a LogicalOp profile, got {other:?}"),
    };
    let repacked = model.clone().with_network(model.network().clone());
    assert_eq!(model.packed(), repacked.packed());
    for x in [
        [5e5, 100.0, 1e5, 12.0],
        [3.9e6, 100.0, 7.8e5, 12.0],
        [2e7, 100.0, 4e6, 12.0],
    ] {
        let bits = model.predict_nn(&x).to_bits();
        assert_eq!(bits, repacked.predict_nn(&x).to_bits());
        assert_eq!(bits, model.predict_nn_reference(&x).to_bits());
    }
    assert_eq!(serde_json::to_string_pretty(&profile).unwrap(), on_disk);
}
