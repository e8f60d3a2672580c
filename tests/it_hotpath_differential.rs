//! Differential tests for the packed inference hot path (DESIGN.md §13).
//!
//! The raw-speed refactor only holds together because of one contract:
//! [`neuro::PackedNetwork`] and [`costing::PackedOpModel`] are
//! **bit-identical** to the reference [`neuro::Network::predict`] /
//! `LogicalOpModel::predict_nn_reference` chain — every ULP, every row, every
//! topology, including the lane-blocked batch kernel whose blocks must
//! never reorder a row's arithmetic. Two layers of enforcement:
//!
//! * property tests over random topologies, weights (seeds), batch
//!   shapes, and activations, comparing packed against legacy with
//!   `f64::to_bits` equality;
//! * a golden fixture (`fixtures/hotpath_golden.json`) pinning exact
//!   bit patterns for fixed networks, so a regression that changed both
//!   paths in the same wrong way (or a platform/toolchain drift) is
//!   still caught. Regenerate with `HOTPATH_BLESS=1 cargo test -p
//!   tests --test it_hotpath_differential` after an *intentional*
//!   change to initialisation or arithmetic.

use neuro::{Activation, Network, PackedNetwork, PackedScratch};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Deterministic input grid used by both the golden fixture and its
/// regeneration: row r, dim d ↦ a small signed value exercising both
/// activation tails.
fn fixture_rows(nrows: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..nrows)
        .map(|r| {
            (0..dim)
                .map(|d| (r * dim + d) as f64 * 0.037 - 1.9)
                .collect()
        })
        .collect()
}

fn flatten(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.iter().flatten().copied().collect()
}

fn activation_by_name(name: &str) -> Activation {
    match name {
        "tanh" => Activation::Tanh,
        "relu" => Activation::Relu,
        "sigmoid" => Activation::Sigmoid,
        "identity" => Activation::Identity,
        other => panic!("unknown activation in fixture: {other}"),
    }
}

proptest! {
    /// The blocked batch kernel is bit-identical to the legacy nested
    /// batch path for arbitrary topologies, weights, and batch sizes —
    /// including sizes that exercise full lane blocks, the row-at-a-time
    /// remainder, and both at once.
    #[test]
    fn prop_packed_batch_bit_identical_to_legacy(
        dim in 1usize..=8,
        hidden in proptest::collection::vec(1usize..=16, 1..=3),
        seed in any::<u64>(),
        act in proptest::sample::select(vec![
            Activation::Tanh,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Identity,
        ]),
        flat in proptest::collection::vec(-100.0f64..100.0, 0..=320),
    ) {
        let net = Network::with_activation(dim, &hidden, act, seed);
        let packed = PackedNetwork::from_network(&net);
        let nrows = flat.len() / dim;
        let flat = &flat[..nrows * dim];
        let nested: Vec<Vec<f64>> = flat.chunks_exact(dim).map(|r| r.to_vec()).collect();

        let legacy = net.predict_batch(&nested);
        let mut out = Vec::new();
        let mut scratch = PackedScratch::new();
        packed.predict_batch_into(flat, dim, &mut out, &mut scratch);

        prop_assert_eq!(legacy.len(), out.len());
        for (i, (l, p)) in legacy.iter().zip(&out).enumerate() {
            prop_assert_eq!(
                l.to_bits(), p.to_bits(),
                "row {} diverged: legacy {} packed {}", i, l, p
            );
        }
    }

    /// The single-row fused kernel is bit-identical to `Network::predict`,
    /// and reusing one warm scratch across rows never bleeds state.
    #[test]
    fn prop_packed_single_row_bit_identical_to_legacy(
        dim in 1usize..=8,
        hidden in proptest::collection::vec(1usize..=16, 1..=3),
        seed in any::<u64>(),
        flat in proptest::collection::vec(-50.0f64..50.0, 1..=64),
    ) {
        let net = Network::with_activation(dim, &hidden, Activation::Tanh, seed);
        let packed = PackedNetwork::from_network(&net);
        let mut scratch = PackedScratch::new();
        for row in flat.chunks_exact(dim) {
            prop_assert_eq!(
                net.predict(row).to_bits(),
                packed.predict_one(row, &mut scratch).to_bits()
            );
        }
    }

    /// Flat-slice entry points agree with each other: the legacy
    /// `predict_batch_flat` and the packed blocked kernel see the same
    /// bits for the same flat buffer.
    #[test]
    fn prop_flat_entry_points_agree(
        dim in 1usize..=6,
        width1 in 1usize..=12,
        seed in any::<u64>(),
        flat in proptest::collection::vec(-10.0f64..10.0, 0..=120),
    ) {
        let net = Network::with_activation(dim, &[width1], Activation::Sigmoid, seed);
        let packed = PackedNetwork::from_network(&net);
        let nrows = flat.len() / dim;
        let flat = &flat[..nrows * dim];

        let legacy = net.predict_batch_flat(flat, dim);
        let mut out = Vec::new();
        let mut scratch = PackedScratch::new();
        packed.predict_batch_into(flat, dim, &mut out, &mut scratch);

        prop_assert_eq!(legacy.len(), out.len());
        for (l, p) in legacy.iter().zip(&out) {
            prop_assert_eq!(l.to_bits(), p.to_bits());
        }
    }
}

/// One golden-fixture case spec: name, input dim, hidden widths,
/// activation, seed, and row count.
type CaseSpec = (
    &'static str,
    usize,
    &'static [usize],
    &'static str,
    u64,
    usize,
);

/// The golden-fixture cases. Inputs are derived from [`fixture_rows`],
/// so the fixture file only stores the expected output bit patterns.
const GOLDEN_CASES: &[CaseSpec] = &[
    ("agg_tanh", 4, &[10, 5], "tanh", 7, 19),
    ("join_tanh", 7, &[14, 7], "tanh", 21, 11),
    ("agg_relu", 4, &[10, 5], "relu", 7, 19),
    ("deep_sigmoid", 3, &[6, 5, 4], "sigmoid", 99, 9),
    ("wide_identity", 5, &[16], "identity", 3, 8),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/hotpath_golden.json")
}

/// One golden case as stored in the fixture file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenCase {
    name: String,
    dim: u64,
    hidden: Vec<u64>,
    activation: String,
    seed: u64,
    rows: u64,
    /// Hex-encoded `f64::to_bits` per output row.
    bits: Vec<String>,
}

/// The whole fixture document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenDoc {
    cases: Vec<GoldenCase>,
}

/// Computes the current bit patterns for every golden case through the
/// PACKED kernel (the legacy path is cross-checked against it by the
/// property tests above; the fixture pins both to history).
fn current_golden() -> GoldenDoc {
    let cases: Vec<GoldenCase> = GOLDEN_CASES
        .iter()
        .map(|&(name, dim, hidden, act, seed, nrows)| {
            let net = Network::with_activation(dim, hidden, activation_by_name(act), seed);
            let packed = PackedNetwork::from_network(&net);
            let rows = fixture_rows(nrows, dim);
            let mut out = Vec::new();
            let mut scratch = PackedScratch::new();
            packed.predict_batch_into(&flatten(&rows), dim, &mut out, &mut scratch);
            // Cross-check legacy inline so the fixture can never be
            // blessed from a diverged pair.
            let legacy = net.predict_batch(&rows);
            for (l, p) in legacy.iter().zip(&out) {
                assert_eq!(
                    l.to_bits(),
                    p.to_bits(),
                    "cannot bless {name}: legacy and packed disagree"
                );
            }
            GoldenCase {
                name: name.to_string(),
                dim: dim as u64,
                hidden: hidden.iter().map(|&h| h as u64).collect(),
                activation: act.to_string(),
                seed,
                rows: nrows as u64,
                bits: out
                    .iter()
                    .map(|v| format!("{:016x}", v.to_bits()))
                    .collect(),
            }
        })
        .collect();
    GoldenDoc { cases }
}

/// The packed kernel reproduces the committed golden bit patterns
/// exactly. A failure here means the inference arithmetic changed —
/// deliberate changes must re-bless the fixture and say so in review.
#[test]
fn golden_fixture_bits_are_reproduced_exactly() {
    let current = current_golden();
    let path = golden_path();
    if std::env::var_os("HOTPATH_BLESS").is_some() {
        let mut text = serde_json::to_string_pretty(&current).expect("serialise fixture");
        text.push('\n');
        std::fs::write(&path, text).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with HOTPATH_BLESS=1",
            path.display()
        )
    });
    let committed: GoldenDoc = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(
        committed, current,
        "packed inference bits diverged from the golden fixture"
    );
}

/// Both costing stacks and every entry width bottom out in one Fig. 3
/// body and one kernel (`LogicalOpCosting::estimate_rows`): whichever
/// way a row reaches the flow, the seconds agree to the bit and so does
/// the provenance — and in range they are the reference chain's bits.
mod one_fig3_body {
    use catalog::remote::AggInfo;
    use catalog::SystemId;
    use costing::logical_op::flow::{FlowScratch, LogicalOpCosting};
    use costing::{
        CostEstimate, CostingApproach, CostingProfile, EstimateScratch, EstimateSource,
        EstimatorService, OperatorKind,
    };
    use proptest::prelude::*;
    use sqlkit::analyze::{CoreKind, QueryAnalysis};
    use sqlkit::cardinality::NodeEstimate;
    use std::path::Path;
    use std::sync::OnceLock;

    /// The golden profile's trained aggregation flow (no fit per case),
    /// behind the manager stack's profile and behind a service.
    fn stacks() -> &'static (CostingProfile, EstimatorService, SystemId) {
        static STACKS: OnceLock<(CostingProfile, EstimatorService, SystemId)> = OnceLock::new();
        STACKS.get_or_init(|| {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/fixtures/logical_agg.profile.json"
            );
            let profile = costing::hybrid::load_profile(Path::new(path)).expect("golden profile");
            let service = EstimatorService::default();
            let system = profile.system.clone();
            service.register(system.clone(), flow_of(&profile).clone());
            (profile, service, system)
        })
    }

    fn flow_of(profile: &CostingProfile) -> &LogicalOpCosting {
        match &profile.approach {
            CostingApproach::LogicalOp(suite) => suite.aggregation.as_ref().expect("agg flow"),
            other => panic!("golden profile is a LogicalOp profile, got {other:?}"),
        }
    }

    /// A query analysis whose aggregation features are exactly `x`.
    fn analysis_with(x: &[f64]) -> QueryAnalysis {
        let node = NodeEstimate {
            rows: x[2],
            row_bytes: x[3],
        };
        QueryAnalysis {
            root: node,
            core: CoreKind::Scan,
            core_out: node,
            join: None,
            agg: Some(AggInfo {
                in_rows: x[0],
                in_bytes: x[1],
                groups: x[2],
                out_bytes: x[3],
                n_aggs: 1,
            }),
            scan_in: None,
            nested_join: false,
            sort_in: None,
            limit: None,
        }
    }

    proptest! {
        #[test]
        fn prop_every_path_to_the_flow_agrees_to_the_bit(
            picks in proptest::collection::vec((4.0f64..7.8, 0usize..4), 1..12),
        ) {
            let (profile, service, system) = stacks();
            let flow = flow_of(profile);
            // 1e4 … 6e7 input rows, log-uniform. The golden grid holds
            // size 100 and width 12 fixed and trains rows up to 4e6:
            // shapes 0–1 stay on it (in range below ~4e6 rows, one pivot
            // above), shape 2 leaves it on a second dimension, shape 3
            // on the group count.
            let rows: Vec<[f64; 4]> = picks
                .iter()
                .map(|&(exp, shape)| {
                    let n = 10f64.powf(exp);
                    match shape {
                        2 => [n, 900.0, n / 5.0, 12.0],
                        3 => [n, 100.0, n * 40.0, 12.0],
                        _ => [n, 100.0, n / 5.0, 12.0],
                    }
                })
                .collect();
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let snapshot = service.snapshot();
            let op = OperatorKind::Aggregation;

            let mut slots: Vec<Option<CostEstimate>> = vec![None; rows.len()];
            flow.estimate_rows(&flat, 4, &mut slots, &mut FlowScratch::new());
            let mut served = Vec::new();
            service
                .estimate_batch_flat_pinned_scratch(
                    &snapshot, system, op, &flat, 4, &mut served, &mut EstimateScratch::new(),
                )
                .unwrap();
            let mut manager = profile.clone();

            for (i, x) in rows.iter().enumerate() {
                let direct = flow.estimate(x);
                let others = [
                    manager.estimate_operator(op, &analysis_with(x)).unwrap(),
                    service.estimate_pinned(&snapshot, system, op, x).unwrap(),
                    slots[i].clone().expect("every empty slot is filled"),
                    served[i].clone(),
                ];
                for (path, other) in others.iter().enumerate() {
                    prop_assert_eq!(
                        direct.secs.to_bits(), other.secs.to_bits(),
                        "row {:?}, path {}", x, path
                    );
                    prop_assert_eq!(&direct.source, &other.source);
                }
                let in_range = flow.model.meta.all_in_range(x, flow.remedy.beta);
                prop_assert_eq!(in_range, direct.source == EstimateSource::NeuralNetwork);
                if in_range {
                    prop_assert_eq!(
                        direct.secs.to_bits(),
                        flow.model.predict_nn_reference(x).to_bits()
                    );
                }
                // The shared service's memo is warm with `x` now; a
                // neighbour one part in 1e12 away is its own row, not
                // `x`'s, and costs what the flow says it costs.
                let neighbour = x.map(|v| v * (1.0 + 1e-12));
                let near = service.estimate_pinned(&snapshot, system, op, &neighbour).unwrap();
                let want = flow.estimate(&neighbour);
                prop_assert_eq!(
                    want.secs.to_bits(), near.secs.to_bits(),
                    "neighbour {:?} of row {:?}", neighbour, x
                );
                prop_assert_eq!(&want.source, &near.source);
            }
        }
    }
}
