//! The standing estimate-hot-path speed matrix (DESIGN.md §13).
//!
//! The raw-speed pass replaced the allocating per-row inference chain
//! with struct-of-arrays fused kernels ([`neuro::PackedNetwork`],
//! [`costing::PackedOpModel`]) and made the pinned estimate paths
//! allocation-free steady-state. This experiment pins that claim as a
//! trajectory: every run measures the same matrix and writes it to
//! `BENCH_hotpath.json`, so a regression in the packed kernels (or a
//! quiet re-introduction of per-row allocation) shows up as a ratio
//! shift across PRs.
//!
//! Two scopes share the document:
//!
//! * **kernel** — the inference chain. `legacy` is the per-row
//!   allocating reference chain the hot path used to run
//!   (`LogicalOpModel::predict_nn_reference` per row: a
//!   domain-conversion clone, a scaler-transform allocation, and one
//!   vector per layer inside `Network::predict`), kept in the tree as
//!   the bit-identity oracle and on no production path; `packed` is
//!   [`costing::PackedOpModel::predict_batch_into`] over the same rows
//!   staged flat, writing into warm caller scratch. Both kernels
//!   produce bit-identical outputs (the pair's checksums in the JSON
//!   must match exactly), so the ratio isolates allocation and layout.
//! * **service** — the end-to-end pinned batch path under concurrency
//!   and epoch churn. `legacy` replays what
//!   [`costing::EstimatorService::estimate_batch_pinned`] used to do
//!   before the raw-speed pass: clone the batch into a `Vec<Vec<f64>>`
//!   and run the allocating `predict_nn_batch_reference` chain per
//!   snapshot.
//!   `packed` is today's flat scratch entry point
//!   ([`costing::EstimatorService::estimate_batch_flat_pinned_scratch`]).
//!   The cache is disabled (`cache_capacity_per_shard: 0`) so every
//!   iteration measures the compute path, and `republishers`
//!   background threads hammer [`costing::EstimatorService::republish`]
//!   to exercise snapshot republication (models, and the packed forms
//!   they own, are shared across epochs) while readers measure.
//!
//! Validation (`--validate`, run by the CI smoke job) enforces the
//! acceptance bar: on every `kernel`-scope pair with `batch >= 64`, the
//! packed p50 must be at least `MIN_SPEEDUP_AT_64`× faster than the
//! legacy p50, and every legacy/packed pair's checksum must agree bit
//! for bit.

use crate::harness::{self, BenchDoc, Envelope, Host};
use crate::report::{heading, kv, write_text_table, ExpConfig};
use catalog::SystemId;
use costing::logical_op::flow::LogicalOpCosting;
use costing::logical_op::model::{FitConfig, LogicalOpModel};
use costing::service::{EstimatorService, ServiceConfig};
use costing::{CostEstimate, EstimateScratch, EstimateSource, OperatorKind, PackedOpScratch};
use neuro::{Activation, Dataset, Network};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The acceptance bar the CI validation enforces on kernel-scope rows
/// with `batch >= 64`: packed p50 at least this many times faster.
pub(crate) const MIN_SPEEDUP_AT_64: f64 = 3.0;

/// One measured matrix cell, as written to `BENCH_hotpath.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathRow {
    /// `"kernel"` (bare forward pass) or `"service"` (pinned batch path).
    pub scope: String,
    /// `"legacy"` (per-row allocating chain) or `"packed"` (SoA fused).
    pub kernel: String,
    /// Network shape, `"in->h1xh2"` (service rows: the trained model's).
    pub topology: String,
    /// Hidden activation of the measured network.
    pub activation: String,
    /// Rows per measured call.
    pub batch: u64,
    /// Concurrent measuring threads (kernel scope is single-threaded).
    pub concurrency: u64,
    /// Background republisher threads churning epochs (service scope).
    pub republishers: u64,
    /// Timed calls across all measuring threads.
    pub iters: u64,
    /// Median per-call latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-call latency, microseconds.
    pub p99_us: f64,
    /// Mean per-call latency, microseconds.
    pub mean_us: f64,
    /// Throughput in estimated rows per second across all threads.
    pub rows_per_sec: f64,
    /// Sum of the batch's outputs for one untimed evaluation — must be
    /// bit-identical between a pair's legacy and packed rows.
    pub checksum: f64,
}

impl HotpathRow {
    /// This cell template filled in with one kernel's measurement.
    fn measured(&self, kernel: &str, mut lat_us: Vec<f64>, elapsed_s: f64, checksum: f64) -> Self {
        let iters = lat_us.len() as u64;
        let (p50_us, p99_us, mean_us) = harness::summarize(&mut lat_us);
        HotpathRow {
            kernel: kernel.to_string(),
            iters,
            p50_us,
            p99_us,
            mean_us,
            rows_per_sec: (iters * self.batch) as f64 / elapsed_s,
            checksum,
            ..self.clone()
        }
    }
}

/// The full document written to `BENCH_hotpath.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathDoc {
    /// Always `"hotpath"`.
    pub experiment: String,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Master seed inputs were generated from.
    pub seed: u64,
    /// The measuring host, stamped by the harness writer.
    #[serde(default)]
    pub host: Option<Host>,
    /// The speedup bar validation enforces at `batch >= 64`.
    pub min_speedup_at_64: f64,
    /// One row per matrix cell.
    pub rows: Vec<HotpathRow>,
}

impl BenchDoc for HotpathDoc {
    const NAME: &'static str = "hotpath";

    fn envelope(&mut self) -> Envelope<'_> {
        Envelope {
            experiment: &self.experiment,
            quick: self.quick,
            rows: self.rows.len(),
            host: &mut self.host,
        }
    }

    /// Quantile ordering, legacy/packed checksum bit-identity, and the
    /// `batch >= 64` kernel speedup bar.
    fn check(&self) -> Result<(), String> {
        if !(self.min_speedup_at_64.is_finite() && self.min_speedup_at_64 >= 1.0) {
            return Err(format!("bad min_speedup_at_64 {}", self.min_speedup_at_64));
        }
        for (i, r) in self.rows.iter().enumerate() {
            if r.scope != "kernel" && r.scope != "service" {
                return Err(format!("row {i}: unknown scope {:?}", r.scope));
            }
            if r.kernel != "legacy" && r.kernel != "packed" {
                return Err(format!("row {i}: unknown kernel {:?}", r.kernel));
            }
            if r.batch == 0 || r.iters == 0 || r.concurrency == 0 {
                return Err(format!("row {i}: empty measurement"));
            }
            harness::check_latencies(i, &[("p50_us", r.p50_us), ("p99_us", r.p99_us)], false)?;
            harness::check_latencies(i, &[("mean_us", r.mean_us)], false)?;
            if !r.checksum.is_finite() {
                return Err(format!("row {i}: non-finite checksum"));
            }
        }
        // Pair legacy and packed cells of the same matrix point.
        let cell_key = |r: &HotpathRow| {
            (
                r.scope.clone(),
                r.topology.clone(),
                r.activation.clone(),
                r.batch,
                r.concurrency,
                r.republishers,
            )
        };
        let mut pairs: std::collections::HashMap<_, (Option<f64>, Option<f64>, Vec<u64>)> =
            std::collections::HashMap::new();
        for r in &self.rows {
            let entry = pairs.entry(cell_key(r)).or_default();
            if r.kernel == "legacy" {
                entry.0 = Some(r.p50_us);
            } else {
                entry.1 = Some(r.p50_us);
            }
            entry.2.push(r.checksum.to_bits());
        }
        for (key, (legacy, packed, checksums)) in &pairs {
            let (Some(legacy), Some(packed)) = (legacy, packed) else {
                return Err(format!("cell {key:?}: missing its legacy/packed twin"));
            };
            if checksums.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!(
                    "cell {key:?}: legacy and packed checksums differ — kernels diverged"
                ));
            }
            if key.0 == "kernel" && key.3 >= 64 && *legacy < self.min_speedup_at_64 * *packed {
                return Err(format!(
                    "cell {key:?}: packed p50 {packed:.3} us is only {:.2}x faster than \
                     legacy {legacy:.3} us (bar: {}x)",
                    legacy / packed,
                    self.min_speedup_at_64
                ));
            }
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!(
            "{} matrix rows, speedup bar {}x at batch >= 64",
            self.rows.len(),
            self.min_speedup_at_64
        )
    }
}

/// Deterministic row-major inputs in the range the kernel models'
/// scalers were fitted on.
fn random_flat(seed: u64, rows: usize, width: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * width)
        .map(|_| rng.gen_range(1.0..100.0))
        .collect()
}

/// Builds an op-model whose scalers come from a quick fit and whose
/// network is replaced with the requested shape and activation — the
/// kernel scope measures inference speed, not fit quality, and the
/// bit-identity contract holds for any weights.
fn kernel_model(width: usize, hidden: &[usize], act: Activation, seed: u64) -> LogicalOpModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for _ in 0..24 {
        inputs.push((0..width).map(|_| rng.gen_range(1.0..100.0)).collect());
        targets.push(rng.gen_range(0.5..5.0));
    }
    let dims: Vec<String> = (0..width).map(|d| format!("d{d}")).collect();
    let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &dim_refs,
        &Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    model.with_network(Network::with_activation(width, hidden, act, seed))
}

/// Measures one kernel-scope legacy/packed pair over `flat` rows:
/// `legacy` is the per-row reference chain
/// (`LogicalOpModel::predict_nn_reference` — domain conversion, scaler
/// transform, and `Network::predict`, each allocating per row); `packed`
/// is the fused [`costing::PackedOpModel::predict_batch_into`] that
/// replaced it on every estimate path.
fn bench_kernel_pair(
    model: &LogicalOpModel,
    label: (&str, &str),
    flat: &[f64],
    width: usize,
    batch: usize,
    duration: Duration,
) -> Vec<HotpathRow> {
    let (topology, activation) = label;
    let packed = model.packed();
    let nested: Vec<Vec<f64>> = flat.chunks_exact(width).map(|r| r.to_vec()).collect();

    // One untimed evaluation per kernel fixes that kernel's checksum;
    // validation requires the pair to agree bit for bit. Both sums run
    // in row order, so equal outputs mean equal sums exactly.
    let mut scratch = PackedOpScratch::new();
    let mut out = Vec::new();
    packed.predict_batch_into(flat, width, &mut out, &mut scratch);
    let packed_checksum: f64 = out.iter().sum();
    let legacy_checksum: f64 = nested.iter().map(|r| model.predict_nn_reference(r)).sum();

    let template = HotpathRow {
        scope: "kernel".to_string(),
        kernel: String::new(),
        topology: topology.to_string(),
        activation: activation.to_string(),
        batch: batch as u64,
        concurrency: 1,
        republishers: 0,
        iters: 0,
        p50_us: 0.0,
        p99_us: 0.0,
        mean_us: 0.0,
        rows_per_sec: 0.0,
        checksum: 0.0,
    };

    let mut rows = Vec::new();
    for kernel in ["legacy", "packed"] {
        let mut lat_us = Vec::new();
        let started = Instant::now();
        while started.elapsed() < duration {
            let t0 = Instant::now();
            match kernel {
                "legacy" => {
                    // The reference chain, per row: it allocates for the
                    // domain conversion, the scaler transform, and every
                    // layer of Network::predict.
                    let mut sum = 0.0;
                    for r in &nested {
                        sum += model.predict_nn_reference(r);
                    }
                    std::hint::black_box(sum);
                }
                _ => {
                    packed.predict_batch_into(flat, width, &mut out, &mut scratch);
                    std::hint::black_box(out.last().copied());
                }
            }
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
        let checksum = if kernel == "legacy" {
            legacy_checksum
        } else {
            packed_checksum
        };
        rows.push(template.measured(kernel, lat_us, elapsed_s, checksum));
    }
    rows
}

/// Replays the pre-refactor batch compute against a pinned snapshot:
/// nested staging clones plus the allocating
/// `predict_nn_batch_reference` chain.
fn legacy_batch_compute(model: &LogicalOpModel, flat: &[f64], width: usize) -> Vec<CostEstimate> {
    let rows: Vec<Vec<f64>> = flat.chunks_exact(width).map(|r| r.to_vec()).collect();
    model
        .predict_nn_batch_reference(&rows)
        .into_iter()
        .map(|secs| CostEstimate::new(secs, EstimateSource::NeuralNetwork))
        .collect()
}

/// Measures one service-scope legacy/packed pair: `concurrency` reader
/// threads estimating the same flat batch against per-iteration pinned
/// snapshots while `republishers` threads churn epochs.
fn bench_service_pair(
    flow: &LogicalOpCosting,
    batch: usize,
    concurrency: usize,
    republishers: usize,
    duration: Duration,
) -> Vec<HotpathRow> {
    let service = EstimatorService::new(ServiceConfig {
        cache_capacity_per_shard: 0, // measure the compute path, not the cache
    });
    let system = SystemId::new("hotpath-svc");
    let op = flow.model.op;
    service.register(system.clone(), flow.clone());
    let width = flow.model.arity();
    let flat = harness::in_range_flat(0x407b47, batch);
    let topology = {
        let widths = flow.model.network().hidden_widths();
        let dims: Vec<String> = widths.iter().map(|w| w.to_string()).collect();
        format!("{}->{}", width, dims.join("x"))
    };

    // Every call sums its own batch (the service's packed path is
    // bit-identical to the legacy chain by the differential suite;
    // validation re-checks it by comparing the pair's checksums).
    let checksum_for = |ests: &[CostEstimate]| ests.iter().map(|e| e.secs).sum::<f64>();

    let template = HotpathRow {
        scope: "service".to_string(),
        kernel: String::new(),
        topology,
        activation: "tanh".to_string(),
        batch: batch as u64,
        concurrency: concurrency as u64,
        republishers: republishers as u64,
        iters: 0,
        p50_us: 0.0,
        p99_us: 0.0,
        mean_us: 0.0,
        rows_per_sec: 0.0,
        checksum: 0.0,
    };

    let mut rows = Vec::new();
    for kernel in ["legacy", "packed"] {
        let (service, system, flat) = (&service, &system, &flat);
        let slice =
            harness::measure_under_churn(service, concurrency, republishers, duration, || {
                let mut scratch = EstimateScratch::new();
                let mut out = Vec::new();
                move || {
                    let snapshot = service.snapshot();
                    match kernel {
                        "legacy" => {
                            let flow = snapshot.model(system, op).expect("model registered");
                            checksum_for(&legacy_batch_compute(&flow.model, flat, width))
                        }
                        _ => {
                            service
                                .estimate_batch_flat_pinned_scratch(
                                    &snapshot,
                                    system,
                                    op,
                                    flat,
                                    width,
                                    &mut out,
                                    &mut scratch,
                                )
                                .expect("batch estimates");
                            checksum_for(&out)
                        }
                    }
                }
            });
        rows.push(template.measured(kernel, slice.lat_us, slice.elapsed_s, slice.checksum));
    }
    rows
}

/// Runs the matrix and returns the measured document.
pub fn run(cfg: &ExpConfig) -> HotpathDoc {
    heading("Estimate hot path — packed vs legacy kernels, batch x concurrency x churn");

    let cell_time = if cfg.quick {
        Duration::from_millis(80)
    } else {
        Duration::from_millis(400)
    };
    let mut rows = Vec::new();

    // Kernel scope: the paper's two operator shapes, ReLU hidden
    // activations (the fused kernel's win is layout and allocation, not
    // transcendental throughput — tanh reference rows are appended
    // unjudged below).
    let kernel_shapes: &[(&str, usize, &[usize])] =
        &[("4->10x5", 4, &[10, 5]), ("7->14x7", 7, &[14, 7])];
    let batches: &[usize] = if cfg.quick {
        &[1, 64]
    } else {
        &[1, 8, 64, 256]
    };
    for &(label, width, hidden) in kernel_shapes {
        let model = kernel_model(width, hidden, Activation::Relu, cfg.seed);
        for &batch in batches {
            let flat = random_flat(cfg.seed ^ batch as u64, batch, width);
            rows.extend(bench_kernel_pair(
                &model,
                (label, "relu"),
                &flat,
                width,
                batch,
                cell_time,
            ));
        }
    }
    // One tanh reference pair shows how much of the per-row cost is
    // transcendental (and therefore untouched by packing). The speedup
    // bar applies to every kernel cell at batch >= 64, so this
    // reference pair stays at batch 8 where the bar does not judge it.
    let tanh_model = kernel_model(4, &[10, 5], Activation::Tanh, cfg.seed);
    let tanh_flat = random_flat(cfg.seed ^ 0x7a, 8, 4);
    rows.extend(bench_kernel_pair(
        &tanh_model,
        ("4->10x5", "tanh"),
        &tanh_flat,
        4,
        8,
        cell_time,
    ));

    // Service scope: concurrency and epoch churn around the pinned
    // batch path.
    let flow = harness::trained_flow(1.0);
    let service_batches: &[usize] = if cfg.quick { &[64] } else { &[8, 64] };
    let concurrencies: &[usize] = if cfg.quick { &[1, 2] } else { &[1, 4] };
    let republisher_counts: &[usize] = if cfg.quick { &[0, 1] } else { &[0, 2] };
    for &batch in service_batches {
        for &conc in concurrencies {
            for &repub in republisher_counts {
                rows.extend(bench_service_pair(&flow, batch, conc, repub, cell_time));
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scope.clone(),
                r.kernel.clone(),
                r.topology.clone(),
                r.activation.clone(),
                r.batch.to_string(),
                r.concurrency.to_string(),
                r.republishers.to_string(),
                r.iters.to_string(),
                format!("{:.2}", r.p50_us),
                format!("{:.2}", r.p99_us),
                format!("{:.0}", r.rows_per_sec),
            ]
        })
        .collect();
    write_text_table(
        cfg,
        "hotpath",
        &[
            "scope", "kernel", "topology", "act", "batch", "conc", "repub", "iters", "p50 us",
            "p99 us", "rows/s",
        ],
        &table,
    );

    let mut doc = HotpathDoc {
        experiment: HotpathDoc::NAME.to_string(),
        quick: cfg.quick,
        seed: cfg.seed,
        host: None,
        min_speedup_at_64: MIN_SPEEDUP_AT_64,
        rows,
    };
    harness::write(cfg, &mut doc);
    kv("matrix cells", doc.rows.len());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate_doc(text: &str) -> Result<HotpathDoc, String> {
        harness::parse(text)
    }

    fn sample_pair(scope: &str, batch: u64, legacy_p50: f64, packed_p50: f64) -> Vec<HotpathRow> {
        ["legacy", "packed"]
            .iter()
            .map(|&kernel| HotpathRow {
                scope: scope.to_string(),
                kernel: kernel.to_string(),
                topology: "4->10x5".to_string(),
                activation: "relu".to_string(),
                batch,
                concurrency: 1,
                republishers: 0,
                iters: 1000,
                p50_us: if kernel == "legacy" {
                    legacy_p50
                } else {
                    packed_p50
                },
                p99_us: 100.0,
                mean_us: 10.0,
                rows_per_sec: 1e6,
                checksum: 42.5,
            })
            .collect()
    }

    fn sample_doc() -> HotpathDoc {
        HotpathDoc {
            experiment: "hotpath".to_string(),
            quick: true,
            seed: 1,
            host: None,
            min_speedup_at_64: MIN_SPEEDUP_AT_64,
            rows: sample_pair("kernel", 64, 40.0, 10.0),
        }
    }

    #[test]
    fn schema_roundtrips_and_validates() {
        let text = serde_json::to_string_pretty(&sample_doc()).unwrap();
        let doc = validate_doc(&text).expect("valid doc");
        assert_eq!(doc.rows.len(), 2);
    }

    #[test]
    fn validation_enforces_the_speedup_bar_at_batch_64() {
        let mut doc = sample_doc();
        doc.rows = sample_pair("kernel", 64, 20.0, 10.0); // only 2x
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("faster"));
        // The same ratio passes below the bar's batch threshold…
        let mut doc = sample_doc();
        doc.rows = sample_pair("kernel", 8, 20.0, 10.0);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).is_ok());
        // …and on service rows, which the bar does not judge.
        let mut doc = sample_doc();
        doc.rows = sample_pair("service", 256, 20.0, 10.0);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).is_ok());
    }

    #[test]
    fn validation_rejects_broken_payloads() {
        let mut doc = sample_doc();
        doc.rows[0].checksum = 43.0; // diverged kernels
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("checksum"));

        let mut doc = sample_doc();
        doc.rows[0].p50_us = 200.0; // above p99
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("quantiles"));

        let mut doc = sample_doc();
        doc.rows.pop(); // widowed pair
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("twin"));
    }

    #[test]
    fn kernel_pair_measures_and_checksums_agree() {
        let model = kernel_model(4, &[10, 5], Activation::Relu, 7);
        let flat = random_flat(3, 16, 4);
        let rows = bench_kernel_pair(
            &model,
            ("4->10x5", "relu"),
            &flat,
            4,
            16,
            Duration::from_millis(20),
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].checksum.to_bits(),
            rows[1].checksum.to_bits(),
            "the per-row reference chain and the fused packed kernel must agree bit for bit"
        );
        for r in &rows {
            assert!(r.iters > 0, "{r:?}");
            assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us, "{r:?}");
        }
    }

    #[test]
    fn service_pair_measures_under_churn_with_equal_checksums() {
        let flow = harness::trained_flow(1.0);
        let rows = bench_service_pair(&flow, 8, 2, 1, Duration::from_millis(30));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].checksum.to_bits(),
            rows[1].checksum.to_bits(),
            "legacy and packed service paths must agree bit for bit"
        );
        for r in &rows {
            assert!(r.iters > 0, "{r:?}");
            assert_eq!(r.republishers, 1);
        }
    }
}
