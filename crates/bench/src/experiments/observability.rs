//! The standing observability-overhead matrix (DESIGN.md §14).
//!
//! The request-span layer's contract is that observability is *free
//! until you ask for it*: with sampling off, an instrumented service
//! call pays one relaxed atomic load and a handful of thread-local
//! `bool` reads, and with sampling on, only the sampled request pays
//! for the clock. This experiment pins that claim as a trajectory:
//! every run measures the same matrix and writes it to
//! `BENCH_observability.json`, so a regression (a span probe drifting
//! onto the always-on path, a lock sneaking into the sampling gate)
//! shows up as a ratio shift across PRs.
//!
//! A cell is one batch size; three modes share it, one service and one
//! registered model:
//!
//! * **baseline** — a faithful replay of the pre-span batch estimate
//!   path: the same snapshot pin, staging loop, fused packed kernel,
//!   and per-row metric bookkeeping the service ran before the span
//!   layer existed, with no span probes compiled anywhere near it.
//! * **service** — today's instrumented
//!   [`costing::EstimatorService::estimate_batch_flat_pinned_scratch`]
//!   behind a per-call [`telemetry::SpanLayer::start_request`] sampling
//!   gate, on a layer with sampling off (`sample_every` 0) or sampling
//!   every request (1). The layer is the only difference between the
//!   two.
//!
//! The three are timed call by call on one thread
//! (`harness::interleaved`), so a clock step or a cache state lands on
//! every mode alike instead of biasing one side. The gated path is one
//! relaxed atomic load plus thread-local reads, with no shared
//! read-modify-write, so thread count and epoch churn cannot change its
//! cost relative to the baseline; the service beside a publishing writer
//! is the benchmark's `feedback_churn`, and bit consistency under
//! republish is `tests/it_epoch_churn.rs`. The run checks its own
//! document against the acceptance bar (exit 1 from `exp_observability`
//! when it fails): in every cell, the sampled-off service p50 must be
//! within `MAX_OVERHEAD_PCT` percent (plus a one-microsecond absolute
//! grace) of the baseline p50, and all of a cell's checksums must agree
//! bit for bit — instrumentation must not change a single answer.
//!
//! The run also drives a short deterministic serving scenario (manual
//! clock, sampling 1-in-1, a tight latency SLO) to exercise the rest of
//! the plane end to end: the document's `ops` section proves spans were
//! sampled, exemplars retained and SLO burn alerts fired.

use crate::harness::{self, BenchDoc, Envelope, Host};
use crate::report::{heading, kv, write_text_table, ExpConfig};
use catalog::SystemId;
use costing::logical_op::flow::LogicalOpCosting;
use costing::service::{EstimatorService, ServiceConfig};
use costing::{CostEstimate, EstimateScratch, EstimateSource, ModelSnapshot, OperatorKind};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serving::{Clock, EstimateRequest, Frontend, FrontendConfig};
use std::cell::Cell;
use std::time::Duration;
use telemetry::span::{SpanConfig, SpanLayer};
use telemetry::{Counter, Histogram, SloConfig, Stage, Telemetry};

/// The acceptance bar: the sampled-off service p50 may exceed the
/// uninstrumented baseline p50 by at most this percentage (plus
/// [`ABS_GRACE_US`] of absolute grace for sub-microsecond cells).
pub(crate) const MAX_OVERHEAD_PCT: f64 = 5.0;

/// Absolute grace on the overhead bar, in microseconds.
pub(crate) const ABS_GRACE_US: f64 = 1.0;

/// One measured matrix cell, as written to `BENCH_observability.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservabilityRow {
    /// `"baseline"` (pre-span replay) or `"service"` (instrumented path).
    pub(crate) mode: String,
    /// Span sampling period for service rows (`0` = off; baseline rows
    /// are always 0).
    pub(crate) sample_every: u64,
    /// Rows per measured call.
    pub(crate) batch: u64,
    /// Timed calls.
    pub(crate) iters: u64,
    /// Median per-call latency, microseconds.
    pub(crate) p50_us: f64,
    /// 99th-percentile per-call latency, microseconds.
    pub(crate) p99_us: f64,
    /// Mean per-call latency, microseconds.
    pub(crate) mean_us: f64,
    /// Throughput of this mode's own calls, estimated rows per second
    /// (`batch / mean_us`).
    pub(crate) rows_per_sec: f64,
    /// Sum of the batch's outputs on the last timed call — must be
    /// bit-identical across every mode of the same cell.
    pub(crate) checksum: f64,
}

/// End-to-end plane proof from the deterministic serving scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpsSummary {
    /// Requests the sampling gate saw.
    pub(crate) requests_seen: u64,
    /// Spans actually sampled.
    pub(crate) sampled_total: u64,
    /// Exemplars retained in the reservoir at the end of the scenario.
    pub(crate) exemplars_retained: u64,
    /// SLO burn-rate alerts fired (`slo_alerts_total`).
    pub(crate) slo_alerts: u64,
}

/// The full document written to `BENCH_observability.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservabilityDoc {
    /// Always `"observability"`.
    pub(crate) experiment: String,
    /// Whether this was a `--quick` run.
    pub(crate) quick: bool,
    /// Master seed inputs were generated from.
    pub(crate) seed: u64,
    /// The measuring host, stamped by the harness writer.
    #[serde(default)]
    pub(crate) host: Option<Host>,
    /// The overhead bar validation enforces on sampled-off cells.
    pub(crate) max_overhead_pct: f64,
    /// One row per matrix cell and mode.
    pub(crate) rows: Vec<ObservabilityRow>,
    /// The end-to-end plane proof.
    pub(crate) ops: OpsSummary,
}

impl BenchDoc for ObservabilityDoc {
    const NAME: &'static str = "observability";

    fn envelope(&mut self) -> Envelope<'_> {
        Envelope {
            experiment: &self.experiment,
            rows: self.rows.len(),
            host: &mut self.host,
        }
    }

    /// Quantile ordering, per-cell checksum bit-identity, the
    /// sampled-off overhead bar, and the end-to-end ops proof.
    fn check(&self) -> Result<(), String> {
        if !(self.max_overhead_pct.is_finite() && self.max_overhead_pct > 0.0) {
            return Err(format!("bad max_overhead_pct {}", self.max_overhead_pct));
        }
        for (i, r) in self.rows.iter().enumerate() {
            if r.mode != "baseline" && r.mode != "service" {
                return Err(format!("row {i}: unknown mode {:?}", r.mode));
            }
            if r.mode == "baseline" && r.sample_every != 0 {
                return Err(format!("row {i}: baseline rows cannot sample"));
            }
            if r.batch == 0 || r.iters == 0 {
                return Err(format!("row {i}: empty measurement"));
            }
            harness::check_latencies(i, &[("p50_us", r.p50_us), ("p99_us", r.p99_us)], false)?;
            harness::check_latencies(i, &[("mean_us", r.mean_us)], false)?;
            if !r.checksum.is_finite() {
                return Err(format!("row {i}: non-finite checksum"));
            }
        }
        // Group the modes of one matrix point and hold the sampled-off
        // service row against the baseline.
        let cell_key = |r: &ObservabilityRow| r.batch;
        let mut cells: std::collections::HashMap<_, (Option<f64>, Option<f64>, Vec<u64>)> =
            std::collections::HashMap::new();
        for r in &self.rows {
            let entry = cells.entry(cell_key(r)).or_default();
            if r.mode == "baseline" {
                entry.0 = Some(r.p50_us);
            } else if r.sample_every == 0 {
                entry.1 = Some(r.p50_us);
            }
            entry.2.push(r.checksum.to_bits());
        }
        for (key, (baseline, service_off, checksums)) in &cells {
            let (Some(baseline), Some(service_off)) = (baseline, service_off) else {
                return Err(format!(
                    "cell {key:?}: missing its baseline/sampled-off pair"
                ));
            };
            if checksums.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!(
                    "cell {key:?}: checksums differ across modes — instrumentation changed answers"
                ));
            }
            let bar = baseline * (1.0 + self.max_overhead_pct / 100.0) + ABS_GRACE_US;
            if *service_off > bar {
                return Err(format!(
                    "cell {key:?}: sampled-off p50 {service_off:.3} us exceeds baseline \
                     {baseline:.3} us by more than {}% (+{ABS_GRACE_US} us grace)",
                    self.max_overhead_pct
                ));
            }
        }
        if self.ops.sampled_total == 0 || self.ops.requests_seen < self.ops.sampled_total {
            return Err(format!(
                "ops: sampling counters broken ({} sampled of {} seen)",
                self.ops.sampled_total, self.ops.requests_seen
            ));
        }
        if self.ops.exemplars_retained == 0 {
            return Err("ops: no exemplars retained".to_string());
        }
        if self.ops.slo_alerts == 0 {
            return Err("ops: the induced SLO breach fired no alert".to_string());
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!(
            "{} matrix rows, {} spans sampled, {} slo alerts",
            self.rows.len(),
            self.ops.sampled_total,
            self.ops.slo_alerts
        )
    }
}

/// Reusable buffers for the baseline replay, mirroring the service's
/// [`EstimateScratch`] shape.
struct BaselineScratch {
    results: Vec<Option<CostEstimate>>,
    miss_idx: Vec<usize>,
    in_range: Vec<usize>,
    nn_rows: Vec<f64>,
    nn_out: Vec<f64>,
    packed: costing::PackedOpScratch,
}

impl BaselineScratch {
    fn new() -> Self {
        BaselineScratch {
            results: Vec::new(),
            miss_idx: Vec::new(),
            in_range: Vec::new(),
            nn_rows: Vec::new(),
            nn_out: Vec::new(),
            packed: costing::PackedOpScratch::new(),
        }
    }
}

/// Replays the pre-span batch estimate path against a pinned snapshot:
/// the same cache-disabled control flow, staging discipline, fused
/// kernel, and per-row metric bookkeeping as
/// `estimate_batch_flat_pinned_scratch` before the span probes landed —
/// with no span layer anywhere in sight.
#[allow(clippy::too_many_arguments)]
fn baseline_batch(
    snapshot: &ModelSnapshot,
    system: &SystemId,
    op: OperatorKind,
    flat: &[f64],
    width: usize,
    out: &mut Vec<CostEstimate>,
    s: &mut BaselineScratch,
    hits: &Counter,
    misses: &Counter,
    estimate_secs: &Histogram,
) {
    out.clear();
    let n = flat.len() / width.max(1);
    s.results.clear();
    s.results.resize(n, None);
    s.miss_idx.clear();
    s.miss_idx.extend(0..n);
    hits.add((n - s.miss_idx.len()) as u64);
    let flow = snapshot.model(system, op).expect("model registered");
    s.in_range.clear();
    s.nn_rows.clear();
    for (i, row) in flat.chunks_exact(width).enumerate() {
        if flow.model.meta.all_in_range(row, flow.remedy.beta) {
            s.in_range.push(i);
            s.nn_rows.extend_from_slice(row);
        } else {
            s.results[i] = Some(CostEstimate::new(
                flow.model.predict_nn_reference(row),
                EstimateSource::NeuralNetwork,
            ));
        }
    }
    let packed = snapshot.packed(system, op).expect("packed form");
    packed.predict_batch_into(&s.nn_rows, width, &mut s.nn_out, &mut s.packed);
    for (&i, &secs) in s.in_range.iter().zip(s.nn_out.iter()) {
        s.results[i] = Some(CostEstimate::new(secs, EstimateSource::NeuralNetwork));
    }
    misses.add(s.miss_idx.len() as u64);
    for &i in s.miss_idx.iter() {
        if let Some(est) = s.results[i].as_ref() {
            estimate_secs.observe(est.secs);
        }
    }
    out.reserve(n);
    for r in s.results.drain(..) {
        out.push(r.expect("slot computed"));
    }
}

/// Times the three modes of one cell (batch size) call by call on this
/// thread for `duration`: the baseline replay, then the service call
/// opening its request on a layer with sampling off and on one sampling
/// every request. All three share one service and its one registered
/// model.
fn bench_cell(
    flow: &LogicalOpCosting,
    seed: u64,
    batch: usize,
    duration: Duration,
) -> Vec<ObservabilityRow> {
    let service = EstimatorService::new(ServiceConfig {
        cache_capacity_per_model: 0, // measure the compute path, not the cache
    });
    let system = SystemId::new("obs-svc");
    let op = flow.model.op;
    service.register(system.clone(), flow.clone());
    let width = flow.model.arity();
    let flat = harness::in_range_flat(seed ^ batch as u64, batch);
    let (service, system, flat) = (&service, &system, flat.as_slice());

    let reg = &service.telemetry().metrics;
    let hits = reg.counter("baseline_hits_total", &[]);
    let misses = reg.counter("baseline_misses_total", &[]);
    let secs_hist = reg.histogram(
        "baseline_estimate_secs",
        &[],
        &[0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0],
    );
    let modes: [(&str, u64); 3] = [("baseline", 0), ("service", 0), ("service", 1)];
    let checksums: &[Cell<f64>; 3] = &Default::default();

    let mut baseline_scratch = BaselineScratch::new();
    let mut baseline_out = Vec::new();
    let mut baseline = || {
        baseline_batch(
            &service.snapshot(),
            system,
            op,
            flat,
            width,
            &mut baseline_out,
            &mut baseline_scratch,
            &hits,
            &misses,
            &secs_hist,
        );
        checksums[0].set(baseline_out.iter().map(|e| e.secs).sum());
    };
    // The per-request sampling gate the serving front-end runs: this is
    // what the sampled-off path's "one relaxed load" claim is measured
    // against.
    let service_call = |spans: SpanLayer, slot: usize| {
        let mut scratch = EstimateScratch::new();
        let mut out = Vec::new();
        move || {
            let snapshot = service.snapshot();
            let mut guard = spans.start_request(0);
            if guard.is_sampled() {
                guard.set_epoch(snapshot.epoch().get());
            }
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
            checksums[slot].set(out.iter().map(|e| e.secs).sum());
        }
    };
    let mut sampled_off = service_call(SpanLayer::default(), 1);
    let mut sampled_on = service_call(
        SpanLayer::new(SpanConfig {
            sample_every: 1,
            ..SpanConfig::default()
        }),
        2,
    );
    let lat_us = harness::interleaved(
        duration,
        &mut [&mut baseline, &mut sampled_off, &mut sampled_on],
    );

    lat_us
        .into_iter()
        .zip(modes)
        .zip(checksums)
        .map(|((mut lat_us, (mode, every)), checksum)| {
            let iters = lat_us.len() as u64;
            let (p50, p99, mean) = harness::summarize(&mut lat_us);
            ObservabilityRow {
                mode: mode.to_string(),
                sample_every: every,
                batch: batch as u64,
                iters,
                p50_us: p50,
                p99_us: p99,
                mean_us: mean,
                rows_per_sec: batch as f64 * 1e6 / mean.max(1e-9),
                checksum: checksum.get(),
            }
        })
        .collect()
}

/// Drives the whole plane end to end on a deterministic manual clock:
/// 1-in-1 sampling and a deliberately unmeetable latency SLO, so spans
/// are sampled and alerts fire under load. Returns the ops proof and
/// writes the exemplar table.
fn ops_scenario(cfg: &ExpConfig) -> OpsSummary {
    let telemetry = Telemetry {
        spans: SpanLayer::new(SpanConfig {
            sample_every: 1,
            exemplar_k: 8,
            exemplar_window: 64,
        }),
        ..Telemetry::default()
    };
    let service = EstimatorService::with_telemetry(ServiceConfig::default(), telemetry.clone());
    let system = SystemId::new("obs-ops");
    service.register(system.clone(), harness::trained_flow());

    let clock = Clock::manual(0);
    let frontend = Frontend::with_clock(
        service,
        FrontendConfig {
            workers: 0,
            coalesce_window_us: 0,
            max_batch: 8,
            // Every response will take 100 manual-clock micros against a
            // 50 us target: a 100% bad fraction whose burn rate maxes
            // both SLO windows and must fire the alert.
            slo: Some(SloConfig {
                target_latency_us: 50.0,
                error_budget: 0.01,
                short_window_us: 10_000,
                long_window_us: 80_000,
                burn_threshold: 2.0,
                cooldown_us: 1_000_000,
                min_requests: 10,
            }),
            ..FrontendConfig::default()
        },
        clock.clone(),
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0B5E);
    let mut tickets = Vec::new();
    for i in 0..200u64 {
        let ticket = frontend.submit(EstimateRequest {
            tenant: i % 4,
            system: system.clone(),
            op: OperatorKind::Aggregation,
            features: vec![rng.gen_range(1.0e5..1.5e6), rng.gen_range(100.0..400.0)],
        });
        if let Ok(t) = ticket {
            tickets.push(t);
        }
        clock.advance_micros(100);
        if i % 4 == 3 {
            while frontend.drain_now() > 0 {}
        }
    }
    while frontend.drain_now() > 0 {}
    for t in tickets {
        let _ = t.wait();
    }

    let telemetry = frontend.service().telemetry().clone();
    let span_snap = telemetry.spans.snapshot();
    let metric_snap = telemetry.metrics.snapshot();
    let ops = OpsSummary {
        requests_seen: span_snap.requests_seen,
        sampled_total: span_snap.sampled_total,
        exemplars_retained: span_snap.exemplars.len() as u64,
        slo_alerts: metric_snap.counter("slo_alerts_total", &[]).unwrap_or(0),
    };

    let table: Vec<Vec<String>> = span_snap
        .exemplars
        .iter()
        .map(|e| {
            let mut row = vec![
                e.span.0.to_string(),
                e.tenant.to_string(),
                e.epoch.to_string(),
                format!("{:.1}", e.total_us),
            ];
            row.extend(Stage::ALL.iter().map(|&s| format!("{:.1}", e.stage_us(s))));
            row
        })
        .collect();
    write_text_table(
        cfg,
        "observability_ops",
        &[
            "span",
            "tenant",
            "epoch",
            "total us",
            "queue_wait",
            "coalesce",
            "cache_probe",
            "kernel",
            "remedy",
            "fed_place",
            "remote_exec",
        ],
        &table,
    );
    kv("spans sampled", ops.sampled_total);
    kv("exemplars retained", ops.exemplars_retained);
    kv("slo alerts fired", ops.slo_alerts);
    ops
}

/// Runs the matrix plus the ops scenario and returns the document.
pub fn run(cfg: &ExpConfig) -> ObservabilityDoc {
    heading("Observability plane — span overhead matrix + end-to-end ops proof");

    let cell_time = if cfg.quick {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(1000)
    };
    let flow = harness::trained_flow();
    let batches: &[usize] = if cfg.quick { &[64] } else { &[64, 256] };
    let rows: Vec<ObservabilityRow> = batches
        .iter()
        .flat_map(|&batch| bench_cell(&flow, cfg.seed, batch, cell_time))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.sample_every.to_string(),
                r.batch.to_string(),
                r.iters.to_string(),
                format!("{:.2}", r.p50_us),
                format!("{:.2}", r.p99_us),
                format!("{:.0}", r.rows_per_sec),
            ]
        })
        .collect();
    write_text_table(
        cfg,
        "observability",
        &[
            "mode", "sample", "batch", "iters", "p50 us", "p99 us", "rows/s",
        ],
        &table,
    );

    let ops = ops_scenario(cfg);

    let mut doc = ObservabilityDoc {
        experiment: ObservabilityDoc::NAME.to_string(),
        quick: cfg.quick,
        seed: cfg.seed,
        host: None,
        max_overhead_pct: MAX_OVERHEAD_PCT,
        rows,
        ops,
    };
    harness::write(cfg, &mut doc);
    kv("matrix cells", doc.rows.len());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate_doc(text: &str) -> Result<ObservabilityDoc, String> {
        harness::parse(text)
    }

    fn sample_rows(baseline_p50: f64, service_off_p50: f64) -> Vec<ObservabilityRow> {
        [
            ("baseline", 0u64, baseline_p50),
            ("service", 0, service_off_p50),
        ]
        .iter()
        .map(|&(mode, every, p50)| ObservabilityRow {
            mode: mode.to_string(),
            sample_every: every,
            batch: 64,
            iters: 1000,
            p50_us: p50,
            p99_us: 100.0,
            mean_us: 10.0,
            rows_per_sec: 1e6,
            checksum: 42.5,
        })
        .collect()
    }

    fn sample_doc() -> ObservabilityDoc {
        ObservabilityDoc {
            experiment: "observability".to_string(),
            quick: true,
            seed: 1,
            host: None,
            max_overhead_pct: MAX_OVERHEAD_PCT,
            rows: sample_rows(40.0, 40.5),
            ops: OpsSummary {
                requests_seen: 200,
                sampled_total: 50,
                exemplars_retained: 8,
                slo_alerts: 1,
            },
        }
    }

    #[test]
    fn observability_schema_roundtrips_and_validates() {
        let text = serde_json::to_string_pretty(&sample_doc()).unwrap();
        let doc = validate_doc(&text).expect("valid doc");
        assert_eq!(doc.rows.len(), 2);
    }

    #[test]
    fn validation_enforces_the_overhead_bar() {
        let mut doc = sample_doc();
        doc.rows = sample_rows(40.0, 44.0); // 10% over, beyond 5% + 1us
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text)
            .unwrap_err()
            .contains("exceeds baseline"));
        // Within the bar (5% of 40 = 2, + 1 us grace).
        let mut doc = sample_doc();
        doc.rows = sample_rows(40.0, 42.9);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).is_ok());
    }

    #[test]
    fn validation_rejects_broken_payloads() {
        let mut doc = sample_doc();
        doc.rows[0].checksum = 43.0; // instrumentation changed answers
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("checksums"));

        let mut doc = sample_doc();
        doc.rows.pop(); // widowed cell
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("pair"));

        let mut doc = sample_doc();
        doc.ops.slo_alerts = 0;
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("alert"));
    }

    #[test]
    fn cell_modes_measure_with_identical_checksums() {
        let flow = harness::trained_flow();
        let rows = bench_cell(&flow, 7, 16, Duration::from_millis(15));
        assert_eq!(rows.len(), 3);
        let bits: Vec<u64> = rows.iter().map(|r| r.checksum.to_bits()).collect();
        assert!(
            bits.windows(2).all(|w| w[0] == w[1]),
            "all modes must produce bit-identical estimates: {rows:?}"
        );
        for r in &rows {
            assert!(r.iters > 0, "{r:?}");
            assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us, "{r:?}");
        }
    }

    #[test]
    fn ops_scenario_samples_and_alerts_deterministically() {
        let ops = ops_scenario(&ExpConfig::quick_silent());
        assert!(ops.sampled_total > 0, "{ops:?}");
        assert!(ops.requests_seen >= ops.sampled_total, "{ops:?}");
        assert!(ops.exemplars_retained > 0, "{ops:?}");
        assert!(ops.slo_alerts >= 1, "induced breach must alert: {ops:?}");
    }
}
