//! `feedback_churn`: writes beside reads on one `EstimatorService`.
//!
//! A writer thread starts a cycle of {256 × `observe_actual` with actuals
//! drifted ×1.3 from the simulator truth, `adjust_alpha`, `run_tuning`}
//! against one model every [`WRITER_PERIOD`], while a reader thread plans
//! the `sql_repeat` stream. The same `costing.service` / `costing.epoch`
//! layer is used for clone-modify-publish here where the other
//! workloads use it for lock-free reads: a read-path gain that is paid
//! for at publish, or an epoch bump that empties the cache, shows here
//! and nowhere else. The reader's ops are the workload's ops.

use super::sql::SqlWorkload;
use crate::fixture::Fixture;
use crate::harness::{
    accuracy, closed_loop, per_call_ns, BlockShape, Measured, Mode, Replay, Workload,
};
use crate::span::{durations_us, SpanBuf, SpanId, NO_PARENT};
use crate::stats::median;
use catalog::SystemId;
use costing::{
    agg_features, join_features, EstimatorService, FitConfig, ModelKey, OperatorKind,
    TuningPipeline,
};
use remote_sim::analyze::analyze;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use telemetry::{DriftConfig, DriftMonitor};

/// Latency limit behind `slo_ok_share`, µs: a reader op beside the
/// writer has a 90th percentile near 2 ms, and a limit inside the body
/// of the distribution would make the share as unsteady as a tail.
pub const SLO_US: f64 = 5_000.0;

/// Seconds from the start of one writer cycle to the start of the next.
/// Feedback arrives at a rate of its own: the service keeps what it
/// observes, so its memory and the cost of a publish grow with the
/// cycles done, and a writer that cycles as fast as it can would make
/// them grow with its own speed. A cycle takes about 80 ms.
const WRITER_PERIOD: Duration = Duration::from_millis(200);

/// The reader's blocks are one writer period long, so every block holds
/// one observe phase (each call publishes an epoch and the reader finds
/// its cache empty), one tuning phase and one pause.
const BLOCKS: BlockShape = BlockShape { secs: 0.2, ops: 1 };

/// Observations per writer cycle.
const OBSERVES: usize = 256;

/// How far the observed actuals sit from the simulator truth.
const DRIFT: f64 = 1.3;

/// One observation the writer can feed back.
struct Observation {
    features: Vec<f64>,
    /// Simulator truth × [`DRIFT`], seconds.
    actual_secs: f64,
}

/// What one writer cycle did.
#[derive(Default)]
struct CycleOutcome {
    calls: u64,
    failed: u64,
    entries_drained: u64,
    epoch_visible: bool,
    /// Wall time of the `run_tuning` call alone, ms.
    tune_ms: f64,
}

/// The write-beside-read workload.
pub struct ChurnWorkload {
    reader: SqlWorkload,
    service: EstimatorService,
    /// Observations per model, from the reader's 64 templates.
    pool: BTreeMap<ModelKey, Vec<Observation>>,
    pipeline: TuningPipeline,
}

impl ChurnWorkload {
    /// Builds the reader stream and the observation pool from the seed.
    pub fn new(fx: &mut Fixture, seed: u64) -> Self {
        let reader = SqlWorkload::repeat(fx, seed);
        let mut pool: BTreeMap<ModelKey, Vec<Observation>> = BTreeMap::new();
        let systems = fx.systems.clone();
        for sql in reader.statements() {
            let plan = sqlkit::sql_to_plan(sql).expect("generated SQL parses");
            let analysis = analyze(&fx.catalog, &plan).expect("generated SQL analyses");
            let (op, features) = match (join_features(&analysis), agg_features(&analysis)) {
                (Some(f), _) if analysis.join.is_some() => (OperatorKind::Join, f.to_vec()),
                (_, Some(f)) => (OperatorKind::Aggregation, f.to_vec()),
                _ => continue,
            };
            for system in &systems {
                let actual_secs = fx.truth_secs(system, &plan) * DRIFT;
                pool.entry((system.clone(), op))
                    .or_default()
                    .push(Observation {
                        features: features.clone(),
                        actual_secs,
                    });
            }
        }
        ChurnWorkload {
            reader,
            service: fx.service(),
            pool,
            pipeline: TuningPipeline::new(FitConfig::fast()),
        }
    }

    /// The model cycle `c` writes to: the models take turns.
    fn key_of(&self, c: usize) -> (&ModelKey, &[Observation]) {
        let (key, obs) = self
            .pool
            .iter()
            .nth(c % self.pool.len())
            .expect("the pool has a model");
        (key, obs)
    }

    /// One writer cycle against `service`, with a span around each call
    /// when `spans` is given.
    fn cycle(
        &self,
        service: &EstimatorService,
        c: usize,
        mut spans: Option<(&mut SpanBuf, SpanId)>,
    ) -> CycleOutcome {
        let op_id = c as u32;
        let mut timed = |name: &'static str, f: &mut dyn FnMut() -> bool| match &mut spans {
            Some((buf, root)) => buf.time(name, op_id, *root, f),
            None => f(),
        };
        let ((system, op), observations) = self.key_of(c);
        let mut outcome = CycleOutcome::default();
        for j in 0..OBSERVES {
            let o = &observations[(c * OBSERVES + j) % observations.len()];
            let ok = timed("costing.observe", &mut || {
                service
                    .observe_actual(system, *op, &o.features, o.actual_secs)
                    .is_ok()
            });
            outcome.failed += u64::from(!ok);
        }
        let ok = timed("costing.alpha", &mut || {
            service.adjust_alpha(system, *op).is_ok()
        });
        outcome.failed += u64::from(!ok);
        let before = service.epoch();
        // From the call to the new epoch being what a reader would pin.
        outcome.epoch_visible = timed("costing.retune", &mut || {
            let started = Instant::now();
            let report = service.run_tuning(&self.pipeline);
            outcome.tune_ms = started.elapsed().as_secs_f64() * 1e3;
            outcome.entries_drained = report.entries_drained as u64;
            report.epoch.is_some_and(|e| service.epoch() >= e) && service.epoch() > before
        });
        let visible = outcome.epoch_visible;
        outcome.failed += u64::from(!visible);
        outcome.calls = OBSERVES as u64 + 2;
        outcome
    }

    /// `(estimate, drifted actual)` for every observation of the models
    /// the first `cycles` cycles retuned.
    fn pairs_after(&self, service: &EstimatorService, cycles: usize) -> Vec<(f64, f64)> {
        let mut pairs = Vec::new();
        for c in 0..cycles.min(self.pool.len()) {
            let ((system, op), observations) = self.key_of(c);
            for o in observations {
                if let Ok(e) = service.estimate(system, *op, &o.features) {
                    pairs.push((e.secs, o.actual_secs));
                }
            }
        }
        pairs
    }
}

impl Workload for ChurnWorkload {
    fn measure(&mut self, fx: &mut Fixture, seconds: f64) -> Measured {
        let stop = AtomicBool::new(false);
        let (this, fx) = (&*self, &*fx);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let (mut calls, mut failed) = (0u64, 0u64);
                let started = Instant::now();
                for c in 0.. {
                    // A cycle that overran its period starts at once.
                    let due = WRITER_PERIOD * c as u32;
                    std::thread::sleep(due.saturating_sub(started.elapsed()));
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let outcome = this.cycle(&this.service, c, None);
                    calls += outcome.calls;
                    failed += outcome.failed;
                }
                (calls, failed)
            });
            let mut measured = closed_loop(seconds, SLO_US, BLOCKS, |position| {
                this.reader.plan_once(fx, &this.service, position)
            });
            stop.store(true, Ordering::SeqCst);
            let (calls, failed) = writer.join().expect("the writer thread does not panic");
            measured.extra_attempted = calls;
            measured.extra_failed = failed;
            measured
        })
    }

    fn replay(&mut self, fx: &mut Fixture, mode: Mode) -> Replay {
        let digest_cycles = 4;
        let cycles = match mode {
            Mode::Check => digest_cycles,
            Mode::Trace => 40,
            Mode::Fill => 2,
        };
        let mut out = Replay::with_capacity(cycles * (OBSERVES + 8));
        let service = fx.service();
        let epoch_at_start = service.epoch().get();
        let mut every_epoch_visible = true;
        let mut failed = 0u64;
        let (mut drained, mut epochs) = (0u64, 0u64);
        let mut pairs = Vec::new();
        let mut observes_per_s = Vec::new();
        let mut tune_ms = Vec::new();

        for c in 0..cycles {
            if c % 4 == 0 {
                out.sample_host();
            }
            let root = out.spans.open("op", c as u32, NO_PARENT);
            let first_span = out.spans.spans().len();
            let outcome = self.cycle(&service, c, Some((&mut out.spans, root)));
            out.spans.close(root);
            every_epoch_visible &= outcome.epoch_visible;
            failed += outcome.failed;
            let observe_ns: u64 = out.spans.spans()[first_span..]
                .iter()
                .filter(|s| s.name == "costing.observe")
                .map(|s| s.dur_ns())
                .sum();
            observes_per_s.push(OBSERVES as f64 / (observe_ns as f64 / 1e9));
            tune_ms.push(outcome.tune_ms);
            if c < digest_cycles {
                drained += outcome.entries_drained;
            }
            if c + 1 == digest_cycles.min(cycles) {
                epochs = service.epoch().get() - epoch_at_start;
                pairs = self.pairs_after(&service, c + 1);
            }
            out.spans
                .replay("costing.publish", c as u32, NO_PARENT, || {
                    service.republish();
                });
        }

        out.sample_host();
        out.check(
            "every retune's epoch is visible when run_tuning returns",
            every_epoch_visible,
            format!("{cycles} cycles"),
        );
        out.check(
            "no observe, alpha or tuning call failed",
            failed == 0,
            format!("{failed} failures"),
        );

        // The same cycles once more without spans, on a service of their
        // own: the measured pass times the reader, so the writer's
        // untraced twin is taken here.
        let twin = fx.service();
        let untraced_us: Vec<f64> = (0..cycles)
            .map(|c| {
                let started = Instant::now();
                self.cycle(&twin, c, None);
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.untraced_op_p50_us = Some(median(&untraced_us));
        out.sample_host();

        let spans = out.spans.spans();
        out.op_p50_us = median(&durations_us(spans, "op"));
        out.layer_from_span("costing.observe_us", "costing.observe", 1.0);
        out.layer_from_span("costing.alpha_us", "costing.alpha", 1.0);
        out.layers.insert("costing.tune_ms", median(&tune_ms));
        out.layer_from_span("costing.retune_p50_ms", "costing.retune", 1e-3);
        out.layer_from_span("costing.publish_us", "costing.publish", 1.0);
        out.layers
            .insert("costing.observes_per_s", median(&observes_per_s));
        if mode != Mode::Check {
            let mut monitor: DriftMonitor<ModelKey> = DriftMonitor::new(DriftConfig::default());
            let key: ModelKey = (SystemId::new("hive"), OperatorKind::Join);
            out.layers.insert(
                "telemetry.drift_record_ns",
                per_call_ns(9, 2_000, |i| {
                    monitor.record(key.clone(), 1.0 + i as f64, 2.0 + i as f64)
                }),
            );
        }
        let (q_error, rmse_pct) = accuracy(&pairs);
        for (metric, value) in [
            ("costing.tune_entries", drained as f64),
            ("costing.epochs", epochs as f64),
            ("accuracy.q_error_p50", q_error),
            ("accuracy.rmse_pct", rmse_pct),
        ] {
            out.layers.insert(metric, value);
            out.digest.insert(metric.to_string(), value);
        }
        out
    }
}
