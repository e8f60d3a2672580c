//! Serving front-end under load (DESIGN.md §12).
//!
//! The front-end's claim is that cross-request coalescing buys batched
//! amortisation without giving up latency or correctness, and that
//! admission control sheds overload instead of collapsing. Every row
//! offers a fixed Poisson arrival rate ([`workload::OpenLoopModel`])
//! regardless of how the server responds — the model that actually
//! exposes overload. The sweep crosses offered load × coalesce window,
//! plus one deliberately rate-limited row so the per-tenant token
//! buckets show up in the shed accounting.
//!
//! One generator thread submits each arrival when it is due and polls
//! every outstanding [`Ticket`] in between; the front-end gets the
//! remaining `max(1, cores − 1)` cores as workers, so generator and
//! workers never oversubscribe the host. Latency runs from submit to
//! the poll that sees the reply, and the percentiles are exact
//! nearest-rank reads of the row's latencies against the §12 SLO.
//! Every row reconciles its ledger: submitted = completed + shed +
//! rejected, because every admitted request must resolve.
//!
//! Results land in `results/frontend.txt` and — machine-readable, and
//! checked against the coalescing bound and the sizing rule before
//! `exp_frontend` exits — in `BENCH_frontend.json` at the repo root.

use crate::harness::{self, BenchDoc, Envelope, Host};
use crate::report::{heading, kv, write_text_table, ExpConfig};
use catalog::SystemId;
use costing::logical_op::flow::LogicalOpCosting;
use costing::service::EstimatorService;
use costing::OperatorKind;
use serde::{Deserialize, Serialize};
use serving::{EstimateRequest, Frontend, FrontendConfig, RateLimitConfig, Rejection, Ticket};
use std::time::{Duration, Instant};
use workload::{OpenLoopModel, RequestSampler, TenantMix};

/// Response-time SLO the sweep is judged against (DESIGN.md §12): an
/// estimate is "on time" when its end-to-end latency, queueing and
/// coalescing included, stays under 5 ms.
pub const SLO_US: f64 = 5_000.0;

/// The coalescing bound the validator holds every windowed row to:
/// `p50_us ≤ 2 × coalesce_window_us + COALESCE_SLACK_US`. The
/// window is a deadline from a batch's first dequeue, so a median
/// request waits at most about one window for its batch to seal and
/// another for the batch ahead of it; the slack covers the kernel,
/// wake-ups and the reply.
const COALESCE_SLACK_US: f64 = 250.0;

/// One measured sweep point, as written to `BENCH_frontend.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendRow {
    /// Offered (Poisson) load in requests/second.
    pub(crate) offered_rps: f64,
    /// Coalesce window the front-end ran with, microseconds.
    pub(crate) coalesce_window_us: u64,
    /// Batch-size cap the front-end ran with.
    pub(crate) max_batch: u64,
    /// Tenants in the traffic mix.
    pub(crate) tenants: u64,
    /// Batch-leader worker threads: `max(1, cores − 1)`, one core
    /// being the generator's.
    pub(crate) workers: u64,
    /// Whether a per-tenant token-bucket policy was active.
    pub(crate) rate_limited: bool,
    /// Wall-clock generation window, milliseconds.
    pub(crate) duration_ms: f64,
    /// Requests the generator attempted to submit.
    pub(crate) submitted: u64,
    /// Requests that resolved to an estimate.
    pub(crate) completed: u64,
    /// Requests shed at admission: bounded queue full.
    pub(crate) shed_queue_full: u64,
    /// Requests shed at admission: tenant over its rate limit.
    pub(crate) shed_rate_limited: u64,
    /// Requests rejected any other way (service error, shutdown).
    pub(crate) rejected_other: u64,
    /// Completed requests per second of generation window.
    pub(crate) throughput_rps: f64,
    /// Median end-to-end latency, microseconds.
    pub(crate) p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub(crate) p99_us: f64,
    /// 99.9th-percentile end-to-end latency, microseconds.
    pub(crate) p999_us: f64,
    /// Mean coalesced batch size over completed requests.
    pub(crate) mean_batch: f64,
    /// Fraction of completed requests inside [`SLO_US`].
    pub(crate) slo_attainment: f64,
}

/// The full document written to `BENCH_frontend.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendDoc {
    /// Always `"frontend"`.
    pub(crate) experiment: String,
    /// Whether this was a `--quick` run.
    pub(crate) quick: bool,
    /// Master seed the traffic generators ran with.
    pub(crate) seed: u64,
    /// The measuring host, stamped by the harness writer.
    #[serde(default)]
    pub(crate) host: Option<Host>,
    /// The SLO the rows are judged against, microseconds.
    pub(crate) slo_us: f64,
    /// One row per sweep point.
    pub(crate) rows: Vec<FrontendRow>,
}

impl BenchDoc for FrontendDoc {
    const NAME: &'static str = "frontend";

    fn envelope(&mut self) -> Envelope<'_> {
        Envelope {
            experiment: &self.experiment,
            rows: self.rows.len(),
            host: &mut self.host,
        }
    }

    /// Per-row quantile ordering, the submitted-vs-resolved ledger, the
    /// sizing rule on a stamped host, and the coalescing bound on
    /// windowed rows.
    fn check(&self) -> Result<(), String> {
        if !(self.slo_us.is_finite() && self.slo_us > 0.0) {
            return Err(format!("bad slo_us {}", self.slo_us));
        }
        for (i, r) in self.rows.iter().enumerate() {
            if let Some(host) = &self.host {
                let most = workers_for(host);
                if r.workers > most {
                    return Err(format!(
                        "row {i}: {} workers oversubscribe a {}-core host \
                         (at most {most}: one core is the generator's)",
                        r.workers, host.logical_cores
                    ));
                }
            }
            let q = [
                ("p50_us", r.p50_us),
                ("p99_us", r.p99_us),
                ("p999_us", r.p999_us),
            ];
            harness::check_latencies(i, &q, true)?;
            let resolved = r.completed + r.shed_queue_full + r.shed_rate_limited + r.rejected_other;
            if resolved != r.submitted {
                return Err(format!(
                    "row {i}: ledger mismatch — {} submitted but {} resolved",
                    r.submitted, resolved
                ));
            }
            if r.completed > 0 && (!r.mean_batch.is_finite() || r.mean_batch < 1.0) {
                return Err(format!("row {i}: mean_batch {} below 1", r.mean_batch));
            }
            if !(0.0..=1.0).contains(&r.slo_attainment) {
                return Err(format!("row {i}: slo_attainment {}", r.slo_attainment));
            }
            let bound_us = 2.0 * r.coalesce_window_us as f64 + COALESCE_SLACK_US;
            if r.coalesce_window_us > 0 && r.p50_us > bound_us {
                return Err(format!(
                    "row {i} ({:.0} rps, window {} us): p50 {:.0} us over the \
                     coalescing bound {bound_us:.0} us",
                    r.offered_rps, r.coalesce_window_us, r.p50_us
                ));
            }
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!("{} sweep rows, slo {} us", self.rows.len(), self.slo_us)
    }
}

/// The registered model slots traffic is sampled over: a few remote
/// systems, each serving the aggregation operator. One model is
/// trained once (the expensive part) and registered under every
/// system — the sweep measures the serving layer, not the optimiser.
fn trained_slots() -> (LogicalOpCosting, Vec<SystemId>) {
    let systems = ["hive-fe", "presto-fe", "spark-fe", "aster-fe"]
        .iter()
        .map(|n| SystemId::new(n))
        .collect();
    (harness::trained_flow(), systems)
}

fn fresh_frontend(
    costing: &LogicalOpCosting,
    systems: &[SystemId],
    config: FrontendConfig,
) -> Frontend {
    let service = EstimatorService::default();
    for sys in systems {
        service.register(sys.clone(), costing.clone());
    }
    Frontend::new(service, config)
}

/// Front-end workers on `host`: every core but the generator's.
fn workers_for(host: &Host) -> u64 {
    host.logical_cores.saturating_sub(1).max(1)
}

/// What the generated requests of one row resolved to.
#[derive(Default)]
struct Ledger {
    submitted: u64,
    shed_queue_full: u64,
    shed_rate_limited: u64,
    rejected_other: u64,
    /// Submit-to-reply latency of each completed request, microseconds.
    lat_us: Vec<f64>,
    /// Sum of the coalesced batch sizes the completed requests rode in.
    batch_rows: u64,
}

impl Ledger {
    fn tally_rejection(&mut self, r: &Rejection) {
        match r {
            Rejection::QueueFull { .. } => self.shed_queue_full += 1,
            Rejection::RateLimited { .. } => self.shed_rate_limited += 1,
            Rejection::ShuttingDown | Rejection::Service(_) => self.rejected_other += 1,
        }
    }

    /// Polls every outstanding ticket once and settles those resolved.
    fn poll(&mut self, outstanding: &mut Vec<(Ticket, Instant)>) {
        outstanding.retain(|(ticket, submitted_at)| match ticket.try_wait() {
            None => true,
            Some(Ok(reply)) => {
                self.lat_us.push(submitted_at.elapsed().as_secs_f64() * 1e6);
                self.batch_rows += reply.batch_size as u64;
                false
            }
            Some(Err(r)) => {
                self.tally_rejection(&r);
                false
            }
        });
    }
}

/// One sweep point: a single generator thread submits each Poisson
/// arrival when it is due and polls the outstanding tickets in between,
/// then drains them once the generation window closes.
#[allow(clippy::too_many_arguments)]
fn drive_open(
    costing: &LogicalOpCosting,
    systems: &[SystemId],
    seed: u64,
    rate_per_sec: f64,
    tenants: usize,
    window_us: u64,
    rate_limit: Option<RateLimitConfig>,
    duration: Duration,
) -> FrontendRow {
    let config = FrontendConfig {
        coalesce_window_us: window_us,
        workers: workers_for(&Host::current()) as usize,
        rate_limit,
        ..FrontendConfig::default()
    };
    let fe = fresh_frontend(costing, systems, config.clone());
    let model = OpenLoopModel {
        seed,
        rate_per_sec,
        mix: TenantMix::zipf(tenants, 1.1),
    };
    let mut sampler = RequestSampler::new(seed, systems.len(), &[(1e5, 1.4e6), (100.0, 400.0)]);
    let horizon_us = duration.as_micros() as u64;

    let mut ledger = Ledger::default();
    let mut outstanding = Vec::new();
    let started = Instant::now();
    for arrival in model.arrivals().take_while(|a| a.at_micros < horizon_us) {
        while (started.elapsed().as_micros() as u64) < arrival.at_micros {
            ledger.poll(&mut outstanding);
        }
        let (slot, features) = sampler.sample();
        ledger.submitted += 1;
        let submitted_at = Instant::now();
        match fe.submit(EstimateRequest {
            tenant: arrival.tenant,
            system: systems[slot].clone(),
            op: OperatorKind::Aggregation,
            features,
        }) {
            Ok(ticket) => outstanding.push((ticket, submitted_at)),
            Err(r) => ledger.tally_rejection(&r),
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
    while !outstanding.is_empty() {
        ledger.poll(&mut outstanding);
    }
    fe.shutdown();

    let completed = ledger.lat_us.len() as u64;
    let within_slo = ledger.lat_us.iter().filter(|&&l| l <= SLO_US).count() as u64;
    let (p50_us, p99_us, _) = harness::summarize(&mut ledger.lat_us);
    // Both sums are 0 when nothing completed, and so are the ratios.
    let per_completed = |sum: u64| sum as f64 / completed.max(1) as f64;
    FrontendRow {
        offered_rps: rate_per_sec,
        coalesce_window_us: window_us,
        max_batch: config.max_batch as u64,
        tenants: tenants as u64,
        workers: config.workers as u64,
        rate_limited: config.rate_limit.is_some(),
        duration_ms: elapsed_s * 1e3,
        submitted: ledger.submitted,
        completed,
        shed_queue_full: ledger.shed_queue_full,
        shed_rate_limited: ledger.shed_rate_limited,
        rejected_other: ledger.rejected_other,
        throughput_rps: completed as f64 / elapsed_s,
        p50_us,
        p99_us,
        p999_us: mathkit::nearest_rank(&ledger.lat_us, 0.999),
        mean_batch: per_completed(ledger.batch_rows),
        slo_attainment: per_completed(within_slo),
    }
}

/// Runs the sweep and returns the measured rows.
pub fn run(cfg: &ExpConfig) -> FrontendDoc {
    heading("Serving front-end — offered load × coalesce window");

    let (costing, systems) = trained_slots();
    let duration = if cfg.quick {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1_500)
    };
    let loads: &[f64] = if cfg.quick {
        &[2_000.0, 8_000.0]
    } else {
        &[5_000.0, 20_000.0, 60_000.0]
    };
    let windows: &[u64] = if cfg.quick { &[0, 200] } else { &[0, 100, 500] };

    let mut rows = Vec::new();
    for &load in loads {
        for &window in windows {
            rows.push(drive_open(
                &costing, &systems, cfg.seed, load, 16, window, None, duration,
            ));
        }
    }
    let mid_load = loads[loads.len() / 2];
    let mid_window = windows[windows.len() / 2];
    // One deliberately throttled row: the zipf head tenant exceeds its
    // bucket, so rate-limit shedding appears in the ledger.
    rows.push(drive_open(
        &costing,
        &systems,
        cfg.seed ^ 0xfade,
        mid_load,
        4,
        mid_window,
        Some(RateLimitConfig {
            burst: 16.0,
            per_tenant_rps: mid_load / 16.0,
        }),
        duration,
    ));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.offered_rps),
                r.coalesce_window_us.to_string(),
                r.tenants.to_string(),
                r.submitted.to_string(),
                r.completed.to_string(),
                (r.shed_queue_full + r.shed_rate_limited).to_string(),
                format!("{:.0}", r.throughput_rps),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                format!("{:.0}", r.p999_us),
                format!("{:.2}", r.mean_batch),
                format!("{:.3}", r.slo_attainment),
            ]
        })
        .collect();
    write_text_table(
        cfg,
        "frontend",
        &[
            "offered",
            "window us",
            "tenants",
            "submitted",
            "completed",
            "shed",
            "rps",
            "p50 us",
            "p99 us",
            "p999 us",
            "batch",
            "slo",
        ],
        &table,
    );

    let mut doc = FrontendDoc {
        experiment: FrontendDoc::NAME.to_string(),
        quick: cfg.quick,
        seed: cfg.seed,
        host: None,
        slo_us: SLO_US,
        rows,
    };
    harness::write(cfg, &mut doc);
    kv("sweep points", doc.rows.len());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate_doc(text: &str) -> Result<FrontendDoc, String> {
        harness::parse(text)
    }

    fn sample_row() -> FrontendRow {
        FrontendRow {
            offered_rps: 1000.0,
            coalesce_window_us: 100,
            max_batch: 64,
            tenants: 4,
            workers: 1,
            rate_limited: false,
            duration_ms: 250.0,
            submitted: 250,
            completed: 240,
            shed_queue_full: 6,
            shed_rate_limited: 4,
            rejected_other: 0,
            throughput_rps: 960.0,
            p50_us: 120.0,
            p99_us: 900.0,
            p999_us: 2_400.0,
            mean_batch: 3.5,
            slo_attainment: 0.99,
        }
    }

    fn sample_doc() -> FrontendDoc {
        FrontendDoc {
            experiment: "frontend".to_string(),
            quick: true,
            seed: 1,
            host: None,
            slo_us: SLO_US,
            rows: vec![sample_row()],
        }
    }

    #[test]
    fn schema_roundtrips_and_validates() {
        let text = serde_json::to_string_pretty(&sample_doc()).unwrap();
        let doc = validate_doc(&text).expect("valid doc");
        assert_eq!(doc.rows.len(), 1);
        assert_eq!(doc.rows[0].submitted, 250);
    }

    #[test]
    fn validation_rejects_broken_payloads() {
        let mut doc = sample_doc();
        doc.rows[0].completed += 1; // breaks the ledger
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("ledger"));

        let mut doc = sample_doc();
        doc.rows[0].p50_us = 5_000.0; // above p99
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).unwrap_err().contains("quantiles"));
    }

    #[test]
    fn validation_rejects_a_windowed_row_over_the_coalescing_bound() {
        let mut doc = sample_doc();
        let mut slow = sample_row();
        slow.coalesce_window_us = 100;
        slow.p50_us = 1_709.0; // the idle-timer reading at 20k rps
        slow.p99_us = 2_300.0;
        doc.rows.push(slow);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let err = validate_doc(&text).unwrap_err();
        assert!(
            err.contains("row 1") && err.contains("coalescing bound"),
            "{err}"
        );

        // A greedy (window 0) row is not held to it.
        let mut doc = sample_doc();
        doc.rows[0].coalesce_window_us = 0;
        doc.rows[0].p50_us = 800.0;
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).is_ok());
    }

    #[test]
    fn open_loop_point_resolves_every_request() {
        let (costing, systems) = trained_slots();
        let row = drive_open(
            &costing,
            &systems,
            7,
            2_000.0,
            4,
            100,
            None,
            Duration::from_millis(120),
        );
        assert!(row.submitted > 0, "{row:?}");
        assert_eq!(
            row.submitted,
            row.completed + row.shed_queue_full + row.shed_rate_limited + row.rejected_other,
            "ledger reconciles: {row:?}"
        );
        assert!(row.completed > 0, "{row:?}");
        assert!(row.p50_us > 0.0 && row.p50_us <= row.p99_us && row.p99_us <= row.p999_us);
        assert!(row.mean_batch >= 1.0);
    }

    #[test]
    fn validation_holds_workers_to_the_cores_of_a_stamped_host() {
        let mut doc = sample_doc();
        doc.host = Some(Host {
            logical_cores: 2,
            profile: "release".to_string(),
        });
        doc.rows[0].workers = 4;
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let err = validate_doc(&text).unwrap_err();
        assert!(
            err.contains("4 workers oversubscribe a 2-core host"),
            "{err}"
        );

        doc.rows[0].workers = 1;
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(validate_doc(&text).is_ok());
    }

    #[test]
    fn rate_limited_point_sheds_at_the_bucket() {
        let (costing, systems) = trained_slots();
        // 2k rps over 2 tenants against ~50 rps of tokens each: most
        // of the traffic must shed as RateLimited, not QueueFull.
        let row = drive_open(
            &costing,
            &systems,
            13,
            2_000.0,
            2,
            0,
            Some(RateLimitConfig {
                burst: 4.0,
                per_tenant_rps: 50.0,
            }),
            Duration::from_millis(150),
        );
        assert!(row.shed_rate_limited > 0, "{row:?}");
        assert_eq!(
            row.submitted,
            row.completed + row.shed_queue_full + row.shed_rate_limited + row.rejected_other
        );
    }
}
