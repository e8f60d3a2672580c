//! Serving front-end under load (DESIGN.md §12).
//!
//! The front-end's claim is that cross-request coalescing buys batched
//! amortisation without giving up latency or correctness, and that
//! admission control sheds overload instead of collapsing. This
//! experiment measures both with the `workload::traffic` generators:
//!
//! * **Open-loop rows** offer a fixed Poisson arrival rate regardless
//!   of how the server responds — the model that actually exposes
//!   overload. The sweep crosses offered load × coalesce window ×
//!   tenant count, plus one deliberately rate-limited row so the
//!   per-tenant token buckets show up in the shed accounting.
//! * **Closed-loop rows** run a fixed population of simulated clients
//!   (request → response → think → repeat), multiplexed over a bounded
//!   number of loader threads: each loader interleaves its share of
//!   the population and compresses think time by the multiplex factor,
//!   so the *aggregate* offered load matches the population's. The
//!   full population semantics (per-client tenant pinning, per-client
//!   think streams) come from [`workload::traffic::ClosedLoopModel`],
//!   which scales to millions of derived clients.
//!
//! Latency is tracked with the streaming
//! [`mathkit::QuantileSketch`] (p50/p99/p999) against the §12 SLO, and
//! every row reconciles its ledger: submitted = completed + shed +
//! rejected, because every admitted request must resolve.
//!
//! Results land in `results/frontend.txt` and — machine-readable, and
//! checked against the coalescing bound before `exp_frontend` exits —
//! in `BENCH_frontend.json` at the repo root.

use crate::harness::{self, BenchDoc, Envelope, Host};
use crate::report::{heading, kv, write_text_table, ExpConfig};
use catalog::SystemId;
use costing::logical_op::flow::LogicalOpCosting;
use costing::service::EstimatorService;
use costing::OperatorKind;
use serde::{Deserialize, Serialize};
use serving::{EstimateRequest, Frontend, FrontendConfig, RateLimitConfig, Rejection, Ticket};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{ClosedLoopModel, OpenLoopModel, RequestSampler, TenantMix};

/// Response-time SLO the sweep is judged against (DESIGN.md §12): an
/// estimate is "on time" when its end-to-end latency, queueing and
/// coalescing included, stays under 5 ms.
pub const SLO_US: f64 = 5_000.0;

/// The coalescing bound the validator holds every windowed open-loop
/// row to: `p50_us ≤ 2 × coalesce_window_us + COALESCE_SLACK_US`. The
/// window is a deadline from a batch's first dequeue, so a median
/// request waits at most about one window for its batch to seal and
/// another for the batch ahead of it; the slack covers the kernel,
/// wake-ups and the reply.
const COALESCE_SLACK_US: f64 = 250.0;

/// One measured sweep point, as written to `BENCH_frontend.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendRow {
    /// `"open"` (Poisson offered load) or `"closed"` (fixed population).
    pub loop_kind: String,
    /// Offered load in requests/second (open: configured; closed: the
    /// population's nominal `clients / mean_cycle` ceiling).
    pub offered_rps: f64,
    /// Coalesce window the front-end ran with, microseconds.
    pub coalesce_window_us: u64,
    /// Batch-size cap the front-end ran with.
    pub max_batch: u64,
    /// Tenants in the traffic mix.
    pub tenants: u64,
    /// Batch-leader worker threads.
    pub workers: u64,
    /// Whether a per-tenant token-bucket policy was active.
    pub rate_limited: bool,
    /// Wall-clock generation window, milliseconds.
    pub duration_ms: f64,
    /// Requests the generator attempted to submit.
    pub submitted: u64,
    /// Requests that resolved to an estimate.
    pub completed: u64,
    /// Requests shed at admission: bounded queue full.
    pub shed_queue_full: u64,
    /// Requests shed at admission: tenant over its rate limit.
    pub shed_rate_limited: u64,
    /// Requests rejected any other way (service error, shutdown).
    pub rejected_other: u64,
    /// Completed requests per second of generation window.
    pub throughput_rps: f64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile end-to-end latency, microseconds.
    pub p999_us: f64,
    /// Mean coalesced batch size over completed requests.
    pub mean_batch: f64,
    /// Fraction of completed requests inside [`SLO_US`].
    pub slo_attainment: f64,
}

/// The full document written to `BENCH_frontend.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendDoc {
    /// Always `"frontend"`.
    pub experiment: String,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Master seed the traffic generators ran with.
    pub seed: u64,
    /// The measuring host, stamped by the harness writer.
    #[serde(default)]
    pub host: Option<Host>,
    /// The SLO the rows are judged against, microseconds.
    pub slo_us: f64,
    /// One row per sweep point.
    pub rows: Vec<FrontendRow>,
}

impl BenchDoc for FrontendDoc {
    const NAME: &'static str = "frontend";

    fn envelope(&mut self) -> Envelope<'_> {
        Envelope {
            experiment: &self.experiment,
            quick: self.quick,
            rows: self.rows.len(),
            host: &mut self.host,
        }
    }

    /// Per-row quantile ordering, the submitted-vs-resolved ledger, and
    /// the coalescing bound on windowed open-loop rows.
    fn check(&self) -> Result<(), String> {
        if !(self.slo_us.is_finite() && self.slo_us > 0.0) {
            return Err(format!("bad slo_us {}", self.slo_us));
        }
        for (i, r) in self.rows.iter().enumerate() {
            if r.loop_kind != "open" && r.loop_kind != "closed" {
                return Err(format!("row {i}: unknown loop_kind {:?}", r.loop_kind));
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
            if r.loop_kind == "open" && r.coalesce_window_us > 0 && r.p50_us > bound_us {
                return Err(format!(
                    "row {i} (open, {:.0} rps, window {} us): p50 {:.0} us over the \
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

/// What one generated request resolved to, as tallied by the drivers.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    submitted: u64,
    shed_queue_full: u64,
    shed_rate_limited: u64,
    rejected_other: u64,
}

impl Ledger {
    fn absorb(&mut self, other: Ledger) {
        self.submitted += other.submitted;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_rate_limited += other.shed_rate_limited;
        self.rejected_other += other.rejected_other;
    }

    fn tally_rejection(&mut self, r: &Rejection) {
        match r {
            Rejection::QueueFull { .. } => self.shed_queue_full += 1,
            Rejection::RateLimited { .. } => self.shed_rate_limited += 1,
            Rejection::ShuttingDown | Rejection::Service(_) => self.rejected_other += 1,
        }
    }
}

/// Everything the collector accumulates from completed requests.
struct Collected {
    sketch: mathkit::QuantileSketch,
    completed: u64,
    within_slo: u64,
    batch_sum: u64,
}

/// Drains `(latency_us, batch_size)` observations until every sender
/// hangs up, feeding the streaming sketch.
fn collect(obs_rx: mpsc::Receiver<(f64, usize)>) -> Collected {
    let mut c = Collected {
        sketch: mathkit::QuantileSketch::for_latency_us(),
        completed: 0,
        within_slo: 0,
        batch_sum: 0,
    };
    while let Ok((latency_us, batch)) = obs_rx.recv() {
        c.sketch.observe(latency_us);
        c.completed += 1;
        if latency_us <= SLO_US {
            c.within_slo += 1;
        }
        c.batch_sum += batch as u64;
    }
    c
}

/// Waits on a resolved ticket and reports it to the ledger/collector.
fn settle(
    ticket: Ticket,
    started: Instant,
    ledger: &mut Ledger,
    obs_tx: &mpsc::Sender<(f64, usize)>,
) {
    match ticket.wait() {
        Ok(reply) => {
            let latency_us = started.elapsed().as_secs_f64() * 1e6;
            let _ = obs_tx.send((latency_us, reply.batch_size));
        }
        Err(r) => ledger.tally_rejection(&r),
    }
}

fn finish_row(
    mut ledger: Ledger,
    collected: Collected,
    duration: Duration,
    template: FrontendRow,
) -> FrontendRow {
    let elapsed_s = duration.as_secs_f64().max(1e-9);
    ledger.submitted = ledger.submitted.max(
        collected.completed
            + ledger.shed_queue_full
            + ledger.shed_rate_limited
            + ledger.rejected_other,
    );
    FrontendRow {
        duration_ms: elapsed_s * 1e3,
        submitted: ledger.submitted,
        completed: collected.completed,
        shed_queue_full: ledger.shed_queue_full,
        shed_rate_limited: ledger.shed_rate_limited,
        rejected_other: ledger.rejected_other,
        throughput_rps: collected.completed as f64 / elapsed_s,
        p50_us: collected.sketch.quantile(0.50),
        p99_us: collected.sketch.quantile(0.99),
        p999_us: collected.sketch.quantile(0.999),
        mean_batch: if collected.completed > 0 {
            collected.batch_sum as f64 / collected.completed as f64
        } else {
            0.0
        },
        slo_attainment: if collected.completed > 0 {
            collected.within_slo as f64 / collected.completed as f64
        } else {
            0.0
        },
        ..template
    }
}

/// One open-loop sweep point: a paced Poisson submitter, a waiter pool
/// resolving tickets, and the streaming collector.
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
        rate_limit,
        ..FrontendConfig::default()
    };
    let template = FrontendRow {
        loop_kind: "open".to_string(),
        offered_rps: rate_per_sec,
        coalesce_window_us: window_us,
        max_batch: config.max_batch as u64,
        tenants: tenants as u64,
        workers: config.workers as u64,
        rate_limited: config.rate_limit.is_some(),
        duration_ms: 0.0,
        submitted: 0,
        completed: 0,
        shed_queue_full: 0,
        shed_rate_limited: 0,
        rejected_other: 0,
        throughput_rps: 0.0,
        p50_us: 0.0,
        p99_us: 0.0,
        p999_us: 0.0,
        mean_batch: 0.0,
        slo_attainment: 0.0,
    };
    let fe = fresh_frontend(costing, systems, config);
    let model = OpenLoopModel {
        seed,
        rate_per_sec,
        mix: TenantMix::zipf(tenants, 1.1),
    };
    let mut sampler = RequestSampler::new(seed, systems.len(), &[(1e5, 1.4e6), (100.0, 400.0)]);
    let horizon_us = duration.as_micros() as u64;

    let (obs_tx, obs_rx) = mpsc::channel::<(f64, usize)>();
    let (ticket_tx, ticket_rx) = mpsc::channel::<(Ticket, Instant)>();
    let ticket_rx = Mutex::new(ticket_rx);

    let (ledger, collected, elapsed) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(obs_rx));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let obs_tx = obs_tx.clone();
                let ticket_rx = &ticket_rx;
                scope.spawn(move || {
                    let mut ledger = Ledger::default();
                    loop {
                        // std mpsc receivers are single-consumer; the
                        // waiter pool shares one behind a mutex held
                        // only for the recv itself.
                        let next = match ticket_rx.lock() {
                            Ok(rx) => rx.recv(),
                            Err(_) => break,
                        };
                        match next {
                            Ok((ticket, started)) => settle(ticket, started, &mut ledger, &obs_tx),
                            Err(_) => break,
                        }
                    }
                    ledger
                })
            })
            .collect();

        // The paced submitter runs on this thread.
        let mut ledger = Ledger::default();
        let started = Instant::now();
        for arrival in model.arrivals() {
            if arrival.at_micros >= horizon_us {
                break;
            }
            loop {
                let now_us = started.elapsed().as_micros() as u64;
                if now_us >= arrival.at_micros {
                    break;
                }
                let gap = arrival.at_micros - now_us;
                if gap > 300 {
                    std::thread::sleep(Duration::from_micros(gap - 200));
                } else {
                    std::hint::spin_loop();
                }
            }
            let (slot, features) = sampler.sample();
            ledger.submitted += 1;
            let t0 = Instant::now();
            match fe.submit(EstimateRequest {
                tenant: arrival.tenant,
                system: systems[slot].clone(),
                op: OperatorKind::Aggregation,
                features,
            }) {
                Ok(ticket) => {
                    let _ = ticket_tx.send((ticket, t0));
                }
                Err(r) => ledger.tally_rejection(&r),
            }
        }
        let elapsed = started.elapsed();
        drop(ticket_tx); // waiters drain the backlog, then hang up
        for w in waiters {
            if let Ok(l) = w.join() {
                ledger.absorb(l);
            }
        }
        drop(obs_tx);
        let collected = collector.join().expect("collector never panics");
        (ledger, collected, elapsed)
    });
    fe.shutdown();
    finish_row(ledger, collected, elapsed, template)
}

/// One closed-loop sweep point: `clients` simulated users multiplexed
/// over `loaders` threads. Each loader interleaves its share of the
/// population sequentially — submit, wait, think — with think time
/// compressed by the per-loader multiplex factor so the aggregate
/// offered load matches the full population's.
#[allow(clippy::too_many_arguments)]
fn drive_closed(
    costing: &LogicalOpCosting,
    systems: &[SystemId],
    seed: u64,
    clients: u64,
    loaders: usize,
    mean_think_us: f64,
    tenants: usize,
    window_us: u64,
    duration: Duration,
) -> FrontendRow {
    let config = FrontendConfig {
        coalesce_window_us: window_us,
        ..FrontendConfig::default()
    };
    // Nominal ceiling: the population completes at most one request
    // per think time each (latency adds on top, lowering this).
    let nominal_rps = if mean_think_us > 0.0 {
        clients as f64 / (mean_think_us / 1e6)
    } else {
        f64::INFINITY
    };
    let template = FrontendRow {
        loop_kind: "closed".to_string(),
        offered_rps: nominal_rps,
        coalesce_window_us: window_us,
        max_batch: config.max_batch as u64,
        tenants: tenants as u64,
        workers: config.workers as u64,
        rate_limited: false,
        duration_ms: 0.0,
        submitted: 0,
        completed: 0,
        shed_queue_full: 0,
        shed_rate_limited: 0,
        rejected_other: 0,
        throughput_rps: 0.0,
        p50_us: 0.0,
        p99_us: 0.0,
        p999_us: 0.0,
        mean_batch: 0.0,
        slo_attainment: 0.0,
    };
    let fe = fresh_frontend(costing, systems, config);
    let model = ClosedLoopModel {
        seed,
        clients,
        mean_think_us,
        mix: TenantMix::zipf(tenants, 1.1),
    };
    let (obs_tx, obs_rx) = mpsc::channel::<(f64, usize)>();
    let loaders = loaders.max(1);
    let per_loader = (clients / loaders as u64).max(1);

    let (ledger, collected, elapsed) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(obs_rx));
        let started = Instant::now();
        let handles: Vec<_> = (0..loaders)
            .map(|w| {
                let obs_tx = obs_tx.clone();
                let fe = &fe;
                let model = &model;
                let mut sampler = RequestSampler::new(
                    seed.wrapping_add(w as u64),
                    systems.len(),
                    &[(1e5, 1.4e6), (100.0, 400.0)],
                );
                scope.spawn(move || {
                    let mut ledger = Ledger::default();
                    // This loader's slice of the population, stepped
                    // round-robin with one request in flight at a time.
                    let mut streams: Vec<_> = (0..per_loader)
                        .map(|i| model.client(w as u64 * per_loader + i))
                        .collect();
                    let mut idx = 0;
                    while started.elapsed() < duration {
                        let pick = idx % streams.len();
                        let stream = &mut streams[pick];
                        idx += 1;
                        let (slot, features) = sampler.sample();
                        ledger.submitted += 1;
                        let t0 = Instant::now();
                        match fe.submit(EstimateRequest {
                            tenant: stream.tenant(),
                            system: systems[slot].clone(),
                            op: OperatorKind::Aggregation,
                            features,
                        }) {
                            Ok(ticket) => settle(ticket, t0, &mut ledger, &obs_tx),
                            Err(r) => ledger.tally_rejection(&r),
                        }
                        // Think time, compressed by the multiplex
                        // factor: the other clients of this loader
                        // would be thinking concurrently.
                        let think = stream.next_think_us() / per_loader;
                        if think > 0 {
                            std::thread::sleep(Duration::from_micros(think));
                        }
                    }
                    ledger
                })
            })
            .collect();
        let mut ledger = Ledger::default();
        for h in handles {
            if let Ok(l) = h.join() {
                ledger.absorb(l);
            }
        }
        let elapsed = started.elapsed();
        drop(obs_tx);
        let collected = collector.join().expect("collector never panics");
        (ledger, collected, elapsed)
    });
    fe.shutdown();
    finish_row(ledger, collected, elapsed, template)
}

/// Runs the sweep and returns the measured rows.
pub fn run(cfg: &ExpConfig) -> FrontendDoc {
    heading("Serving front-end — offered load × coalesce window × tenants");

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
    let tenant_sweep: &[usize] = if cfg.quick { &[1, 64] } else { &[1, 16, 256] };
    let base_tenants = 16;

    let mut rows = Vec::new();
    for &load in loads {
        for &window in windows {
            rows.push(drive_open(
                &costing,
                &systems,
                cfg.seed,
                load,
                base_tenants,
                window,
                None,
                duration,
            ));
        }
    }
    let mid_load = loads[loads.len() / 2];
    let mid_window = windows[windows.len() / 2];
    for &tenants in tenant_sweep {
        rows.push(drive_open(
            &costing,
            &systems,
            cfg.seed ^ 0xbeef,
            mid_load,
            tenants,
            mid_window,
            None,
            duration,
        ));
    }
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
    // Closed-loop rows: population self-limits to clients / cycle.
    let closed: &[(u64, usize)] = if cfg.quick {
        &[(256, 8)]
    } else {
        &[(64, 8), (2_048, 16)]
    };
    for &(clients, loaders) in closed {
        rows.push(drive_closed(
            &costing,
            &systems,
            cfg.seed ^ clients,
            clients,
            loaders,
            2_000.0,
            base_tenants,
            mid_window,
            duration,
        ));
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.loop_kind.clone(),
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
            "loop",
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
            loop_kind: "open".to_string(),
            offered_rps: 1000.0,
            coalesce_window_us: 100,
            max_batch: 64,
            tenants: 4,
            workers: 4,
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

        // A greedy (window 0) row and a closed-loop row are not held to it.
        let mut doc = sample_doc();
        doc.rows[0].coalesce_window_us = 0;
        doc.rows[0].p50_us = 800.0;
        let mut closed = sample_row();
        closed.loop_kind = "closed".to_string();
        closed.p50_us = 800.0;
        doc.rows.push(closed);
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
    fn closed_loop_point_resolves_every_request() {
        let (costing, systems) = trained_slots();
        let row = drive_closed(
            &costing,
            &systems,
            11,
            64,
            4,
            1_000.0,
            4,
            100,
            Duration::from_millis(120),
        );
        assert!(row.submitted > 0, "{row:?}");
        assert_eq!(
            row.submitted,
            row.completed + row.shed_queue_full + row.shed_rate_limited + row.rejected_other,
            "ledger reconciles: {row:?}"
        );
        assert!(row.completed > 0, "{row:?}");
        assert_eq!(row.loop_kind, "closed");
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
