//! The coalescing estimate front-end.
//!
//! [`Frontend`] accepts concurrent single-estimate requests (the native
//! analogue of costlens's `POST /estimate` contract: tenant + system +
//! operator + feature vector in, cost estimate or typed rejection out)
//! and serves them through the [`EstimatorService`]'s batched pinned
//! path. The interesting part is what happens *between* those two
//! sentences:
//!
//! * **Admission control** — a bounded queue. `submit` never blocks:
//!   when the queue is full the request is shed immediately with
//!   [`Rejection::QueueFull`] (load shedding beats collapse), and the
//!   bound itself is the backpressure signal callers observe.
//! * **Per-tenant rate limits** — an optional token bucket per tenant
//!   ([`crate::limiter::TenantRateLimiter`]) sheds over-limit tenants
//!   with [`Rejection::RateLimited`] before they can crowd the queue.
//! * **Cross-request batch coalescing** — worker threads play *batch
//!   leader*: one worker holds the queue receiver, takes the first
//!   request, then keeps draining until the coalesce window — a
//!   deadline counted from that first dequeue, not an idle timeout —
//!   runs out (or the batch hits `max_batch`). The collected
//!   batch pins **exactly one snapshot epoch** and runs as grouped
//!   [`EstimatorService::estimate_batch_flat_pinned_scratch`] calls —
//!   many tiny requests amortise into one fused NN forward pass per
//!   `(system, op)` group staged through reusable per-thread buffers,
//!   and results are bit-identical to serial `estimate` calls at the
//!   same epoch (the service's documented batch contract).
//! * **No request left behind** — every admitted request is answered:
//!   with an estimate, a per-request [`ServiceError`], or
//!   [`Rejection::ShuttingDown`] during teardown. Shutdown drains the
//!   queue instead of dropping it.
//!
//! The executor is dependency-free, in the spirit of the workspace's
//! offline shims: plain threads, a bounded `std::sync::mpsc` channel as
//! the run queue, and capacity-1 reply channels as one-shot futures
//! ([`Ticket::wait`] is the `await`). Wall-clock time never enters this
//! module — the coalesce deadline and the rate limiter both read an
//! injected [`Clock`], and `recv_timeout` only sleeps out what is left
//! of the window — so admission decisions replay deterministically and
//! a test can move the coalesce deadline under a manual clock. The
//! workspace lints hold this module to the same panic-freedom as the
//! rest of the estimation path; its blocking calls — the queue wait,
//! the reply wait, spawning and joining the pool — each carry an
//! `#[expect(clippy::disallowed_methods)]` on their fn.

use crate::clock::Clock;
use crate::limiter::{RateLimitConfig, TenantRateLimiter};
use catalog::SystemId;
use costing::service::check_request;
use costing::{CostEstimate, EstimateScratch, EstimatorService, OperatorKind, ServiceError};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::Duration;
use telemetry::span::Stage;
use telemetry::{SloConfig, SloEngine};

/// Bucket bounds for the coalesce-size histogram: powers of two up to
/// the largest plausible `max_batch`.
const COALESCE_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Front-end tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Admission-queue bound; requests beyond it are shed. Clamped to
    /// at least 1.
    pub queue_capacity: usize,
    /// How long a batch stays open after its first request is dequeued,
    /// in microseconds: a deadline, not an idle timeout, so a steady
    /// trickle of arrivals cannot keep a batch open past it. `0` =
    /// greedy: take whatever is queued right now and go.
    pub coalesce_window_us: u64,
    /// Largest coalesced batch. Clamped to at least 1.
    pub max_batch: usize,
    /// Worker (batch-leader) threads. `0` starts none — callers drive
    /// batches manually with [`Frontend::drain_now`] (deterministic
    /// tests and the proptest harness).
    pub workers: usize,
    /// Optional per-tenant token-bucket policy; `None` admits everyone.
    pub rate_limit: Option<RateLimitConfig>,
    /// Optional latency SLO: every response (success or per-request
    /// error) is recorded against a [`telemetry::SloEngine`] with
    /// end-to-end latency measured on the front-end's injected clock.
    /// `None` runs no SLO accounting at all.
    pub slo: Option<SloConfig>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            queue_capacity: 1024,
            coalesce_window_us: 100,
            max_batch: 64,
            workers: 4,
            rate_limit: None,
            slo: None,
        }
    }
}

/// One estimate request, the native mirror of the costlens
/// `POST /estimate` body: who is asking (tenant), which remote system
/// and operator, and the operator's feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// Tenant the request is billed against (rate-limit key).
    pub tenant: u64,
    /// Target remote system.
    pub system: SystemId,
    /// Operator being costed.
    pub op: OperatorKind,
    /// Feature vector, in the model's dimension order.
    pub features: Vec<f64>,
}

/// A successful response.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateReply {
    /// The id [`Frontend::submit`] returned for this request.
    pub(crate) request_id: u64,
    /// The estimate, bit-identical to a serial
    /// [`EstimatorService::estimate`] at the same epoch.
    pub estimate: CostEstimate,
    /// Epoch of the one snapshot the whole batch was pinned to.
    pub epoch: u64,
    /// Which coalesced batch served this request.
    pub(crate) batch_id: u64,
    /// How many requests shared that batch.
    pub batch_size: usize,
}

/// Why a request did not produce an estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Shed at admission: the bounded queue was full.
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// Shed at admission: the tenant's token bucket was empty.
    RateLimited {
        /// The over-limit tenant.
        tenant: u64,
    },
    /// The front-end is (or finished) shutting down; the request was
    /// not estimated.
    ShuttingDown,
    /// The estimation service rejected this specific request.
    Service(ServiceError),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            Rejection::RateLimited { tenant } => {
                write!(f, "tenant {tenant} over its rate limit")
            }
            Rejection::ShuttingDown => write!(f, "front-end shutting down"),
            Rejection::Service(e) => write!(f, "estimation failed: {e}"),
        }
    }
}

impl std::error::Error for Rejection {}

/// What every submitted request eventually resolves to.
pub(crate) type FrontendResult = Result<EstimateReply, Rejection>;

/// A pending response: the one-shot future half of [`Frontend::submit`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<FrontendResult>,
}

impl Ticket {
    /// Blocks until the response arrives. If the front-end is torn down
    /// without answering (its half of the channel dropped), this
    /// resolves to [`Rejection::ShuttingDown`] rather than hanging.
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller's side of the queue: waiting for the reply is the contract"
    )]
    pub fn wait(self) -> FrontendResult {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(Rejection::ShuttingDown),
        }
    }

    /// Non-blocking poll; `None` while the batch is still in flight.
    pub fn try_wait(&self) -> Option<FrontendResult> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(Rejection::ShuttingDown)),
        }
    }
}

struct Pending {
    id: u64,
    tenant: u64,
    system: SystemId,
    op: OperatorKind,
    features: Vec<f64>,
    /// Admission timestamp on the front-end's clock: the base for the
    /// queue-wait span stage and the SLO latency measurement.
    enqueued_us: u64,
    reply: SyncSender<FrontendResult>,
}

enum Msg {
    Request(Pending),
    /// Terminates exactly one worker after the queued work ahead of it.
    Stop,
}

/// Per-leader reusable buffers: the service's estimate scratch plus the
/// flat `(rows × width)` staging and output vectors one coalesced group
/// is served through. Living in a const-initialised thread-local, each
/// worker thread (and any thread driving [`Frontend::drain_now`]) warms
/// its own copy once and then serves batches without per-batch staging
/// allocations.
struct LeaderScratch {
    /// The service-side workspace for the `*_scratch` batch entry point.
    scratch: EstimateScratch,
    /// Flat row-major staging for one `(system, op)` group.
    flat: Vec<f64>,
    /// Estimates for the group, in row order.
    out: Vec<CostEstimate>,
}

impl LeaderScratch {
    const fn new() -> Self {
        LeaderScratch {
            scratch: EstimateScratch::new(),
            flat: Vec::new(),
            out: Vec::new(),
        }
    }
}

thread_local! {
    /// Const-initialised: touching it never allocates; buffers grow on
    /// first use and are retained for the thread's lifetime.
    static LEADER_SCRATCH: RefCell<LeaderScratch> = const { RefCell::new(LeaderScratch::new()) };
}

struct Inner {
    service: EstimatorService,
    config: FrontendConfig,
    clock: Clock,
    limiter: Option<TenantRateLimiter>,
    queue_tx: SyncSender<Msg>,
    /// The batch-leader baton: whichever worker holds this receiver is
    /// the coalescer. Rank `FRONTEND_QUEUE` — held only while popping;
    /// released before any estimation work (and its rank is below every
    /// lock the estimate path takes, so even a leak could not invert).
    queue_rx: Mutex<Receiver<Msg>>,
    depth: AtomicUsize,
    next_id: AtomicU64,
    next_batch: AtomicU64,
    shutting_down: AtomicBool,
    slo: Option<SloEngine>,
    queue_depth: telemetry::Gauge,
    coalesce_size: telemetry::Histogram,
    shed_queue_full: telemetry::Counter,
    shed_rate_limited: telemetry::Counter,
    shed_shutdown: telemetry::Counter,
    requests_total: telemetry::Counter,
    responses_total: telemetry::Counter,
}

/// The serving front-end. See the module docs for the architecture.
pub struct Frontend {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("config", &self.inner.config)
            .field("queue_depth", &self.inner.depth.load(Ordering::Relaxed))
            .field(
                "shutting_down",
                &self.inner.shutting_down.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Frontend {
    /// Starts a front-end over `service` with a monotonic clock.
    pub fn new(service: EstimatorService, config: FrontendConfig) -> Frontend {
        Frontend::with_clock(service, config, Clock::monotonic())
    }

    /// Starts a front-end with an injected clock (manual clocks make
    /// rate-limit decisions deterministic in tests).
    ///
    /// Metrics register into the service's telemetry handle:
    /// `frontend_queue_depth`, `frontend_coalesce_batch_size`,
    /// `frontend_shed_total{reason}`, `frontend_requests_total`,
    /// `frontend_responses_total`.
    #[expect(
        clippy::disallowed_methods,
        reason = "starts the worker pool at construction, off the read path"
    )]
    pub fn with_clock(service: EstimatorService, config: FrontendConfig, clock: Clock) -> Frontend {
        let config = FrontendConfig {
            queue_capacity: config.queue_capacity.max(1),
            max_batch: config.max_batch.max(1),
            ..config
        };
        let (queue_tx, queue_rx) = mpsc::sync_channel(config.queue_capacity);
        let reg = &service.telemetry().metrics;
        reg.set_help(
            "frontend_queue_depth",
            "Requests admitted but not yet taken by a batch leader.",
        );
        reg.set_help(
            "frontend_coalesce_batch_size",
            "Requests coalesced into each pinned-snapshot batch.",
        );
        reg.set_help(
            "frontend_shed_total",
            "Requests shed at admission or teardown, by reason.",
        );
        reg.set_help(
            "frontend_requests_total",
            "Requests offered to the front-end (admitted or shed).",
        );
        reg.set_help(
            "frontend_responses_total",
            "Responses delivered for admitted requests.",
        );
        let inner = Arc::new(Inner {
            limiter: config.rate_limit.map(TenantRateLimiter::new),
            slo: config
                .slo
                .clone()
                .map(|slo| SloEngine::new(slo, service.telemetry())),
            queue_depth: reg.gauge("frontend_queue_depth", &[]),
            coalesce_size: reg.histogram("frontend_coalesce_batch_size", &[], &COALESCE_BOUNDS),
            shed_queue_full: reg.counter("frontend_shed_total", &[("reason", "queue_full")]),
            shed_rate_limited: reg.counter("frontend_shed_total", &[("reason", "rate_limited")]),
            shed_shutdown: reg.counter("frontend_shed_total", &[("reason", "shutdown")]),
            requests_total: reg.counter("frontend_requests_total", &[]),
            responses_total: reg.counter("frontend_responses_total", &[]),
            service,
            config,
            clock,
            queue_tx,
            queue_rx: Mutex::new(queue_rx),
            depth: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            next_batch: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });
        inner.queue_rx.set_rank(parking_lot::rank::FRONTEND_QUEUE);
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serving-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .filter_map(|h| h.ok())
            .collect();
        Frontend {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The service this front-end serves from.
    pub fn service(&self) -> &EstimatorService {
        &self.inner.service
    }

    /// The resolved configuration (after clamping).
    pub fn config(&self) -> &FrontendConfig {
        &self.inner.config
    }

    /// Offers one request. Returns a [`Ticket`] on admission, or the
    /// shedding decision immediately — this method never blocks and
    /// never silently drops: a `Ticket` is always eventually resolved.
    pub fn submit(&self, request: EstimateRequest) -> Result<Ticket, Rejection> {
        let inner = &*self.inner;
        inner.requests_total.inc();
        if inner.shutting_down.load(Ordering::Acquire) {
            inner.shed_shutdown.inc();
            return Err(Rejection::ShuttingDown);
        }
        let now_us = inner.clock.now_micros();
        if let Some(limiter) = &inner.limiter {
            if !limiter.try_acquire(request.tenant, now_us) {
                inner.shed_rate_limited.inc();
                return Err(Rejection::RateLimited {
                    tenant: request.tenant,
                });
            }
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let pending = Pending {
            id,
            tenant: request.tenant,
            system: request.system,
            op: request.op,
            features: request.features,
            enqueued_us: now_us,
            reply: reply_tx,
        };
        // Count the request in *before* it becomes visible to a leader:
        // a worker may drain the message (and decrement) the instant
        // `try_send` places it, so incrementing afterwards would race
        // the counter below zero. A failed send undoes the increment —
        // the gauge transiently over-reads by the in-flight request,
        // which is the safe direction.
        let depth = inner.depth.fetch_add(1, Ordering::AcqRel) + 1;
        match inner.queue_tx.try_send(Msg::Request(pending)) {
            Ok(()) => {
                // Re-check the flag now that the message is visible: a
                // shutdown may have started (and even finished its
                // residual drain) between the check at the top and the
                // enqueue, in which case nobody is left to resolve this
                // ticket. Reject instead of handing out a ticket that
                // could hang; the orphaned queue entry, if the drain
                // already missed it, dies with the front-end.
                if inner.shutting_down.load(Ordering::Acquire) {
                    inner.shed_shutdown.inc();
                    return Err(Rejection::ShuttingDown);
                }
                inner.queue_depth.set(depth as f64);
                Ok(Ticket { rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                inner.depth.fetch_sub(1, Ordering::AcqRel);
                inner.shed_queue_full.inc();
                Err(Rejection::QueueFull {
                    capacity: inner.config.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                inner.depth.fetch_sub(1, Ordering::AcqRel);
                inner.shed_shutdown.inc();
                Err(Rejection::ShuttingDown)
            }
        }
    }

    /// Runs one batch-leader pass on the calling thread without
    /// blocking for new arrivals: drains whatever is queued right now
    /// (up to `max_batch`), serves it against one pinned snapshot, and
    /// returns the batch size. It never waits for followers, whatever
    /// the coalesce window. The manual-drive path for `workers: 0`
    /// deterministic tests.
    pub fn drain_now(&self) -> usize {
        let (batch, _stop, coalesce_us) = collect_batch(&self.inner, false);
        process_batch(&self.inner, batch, coalesce_us)
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.depth.load(Ordering::Acquire)
    }

    /// Stops accepting work, lets the workers finish everything already
    /// admitted, and answers anything still queued with
    /// [`Rejection::ShuttingDown`]. Idempotent; also run on drop. After
    /// it returns, every ticket ever issued has been resolved.
    #[expect(
        clippy::disallowed_methods,
        reason = "joins the worker pool at teardown, off the read path"
    )]
    pub fn shutdown(&self) {
        let inner = &*self.inner;
        if inner.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        // One Stop per worker. Blocking send is safe: the workers are
        // alive and draining, so capacity always frees up.
        for _ in 0..workers.len() {
            let _ = inner.queue_tx.send(Msg::Stop);
        }
        for handle in workers {
            let _ = handle.join();
        }
        // Residual drain (covers `workers: 0` and any request that
        // raced past the shutting_down check): typed rejection, never
        // silence.
        loop {
            let msg = inner.queue_rx.lock().try_recv();
            match msg {
                Ok(Msg::Request(pending)) => {
                    inner.depth.fetch_sub(1, Ordering::AcqRel);
                    inner.shed_shutdown.inc();
                    inner.responses_total.inc();
                    let _ = pending.reply.send(Err(Rejection::ShuttingDown));
                }
                Ok(Msg::Stop) => {}
                Err(_) => break,
            }
        }
        inner.queue_depth.set(0.0);
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (batch, stop, coalesce_us) = collect_batch(inner, true);
        process_batch(inner, batch, coalesce_us);
        if stop {
            return;
        }
    }
}

/// One leader pass: pops the first message (blocking or not), then
/// keeps the baton until the coalesce window, a *deadline* counted on
/// the injected clock from that first dequeue, runs out or the batch
/// hits `max_batch`. Whatever is already queued is taken without
/// waiting; only an empty queue waits, and only for what is left of the
/// window, so a steady trickle cannot hold the batch open. The
/// non-blocking pass ([`Frontend::drain_now`]) has a zero budget and
/// never waits for followers. Returns the batch, whether this worker
/// must stop, and how long (on the injected clock) the leader held the
/// baton waiting for followers — the batch's coalesce span stage.
#[expect(
    clippy::disallowed_methods,
    reason = "the worker blocks on its request queue between batches, off the read path"
)]
fn collect_batch(inner: &Inner, block_for_first: bool) -> (Vec<Pending>, bool, u64) {
    let mut batch = Vec::new();
    let mut stop = false;
    let coalesce_us;
    {
        let queue_rx = inner.queue_rx.lock();
        let first = if block_for_first {
            match queue_rx.recv() {
                Ok(msg) => msg,
                Err(_) => return (batch, true, 0),
            }
        } else {
            match queue_rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => return (batch, false, 0),
            }
        };
        match first {
            Msg::Request(p) => batch.push(p),
            Msg::Stop => return (batch, true, 0),
        }
        let coalesce_start = inner.clock.now_micros();
        let window_us = if block_for_first {
            inner.config.coalesce_window_us
        } else {
            0
        };
        let deadline = coalesce_start.saturating_add(window_us);
        while batch.len() < inner.config.max_batch && !stop {
            let next = match queue_rx.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Disconnected) => None,
                Err(TryRecvError::Empty) => {
                    let budget_us = deadline.saturating_sub(inner.clock.now_micros());
                    if budget_us == 0 {
                        break;
                    }
                    match queue_rx.recv_timeout(Duration::from_micros(budget_us)) {
                        Ok(msg) => Some(msg),
                        // The rest of the window slept out with nothing
                        // queued (under a manual clock, in real time).
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => None,
                    }
                }
            };
            match next {
                Some(Msg::Request(p)) => batch.push(p),
                Some(Msg::Stop) | None => stop = true,
            }
        }
        coalesce_us = inner.clock.now_micros().saturating_sub(coalesce_start);
    }
    if !batch.is_empty() {
        inner.depth.fetch_sub(batch.len(), Ordering::AcqRel);
        inner
            .queue_depth
            .set(inner.depth.load(Ordering::Acquire) as f64);
    }
    (batch, stop, coalesce_us)
}

/// Serves one coalesced batch against exactly one pinned snapshot.
/// Returns the number of requests consumed from the queue (every one of
/// them answered — with an estimate or a per-request error).
///
/// When the service's span layer samples this batch, the span follows
/// the batch's *lead* request: queue wait is the lead's admission-to-
/// collection time on the injected clock, the coalesce stage is the
/// leader's baton-hold time, and the service-side stages (kernel,
/// remedy) fold in from the estimation calls below because the
/// guard keeps this thread's stage slab armed for the whole batch.
fn process_batch(inner: &Inner, batch: Vec<Pending>, coalesce_us: u64) -> usize {
    if batch.is_empty() {
        return 0;
    }
    let batch_size = batch.len();
    // The whole batch pins this one snapshot: every reply carries the
    // same epoch no matter how many republishes land concurrently.
    let snapshot = inner.service.snapshot();
    let epoch = snapshot.epoch().get();
    let batch_id = inner.next_batch.fetch_add(1, Ordering::Relaxed);
    inner.coalesce_size.observe(batch_size as f64);
    let (lead_tenant, lead_enqueued_us) = match batch.first() {
        Some(lead) => (lead.tenant, lead.enqueued_us),
        None => (0, 0),
    };
    let mut span = inner.service.telemetry().spans.start_request(lead_tenant);
    if span.is_sampled() {
        span.set_epoch(epoch);
        let queue_wait_us = inner.clock.now_micros().saturating_sub(lead_enqueued_us);
        span.add_stage_us(
            Stage::QueueWait,
            queue_wait_us.saturating_sub(coalesce_us) as f64,
        );
        span.add_stage_us(Stage::Coalesce, coalesce_us as f64);
    }

    // Pre-validate per request with the service's own checks (model,
    // arity, finite features) so one bad request degrades to its own
    // typed error instead of failing its whole (system, op) group, then
    // bucket the valid ones for the batched forward passes.
    let mut groups: Vec<((SystemId, OperatorKind), Vec<Pending>)> = Vec::new();
    for pending in batch {
        if let Err(err) = check_request(&snapshot, &pending.system, pending.op, &pending.features) {
            respond(inner, &pending, Err(Rejection::Service(err)));
            continue;
        }
        let key = (pending.system.clone(), pending.op);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(pending),
            None => groups.push((key, vec![pending])),
        }
    }

    LEADER_SCRATCH.with(|lead| {
        let mut lead = lead.borrow_mut();
        let LeaderScratch { scratch, flat, out } = &mut *lead;
        for ((system, op), members) in groups {
            // Arity pre-validation above means every member of a group
            // shares the model's width, so the group flattens into one
            // reused row-major staging buffer — no per-request clones.
            let Some(first) = members.first() else {
                continue;
            };
            let width = first.features.len();
            flat.clear();
            for pending in &members {
                flat.extend_from_slice(&pending.features);
            }
            match inner.service.estimate_batch_flat_pinned_scratch(
                &snapshot, &system, op, flat, width, out, scratch,
            ) {
                Ok(()) => {
                    for (pending, estimate) in members.iter().zip(out.drain(..)) {
                        respond(
                            inner,
                            pending,
                            Ok(EstimateReply {
                                request_id: pending.id,
                                estimate,
                                epoch,
                                batch_id,
                                batch_size,
                            }),
                        );
                    }
                }
                Err(err) => {
                    for pending in &members {
                        respond(inner, pending, Err(Rejection::Service(err.clone())));
                    }
                }
            }
        }
    });
    batch_size
}

fn respond(inner: &Inner, pending: &Pending, result: FrontendResult) {
    inner.responses_total.inc();
    if let Some(slo) = &inner.slo {
        let now_us = inner.clock.now_micros();
        let latency_us = now_us.saturating_sub(pending.enqueued_us) as f64;
        slo.record(now_us, latency_us, result.is_ok());
    }
    // A dropped ticket (caller gave up) is the caller's choice; the
    // send failure is intentionally ignored.
    let _ = pending.reply.send(result);
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test: the wall-clock tests sleep and time themselves"
)]
mod tests {
    use super::*;
    use costing::logical_op::flow::LogicalOpCosting;
    use costing::logical_op::model::{FitConfig, LogicalOpModel};
    use neuro::Dataset;

    fn trained_flow(slope: f64) -> LogicalOpCosting {
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=15 {
            for s in 1..=4 {
                let rows = r as f64 * 1e5;
                let size = s as f64 * 100.0;
                inputs.push(vec![rows, size]);
                targets.push(1.0 + slope * rows + 0.01 * size);
            }
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        LogicalOpCosting::new(model)
    }

    fn service_with_two_systems() -> (EstimatorService, SystemId, SystemId) {
        let svc = EstimatorService::default();
        let a = SystemId::new("hive-a");
        let b = SystemId::new("presto-b");
        svc.register(a.clone(), trained_flow(2e-6));
        svc.register(b.clone(), trained_flow(8e-6));
        (svc, a, b)
    }

    fn manual_frontend(config: FrontendConfig) -> (Frontend, SystemId, SystemId) {
        let (svc, a, b) = service_with_two_systems();
        let fe = Frontend::with_clock(
            svc,
            FrontendConfig {
                workers: 0,
                ..config
            },
            Clock::manual(0),
        );
        (fe, a, b)
    }

    fn request(system: &SystemId, tenant: u64, x: f64) -> EstimateRequest {
        EstimateRequest {
            tenant,
            system: system.clone(),
            op: OperatorKind::Aggregation,
            features: vec![x, 200.0],
        }
    }

    #[test]
    fn manual_drain_answers_each_request_with_its_own_estimate() {
        let (fe, a, b) = manual_frontend(FrontendConfig::default());
        let t1 = fe.submit(request(&a, 0, 5e5)).unwrap();
        let t2 = fe.submit(request(&b, 0, 5e5)).unwrap();
        let t3 = fe.submit(request(&a, 0, 7e5)).unwrap();
        assert_eq!(fe.queue_depth(), 3);
        assert_eq!(fe.drain_now(), 3, "one greedy pass takes all three");
        assert_eq!(fe.queue_depth(), 0);
        let (r1, r2, r3) = (t1.wait().unwrap(), t2.wait().unwrap(), t3.wait().unwrap());
        // All three shared one batch and one epoch.
        assert_eq!(r1.batch_id, r2.batch_id);
        assert_eq!(r2.batch_id, r3.batch_id);
        assert_eq!(r1.batch_size, 3);
        assert_eq!(r1.epoch, r3.epoch);
        // And each matches its serial twin bit for bit.
        let svc = fe.service();
        let serial_a = svc
            .estimate(&a, OperatorKind::Aggregation, &[5e5, 200.0])
            .unwrap();
        let serial_b = svc
            .estimate(&b, OperatorKind::Aggregation, &[5e5, 200.0])
            .unwrap();
        assert_eq!(r1.estimate, serial_a);
        assert_eq!(r2.estimate, serial_b);
        assert_ne!(r1.estimate.secs, r2.estimate.secs);
    }

    #[test]
    fn drain_now_never_waits_for_followers() {
        let (fe, a, _) = manual_frontend(FrontendConfig {
            coalesce_window_us: 1_000_000,
            ..FrontendConfig::default()
        });
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| fe.submit(request(&a, 0, 1e5 + i as f64)).unwrap())
            .collect();
        let started = std::time::Instant::now();
        assert_eq!(fe.drain_now(), 3);
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "a 1 s window must not make a manual drain sleep: took {took:?}"
        );
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn coalesce_window_is_a_deadline_from_the_first_dequeue() {
        let (svc, a, _) = service_with_two_systems();
        let clock = Clock::manual(0);
        let fe = Frontend::with_clock(
            svc,
            FrontendConfig {
                workers: 1,
                coalesce_window_us: 1_000_000,
                ..FrontendConfig::default()
            },
            clock.clone(),
        );
        let ta = fe.submit(request(&a, 0, 1e5)).unwrap();
        // Let the leader dequeue A and start waiting out A's window.
        std::thread::sleep(Duration::from_millis(50));
        // Virtual time passes A's deadline: B still joins (it ends the
        // wait), but nothing keeps the batch open after it.
        clock.advance_micros(2_000_000);
        let submitted = std::time::Instant::now();
        let tb = fe.submit(request(&a, 0, 2e5)).unwrap();
        let (ra, rb) = (ta.wait().unwrap(), tb.wait().unwrap());
        let took = submitted.elapsed();
        assert_eq!(ra.batch_id, rb.batch_id, "A and B share one batch");
        assert_eq!(ra.batch_size, 2);
        assert!(
            took < Duration::from_millis(500),
            "the batch sealed at the deadline, not one idle window after B: {took:?}"
        );
        fe.shutdown();
    }

    #[test]
    fn queue_overflow_sheds_with_typed_rejection() {
        let (fe, a, _) = manual_frontend(FrontendConfig {
            queue_capacity: 2,
            ..FrontendConfig::default()
        });
        let _t1 = fe.submit(request(&a, 0, 1e5)).unwrap();
        let _t2 = fe.submit(request(&a, 0, 2e5)).unwrap();
        let shed = fe.submit(request(&a, 0, 3e5));
        assert_eq!(shed.unwrap_err(), Rejection::QueueFull { capacity: 2 });
    }

    #[test]
    fn unknown_model_and_arity_errors_are_per_request() {
        let (fe, a, _) = manual_frontend(FrontendConfig::default());
        let good = fe.submit(request(&a, 0, 5e5)).unwrap();
        let ghost = fe
            .submit(EstimateRequest {
                tenant: 0,
                system: SystemId::new("ghost"),
                op: OperatorKind::Aggregation,
                features: vec![1.0, 2.0],
            })
            .unwrap();
        let short = fe
            .submit(EstimateRequest {
                tenant: 0,
                system: a.clone(),
                op: OperatorKind::Aggregation,
                features: vec![1.0],
            })
            .unwrap();
        assert_eq!(fe.drain_now(), 3, "all three requests are consumed");
        assert!(good.wait().is_ok());
        assert!(matches!(
            ghost.wait(),
            Err(Rejection::Service(ServiceError::UnknownModel { .. }))
        ));
        assert!(matches!(
            short.wait(),
            Err(Rejection::Service(ServiceError::ArityMismatch {
                expected: 2,
                got: 1
            }))
        ));
    }

    #[test]
    fn a_non_finite_request_is_refused_alone() {
        let (fe, a, _) = manual_frontend(FrontendConfig::default());
        let good = fe.submit(request(&a, 0, 5e5)).unwrap();
        let nan = fe
            .submit(EstimateRequest {
                tenant: 0,
                system: a.clone(),
                op: OperatorKind::Aggregation,
                features: vec![5e5, f64::NAN],
            })
            .unwrap();
        assert_eq!(fe.drain_now(), 2);
        assert!(good.wait().is_ok(), "its group still gets an estimate");
        assert_eq!(
            nan.wait(),
            Err(Rejection::Service(ServiceError::NonFiniteFeature {
                dim: 1
            }))
        );
    }

    #[test]
    fn rate_limiter_sheds_until_the_clock_advances() {
        let (svc, a, _) = service_with_two_systems();
        let clock = Clock::manual(0);
        let fe = Frontend::with_clock(
            svc,
            FrontendConfig {
                workers: 0,
                rate_limit: Some(RateLimitConfig {
                    burst: 2.0,
                    per_tenant_rps: 1000.0,
                }),
                ..FrontendConfig::default()
            },
            clock.clone(),
        );
        assert!(fe.submit(request(&a, 9, 1e5)).is_ok());
        assert!(fe.submit(request(&a, 9, 2e5)).is_ok());
        assert_eq!(
            fe.submit(request(&a, 9, 3e5)).unwrap_err(),
            Rejection::RateLimited { tenant: 9 }
        );
        // Another tenant is unaffected; time refills tenant 9.
        assert!(fe.submit(request(&a, 10, 1e5)).is_ok());
        clock.advance_micros(1_000);
        assert!(fe.submit(request(&a, 9, 4e5)).is_ok());
    }

    #[test]
    fn shutdown_answers_every_queued_request() {
        let (fe, a, _) = manual_frontend(FrontendConfig::default());
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| fe.submit(request(&a, 0, 1e5 + i as f64)).unwrap())
            .collect();
        fe.shutdown();
        for t in tickets {
            assert_eq!(t.wait().unwrap_err(), Rejection::ShuttingDown);
        }
        assert!(matches!(
            fe.submit(request(&a, 0, 1e5)),
            Err(Rejection::ShuttingDown)
        ));
    }

    #[test]
    fn worker_threads_serve_submissions_end_to_end() {
        let (svc, a, _) = service_with_two_systems();
        let fe = Frontend::new(
            svc,
            FrontendConfig {
                workers: 2,
                coalesce_window_us: 50,
                ..FrontendConfig::default()
            },
        );
        let replies: Vec<EstimateReply> = (0..32)
            .map(|i| {
                fe.submit(request(&a, 0, 1e5 + i as f64 * 1e4))
                    .and_then(Ticket::wait)
                    .unwrap()
            })
            .collect();
        for reply in &replies {
            let serial = fe
                .service()
                .estimate(
                    &a,
                    OperatorKind::Aggregation,
                    &[1e5 + (reply.request_id as f64) * 1e4, 200.0],
                )
                .unwrap();
            assert_eq!(reply.estimate, serial);
        }
        fe.shutdown();
    }

    #[test]
    fn metrics_track_queue_coalesce_and_shed() {
        let (fe, a, _) = manual_frontend(FrontendConfig {
            queue_capacity: 2,
            ..FrontendConfig::default()
        });
        let t1 = fe.submit(request(&a, 0, 1e5)).unwrap();
        let t2 = fe.submit(request(&a, 0, 2e5)).unwrap();
        let _ = fe.submit(request(&a, 0, 3e5)); // shed
        let snap = fe.service().telemetry().metrics.snapshot();
        assert_eq!(snap.gauge("frontend_queue_depth", &[]), Some(2.0));
        assert_eq!(
            snap.counter("frontend_shed_total", &[("reason", "queue_full")]),
            Some(1)
        );
        assert_eq!(snap.counter("frontend_requests_total", &[]), Some(3));
        fe.drain_now();
        let _ = (t1.wait(), t2.wait());
        let snap = fe.service().telemetry().metrics.snapshot();
        assert_eq!(snap.gauge("frontend_queue_depth", &[]), Some(0.0));
        assert_eq!(snap.counter("frontend_responses_total", &[]), Some(2));
        let hist = snap
            .histogram("frontend_coalesce_batch_size", &[])
            .expect("coalesce histogram registered");
        assert_eq!(hist.count, 1, "one batch formed");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // For arbitrary request interleavings, coalesce windows, and
            // batch caps: every response maps back to the correct
            // request id (verified by feature-vector fingerprint), and
            // every batch pins exactly one epoch even while republishes
            // land between drains.
            #[test]
            fn responses_map_to_request_ids_and_batches_pin_one_epoch(
                plan in proptest::collection::vec((0usize..3, 1usize..40), 1..24),
                max_batch in 1usize..8,
                window_choice in 0u64..2,
            ) {
                let (svc, a, b) = service_with_two_systems();
                let fe = Frontend::with_clock(
                    svc,
                    FrontendConfig {
                        workers: 0,
                        max_batch,
                        coalesce_window_us: window_choice * 50,
                        queue_capacity: 64,
                        rate_limit: None,
                        slo: None,
                    },
                    Clock::manual(0),
                );
                let mut tickets = Vec::new();
                let mut expected = Vec::new();
                for (which, step) in plan {
                    let (system, known) = match which {
                        0 => (a.clone(), true),
                        1 => (b.clone(), true),
                        _ => (SystemId::new("ghost"), false),
                    };
                    // The feature vector fingerprints the request: if a
                    // reply were routed to the wrong ticket, its
                    // estimate would disagree with the serial twin.
                    let features = vec![1e5 + step as f64 * 7.3e4, 200.0];
                    let ticket = fe.submit(EstimateRequest {
                        tenant: 0,
                        system: system.clone(),
                        op: OperatorKind::Aggregation,
                        features: features.clone(),
                    });
                    let ticket = ticket.expect("queue sized for the plan");
                    // Every submit is admitted, so request ids run in
                    // submission order from zero.
                    expected.push((tickets.len() as u64, system, features, known));
                    tickets.push(ticket);
                    // Interleave drains (sealing partial batches) and
                    // republishes (bumping the epoch mid-stream).
                    if step % 3 == 0 {
                        fe.drain_now();
                    }
                    if step % 5 == 0 {
                        fe.service().republish();
                    }
                }
                while fe.drain_now() > 0 {}
                let mut by_batch: std::collections::HashMap<u64, (u64, usize, usize)> =
                    std::collections::HashMap::new();
                for (ticket, (id, system, features, known)) in
                    tickets.into_iter().zip(expected)
                {
                    match ticket.wait() {
                        Ok(reply) => {
                            prop_assert!(known);
                            prop_assert_eq!(reply.request_id, id);
                            let pinned = fe.service().snapshot();
                            // Bit-identity vs the serial path is checked
                            // at the *reply's* epoch when still current;
                            // across republishes the estimate content is
                            // epoch-independent for this model anyway.
                            let serial = fe
                                .service()
                                .estimate_pinned(
                                    &pinned,
                                    &system,
                                    OperatorKind::Aggregation,
                                    &features,
                                )
                                .expect("known model");
                            prop_assert_eq!(reply.estimate, serial);
                            let entry = by_batch
                                .entry(reply.batch_id)
                                .or_insert((reply.epoch, reply.batch_size, 0));
                            prop_assert_eq!(entry.0, reply.epoch,
                                "a batch must pin exactly one epoch");
                            prop_assert_eq!(entry.1, reply.batch_size);
                            entry.2 += 1;
                        }
                        Err(Rejection::Service(ServiceError::UnknownModel { .. })) => {
                            prop_assert!(!known);
                        }
                        Err(other) => {
                            prop_assert!(false, "unexpected rejection: {:?}", other);
                        }
                    }
                }
                for (batch_id, (_, size, seen)) in by_batch {
                    prop_assert!(seen <= size,
                        "batch {batch_id}: more replies than its size");
                    prop_assert!(size <= max_batch,
                        "batch {batch_id}: exceeded max_batch");
                }
            }
        }
    }
}
