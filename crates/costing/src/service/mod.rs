//! The estimation service: a thread-safe, shareable front-end over the
//! logical-operator costing models.
//!
//! The paper's Fig. 9 architecture keeps one costing profile per remote
//! system inside the master engine's optimizer; a federated planner costs
//! many `(system, operator)` candidates for every query it plans, and an
//! optimizer with any intra-query parallelism does so from several
//! threads at once. [`EstimatorService`] packages the estimation read
//! path for that workload:
//!
//! * an **epoch-versioned model store** (`crate::epoch::EpochStore`):
//!   the read path pins an immutable [`ModelSnapshot`] with a lock-free
//!   atomic load — estimates never take a `RwLock` or `Mutex` on the
//!   model registry, and concurrent retraining can never stall them;
//! * **builder-style mutations**: registration, observations, α
//!   adjustment, and offline tuning are clone-modify-publish
//!   transactions that swap in a new snapshot under the next epoch,
//!   entirely off the hot path;
//! * one **estimate memo per model version**: an LRU map from a row's
//!   feature bits to its estimate (see `cache`), kept in the pinned
//!   snapshot beside the flow it memoizes and made fresh whenever that
//!   flow is created or replaced — the memo and the model state come
//!   from the same pinned `Arc`, so a memoized estimate can never be
//!   served against a model state it was not computed from, and a
//!   publication that leaves a model untouched leaves its memo warm;
//! * **one estimate body**: every entry is memo probe → the flow's
//!   Fig. 3 body on the misses
//!   ([`crate::logical_op::flow::LogicalOpCosting::estimate_rows`]: one
//!   fused packed-kernel pass for the in-range rows, the remedy for the
//!   rest) → memo insert, against a single pinned snapshot, and a single
//!   estimate is a batch of one row — so results cannot differ by entry
//!   point, nor from the manager stack, which calls the same body;
//! * cheap **cloneable handles**: the service is an `Arc` internally, so
//!   `service.clone()` hands a planner thread its own handle.
//!
//! The flow's body is a pure function of the pinned snapshot — two
//! threads asking the same question against the same epoch always get
//! bit-identical answers, and a concurrent fan-out returns exactly what
//! a serial loop would. Callers that need several estimates to be internally
//! consistent mid-retrain pin one snapshot ([`EstimatorService::snapshot`])
//! and use the `*_pinned` variants.

pub(crate) mod cache;

use crate::{
    epoch::{Epoch, EpochStore, ModelSlot, ModelSnapshot, PipelineReport, TuningPipeline},
    estimator::{CostEstimate, OperatorKind},
    logical_op::flow::{FlowScratch, LogicalOpCosting},
    observability::ModelKey,
};
use catalog::SystemId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use telemetry::span::{time as stage_time, Stage};
use telemetry::{Counter, DriftMonitor, Histogram, Telemetry};

/// Histogram bounds (seconds) for served estimates: spans the paper's
/// sub-second scans up to the ~10-minute heavy joins.
const ESTIMATE_SECS_BOUNDS: [f64; 7] = [0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0];

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Estimates each registered model version memoizes (an LRU).
    /// `0` disables the memo entirely: no memo lock is ever taken and
    /// every estimate recomputes through the packed kernels — the right
    /// trade for latency-critical deployments whose feature vectors
    /// rarely repeat.
    pub cache_capacity_per_model: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity_per_model: 1024,
        }
    }
}

/// Estimation-service failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No model registered under `(system, op)`.
    UnknownModel {
        /// The requested system.
        system: SystemId,
        /// The requested operator.
        op: OperatorKind,
    },
    /// The feature vector's length does not match the model's arity.
    ArityMismatch {
        /// The model's input dimensionality.
        expected: usize,
        /// The supplied feature count.
        got: usize,
    },
    /// A feature is NaN or ±∞. No model is fitted on such a value, and
    /// the Fig. 3 body would answer it with a clamped `0.0` or `inf`
    /// instead of an error.
    NonFiniteFeature {
        /// The offending feature's dimension (its index within the row).
        dim: usize,
    },
    /// An internal bookkeeping invariant failed (a batch slot that every
    /// code path should have filled came back empty). Surfaced as an
    /// error instead of a panic so one corrupted batch cannot take down
    /// the optimizer's costing path.
    Internal(
        /// Which invariant was violated.
        &'static str,
    ),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownModel { system, op } => {
                write!(f, "no model registered for {op} on system `{system}`")
            }
            ServiceError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "feature arity mismatch: model expects {expected}, got {got}"
                )
            }
            ServiceError::NonFiniteFeature { dim } => {
                write!(f, "feature {dim} is NaN or infinite")
            }
            ServiceError::Internal(context) => {
                write!(
                    f,
                    "internal estimation-service invariant violated: {context}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Snapshot of the memo counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a memo.
    pub hits: u64,
    /// Requests that had to run a model.
    pub misses: u64,
}

impl CacheStats {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Reusable workspace for the estimate hot path.
///
/// Every buffer the pinned estimate paths need — memo probes (a row's
/// feature bits), batch result staging, the flow body's [`FlowScratch`] — lives
/// here, so a warm scratch makes the pinned estimate paths
/// allocation-free steady-state (cache hits, and cache-disabled
/// in-range computes; the out-of-range remedy runs a per-row
/// regression and is excluded from the zero-alloc claim). The service
/// keeps one per thread for the plain `estimate*` entry points;
/// callers that own their threading (the serving frontend's batch
/// leader) hold their own and pass it to
/// [`EstimatorService::estimate_batch_flat_pinned_scratch`].
#[derive(Debug, Default)]
pub struct EstimateScratch {
    /// Feature bits of one memo probe.
    bits: Vec<u64>,
    /// Per-row results staged during a batch.
    results: Vec<Option<CostEstimate>>,
    /// Indices of rows the memo could not answer.
    miss_idx: Vec<usize>,
    /// Kernel and remedy workspace of the flow's Fig. 3 body.
    flow: FlowScratch,
    /// Flat staging used when flattening a nested `&[Vec<f64>]` batch.
    staging: Vec<f64>,
}

impl EstimateScratch {
    /// An empty scratch; every buffer grows on first use and is
    /// retained (`const` so it can live in a const-initialised
    /// `thread_local`, which never lazily allocates).
    pub const fn new() -> Self {
        EstimateScratch {
            bits: Vec::new(),
            results: Vec::new(),
            miss_idx: Vec::new(),
            flow: FlowScratch::new(),
            staging: Vec::new(),
        }
    }
}

thread_local! {
    /// Per-thread scratch backing the plain (non-`_scratch`) estimate
    /// entry points. Const-initialised: touching it never allocates.
    static TLS_SCRATCH: RefCell<EstimateScratch> = const { RefCell::new(EstimateScratch::new()) };
}

struct Inner {
    /// The epoch-versioned model store; reads are lock-free snapshot
    /// loads, writes are serialised clone-modify-publish transactions.
    store: EpochStore,
    telemetry: Telemetry,
    /// Registry-backed memo counters (handles into `telemetry.metrics`).
    hits: Counter,
    misses: Counter,
    /// Distribution of served estimates, seconds.
    estimate_secs: Histogram,
    /// False when `cache_capacity_per_model` was 0: the hot path skips
    /// the memo lock and every probe entirely.
    cache_enabled: bool,
}

/// A thread-safe, cheaply-cloneable handle to the estimation service.
#[derive(Clone)]
pub struct EstimatorService {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for EstimatorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EstimatorService")
            .field("epoch", &self.epoch())
            .field("models", &self.registered().len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl Default for EstimatorService {
    fn default() -> Self {
        EstimatorService::new(ServiceConfig::default())
    }
}

impl EstimatorService {
    /// Builds an empty service with its own telemetry.
    pub fn new(config: ServiceConfig) -> Self {
        EstimatorService::with_telemetry(config, Telemetry::new())
    }

    /// Builds an empty service publishing into the given telemetry
    /// handle: cache counters and the estimate histogram live in its
    /// metrics registry.
    pub fn with_telemetry(config: ServiceConfig, telemetry: Telemetry) -> Self {
        let reg = &telemetry.metrics;
        reg.set_help(
            "estimator_cache_hits_total",
            "Estimates answered from a model's LRU estimate memo.",
        );
        reg.set_help(
            "estimator_cache_misses_total",
            "Estimates that had to run a costing model.",
        );
        reg.set_help(
            "estimator_estimate_secs",
            "Distribution of served cost estimates, in estimated seconds.",
        );
        reg.set_help(
            "execution_log_dropped_entries",
            "Observations evicted oldest-first from a model's bounded execution log.",
        );
        let hits = reg.counter("estimator_cache_hits_total", &[]);
        let misses = reg.counter("estimator_cache_misses_total", &[]);
        let estimate_secs = reg.histogram("estimator_estimate_secs", &[], &ESTIMATE_SECS_BOUNDS);
        EstimatorService {
            inner: Arc::new(Inner {
                store: EpochStore::new(config.cache_capacity_per_model),
                telemetry,
                hits,
                misses,
                estimate_secs,
                cache_enabled: config.cache_capacity_per_model > 0,
            }),
        }
    }

    /// The service's telemetry handle (registry + span layer).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Pins the current model snapshot (a lock-free atomic load). The
    /// snapshot is immutable: every estimate computed against it — here
    /// or via the `*_pinned` methods — reflects exactly one model
    /// version, regardless of concurrent publications.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.inner.store.load()
    }

    /// The current model-state epoch.
    pub fn epoch(&self) -> Epoch {
        self.inner.store.epoch()
    }

    /// Publishes a content-identical snapshot under a new epoch.
    /// Estimates are bit-identical across a republish, and every
    /// model's memo stays warm.
    pub fn republish(&self) -> Arc<ModelSnapshot> {
        self.inner.store.republish("republish")
    }

    /// Publishes a new epoch whose model content is `snapshot`'s —
    /// rollback to a previously pinned or reloaded model state.
    pub fn rollback_to(&self, snapshot: &ModelSnapshot) -> Arc<ModelSnapshot> {
        self.inner.store.rollback_to(snapshot)
    }

    /// Runs one offline-tuning pipeline pass: drains every due model's
    /// execution log, retrains, and publishes all results as a single
    /// epoch bump; the report carries one tuning report per retrained
    /// model.
    pub fn run_tuning(&self, pipeline: &TuningPipeline) -> PipelineReport {
        pipeline.run_once(&self.inner.store)
    }

    /// Registers (or replaces) the costing flow for one operator on one
    /// system, with a fresh memo; the operator kind comes from the
    /// trained model itself.
    pub fn register(&self, system: SystemId, flow: LogicalOpCosting) {
        let op = flow.model.op;
        let _ = self
            .inner
            .store
            .transaction("register", |tx| tx.insert_model(system, op, flow));
    }

    /// Every registered `(system, operator)` pair, sorted.
    pub(crate) fn registered(&self) -> Vec<(SystemId, OperatorKind)> {
        self.inner.store.load().keys()
    }

    /// Estimates one operator's cost against the current snapshot,
    /// consulting the model's memo first. Completely lock-free on the
    /// model store: the only lock touched is the memo's mutex.
    pub fn estimate(
        &self,
        system: &SystemId,
        op: OperatorKind,
        features: &[f64],
    ) -> Result<CostEstimate, ServiceError> {
        let snapshot = self.inner.store.load();
        self.estimate_pinned(&snapshot, system, op, features)
    }

    /// [`EstimatorService::estimate`] against a caller-pinned snapshot.
    /// The memo probed and filled is the pinned snapshot's own, beside
    /// the flow that computes, so an estimate replayed from an older
    /// pinned snapshot can never reach readers of a newer model.
    ///
    /// This is a one-row batch through the same core as
    /// [`EstimatorService::estimate_batch_flat_pinned_scratch`], over the
    /// calling thread's [`EstimateScratch`]: same memo probe, same
    /// Fig. 3 body. A memo hit and an in-range compute with the memo
    /// disabled perform zero heap allocations once the scratch is warm
    /// (the insert after a memo miss and the out-of-range remedy still
    /// allocate).
    pub fn estimate_pinned(
        &self,
        snapshot: &ModelSnapshot,
        system: &SystemId,
        op: OperatorKind,
        features: &[f64],
    ) -> Result<CostEstimate, ServiceError> {
        if features.is_empty() {
            // A zero-width row has no flat layout; answer with the typed
            // error the model lookup and arity check give.
            check_arity(&slot_or_unknown(snapshot, system, op)?.flow, features)?;
            return Err(ServiceError::Internal("model of arity zero"));
        }
        TLS_SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            self.estimate_rows(snapshot, system, op, features, features.len(), scratch)?;
            scratch
                .results
                .pop()
                .flatten()
                .ok_or(ServiceError::Internal("batch slot left unfilled"))
        })
    }

    /// Estimates a whole batch of feature vectors for one `(system, op)`
    /// against one caller-pinned snapshot (see
    /// [`EstimatorService::estimate_pinned`]).
    ///
    /// Memoized rows are answered from the memo; the flow's Fig. 3 body
    /// costs the rest (in-range rows share a single packed-kernel pass,
    /// out-of-range rows go through the remedy individually). Results
    /// are identical, bit for
    /// bit, to calling [`EstimatorService::estimate_pinned`] per row
    /// against the same snapshot, and the whole batch is internally
    /// consistent even mid-retrain. Flattens the nested rows into the
    /// calling thread's scratch and delegates to
    /// [`EstimatorService::estimate_batch_flat_pinned_scratch`].
    pub fn estimate_batch_pinned(
        &self,
        snapshot: &ModelSnapshot,
        system: &SystemId,
        op: OperatorKind,
        rows: &[Vec<f64>],
    ) -> Result<Vec<CostEstimate>, ServiceError> {
        let Some(first) = rows.first() else {
            return Ok(Vec::new());
        };
        let width = first.len();
        if rows.iter().any(|r| r.len() != width) {
            // A mixed-width batch cannot be flattened; surface the
            // per-row arity error the flat path would have raised.
            let flow = &slot_or_unknown(snapshot, system, op)?.flow;
            for r in rows {
                check_arity(flow, r)?;
            }
            return Err(ServiceError::Internal("mixed-width batch"));
        }
        TLS_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            // The staging buffer is moved out while the core borrows the
            // rest of the scratch, then put back (no allocation either way).
            let mut staging = std::mem::take(&mut scratch.staging);
            staging.clear();
            for r in rows {
                staging.extend_from_slice(r);
            }
            let mut out = Vec::with_capacity(rows.len());
            let res = self.estimate_batch_flat_pinned_scratch(
                snapshot,
                system,
                op,
                &staging,
                width,
                &mut out,
                &mut scratch,
            );
            scratch.staging = staging;
            res.map(|()| out)
        })
    }

    /// Reuse-aware batch estimation: [`EstimatorService::estimate_batch_pinned`]
    /// with identical feature rows costed once.
    ///
    /// Workload-level planners repeatedly cost the *same* operator shape
    /// — duplicated statements, shared scans, one query matrix-costed on
    /// every engine — so a batch often carries far fewer distinct rows
    /// than rows. This entry deduplicates rows by exact bit pattern
    /// (`f64::to_bits`, so `-0.0` and `0.0` stay distinct and NaNs never
    /// merge), runs one batched pass over the distinct rows, and fans
    /// the results back out. Because the underlying batch path is
    /// bit-identical to the per-row pinned path, so is this one: the
    /// result for every row equals [`EstimatorService::estimate_pinned`]
    /// on that row at the same epoch.
    pub fn estimate_batch_dedup_pinned(
        &self,
        snapshot: &ModelSnapshot,
        system: &SystemId,
        op: OperatorKind,
        rows: &[Vec<f64>],
    ) -> Result<Vec<CostEstimate>, ServiceError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let mut first_of: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let mut distinct: Vec<Vec<f64>> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(rows.len());
        for row in rows {
            let key: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
            let slot = match first_of.get(&key) {
                Some(&slot) => slot,
                None => {
                    let slot = distinct.len();
                    first_of.insert(key, slot);
                    distinct.push(row.clone());
                    slot
                }
            };
            slot_of.push(slot);
        }
        let estimates = self.estimate_batch_pinned(snapshot, system, op, &distinct)?;
        let mut out = Vec::with_capacity(rows.len());
        for slot in slot_of {
            match estimates.get(slot) {
                Some(est) => out.push(est.clone()),
                None => return Err(ServiceError::Internal("dedup batch slot out of range")),
            }
        }
        Ok(out)
    }

    /// The flat, allocation-disciplined form of the batched estimate
    /// path: `rows.len() / width` feature rows in one contiguous
    /// row-major buffer, results written into `out` (cleared first).
    ///
    /// One memo pass under the model's memo lock answers what it can
    /// (borrowed probes — no per-row key allocation); the misses go to
    /// [`LogicalOpCosting::estimate_rows`], which stages the in-range
    /// ones into the scratch's flat buffer for one fused packed-kernel
    /// pass and sends the others through the remedy individually.
    /// Results are identical, bit for bit, to calling
    /// [`EstimatorService::estimate`] per row at the same epoch.
    /// With the memo disabled, a warm scratch and warm `out` make the
    /// whole call allocation-free for in-range batches.
    #[expect(
        clippy::too_many_arguments,
        reason = "the hot-path entry point: every input is load-bearing"
    )]
    pub fn estimate_batch_flat_pinned_scratch(
        &self,
        snapshot: &ModelSnapshot,
        system: &SystemId,
        op: OperatorKind,
        rows: &[f64],
        width: usize,
        out: &mut Vec<CostEstimate>,
        scratch: &mut EstimateScratch,
    ) -> Result<(), ServiceError> {
        out.clear();
        if rows.is_empty() {
            // No row to cost, but a zero-width batch of several rows
            // flattens to nothing too: answer with the model lookup and
            // arity check a non-empty batch would get.
            check_arity_width(&slot_or_unknown(snapshot, system, op)?.flow, width)?;
            return Ok(());
        }
        if width == 0 || rows.len() % width != 0 {
            return Err(ServiceError::Internal(
                "flat batch length is not a multiple of its width",
            ));
        }
        self.estimate_rows(snapshot, system, op, rows, width, scratch)?;
        out.reserve(scratch.results.len());
        for r in scratch.results.drain(..) {
            out.push(r.ok_or(ServiceError::Internal("batch slot left unfilled"))?);
        }
        Ok(())
    }

    /// The one memo probe → Fig. 3 body → insert sequence behind every
    /// estimate entry point. `rows` holds `rows.len() / width` rows
    /// (callers guarantee `width > 0` divides the length); on success
    /// `scratch.results` holds one filled slot per row, in row order.
    fn estimate_rows(
        &self,
        snapshot: &ModelSnapshot,
        system: &SystemId,
        op: OperatorKind,
        rows: &[f64],
        width: usize,
        scratch: &mut EstimateScratch,
    ) -> Result<(), ServiceError> {
        let n = rows.len() / width;
        let slot = slot_or_unknown(snapshot, system, op)?;
        check_arity_width(&slot.flow, width)?;
        check_finite(rows, width)?;
        let EstimateScratch {
            bits,
            results,
            miss_idx,
            flow: flow_scratch,
            ..
        } = scratch;
        results.clear();
        results.resize(n, None);
        miss_idx.clear();

        if self.inner.cache_enabled {
            let _probe = stage_time(Stage::CacheProbe);
            let mut memo = slot.memo.lock();
            for (i, (row, result)) in rows.chunks_exact(width).zip(results.iter_mut()).enumerate() {
                bits.clear();
                bits.extend(row.iter().map(|v| v.to_bits()));
                match memo.get(bits) {
                    Some(hit) => *result = Some(hit),
                    None => miss_idx.push(i),
                }
            }
        } else {
            miss_idx.extend(0..n);
        }
        self.inner.hits.add((n - miss_idx.len()) as u64);

        if !miss_idx.is_empty() {
            slot.flow.estimate_rows(rows, width, results, flow_scratch);
            self.inner.misses.add(miss_idx.len() as u64);
            for &i in miss_idx.iter() {
                let est = results
                    .get(i)
                    .and_then(Option::as_ref)
                    .ok_or(ServiceError::Internal("miss slot not computed"))?;
                self.inner.estimate_secs.observe(est.secs);
            }
        }

        if self.inner.cache_enabled && !miss_idx.is_empty() {
            let _probe = stage_time(Stage::CacheProbe);
            let mut memo = slot.memo.lock();
            for &i in miss_idx.iter() {
                let (Some(row), Some(Some(est))) =
                    (rows.get(i * width..(i + 1) * width), results.get(i))
                else {
                    continue;
                };
                bits.clear();
                bits.extend(row.iter().map(|v| v.to_bits()));
                memo.insert(bits, est.clone());
            }
        }
        Ok(())
    }

    /// Feeds an observed actual execution into the owning flow (log + α
    /// tuner) through a clone-modify-publish transaction; the new flow
    /// gets a fresh memo, and every other model keeps its own. The flow's
    /// eviction counter is surfaced as the
    /// `execution_log_dropped_entries{system,operator}` gauge.
    pub fn observe_actual(
        &self,
        system: &SystemId,
        op: OperatorKind,
        features: &[f64],
        actual_secs: f64,
    ) -> Result<(), ServiceError> {
        let (dropped, _) = self.inner.store.try_transaction("observe", |tx| {
            tx.update_model(system, op, |flow| {
                check_arity(flow, features)?;
                check_finite(features, features.len())?;
                flow.observe_actual(features, actual_secs);
                Ok(flow.log.dropped())
            })
            .ok_or_else(|| ServiceError::UnknownModel {
                system: system.clone(),
                op,
            })?
        })?;
        let system_label = system.to_string();
        let op_label = op.to_string();
        self.inner
            .telemetry
            .metrics
            .gauge(
                "execution_log_dropped_entries",
                &[
                    ("system", system_label.as_str()),
                    ("operator", op_label.as_str()),
                ],
            )
            .set(dropped as f64);
        Ok(())
    }

    /// Re-fits the α blend weight from everything observed so far
    /// (clone-modify-publish; readers keep the previous snapshot until
    /// the new epoch lands).
    pub fn adjust_alpha(&self, system: &SystemId, op: OperatorKind) -> Result<f64, ServiceError> {
        let (alpha, _) = self.inner.store.try_transaction("adjust-alpha", |tx| {
            tx.update_model(system, op, |flow| flow.adjust_alpha())
                .ok_or_else(|| ServiceError::UnknownModel {
                    system: system.clone(),
                    op,
                })
        })?;
        Ok(alpha)
    }

    /// Replays every registered flow's pending execution-log entries into
    /// a drift monitor keyed by `(system, operator)`, pairing each logged
    /// actual with what the pinned snapshot's model predicts for its
    /// features. Samples are tagged with the snapshot's epoch, so drift
    /// is attributable to a model version. Returns the number of samples
    /// fed.
    pub fn feed_drift_monitor(&self, monitor: &mut DriftMonitor<ModelKey>) -> usize {
        let snapshot = self.inner.store.load();
        let epoch = snapshot.epoch().get();
        let mut fed = 0;
        let mut scratch = FlowScratch::new();
        for slot in snapshot.models() {
            for entry in slot.flow.log.entries() {
                let predicted = slot
                    .flow
                    .estimate_scratch(&entry.features, &mut scratch)
                    .secs;
                monitor.record_versioned(
                    slot.key.clone(),
                    predicted,
                    entry.actual_secs,
                    Some(epoch),
                );
                fed += 1;
            }
        }
        fed
    }

    /// Current hit/miss counters (reads the registry-backed handles).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.get(),
            misses: self.inner.misses.get(),
        }
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&self) {
        self.inner.hits.reset();
        self.inner.misses.reset();
    }

    /// Empties the memo of every model in the current snapshot
    /// (counters are untouched).
    pub fn clear_cache(&self) {
        for slot in self.inner.store.load().models() {
            slot.memo.lock().clear();
        }
    }
}

fn slot_or_unknown<'s>(
    snapshot: &'s ModelSnapshot,
    system: &SystemId,
    op: OperatorKind,
) -> Result<&'s ModelSlot, ServiceError> {
    snapshot
        .slot(system, op)
        .ok_or_else(|| ServiceError::UnknownModel {
            system: system.clone(),
            op,
        })
}

fn check_arity(flow: &LogicalOpCosting, features: &[f64]) -> Result<(), ServiceError> {
    check_arity_width(flow, features.len())
}

fn check_arity_width(flow: &LogicalOpCosting, width: usize) -> Result<(), ServiceError> {
    let expected = flow.model.arity();
    if width != expected {
        return Err(ServiceError::ArityMismatch {
            expected,
            got: width,
        });
    }
    Ok(())
}

/// Refuses rows (`width` features each) holding a NaN or ±∞, naming the
/// first offender's dimension.
fn check_finite(rows: &[f64], width: usize) -> Result<(), ServiceError> {
    match rows.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(ServiceError::NonFiniteFeature {
            dim: i % width.max(1),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test: concurrency tests spawn and join scoped threads"
)]
mod tests {
    use super::*;
    use crate::estimator::EstimateSource;
    use crate::logical_op::model::{FitConfig, LogicalOpModel};
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

    /// The aggregation flow `sys` is served from in the current snapshot.
    fn flow_of(svc: &EstimatorService, sys: &SystemId) -> Arc<LogicalOpCosting> {
        Arc::clone(
            svc.snapshot()
                .model(sys, OperatorKind::Aggregation)
                .expect("registered"),
        )
    }

    fn service_with_model() -> (EstimatorService, SystemId) {
        let svc = EstimatorService::default();
        let sys = SystemId::new("hive-a");
        svc.register(sys.clone(), trained_flow(2e-6));
        (svc, sys)
    }

    #[test]
    fn routes_to_registered_model_and_counts_misses_then_hits() {
        let (svc, sys) = service_with_model();
        let x = [5e5, 200.0];
        let first = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(first.source, EstimateSource::NeuralNetwork);
        let second = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(first, second);
        let stats = svc.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.requests(), 2);
    }

    #[test]
    fn unknown_system_or_operator_errors() {
        let (svc, sys) = service_with_model();
        assert!(matches!(
            svc.estimate(
                &SystemId::new("ghost"),
                OperatorKind::Aggregation,
                &[1.0, 2.0]
            ),
            Err(ServiceError::UnknownModel { .. })
        ));
        assert!(matches!(
            svc.estimate(&sys, OperatorKind::Join, &[1.0, 2.0]),
            Err(ServiceError::UnknownModel { .. })
        ));
        assert!(matches!(
            svc.estimate(&sys, OperatorKind::Join, &[]),
            Err(ServiceError::UnknownModel { .. })
        ));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let (svc, sys) = service_with_model();
        let err = svc
            .estimate(&sys, OperatorKind::Aggregation, &[1.0])
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "feature arity mismatch: model expects 2, got 1"
        );
        // An empty row is an arity error too — never `Internal`, never
        // `Ok` — and a rejected request moves no counter.
        assert_eq!(
            svc.estimate(&sys, OperatorKind::Aggregation, &[]),
            Err(ServiceError::ArityMismatch {
                expected: 2,
                got: 0
            })
        );
        assert_eq!(svc.stats().requests(), 0);
    }

    #[test]
    fn cached_estimates_match_the_flow_exactly() {
        let (svc, sys) = service_with_model();
        let x = [7e5, 300.0];
        let direct = flow_of(&svc, &sys).estimate(&x);
        let via_service = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        let via_cache = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(direct, via_service);
        assert_eq!(direct, via_cache);
    }

    #[test]
    fn batch_path_is_bit_identical_to_single_path_and_counts_once() {
        let (svc, sys) = service_with_model();
        // Mix of in-range and far out-of-range rows.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![1e5 + i as f64 * 2.5e6, 100.0 + (i % 4) as f64 * 100.0])
            .collect();
        let batched = svc
            .estimate_batch_pinned(&svc.snapshot(), &sys, OperatorKind::Aggregation, &rows)
            .unwrap();
        let stats = svc.stats();
        assert_eq!((stats.hits, stats.misses), (0, 20));
        for (row, b) in rows.iter().zip(&batched) {
            let single = svc.estimate(&sys, OperatorKind::Aggregation, row).unwrap();
            assert_eq!(&single, b, "row {row:?}");
        }
        // Those singles were all cache hits.
        let stats = svc.stats();
        assert_eq!((stats.hits, stats.misses), (20, 20));
        // A second batch over the same rows is all hits.
        let again = svc
            .estimate_batch_pinned(&svc.snapshot(), &sys, OperatorKind::Aggregation, &rows)
            .unwrap();
        assert_eq!(again, batched);
        assert_eq!(
            svc.stats(),
            CacheStats {
                hits: 40,
                misses: 20
            }
        );
    }

    #[test]
    fn disabled_cache_recomputes_and_matches_cached_service_bit_for_bit() {
        let cached = EstimatorService::default();
        let uncached = EstimatorService::new(ServiceConfig {
            cache_capacity_per_model: 0,
        });
        let sys = SystemId::new("hive-a");
        let flow = trained_flow(2e-6);
        cached.register(sys.clone(), flow.clone());
        uncached.register(sys.clone(), flow);
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![1e5 + i as f64 * 2.5e6, 100.0 + (i % 4) as f64 * 100.0])
            .collect();
        for row in &rows {
            let a = cached
                .estimate(&sys, OperatorKind::Aggregation, row)
                .unwrap();
            let b = uncached
                .estimate(&sys, OperatorKind::Aggregation, row)
                .unwrap();
            assert_eq!(a, b, "row {row:?}");
        }
        let batch_a = cached
            .estimate_batch_pinned(&cached.snapshot(), &sys, OperatorKind::Aggregation, &rows)
            .unwrap();
        let batch_b = uncached
            .estimate_batch_pinned(&uncached.snapshot(), &sys, OperatorKind::Aggregation, &rows)
            .unwrap();
        assert_eq!(batch_a, batch_b);
        // The uncached service never records a hit, even on repeats.
        let _ = uncached
            .estimate(&sys, OperatorKind::Aggregation, &rows[0])
            .unwrap();
        assert_eq!(uncached.stats().hits, 0);
    }

    #[test]
    fn flat_batch_entry_point_matches_nested() {
        let (svc, sys) = service_with_model();
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![1e5 + i as f64 * 2.5e6, 100.0 + (i % 4) as f64 * 100.0])
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let nested = svc
            .estimate_batch_pinned(&svc.snapshot(), &sys, OperatorKind::Aggregation, &rows)
            .unwrap();
        svc.clear_cache();
        let snapshot = svc.snapshot();
        let mut out = Vec::new();
        let mut scratch = EstimateScratch::new();
        svc.estimate_batch_flat_pinned_scratch(
            &snapshot,
            &sys,
            OperatorKind::Aggregation,
            &flat,
            2,
            &mut out,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(nested, out);
        // Degenerate shapes are errors, not panics.
        assert!(matches!(
            svc.estimate_batch_flat_pinned_scratch(
                &snapshot,
                &sys,
                OperatorKind::Aggregation,
                &flat[..3],
                2,
                &mut out,
                &mut scratch,
            ),
            Err(ServiceError::Internal(_))
        ));
    }

    #[test]
    fn observation_invalidates_cache_and_feeds_the_tuner() {
        let (svc, sys) = service_with_model();
        let oor = [2e7, 200.0];
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &oor).unwrap();
        svc.observe_actual(&sys, OperatorKind::Aggregation, &oor, 55.0)
            .unwrap();
        // The observed model's new flow has a fresh memo: no hit.
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &oor).unwrap();
        assert_eq!(svc.stats(), CacheStats { hits: 0, misses: 2 });
        let flow = flow_of(&svc, &sys);
        assert_eq!((flow.tuner.observations(), flow.log.len()), (1, 1));
        // α re-fit goes through the service too.
        let alpha = svc.adjust_alpha(&sys, OperatorKind::Aggregation).unwrap();
        assert!((0.0..=1.0).contains(&alpha));
    }

    #[test]
    fn models_for_different_systems_are_independent() {
        let svc = EstimatorService::default();
        let a = SystemId::new("hive-a");
        let b = SystemId::new("presto-b");
        svc.register(a.clone(), trained_flow(2e-6));
        svc.register(b.clone(), trained_flow(8e-6));
        let x = [5e5, 200.0];
        let ea = svc.estimate(&a, OperatorKind::Aggregation, &x).unwrap();
        let eb = svc.estimate(&b, OperatorKind::Aggregation, &x).unwrap();
        assert_ne!(ea.secs, eb.secs, "different systems, different models");
        assert_eq!(svc.registered().len(), 2);
    }

    #[test]
    fn clear_cache_forces_recomputation() {
        let (svc, sys) = service_with_model();
        let x = [5e5, 200.0];
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        svc.clear_cache();
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(svc.stats(), CacheStats { hits: 0, misses: 2 });
        svc.reset_stats();
        assert_eq!(svc.stats().requests(), 0);
    }

    #[test]
    fn cloned_handles_share_state() {
        let (svc, sys) = service_with_model();
        let handle = svc.clone();
        let x = [5e5, 200.0];
        let _ = handle
            .estimate(&sys, OperatorKind::Aggregation, &x)
            .unwrap();
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(svc.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn cache_counters_are_registry_backed() {
        let (svc, sys) = service_with_model();
        let x = [5e5, 200.0];
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        let snap = svc.telemetry().metrics.snapshot();
        assert_eq!(snap.counter("estimator_cache_hits_total", &[]), Some(1));
        assert_eq!(snap.counter("estimator_cache_misses_total", &[]), Some(1));
        let h = snap.histogram("estimator_estimate_secs", &[]).unwrap();
        assert_eq!(h.count, 1, "only the miss runs a model");
        // The text exposition carries the same numbers.
        let text = svc.telemetry().metrics.render_prometheus();
        assert!(text.contains("estimator_cache_hits_total 1"));
        assert!(text.contains("estimator_cache_misses_total 1"));
    }

    #[test]
    fn service_drift_feeding_reaches_the_monitor() {
        use telemetry::DriftConfig;

        let (svc, sys) = service_with_model();
        for i in 0..4 {
            svc.observe_actual(
                &sys,
                OperatorKind::Aggregation,
                &[2e7 + i as f64 * 1e5, 200.0],
                55.0,
            )
            .unwrap();
        }
        let mut monitor = DriftMonitor::new(DriftConfig {
            min_samples: 1,
            ..DriftConfig::default()
        });
        let fed = svc.feed_drift_monitor(&mut monitor);
        assert_eq!(fed, 4);
        let health = monitor
            .status(&(sys.clone(), OperatorKind::Aggregation))
            .unwrap();
        assert_eq!(health.samples, 4);
        // Samples carry the snapshot's epoch: register + 4 observations
        // = epoch 5, and all predictions came from that one snapshot.
        assert_eq!(health.epoch_span, Some((5, 5)));
    }

    #[test]
    fn concurrent_estimates_match_serial_smoke() {
        let (svc, sys) = service_with_model();
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![1e5 + i as f64 * 4e5, 100.0 + (i % 4) as f64 * 100.0])
            .collect();
        let serial: Vec<CostEstimate> = rows
            .iter()
            .map(|r| svc.estimate(&sys, OperatorKind::Aggregation, r).unwrap())
            .collect();
        svc.clear_cache();
        let concurrent: Vec<CostEstimate> = std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(16)
                .map(|chunk| {
                    let svc = svc.clone();
                    let sys = sys.clone();
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|r| svc.estimate(&sys, OperatorKind::Aggregation, r).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(serial, concurrent);
    }

    #[test]
    fn stale_pinned_snapshot_cannot_pollute_the_current_epoch_cache() {
        // Regression for the generation-counter staleness window: an
        // estimate computed against pre-publication model state used to
        // be insertable into the cache with a generation value that a
        // later (or weakly-ordered concurrent) reader would still match,
        // serving the old model's output after an update. The memo
        // sits beside the flow in the same snapshot Arc as the model
        // state, so the two cannot disagree.
        let (svc, sys) = service_with_model();
        let x = [5e5, 200.0];
        // A reader pins the snapshot, then gets descheduled...
        let pinned = svc.snapshot();
        // ...meanwhile the model is replaced and a new epoch publishes.
        svc.register(sys.clone(), trained_flow(8e-6));
        // The descheduled reader wakes up and completes its estimate
        // from the *old* snapshot — computed before the publication,
        // inserted after it (exactly the racy interleaving).
        let stale = svc
            .estimate_pinned(&pinned, &sys, OperatorKind::Aggregation, &x)
            .unwrap();
        // Readers of the current epoch never see the stale insert: it
        // went into the old flow's memo, and the fresh estimate is a
        // miss that recomputes from the new model.
        let fresh = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_ne!(fresh.secs, stale.secs, "stale value must not be served");
        let direct = flow_of(&svc, &sys).estimate(&x);
        assert_eq!(fresh, direct, "fresh estimate reflects the new model");
        // Each snapshot reads its own memo, beside its own flow:
        // replaying under the old snapshot and reading under the new one
        // each hit their own value, never the other model's.
        svc.reset_stats();
        let replay = svc
            .estimate_pinned(&pinned, &sys, OperatorKind::Aggregation, &x)
            .unwrap();
        let live = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(replay, stale);
        assert_eq!(live, fresh);
        assert_eq!(svc.stats(), CacheStats { hits: 2, misses: 0 });
    }

    #[test]
    fn republish_keeps_estimates_bit_identical_and_lineage_links() {
        let (svc, sys) = service_with_model();
        let x = [7.3e5, 250.0];
        let before_epoch = svc.epoch();
        let before = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        let snap = svc.republish();
        assert_eq!(snap.epoch().get(), before_epoch.get() + 1);
        assert_eq!(snap.lineage().parent, Some(before_epoch.get()));
        assert_eq!(snap.lineage().label, "republish");
        let after = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(before, after, "no-op republish must not change estimates");
        // The republish shares the flow, and with it the memo: the
        // second request is a hit.
        assert_eq!(svc.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn a_publication_cools_only_the_memos_of_the_models_it_replaces() {
        let svc = EstimatorService::default();
        let (a, b) = (SystemId::new("hive-a"), SystemId::new("presto-b"));
        svc.register(a.clone(), trained_flow(2e-6));
        svc.register(b.clone(), trained_flow(8e-6));
        let x = [5e5, 200.0];
        let agg = OperatorKind::Aggregation;
        let hit_of = |sys: &SystemId| {
            let before = svc.stats();
            let _ = svc.estimate(sys, agg, &x).unwrap();
            svc.stats().hits > before.hits
        };
        // Warm both memos.
        assert!(!hit_of(&a));
        assert!(!hit_of(&b));
        // An observe on A replaces A's flow alone.
        svc.observe_actual(&a, agg, &x, 2.0).unwrap();
        assert!(hit_of(&b), "B's memo survives A's observe");
        assert!(!hit_of(&a), "A's new flow starts with a fresh memo");
        // A content-identical republish keeps every memo warm.
        let _ = svc.republish();
        assert!(hit_of(&a));
        assert!(hit_of(&b));
        // Registering a replacement for A cools A's memo again.
        svc.register(a.clone(), trained_flow(2e-6));
        assert!(!hit_of(&a));
        assert!(hit_of(&b));
    }

    #[test]
    fn infinite_features_of_either_sign_are_memoized_apart() {
        // Neither sign reaches the memo: both rows are refused before the
        // probe, so one can never be answered with the other's estimate.
        // (Bit-keyed separation of rows is `cache::tests::
        // borrowed_probe_matches_owned_key`.)
        let agg = OperatorKind::Aggregation;
        let (svc, sys) = service_with_model();
        for row in [[5e5, f64::INFINITY], [5e5, f64::NEG_INFINITY]] {
            assert_eq!(
                svc.estimate(&sys, agg, &row),
                Err(ServiceError::NonFiniteFeature { dim: 1 })
            );
        }
        assert_eq!(svc.stats(), CacheStats { hits: 0, misses: 0 });
    }

    #[test]
    fn non_finite_features_are_refused_on_every_entry() {
        let agg = OperatorKind::Aggregation;
        let (svc, sys) = service_with_model();
        let nan = f64::NAN;
        for (row, dim) in [
            ([nan, 200.0], 0),
            ([5e5, nan], 1),
            ([f64::NEG_INFINITY, 200.0], 0),
            ([f64::INFINITY, 200.0], 0),
        ] {
            let want = ServiceError::NonFiniteFeature { dim };
            assert_eq!(svc.estimate(&sys, agg, &row), Err(want.clone()), "{row:?}");
            // A bad row anywhere in a batch refuses the batch.
            let rows = vec![vec![5e5, 200.0], row.to_vec()];
            let snap = svc.snapshot();
            assert_eq!(
                svc.estimate_batch_pinned(&snap, &sys, agg, &rows),
                Err(want.clone())
            );
            assert_eq!(
                svc.estimate_batch_dedup_pinned(&snap, &sys, agg, &rows),
                Err(want)
            );
        }
        assert_eq!(svc.stats().requests(), 0);
        // An observation with a non-finite feature publishes nothing.
        let epoch = svc.epoch();
        assert_eq!(
            svc.observe_actual(&sys, agg, &[5e5, nan], 3.0),
            Err(ServiceError::NonFiniteFeature { dim: 1 })
        );
        assert_eq!(svc.epoch(), epoch);
        assert_eq!(
            ServiceError::NonFiniteFeature { dim: 1 }.to_string(),
            "feature 1 is NaN or infinite"
        );
    }

    #[test]
    fn zero_width_batches_answer_like_single_rows() {
        let agg = OperatorKind::Aggregation;
        let (svc, sys) = service_with_model();
        let snap = svc.snapshot();
        let arity = ServiceError::ArityMismatch {
            expected: 2,
            got: 0,
        };
        assert_eq!(
            svc.estimate_pinned(&snap, &sys, agg, &[]),
            Err(arity.clone())
        );
        let empty_rows = [vec![], vec![]];
        assert_eq!(
            svc.estimate_batch_pinned(&snap, &sys, agg, &empty_rows),
            Err(arity.clone())
        );
        assert_eq!(
            svc.estimate_batch_dedup_pinned(&snap, &sys, agg, &[vec![]]),
            Err(arity)
        );
        let ghost = SystemId::new("ghost");
        assert!(matches!(
            svc.estimate_batch_pinned(&snap, &ghost, agg, &empty_rows),
            Err(ServiceError::UnknownModel { .. })
        ));
        // A batch of no rows at all is still an empty answer.
        assert_eq!(svc.estimate_batch_pinned(&snap, &sys, agg, &[]), Ok(vec![]));
    }

    #[test]
    fn rollback_restores_an_earlier_model_state() {
        let (svc, sys) = service_with_model();
        let x = [5e5, 200.0];
        let good = svc.snapshot();
        let good_est = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        svc.register(sys.clone(), trained_flow(9e-6));
        let bad_est = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_ne!(good_est.secs, bad_est.secs);
        let restored = svc.rollback_to(&good);
        assert_eq!(restored.lineage().restores, Some(good.epoch().get()));
        let back = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(back, good_est, "rollback must restore exact estimates");
    }

    #[test]
    fn tuning_pipeline_runs_through_the_service() {
        let (svc, sys) = service_with_model();
        let (mut rows, mut observed) = (1.6e6, 0);
        while rows <= 2.6e6 {
            svc.observe_actual(
                &sys,
                OperatorKind::Aggregation,
                &[rows, 200.0],
                1.0 + 2e-6 * rows + 2.0,
            )
            .unwrap();
            rows += 1e5;
            observed += 1;
        }
        let report = svc.run_tuning(&TuningPipeline::new(FitConfig::fast()));
        assert_eq!(report.reports.len(), 1);
        assert!(report.entries_drained > 0);
        assert_eq!(report.epoch, Some(svc.epoch()));
        assert!(flow_of(&svc, &sys).log.is_empty());
        // The per-model report names what the retrain consumed and
        // achieved: every observed row, the rows dimension widened.
        let ((system, op), tune) = &report.reports[0];
        assert_eq!((system, *op), (&sys, OperatorKind::Aggregation));
        assert_eq!(tune.entries_used, observed);
        assert_eq!(tune.dims_expanded, vec![0]);
        assert!(tune.rmse_pct_after.is_finite());
    }

    #[test]
    fn idle_tuning_pass_keeps_the_cache_warm() {
        let (svc, sys) = service_with_model();
        let x = [5e5, 200.0];
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        let epoch = svc.epoch();
        // No flow has a logged actual: nothing is due, nothing publishes,
        // and the memoized estimate is still the current one.
        let report = svc.run_tuning(&TuningPipeline::new(FitConfig::fast()));
        assert_eq!(report.epoch, None);
        assert_eq!(svc.epoch(), epoch);
        let _ = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(svc.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn log_evictions_surface_in_the_registry_gauge() {
        let (svc, sys) = service_with_model();
        let mut tight = trained_flow(2e-6);
        tight.log.set_capacity(2);
        svc.register(sys.clone(), tight);
        for i in 0..5 {
            svc.observe_actual(
                &sys,
                OperatorKind::Aggregation,
                &[5e5 + i as f64 * 1e4, 200.0],
                2.0,
            )
            .unwrap();
        }
        let flow = flow_of(&svc, &sys);
        assert_eq!((flow.log.len(), flow.log.dropped()), (2, 3));
        let snap = svc.telemetry().metrics.snapshot();
        assert_eq!(
            snap.gauge(
                "execution_log_dropped_entries",
                &[("system", "hive-a"), ("operator", "aggregation")]
            ),
            Some(3.0)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // A no-op republish (same training data, new epoch) must
            // yield bit-identical estimates for arbitrary feature
            // vectors — in-range, out-of-range, or degenerate.
            #[test]
            fn republish_is_bit_identical_for_arbitrary_features(
                features in proptest::collection::vec(0.0f64..4e6, 2),
                republishes in 1usize..4,
            ) {
                let (svc, sys) = service_with_model();
                let before = svc
                    .estimate(&sys, OperatorKind::Aggregation, &features)
                    .unwrap();
                for _ in 0..republishes {
                    let _ = svc.republish();
                }
                let after = svc
                    .estimate(&sys, OperatorKind::Aggregation, &features)
                    .unwrap();
                prop_assert_eq!(before, after);
            }
        }
    }
}
