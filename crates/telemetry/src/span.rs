//! Request-scoped spans with a fixed stage taxonomy.
//!
//! A served estimate crosses several layers — admission queue, batch
//! coalescing, packed kernel, remedy blend, federation
//! placement, remote execution — and a latency regression in any one of
//! them is invisible to aggregate histograms. This module records *per
//! request* where the time went, under a hard constraint inherited from
//! the raw-speed pass (DESIGN.md §13): the estimate hot path must stay
//! **allocation-free**, and when sampling is off the span layer must
//! cost no more than one relaxed atomic load per request.
//!
//! The design that satisfies both:
//!
//! * Stage segments accumulate in a **preallocated per-thread slab** —
//!   a `const`-initialised thread-local `[f64; STAGE_COUNT]`. Arming a
//!   span zeroes the slab; a [`StageTimer`] adds its elapsed micros on
//!   drop. No heap is touched in either direction.
//! * Sampling is decided once per request by [`SpanLayer::start_request`]
//!   (every Nth request, `0` = off). The sampled-off path is a single
//!   relaxed load returning an inert [`SpanGuard`]; inert stage timers
//!   read one thread-local `bool` and skip the clock entirely.
//! * Finished sampled spans are folded into a fixed-capacity exemplar
//!   reservoir (the K slowest per window, retaining the full stage
//!   breakdown plus tenant and epoch) guarded by a ranked mutex. The
//!   reservoir's two buffers are preallocated at construction and
//!   records are `Copy`, so recording a finished span allocates
//!   nothing either.
//!
//! Wall-clock reads happen only here: the two fns that read
//! `Instant::now()` each carry an `#[expect(clippy::disallowed_methods)]`.

use mathkit::total_cmp_f64;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of stages in the fixed taxonomy (the length of
/// [`Stage::ALL`]).
pub const STAGE_COUNT: usize = 6;

/// The fixed stage taxonomy of one request span.
///
/// Stages are segments, not a strict partition: a request that never
/// reaches federation simply leaves that slot at zero. `RemoteExec` is
/// special — the simulated engines attribute *simulated* elapsed time
/// there, so it is excluded from wall-time identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time between request admission and the batch leader picking the
    /// request off the queue (attributed from the serving clock).
    QueueWait,
    /// Time the batch leader spent widening the batch inside the
    /// coalesce window (attributed from the serving clock).
    Coalesce,
    /// The fused packed inference kernel.
    Kernel,
    /// The out-of-range remedy blend path.
    Remedy,
    /// Federation placement enumeration and costing.
    FederationPlacement,
    /// Remote engine execution, attributed in *simulated* time by
    /// `remote-sim` rather than measured on the wall clock.
    RemoteExec,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::QueueWait,
        Stage::Coalesce,
        Stage::Kernel,
        Stage::Remedy,
        Stage::FederationPlacement,
        Stage::RemoteExec,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Identifies one sampled request span (unique per [`SpanLayer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for SpanId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SpanId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// The per-thread slab: one armed flag plus fixed stage accumulators.
// `try_with` everywhere — no lazy init, no allocation, no panic during
// thread teardown, so the accessors are safe from any drop glue.
thread_local! {
    static SLAB_ARMED: Cell<bool> = const { Cell::new(false) };
    static SLAB_STAGES_US: Cell<[f64; STAGE_COUNT]> = const { Cell::new([0.0; STAGE_COUNT]) };
}

fn slab_armed() -> bool {
    SLAB_ARMED.try_with(Cell::get).unwrap_or(false)
}

fn slab_add(stage: Stage, micros: f64) {
    let _ = SLAB_STAGES_US.try_with(|cell| {
        let mut stages = cell.get();
        if let Some(slot) = stages.get_mut(stage.index()) {
            *slot += micros;
        }
        cell.set(stages);
    });
}

/// RAII timer for one stage segment on the *current thread's* active
/// span. Inert (one thread-local read, no clock) when no span is armed.
///
/// Instrumented code calls [`time`] unconditionally; the armed check is
/// what keeps the sampled-off hot path free.
#[must_use = "a stage timer measures the scope it is bound to"]
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            slab_add(self.stage, start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// Starts timing `stage` on the current thread's active span; inert
/// when no span is armed.
#[expect(
    clippy::disallowed_methods,
    reason = "span timings are reported, never fed back into an estimate"
)]
pub fn time(stage: Stage) -> StageTimer {
    StageTimer {
        stage,
        start: if slab_armed() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Attributes `micros` of externally measured time to `stage` on the
/// current thread's active span (no-op when none is armed). Used where
/// the segment is measured by another clock: queue wait via the serving
/// clock, remote execution via simulated time.
pub fn attribute(stage: Stage, micros: f64) {
    if micros > 0.0 && slab_armed() {
        slab_add(stage, micros);
    }
}

/// One finished sampled span: identity, attribution, and the full
/// stage breakdown. `Copy`, so the exemplar reservoir can hold and
/// rotate these without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The span's id.
    pub span: SpanId,
    /// The tenant that issued the request.
    pub tenant: u64,
    /// The model-state epoch that served it (0 when never set).
    pub epoch: u64,
    /// Total span duration in microseconds: guard lifetime plus
    /// externally attributed wall segments (queue wait, coalesce).
    pub total_us: f64,
    /// Per-stage micros, indexed like [`Stage::ALL`].
    pub(crate) stages_us: [f64; STAGE_COUNT],
}

impl Exemplar {
    /// The recorded micros for one stage.
    pub fn stage_us(&self, stage: Stage) -> f64 {
        self.stages_us.get(stage.index()).copied().unwrap_or(0.0)
    }

    /// Sum of all *wall-clock* stage segments (excludes
    /// [`Stage::RemoteExec`], which is attributed in simulated time).
    pub fn wall_stages_us(&self) -> f64 {
        Stage::ALL
            .iter()
            .filter(|s| !matches!(s, Stage::RemoteExec))
            .map(|&s| self.stage_us(s))
            .sum()
    }
}

/// Sampling and exemplar-retention knobs for a [`SpanLayer`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanConfig {
    /// Sample every Nth request (`0` disables sampling entirely).
    pub sample_every: u64,
    /// How many slowest exemplars to retain per window.
    pub exemplar_k: usize,
    /// Window length in *sampled* spans; when it fills, the current
    /// reservoir rotates to "previous" and a fresh one starts.
    pub exemplar_window: usize,
}

impl Default for SpanConfig {
    fn default() -> Self {
        SpanConfig {
            sample_every: 0,
            exemplar_k: 8,
            exemplar_window: 256,
        }
    }
}

/// K-slowest reservoir over the current and previous windows. Both
/// buffers are preallocated to capacity `k`; rotation swaps them, so
/// steady-state recording never allocates.
#[derive(Debug)]
struct ExemplarStore {
    k: usize,
    window: usize,
    seen: usize,
    current: Vec<Exemplar>,
    previous: Vec<Exemplar>,
}

impl ExemplarStore {
    fn new(k: usize, window: usize) -> Self {
        ExemplarStore {
            k,
            window: window.max(1),
            seen: 0,
            current: Vec::with_capacity(k),
            previous: Vec::with_capacity(k),
        }
    }

    fn insert(&mut self, exemplar: Exemplar) {
        if self.k == 0 {
            return;
        }
        if self.current.len() < self.k {
            self.current.push(exemplar);
        } else {
            let slowest_floor = self
                .current
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| total_cmp_f64(&a.total_us, &b.total_us))
                .map(|(i, e)| (i, e.total_us));
            if let Some((idx, floor)) = slowest_floor {
                if exemplar.total_us > floor {
                    if let Some(slot) = self.current.get_mut(idx) {
                        *slot = exemplar;
                    }
                }
            }
        }
        self.seen += 1;
        if self.seen >= self.window {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
            self.seen = 0;
        }
    }

    fn snapshot(&self) -> Vec<Exemplar> {
        let mut out: Vec<Exemplar> = self
            .current
            .iter()
            .chain(self.previous.iter())
            .copied()
            .collect();
        out.sort_by(|a, b| total_cmp_f64(&b.total_us, &a.total_us));
        out
    }
}

/// A point-in-time view of a [`SpanLayer`].
#[derive(Debug, Clone, Default)]
pub struct SpanSnapshot {
    /// Requests seen by the sampling decision since construction.
    pub requests_seen: u64,
    /// Spans actually sampled.
    pub sampled_total: u64,
    /// The retained slowest exemplars (current + previous window),
    /// slowest first.
    pub exemplars: Vec<Exemplar>,
}

struct LayerInner {
    sample_every: AtomicU64,
    seq: AtomicU64,
    next_id: AtomicU64,
    sampled_total: AtomicU64,
    /// Rank `SPAN_EXEMPLARS`: a leaf lock, taken with nothing held.
    exemplars: Mutex<ExemplarStore>,
}

/// The shared request-span layer: sampling gate, span identity, and the
/// exemplar reservoir. Cloning shares all state; a default layer has
/// sampling off.
#[derive(Clone)]
pub struct SpanLayer {
    inner: Arc<LayerInner>,
}

impl Default for SpanLayer {
    fn default() -> Self {
        SpanLayer::new(SpanConfig::default())
    }
}

impl std::fmt::Debug for SpanLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLayer")
            .field("sample_every", &self.sampling())
            .field("sampled_total", &self.sampled_total())
            .finish()
    }
}

impl SpanLayer {
    /// A layer with the given sampling and retention configuration.
    pub fn new(config: SpanConfig) -> Self {
        let exemplars = Mutex::new(ExemplarStore::new(
            config.exemplar_k,
            config.exemplar_window,
        ));
        exemplars.set_rank(parking_lot::rank::SPAN_EXEMPLARS);
        SpanLayer {
            inner: Arc::new(LayerInner {
                sample_every: AtomicU64::new(config.sample_every),
                seq: AtomicU64::new(0),
                next_id: AtomicU64::new(0),
                sampled_total: AtomicU64::new(0),
                exemplars,
            }),
        }
    }

    /// Changes the sampling period at runtime (`0` disables).
    pub fn set_sampling(&self, sample_every: u64) {
        self.inner
            .sample_every
            .store(sample_every, Ordering::Relaxed);
    }

    /// The current sampling period (`0` = off).
    pub(crate) fn sampling(&self) -> u64 {
        self.inner.sample_every.load(Ordering::Relaxed)
    }

    /// Total spans sampled since construction.
    pub(crate) fn sampled_total(&self) -> u64 {
        self.inner.sampled_total.load(Ordering::Relaxed)
    }

    /// Makes the sampling decision for one incoming request and, when
    /// it samples, arms the current thread's stage slab. The
    /// sampled-off fast path is one relaxed atomic load.
    ///
    /// A thread with a span already armed never starts a second one
    /// (the slab has a single owner) — the nested request rides along
    /// unsampled.
    #[expect(
        clippy::disallowed_methods,
        reason = "span timings are reported, never fed back into an estimate"
    )]
    pub fn start_request(&self, tenant: u64) -> SpanGuard<'_> {
        let every = self.inner.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return self.inert();
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        if seq % every != 0 || slab_armed() {
            return self.inert();
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let _ = SLAB_STAGES_US.try_with(|c| c.set([0.0; STAGE_COUNT]));
        let _ = SLAB_ARMED.try_with(|c| c.set(true));
        self.inner.sampled_total.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            layer: self,
            span: SpanId(id),
            tenant,
            epoch: 0,
            external_us: 0.0,
            start: Some(Instant::now()),
        }
    }

    /// The retained exemplars plus sampling counters. Allocates (it
    /// clones the reservoir) — intended for reports and tests, not the
    /// request path.
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            requests_seen: self.inner.seq.load(Ordering::Relaxed),
            sampled_total: self.sampled_total(),
            exemplars: self.inner.exemplars.lock().snapshot(),
        }
    }

    fn inert(&self) -> SpanGuard<'_> {
        SpanGuard {
            layer: self,
            span: SpanId(0),
            tenant: 0,
            epoch: 0,
            external_us: 0.0,
            start: None,
        }
    }

    fn record(&self, exemplar: Exemplar) {
        self.inner.exemplars.lock().insert(exemplar);
    }
}

/// RAII handle for one request span. Armed guards own the thread's
/// stage slab for their lifetime; dropping folds the slab into an
/// [`Exemplar`] and disarms the thread. Inert guards do nothing.
#[must_use = "dropping the guard finishes the span"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    layer: &'a SpanLayer,
    span: SpanId,
    tenant: u64,
    epoch: u64,
    /// Wall micros attributed from outside the guard's lifetime
    /// (queue wait measured before the leader started processing);
    /// added to the total so stage sums reconcile against it.
    external_us: f64,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// Whether this request was sampled.
    pub fn is_sampled(&self) -> bool {
        self.start.is_some()
    }

    /// Records the model-state epoch that served the request.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Attributes externally measured **wall** micros to `stage` —
    /// segments that elapsed before the guard started (queue wait,
    /// coalesce). Counted into both the stage slot and the span total.
    pub fn add_stage_us(&mut self, stage: Stage, micros: f64) {
        if self.start.is_some() && micros > 0.0 {
            slab_add(stage, micros);
            self.external_us += micros;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let total_us = start.elapsed().as_secs_f64() * 1e6 + self.external_us;
        let stages_us = SLAB_STAGES_US
            .try_with(Cell::get)
            .unwrap_or([0.0; STAGE_COUNT]);
        let _ = SLAB_ARMED.try_with(|c| c.set(false));
        self.layer.record(Exemplar {
            span: self.span,
            tenant: self.tenant,
            epoch: self.epoch,
            total_us,
            stages_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(sample_every: u64) -> SpanLayer {
        SpanLayer::new(SpanConfig {
            sample_every,
            exemplar_k: 4,
            exemplar_window: 16,
        })
    }

    #[test]
    fn disabled_layer_samples_nothing() {
        let l = layer(0);
        for _ in 0..10 {
            let g = l.start_request(1);
            assert!(!g.is_sampled());
        }
        let snap = l.snapshot();
        assert_eq!(snap.sampled_total, 0);
        assert!(snap.exemplars.is_empty());
        // A stage timer without an armed span is inert.
        drop(time(Stage::Kernel));
        assert!(l.snapshot().exemplars.is_empty());
    }

    #[test]
    fn sample_every_n_takes_every_nth() {
        let l = layer(4);
        let sampled = (0..16)
            .filter(|_| {
                let g = l.start_request(1);
                g.is_sampled()
            })
            .count();
        assert_eq!(sampled, 4);
        assert_eq!(l.snapshot().requests_seen, 16);
        assert_eq!(l.sampled_total(), 4);
    }

    #[test]
    fn stages_fold_into_the_exemplar() {
        let l = layer(1);
        let mut g = l.start_request(42);
        assert!(g.is_sampled());
        g.set_epoch(7);
        g.add_stage_us(Stage::QueueWait, 250.0);
        {
            let _t = time(Stage::Kernel);
            std::hint::black_box(());
        }
        attribute(Stage::RemoteExec, 1000.0);
        drop(g);
        let snap = l.snapshot();
        assert_eq!(snap.exemplars.len(), 1);
        let e = snap.exemplars[0];
        assert_eq!(e.tenant, 42);
        assert_eq!(e.epoch, 7);
        assert_eq!(e.span, SpanId(1));
        assert!(e.stage_us(Stage::QueueWait) >= 250.0);
        assert!(e.stage_us(Stage::Kernel) >= 0.0);
        assert!((e.stage_us(Stage::RemoteExec) - 1000.0).abs() < 1e-9);
        // The external queue wait is part of the total; simulated
        // remote time is not.
        assert!(e.total_us >= 250.0);
        assert!(e.wall_stages_us() <= e.total_us + 1.0);
        // The thread slab is disarmed after the guard drops.
        assert!(!slab_armed());
    }

    #[test]
    fn reservoir_keeps_the_k_slowest_and_rotates_windows() {
        let mut store = ExemplarStore::new(2, 8);
        let ex = |id: u64, total: f64| Exemplar {
            span: SpanId(id),
            tenant: 0,
            epoch: 0,
            total_us: total,
            stages_us: [0.0; STAGE_COUNT],
        };
        for i in 0..6 {
            store.insert(ex(i, i as f64));
        }
        let kept: Vec<u64> = store.snapshot().iter().map(|e| e.span.0).collect();
        assert_eq!(kept, vec![5, 4], "keeps the two slowest, slowest first");
        // Two more inserts complete the window of 8; the reservoir
        // rotates and keeps serving the previous window's exemplars.
        store.insert(ex(6, 0.5));
        store.insert(ex(7, 9.0));
        assert_eq!(store.seen, 0, "window rotated");
        let after: Vec<u64> = store.snapshot().iter().map(|e| e.span.0).collect();
        assert_eq!(after, vec![7, 5]);
        // The fresh window fills without losing the previous one.
        store.insert(ex(8, 1.0));
        assert_eq!(store.snapshot().len(), 3);
    }

    #[test]
    fn nested_start_requests_stay_inert() {
        let l = layer(1);
        let outer = l.start_request(1);
        assert!(outer.is_sampled());
        let inner = l.start_request(2);
        assert!(!inner.is_sampled(), "the slab has a single owner");
        drop(inner);
        assert!(slab_armed(), "inner inert guard must not disarm the slab");
        drop(outer);
        assert_eq!(l.snapshot().exemplars.len(), 1);
    }

    #[test]
    fn default_layer_is_off() {
        let l = SpanLayer::default();
        assert_eq!(l.sampling(), 0);
        l.set_sampling(2);
        assert_eq!(l.sampling(), 2);
    }
}
