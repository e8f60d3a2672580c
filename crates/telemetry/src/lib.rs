#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Observability foundation for the IntelliSphere costing workspace.
//!
//! The paper's offline-tuning loop (§4.3) hinges on *seeing* how the
//! estimator is doing: how often it answers, where a request spends its
//! time, and whether a trained model is drifting away from the workload
//! it serves. Which path produced an estimate (pure NN, remedy blend,
//! sub-operator formula) is not reported here: every estimate returns
//! its own provenance (`costing::EstimateSource`). This crate provides
//! the layers that make the rest visible without taxing the estimation
//! hot path:
//!
//! * [`metrics`] — a lock-cheap [`MetricsRegistry`] of atomic counters,
//!   gauges, and fixed-bucket histograms. Handles are pre-resolvable
//!   `Arc`s, so a hot loop pays one relaxed atomic per increment.
//!   The registry renders Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and produces a
//!   [`MetricsSnapshot`] for programmatic assertions.
//! * [`span`] — fixed-vocabulary request spans, sampled at a runtime
//!   rate and off by default ([`SpanLayer`]).
//! * [`drift`] — a [`DriftMonitor`] computing rolling RMSE% and Q-error
//!   per model key over a sliding window, flagging models whose error
//!   exceeds a configurable threshold so the offline-tuning path knows
//!   what to retrain.
//! * [`slo`] — an error-budget burn-rate tracker ([`SloEngine`]) whose
//!   alerts are returned to the caller and counted.
//!
//! [`Telemetry`] bundles a registry and a span layer into one cheaply
//! cloneable handle that instrumented components carry.

pub mod drift;
pub mod metrics;
pub mod slo;
pub mod span;

pub use drift::{DriftConfig, DriftMonitor, ModelHealth};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use slo::{BurnAlert, SloConfig, SloEngine};
pub use span::{Exemplar, SpanConfig, SpanGuard, SpanId, SpanLayer, SpanSnapshot, Stage};

/// One observability handle: a metrics registry plus a span layer.
///
/// Cloning shares the underlying registry and span layer, so a planner
/// thread's clone feeds the same metrics as the service that spawned it.
/// [`Telemetry::default`] carries a fresh registry and a span layer that
/// samples nothing.
#[derive(Clone)]
pub struct Telemetry {
    /// The shared metrics registry.
    pub metrics: MetricsRegistry,
    /// Pre-resolved federation planner counters — resolved here, at
    /// construction, so the plan path never takes the registry mutex.
    pub planner: metrics::PlannerCounters,
    /// Pre-resolved workload scheduler counters (same discipline).
    pub scheduler: metrics::SchedulerCounters,
    /// The request-span layer (sampling off by default).
    pub spans: SpanLayer,
}

impl Default for Telemetry {
    fn default() -> Self {
        let registry = MetricsRegistry::default();
        Telemetry {
            planner: metrics::PlannerCounters::register(&registry),
            scheduler: metrics::SchedulerCounters::register(&registry),
            metrics: registry,
            spans: SpanLayer::default(),
        }
    }
}

impl Telemetry {
    /// A fresh registry and a span layer that samples nothing.
    pub fn new() -> Self {
        Telemetry::default()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans", &self.spans)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_telemetry_is_disabled() {
        let t = Telemetry::new();
        assert!(!t.spans.start_request(0).is_sampled());
        // A clone shares the registry: its writes are the original's.
        t.clone().metrics.counter("clone_writes_total", &[]).inc();
        let snap = t.metrics.snapshot();
        assert_eq!(snap.counter("clone_writes_total", &[]), Some(1));
    }
}
