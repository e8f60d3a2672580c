#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Observability foundation for the IntelliSphere costing workspace.
//!
//! The paper's offline-tuning loop (§4.3) hinges on *seeing* what the
//! estimator did: which path produced each estimate (pure NN, remedy
//! blend, sub-operator formula), what the remote systems actually
//! reported back, and whether a trained model is drifting away from the
//! workload it serves. This crate provides the three layers that make
//! that visible without taxing the estimation hot path:
//!
//! * [`metrics`] — a lock-cheap [`MetricsRegistry`] of atomic counters,
//!   gauges, and fixed-bucket histograms. Handles are pre-resolvable
//!   `Arc`s, so a hot loop pays one relaxed atomic per increment.
//!   The registry renders Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and produces a
//!   [`MetricsSnapshot`] for programmatic assertions.
//! * [`trace`] — structured event tracing: typed [`Event`]s describing
//!   each estimate's full decision trail, routed through a pluggable
//!   [`Subscriber`]. With no subscriber attached (the default [`Tracer`]),
//!   [`Tracer::emit`] never runs its closure, so instrumented code
//!   allocates nothing.
//! * [`drift`] — a [`DriftMonitor`] computing rolling RMSE% and Q-error
//!   per model key over a sliding window, flagging models whose error
//!   exceeds a configurable threshold so the offline-tuning path knows
//!   what to retrain.
//!
//! [`Telemetry`] bundles a registry and a tracer into one cheaply
//! cloneable handle that instrumented components carry.

pub mod drift;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod trace;

pub use drift::{DriftConfig, DriftMonitor, ModelHealth};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use slo::{BurnAlert, SloConfig, SloEngine};
pub use span::{Exemplar, SpanConfig, SpanGuard, SpanId, SpanLayer, SpanSnapshot, Stage};
pub use trace::{AlertEvent, Event, RingSubscriber, Subscriber, Tracer, VecSubscriber};

use std::sync::Arc;

/// One observability handle: a metrics registry plus an event tracer.
///
/// Cloning shares the underlying registry and subscriber, so a planner
/// thread's clone feeds the same metrics as the service that spawned it.
/// [`Telemetry::default`] carries a fresh registry and a *disabled*
/// tracer — instrumented code stays allocation-free on the hot path
/// until a subscriber is attached.
#[derive(Clone)]
pub struct Telemetry {
    /// The shared metrics registry.
    pub metrics: MetricsRegistry,
    /// Pre-resolved federation planner counters — resolved here, at
    /// construction, so the plan path never takes the registry mutex.
    pub planner: metrics::PlannerCounters,
    /// Pre-resolved workload scheduler counters (same discipline).
    pub scheduler: metrics::SchedulerCounters,
    /// The event tracer (disabled unless a subscriber was attached).
    pub tracer: Tracer,
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
            tracer: Tracer::default(),
            spans: SpanLayer::default(),
        }
    }
}

impl Telemetry {
    /// A fresh registry with no subscriber.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A fresh registry with events routed to `subscriber`.
    pub fn with_subscriber(subscriber: Arc<dyn Subscriber>) -> Self {
        Telemetry {
            tracer: Tracer::new(subscriber),
            ..Telemetry::default()
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracing_enabled", &self.tracer.is_enabled())
            .finish()
    }
}

#[cfg(test)]
#[expect(clippy::unreachable, reason = "test: the closure must never run")]
mod tests {
    use super::*;

    #[test]
    fn default_telemetry_is_disabled() {
        let t = Telemetry::new();
        assert!(!t.tracer.is_enabled());
        t.tracer
            .emit(|| unreachable!("disabled tracer must not build events"));
    }

    #[test]
    fn with_subscriber_enables_tracing_and_shares_on_clone() {
        let sub = Arc::new(VecSubscriber::new());
        let t = Telemetry::with_subscriber(sub.clone());
        let t2 = t.clone();
        t2.tracer.emit(|| Event::Span {
            name: "x".into(),
            micros: 1.0,
        });
        assert_eq!(sub.len(), 1);
        assert!(format!("{t:?}").contains("tracing_enabled: true"));
    }
}
