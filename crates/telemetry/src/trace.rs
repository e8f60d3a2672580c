//! Structured event tracing for the estimation path.
//!
//! Instead of log lines, instrumented code emits typed [`Event`]s — each
//! estimate's full decision trail (features, pivots, blend weights,
//! cache outcome) is inspectable data. Events flow through a pluggable
//! [`Subscriber`]; the crate ships one collector, [`VecSubscriber`]
//! (unbounded, for tests and short diagnostic sessions).
//!
//! The hot-path contract: [`Tracer::emit`] takes a *closure* that builds
//! the event. With no subscriber attached the closure is never invoked,
//! so a disabled tracer adds no heap allocation to the estimate path.

use parking_lot::Mutex;
use std::sync::Arc;

/// One entry in an estimate's decision trail.
///
/// Variants mirror the stations of the paper's estimation pipeline:
/// service-level cache handling, the logical-operator remedy path
/// (§4.2), observation/tuning feedback (§4.3), and federation
/// planning.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The service answered an estimate request.
    EstimateServed {
        /// Target system.
        system: String,
        /// Operator kind (display form, e.g. `"join"`).
        operator: String,
        /// The request's feature vector.
        features: Vec<f64>,
        /// Estimated execution time, seconds.
        secs: f64,
        /// Provenance of the estimate (display form of `EstimateSource`).
        source: String,
        /// Whether the service cache satisfied the request.
        cache_hit: bool,
        /// Model-state epoch the estimate was computed from (`None` for
        /// unversioned paths, e.g. a profile-based manager).
        epoch: Option<u64>,
    },
    /// The remedy path compared a query point against the training
    /// envelope and found out-of-range (pivot) dimensions.
    PivotsDetected {
        /// Target system.
        system: String,
        /// Operator kind.
        operator: String,
        /// Indices of the feature dimensions outside the trained range.
        pivots: Vec<usize>,
    },
    /// The remedy path blended the NN estimate with the local
    /// regression estimate.
    RemedyBlend {
        /// Target system.
        system: String,
        /// Operator kind.
        operator: String,
        /// Blend weight on the NN component.
        alpha: f64,
        /// The NN component, seconds.
        nn_estimate: f64,
        /// The regression component, seconds.
        regression_estimate: f64,
        /// The blended result, seconds.
        blended: f64,
    },
    /// An actual execution time was fed back to a model.
    ActualObserved {
        /// Target system.
        system: String,
        /// Operator kind.
        operator: String,
        /// What the model had predicted, seconds.
        predicted: f64,
        /// What the remote system reported, seconds.
        actual: f64,
    },
    /// The α blend weight was retuned from accumulated observations.
    AlphaAdjusted {
        /// Target system.
        system: String,
        /// Operator kind.
        operator: String,
        /// Weight before retuning.
        old_alpha: f64,
        /// Weight after retuning.
        new_alpha: f64,
    },
    /// An offline tuning pass retrained a model from its execution log.
    TuningPass {
        /// Target system.
        system: String,
        /// Operator kind.
        operator: String,
        /// Log entries consumed.
        entries_used: usize,
        /// Feature dimensions whose trained range was expanded.
        dims_expanded: usize,
        /// RMSE% against the log after retraining.
        rmse_pct_after: f64,
    },
    /// The federation planner ranked candidate systems for a query.
    PlanRanked {
        /// Systems in ranked order, cheapest first.
        ranking: Vec<String>,
        /// Chosen system.
        chosen: String,
        /// Total cost of the chosen placement, seconds.
        total_secs: f64,
    },
    /// The drift monitor flagged a model as drifted.
    DriftFlagged {
        /// Model key (display form, e.g. `"hive-a/join"`).
        model: String,
        /// Rolling RMSE% over the window.
        rmse_pct: f64,
        /// Mean Q-error over the window.
        mean_q_error: f64,
    },
    /// A typed alert raised by the runtime observability plane (SLO
    /// burn, drift breach). Alerts are *actionable* — downstream
    /// consumers route them to paging or automated remediation, so
    /// they carry structured payloads instead of prose.
    Alert(AlertEvent),
}

/// The payload of an [`Event::Alert`].
#[derive(Debug, Clone, PartialEq)]
pub enum AlertEvent {
    /// Both SLO burn-rate windows crossed the alerting threshold.
    SloBurn {
        /// The SLO's target latency in microseconds.
        target_us: f64,
        /// Burn rate over the short window.
        short_burn: f64,
        /// Burn rate over the long window.
        long_burn: f64,
        /// The threshold both windows crossed.
        threshold: f64,
    },
    /// A drift-monitor breach recommending a retune of one model.
    DriftBreach {
        /// Model key (display form, e.g. `"hive-a/join"`).
        model: String,
        /// Rolling RMSE% over the drift window.
        rmse_pct: f64,
        /// Mean Q-error over the drift window.
        mean_q_error: f64,
    },
}

impl Event {
    /// A short kind tag for filtering (e.g. `"remedy_blend"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EstimateServed { .. } => "estimate_served",
            Event::PivotsDetected { .. } => "pivots_detected",
            Event::RemedyBlend { .. } => "remedy_blend",
            Event::ActualObserved { .. } => "actual_observed",
            Event::AlphaAdjusted { .. } => "alpha_adjusted",
            Event::TuningPass { .. } => "tuning_pass",
            Event::PlanRanked { .. } => "plan_ranked",
            Event::DriftFlagged { .. } => "drift_flagged",
            Event::Alert(..) => "alert",
        }
    }
}

/// A sink for traced events. Implementations must be cheap and
/// thread-safe; they are called inline from instrumented code.
pub trait Subscriber: Send + Sync {
    /// Receives one event.
    fn on_event(&self, event: Event);
}

/// The handle instrumented code holds. Disabled by default; cloning
/// shares the subscriber.
#[derive(Clone, Default)]
pub struct Tracer {
    subscriber: Option<Arc<dyn Subscriber>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer routing events to `subscriber`.
    pub fn new(subscriber: Arc<dyn Subscriber>) -> Self {
        Tracer {
            subscriber: Some(subscriber),
        }
    }

    /// Whether a subscriber is attached.
    pub fn is_enabled(&self) -> bool {
        self.subscriber.is_some()
    }

    /// Emits the event built by `f` — but only if a subscriber is
    /// attached. The closure is never invoked on a disabled tracer, so
    /// event construction (and its allocations) costs nothing when
    /// tracing is off.
    pub fn emit<F: FnOnce() -> Event>(&self, f: F) {
        if let Some(sub) = &self.subscriber {
            sub.on_event(f());
        }
    }
}

/// An unbounded collector that keeps every event. Intended for tests
/// and short diagnostic sessions.
pub struct VecSubscriber {
    events: Mutex<Vec<Event>>,
}

impl Default for VecSubscriber {
    fn default() -> Self {
        let events = Mutex::new(Vec::new());
        // Subscriber buffers are the innermost locks the estimation
        // path touches (emit under a shard guard), hence the top rank.
        events.set_rank(parking_lot::rank::TRACE_SUBSCRIBER);
        VecSubscriber { events }
    }
}

impl VecSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        VecSubscriber::default()
    }

    /// Number of events collected so far.
    pub(crate) fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all collected events, in arrival order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Removes and returns all collected events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl Subscriber for VecSubscriber {
    fn on_event(&self, event: Event) {
        self.events.lock().push(event);
    }
}

#[cfg(test)]
#[expect(clippy::unreachable, reason = "test: the closure must never run")]
#[expect(
    clippy::disallowed_methods,
    reason = "test: concurrency tests spawn scoped threads"
)]
mod tests {
    use super::*;

    fn flagged(model: &str, rmse_pct: f64) -> Event {
        Event::DriftFlagged {
            model: model.to_string(),
            rmse_pct,
            mean_q_error: 1.0,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::default();
        assert!(!t.is_enabled());
        t.emit(|| unreachable!("closure must not run"));
    }

    #[test]
    fn vec_subscriber_collects_in_order() {
        let sub = Arc::new(VecSubscriber::new());
        let t = Tracer::new(sub.clone());
        assert!(t.is_enabled());
        t.emit(|| flagged("a", 1.0));
        t.emit(|| flagged("b", 2.0));
        assert_eq!(sub.len(), 2);
        let events = sub.take();
        assert_eq!(events[0], flagged("a", 1.0));
        assert_eq!(events[1], flagged("b", 2.0));
        assert!(sub.is_empty());
    }

    #[test]
    fn event_kinds_are_stable() {
        let e = Event::RemedyBlend {
            system: "hive-a".into(),
            operator: "join".into(),
            alpha: 0.5,
            nn_estimate: 1.0,
            regression_estimate: 2.0,
            blended: 1.5,
        };
        assert_eq!(e.kind(), "remedy_blend");
    }

    #[test]
    fn subscribers_are_thread_safe() {
        let sub = Arc::new(VecSubscriber::new());
        let t = Tracer::new(sub.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        t.emit(|| flagged("p", i as f64));
                    }
                });
            }
        });
        assert_eq!(sub.len(), 400);
    }
}
