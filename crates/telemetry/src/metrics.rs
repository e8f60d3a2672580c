//! The lock-cheap metrics registry.
//!
//! Metrics are identified by a name plus a sorted label set. Creation
//! (or lookup) takes the registry's mutex once; the returned handle is
//! an `Arc` over plain atomics, so the instrumented hot path — the
//! estimation service answering a planner thread — pays one relaxed
//! atomic operation per increment and allocates nothing.
//!
//! Exposition follows the Prometheus text format
//! ([`MetricsRegistry::render_prometheus`]); tests and in-process
//! consumers use [`MetricsRegistry::snapshot`] instead, which hands the
//! same numbers back as plain maps.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A metric's identity: name plus canonical (sorted) label pairs.
pub(crate) type MetricId = (String, Vec<(String, String)>);

fn metric_id(name: &str, labels: &[(&str, &str)]) -> MetricId {
    assert!(valid_metric_name(name), "invalid metric name `{name}`");
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (test/bench bookkeeping, not a Prometheus
    /// operation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing. An
    /// implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per finite bound plus the overflow (`+Inf`) bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observations, as `f64` bits.
    sum_bits: AtomicU64,
    /// Total observations.
    count: AtomicU64,
}

/// A fixed-bucket histogram with Prometheus `le` (≤) semantics: an
/// observation lands in the first bucket whose upper bound is ≥ the
/// value; anything above the last bound lands in the `+Inf` overflow
/// bucket, and anything below the first bound still counts toward the
/// first bucket (the "underflow" values are simply small).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| matches!(w, [a, b] if a < b)),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &*self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        if let Some(bucket) = core.counts.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time copy of the histogram's state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        HistogramSnapshot {
            bounds: core.bounds.clone(),
            counts: core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
            count: core.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative counts in Prometheus `le` form, ending with `+Inf`.
    pub(crate) fn cumulative(&self) -> Vec<u64> {
        let mut total = 0;
        self.counts
            .iter()
            .map(|&c| {
                total += c;
                total
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct RegistryInner {
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        let inner = RegistryInner {
            metrics: Mutex::new(BTreeMap::new()),
            help: Mutex::new(BTreeMap::new()),
        };
        // Ranks for `lock-order-check` builds: exposition takes
        // metrics → help (render_prometheus), never the reverse.
        inner.metrics.set_rank(parking_lot::rank::REGISTRY_METRICS);
        inner.help.set_rank(parking_lot::rank::REGISTRY_HELP);
        inner
    }
}

/// A shared registry of named metrics.
///
/// Clones share state. Handle lookup takes the registry mutex; the
/// returned handles do not, so resolve them once outside any hot loop.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.inner.metrics.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    /// Panics if the id already names a different metric type, or on an
    /// invalid metric name.
    #[expect(
        clippy::panic,
        reason = "documented # Panics: one id registered as two metric types is a programming error"
    )]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = metric_id(name, labels);
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    ///
    /// # Panics
    /// Panics if the id already names a different metric type, or on an
    /// invalid metric name.
    #[expect(
        clippy::panic,
        reason = "documented # Panics: one id registered as two metric types is a programming error"
    )]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = metric_id(name, labels);
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the histogram `name{labels}` with the given
    /// finite bucket bounds (an `+Inf` bucket is implicit).
    ///
    /// # Panics
    /// Panics on an invalid name, non-increasing bounds, or if the id
    /// already names a different metric type.
    #[expect(
        clippy::panic,
        reason = "documented # Panics: one id registered as two metric types is a programming error"
    )]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let id = metric_id(name, labels);
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Attaches Prometheus `# HELP` text to a metric name.
    pub fn set_help(&self, name: &str, help: &str) {
        self.inner
            .help
            .lock()
            .insert(name.to_string(), help.to_string());
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.inner.metrics.lock();
        let mut snap = MetricsSnapshot::default();
        for (id, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(id.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(id.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(id.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per metric name,
    /// then one `name{labels} value` sample per series; histograms
    /// expand to cumulative `_bucket{le=...}` samples plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.inner.metrics.lock();
        let help = self.inner.help.lock();
        let mut out = String::new();
        let mut last_name = None::<&str>;
        for ((name, labels), metric) in metrics.iter() {
            if last_name != Some(name.as_str()) {
                if let Some(h) = help.get(name) {
                    out.push_str(&format!("# HELP {name} {h}\n"));
                }
                let ty = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {name} {ty}\n"));
                last_name = Some(name.as_str());
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name}{} {}\n", render_labels(labels), c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(labels),
                        render_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let cumulative = snap.cumulative();
                    for (i, cum) in cumulative.iter().enumerate() {
                        let le = match snap.bounds.get(i) {
                            Some(&b) => render_f64(b),
                            None => "+Inf".to_string(),
                        };
                        let mut ls = labels.clone();
                        ls.push(("le".to_string(), le));
                        ls.sort();
                        out.push_str(&format!("{name}_bucket{} {cum}\n", render_labels(&ls)));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        render_labels(labels),
                        render_f64(snap.sum)
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        render_labels(labels),
                        snap.count
                    ));
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    // Prometheus text format escapes backslash, double quote, and
    // line feed in label values (backslash first, or the others'
    // escapes would be re-escaped).
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn render_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// A point-in-time copy of a whole registry, keyed like the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<MetricId, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<MetricId, f64>,
    /// Histogram states.
    pub histograms: BTreeMap<MetricId, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter `name{labels}`, if registered.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&metric_id(name, labels)).copied()
    }

    /// The gauge `name{labels}`, if registered.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&metric_id(name, labels)).copied()
    }

    /// The histogram `name{labels}`, if registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms.get(&metric_id(name, labels))
    }
}

/// Pre-resolved handles for the federation planner's counters.
///
/// Handle lookup takes the registry mutex, so the planning path must
/// not call [`MetricsRegistry::counter`] per plan — these are resolved
/// once at [`crate::Telemetry`] construction and incremented lock-free
/// from `plan_query_with_service_pinned`.
#[derive(Clone)]
pub struct PlannerCounters {
    /// `federation_plans_total` — plans attempted.
    pub plans: Counter,
    /// `federation_placements_costed_total` — placements costed.
    pub costed: Counter,
    /// `federation_placements_skipped_total` — placements skipped
    /// because a system could not cost the plan shape.
    pub skipped: Counter,
}

impl PlannerCounters {
    /// Resolves (registering on first use) the planner counters.
    pub fn register(registry: &MetricsRegistry) -> PlannerCounters {
        PlannerCounters {
            plans: registry.counter("federation_plans_total", &[]),
            costed: registry.counter("federation_placements_costed_total", &[]),
            skipped: registry.counter("federation_placements_skipped_total", &[]),
        }
    }
}

/// Pre-resolved handles for the workload scheduler's counters.
///
/// Same discipline as [`PlannerCounters`]: resolved once at
/// [`crate::Telemetry`] construction, incremented lock-free from the
/// federation's physical layer (`plan_workload_pinned`).
#[derive(Clone)]
pub struct SchedulerCounters {
    /// `federation_workloads_total` — workloads planned end to end.
    pub workloads: Counter,
    /// `federation_workload_queries_scheduled_total` — queries actually
    /// dispatched (executing nodes).
    pub scheduled: Counter,
    /// `federation_workload_queries_merged_total` — queries collapsed
    /// onto an equivalent node by the reuse rule.
    pub merged: Counter,
    /// `federation_workload_scans_shared_total` — scan transfers
    /// deduplicated by shared-scan mode.
    pub shared_scans: Counter,
    /// `federation_workload_waves_total` — dispatch waves executed.
    pub waves: Counter,
    /// `federation_workload_pinned_moves_total` — placement moves
    /// accepted by the pinning rule.
    pub pinned_moves: Counter,
}

impl SchedulerCounters {
    /// Resolves (registering on first use) the scheduler counters.
    pub fn register(registry: &MetricsRegistry) -> SchedulerCounters {
        SchedulerCounters {
            workloads: registry.counter("federation_workloads_total", &[]),
            scheduled: registry.counter("federation_workload_queries_scheduled_total", &[]),
            merged: registry.counter("federation_workload_queries_merged_total", &[]),
            shared_scans: registry.counter("federation_workload_scans_shared_total", &[]),
            waves: registry.counter("federation_workload_waves_total", &[]),
            pinned_moves: registry.counter("federation_workload_pinned_moves_total", &[]),
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test: concurrency tests spawn scoped threads"
)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_and_reset() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("requests_total", &[("system", "hive")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same id resolves to the same underlying atomic.
        let again = reg.counter("requests_total", &[("system", "hive")]);
        again.inc();
        assert_eq!(c.get(), 6);
        c.reset();
        assert_eq!(again.get(), 0);
    }

    #[test]
    fn label_order_is_canonicalised() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("m_total", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("m_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauges_set_and_get() {
        let reg = MetricsRegistry::default();
        let g = reg.gauge("alpha", &[]);
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
        g.set(0.75);
        assert_eq!(reg.gauge("alpha", &[]).get(), 0.75);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::default();
        let _ = reg.counter("x_total", &[]);
        let _ = reg.gauge("x_total", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_rejected() {
        let reg = MetricsRegistry::default();
        let _ = reg.counter("9starts_with_digit", &[]);
    }

    #[test]
    fn histogram_bucketing_underflow_overflow_and_exact_boundaries() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("lat_secs", &[], &[1.0, 5.0, 10.0]);
        // Underflow: below the first bound still lands in bucket 0.
        h.observe(0.001);
        h.observe(-3.0);
        // Exact boundary values are inclusive (`le` semantics).
        h.observe(1.0);
        h.observe(5.0);
        h.observe(10.0);
        // Interior.
        h.observe(2.0);
        // Overflow → +Inf bucket.
        h.observe(10.000001);
        h.observe(1e12);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![3, 2, 1, 2]);
        assert_eq!(s.count, 8);
        assert_eq!(s.cumulative(), vec![3, 5, 6, 8]);
        let expect_sum = 0.001 - 3.0 + 1.0 + 5.0 + 10.0 + 2.0 + 10.000001 + 1e12;
        assert!((s.sum - expect_sum).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_bounds_must_increase() {
        let reg = MetricsRegistry::default();
        let _ = reg.histogram("bad", &[], &[1.0, 1.0]);
    }

    #[test]
    fn concurrent_counter_increments_match_serial_total_exactly() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("contended_total", &[]);
        let h = reg.histogram("contended_secs", &[], &[0.5, 1.0]);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe(((t as u64 + i) % 3) as f64 * 0.5);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        let s = h.snapshot();
        assert_eq!(s.count, THREADS as u64 * PER_THREAD);
        assert_eq!(s.counts.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn snapshot_reflects_registry_contents() {
        let reg = MetricsRegistry::default();
        reg.counter("c_total", &[("k", "v")]).add(7);
        reg.gauge("g", &[]).set(1.5);
        reg.histogram("h_secs", &[], &[1.0]).observe(0.4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total", &[("k", "v")]), Some(7));
        assert_eq!(snap.gauge("g", &[]), Some(1.5));
        let h = snap.histogram("h_secs", &[]).unwrap();
        assert_eq!((h.count, h.counts[0]), (1, 1));
        assert_eq!(snap.counter("missing", &[]), None);
    }

    /// A minimal Prometheus text-format validator: every non-comment
    /// line must be `name{labels} value`, histogram buckets must be
    /// cumulative, and `_count` must equal the `+Inf` bucket.
    fn assert_valid_prometheus(text: &str) {
        let mut bucket_last: Option<(String, u64)> = None;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
            assert!(!series.is_empty());
            let name_part = series.split('{').next().unwrap();
            assert!(valid_metric_name(name_part), "bad name in {line}");
            if series.contains('{') {
                assert!(series.ends_with('}'), "unbalanced labels in {line}");
            }
            assert!(
                value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok(),
                "bad value in {line}"
            );
            if name_part.ends_with("_bucket") {
                let v: u64 = value.parse().expect("bucket counts are integers");
                if let Some((prev_name, prev)) = &bucket_last {
                    if prev_name == name_part {
                        assert!(v >= *prev, "non-cumulative buckets in {line}");
                    }
                }
                bucket_last = Some((name_part.to_string(), v));
            }
        }
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = MetricsRegistry::default();
        reg.set_help("requests_total", "Requests served.");
        reg.counter("requests_total", &[("system", "hive-a"), ("op", "join")])
            .add(3);
        reg.counter("requests_total", &[("system", "presto"), ("op", "agg")])
            .add(1);
        reg.gauge("model_rmse_pct", &[("system", "hive-a")])
            .set(12.5);
        let h = reg.histogram("estimate_secs", &[], &[0.1, 1.0, 10.0]);
        h.observe(0.05);
        h.observe(5.0);
        h.observe(50.0);
        let text = reg.render_prometheus();
        assert_valid_prometheus(&text);
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("# HELP requests_total Requests served."));
        assert!(text.contains("requests_total{op=\"join\",system=\"hive-a\"} 3"));
        assert!(text.contains("estimate_secs_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("estimate_secs_count 3"));
        assert!(text.contains("estimate_secs_sum 55.05"));
    }

    #[test]
    fn label_values_escape_backslashes_quotes_and_newlines() {
        let reg = MetricsRegistry::default();
        reg.counter("weird_total", &[("path", "a\\b")]).inc();
        reg.counter("weird_total", &[("path", "say \"hi\"")]).inc();
        reg.counter("weird_total", &[("path", "line1\nline2")])
            .inc();
        reg.counter("weird_total", &[("path", "mix\\\"\n")]).inc();
        let text = reg.render_prometheus();
        assert_valid_prometheus(&text);
        assert!(text.contains(r#"weird_total{path="a\\b"} 1"#));
        assert!(text.contains(r#"weird_total{path="say \"hi\""} 1"#));
        assert!(text.contains(r#"weird_total{path="line1\nline2"} 1"#));
        assert!(text.contains(r#"weird_total{path="mix\\\"\n"} 1"#));
        // The escaping keeps one sample per line: a raw newline in a
        // label value must never split a series across lines.
        for line in text.lines() {
            if line.starts_with("weird_total") {
                assert!(line.ends_with(" 1"), "split sample: {line}");
            }
        }
    }

    #[test]
    fn empty_histogram_renders_complete_zeroed_buckets() {
        let reg = MetricsRegistry::default();
        reg.histogram("idle_secs", &[("system", "hive")], &[0.5, 2.0]);
        let text = reg.render_prometheus();
        assert_valid_prometheus(&text);
        assert!(text.contains("idle_secs_bucket{le=\"0.5\",system=\"hive\"} 0"));
        assert!(text.contains("idle_secs_bucket{le=\"2\",system=\"hive\"} 0"));
        assert!(text.contains("idle_secs_bucket{le=\"+Inf\",system=\"hive\"} 0"));
        assert!(text.contains("idle_secs_sum{system=\"hive\"} 0"));
        assert!(text.contains("idle_secs_count{system=\"hive\"} 0"));
    }

    #[test]
    fn rendering_order_is_stable_across_snapshots_and_interleaved_writes() {
        let build = |interleaved: bool| {
            let reg = MetricsRegistry::default();
            if interleaved {
                reg.gauge("z_gauge", &[]).set(1.0);
                reg.counter("a_total", &[("op", "join")]).inc();
                reg.counter("a_total", &[("op", "agg")]).inc();
            } else {
                reg.counter("a_total", &[("op", "agg")]).inc();
                reg.counter("a_total", &[("op", "join")]).inc();
                reg.gauge("z_gauge", &[]).set(1.0);
            }
            reg
        };
        let reg = build(false);
        let first = reg.render_prometheus();
        // Rendering twice is byte-identical (no map iteration jitter)…
        assert_eq!(first, reg.render_prometheus());
        // …and registration order does not leak into the exposition.
        assert_eq!(first, build(true).render_prometheus());
        // Touching values between renders preserves series order.
        reg.counter("a_total", &[("op", "agg")]).add(5);
        let again = reg.render_prometheus();
        let series = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .map(|l| l.rsplit_once(' ').map(|(s, _)| s.to_string()).unwrap())
                .collect()
        };
        assert_eq!(series(&first), series(&again));
        let snap_before = reg.snapshot();
        assert_eq!(snap_before, reg.snapshot(), "snapshots are stable too");
    }
}
