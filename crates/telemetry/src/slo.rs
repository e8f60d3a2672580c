//! Runtime SLO tracking: error-budget burn-rate over two windows.
//!
//! A served estimate is *good* when it succeeds within the target
//! latency. The SLO allows a budgeted fraction of bad requests; the
//! **burn rate** is how fast that budget is being consumed — a burn of
//! 1.0 spends exactly the budget, 10.0 exhausts it ten times over. The
//! classic multi-window rule alerts only when **both** a short window
//! (fast signal, noisy) and a long window (slow signal, stable) burn
//! above the threshold, which filters out blips without missing real
//! regressions.
//!
//! [`SloEngine`] is fed every response (`record`), not just sampled
//! ones — burn rates need the full population. Time is always supplied
//! by the caller (the serving clock), never read ambiently, so replays
//! under a manual clock are deterministic. State is a fixed ring of
//! good/bad buckets sized at construction; recording allocates nothing.
//!
//! Each record updates the `slo_burn_rate{window=…}` gauge family; a
//! fired alert is returned to the caller as a [`BurnAlert`] and
//! increments `slo_alerts_total`.

use crate::metrics::{Counter, Gauge};
use crate::Telemetry;
use parking_lot::Mutex;

/// SLO target and alerting policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// A request slower than this (microseconds) is *bad* even when it
    /// succeeds.
    pub target_latency_us: f64,
    /// Allowed bad-request fraction (the error budget), in `(0, 1]`.
    pub error_budget: f64,
    /// Short (fast-signal) window length in microseconds.
    pub short_window_us: u64,
    /// Long (stable-signal) window length in microseconds.
    pub long_window_us: u64,
    /// Alert when both windows burn at or above this rate.
    pub burn_threshold: f64,
    /// Minimum interval between alerts, in microseconds.
    pub cooldown_us: u64,
    /// Minimum requests in the long window before alerting — keeps a
    /// cold start from paging on its first bad request.
    pub min_requests: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target_latency_us: 5_000.0,
            error_budget: 0.01,
            short_window_us: 5_000_000,
            long_window_us: 60_000_000,
            burn_threshold: 10.0,
            cooldown_us: 60_000_000,
            min_requests: 20,
        }
    }
}

/// A fired burn-rate alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// Burn rate over the short window at firing time.
    pub(crate) short_burn: f64,
    /// Burn rate over the long window at firing time.
    pub(crate) long_burn: f64,
    /// The configured threshold both windows crossed.
    pub(crate) threshold: f64,
    /// Caller-supplied timestamp of the firing request (microseconds).
    pub(crate) at_us: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    good: u64,
    bad: u64,
}

/// Ring of time buckets; the head bucket covers
/// `[head_start_us, head_start_us + bucket_us)`.
#[derive(Debug)]
struct SloState {
    bucket_us: u64,
    buckets: Vec<Bucket>,
    head: usize,
    head_start_us: u64,
    started: bool,
    last_alert_us: Option<u64>,
}

impl SloState {
    fn advance(&mut self, now_us: u64) {
        if !self.started {
            self.started = true;
            self.head_start_us = now_us;
            return;
        }
        if now_us < self.head_start_us {
            return; // a manual clock rewound; keep attributing to the head
        }
        let steps = ((now_us - self.head_start_us) / self.bucket_us) as usize;
        if steps == 0 {
            return;
        }
        let len = self.buckets.len();
        for _ in 0..steps.min(len) {
            self.head = (self.head + 1) % len;
            if let Some(b) = self.buckets.get_mut(self.head) {
                *b = Bucket::default();
            }
        }
        self.head_start_us += steps as u64 * self.bucket_us;
    }

    fn observe(&mut self, bad: bool) {
        let Some(b) = self.buckets.get_mut(self.head) else {
            return;
        };
        if bad {
            b.bad += 1;
        } else {
            b.good += 1;
        }
    }

    /// `(bad, total)` over the most recent `n` buckets.
    fn window_counts(&self, n: usize) -> (u64, u64) {
        let len = self.buckets.len();
        let (mut bad, mut total) = (0u64, 0u64);
        for i in 0..n.min(len) {
            let Some(b) = self.buckets.get((self.head + len - i) % len) else {
                continue;
            };
            bad += b.bad;
            total += b.good + b.bad;
        }
        (bad, total)
    }
}

fn burn(bad: u64, total: u64, budget: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

/// Error-budget burn tracker with multi-window alerting. Cheap to
/// record into (one short mutexed ring update plus two gauge stores);
/// cloneable via `Arc` by the embedding layer.
#[derive(Debug)]
pub struct SloEngine {
    config: SloConfig,
    short_buckets: usize,
    long_buckets: usize,
    /// Rank `SLO_STATE`: taken with nothing held.
    slo_state: Mutex<SloState>,
    short_gauge: Gauge,
    long_gauge: Gauge,
    alerts: Counter,
}

impl SloEngine {
    /// Builds an engine publishing into `telemetry`: the
    /// `slo_burn_rate{window=…}` gauge family and the `slo_alerts_total`
    /// counter.
    pub fn new(config: SloConfig, telemetry: &Telemetry) -> Self {
        assert!(
            config.error_budget > 0.0 && config.error_budget <= 1.0,
            "error budget must be in (0, 1]"
        );
        assert!(
            config.short_window_us > 0 && config.long_window_us >= config.short_window_us,
            "windows must be positive with short <= long"
        );
        // 8 buckets across the short window bounds attribution error;
        // the long window reuses the same granularity.
        let bucket_us = (config.short_window_us / 8).max(1);
        let short_buckets = config.short_window_us.div_ceil(bucket_us) as usize;
        let long_buckets = config.long_window_us.div_ceil(bucket_us) as usize;
        let reg = &telemetry.metrics;
        reg.set_help(
            "slo_burn_rate",
            "Error-budget burn rate over the labelled alerting window.",
        );
        reg.set_help(
            "slo_alerts_total",
            "Multi-window SLO burn-rate alerts fired.",
        );
        let slo_state = Mutex::new(SloState {
            bucket_us,
            buckets: vec![Bucket::default(); long_buckets + 1],
            head: 0,
            head_start_us: 0,
            started: false,
            last_alert_us: None,
        });
        slo_state.set_rank(parking_lot::rank::SLO_STATE);
        SloEngine {
            short_buckets,
            long_buckets,
            slo_state,
            short_gauge: reg.gauge("slo_burn_rate", &[("window", "short")]),
            long_gauge: reg.gauge("slo_burn_rate", &[("window", "long")]),
            alerts: reg.counter("slo_alerts_total", &[]),
            config,
        }
    }

    /// Records one response: `ok` is whether it succeeded, `latency_us`
    /// its end-to-end latency, `now_us` the serving clock's timestamp.
    /// Returns the alert if this record fired one.
    pub fn record(&self, now_us: u64, latency_us: f64, ok: bool) -> Option<BurnAlert> {
        let bad = !ok || latency_us > self.config.target_latency_us;
        let (short_burn, long_burn, fire) = {
            let mut state = self.slo_state.lock();
            state.advance(now_us);
            state.observe(bad);
            let (short_bad, short_total) = state.window_counts(self.short_buckets);
            let (long_bad, long_total) = state.window_counts(self.long_buckets);
            let short_burn = burn(short_bad, short_total, self.config.error_budget);
            let long_burn = burn(long_bad, long_total, self.config.error_budget);
            let mut fire = false;
            if long_total >= self.config.min_requests
                && short_burn >= self.config.burn_threshold
                && long_burn >= self.config.burn_threshold
            {
                let cooled = state.last_alert_us.map_or(true, |t| {
                    now_us.saturating_sub(t) >= self.config.cooldown_us
                });
                if cooled {
                    state.last_alert_us = Some(now_us);
                    fire = true;
                }
            }
            (short_burn, long_burn, fire)
        };
        self.short_gauge.set(short_burn);
        self.long_gauge.set(long_burn);
        if !fire {
            return None;
        }
        self.alerts.inc();
        Some(BurnAlert {
            short_burn,
            long_burn,
            threshold: self.config.burn_threshold,
            at_us: now_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(telemetry: &Telemetry) -> SloEngine {
        SloEngine::new(
            SloConfig {
                target_latency_us: 1_000.0,
                error_budget: 0.1,
                short_window_us: 1_000_000,
                long_window_us: 4_000_000,
                burn_threshold: 5.0,
                cooldown_us: 2_000_000,
                min_requests: 10,
            },
            telemetry,
        )
    }

    fn burn_rates(e: &SloEngine) -> (f64, f64) {
        (e.short_gauge.get(), e.long_gauge.get())
    }

    #[test]
    fn healthy_traffic_never_alerts() {
        let t = Telemetry::new();
        let e = engine(&t);
        for i in 0..200u64 {
            assert!(e.record(i * 10_000, 500.0, true).is_none());
        }
        let (short, long) = burn_rates(&e);
        assert_eq!((short, long), (0.0, 0.0));
        assert_eq!(e.alerts.get(), 0);
        let snap = t.metrics.snapshot();
        assert_eq!(
            snap.gauge("slo_burn_rate", &[("window", "short")]),
            Some(0.0)
        );
        assert_eq!(snap.counter("slo_alerts_total", &[]), Some(0));
    }

    #[test]
    fn sustained_breach_alerts_once_per_cooldown() {
        let t = Telemetry::new();
        let e = engine(&t);
        let mut alerts = Vec::new();
        // 100% bad traffic for 3 simulated seconds at 100 rps.
        for i in 0..300u64 {
            if let Some(a) = e.record(i * 10_000, 5_000.0, true) {
                alerts.push(a);
            }
        }
        // Burn = 1.0 / 0.1 = 10 >= 5 on both windows; the cooldown
        // (2 s) allows the initial alert plus one follow-up.
        assert_eq!(alerts.len(), 2, "cooldown must suppress repeats");
        assert!(alerts[0].short_burn >= 5.0 && alerts[0].long_burn >= 5.0);
        assert!(alerts.iter().all(|a| a.threshold == 5.0));
        assert!(alerts[1].at_us - alerts[0].at_us >= 2_000_000);
        let snap = t.metrics.snapshot();
        assert_eq!(snap.counter("slo_alerts_total", &[]), Some(2));
    }

    #[test]
    fn min_requests_gates_cold_start() {
        let t = Telemetry::new();
        let e = engine(&t);
        for i in 0..9u64 {
            assert!(
                e.record(i * 1_000, 5_000.0, false).is_none(),
                "below min_requests nothing may fire"
            );
        }
        assert!(e.record(9_000, 5_000.0, false).is_some());
    }

    #[test]
    fn short_blip_does_not_alert_through_the_long_window() {
        let t = Telemetry::new();
        let e = engine(&t);
        // 4 simulated seconds of good traffic fill the long window…
        for i in 0..400u64 {
            e.record(i * 10_000, 100.0, true);
        }
        // …then a 0.3 s blip of bad responses: the short window burns
        // hot, but the long window still holds mostly good requests.
        let mut fired = false;
        for i in 0..30u64 {
            fired |= e.record(4_000_000 + i * 10_000, 9_000.0, true).is_some();
        }
        let (short, long) = burn_rates(&e);
        assert!(short > 2.0, "short window must see the blip ({short})");
        assert!(long < 5.0, "long window must absorb it ({long})");
        assert!(!fired, "multi-window rule must suppress the blip");
    }

    #[test]
    fn errors_count_as_bad_regardless_of_latency() {
        let t = Telemetry::new();
        let e = engine(&t);
        for i in 0..20u64 {
            e.record(i * 1_000, 10.0, false);
        }
        let (short, _) = burn_rates(&e);
        assert!(short >= 5.0);
    }

    #[test]
    fn stale_buckets_age_out() {
        let t = Telemetry::new();
        let e = engine(&t);
        for i in 0..50u64 {
            e.record(i * 1_000, 9_000.0, true);
        }
        let (short_hot, _) = burn_rates(&e);
        assert!(short_hot > 0.0);
        // 10 simulated seconds later every window has rolled over.
        e.record(10_050_000, 100.0, true);
        let (short, long) = burn_rates(&e);
        assert_eq!((short, long), (0.0, 0.0));
    }
}
