//! Shared quantile estimation.
//!
//! Three different parts of the workspace report latency percentiles —
//! the epoch-churn bench, the serving front-end experiment, and the
//! load generator — and each used to be one hand-rolled `percentile`
//! away from an off-by-one or a NaN-ordering bug. This module is the
//! single implementation they all share:
//!
//! * [`nearest_rank`] — the exact nearest-rank percentile of an
//!   ascending-sorted sample (what the paper-style tables report);
//! * [`exact_quantiles`] — sorts a sample NaN-safely (non-finite values
//!   are discarded, not propagated) and reads several ranks at once;
//! * [`QuantileSketch`] — a streaming, geometrically-bucketed histogram
//!   for runs too long to keep every sample (millions of simulated
//!   users), with a bounded relative error per quantile.
//!
//! Everything here is NaN-free by construction: sorting goes through
//! [`crate::total_cmp_f64`] and the sketch drops non-finite
//! observations (counting them, so callers can assert none occurred).

use crate::total_cmp_f64;

/// Exact nearest-rank percentile of an **ascending-sorted** sample.
///
/// `q` is a fraction in `[0, 1]`; out-of-range values are clamped. An
/// empty sample yields `0.0` (the historical behaviour of the bench
/// experiments this replaces — absent data reads as "no latency", and
/// callers that care assert non-emptiness themselves).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(idx).copied().unwrap_or(last)
}

/// Sorts `samples` (dropping non-finite values) and returns the exact
/// nearest-rank quantile for each requested fraction, in order.
pub fn exact_quantiles(samples: &[f64], qs: &[f64]) -> Vec<f64> {
    let mut finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    finite.sort_by(total_cmp_f64);
    qs.iter().map(|&q| nearest_rank(&finite, q)).collect()
}

/// A streaming quantile estimator over geometrically-spaced buckets.
///
/// Values in `[floor, ∞)` land in bucket `⌊log_growth(v / floor)⌋`; a
/// quantile is reported as the geometric midpoint of the bucket holding
/// the target rank, so the relative error of any reported quantile is
/// bounded by the growth factor (≈ `(growth − 1) / 2` each way).
/// Values below `floor` are clamped into the first bucket — pick
/// `floor` below the smallest latency you care to resolve. Non-finite
/// and negative observations are discarded.
///
/// Memory is `O(log(max / floor) / log(growth))` — 460 buckets cover
/// 1 µs … 100 s at 4 % growth — so a sweep can record tens of millions
/// of latencies without keeping them.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    floor: f64,
    ln_growth: f64,
    growth: f64,
    counts: Vec<u64>,
    total: u64,
    discarded: u64,
    min_seen: f64,
    max_seen: f64,
}

impl QuantileSketch {
    /// A sketch resolving `[floor, cap]` with the given bucket growth
    /// factor (e.g. `1.04` for ±2 % quantile error). `floor` and `cap`
    /// must be positive with `floor < cap`, and `growth > 1`; degenerate
    /// arguments are clamped to a sane single-decade sketch rather than
    /// panicking (this type sits on the measurement path of benches that
    /// must not die mid-sweep).
    pub(crate) fn new(floor: f64, cap: f64, growth: f64) -> Self {
        let floor = if floor.is_finite() && floor > 0.0 {
            floor
        } else {
            1e-9
        };
        let cap = if cap.is_finite() && cap > floor {
            cap
        } else {
            floor * 10.0
        };
        let growth = if growth.is_finite() && growth > 1.0 {
            growth
        } else {
            1.04
        };
        let ln_growth = growth.ln();
        let buckets = ((cap / floor).ln() / ln_growth).ceil() as usize + 1;
        QuantileSketch {
            floor,
            ln_growth,
            growth,
            counts: vec![0; buckets],
            total: 0,
            discarded: 0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// A sketch sized for microsecond-scale latencies: 0.1 µs … 60 s at
    /// ±2 % quantile error (values recorded in microseconds).
    pub fn for_latency_us() -> Self {
        QuantileSketch::new(0.1, 60.0e6, 1.04)
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.floor {
            return 0;
        }
        let idx = ((v / self.floor).ln() / self.ln_growth) as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Records one observation. Non-finite or negative values are
    /// discarded.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.discarded += 1;
            return;
        }
        let b = self.bucket_of(v);
        if let Some(count) = self.counts.get_mut(b) {
            *count += 1;
        }
        self.total += 1;
        if v < self.min_seen {
            self.min_seen = v;
        }
        if v > self.max_seen {
            self.max_seen = v;
        }
    }

    /// The estimated `q`-quantile (`q ∈ [0, 1]`, clamped): the geometric
    /// midpoint of the bucket containing the nearest-rank sample,
    /// tightened by the exact observed min/max at the distribution's
    /// edges. Returns `0.0` on an empty sketch, mirroring
    /// [`nearest_rank`].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank index over the stream, 0-based.
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let lo = self.floor * self.growth.powi(b as i32);
                let hi = lo * self.growth;
                let mid = (lo * hi).sqrt();
                // The true value can never lie outside the observed
                // envelope; clamping sharpens the edge quantiles (and
                // makes a single-value sketch exact).
                return mid.clamp(self.min_seen, self.max_seen);
            }
        }
        self.max_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_empty_is_zero() {
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn nearest_rank_single_sample_is_that_sample_at_every_q() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[42.0], q), 42.0);
        }
    }

    #[test]
    fn nearest_rank_reads_exact_ranks() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 0.5), 51.0); // round(99 * 0.5) = 50
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        // Out-of-range fractions clamp instead of indexing out of bounds.
        assert_eq!(nearest_rank(&sorted, -3.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 7.0), 100.0);
    }

    #[test]
    fn nearest_rank_handles_ties() {
        let sorted = [5.0, 5.0, 5.0, 5.0, 9.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 5.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 9.0);
    }

    #[test]
    fn exact_quantiles_discards_non_finite_and_sorts() {
        let samples = [3.0, f64::NAN, 1.0, f64::INFINITY, 2.0];
        let qs = exact_quantiles(&samples, &[0.0, 0.5, 1.0]);
        assert_eq!(qs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn sketch_is_empty_safe_and_discards_garbage() {
        let mut s = QuantileSketch::for_latency_us();
        assert_eq!(s.quantile(0.5), 0.0);
        s.observe(f64::NAN);
        s.observe(-1.0);
        s.observe(f64::INFINITY);
        assert_eq!(s.total, 0);
        assert_eq!(s.discarded, 3);
    }

    #[test]
    fn sketch_single_value_is_exact() {
        let mut s = QuantileSketch::for_latency_us();
        s.observe(123.4);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 123.4);
        }
    }

    #[test]
    fn sketch_matches_exact_sort_within_relative_tolerance() {
        // A deterministic heavy-tailed sample: the shape latency sweeps
        // actually produce (many fast, few slow).
        let mut samples = Vec::new();
        let mut x = 7u64;
        for _ in 0..50_000 {
            // xorshift, mapped to [1, ~1e5) with a long tail.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x % 1_000_000) as f64 / 1_000_000.0;
            samples.push(1.0 + 2e4 * u * u * u);
        }
        let mut sketch = QuantileSketch::for_latency_us();
        for &v in &samples {
            sketch.observe(v);
        }
        let qs = [0.5, 0.9, 0.99, 0.999];
        let exact = exact_quantiles(&samples, &qs);
        for (&q, &e) in qs.iter().zip(&exact) {
            let approx = sketch.quantile(q);
            let rel = (approx - e).abs() / e;
            assert!(
                rel < 0.05,
                "q={q}: sketch {approx} vs exact {e} (rel err {rel})"
            );
        }
        assert_eq!(sketch.total, samples.len() as u64);
        assert_eq!(sketch.discarded, 0);
    }

    #[test]
    fn sketch_degenerate_config_is_clamped_not_fatal() {
        let mut s = QuantileSketch::new(-1.0, f64::NAN, 0.5);
        s.observe(5.0);
        assert!(s.quantile(0.5) > 0.0);
    }

    #[test]
    fn sketch_values_below_floor_clamp_into_first_bucket() {
        let mut s = QuantileSketch::new(1.0, 1000.0, 1.1);
        s.observe(0.0001);
        s.observe(0.5);
        assert_eq!(s.total, 2);
        let q = s.quantile(0.5);
        assert!(q <= 1.0, "clamped values report at/below the floor: {q}");
    }
}
