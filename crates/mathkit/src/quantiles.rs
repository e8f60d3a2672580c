//! Shared quantile estimation.
//!
//! Every latency percentile the workspace reports — the gated `exp_*`
//! experiments through `bench::harness::summarize` — is an exact
//! nearest-rank read of an ascending-sorted sample, taken here once so
//! no caller is one hand-rolled `percentile` away from an off-by-one.
//! Callers sort with [`crate::total_cmp_f64`], which orders NaN after
//! +∞ instead of panicking.

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
}
