//! Summary statistics: medians, quartiles, the tail-percentile picker,
//! and a fixed-size latency histogram.

/// Median of a sample (mean of the two middle values for even sizes).
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so `repeat` and `compare` judge
/// spreads the way the acceptance rule does. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The percentiles a tail metric may report, in tenths of a percent.
const TAIL_CANDIDATES: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it; the median when the sample supports nothing higher.
pub fn pick_tail_percentile(samples: usize) -> f64 {
    // In whole numbers: `1.0 - 0.9` is a hair under a tenth in floats.
    let supported = |p: &usize| samples * (1000 - p) >= 10 * 1000;
    let best = TAIL_CANDIDATES.iter().copied().filter(supported).max();
    best.unwrap_or(500) as f64 / 10.0
}

/// A tail reading: which percentile the sample supported, its value,
/// and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile picked by [`pick_tail_percentile`].
    pub percentile: f64,
    /// The sample's value at that percentile.
    pub value: f64,
    /// Samples in the sample.
    pub samples: usize,
}

/// Nearest-rank percentile of a sample; `NaN` when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a sample at the highest percentile it supports.
pub fn tail(values: &[f64]) -> Tail {
    let pct = pick_tail_percentile(values.len());
    Tail {
        percentile: pct,
        value: percentile(values, pct),
        samples: values.len(),
    }
}

/// Sub-buckets per power of two: bucket width is under 1.6% of the value.
const SUB_BUCKETS: usize = 64;
/// Powers of two covered: 1 ns up to about 18 minutes.
const OCTAVES: usize = 40;

/// A log-linear latency histogram of fixed size. The measured loops
/// record into this and not into a growing sample vector, so that a
/// faster program (more samples per second) does not read as a larger
/// `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; SUB_BUCKETS * OCTAVES],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = 63 - ns.leading_zeros() as usize;
        if octave < 6 {
            // Values under 64 ns get one bucket each.
            return ns as usize;
        }
        let sub = ((ns >> (octave - 6)) & 63) as usize;
        ((octave - 5) * SUB_BUCKETS + sub).min(SUB_BUCKETS * OCTAVES - 1)
    }

    /// Lower edge and width, in ns, of a bucket.
    fn edges(bucket: usize) -> (f64, f64) {
        if bucket < SUB_BUCKETS {
            return (bucket as f64, 1.0);
        }
        let octave = bucket / SUB_BUCKETS + 5;
        let sub = (bucket % SUB_BUCKETS) as u64;
        let width = 1u64 << (octave - 6);
        (((1u64 << octave) + sub * width) as f64, width as f64)
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Latencies recorded so far.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Adds another histogram's samples to this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The latency in ns at percentile `pct`, interpolated inside the
    /// bucket by rank; `NaN` when empty.
    pub fn percentile_ns(&self, pct: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let target = (pct / 100.0 * self.total as f64).max(1.0);
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = f64::from(c);
            if c > 0.0 && seen + c >= target {
                let (lo, width) = Self::edges(i);
                return lo + width * (target - seen) / c;
            }
            seen += c;
        }
        f64::NAN
    }

    /// Samples at or below `ns`, to the width of the bucket `ns` is in.
    pub fn count_up_to(&self, ns: u64) -> u64 {
        let counts = &self.counts[..=Self::bucket(ns)];
        counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// The tail at the highest percentile the sample supports.
    pub fn tail_ns(&self) -> Tail {
        let pct = pick_tail_percentile(self.total as usize);
        Tail {
            percentile: pct,
            value: self.percentile_ns(pct),
            samples: self.total as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(pick_tail_percentile(0), 50.0);
        assert_eq!(pick_tail_percentile(19), 50.0);
        assert_eq!(pick_tail_percentile(20), 50.0);
        assert_eq!(pick_tail_percentile(40), 75.0);
        assert_eq!(pick_tail_percentile(100), 90.0);
        assert_eq!(pick_tail_percentile(199), 90.0);
        assert_eq!(pick_tail_percentile(200), 95.0);
        assert_eq!(pick_tail_percentile(999), 95.0);
        assert_eq!(pick_tail_percentile(1_000), 99.0);
        assert_eq!(pick_tail_percentile(9_999), 99.0);
        assert_eq!(pick_tail_percentile(10_000), 99.9);
    }

    #[test]
    fn tail_reports_percentile_and_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_percentiles_stay_within_bucket_width() {
        let mut h = Histogram::default();
        for ns in (1..=100_000u64).map(|i| i * 10) {
            h.record(ns);
        }
        assert_eq!(h.tail_ns().samples, 100_000);
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.tail_ns().samples, 200_000);
        assert_eq!(twice.percentile_ns(50.0), h.percentile_ns(50.0));
        for (pct, exact) in [(50.0, 500_000.0), (99.0, 990_000.0), (1.0, 10_000.0)] {
            let got = h.percentile_ns(pct);
            assert!(
                (got - exact).abs() / exact < 0.02,
                "p{pct}: {got} vs {exact}"
            );
        }
        assert!(Histogram::default().percentile_ns(50.0).is_nan());
        assert_eq!(h.count_up_to(0), 0);
        assert_eq!(h.count_up_to(u64::MAX), 100_000);
        let half = h.count_up_to(500_000) as f64;
        assert!((half - 50_000.0).abs() / 50_000.0 < 0.02, "{half}");
    }
}
