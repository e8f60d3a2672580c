//! Seeded traffic generation for the serving front-end.
//!
//! The Fig. 10 workload modules describe *what* queries exist; this
//! module describes *when* they arrive and *who* sends them, so the
//! `exp_frontend` experiment and the benchmark's `estimate_serving`
//! workload can drive the serving layer with realistic traffic. Arrivals
//! are open loop ([`OpenLoopModel`]): a Poisson process at a configured
//! offered rate — inter-arrival gaps are i.i.d. exponential draws,
//! independent of how fast the server responds. This is the model that
//! exposes overload: the generator keeps offering work even when the
//! queue is full.
//!
//! Tenancy is modelled by a [`TenantMix`] — by default Zipf-skewed,
//! because production multi-tenant traffic is never uniform — and the
//! request bodies come from a [`RequestSampler`] with configurable
//! per-feature ranges. Everything is a pure function of the seed:
//! identical seeds reproduce identical schedules, which the
//! deterministic tests below pin down.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer: decorrelates derived seeds so that the arrival
/// and request-body streams of one seed are independent.
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An exponential draw with the given mean, in microseconds.
///
/// The draw is clamped to at least 1µs so schedules always advance.
fn exp_draw_us<R: Rng + ?Sized>(rng: &mut R, mean_us: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    // -mean * ln(1 - u); u < 1 strictly, so the log argument is > 0.
    let gap = -mean_us * (1.0 - u).ln();
    if gap.is_finite() && gap >= 1.0 {
        gap as u64
    } else {
        1
    }
}

/// One generated request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time in microseconds since schedule start.
    pub at_micros: u64,
    /// Issuing tenant.
    pub tenant: u64,
}

/// Relative traffic share per tenant.
///
/// Stores the cumulative weight distribution; sampling is a uniform
/// draw mapped through it by binary search.
#[derive(Debug, Clone)]
pub struct TenantMix {
    cumulative: Vec<f64>,
}

impl TenantMix {
    /// Zipf-distributed mix over `tenants` tenants with exponent
    /// `skew`: tenant `i` (0-based) gets weight `1 / (i + 1)^skew`.
    /// `skew = 0` degenerates to uniform. `tenants` is clamped to at
    /// least 1 and non-finite or negative skews are treated as 0.
    pub fn zipf(tenants: usize, skew: f64) -> TenantMix {
        let tenants = tenants.max(1);
        let skew = if skew.is_finite() && skew > 0.0 {
            skew
        } else {
            0.0
        };
        let mut cumulative = Vec::with_capacity(tenants);
        let mut total = 0.0;
        for i in 0..tenants {
            total += 1.0 / ((i + 1) as f64).powf(skew);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        TenantMix { cumulative }
    }

    /// Draw a tenant id in `0..n` for a mix over `n` tenants.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cumulative.partition_point(|&c| c < u) as u64
    }

    /// The traffic fraction assigned to `tenant`, or 0 out of range.
    #[cfg(test)]
    pub(crate) fn share(&self, tenant: usize) -> f64 {
        match tenant {
            0 => self.cumulative.first().copied().unwrap_or(0.0),
            t if t < self.cumulative.len() => self.cumulative[t] - self.cumulative[t - 1],
            _ => 0.0,
        }
    }
}

/// Open-loop (Poisson) arrival model: a fixed offered rate regardless
/// of server behaviour.
#[derive(Debug, Clone)]
pub struct OpenLoopModel {
    /// RNG seed; identical seeds reproduce identical schedules.
    pub seed: u64,
    /// Offered load in requests per second. Clamped to at least 0.001.
    pub rate_per_sec: f64,
    /// Tenant mix sampled independently per arrival.
    pub mix: TenantMix,
}

impl OpenLoopModel {
    /// An infinite, lazily generated arrival schedule. Bound it with
    /// the virtual clock: `.take_while(|a| a.at_micros < horizon)`.
    pub fn arrivals(&self) -> OpenArrivals {
        let rate = if self.rate_per_sec.is_finite() && self.rate_per_sec > 1e-3 {
            self.rate_per_sec
        } else {
            1e-3
        };
        OpenArrivals {
            rng: StdRng::seed_from_u64(mix_seed(self.seed, 0x09E7)),
            mean_gap_us: 1e6 / rate,
            clock_us: 0,
            mix: self.mix.clone(),
        }
    }
}

/// Iterator over [`OpenLoopModel`] arrivals.
#[derive(Debug, Clone)]
pub struct OpenArrivals {
    rng: StdRng,
    mean_gap_us: f64,
    clock_us: u64,
    mix: TenantMix,
}

impl Iterator for OpenArrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.clock_us = self
            .clock_us
            .saturating_add(exp_draw_us(&mut self.rng, self.mean_gap_us));
        Some(Arrival {
            at_micros: self.clock_us,
            tenant: self.mix.sample(&mut self.rng),
        })
    }
}

/// Configurable request-body sampler: draws a model slot and a feature
/// vector with each feature uniform in its configured range.
///
/// The slots are abstract indices so this crate stays independent of
/// the costing layer; the bench maps slot `i` to its i-th registered
/// `(system, operator)` pair.
#[derive(Debug, Clone)]
pub struct RequestSampler {
    rng: StdRng,
    slots: usize,
    feature_ranges: Vec<(f64, f64)>,
}

impl RequestSampler {
    /// A sampler over `slots` model slots (clamped to at least 1) with
    /// the given inclusive `(lo, hi)` range per feature. Inverted
    /// ranges are swapped; non-finite bounds collapse to 0.
    pub fn new(seed: u64, slots: usize, feature_ranges: &[(f64, f64)]) -> RequestSampler {
        let feature_ranges = feature_ranges
            .iter()
            .map(|&(lo, hi)| {
                let lo = if lo.is_finite() { lo } else { 0.0 };
                let hi = if hi.is_finite() { hi } else { 0.0 };
                if lo <= hi {
                    (lo, hi)
                } else {
                    (hi, lo)
                }
            })
            .collect();
        RequestSampler {
            rng: StdRng::seed_from_u64(mix_seed(seed, 0x5A3)),
            slots: slots.max(1),
            feature_ranges,
        }
    }

    /// Draw `(slot, features)` for the next request.
    pub fn sample(&mut self) -> (usize, Vec<f64>) {
        let slot = self.rng.gen_range(0..self.slots);
        let features = self
            .feature_ranges
            .iter()
            .map(|&(lo, hi)| self.rng.gen_range(lo..=hi))
            .collect();
        (slot, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_same_seed_same_schedule() {
        let mix = TenantMix::zipf(8, 1.0);
        let model = OpenLoopModel {
            seed: 42,
            rate_per_sec: 10_000.0,
            mix,
        };
        let a: Vec<Arrival> = model.arrivals().take(500).collect();
        let b: Vec<Arrival> = model.arrivals().take(500).collect();
        assert_eq!(a, b, "identical seeds reproduce identical schedules");

        let other = OpenLoopModel {
            seed: 43,
            ..model.clone()
        };
        let c: Vec<Arrival> = other.arrivals().take(500).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn open_loop_rate_is_approximately_honoured() {
        let model = OpenLoopModel {
            seed: 7,
            rate_per_sec: 50_000.0,
            mix: TenantMix::zipf(4, 0.0),
        };
        let n = 20_000;
        let last = model.arrivals().nth(n - 1).expect("infinite iterator");
        let elapsed_s = last.at_micros as f64 / 1e6;
        let observed = n as f64 / elapsed_s;
        assert!(
            (observed - 50_000.0).abs() / 50_000.0 < 0.05,
            "observed rate {observed:.0} rps should be within 5% of 50k"
        );
    }

    #[test]
    fn open_loop_arrivals_are_strictly_increasing() {
        let model = OpenLoopModel {
            seed: 3,
            rate_per_sec: 1_000_000.0,
            mix: TenantMix::zipf(2, 0.0),
        };
        let mut prev = 0;
        for a in model.arrivals().take(2_000) {
            assert!(a.at_micros > prev, "time always advances");
            prev = a.at_micros;
        }
    }

    #[test]
    fn zipf_mix_is_skewed_and_normalised() {
        let mix = TenantMix::zipf(16, 1.0);
        assert_eq!(mix.cumulative.len(), 16);
        let total: f64 = (0..16).map(|t| mix.share(t)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(
            mix.share(0) > 3.0 * mix.share(15),
            "tenant 0 dominates under zipf skew"
        );

        let mut rng = StdRng::seed_from_u64(77);
        let mut counts = [0u64; 16];
        for _ in 0..40_000 {
            counts[mix.sample(&mut rng) as usize] += 1;
        }
        let head = counts[0] as f64 / 40_000.0;
        assert!(
            (head - mix.share(0)).abs() < 0.02,
            "empirical head share {head:.3} tracks the analytic {:.3}",
            mix.share(0)
        );
    }

    #[test]
    fn uniform_mix_covers_all_tenants() {
        let mix = TenantMix::zipf(5, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(mix.sample(&mut rng));
        }
        assert_eq!(seen.len(), 5);
        for t in 0..5 {
            assert!((mix.share(t) - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn request_sampler_is_deterministic_and_in_range() {
        let ranges = [(10.0, 1e7), (40.0, 1000.0)];
        let mut a = RequestSampler::new(13, 4, &ranges);
        let mut b = RequestSampler::new(13, 4, &ranges);
        for _ in 0..200 {
            let (slot_a, feat_a) = a.sample();
            let (slot_b, feat_b) = b.sample();
            assert_eq!(slot_a, slot_b);
            assert_eq!(feat_a, feat_b);
            assert!(slot_a < 4);
            assert_eq!(feat_a.len(), 2);
            assert!(feat_a[0] >= 10.0 && feat_a[0] <= 1e7);
            assert!(feat_a[1] >= 40.0 && feat_a[1] <= 1000.0);
        }
    }

    #[test]
    fn request_sampler_clamps_degenerate_ranges() {
        let mut s = RequestSampler::new(1, 0, &[(5.0, 2.0), (f64::NAN, 3.0)]);
        let (slot, feats) = s.sample();
        assert_eq!(slot, 0, "zero slots clamps to one");
        assert!(feats[0] >= 2.0 && feats[0] <= 5.0, "inverted range swapped");
        assert!(
            feats[1] >= 0.0 && feats[1] <= 3.0,
            "NaN bound collapsed to 0"
        );
    }
}
