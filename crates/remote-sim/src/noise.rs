//! Deterministic execution-time noise.
//!
//! Real clusters never produce identical elapsed times twice; the paper's
//! scatter plots (Figs. 11c, 12c, 13g) show visible spread around the
//! fitted lines. The simulator reproduces that with multiplicative
//! Gaussian noise drawn from a seeded RNG, so runs remain bit-for-bit
//! reproducible while individual queries still jitter.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seeded multiplicative-noise source.
#[derive(Debug, Clone)]
pub(crate) struct NoiseSource {
    rng: StdRng,
    /// Relative standard deviation (e.g. 0.04 = 4 %).
    sigma: f64,
}

impl NoiseSource {
    /// Creates a source with the given relative sigma.
    pub(crate) fn new(seed: u64, sigma: f64) -> Self {
        assert!((0.0..1.0).contains(&sigma), "sigma must be in [0, 1)");
        NoiseSource {
            rng: StdRng::seed_from_u64(seed),
            sigma,
        }
    }

    /// A noiseless source (useful for tests that need exact values).
    pub(crate) fn disabled(seed: u64) -> Self {
        NoiseSource::new(seed, 0.0)
    }

    /// Returns a multiplicative factor `max(0.5, 1 + sigma·N(0,1))`.
    ///
    /// The floor prevents pathological near-zero elapsed times for large
    /// sigma; with the sigmas used here (≤ 8 %) it never triggers in
    /// practice.
    pub(crate) fn factor(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        // Box–Muller transform on two uniform draws.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (1.0 + self.sigma * gauss).max(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_exactly_one() {
        let mut n = NoiseSource::disabled(1);
        for _ in 0..10 {
            assert_eq!(n.factor(), 1.0);
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = NoiseSource::new(7, 0.05);
        let mut b = NoiseSource::new(7, 0.05);
        for _ in 0..20 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn noise_has_expected_scale() {
        let mut n = NoiseSource::new(42, 0.05);
        let samples: Vec<f64> = (0..10_000).map(|_| n.factor()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sd {}", var.sqrt());
    }

    #[test]
    fn factor_never_below_floor() {
        let mut n = NoiseSource::new(3, 0.5);
        for _ in 0..10_000 {
            assert!(n.factor() >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn sigma_must_be_sane() {
        NoiseSource::new(1, 1.5);
    }
}
