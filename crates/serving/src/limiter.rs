//! Per-tenant token-bucket rate limiting.
//!
//! The front-end admits traffic from many tenants into one shared
//! queue; without per-tenant limits a single runaway tenant fills the
//! queue and starves everyone (classic noisy-neighbour). Each tenant
//! gets an independent token bucket: capacity `burst` tokens, refilled
//! continuously at `per_tenant_rps` tokens per second of *injected*
//! clock time ([`crate::clock::Clock`]), one token per admitted
//! request. The decision is a pure function of `(bucket state,
//! now_micros)`, so a manual clock replays admission decisions exactly.
//!
//! The bucket map is a single mutex (rank `FRONTEND_LIMITER`, below
//! every other ranked lock in the workspace): it is acquired for a few
//! arithmetic operations on the admission path and never while holding
//! anything else.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Rate-limit policy applied to every tenant independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Bucket capacity: how many requests a tenant may burst after an
    /// idle period. Values below 1 are clamped to 1.
    pub burst: f64,
    /// Steady-state tokens added per second.
    pub per_tenant_rps: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            burst: 64.0,
            per_tenant_rps: 1000.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill_us: u64,
}

/// Independent token buckets keyed by tenant id.
#[derive(Debug)]
pub struct TenantRateLimiter {
    config: RateLimitConfig,
    buckets: Mutex<HashMap<u64, Bucket>>,
}

impl TenantRateLimiter {
    /// A limiter applying `config` to every tenant.
    pub fn new(config: RateLimitConfig) -> Self {
        let config = RateLimitConfig {
            burst: if config.burst.is_finite() && config.burst >= 1.0 {
                config.burst
            } else {
                1.0
            },
            per_tenant_rps: if config.per_tenant_rps.is_finite() && config.per_tenant_rps > 0.0 {
                config.per_tenant_rps
            } else {
                0.0
            },
        };
        let limiter = TenantRateLimiter {
            config,
            buckets: Mutex::new(HashMap::new()),
        };
        limiter
            .buckets
            .set_rank(parking_lot::rank::FRONTEND_LIMITER);
        limiter
    }

    /// Takes one token from `tenant`'s bucket at time `now_micros`.
    /// Returns `false` (request must be shed) when the bucket is empty.
    ///
    /// Time going backwards (a manual clock reset) refills nothing but
    /// never panics or underflows.
    pub fn try_acquire(&self, tenant: u64, now_micros: u64) -> bool {
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(tenant).or_insert(Bucket {
            tokens: self.config.burst,
            last_refill_us: now_micros,
        });
        let elapsed_us = now_micros.saturating_sub(bucket.last_refill_us);
        if elapsed_us > 0 {
            let refill = elapsed_us as f64 * self.config.per_tenant_rps / 1e6;
            bucket.tokens = (bucket.tokens + refill).min(self.config.burst);
            bucket.last_refill_us = now_micros;
        }
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve_then_refill() {
        let lim = TenantRateLimiter::new(RateLimitConfig {
            burst: 3.0,
            per_tenant_rps: 1000.0, // 1 token per ms
        });
        let t0 = 0;
        assert!(lim.try_acquire(7, t0));
        assert!(lim.try_acquire(7, t0));
        assert!(lim.try_acquire(7, t0));
        assert!(!lim.try_acquire(7, t0), "bucket exhausted");
        // 2 ms later: 2 tokens back.
        assert!(lim.try_acquire(7, t0 + 2_000));
        assert!(lim.try_acquire(7, t0 + 2_000));
        assert!(!lim.try_acquire(7, t0 + 2_000));
    }

    #[test]
    fn tenants_are_independent() {
        let lim = TenantRateLimiter::new(RateLimitConfig {
            burst: 1.0,
            per_tenant_rps: 1.0,
        });
        assert!(lim.try_acquire(1, 0));
        assert!(!lim.try_acquire(1, 0));
        assert!(lim.try_acquire(2, 0), "tenant 2 has its own bucket");
        assert_eq!(lim.buckets.lock().len(), 2);
    }

    #[test]
    fn refill_caps_at_burst() {
        let lim = TenantRateLimiter::new(RateLimitConfig {
            burst: 2.0,
            per_tenant_rps: 1000.0,
        });
        assert!(lim.try_acquire(1, 0));
        // A century of idle time refills to the cap, not beyond.
        assert!(lim.try_acquire(1, 3_000_000_000));
        assert!(lim.try_acquire(1, 3_000_000_000));
        assert!(!lim.try_acquire(1, 3_000_000_000));
    }

    #[test]
    fn time_running_backwards_is_harmless() {
        let lim = TenantRateLimiter::new(RateLimitConfig {
            burst: 2.0,
            per_tenant_rps: 1000.0,
        });
        assert!(lim.try_acquire(1, 1_000_000));
        assert!(lim.try_acquire(1, 500)); // earlier than last refill
        assert!(!lim.try_acquire(1, 500));
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let lim = TenantRateLimiter::new(RateLimitConfig {
            burst: f64::NAN,
            per_tenant_rps: -5.0,
        });
        // burst clamps to 1, refill to 0: exactly one request ever.
        assert!(lim.try_acquire(1, 0));
        assert!(!lim.try_acquire(1, 1_000_000_000));
    }
}
