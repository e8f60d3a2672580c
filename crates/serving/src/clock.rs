//! Injected time for the serving layer.
//!
//! The front-end needs a monotonic microsecond counter for exactly one
//! thing: refilling per-tenant token buckets. Reading ambient time from
//! the rate-limit path would make admission decisions non-replayable
//! (`clippy.toml` disallows `Instant::now()` in the production crates
//! for that reason), so time is *injected*: production
//! builds a `Clock::monotonic` once at startup, tests build a
//! [`Clock::manual`] they advance explicitly, and everything downstream
//! of the constructor is a pure function of `now_micros()`. This module
//! is the single approved home of `Instant::now()` in the crate: its
//! one call carries the crate's one `#[expect]` for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable microsecond clock: real monotonic time, or a manually
/// advanced counter for deterministic tests.
#[derive(Debug, Clone)]
pub struct Clock(ClockKind);

#[derive(Debug, Clone)]
enum ClockKind {
    /// Microseconds since the clock was constructed.
    Monotonic(Instant),
    /// A counter advanced only by [`Clock::advance_micros`]. Shared
    /// across clones, so a test and the frontend see the same time.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// Real monotonic time, starting at 0 when constructed.
    #[expect(
        clippy::disallowed_methods,
        reason = "the clock module is the serving layer's one home of the wall clock; tests use Clock::manual"
    )]
    pub(crate) fn monotonic() -> Clock {
        Clock(ClockKind::Monotonic(Instant::now()))
    }

    /// A deterministic clock starting at `start_micros`; advance it
    /// with [`Clock::advance_micros`].
    pub fn manual(start_micros: u64) -> Clock {
        Clock(ClockKind::Manual(Arc::new(AtomicU64::new(start_micros))))
    }

    /// Microseconds elapsed on this clock.
    pub(crate) fn now_micros(&self) -> u64 {
        match &self.0 {
            ClockKind::Monotonic(origin) => origin.elapsed().as_micros() as u64,
            ClockKind::Manual(t) => t.load(Ordering::Acquire),
        }
    }

    /// Advances a manual clock by `delta_micros` and returns `true`;
    /// returns `false` (and does nothing) on a monotonic clock.
    pub fn advance_micros(&self, delta_micros: u64) -> bool {
        match &self.0 {
            ClockKind::Monotonic(_) => false,
            ClockKind::Manual(t) => {
                t.fetch_add(delta_micros, Ordering::AcqRel);
                true
            }
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::monotonic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_on_demand_and_shares_state() {
        let c = Clock::manual(100);
        let c2 = c.clone();
        assert_eq!(c.now_micros(), 100);
        assert!(c.advance_micros(50));
        assert_eq!(c2.now_micros(), 150, "clones share the counter");
    }

    #[test]
    fn monotonic_clock_is_monotone_and_rejects_manual_advance() {
        let c = Clock::monotonic();
        let a = c.now_micros();
        assert!(!c.advance_micros(1_000_000));
        let b = c.now_micros();
        assert!(b >= a);
        assert!(b < 60_000_000, "clock starts near zero, not at epoch");
    }
}
