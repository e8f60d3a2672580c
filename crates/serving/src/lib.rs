#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! The serving layer: an asynchronous estimate front-end over the
//! [`costing::EstimatorService`].
//!
//! ROADMAP item 1: the estimation core is lock-free and fast, but a
//! production master engine does not receive one estimate call at a
//! time from one thread — it receives *traffic*: concurrent
//! single-estimate requests from many planner sessions and tenants.
//! This crate packages that workload:
//!
//! * [`frontend`] — request admission (bounded queue + load shedding),
//!   per-tenant rate limits, and cross-request **batch coalescing**:
//!   concurrent single estimates are drained into batches that each pin
//!   exactly one model-snapshot epoch and run through the service's
//!   amortised batched path. Results are bit-identical to serial calls.
//! * [`limiter`] — deterministic per-tenant token buckets.
//! * [`clock`] — injected time (monotonic or manual), keeping the
//!   admission path replayable and free of the disallowed wall clock.
//!
//! The executor is dependency-free by design, matching the workspace's
//! offline-shim philosophy: plain worker threads acting as rotating
//! batch leaders over a bounded channel, with capacity-1 reply channels
//! as one-shot futures. See `DESIGN.md` §12 for the architecture and
//! the SLO definitions the `exp_frontend` bench tracks against it.

pub mod clock;
pub mod frontend;
pub mod limiter;

pub use clock::Clock;
pub use frontend::{EstimateReply, EstimateRequest, Frontend, FrontendConfig, Rejection, Ticket};
pub use limiter::{RateLimitConfig, TenantRateLimiter};
