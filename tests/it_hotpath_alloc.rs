//! Allocation accounting for the pinned estimate hot path (DESIGN.md
//! §13).
//!
//! The raw-speed pass claims the steady-state pinned paths are
//! **allocation-free**: after warmup, a cache hit, a cache-disabled
//! in-range compute, and a warm flat batch perform zero heap
//! allocations on the calling thread. This binary installs a counting
//! `#[global_allocator]` (per-thread counters, so concurrently running
//! tests never pollute each other) and asserts those budgets exactly —
//! a quiet re-introduction of per-call allocation fails here, not in a
//! benchmark's noise floor.
//!
//! The counter is a const-initialised thread-local `Cell`, touched via
//! `try_with`: no lazy TLS initialisation, no allocation, and no panic
//! during thread teardown — safe to call from inside the allocator.

use catalog::SystemId;
use costing::{EstimateScratch, EstimatorService, OperatorKind, ServiceConfig};
use integration_tests::trained_flow;
use serving::{EstimateRequest, Frontend, FrontendConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation unchanged to `System`; the counter
// update cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations performed by `f` on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_COUNT.with(Cell::get);
    f();
    ALLOC_COUNT.with(Cell::get) - before
}

fn service_with(config: ServiceConfig) -> (EstimatorService, SystemId) {
    let service = EstimatorService::new(config);
    let system = SystemId::new("alloc-probe");
    service.register(system.clone(), trained_flow());
    (service, system)
}

const OP: OperatorKind = OperatorKind::Aggregation;
const IN_RANGE: [f64; 2] = [7e5, 250.0];

/// A repeated cache hit through `estimate_pinned` allocates nothing:
/// the probe uses a borrowed key against the thread's warm scratch.
#[test]
fn estimate_pinned_cache_hit_is_allocation_free() {
    let (service, system) = service_with(ServiceConfig::default());
    let snapshot = service.snapshot();
    // Warmup: the first call misses (computes + inserts), the second
    // warms the thread-local scratch on the hit path.
    for _ in 0..3 {
        service
            .estimate_pinned(&snapshot, &system, OP, &IN_RANGE)
            .expect("estimate");
    }
    let n = allocs_during(|| {
        for _ in 0..1000 {
            service
                .estimate_pinned(&snapshot, &system, OP, &IN_RANGE)
                .expect("estimate");
        }
    });
    assert_eq!(
        n, 0,
        "cache-hit estimates allocated {n} times in 1000 calls"
    );
}

/// With the cache disabled entirely, every call runs the fused packed
/// kernel — still zero allocations once the thread scratch is warm.
#[test]
fn estimate_pinned_compute_is_allocation_free_with_cache_disabled() {
    let (service, system) = service_with(ServiceConfig {
        cache_capacity_per_shard: 0,
    });
    let snapshot = service.snapshot();
    for _ in 0..3 {
        service
            .estimate_pinned(&snapshot, &system, OP, &IN_RANGE)
            .expect("estimate");
    }
    let n = allocs_during(|| {
        for _ in 0..1000 {
            service
                .estimate_pinned(&snapshot, &system, OP, &IN_RANGE)
                .expect("estimate");
        }
    });
    assert_eq!(
        n, 0,
        "cache-disabled in-range estimates allocated {n} times in 1000 calls"
    );
}

/// The flat batch entry point with caller-owned scratch and output
/// buffers is allocation-free for warm in-range batches.
#[test]
fn flat_batch_is_allocation_free_with_warm_scratch() {
    let (service, system) = service_with(ServiceConfig {
        cache_capacity_per_shard: 0,
    });
    let snapshot = service.snapshot();
    let width = 2;
    let flat: Vec<f64> = (0..64)
        .flat_map(|i| [2e5 + i as f64 * 1e4, 150.0 + i as f64])
        .collect();
    let mut out = Vec::new();
    let mut scratch = EstimateScratch::new();
    for _ in 0..3 {
        service
            .estimate_batch_flat_pinned_scratch(
                &snapshot,
                &system,
                OP,
                &flat,
                width,
                &mut out,
                &mut scratch,
            )
            .expect("batch");
    }
    let n = allocs_during(|| {
        for _ in 0..200 {
            service
                .estimate_batch_flat_pinned_scratch(
                    &snapshot,
                    &system,
                    OP,
                    &flat,
                    width,
                    &mut out,
                    &mut scratch,
                )
                .expect("batch");
        }
    });
    assert_eq!(
        n, 0,
        "warm flat batches allocated {n} times in 200 x 64-row calls"
    );
    assert_eq!(out.len(), 64);
}

/// Span recording at 1-in-1 sampling stays allocation-free: the guard
/// arms a const-initialised thread-local slab, the stage timers write
/// into fixed `[f64; STAGE_COUNT]` slots, and the drop path folds the
/// slab into a preallocated exemplar reservoir (argmin replace, no
/// growth). The observability plane's "always-on" claim is exactly
/// this test.
#[test]
fn estimate_pinned_is_allocation_free_with_spans_sampling_every_request() {
    let (service, system) = service_with(ServiceConfig {
        cache_capacity_per_shard: 0,
    });
    let spans = service.telemetry().spans.clone();
    spans.set_sampling(1);
    let snapshot = service.snapshot();
    let epoch = snapshot.epoch().get();
    // Warmup: arm/disarm the slab once and seed the reservoir.
    for _ in 0..3 {
        let mut guard = spans.start_request(7);
        guard.set_epoch(epoch);
        service
            .estimate_pinned(&snapshot, &system, OP, &IN_RANGE)
            .expect("estimate");
    }
    let n = allocs_during(|| {
        for _ in 0..1000 {
            let mut guard = spans.start_request(7);
            guard.set_epoch(epoch);
            service
                .estimate_pinned(&snapshot, &system, OP, &IN_RANGE)
                .expect("estimate");
        }
    });
    assert_eq!(
        n, 0,
        "fully-sampled spanned estimates allocated {n} times in 1000 calls"
    );
    let snap = spans.snapshot();
    assert!(
        snap.sampled_total >= 1000,
        "sampling gate did not actually sample: {snap:?}"
    );
    assert!(!snap.exemplars.is_empty(), "no exemplars retained");
}

/// The warm flat batch stays allocation-free with span recording armed
/// around every call — stage probes must never grow the scratch.
#[test]
fn flat_batch_is_allocation_free_with_spans_enabled() {
    let (service, system) = service_with(ServiceConfig {
        cache_capacity_per_shard: 0,
    });
    let spans = service.telemetry().spans.clone();
    spans.set_sampling(1);
    let snapshot = service.snapshot();
    let width = 2;
    let flat: Vec<f64> = (0..64)
        .flat_map(|i| [2e5 + i as f64 * 1e4, 150.0 + i as f64])
        .collect();
    let mut out = Vec::new();
    let mut scratch = EstimateScratch::new();
    for _ in 0..3 {
        let _guard = spans.start_request(7);
        service
            .estimate_batch_flat_pinned_scratch(
                &snapshot,
                &system,
                OP,
                &flat,
                width,
                &mut out,
                &mut scratch,
            )
            .expect("batch");
    }
    let n = allocs_during(|| {
        for _ in 0..200 {
            let _guard = spans.start_request(7);
            service
                .estimate_batch_flat_pinned_scratch(
                    &snapshot,
                    &system,
                    OP,
                    &flat,
                    width,
                    &mut out,
                    &mut scratch,
                )
                .expect("batch");
        }
    });
    assert_eq!(
        n, 0,
        "spanned warm flat batches allocated {n} times in 200 x 64-row calls"
    );
    assert_eq!(out.len(), 64);
}

/// The coalesced front-end batch path (leader staging + responses) is
/// allocation-*bounded*: per drained batch of B requests the leader may
/// allocate O(B) for submissions and reply channels, but the estimate
/// core itself must not add a per-row allocation on top. The bound here
/// is deliberately generous (queue nodes, channel slots, reply structs)
/// while still far below what per-row staging clones would cost.
#[test]
fn frontend_drain_allocations_stay_bounded_per_batch() {
    let (service, system) = service_with(ServiceConfig {
        cache_capacity_per_shard: 0,
    });
    let fe = Frontend::new(
        service,
        FrontendConfig {
            workers: 0, // drained manually on this thread so we can count
            coalesce_window_us: 0,
            queue_capacity: 256,
            ..FrontendConfig::default()
        },
    );
    let batch = 32usize;
    let submit_all = |fe: &Frontend| -> Vec<serving::Ticket> {
        (0..batch)
            .map(|i| {
                fe.submit(EstimateRequest {
                    tenant: 1,
                    system: system.clone(),
                    op: OP,
                    features: vec![3e5 + i as f64 * 1e4, 200.0],
                })
                .expect("admitted")
            })
            .collect()
    };
    // Warm the leader's thread-local scratch and the reply plumbing.
    for _ in 0..3 {
        let tickets = submit_all(&fe);
        fe.drain_now();
        for t in tickets {
            t.wait().expect("reply");
        }
    }
    let tickets = submit_all(&fe);
    let n = allocs_during(|| {
        fe.drain_now();
    });
    for t in tickets {
        t.wait().expect("reply");
    }
    // The estimate core contributes zero; what remains is per-request
    // reply delivery. 4 allocations per request is a generous ceiling —
    // per-row feature staging alone would already exceed it.
    let bound = 4 * batch as u64;
    assert!(
        n <= bound,
        "drained batch of {batch} allocated {n} times (bound {bound})"
    );
    fe.shutdown();
}
