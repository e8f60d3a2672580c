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
use costing::logical_op::{LogicalOpCosting, PackedOpScratch};
use costing::{EstimateScratch, EstimatorService, OperatorKind, ServiceConfig};
use integration_tests::{flows, trained_flow};
use neuro::PackedScratch;
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
        cache_capacity_per_model: 0,
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
        cache_capacity_per_model: 0,
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
        cache_capacity_per_model: 0,
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
        cache_capacity_per_model: 0,
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
        cache_capacity_per_model: 0,
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

/// Every flow the shared fixtures train, so every operator kind they
/// cover: the 2-dim aggregation of `trained_flow` and the 7-dim join and
/// 4-dim aggregation of `flows`.
fn fixture_flows() -> Vec<LogicalOpCosting> {
    let (join, agg) = flows(1.0);
    vec![trained_flow(), join, agg]
}

/// `n` row-major feature rows for `flow`, each dimension drawn from a
/// seeded splitmix64 stream uniformly inside its trained `[min, max]`:
/// always in range, never one repeated point.
fn seeded_in_range_rows(flow: &LogicalOpCosting, n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let dims = &flow.model.meta.dims;
    let mut rows = Vec::with_capacity(n * dims.len());
    for _ in 0..n {
        rows.extend(dims.iter().map(|d| d.min + unit() * (d.max - d.min)));
    }
    rows
}

/// One fixture flow's probe: `(system, op, width, seeded rows)`.
type ProbeCell = (SystemId, OperatorKind, usize, Vec<f64>);

/// Every fixture flow registered on its own system, with its seeded
/// rows.
fn seeded_service(config: ServiceConfig, n: usize) -> (EstimatorService, Vec<ProbeCell>) {
    let service = EstimatorService::new(config);
    let cells = fixture_flows()
        .into_iter()
        .enumerate()
        .map(|(i, flow)| {
            let system = SystemId::new(&format!("alloc-probe-{i}"));
            let op = flow.model.op;
            let width = flow.model.meta.dims.len();
            let rows = seeded_in_range_rows(&flow, n, 0xA110C + i as u64);
            service.register(system.clone(), flow);
            (system, op, width, rows)
        })
        .collect();
    (service, cells)
}

/// `estimate_pinned` over seeded in-range rows of every fixture
/// operator: the default cache answering every probe once warm, and
/// the cache off so every call runs the kernel and the range check.
#[test]
fn estimate_pinned_is_allocation_free_over_seeded_rows_of_every_op() {
    for (label, config) in [
        ("default cache, hit path", ServiceConfig::default()),
        (
            "cache off",
            ServiceConfig {
                cache_capacity_per_model: 0,
            },
        ),
    ] {
        let (service, cells) = seeded_service(config, 64);
        let snapshot = service.snapshot();
        let run = || {
            for (system, op, width, rows) in &cells {
                for row in rows.chunks_exact(*width) {
                    service
                        .estimate_pinned(&snapshot, system, *op, row)
                        .expect("estimate");
                }
            }
        };
        // Warmup: the first pass fills the cache, the next two warm the
        // thread's scratch on the hit path.
        for _ in 0..3 {
            run();
        }
        let n = allocs_during(|| {
            for _ in 0..10 {
                run();
            }
        });
        assert_eq!(
            n, 0,
            "{label}: seeded estimates over every fixture op allocated {n} times"
        );
    }
}

/// The flat batch over seeded in-range rows of every fixture operator,
/// 67 rows so the packed kernel runs full lane blocks and a remainder.
#[test]
fn flat_batch_is_allocation_free_over_seeded_rows_of_every_op() {
    let (service, cells) = seeded_service(
        ServiceConfig {
            cache_capacity_per_model: 0,
        },
        67,
    );
    let snapshot = service.snapshot();
    let mut out = Vec::new();
    let mut scratch = EstimateScratch::new();
    let mut run = || {
        for (system, op, width, rows) in &cells {
            service
                .estimate_batch_flat_pinned_scratch(
                    &snapshot,
                    system,
                    *op,
                    rows,
                    *width,
                    &mut out,
                    &mut scratch,
                )
                .expect("batch");
            assert_eq!(out.len(), 67);
        }
    };
    for _ in 0..3 {
        run();
    }
    let n = allocs_during(|| {
        for _ in 0..20 {
            run();
        }
    });
    assert_eq!(n, 0, "seeded flat batches allocated {n} times");
}

/// Both packed kernels, called directly as the benches do:
/// `PackedOpModel::predict_batch_into` (scaling fused in) and the bare
/// `PackedNetwork::predict_batch_into` beneath it.
#[test]
fn packed_kernels_are_allocation_free_for_every_op() {
    for (i, flow) in fixture_flows().iter().enumerate() {
        let packed = flow.model.packed();
        let width = flow.model.meta.dims.len();
        let rows = seeded_in_range_rows(flow, 67, 0xB10C + i as u64);
        let mut out = Vec::new();
        let mut op_scratch = PackedOpScratch::new();
        let mut nn_scratch = PackedScratch::new();
        let mut run = || {
            packed.predict_batch_into(&rows, width, &mut out, &mut op_scratch);
            packed
                .network()
                .predict_batch_into(&rows, width, &mut out, &mut nn_scratch);
        };
        // Warmup, three calls as above: the kernels' scratch rows reach
        // their steady capacity on the second.
        for _ in 0..3 {
            run();
        }
        let n = allocs_during(|| {
            for _ in 0..20 {
                run();
            }
        });
        assert_eq!(
            n, 0,
            "packed kernels for {:?} allocated {n} times",
            flow.model.op
        );
    }
}
