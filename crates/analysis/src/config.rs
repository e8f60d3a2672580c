//! The shipped rule configuration.
//!
//! Everything the rules treat as policy lives here: which modules form
//! the estimation hot path, which functions seed and bound the
//! reachability closures, and which modules are exempt from the
//! float/entropy rules. Tests build ad-hoc `Config`s; the binary uses
//! [`Config::workspace_default`].

/// A declared hot-path entry point: the root of a reachability
/// closure over the workspace call graph.
#[derive(Debug, Clone)]
pub struct EntryPoint {
    /// Module path of the file declaring the function.
    pub module: String,
    /// Function name (every function of that name in the module seeds).
    pub function: String,
    /// Seed the `alloc-freedom` (R7) closure: this entry must be
    /// steady-state zero-allocation, mirroring `it_hotpath_alloc`.
    pub zero_alloc: bool,
    /// Seed the `blocking-freedom` (R8) closure: this entry is a
    /// snapshot-read path that must not block.
    pub nonblocking: bool,
}

impl EntryPoint {
    /// A convenience constructor.
    pub(crate) fn new(module: &str, function: &str, zero_alloc: bool, nonblocking: bool) -> Self {
        EntryPoint {
            module: module.to_string(),
            function: function.to_string(),
            zero_alloc,
            nonblocking,
        }
    }
}

/// The rule engine's policy knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Modules where the panic-freedom rule (R1) denies
    /// `unwrap`/`expect`/`panic!`-family macros and arithmetic slice
    /// indexing.
    pub hot_path_modules: Vec<String>,
    /// Modules exempt from the float-discipline rule (R4) — the
    /// approved home of raw float comparisons.
    pub float_exempt_modules: Vec<String>,
    /// Modules allowed ambient time/entropy (R5).
    pub entropy_exempt_modules: Vec<String>,
    /// Hot-path entry points seeding the interprocedural closures.
    /// `hot_path_modules` &co become seeds plus an explicit allowlist:
    /// any function reachable from an entry is covered even when its
    /// module is unlisted.
    pub entry_points: Vec<EntryPoint>,
    /// Functions where the `zero_alloc`/`nonblocking` closures stop:
    /// the node itself is reached but its callees are not. The escape
    /// for observability layers disabled in steady state (tracing).
    pub cold_boundary_functions: Vec<String>,
    /// Functions where only the `zero_alloc` closure stops — documented
    /// allocating branches of otherwise zero-alloc entries (the
    /// out-of-range regression remedy, the defensive scalar NN
    /// fallback). Panic-/blocking-freedom still cover their callees.
    pub zero_alloc_boundary_functions: Vec<String>,
    /// Receiver types whose `.clone()` allocates (R7 flags a clone only
    /// when the receiver's type is known to be in this list).
    pub heap_clone_types: Vec<String>,
    /// Lock receivers R8 tolerates on the read path — the ranked
    /// cache-LRU mutex class that `it_hotpath_alloc` also accepts.
    pub blocking_exempt_receivers: Vec<String>,
}

impl Config {
    /// The policy shipped for this workspace.
    pub fn workspace_default() -> Config {
        Config {
            hot_path_modules: vec![
                "costing::service".into(),
                "costing::logical_op".into(),
                "costing::sub_op".into(),
                "costing::hybrid".into(),
                "federation::planner".into(),
                "federation::ir".into(),
                "federation::rules".into(),
                "federation::schedule".into(),
                "telemetry::metrics".into(),
                "telemetry::span".into(),
                "serving::frontend".into(),
                "serving::limiter".into(),
                "neuro::packed".into(),
            ],
            float_exempt_modules: vec!["mathkit".into()],
            entropy_exempt_modules: vec![
                "bench".into(),
                "telemetry::trace".into(),
                "telemetry::span".into(),
                "serving::clock".into(),
            ],
            entry_points: vec![
                // The front-end leader drain: allowed to block on its
                // request channel and to stage (≤4 allocations per
                // request, asserted dynamically), so hot-only.
                EntryPoint::new("serving::frontend", "worker_loop", false, false),
                EntryPoint::new("serving::frontend", "drain_now", false, false),
                // The pinned estimate paths mirror `it_hotpath_alloc`:
                // statically zero-alloc and nonblocking (modulo the
                // exempt cache LRU mutex and `analysis:allow` escapes).
                EntryPoint::new("costing::service", "estimate_pinned", true, true),
                EntryPoint::new(
                    "costing::service",
                    "estimate_batch_flat_pinned_scratch",
                    true,
                    true,
                ),
                // The packed inference kernels, called from the flat
                // batch path and directly by benches.
                EntryPoint::new("neuro::packed", "predict_batch_into", true, true),
                EntryPoint::new(
                    "costing::logical_op::packed",
                    "predict_batch_into",
                    true,
                    true,
                ),
                // Single-query placement reads pinned snapshots; it stages
                // result vectors, so nonblocking but not zero-alloc.
                EntryPoint::new(
                    "federation::ir",
                    "plan_query_with_service_pinned",
                    false,
                    true,
                ),
                // The workload layers: logical build and physical
                // dispatch both read one pinned snapshot, stage plan
                // and report vectors (not zero-alloc), and never block.
                EntryPoint::new("federation::ir", "build_workload_pinned", false, true),
                EntryPoint::new("federation::schedule", "plan_workload_pinned", false, true),
            ],
            cold_boundary_functions: vec![
                // Tracing is disabled in steady state; allocations and
                // subscriber locks behind `Tracer::emit` are cold.
                "emit".into(),
            ],
            zero_alloc_boundary_functions: vec![
                // The out-of-range remedy fits a pivot regression on the
                // fly; the service docs declare that branch allocating.
                "remedy_estimate_scratch".into(),
            ],
            heap_clone_types: vec![
                "String".into(),
                "Vec".into(),
                "CacheKey".into(),
                "SystemId".into(),
                "CostEstimate".into(),
                "BTreeMap".into(),
                "HashMap".into(),
                "Box".into(),
            ],
            blocking_exempt_receivers: vec!["cache".into()],
        }
    }
}
