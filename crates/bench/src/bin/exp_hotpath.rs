//! Runs the standing estimate-hot-path matrix (packed vs legacy
//! kernels across batch size × concurrency × republisher churn) and
//! writes `BENCH_hotpath.json`. `--quick` runs the reduced matrix;
//! `--validate` re-checks the existing document — the kernel-scope
//! speedup bar at batch ≥ 64 included — without running anything.

use bench::experiments::hotpath;

fn main() {
    bench::harness::main::<hotpath::HotpathDoc, _>(hotpath::run);
}
