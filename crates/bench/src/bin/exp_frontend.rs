//! Sweeps the serving front-end (offered load × coalesce window ×
//! tenants, open- and closed-loop) and writes `BENCH_frontend.json`,
//! then holds it to quantile order, the request ledger and the
//! coalescing bound (exit 1 on a failed gate). `--quick` runs the
//! reduced sweep.

use bench::experiments::frontend;

fn main() {
    bench::harness::main(frontend::run);
}
