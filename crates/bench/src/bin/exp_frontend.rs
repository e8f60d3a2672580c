//! Sweeps the serving front-end (open-loop offered load × coalesce
//! window, plus one rate-limited row) from one generator thread with
//! `max(1, cores − 1)` front-end workers, writes `BENCH_frontend.json`,
//! then holds it to quantile order, the request ledger, the sizing rule
//! and the coalescing bound (exit 1 on a failed gate). `--quick` runs
//! the reduced sweep.

use bench::experiments::frontend;

fn main() {
    bench::harness::main(frontend::run);
}
