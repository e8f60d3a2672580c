//! Regenerates the observability-overhead matrix and
//! `BENCH_observability.json`, then holds it to the sampled-off
//! overhead bar and per-cell checksum bit-identity (exit 1 on a failed
//! gate). `--quick` runs the reduced matrix.

use bench::experiments::observability;

fn main() {
    bench::harness::main(observability::run);
}
