//! Regenerates the observability-overhead matrix and
//! `BENCH_observability.json`. `--quick` runs the reduced matrix;
//! `--validate` re-checks the existing document — the sampled-off
//! overhead bar and per-cell checksum bit-identity included — without
//! running anything.

use bench::experiments::observability;

fn main() {
    bench::harness::main::<observability::ObservabilityDoc, _>(observability::run);
}
