//! Runs the packed-vs-legacy kernel matrix across shape × batch and
//! writes `BENCH_hotpath.json`, then holds it to the speedup bar at
//! batch ≥ 64 and the pairs' checksum bit-identity (exit 1 on a failed
//! gate). `--quick` runs the reduced matrix.

use bench::experiments::hotpath;

fn main() {
    bench::harness::main(hotpath::run);
}
