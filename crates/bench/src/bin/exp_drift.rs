//! Regenerates the drift-monitoring model-health table and
//! `BENCH_drift.json`. `--quick` runs the reduced scenario;
//! `--validate` re-checks the existing document — the
//! flagged-set/drifted-row agreement included — without running
//! anything.

use bench::experiments::drift;

fn main() {
    bench::harness::main::<drift::DriftDoc, _>(drift::run);
}
