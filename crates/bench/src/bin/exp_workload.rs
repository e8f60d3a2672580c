//! Regenerates the workload-optimizer matrix and `BENCH_workload.json`.
//! `--quick` runs the reduced matrix; `--validate` re-checks the
//! existing document — the reuse-heavy makespan bar and the
//! never-worse-than-greedy noise floor included — without running
//! anything.

use bench::experiments::workload;

fn main() {
    bench::harness::main::<workload::WorkloadDoc, _>(workload::run);
}
