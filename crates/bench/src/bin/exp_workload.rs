//! Regenerates the workload-optimizer matrix and `BENCH_workload.json`,
//! then holds it to the reuse-heavy makespan bar, the
//! never-worse-than-greedy noise floor and the rule-time bound (exit 1
//! on a failed gate). `--quick` runs the reduced matrix.

use bench::experiments::workload;

fn main() {
    bench::harness::main(workload::run);
}
