//! Runs the complete evaluation: every figure and table in §7 of the
//! paper, in order, plus the ablations. Pass `--quick` for a reduced run.

fn main() {
    let cfg = bench::ExpConfig::from_env();
    let _ = bench::experiments::fig10::run(&cfg);
    let _ = bench::experiments::fig11::run(&cfg);
    let _ = bench::experiments::fig12::run(&cfg);
    let _ = bench::experiments::fig13::run(&cfg);
    let fig14 = bench::experiments::fig14::run(&cfg);
    let _ = bench::experiments::table1::run_with(&cfg, &fig14);
    let _ = bench::experiments::heterogeneous::run(&cfg);
    let _ = bench::experiments::skew::run(&cfg);
    let _ = bench::experiments::ablations::run(&cfg);
    let _ = bench::experiments::drift::run(&cfg);
    let _ = bench::experiments::epoch_churn::run(&cfg);
    let _ = bench::experiments::workload::run(&cfg);
}
