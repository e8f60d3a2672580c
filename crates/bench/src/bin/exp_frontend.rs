//! Sweeps the serving front-end (offered load × coalesce window ×
//! tenants, open- and closed-loop) and writes `BENCH_frontend.json`.
//! `--quick` runs the reduced sweep; `--validate` re-checks the
//! existing document — quantile order and the request ledger — without
//! running anything.

use bench::experiments::frontend;

fn main() {
    bench::harness::main::<frontend::FrontendDoc, _>(frontend::run);
}
