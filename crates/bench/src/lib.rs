#![warn(missing_docs)]

//! Experiment harness for the paper's evaluation section (§7).
//!
//! Every table and figure has a regenerating experiment:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Fig. 10 (setup)          | [`experiments::fig10`]  | `exp_fig10_setup` |
//! | Fig. 11a–d (agg logical) | [`experiments::fig11`]  | `exp_fig11_agg_logical` |
//! | Fig. 12a–d (join logical)| [`experiments::fig12`]  | `exp_fig12_join_logical` |
//! | Fig. 13a–g (sub-op)      | [`experiments::fig13`]  | `exp_fig13_subop` |
//! | Fig. 14 (out-of-range)   | [`experiments::fig14`]  | `exp_fig14_oor` |
//! | Table 1 (α adjustment)   | [`experiments::table1`] | `exp_table1_alpha` |
//! | Ablations (DESIGN.md §5) | [`experiments::ablations`] | `exp_ablations` |
//! | Front-end coalescing bound under open-loop load (DESIGN.md §12) | [`experiments::frontend`] | `exp_frontend` † |
//! | Packed-kernel speedup (DESIGN.md §13) | [`experiments::hotpath`] | `exp_hotpath` † |
//! | Observability overhead (DESIGN.md §14) | [`experiments::observability`] | `exp_observability` † |
//! | Workload optimizer (DESIGN.md §17) | [`experiments::workload`] | `exp_workload` † |
//!
//! Each experiment prints the same rows/series the paper reports and
//! returns a structured result for the integration tests, which assert
//! the paper's *shape* (who wins, by roughly what factor, where the
//! crossovers fall). Run with `--quick` for reduced workloads; any other
//! argument is refused with exit code 2.
//!
//! The binaries marked † are *gated*: each writes a `BENCH_<name>.json`
//! document, then holds it to a gate nothing else in the tree holds
//! (DESIGN.md §16) and exits 1 when it fails. Each is the one writer of
//! its document: `exp_all` runs the figures, tables and ablations, none
//! of the gated experiments. Everything they share —
//! file policy, serialisation, the envelope checks, percentile summary,
//! the call-by-call timing loop the gated pairs run through, the model
//! fixture and the binaries' `main` — is the one [`harness`]; the
//! experiment modules keep only their cells and their thresholds. End-to-end and per-layer
//! latency is measured by the repository benchmark under `benchmark/`,
//! not here.

pub mod experiments;
pub mod harness;
pub mod report;

pub use report::ExpConfig;
