//! The six workloads, and the probes more than one of them uses.

pub mod churn;
pub mod dag;
pub mod facade;
pub mod serving;
pub mod sql;

use crate::harness::{per_call_ns, Replay};
use catalog::SystemId;
use costing::{CostEstimate, EstimateScratch, EstimateSource, EstimatorService, OperatorKind};
use federation::PlanReport;
use neuro::packed::PackedScratch;
use std::hint::black_box;
use std::time::Instant;

/// Whether `best()` is the cheapest candidate (ties go to the smaller
/// system id, the planner's documented tie-break).
pub fn best_is_argmin(report: &PlanReport) -> bool {
    let best = report.best();
    report.candidates.iter().all(|c| {
        let (a, b) = (best.total_secs(), c.total_secs());
        a < b || (a == b && best.option.system <= c.option.system)
    })
}

fn same_bits(a: &[CostEstimate], b: &[CostEstimate]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.secs.to_bits() == y.secs.to_bits() && x.source == y.source)
}

/// Share of estimates that went through the online remedy.
pub fn remedy_share(estimates: &[CostEstimate]) -> f64 {
    let remedied = estimates
        .iter()
        .filter(|e| matches!(e.source, EstimateSource::OnlineRemedy { .. }))
        .count();
    remedied as f64 / estimates.len().max(1) as f64
}

/// Probes the estimate kernel of one `(system, op)` on a workload's own
/// feature rows: checks that the single-row path and every batch path
/// agree to the bit, and, with `timing`, reads the per-row cost of each
/// path on a cold cache. Returns the single-row estimates.
pub fn kernel_probes(
    service: &EstimatorService,
    system: &SystemId,
    op: OperatorKind,
    rows: &[Vec<f64>],
    timing: bool,
    out: &mut Replay,
) -> Vec<CostEstimate> {
    let snapshot = service.snapshot();
    let width = rows[0].len();
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let mut scratch = EstimateScratch::new();
    let cold = |f: &mut dyn FnMut() -> Vec<CostEstimate>| {
        service.clear_cache();
        f()
    };
    let singles = cold(&mut || {
        rows.iter()
            .map(|r| {
                service
                    .estimate_pinned(&snapshot, system, op, r)
                    .expect("registered model")
            })
            .collect()
    });
    let batch = cold(&mut || {
        service
            .estimate_batch_pinned(&snapshot, system, op, rows)
            .expect("registered model")
    });
    let dedup = cold(&mut || {
        service
            .estimate_batch_dedup_pinned(&snapshot, system, op, rows)
            .expect("registered model")
    });
    let mut flat_out = Vec::new();
    service.clear_cache();
    service
        .estimate_batch_flat_pinned_scratch(
            &snapshot,
            system,
            op,
            &flat,
            width,
            &mut flat_out,
            &mut scratch,
        )
        .expect("registered model");
    let agree = same_bits(&singles, &batch)
        && same_bits(&singles, &dedup)
        && same_bits(&singles, &flat_out);
    out.check(
        "estimate_pinned and the batch paths agree to the bit",
        agree,
        format!("{} rows of {system}/{op}", rows.len()),
    );
    if !timing {
        return singles;
    }

    let mut per_row_us = Vec::new();
    let mut per_batch_row_us = Vec::new();
    for _ in 0..5 {
        service.clear_cache();
        let started = Instant::now();
        for r in rows {
            black_box(service.estimate_pinned(&snapshot, system, op, r).ok());
        }
        per_row_us.push(started.elapsed().as_secs_f64() * 1e6 / rows.len() as f64);
        service.clear_cache();
        for chunk in flat.chunks_exact(64 * width) {
            let started = Instant::now();
            let _ = service.estimate_batch_flat_pinned_scratch(
                &snapshot,
                system,
                op,
                chunk,
                width,
                &mut flat_out,
                &mut scratch,
            );
            per_batch_row_us.push(started.elapsed().as_secs_f64() * 1e6 / 64.0);
        }
    }
    out.layers
        .insert("costing.estimate_us", crate::stats::median(&per_row_us));
    out.layers.insert(
        "costing.batch64_us_per_row",
        crate::stats::median(&per_batch_row_us),
    );

    // The bare network under the costing layer, on rows scaled into the
    // unit cube the way the model scales them.
    let meta = &snapshot
        .model(system, op)
        .expect("registered model")
        .model
        .meta;
    let unit: Vec<f64> = rows
        .iter()
        .take(64)
        .flat_map(|r| {
            r.iter().zip(&meta.dims).map(|(v, d)| {
                ((v - d.min) / (d.max - d.min).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0)
            })
        })
        .collect();
    let network = snapshot.packed(system, op).expect("packed model").network();
    let mut nn = PackedScratch::new();
    let n_rows = unit.len() / width;
    out.layers.insert(
        "neuro.row_ns",
        per_call_ns(9, 2_000, |i| {
            let at = (i % n_rows) * width;
            network.predict_one(&unit[at..at + width], &mut nn)
        }),
    );
    let mut nn_out = Vec::new();
    out.layers.insert(
        "neuro.batch64_ns_per_row",
        per_call_ns(9, 200, |_| {
            network.predict_batch_into(&unit, width, &mut nn_out, &mut nn);
            nn_out.len()
        }) / n_rows as f64,
    );
    singles
}

/// Multiply-adds ×2 of one forward pass through a `width`-input network
/// with the fixture's hidden layers.
pub fn flops_per_row(width: usize) -> f64 {
    let (h1, h2) = crate::fixture::HIDDEN;
    2.0 * (width * h1 + h1 * h2 + h2) as f64
}
