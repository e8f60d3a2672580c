//! `sql_adhoc` and `sql_repeat`: one SQL string in, a ranked placement
//! out, through `sqlkit::sql_to_plan` + `federation::plan_query_with_service`.
//!
//! `sql_adhoc` cycles 8,192 distinct statements. Every statement probes
//! one estimate-cache key per system and operator, so the probe working
//! set is several times the default 8×1024 cache: parse, catalog, IR
//! build, packed kernel and remedy all run. `sql_repeat` draws 64 of the
//! same statements Zipf(1.1), so the cache answers and the kernel is
//! bypassed: a kernel change must not move it, a per-plan-overhead
//! change must move it more than `sql_adhoc`.

use super::{best_is_argmin, flops_per_row, kernel_probes, remedy_share};
use crate::fixture::Fixture;
use crate::gen::{adhoc_statements, repeat_templates, zipf_stream, REPEAT_SKEW, REPEAT_TEMPLATES};
use crate::harness::{
    accuracy, closed_loop, per_call_ns, BlockShape, Measured, Mode, Replay, Workload,
};
use crate::span::{durations_us, NO_PARENT};
use crate::stats::median;
use costing::{agg_features, join_features, EstimatorService, OperatorKind};
use federation::{
    build_workload_pinned, enumerate_placements, plan_query_with_service, QueryId, SlotMap,
    WorkloadSpec,
};
use remote_sim::analyze::analyze;
use std::hint::black_box;

/// Latency limit behind `slo_ok_share`, µs at reference speed (about
/// four medians).
pub const SLO_US: f64 = 1_000.0;

/// Length of the pre-drawn `sql_repeat` index stream.
const REPEAT_STREAM: usize = 1 << 16;

/// Ops between two host-speed readings of a replay.
const HOST_EVERY: usize = 250;

/// Rows per operator the kernel probes run on.
const PROBE_ROWS: usize = 512;

/// The SQL planning workload in either of its two traffic shapes.
pub struct SqlWorkload {
    /// The distinct statements: all 8,192, or the 64 templates.
    statements: Vec<String>,
    /// Indices into `statements`, cycled; empty means "in order".
    stream: Vec<u32>,
    service: EstimatorService,
    repeat: bool,
}

impl SqlWorkload {
    /// `sql_adhoc`: the seeded statement set in order, cycled.
    pub fn adhoc(fx: &Fixture, seed: u64) -> Self {
        SqlWorkload {
            statements: adhoc_statements(seed),
            stream: Vec::new(),
            service: fx.service(),
            repeat: false,
        }
    }

    /// `sql_repeat`: 64 templates from the same pools, drawn Zipf(1.1).
    pub fn repeat(fx: &Fixture, seed: u64) -> Self {
        SqlWorkload {
            statements: repeat_templates(seed),
            stream: zipf_stream(seed, REPEAT_TEMPLATES, REPEAT_SKEW, REPEAT_STREAM),
            service: fx.service(),
            repeat: true,
        }
    }

    /// The distinct statements (templates, for `sql_repeat`).
    pub fn statements(&self) -> &[String] {
        &self.statements
    }

    /// The statement at a stream position.
    pub fn sql_at(&self, position: u64) -> &str {
        let i = if self.stream.is_empty() {
            position as usize % self.statements.len()
        } else {
            self.stream[position as usize % self.stream.len()] as usize
        };
        &self.statements[i]
    }

    /// One op through the real entry points.
    pub fn plan_once(&self, fx: &Fixture, service: &EstimatorService, position: u64) -> bool {
        let Ok(plan) = sqlkit::sql_to_plan(self.sql_at(position)) else {
            return false;
        };
        plan_query_with_service(&fx.catalog, service, &fx.transfer, &plan)
            .map(black_box)
            .is_ok()
    }
}

impl Workload for SqlWorkload {
    fn measure(&mut self, fx: &mut Fixture, seconds: f64) -> Measured {
        closed_loop(seconds, SLO_US, BlockShape::SHORT, |position| {
            self.plan_once(fx, &self.service, position)
        })
    }

    fn replay(&mut self, fx: &mut Fixture, mode: Mode) -> Replay {
        let (ops, digest_ops) = match mode {
            Mode::Check => (1_000, 1_000),
            Mode::Trace => (2_000, 1_000),
            Mode::Fill => (200, 200),
        };
        let mut out = Replay::with_capacity(ops * 16);
        // A service of its own for the decomposed path and a shadow for
        // the replayed child calls: both start cold and see the same
        // probes in the same order, so a replayed child meets the cache
        // state its original met.
        let service = fx.service();
        let shadow = fx.service();
        if self.repeat {
            // Dashboard traffic is measured warm: every template once.
            for position in 0..self.statements.len() as u64 {
                for s in [&service, &shadow] {
                    let plan = sqlkit::sql_to_plan(&self.statements[position as usize])
                        .expect("generated SQL parses");
                    plan_query_with_service(&fx.catalog, s, &fx.transfer, &plan)
                        .expect("generated SQL plans");
                }
            }
        }
        let mut pairs = Vec::new();
        let mut sim_secs = 0.0;
        let mut errors = 0u64;
        let mut candidates = 0u64;
        let mut all_argmin = true;
        let mut same_winner = true;
        let mut join_rows: Vec<Vec<f64>> = Vec::new();
        let mut agg_rows: Vec<Vec<f64>> = Vec::new();
        let mut build_self_us = Vec::new();

        let stats_at_start = service.stats();
        let mut stats_at_digest = stats_at_start;
        for i in 0..ops {
            if i % HOST_EVERY == 0 {
                out.sample_host();
            }
            let op = i as u32;
            let sql = self.sql_at(i as u64);
            let root = out.spans.open("op", op, NO_PARENT);
            let parsed = out
                .spans
                .time("sqlkit.parse", op, root, || sqlkit::parse_query(sql));
            let plan = parsed.ok().and_then(|q| {
                out.spans
                    .time("sqlkit.logical", op, root, || {
                        sqlkit::build_logical_plan(&q)
                    })
                    .ok()
            });
            let report = plan.as_ref().and_then(|plan| {
                let snapshot = out
                    .spans
                    .time("costing.pin", op, root, || service.snapshot());
                // What `plan_query_with_service_pinned` does, call for call.
                let build = out.spans.open("federation.build", op, root);
                let spec = WorkloadSpec::singleton(plan.clone());
                let built = build_workload_pinned(
                    &fx.catalog,
                    &service,
                    &snapshot,
                    &fx.transfer,
                    &spec,
                    &SlotMap::default(),
                );
                let report = built.ok().and_then(|w| w.node_report(QueryId(0)));
                out.spans.close(build);
                report.map(|r| (r, build))
            });
            out.spans.close(root);
            if i + 1 == digest_ops {
                stats_at_digest = service.stats();
            }
            let (Some(plan), Some((report, build))) = (plan, report) else {
                errors += 1;
                continue;
            };

            // The calls `build_workload_pinned` makes inside, replayed on
            // the same inputs straight after it (what they do not explain
            // is its self time), against the shadow service.
            let shadow_snapshot = shadow.snapshot();
            let before = out.spans.spans().len();
            for _ in 0..2 {
                out.spans
                    .replay("catalog.clone", op, build, || black_box(fx.catalog.clone()));
            }
            let analysis = out
                .spans
                .replay("remote_sim.analyze", op, build, || {
                    analyze(&fx.catalog, &plan)
                })
                .expect("the plan analysed inside the build");
            let (join_row, agg_row) = out.spans.replay("costing.features", op, build, || {
                (
                    analysis.join.as_ref().and(join_features(&analysis)),
                    analysis.agg.as_ref().and(agg_features(&analysis)),
                )
            });
            out.spans.replay("costing.dedup", op, build, || {
                for system in &fx.systems {
                    for (kind, row) in [
                        (OperatorKind::Join, join_row.as_ref().map(|r| r.to_vec())),
                        (
                            OperatorKind::Aggregation,
                            agg_row.as_ref().map(|r| r.to_vec()),
                        ),
                    ] {
                        if let Some(row) = row {
                            let _ = black_box(shadow.estimate_batch_dedup_pinned(
                                &shadow_snapshot,
                                system,
                                kind,
                                &[row],
                            ));
                        }
                    }
                }
            });
            out.spans.replay("federation.placements", op, build, || {
                black_box(enumerate_placements(&fx.catalog, &plan).ok())
            });
            let children_ns: u64 = out.spans.spans()[before..].iter().map(|s| s.dur_ns()).sum();
            let build_ns = out.spans.spans()[build as usize].dur_ns();
            build_self_us.push((build_ns as f64 - children_ns as f64) / 1e3);

            // The real entry point on the same statement must pick the
            // same winner at the same cost. It runs against the shadow,
            // which is in the state the decomposed op left the service
            // in, so the service's own counters see the stream only.
            let real = plan_query_with_service(&fx.catalog, &shadow, &fx.transfer, &plan);
            same_winner &= real.as_ref().is_ok_and(|r| {
                r.best().option.system == report.best().option.system
                    && r.best().total_secs().to_bits() == report.best().total_secs().to_bits()
            });
            all_argmin &= best_is_argmin(&report);

            if i < digest_ops {
                candidates += report.candidates.len() as u64;
                let winner = report.best();
                let truth = out.spans.replay("remote_sim.exec", op, NO_PARENT, || {
                    fx.truth_secs(&winner.option.system, &plan)
                });
                sim_secs += truth;
                pairs.push((winner.execution_secs, truth));
                if let Some(row) = join_row.filter(|_| join_rows.len() < PROBE_ROWS) {
                    join_rows.push(row.to_vec());
                }
                if let Some(row) = agg_row.filter(|_| agg_rows.len() < PROBE_ROWS) {
                    agg_rows.push(row.to_vec());
                }
            }
        }
        let hits = stats_at_digest.hits - stats_at_start.hits;
        let misses = stats_at_digest.misses - stats_at_start.misses;

        out.check(
            "every PlanReport::best() is the argmin of its candidates",
            all_argmin,
            format!("{ops} statements"),
        );
        out.check(
            "decomposed and real entry points return identical winners",
            same_winner,
            format!("{ops} statements"),
        );
        out.check(
            "no statement failed to parse or plan",
            errors == 0,
            format!("{errors} of {ops}"),
        );

        let spans = out.spans.spans();
        let roots = durations_us(spans, "op");
        out.op_p50_us = median(&roots);
        let build_us = median(&durations_us(spans, "federation.build"));
        let self_us = median(&build_self_us);
        out.harness_check(
            "replayed children fit inside federation.build (5%)",
            self_us >= -0.05 * build_us,
            format!("build {build_us:.1} us, self {self_us:.1} us"),
        );
        for (metric, span) in [
            ("sqlkit.parse_us", "sqlkit.parse"),
            ("sqlkit.logical_us", "sqlkit.logical"),
            ("catalog.clone_us", "catalog.clone"),
            ("remote_sim.analyze_us", "remote_sim.analyze"),
            ("remote_sim.exec_us", "remote_sim.exec"),
            ("costing.features_us", "costing.features"),
            ("costing.dedup_us", "costing.dedup"),
            ("federation.placements_us", "federation.placements"),
            ("federation.build_us", "federation.build"),
        ] {
            out.layer_from_span(metric, span, 1.0);
        }
        out.layers.insert("federation.build_self_us", self_us);
        out.layer_tail("federation.plan_p99_us", &roots);
        let (q_error, rmse_pct) = accuracy(&pairs);
        let hit_share = hits as f64 / (hits + misses).max(1) as f64;
        let probe_system = &fx.systems[0];
        let timing = mode != Mode::Check;
        let mut estimates = Vec::new();
        for (op, rows) in [
            (OperatorKind::Aggregation, &agg_rows),
            (OperatorKind::Join, &join_rows),
        ] {
            if rows.len() >= 64 {
                estimates.extend(kernel_probes(
                    &service,
                    probe_system,
                    op,
                    rows,
                    timing,
                    &mut out,
                ));
                out.layers
                    .insert("neuro.flops_per_row", flops_per_row(rows[0].len()));
            }
        }
        if timing {
            let names: Vec<&str> = fx.catalog.tables().map(|t| t.name.as_str()).collect();
            out.layers.insert(
                "catalog.lookup_ns",
                per_call_ns(9, 2_000, |i| {
                    fx.catalog.table(names[i % names.len()]).is_ok()
                }),
            );
            out.layers.insert(
                "costing.pin_ns",
                per_call_ns(9, 2_000, |_| service.snapshot()),
            );
        }
        let bound_ok = if self.repeat {
            hit_share >= 0.95
        } else {
            hit_share <= 0.2
        };
        out.harness_check(
            if self.repeat {
                "costing.cache_hit_share is at least 0.95 on sql_repeat"
            } else {
                "costing.cache_hit_share is at most 0.2 on sql_adhoc"
            },
            bound_ok,
            format!("{hits} hits, {misses} misses"),
        );

        out.sample_host();
        let tables = fx.catalog.table_count() as f64;
        let remedied = remedy_share(&estimates);
        for (metric, value) in [
            ("sqlkit.stmts", digest_ops as f64),
            ("sqlkit.errors", errors as f64),
            ("catalog.tables", tables),
            ("remote_sim.sim_secs", sim_secs),
            ("costing.cache_hit_share", hit_share),
            ("costing.remedy_share", remedied),
            ("federation.candidates", candidates as f64),
            ("accuracy.q_error_p50", q_error),
            ("accuracy.rmse_pct", rmse_pct),
        ] {
            out.layers.insert(metric, value);
            out.digest.insert(metric.to_string(), value);
        }
        out
    }
}
