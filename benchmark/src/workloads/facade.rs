//! `facade_hybrid`: the `IntelliSphere` facade over `HybridCostManager`.
//!
//! The second costing stack, and the sub-op formula and
//! applicability-rule path no other workload touches: hive is costed by
//! its logical-op models, spark, rdbms and the master by sub-op models,
//! presto by a `Timed` profile that has switched from sub-op to
//! logical-op by the time measuring starts. 512 statements are cycled;
//! nine ops in ten are `plan(sql)`, one in ten is `execute(sql)`: a
//! simulator run whose observation is fed back (the Fig. 3 logging
//! phase). Statements are all inside the trained range: the manager
//! path keeps a pending-remedy record for every out-of-range estimate
//! that is never executed, which would make this workload's memory and
//! latency grow with its own speed.

use super::best_is_argmin;
use crate::fixture::{mix_seed, Fixture};
use crate::gen::in_range_statements;
use crate::harness::{accuracy, closed_loop, BlockShape, Measured, Mode, Replay, Workload};
use crate::span::{durations_us, NO_PARENT};
use crate::stats::median;
use catalog::SystemId;
use costing::OperatorKind;
use federation::planner::plan_query;
use federation::{enumerate_placements, IntelliSphere};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use remote_sim::analyze::analyze;
use std::hint::black_box;

/// Latency limit behind `slo_ok_share`, µs.
pub const SLO_US: f64 = 2_000.0;

/// Statements cycled.
const STATEMENTS: usize = 512;

/// Share of ops that execute their statement.
const EXECUTE_SHARE: f64 = 0.10;

/// Estimates after which presto's `Timed` profile switches approach;
/// one pass over the statements serves several times as many.
const SWITCH_AFTER: u64 = 64;

/// The facade workload.
pub struct FacadeWorkload {
    statements: Vec<String>,
    /// Whether the op at a stream position executes (else it plans).
    executes: Vec<bool>,
    sphere: IntelliSphere,
}

impl FacadeWorkload {
    /// Draws statements and op kinds from the seed, builds the facade.
    pub fn new(fx: &Fixture, seed: u64) -> Self {
        // The seed draws which ops execute, not how many.
        let mut executes = vec![false; STATEMENTS];
        executes[..(STATEMENTS as f64 * EXECUTE_SHARE).round() as usize].fill(true);
        executes.shuffle(&mut StdRng::seed_from_u64(mix_seed(seed, 0xFACA)));
        FacadeWorkload {
            statements: in_range_statements(seed, STATEMENTS),
            executes,
            sphere: fx.sphere(SWITCH_AFTER),
        }
    }
}

/// One pass over the stream, untimed: presto's profile switches, every
/// table an execute ships is shipped, so the catalog has stopped growing.
fn warm(sphere: &mut IntelliSphere, statements: &[String], executes: &[bool]) {
    for (sql, &execute) in statements.iter().zip(executes) {
        if execute {
            sphere.execute(sql).expect("generated SQL executes");
        } else {
            sphere.plan(sql).expect("generated SQL plans");
        }
    }
}

impl Workload for FacadeWorkload {
    fn measure(&mut self, _fx: &mut Fixture, seconds: f64) -> Measured {
        warm(&mut self.sphere, &self.statements, &self.executes);
        // A block is a whole number of passes over the statements, so
        // every block holds the same plans and the same executes.
        let shape = BlockShape {
            ops: STATEMENTS as u64,
            ..BlockShape::SHORT
        };
        closed_loop(seconds, SLO_US, shape, |position| {
            let i = position as usize % STATEMENTS;
            if self.executes[i] {
                self.sphere
                    .execute(&self.statements[i])
                    .map(black_box)
                    .is_ok()
            } else {
                self.sphere.plan(&self.statements[i]).map(black_box).is_ok()
            }
        })
    }

    fn replay(&mut self, fx: &mut Fixture, mode: Mode) -> Replay {
        let digest_ops = STATEMENTS;
        let ops = match mode {
            Mode::Check => digest_ops,
            Mode::Trace => 2_000,
            Mode::Fill => 200,
        };
        let mut out = Replay::with_capacity(ops * 16);
        // A facade of its own, warmed the way the measured one is.
        let mut sphere = fx.sphere(SWITCH_AFTER);
        warm(&mut sphere, &self.statements, &self.executes);
        let spark = SystemId::new("spark");
        let mut all_argmin = true;
        let mut same_winner = true;
        let mut failed = 0u64;
        let mut pairs = Vec::new();
        let (mut sim_secs, mut candidates, mut executed) = (0.0, 0u64, 0u64);
        let mut plan_self_us = Vec::new();

        // Phase 1: the stream in order, with nothing in between: executes
        // through the real entry point, plans through what
        // `IntelliSphere::plan` does, call for call.
        let mut planned = Vec::with_capacity(ops);
        for i in 0..ops {
            if i % 250 == 0 {
                out.sample_host();
            }
            let op = i as u32;
            let sql = &self.statements[i % STATEMENTS];
            if self.executes[i % STATEMENTS] {
                let report = out.spans.time("federation.facade_exec", op, NO_PARENT, || {
                    sphere.execute(sql)
                });
                match report {
                    Ok(r) if i < digest_ops => {
                        executed += 1;
                        sim_secs += r.actual_secs;
                        pairs.push((r.estimated_exec_secs, r.actual_secs));
                    }
                    Ok(_) => {}
                    Err(_) => failed += 1,
                }
                continue;
            }
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
                let catalog = out.spans.time("federation.global_catalog", op, root, || {
                    sphere.global_catalog()
                });
                let planning = out.spans.open("federation.plan_query", op, root);
                let report = plan_query(&catalog, sphere.manager_mut(), &fx.transfer, plan);
                out.spans.close(planning);
                report.ok().map(|r| (r, planning))
            });
            out.spans.close(root);
            let (Some(plan), Some((report, planning))) = (plan, report) else {
                failed += 1;
                continue;
            };
            // The real entry point straight away: the next execute feeds
            // an observation back, and the winner may change with it.
            let real = out
                .spans
                .time("federation.facade_plan", op, NO_PARENT, || sphere.plan(sql));
            same_winner &= real.as_ref().is_ok_and(|r| {
                r.best().option.system == report.best().option.system
                    && r.best().total_secs().to_bits() == report.best().total_secs().to_bits()
            });
            all_argmin &= best_is_argmin(&report);
            if i < digest_ops {
                candidates += report.candidates.len() as u64;
            }
            planned.push((op, plan, planning));
        }

        // Phase 2: the calls `plan_query` makes inside, replayed on the
        // same inputs (the rest is its self time), and the sub-op path
        // alone. The warm-up shipped every table, so the catalog is the
        // one phase 1 planned against.
        let catalog = sphere.global_catalog();
        for (op, plan, planning) in &planned {
            let (op, planning) = (*op, *planning);
            let before = out.spans.spans().len();
            let options = out.spans.replay("federation.placements", op, planning, || {
                enumerate_placements(&catalog, plan).expect("planned in phase 1")
            });
            let analysis = out
                .spans
                .replay("remote_sim.analyze", op, planning, || {
                    analyze(&catalog, plan)
                })
                .expect("planned in phase 1");
            for option in &options {
                out.spans.replay("costing.manager", op, planning, || {
                    black_box(
                        sphere
                            .manager_mut()
                            .estimate(&option.system, &analysis)
                            .ok(),
                    )
                });
            }
            let children_ns: u64 = out.spans.spans()[before..].iter().map(|s| s.dur_ns()).sum();
            let planning_ns = out.spans.spans()[planning as usize].dur_ns();
            plan_self_us.push((planning_ns as f64 - children_ns as f64) / 1e3);
            let operator = if analysis.join.is_some() {
                OperatorKind::Join
            } else {
                OperatorKind::Aggregation
            };
            out.spans.replay("costing.subop", op, NO_PARENT, || {
                let profile = sphere
                    .manager_mut()
                    .profile_mut(&spark)
                    .expect("registered");
                black_box(profile.estimate_operator(operator, &analysis).ok())
            });
        }

        out.sample_host();
        out.check(
            "every PlanReport::best() is the argmin of its candidates",
            all_argmin,
            format!("{ops} ops"),
        );
        out.check(
            "decomposed and real entry points return identical winners",
            same_winner,
            format!("{ops} ops"),
        );
        out.check(
            "no statement failed to plan or execute",
            failed == 0,
            format!("{failed} of {ops}"),
        );

        let spans = out.spans.spans();
        out.op_p50_us = median(&durations_us(spans, "op"));
        let planning_us = median(&durations_us(spans, "federation.plan_query"));
        let self_us = median(&plan_self_us);
        out.harness_check(
            "replayed children fit inside plan_query (5%)",
            self_us >= -0.05 * planning_us,
            format!("plan_query {planning_us:.1} us, self {self_us:.1} us"),
        );
        for (metric, span) in [
            ("sqlkit.parse_us", "sqlkit.parse"),
            ("sqlkit.logical_us", "sqlkit.logical"),
            ("federation.global_catalog_us", "federation.global_catalog"),
            ("federation.placements_us", "federation.placements"),
            ("remote_sim.analyze_us", "remote_sim.analyze"),
            ("costing.manager_us", "costing.manager"),
            ("costing.subop_us", "costing.subop"),
            ("federation.facade_plan_us", "federation.facade_plan"),
            ("federation.facade_exec_us", "federation.facade_exec"),
        ] {
            out.layer_from_span(metric, span, 1.0);
        }
        let (q_error, rmse_pct) = accuracy(&pairs);
        for (metric, value) in [
            ("remote_sim.sim_secs", sim_secs),
            ("federation.candidates", candidates as f64),
            ("accuracy.q_error_p50", q_error),
            ("accuracy.rmse_pct", rmse_pct),
        ] {
            out.layers.insert(metric, value);
            out.digest.insert(metric.to_string(), value);
        }
        out.digest
            .insert("federation.executes".to_string(), executed as f64);
        out
    }
}
