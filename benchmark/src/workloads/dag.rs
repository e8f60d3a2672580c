//! `dag_batch`: a 48-statement workload DAG in, an optimized plan out,
//! through `WorkloadSpec::push_sql` ×48 + `federation::plan_workload`.
//!
//! `federation.ir`, `rules` and `schedule` dominate, and the one catalog
//! clone of a build is spread over 48 statements: a per-plan-overhead
//! fix that moves the `sql_*` workloads should barely move this one, and
//! a rules or scheduler change moves only this one.

use crate::fixture::Fixture;
use crate::gen::dag_workloads;
use crate::harness::{closed_loop, BlockShape, Measured, Mode, Replay, Workload};
use crate::span::{durations_us, NO_PARENT};
use crate::stats::median;
use costing::EstimatorService;
use federation::ir::WorkloadQuery;
use federation::{
    build_workload_pinned, dispatch, optimize, plan_workload, ScheduleConfig, SlotMap,
    WorkloadOutcome, WorkloadSpec,
};
use std::hint::black_box;
use workload::DagStatement;

/// Latency limit behind `slo_ok_share`, µs.
pub const SLO_US: f64 = 20_000.0;

/// The workload-DAG planning workload.
pub struct DagWorkload {
    dags: Vec<Vec<DagStatement>>,
    service: EstimatorService,
    schedule: ScheduleConfig,
}

impl DagWorkload {
    /// Generates the DAGs from the seed.
    pub fn new(fx: &Fixture, seed: u64) -> Self {
        DagWorkload {
            dags: dag_workloads(seed),
            service: fx.service(),
            schedule: ScheduleConfig {
                slots: SlotMap::uniform(1),
                threads: crate::host::thread_counts("dag_batch").1,
            },
        }
    }

    /// One op through the real entry points.
    fn plan_once(
        &self,
        fx: &Fixture,
        service: &EstimatorService,
        position: u64,
    ) -> Option<WorkloadOutcome> {
        let mut spec = WorkloadSpec::default();
        for stmt in &self.dags[position as usize % self.dags.len()] {
            spec.push_sql(&stmt.label, &stmt.sql, stmt.output.as_deref())
                .ok()?;
        }
        plan_workload(&fx.catalog, service, &fx.transfer, &spec, &self.schedule).ok()
    }
}

impl Workload for DagWorkload {
    fn measure(&mut self, fx: &mut Fixture, seconds: f64) -> Measured {
        // A block is a whole number of passes over the DAGs.
        let shape = BlockShape {
            ops: self.dags.len() as u64,
            ..BlockShape::SHORT
        };
        closed_loop(seconds, SLO_US, shape, |position| {
            self.plan_once(fx, &self.service, position)
                .map(black_box)
                .is_some()
        })
    }

    fn replay(&mut self, fx: &mut Fixture, mode: Mode) -> Replay {
        // The digest covers each DAG twice: once cold, once with the
        // estimate cache warm.
        let digest_ops = 2 * self.dags.len();
        let ops = match mode {
            Mode::Check => digest_ops,
            Mode::Trace => 200,
            Mode::Fill => self.dags.len(),
        };
        let mut out = Replay::with_capacity(ops * 128);
        let service = fx.service();
        let mut never_worse = true;
        let mut same_plan = true;
        let mut failed = 0u64;
        let mut cuts = Vec::new();
        let (mut fires, mut merged, mut candidates, mut stmts) = (0u64, 0u64, 0u64, 0u64);

        // Phase 1: the decomposed pipeline, op after op with nothing in
        // between, as the real loop runs it.
        let mut planned = Vec::with_capacity(ops);
        for i in 0..ops {
            if i % 25 == 0 {
                out.sample_host();
            }
            let op = i as u32;
            let dag = &self.dags[i % self.dags.len()];
            let root = out.spans.open("op", op, NO_PARENT);
            // What `push_sql` ×48 + `plan_workload` do, call for call.
            let mut spec = WorkloadSpec::default();
            for stmt in dag {
                let parsed = out
                    .spans
                    .time("sqlkit.parse", op, root, || sqlkit::parse_query(&stmt.sql));
                let plan = parsed.ok().and_then(|q| {
                    out.spans
                        .time("sqlkit.logical", op, root, || {
                            sqlkit::build_logical_plan(&q)
                        })
                        .ok()
                });
                if let Some(plan) = plan {
                    spec.queries.push(WorkloadQuery {
                        label: stmt.label.clone(),
                        plan,
                        output: stmt.output.clone(),
                    });
                }
            }
            let snapshot = out
                .spans
                .time("costing.pin", op, root, || service.snapshot());
            let built = out.spans.time("federation.build", op, root, || {
                build_workload_pinned(
                    &fx.catalog,
                    &service,
                    &snapshot,
                    &fx.transfer,
                    &spec,
                    &self.schedule.slots,
                )
            });
            let Ok(greedy_plan) = built else {
                out.spans.close(root);
                failed += 1;
                continue;
            };
            let greedy = out.spans.time("federation.dispatch", op, root, || {
                dispatch(&greedy_plan, &self.schedule)
            });
            let (optimized_plan, trace) = out
                .spans
                .time("federation.rules", op, root, || optimize(&greedy_plan));
            let optimized = out.spans.time("federation.dispatch", op, root, || {
                dispatch(&optimized_plan, &self.schedule)
            });
            out.spans.close(root);

            never_worse &= optimized.makespan_secs <= greedy.makespan_secs;
            if i < digest_ops {
                stmts += spec.queries.len() as u64;
                fires += trace.applications.len() as u64;
                merged += optimized.merged_queries as u64;
                candidates += greedy_plan
                    .nodes
                    .iter()
                    .map(|n| n.candidates.len() as u64)
                    .sum::<u64>();
                if greedy.makespan_secs > 0.0 {
                    cuts.push((1.0 - optimized.makespan_secs / greedy.makespan_secs) * 100.0);
                }
            }
            planned.push((
                i,
                optimized.makespan_secs,
                optimized_plan.assignment,
                optimized_plan.merged_into,
            ));
        }

        out.sample_host();

        // Phase 2: the real entry points on the same DAGs.
        for (i, makespan_secs, assignment, merged_into) in &planned {
            let real = self.plan_once(fx, &service, *i as u64);
            same_plan &= real.as_ref().is_some_and(|r| {
                r.optimized.makespan_secs.to_bits() == makespan_secs.to_bits()
                    && &r.plan.assignment == assignment
                    && &r.plan.merged_into == merged_into
            });
        }

        out.check(
            "optimized makespan is at most greedy on every DAG",
            never_worse,
            format!("{ops} workloads"),
        );
        out.check(
            "decomposed and real entry points return identical plans",
            same_plan,
            format!("{ops} workloads"),
        );
        out.check(
            "no workload failed to plan",
            failed == 0,
            format!("{failed} of {ops}"),
        );

        let roots = durations_us(out.spans.spans(), "op");
        out.op_p50_us = median(&roots);
        let roots_ms: Vec<f64> = roots.iter().map(|us| us / 1e3).collect();
        out.layer_tail("federation.workload_p99_ms", &roots_ms);
        out.layer_from_span("federation.build_us", "federation.build", 1.0);
        out.layer_from_span("federation.rules_us", "federation.rules", 1.0);
        out.layer_from_span("federation.dispatch_us", "federation.dispatch", 1.0);
        out.layer_from_span("sqlkit.parse_us", "sqlkit.parse", 1.0);
        out.layer_from_span("sqlkit.logical_us", "sqlkit.logical", 1.0);
        let cut = cuts.iter().sum::<f64>() / cuts.len().max(1) as f64;
        for (metric, value) in [
            ("sqlkit.stmts", stmts as f64),
            ("sqlkit.errors", failed as f64),
            ("federation.rule_fires", fires as f64),
            ("federation.merged", merged as f64),
            ("federation.candidates", candidates as f64),
            ("federation.makespan_cut_pct", cut),
        ] {
            out.layers.insert(metric, value);
            out.digest.insert(metric.to_string(), value);
        }
        out
    }
}
