//! The cost-formula algebra.
//!
//! §4: "each query operator for which a costing model need to be built …
//! need to be expressed as a composition of the sub operators", and the
//! formulas live in the remote system's costing profile. This module is a
//! small serialisable expression language for those compositions, so an
//! expert can author, store, and ship formulas as data (not code):
//!
//! ```text
//! BroadcastJoin =
//!   serial:   rD(|S|, sS) + b(|S|, sS)
//!   parallel: rL(|S|·blocks(R), sS) + hI(|S|·blocks(R), sS)
//!           + rL(|R|, sR) + hP(|R|, sR) + wD(|out|, s_out)
//! ```
//!
//! Evaluation mirrors the paper's elapsed-time semantics: serial terms
//! count in full, parallel terms divide by the cluster's parallelism, and
//! each stage contributes the learned fixed job overhead.

use crate::sub_op::models::SubOpModels;
use crate::sub_op::subop::SubOp;
use serde::{Deserialize, Serialize};

/// A scalar quantity over the operator's dimensions and cluster facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Qty {
    /// Literal.
    Num(f64),
    /// A named dimension.
    Dim(DimRef),
    /// Sum.
    Add(Box<Qty>, Box<Qty>),
    /// Difference.
    Sub(Box<Qty>, Box<Qty>),
    /// Product.
    Mul(Box<Qty>, Box<Qty>),
    /// Quotient.
    Div(Box<Qty>, Box<Qty>),
    /// Minimum.
    Min(Box<Qty>, Box<Qty>),
    /// Maximum.
    Max(Box<Qty>, Box<Qty>),
    /// Ceiling.
    Ceil(Box<Qty>),
}

/// Dimensions available to formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimRef {
    /// Probe-side rows (`|R|`).
    BigRows,
    /// Probe-side stored row bytes.
    BigRowBytes,
    /// Probe-side projected bytes.
    BigProjBytes,
    /// Build-side rows (`|S|`).
    SmallRows,
    /// Build-side stored row bytes.
    SmallRowBytes,
    /// Build-side projected bytes.
    SmallProjBytes,
    /// Output rows.
    OutRows,
    /// Output row bytes.
    OutRowBytes,
    /// Rows under the heaviest join-key value.
    HeavyKeyRows,
    /// Aggregation input rows.
    InRows,
    /// Aggregation input row bytes.
    InRowBytes,
    /// Aggregation output groups.
    Groups,
    /// Number of aggregate functions.
    NAggs,
    /// Cluster parallelism.
    Cores,
    /// Cluster nodes.
    Nodes,
    /// DFS block size in bytes.
    BlockBytes,
}

impl Qty {
    /// Shorthand for a dimension reference.
    pub(crate) fn dim(d: DimRef) -> Qty {
        Qty::Dim(d)
    }

    /// Shorthand for a literal.
    pub(crate) fn num(v: f64) -> Qty {
        Qty::Num(v)
    }

    /// `self + rhs`.
    pub(crate) fn add(self, rhs: Qty) -> Qty {
        Qty::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub(crate) fn sub(self, rhs: Qty) -> Qty {
        Qty::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub(crate) fn mul(self, rhs: Qty) -> Qty {
        Qty::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub(crate) fn div(self, rhs: Qty) -> Qty {
        Qty::Div(Box::new(self), Box::new(rhs))
    }

    /// `min(self, rhs)`.
    pub(crate) fn min(self, rhs: Qty) -> Qty {
        Qty::Min(Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub(crate) fn max(self, rhs: Qty) -> Qty {
        Qty::Max(Box::new(self), Box::new(rhs))
    }

    /// `ceil(self)`.
    pub(crate) fn ceil(self) -> Qty {
        Qty::Ceil(Box::new(self))
    }

    /// `ceil(rows·bytes / blockBytes)` — the `blocks(X)` helper.
    pub(crate) fn blocks(rows: DimRef, bytes: DimRef) -> Qty {
        Qty::dim(rows)
            .mul(Qty::dim(bytes))
            .div(Qty::dim(DimRef::BlockBytes))
            .ceil()
            .max(Qty::num(1.0))
    }

    /// Evaluates against a context.
    pub(crate) fn eval(&self, ctx: &FormulaContext) -> f64 {
        match self {
            Qty::Num(v) => *v,
            Qty::Dim(d) => ctx.dim(*d),
            Qty::Add(a, b) => a.eval(ctx) + b.eval(ctx),
            Qty::Sub(a, b) => a.eval(ctx) - b.eval(ctx),
            Qty::Mul(a, b) => a.eval(ctx) * b.eval(ctx),
            Qty::Div(a, b) => {
                let d = b.eval(ctx);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ctx) / d
                }
            }
            Qty::Min(a, b) => a.eval(ctx).min(b.eval(ctx)),
            Qty::Max(a, b) => a.eval(ctx).max(b.eval(ctx)),
            Qty::Ceil(a) => a.eval(ctx).ceil(),
        }
    }
}

/// The dimension values a formula evaluates against.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct FormulaContext {
    /// `|R|` (probe side).
    pub(crate) big_rows: f64,
    /// Probe-side row bytes.
    pub(crate) big_row_bytes: f64,
    /// Probe-side projected bytes.
    pub(crate) big_proj_bytes: f64,
    /// `|S|` (build side).
    pub(crate) small_rows: f64,
    /// Build-side row bytes.
    pub(crate) small_row_bytes: f64,
    /// Build-side projected bytes.
    pub(crate) small_proj_bytes: f64,
    /// Output rows.
    pub(crate) out_rows: f64,
    /// Output row bytes.
    pub(crate) out_row_bytes: f64,
    /// Heaviest join-key cardinality.
    pub(crate) heavy_key_rows: f64,
    /// Aggregation input rows.
    pub(crate) in_rows: f64,
    /// Aggregation input row bytes.
    pub(crate) in_row_bytes: f64,
    /// Aggregation groups.
    pub(crate) groups: f64,
    /// Aggregate-function count.
    pub(crate) n_aggs: f64,
    /// Cluster parallelism.
    pub(crate) cores: f64,
    /// Node count.
    pub(crate) nodes: f64,
    /// DFS block size, bytes.
    pub(crate) block_bytes: f64,
}

impl FormulaContext {
    fn dim(&self, d: DimRef) -> f64 {
        match d {
            DimRef::BigRows => self.big_rows,
            DimRef::BigRowBytes => self.big_row_bytes,
            DimRef::BigProjBytes => self.big_proj_bytes,
            DimRef::SmallRows => self.small_rows,
            DimRef::SmallRowBytes => self.small_row_bytes,
            DimRef::SmallProjBytes => self.small_proj_bytes,
            DimRef::OutRows => self.out_rows,
            DimRef::OutRowBytes => self.out_row_bytes,
            DimRef::HeavyKeyRows => self.heavy_key_rows,
            DimRef::InRows => self.in_rows,
            DimRef::InRowBytes => self.in_row_bytes,
            DimRef::Groups => self.groups,
            DimRef::NAggs => self.n_aggs,
            DimRef::Cores => self.cores,
            DimRef::Nodes => self.nodes,
            DimRef::BlockBytes => self.block_bytes,
        }
    }
}

/// One additive term of a formula.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// `subop_per_record(bytes) × rows`.
    SubOpTotal {
        /// The sub-op.
        op: SubOp,
        /// Record count.
        rows: Qty,
        /// Record size.
        bytes: Qty,
    },
    /// Regime-aware hash build: per-record cost depends on whether
    /// `table_bytes` fits the task budget (Fig. 13f).
    HashBuildTotal {
        /// Records inserted.
        rows: Qty,
        /// Record size.
        bytes: Qty,
        /// Total hash-table payload, bytes.
        table_bytes: Qty,
    },
    /// A fixed cost in µs.
    FixedUs(f64),
}

impl Term {
    /// Work in µs for this term.
    pub(crate) fn eval_us(&self, models: &SubOpModels, ctx: &FormulaContext) -> f64 {
        match self {
            Term::SubOpTotal { op, rows, bytes } => {
                let r = rows.eval(ctx).max(0.0);
                let b = bytes.eval(ctx).max(0.0);
                models.per_record_us(*op, b) * r
            }
            Term::HashBuildTotal {
                rows,
                bytes,
                table_bytes,
            } => {
                let r = rows.eval(ctx).max(0.0);
                let b = bytes.eval(ctx).max(0.0);
                let t = table_bytes.eval(ctx).max(0.0);
                models.hash_build_us(b, t) * r
            }
            Term::FixedUs(v) => *v,
        }
    }
}

/// Convenience constructor: `subop(op, rows, bytes)`.
pub(crate) fn subop(op: SubOp, rows: Qty, bytes: Qty) -> Term {
    Term::SubOpTotal { op, rows, bytes }
}

/// Convenience constructor for the regime-aware hash build.
pub(crate) fn hash_build(rows: Qty, bytes: Qty, table_bytes: Qty) -> Term {
    Term::HashBuildTotal {
        rows,
        bytes,
        table_bytes,
    }
}

/// A complete cost formula for one physical algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostFormula {
    /// Human-readable name.
    pub(crate) name: String,
    /// Execution stages (each adds the learned job overhead).
    pub(crate) stages: u32,
    /// Driver-side (serial) terms — counted in full.
    pub(crate) serial: Vec<Term>,
    /// Task-side terms — divided by the cluster parallelism.
    pub(crate) parallel: Vec<Term>,
    /// The task count of the parallel section, when the expert models it.
    /// With it, evaluation uses the paper's `NumTaskWaves` semantics
    /// (Fig. 6): the parallel section costs `ceil(tasks/cores)` *full*
    /// task quanta — charging partial waves as whole ones, one of the
    /// reasons the sub-op approach "slightly tends to overestimate" (§7).
    #[serde(default)]
    pub(crate) tasks: Option<Qty>,
}

impl std::fmt::Display for Qty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Qty::Num(v) => write!(f, "{v}"),
            Qty::Dim(d) => write!(f, "{d:?}"),
            Qty::Add(a, b) => write!(f, "({a} + {b})"),
            Qty::Sub(a, b) => write!(f, "({a} - {b})"),
            Qty::Mul(a, b) => write!(f, "({a} * {b})"),
            Qty::Div(a, b) => write!(f, "({a} / {b})"),
            Qty::Min(a, b) => write!(f, "min({a}, {b})"),
            Qty::Max(a, b) => write!(f, "max({a}, {b})"),
            Qty::Ceil(a) => write!(f, "ceil({a})"),
        }
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::SubOpTotal { op, rows, bytes } => {
                write!(f, "{}[{bytes}B] * {rows}", op.symbol())
            }
            Term::HashBuildTotal {
                rows,
                bytes,
                table_bytes,
            } => {
                write!(f, "hI[{bytes}B, table={table_bytes}B] * {rows}")
            }
            Term::FixedUs(v) => write!(f, "{v}us"),
        }
    }
}

impl std::fmt::Display for CostFormula {
    /// Renders the formula in the paper's Fig. 6 style:
    /// `serial terms + NumTaskWaves * (parallel terms)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, t) in self.serial.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        if !self.parallel.is_empty() {
            if !self.serial.is_empty() {
                write!(f, " + ")?;
            }
            if self.tasks.is_some() {
                write!(f, "NumTaskWaves * (")?;
            } else {
                write!(f, "(")?;
            }
            for (i, t) in self.parallel.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ") / parallelism")?;
        }
        write!(f, " [{} stage(s)]", self.stages)
    }
}

impl CostFormula {
    /// Predicted elapsed time in **seconds**.
    pub(crate) fn evaluate(&self, models: &SubOpModels, ctx: &FormulaContext) -> f64 {
        let serial: f64 = self.serial.iter().map(|t| t.eval_us(models, ctx)).sum();
        let parallel: f64 = self.parallel.iter().map(|t| t.eval_us(models, ctx)).sum();
        let cores = ctx.cores.max(1.0);
        let parallel_elapsed = match &self.tasks {
            Some(tq) => {
                let tasks = tq.eval(ctx).max(1.0);
                let waves = (tasks / cores).ceil().max(1.0);
                // waves × per-task work = parallel × waves / tasks.
                parallel * waves / tasks
            }
            None => parallel / cores,
        };
        let us = self.stages as f64 * models.job_overhead_us + serial + parallel_elapsed;
        (us / 1e6).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sub_op::measurement::SubOpMeasurement;
    use remote_sim::ClusterEngine;
    use workload::probe_suite;

    fn models() -> SubOpModels {
        let mut e = ClusterEngine::paper_hive("hive", 3).without_noise();
        let m = SubOpMeasurement::run(&mut e, &probe_suite());
        SubOpModels::fit(&m, 4.0e8).unwrap()
    }

    fn ctx() -> FormulaContext {
        FormulaContext {
            big_rows: 1e6,
            big_row_bytes: 250.0,
            big_proj_bytes: 8.0,
            small_rows: 1e5,
            small_row_bytes: 100.0,
            small_proj_bytes: 8.0,
            out_rows: 1e5,
            out_row_bytes: 8.0,
            heavy_key_rows: 1.0,
            cores: 6.0,
            nodes: 3.0,
            block_bytes: 32.0 * 1024.0 * 1024.0,
            ..Default::default()
        }
    }

    #[test]
    fn qty_arithmetic() {
        let c = ctx();
        let q = Qty::dim(DimRef::BigRows)
            .mul(Qty::dim(DimRef::BigRowBytes))
            .div(Qty::num(2.0));
        assert_eq!(q.eval(&c), 1e6 * 250.0 / 2.0);
        assert_eq!(Qty::num(5.0).min(Qty::num(3.0)).eval(&c), 3.0);
        assert_eq!(Qty::num(2.1).ceil().eval(&c), 3.0);
        // Division by zero guards to zero instead of inf.
        assert_eq!(Qty::num(5.0).div(Qty::num(0.0)).eval(&c), 0.0);
    }

    #[test]
    fn blocks_helper_counts_dfs_blocks() {
        let c = ctx();
        // 1e6 × 250 B = 250 MB over 32 MB blocks → 8 blocks.
        let q = Qty::blocks(DimRef::BigRows, DimRef::BigRowBytes);
        assert_eq!(q.eval(&c), 8.0);
    }

    #[test]
    fn formula_divides_parallel_terms_by_cores() {
        let m = models();
        let c = ctx();
        let serial_only = CostFormula {
            name: "serial".into(),
            stages: 0,
            serial: vec![subop(
                SubOp::ReadDfs,
                Qty::dim(DimRef::BigRows),
                Qty::dim(DimRef::BigRowBytes),
            )],
            parallel: vec![],
            tasks: None,
        };
        let parallel_only = CostFormula {
            name: "parallel".into(),
            stages: 0,
            serial: vec![],
            parallel: vec![subop(
                SubOp::ReadDfs,
                Qty::dim(DimRef::BigRows),
                Qty::dim(DimRef::BigRowBytes),
            )],
            tasks: None,
        };
        let s = serial_only.evaluate(&m, &c);
        let p = parallel_only.evaluate(&m, &c);
        assert!((s / p - 6.0).abs() < 1e-6, "serial {s} parallel {p}");
    }

    #[test]
    fn stages_add_job_overhead() {
        let m = models();
        let c = ctx();
        let empty = CostFormula {
            name: "x".into(),
            stages: 2,
            serial: vec![],
            parallel: vec![],
            tasks: None,
        };
        let secs = empty.evaluate(&m, &c);
        assert!((secs - 2.0 * m.job_overhead_us / 1e6).abs() < 1e-9);
    }

    #[test]
    fn hash_build_term_uses_regime() {
        let m = models();
        let c = ctx();
        // Use a 1000-byte record: the spill line only rises above the
        // in-memory line for larger records (its fitted intercept is
        // negative, Fig. 13f).
        let mk = |table: f64| CostFormula {
            name: "h".into(),
            stages: 0,
            serial: vec![],
            parallel: vec![hash_build(
                Qty::dim(DimRef::SmallRows),
                Qty::num(1000.0),
                Qty::num(table),
            )],
            tasks: None,
        };
        let fits = mk(1e6).evaluate(&m, &c);
        let spills = mk(1e12).evaluate(&m, &c);
        assert!(spills > fits);
    }

    #[test]
    fn formula_renders_in_fig6_style() {
        let f = crate::sub_op::algorithms::join_formula(
            catalog::remote::JoinAlgorithm::HiveBroadcastJoin,
        );
        let rendered = f.to_string();
        // Fig. 6's structure: the once-off rD + b prefix and the
        // wave-multiplied per-task body.
        assert!(rendered.starts_with("Broadcast Join: rD["), "{rendered}");
        assert!(rendered.contains("NumTaskWaves * ("), "{rendered}");
        assert!(rendered.contains("hI["), "{rendered}");
        assert!(rendered.contains("wD["), "{rendered}");
    }

    #[test]
    fn formulas_serialize() {
        let f = CostFormula {
            name: "Broadcast Join".into(),
            stages: 1,
            serial: vec![subop(
                SubOp::Broadcast,
                Qty::dim(DimRef::SmallRows),
                Qty::dim(DimRef::SmallRowBytes),
            )],
            parallel: vec![hash_build(
                Qty::dim(DimRef::SmallRows),
                Qty::dim(DimRef::SmallRowBytes),
                Qty::dim(DimRef::SmallRows).mul(Qty::dim(DimRef::SmallRowBytes)),
            )],
            tasks: None,
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: CostFormula = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
