//! Seeded multi-statement workload DAGs for the federation layers.
//!
//! The Fig. 10 grids ([`crate::aggq`], [`crate::joinq`]) are flat lists
//! of independent statements; the workload-level optimizer needs the
//! opposite — batches where statements *share* things: the same base
//! tables (shared scans), the same computation repeated under different
//! labels (materialized-intermediate reuse), and statements consuming
//! the published outputs of earlier statements (placement edges).
//!
//! [`dag_workload`] generates exactly that, as a pure function of a
//! [`DagConfig`]:
//!
//! * The generator first builds a pool of **templates** — distinct
//!   query shapes over the base-table pool, some of which consume the
//!   output of an earlier template (always an earlier *statement*, so
//!   the emitted list is topologically ordered by construction).
//! * Each statement then instantiates a template. The first
//!   `distinct` statements introduce the templates in order; the rest
//!   draw a template from a Zipf distribution over the pool, so a few
//!   popular shapes dominate — the same skew shape production
//!   dashboards show, and the redundancy the reuse rule feeds on.
//! * `reuse` controls the duplication pressure: `distinct =
//!   max(1, queries · (1 − reuse))`, so `reuse = 0` yields all-unique
//!   statements (nothing to merge) and `reuse = 0.75` makes three
//!   quarters of the workload repeats of earlier shapes.
//!
//! Every statement publishes its result as the intermediate `out_<i>`,
//! where `i` is the statement index; consumer templates reference those
//! names as plain tables (the federation's logical layer resolves them
//! against published outputs before the catalog). Intermediates expose
//! the `(a1, a5)` columns the federation registers for synthetic
//! results, so consumer SQL only touches those.

use crate::tables::{specs_up_to, TableSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer (same derivation idiom as [`crate::traffic`]):
/// decorrelates per-template and per-statement streams from one seed.
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration for one generated workload DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct DagConfig {
    /// Number of statements to emit (≥ 1).
    pub queries: usize,
    /// Fraction of statements that repeat an earlier template, in
    /// `[0, 1)`. Higher values mean fewer distinct shapes and more
    /// merge opportunities.
    pub reuse: f64,
    /// Probability that a (non-first) template consumes the output of
    /// an earlier statement instead of only base tables, in `[0, 1]`.
    pub intermediate_rate: f64,
    /// Base tables drawn from the Fig. 10 grid (≥ 2).
    pub table_pool: usize,
    /// Zipf exponent for template popularity; `0` is uniform.
    pub zipf_skew: f64,
    /// Master seed — identical configs generate identical DAGs.
    pub seed: u64,
}

impl Default for DagConfig {
    fn default() -> Self {
        DagConfig {
            queries: 16,
            reuse: 0.5,
            intermediate_rate: 0.4,
            table_pool: 6,
            zipf_skew: 1.1,
            seed: 7,
        }
    }
}

/// One generated statement: a label, the SQL text, and the name the
/// result is published under for later statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagStatement {
    /// Human-readable label, `q<i>_t<template>`.
    pub label: String,
    /// The statement text (parseable by the workspace SQL front-end).
    pub sql: String,
    /// The published intermediate name, `out_<i>`. Every statement
    /// publishes; unconsumed outputs are simply never read.
    pub output: Option<String>,
}

/// The base-table pool a config draws from: the smallest `table_pool`
/// specs of the Fig. 10 grid (register these before planning the DAG).
pub fn dag_base_tables(config: &DagConfig) -> Vec<TableSpec> {
    let pool = config.table_pool.max(2);
    let mut specs = specs_up_to(u64::MAX);
    specs.truncate(pool);
    specs
}

/// One query template: concrete SQL parameterized only by which earlier
/// statement (if any) it consumes.
#[derive(Debug, Clone)]
enum Template {
    /// Aggregation over a base table.
    BaseAgg { table: TableSpec, shrink: u64 },
    /// Self-join of two base tables on `a1`.
    BaseJoin { big: TableSpec, small: TableSpec },
    /// Aggregation over the output of statement `producer`.
    MidAgg { producer: usize },
    /// Join of statement `producer`'s output with a base table.
    MidJoin { producer: usize, base: TableSpec },
}

impl Template {
    fn sql(&self) -> String {
        match self {
            Template::BaseAgg { table, shrink } => format!(
                "SELECT a{shrink}, SUM(z) AS s1 FROM {} GROUP BY a{shrink}",
                table.name()
            ),
            Template::BaseJoin { big, small } => format!(
                "SELECT r.a1, s.a1 FROM {} r JOIN {} s ON r.a1 = s.a1",
                big.name(),
                small.name()
            ),
            // Intermediates expose only (a1, a5): the synthetic schema
            // the federation registers for published results.
            Template::MidAgg { producer } => {
                format!("SELECT a5, SUM(a1) AS s1 FROM out_{producer} GROUP BY a5")
            }
            Template::MidJoin { producer, base } => format!(
                "SELECT r.a1, s.a1 FROM out_{producer} r JOIN {} s ON r.a1 = s.a1",
                base.name()
            ),
        }
    }
}

/// Zipf draw over `n` items with exponent `skew`: item `i` has weight
/// `1 / (i + 1)^skew`. Linear scan over the cumulative mass — template
/// pools are small, and determinism matters more than speed here.
fn zipf_draw(rng: &mut StdRng, n: usize, skew: f64) -> usize {
    if n <= 1 {
        return 0;
    }
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(skew)).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// Shrink factors available on every Fig. 10 base table.
const SHRINKS: [u64; 5] = [1, 2, 5, 10, 20];

/// Generates the workload: `config.queries` statements, topologically
/// ordered (every `out_<j>` reference points at an earlier statement).
#[expect(
    clippy::indexing_slicing,
    reason = "every table index is drawn by gen_range over the slice's length, and k < distinct == templates.len()"
)]
pub fn dag_workload(config: &DagConfig) -> Vec<DagStatement> {
    let queries = config.queries.max(1);
    let reuse = config.reuse.clamp(0.0, 0.99);
    let tables = dag_base_tables(config);
    let distinct = ((queries as f64 * (1.0 - reuse)).round() as usize).clamp(1, queries);

    // Build the template pool. Template `k` is introduced by statement
    // `k` (the first `distinct` statements instantiate templates in
    // order), so a template consuming `out_<j>` with `j < k` always
    // references an earlier statement, whichever statement uses it.
    let mut templates: Vec<Template> = Vec::with_capacity(distinct);
    for k in 0..distinct {
        let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, k as u64));
        let consumes = k > 0 && rng.gen_range(0.0..1.0) < config.intermediate_rate;
        let template = if consumes {
            let producer = rng.gen_range(0..k);
            if rng.gen_range(0.0..1.0) < 0.5 {
                Template::MidAgg { producer }
            } else {
                let base = tables[rng.gen_range(0..tables.len())];
                Template::MidJoin { producer, base }
            }
        } else if rng.gen_range(0.0..1.0) < 0.5 {
            Template::BaseAgg {
                table: tables[rng.gen_range(0..tables.len())],
                shrink: SHRINKS[rng.gen_range(0..SHRINKS.len())],
            }
        } else {
            let a = rng.gen_range(0..tables.len());
            let b = rng.gen_range(0..tables.len());
            Template::BaseJoin {
                big: tables[a.max(b)],
                small: tables[a.min(b)],
            }
        };
        templates.push(template);
    }

    // Emit the statements: templates in order first, then Zipf draws.
    let mut out = Vec::with_capacity(queries);
    for i in 0..queries {
        let k = if i < distinct {
            i
        } else {
            let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, 0x5747 + i as u64));
            zipf_draw(&mut rng, distinct, config.zipf_skew)
        };
        out.push(DagStatement {
            label: format!("q{i}_t{k}"),
            sql: templates[k].sql(),
            output: Some(format!("out_{i}")),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn referenced_outputs(sql: &str) -> Vec<usize> {
        sql.split_whitespace()
            .filter_map(|tok| tok.strip_prefix("out_"))
            .filter_map(|rest| rest.parse().ok())
            .collect()
    }

    #[test]
    fn identical_configs_generate_identical_dags() {
        let cfg = DagConfig::default();
        assert_eq!(dag_workload(&cfg), dag_workload(&cfg));
        let other = DagConfig {
            seed: 8,
            ..cfg.clone()
        };
        assert_ne!(dag_workload(&cfg), dag_workload(&other));
    }

    #[test]
    fn outputs_are_unique_and_references_point_backwards() {
        let cfg = DagConfig {
            queries: 40,
            reuse: 0.5,
            intermediate_rate: 0.9,
            ..DagConfig::default()
        };
        let dag = dag_workload(&cfg);
        assert_eq!(dag.len(), 40);
        let outputs: BTreeSet<_> = dag.iter().filter_map(|s| s.output.clone()).collect();
        assert_eq!(outputs.len(), 40, "every statement publishes uniquely");
        for (i, stmt) in dag.iter().enumerate() {
            for j in referenced_outputs(&stmt.sql) {
                assert!(j < i, "statement {i} references out_{j} (not earlier)");
            }
        }
        // With a high intermediate rate, edges must actually exist.
        let edges: usize = dag.iter().map(|s| referenced_outputs(&s.sql).len()).sum();
        assert!(edges > 0, "expected at least one intermediate edge");
    }

    #[test]
    fn reuse_controls_the_number_of_distinct_shapes() {
        let unique = DagConfig {
            queries: 24,
            reuse: 0.0,
            ..DagConfig::default()
        };
        let heavy = DagConfig {
            queries: 24,
            reuse: 0.75,
            ..DagConfig::default()
        };
        let count_shapes = |cfg: &DagConfig| {
            dag_workload(cfg)
                .iter()
                .map(|s| s.sql.clone())
                .collect::<BTreeSet<_>>()
                .len()
        };
        assert_eq!(count_shapes(&unique), 24 - duplicate_collisions(&unique));
        assert!(count_shapes(&heavy) <= 24 / 4 + 1);
        assert!(count_shapes(&unique) > count_shapes(&heavy));
    }

    /// Distinct templates can still collide on identical SQL by chance
    /// (same table, same shrink); count those so the uniqueness
    /// assertion is exact rather than probabilistic.
    fn duplicate_collisions(cfg: &DagConfig) -> usize {
        let dag = dag_workload(cfg);
        let shapes: BTreeSet<_> = dag.iter().map(|s| s.sql.clone()).collect();
        dag.len() - shapes.len()
    }

    #[test]
    fn zipf_skew_concentrates_template_popularity() {
        let cfg = DagConfig {
            queries: 200,
            reuse: 0.95,
            zipf_skew: 1.5,
            intermediate_rate: 0.0,
            ..DagConfig::default()
        };
        let dag = dag_workload(&cfg);
        let distinct = 10; // 200 · (1 − 0.95)
        let mut counts = vec![0usize; distinct];
        for stmt in &dag {
            let t: usize = stmt
                .label
                .rsplit_once("_t")
                .and_then(|(_, t)| t.parse().ok())
                .expect("label carries the template id");
            counts[t] += 1;
        }
        assert!(
            counts[0] > counts[distinct - 1],
            "head template should dominate the tail: {counts:?}"
        );
    }

    #[test]
    fn base_tables_come_from_the_fig10_pool() {
        let cfg = DagConfig::default();
        let tables = dag_base_tables(&cfg);
        assert_eq!(tables.len(), 6);
        // Smallest-first: the pool is the cheap end of the grid.
        assert!(tables.windows(2).all(|w| w[0].rows <= w[1].rows));
    }
}
