//! Seeded input generators. The program under test receives only what
//! these produce; `--seed` goes here and nowhere else.

use crate::fixture::{mix_seed, Fixture, TRAIN_MAX_ROWS};
use catalog::SystemId;
use costing::OperatorKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serving::frontend::EstimateRequest;
use std::collections::BTreeSet;
use workload::aggq::DEFAULT_SHRINK_FACTORS;
use workload::joinq::{PROJECTION_LEVELS, SELECTIVITY_PCTS};
use workload::{
    agg_training_queries, dag_workload, fig10_table_specs, join_training_queries, oor_join_queries,
    oor_table_specs, specs_up_to, AggQuery, DagConfig, DagStatement, JoinQuery, OpenLoopModel,
    RequestSampler, TableSpec, TenantMix,
};

/// Distinct statements in the `sql_adhoc` set.
pub const ADHOC_STATEMENTS: usize = 8_192;

/// Share of the ad-hoc set that touches a table beyond the trained range.
pub const OOR_SHARE: f64 = 0.10;

/// Templates and Zipf exponent of the `sql_repeat` stream.
pub const REPEAT_TEMPLATES: usize = 64;
/// Zipf exponent of template popularity (dashboard traffic).
pub const REPEAT_SKEW: f64 = 1.1;

/// Share of joins among the in-range statements of a set; the rest are
/// aggregations. It is the share the two Fig. 10 grids have between
/// them, fixed here so that the mix, and with it the cost of the median
/// statement, is the same for every seed.
pub const JOIN_SHARE: f64 = 0.74;

/// Every in-range statement, aggregations and joins apart: the Fig. 10
/// aggregation grid, and the join grid at all three projection levels,
/// over tables the models saw.
fn in_range_pools() -> (Vec<String>, Vec<String>) {
    let specs = specs_up_to(TRAIN_MAX_ROWS);
    let aggs = agg_training_queries(&specs)
        .iter()
        .map(AggQuery::sql)
        .collect();
    let mut joins = Vec::new();
    for q in join_training_queries(&specs) {
        for projection in 0..PROJECTION_LEVELS {
            joins.push(JoinQuery { projection, ..q }.sql());
        }
    }
    (aggs, joins)
}

/// Every out-of-range statement: the 45 of `workload::oor`, and
/// aggregations and joins over the tables above the trained row count.
fn out_of_range_pool() -> Vec<String> {
    let big: Vec<TableSpec> = fig10_table_specs()
        .into_iter()
        .filter(|s| s.rows > TRAIN_MAX_ROWS)
        .chain(oor_table_specs())
        .collect();
    let mut pool: BTreeSet<String> = oor_join_queries().iter().map(JoinQuery::sql).collect();
    for &table in &big {
        for &shrink_factor in &DEFAULT_SHRINK_FACTORS {
            for n_aggs in 1..=5 {
                pool.insert(
                    AggQuery {
                        table,
                        shrink_factor,
                        n_aggs,
                    }
                    .sql(),
                );
            }
        }
        for small_rows in [1_000_000, 4_000_000, 8_000_000] {
            for (i, &selectivity_pct) in SELECTIVITY_PCTS.iter().enumerate() {
                pool.insert(
                    JoinQuery {
                        big: table,
                        small: TableSpec::new(small_rows, table.record_bytes),
                        selectivity_pct,
                        projection: (i % PROJECTION_LEVELS as usize) as u8,
                    }
                    .sql(),
                );
            }
        }
    }
    pool.into_iter().collect()
}

/// `n` distinct statements in seeded order: `n_oor` of them out of
/// range, [`JOIN_SHARE`] of the others joins.
fn statement_mix(rng: &mut StdRng, n: usize, n_oor: usize) -> Vec<String> {
    let (mut aggs, mut joins) = in_range_pools();
    let mut outside = out_of_range_pool();
    let n_joins = ((n - n_oor) as f64 * JOIN_SHARE).round() as usize;
    let n_aggs = n - n_oor - n_joins;
    assert!(
        aggs.len() >= n_aggs && joins.len() >= n_joins && outside.len() >= n_oor,
        "statement pools too small: {} aggregations, {} joins, {} out of range",
        aggs.len(),
        joins.len(),
        outside.len()
    );
    let mut out = Vec::with_capacity(n);
    for (pool, take) in [
        (&mut aggs, n_aggs),
        (&mut joins, n_joins),
        (&mut outside, n_oor),
    ] {
        pool.shuffle(rng);
        out.extend(pool.drain(..take));
    }
    out.shuffle(rng);
    out
}

/// The `sql_adhoc` statement set: [`ADHOC_STATEMENTS`] distinct
/// single-statement SQL strings, [`OOR_SHARE`] of them out of range,
/// in seeded order.
pub fn adhoc_statements(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0xAD0C));
    let n_oor = (ADHOC_STATEMENTS as f64 * OOR_SHARE).round() as usize;
    statement_mix(&mut rng, ADHOC_STATEMENTS, n_oor)
}

/// `n` in-range statements in seeded order (for `facade_hybrid`).
pub fn in_range_statements(seed: u64, n: usize) -> Vec<String> {
    statement_mix(&mut StdRng::seed_from_u64(mix_seed(seed, 0x1A2E)), n, 0)
}

/// The `sql_repeat` templates, most popular first. Which statement
/// holds a rank is drawn from the seed; what kind of statement holds it
/// is not, because the few top ranks carry most of the traffic and the
/// median op would otherwise be a join for one seed and an aggregation
/// for the next. Of every four ranks three are joins and one is an
/// aggregation (about [`JOIN_SHARE`]); every tenth is out of range.
pub fn repeat_templates(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x2E9E));
    let (mut aggs, mut joins) = in_range_pools();
    let mut outside = out_of_range_pool();
    for pool in [&mut aggs, &mut joins, &mut outside] {
        pool.shuffle(&mut rng);
    }
    (0..REPEAT_TEMPLATES)
        .map(|rank| {
            let pool = match rank {
                r if r % 10 == 9 => &mut outside,
                r if r % 4 == 2 => &mut aggs,
                _ => &mut joins,
            };
            pool.pop().expect("each pool holds more than 64 statements")
        })
        .collect()
}

/// `len` indices into `n` items, item `i` drawn with weight
/// `1 / (i + 1)^skew`.
pub fn zipf_stream(seed: u64, n: usize, skew: f64, len: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x21FF));
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(skew);
        cumulative.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0.0..1.0) * total;
            cumulative.partition_point(|&c| c < u).min(n - 1) as u32
        })
        .collect()
}

/// One pre-built `estimate_serving` request and whether its features
/// were drawn beyond the trained range.
pub struct ServingInput {
    /// The request as the front-end takes it (tenant filled per arrival).
    pub request: EstimateRequest,
    /// Drawn from the widened ranges.
    pub out_of_range: bool,
}

/// `n` feature rows from `workload::RequestSampler`: four remote systems
/// × two operators, each feature uniform in the trained range of its
/// model, and [`OOR_SHARE`] of the rows with every range stretched to
/// three times its trained maximum (so nearly every such row has a
/// dimension out of range).
pub fn serving_inputs(fx: &Fixture, seed: u64, n: usize) -> Vec<ServingInput> {
    let remotes: Vec<&SystemId> = fx
        .systems
        .iter()
        .filter(|s| **s != SystemId::master())
        .collect();
    let ops = [OperatorKind::Join, OperatorKind::Aggregation];
    // One sampler per (operator, in/out of range): the operators differ
    // in arity, and the sampler takes one range list.
    let mut samplers = Vec::new();
    for (o, &op) in ops.iter().enumerate() {
        let meta = &fx.flow(remotes[0], op).model.meta;
        for (w, widen) in [1.0, 3.0].into_iter().enumerate() {
            let ranges: Vec<(f64, f64)> =
                meta.dims.iter().map(|d| (d.min, d.max * widen)).collect();
            let stream = mix_seed(seed, 0x5E21 + (2 * o + w) as u64);
            samplers.push(RequestSampler::new(stream, remotes.len(), &ranges));
        }
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x5E20));
    (0..n)
        .map(|_| {
            let o = rng.gen_range(0..ops.len());
            let out_of_range = rng.gen_bool(OOR_SHARE);
            let (slot, features) = samplers[2 * o + usize::from(out_of_range)].sample();
            ServingInput {
                request: EstimateRequest {
                    tenant: 0,
                    system: remotes[slot].clone(),
                    op: ops[o],
                    features,
                },
                out_of_range,
            }
        })
        .collect()
}

/// Tenants of the `estimate_serving` mix (Zipf, exponent 1).
pub const SERVING_TENANTS: usize = 16;

/// Poisson arrivals at `rate_per_sec` for `horizon_us`: `(due_us, tenant)`.
pub fn arrivals(seed: u64, rate_per_sec: f64, horizon_us: u64) -> Vec<(u64, u64)> {
    OpenLoopModel {
        seed: mix_seed(seed, 0xA221),
        rate_per_sec,
        mix: TenantMix::zipf(SERVING_TENANTS, 1.0),
    }
    .arrivals()
    .take_while(|a| a.at_micros < horizon_us)
    .map(|a| (a.at_micros, a.tenant))
    .collect()
}

/// Workload DAGs cycled by `dag_batch`. The issue asks for 8; what a
/// DAG costs to plan hangs on its shape (waves, merges), and the median
/// of 8 shapes lay 40% apart between seeds, that of 32 still 15%.
pub const DAGS: usize = 64;

/// The `dag_batch` DAGs: 48 statements each, half of them repeats, over
/// the 24 smallest tables, from [`DAGS`] derived seeds.
pub fn dag_workloads(seed: u64) -> Vec<Vec<DagStatement>> {
    (0..DAGS as u64)
        .map(|i| {
            dag_workload(&DagConfig {
                queries: 48,
                reuse: 0.5,
                intermediate_rate: 0.4,
                table_pool: 24,
                zipf_skew: 1.1,
                seed: mix_seed(seed, 0xDA6 + i),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_set_is_distinct_sized_and_seeded() {
        let a = adhoc_statements(7);
        assert_eq!(a.len(), ADHOC_STATEMENTS);
        let distinct: BTreeSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), ADHOC_STATEMENTS);
        assert_eq!(a, adhoc_statements(7));
        assert_ne!(a, adhoc_statements(8));
        for sql in a.iter().take(200) {
            sqlkit::sql_to_plan(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn statement_sets_have_the_same_mix_for_every_seed() {
        let joins = |set: &[String]| set.iter().filter(|s| s.contains(" JOIN ")).count();
        // Only the out-of-range tenth draws its kinds from the seed.
        let (j7, j8) = (joins(&adhoc_statements(7)), joins(&adhoc_statements(8)));
        assert!(j7.abs_diff(j8) < ADHOC_STATEMENTS / 100, "{j7} vs {j8}");
        let (a, b) = (repeat_templates(7), repeat_templates(8));
        assert_eq!(a.len(), REPEAT_TEMPLATES);
        assert_eq!(a, repeat_templates(7));
        assert_ne!(a, b);
        for (x, y) in a.iter().zip(&b).take(9) {
            assert_eq!(x.contains(" JOIN "), y.contains(" JOIN "), "{x} / {y}");
        }
        let facade = in_range_statements(7, 512);
        assert_eq!(joins(&facade), (512.0 * JOIN_SHARE).round() as usize);
    }

    #[test]
    fn zipf_stream_is_seeded_and_skewed() {
        let a = zipf_stream(3, REPEAT_TEMPLATES, REPEAT_SKEW, 10_000);
        assert_eq!(a, zipf_stream(3, REPEAT_TEMPLATES, REPEAT_SKEW, 10_000));
        assert_ne!(a, zipf_stream(4, REPEAT_TEMPLATES, REPEAT_SKEW, 10_000));
        assert!(a.iter().all(|&i| (i as usize) < REPEAT_TEMPLATES));
        let first = a.iter().filter(|&&i| i == 0).count();
        let last = a
            .iter()
            .filter(|&&i| i as usize == REPEAT_TEMPLATES - 1)
            .count();
        assert!(first > 10 * last.max(1), "{first} vs {last}");
    }

    #[test]
    fn arrival_stream_is_seeded_and_ascending() {
        let a = arrivals(5, 8_000.0, 250_000);
        assert_eq!(a, arrivals(5, 8_000.0, 250_000));
        assert_ne!(a, arrivals(6, 8_000.0, 250_000));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        // 8,000 req/s for a quarter second, within Poisson noise.
        assert!((1_700..2_300).contains(&a.len()), "{}", a.len());
        assert!(a.iter().all(|&(_, t)| (t as usize) < SERVING_TENANTS));
    }

    #[test]
    fn dag_workloads_are_seeded() {
        let a = dag_workloads(11);
        assert_eq!(a.len(), DAGS);
        assert!(a.iter().all(|d| d.len() == 48));
        assert_eq!(a, dag_workloads(11));
        assert_ne!(a, dag_workloads(12));
        assert_ne!(a[0], a[1]);
    }
}
