//! Phase 1 of logical-op costing: executing the training grid on the
//! remote system and labelling each configuration with its observed cost
//! (the Fig. 2 table and the training-cost curves of Figs. 11a/12a).

use crate::{
    estimator::OperatorKind,
    features::{agg_features, join_features},
};
use catalog::remote::SimDuration;
use neuro::Dataset;
use serde::{Deserialize, Serialize};
use sqlkit::{analyze::analyze, RemoteSystem};

/// One executed training query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledRun {
    /// The query that was executed.
    pub sql: String,
    /// The model features of the query.
    pub features: Vec<f64>,
    /// Observed elapsed time, seconds.
    pub elapsed_secs: f64,
}

/// The outcome of a training campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOutput {
    /// Which operator was trained.
    pub op: OperatorKind,
    /// Every labelled run, in execution order.
    pub runs: Vec<LabeledRun>,
    /// Cumulative remote busy time after each query — the y-axis of
    /// Figs. 11a and 12a against query index.
    pub cumulative: Vec<SimDuration>,
    /// Queries that failed feature extraction or execution (kept for
    /// observability; an occasional failure must not abort a multi-hour
    /// campaign).
    pub failures: Vec<(String, String)>,
}

impl TrainingOutput {
    /// The labelled runs as a [`Dataset`] (features → elapsed seconds).
    pub fn dataset(&self) -> Dataset {
        Dataset::new(
            self.runs.iter().map(|r| r.features.clone()).collect(),
            self.runs.iter().map(|r| r.elapsed_secs).collect(),
        )
    }

    /// Total training time on the remote system.
    pub fn total_time(&self) -> SimDuration {
        self.cumulative.last().copied().unwrap_or(SimDuration::ZERO)
    }
}

/// Executes `queries` against `remote`, extracting the operator features
/// of each and labelling them with observed elapsed times.
///
/// This is deliberately sequential — the paper's training cost figures
/// assume one query at a time on a dedicated cluster ("we assume the
/// remote system is dedicated to the submitted queries").
pub fn run_training<R: RemoteSystem + ?Sized>(
    remote: &mut R,
    op: OperatorKind,
    queries: &[String],
) -> TrainingOutput {
    let mut runs = Vec::with_capacity(queries.len());
    let mut cumulative = Vec::with_capacity(queries.len());
    let mut failures = Vec::new();
    let start = remote.total_busy();

    for sql in queries {
        let features = match extract_features(remote, op, sql) {
            Ok(f) => f,
            Err(msg) => {
                failures.push((sql.clone(), msg));
                continue;
            }
        };
        match remote.submit_sql(sql) {
            Ok(exec) => {
                runs.push(LabeledRun {
                    sql: sql.clone(),
                    features,
                    elapsed_secs: exec.elapsed.as_secs(),
                });
                cumulative.push(remote.total_busy() - start);
            }
            Err(e) => failures.push((sql.clone(), e.to_string())),
        }
    }
    TrainingOutput {
        op,
        runs,
        cumulative,
        failures,
    }
}

fn extract_features<R: RemoteSystem + ?Sized>(
    remote: &R,
    op: OperatorKind,
    sql: &str,
) -> Result<Vec<f64>, String> {
    let plan = sqlkit::sql_to_plan(sql).map_err(|e| e.to_string())?;
    let analysis = analyze(remote.catalog(), &plan).map_err(|e| e.to_string())?;
    match op {
        OperatorKind::Join => join_features(&analysis)
            .map(|f| f.to_vec())
            .ok_or_else(|| "query has no join operator".to_string()),
        OperatorKind::Aggregation => agg_features(&analysis)
            .map(|f| f.to_vec())
            .ok_or_else(|| "query has no aggregation operator".to_string()),
        OperatorKind::Scan | OperatorKind::Sort => {
            Err("only join and aggregation operators are grid-trained".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remote_sim::ClusterEngine;
    use workload::{agg_training_queries, join_training_queries, register_tables, TableSpec};

    fn small_engine() -> ClusterEngine {
        let mut e = ClusterEngine::paper_hive("hive", 11).without_noise();
        let specs = [
            TableSpec::new(10_000, 40),
            TableSpec::new(20_000, 40),
            TableSpec::new(40_000, 40),
        ];
        register_tables(&mut e, &specs).unwrap();
        e
    }

    #[test]
    fn aggregation_training_produces_labeled_dataset() {
        let mut e = small_engine();
        let queries: Vec<String> = agg_training_queries(&[TableSpec::new(10_000, 40)])
            .iter()
            .map(|q| q.sql())
            .collect();
        let out = run_training(&mut e, OperatorKind::Aggregation, &queries);
        assert_eq!(out.runs.len(), queries.len());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let ds = out.dataset();
        assert_eq!(ds.arity(), crate::features::AGG_DIMS);
        assert!(ds.targets.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn join_training_produces_seven_dim_dataset() {
        let mut e = small_engine();
        let specs = [
            TableSpec::new(10_000, 40),
            TableSpec::new(20_000, 40),
            TableSpec::new(40_000, 40),
        ];
        let queries: Vec<String> = join_training_queries(&specs)
            .iter()
            .map(|q| q.sql())
            .collect();
        let out = run_training(&mut e, OperatorKind::Join, &queries);
        assert_eq!(out.runs.len(), queries.len());
        assert_eq!(out.dataset().arity(), crate::features::JOIN_DIMS);
    }

    #[test]
    fn cumulative_time_is_monotone() {
        let mut e = small_engine();
        let queries: Vec<String> = agg_training_queries(&[TableSpec::new(10_000, 40)])
            .iter()
            .take(10)
            .map(|q| q.sql())
            .collect();
        let out = run_training(&mut e, OperatorKind::Aggregation, &queries);
        for w in out.cumulative.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(out.total_time(), *out.cumulative.last().unwrap());
    }

    #[test]
    fn bad_queries_are_collected_not_fatal() {
        let mut e = small_engine();
        let queries = vec![
            "SELECT a5, SUM(a1) AS s FROM T10000_40 GROUP BY a5".to_string(),
            "SELECT a5, SUM(a1) AS s FROM missing_table GROUP BY a5".to_string(),
            "SELECT a1 FROM T10000_40".to_string(), // no aggregation
        ];
        let out = run_training(&mut e, OperatorKind::Aggregation, &queries);
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.failures.len(), 2);
    }
}
