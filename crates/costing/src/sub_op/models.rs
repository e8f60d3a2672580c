//! Fitted sub-op cost models.
//!
//! §4: "a simple linear regression costing model can be built … a big
//! advantage of the sub-op costing approach is that most sub-ops have
//! simple and tight linear regression models that can be easily learned
//! from small training dataset. Moreover, these models are easy to
//! extrapolate for un-seen values." HashBuild gets the Fig. 13f
//! two-regime treatment.

use crate::sub_op::measurement::SubOpMeasurement;
use crate::sub_op::subop::SubOp;
use mathkit::SimpleLinearModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum SubOpModelError {
    /// A basic sub-op has no measurements — the paper deems the approach
    /// inapplicable without them.
    MissingBasicSubOp(SubOp),
    /// Regression failed (degenerate measurements).
    FitFailed(SubOp),
}

impl std::fmt::Display for SubOpModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubOpModelError::MissingBasicSubOp(s) => {
                write!(f, "no measurements for mandatory sub-op {s}")
            }
            SubOpModelError::FitFailed(s) => write!(f, "regression failed for sub-op {s}"),
        }
    }
}

impl std::error::Error for SubOpModelError {}

/// IntelliSphere's rough defaults for *Specific* sub-ops when a remote
/// system's probes don't cover them (§4: "IntelliSphere can provide rough
/// default values for them").
#[expect(
    clippy::unreachable,
    reason = "private fn; callers guard on SubOp::is_specific before reaching here"
)]
fn default_model(subop: SubOp) -> SimpleLinearModel {
    let (slope, intercept) = match subop {
        SubOp::Sort => (0.005, 1.5),
        SubOp::Scan => (0.001, 0.2),
        SubOp::HashBuild => (0.03, 20.0),
        SubOp::HashProbe => (0.012, 2.5),
        SubOp::RecMerge => (0.04, 40.0),
        // Basic sub-ops have no defaults — they are mandatory.
        _ => unreachable!("default_model called for basic sub-op"),
    };
    SimpleLinearModel {
        slope,
        intercept,
        r2: 0.0,
    }
}

/// The complete fitted model set for one remote system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubOpModels {
    /// Per-sub-op linear models: work µs/record as a function of record
    /// size. `HashBuild` here is the **in-memory** regime.
    pub linear: BTreeMap<SubOp, SimpleLinearModel>,
    /// The spill-regime HashBuild model (Fig. 13f's second line).
    pub hash_spilled: SimpleLinearModel,
    /// Learned fixed per-stage overhead, µs (from probe intercepts).
    pub job_overhead_us: f64,
    /// Cluster parallelism (from the system profile).
    pub cores: f64,
    /// Node count.
    pub nodes: f64,
    /// Per-task hash memory budget, bytes (expert input; decides the
    /// HashBuild regime).
    pub task_hash_budget_bytes: f64,
}

impl SubOpModels {
    /// Fits all models from a measurement campaign.
    #[expect(
        clippy::indexing_slicing,
        reason = "linear holds a line for every sub-op once the loop above has run"
    )]
    pub fn fit(m: &SubOpMeasurement, task_hash_budget_bytes: f64) -> Result<Self, SubOpModelError> {
        let mut linear = BTreeMap::new();
        for subop in SubOp::ALL {
            let pts = m.per_size_points(subop, false);
            if pts.len() < 2 {
                match subop.category() {
                    crate::sub_op::subop::SubOpCategory::Basic => {
                        return Err(SubOpModelError::MissingBasicSubOp(subop))
                    }
                    crate::sub_op::subop::SubOpCategory::Specific => {
                        linear.insert(subop, default_model(subop));
                        continue;
                    }
                }
            }
            let (xs, ys): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
            let model =
                SimpleLinearModel::fit(&xs, &ys).map_err(|_| SubOpModelError::FitFailed(subop))?;
            linear.insert(subop, model);
        }
        let spill_pts = m.per_size_points(SubOp::HashBuild, true);
        let hash_spilled = if spill_pts.len() >= 2 {
            let (xs, ys): (Vec<f64>, Vec<f64>) = spill_pts.into_iter().unzip();
            SimpleLinearModel::fit(&xs, &ys)
                .map_err(|_| SubOpModelError::FitFailed(SubOp::HashBuild))?
        } else {
            // Fall back to 3× the in-memory model.
            let mem = &linear[&SubOp::HashBuild];
            SimpleLinearModel {
                slope: mem.slope * 3.0,
                intercept: mem.intercept * 3.0,
                r2: 0.0,
            }
        };
        Ok(SubOpModels {
            linear,
            hash_spilled,
            job_overhead_us: m.job_overhead_us(),
            cores: m.cores,
            nodes: m.nodes,
            task_hash_budget_bytes,
        })
    }

    /// Per-record work (µs) of a sub-op at a record size. `HashBuild`
    /// resolves to the in-memory regime; use
    /// [`SubOpModels::hash_build_us`] for regime-aware costing.
    #[expect(
        clippy::indexing_slicing,
        reason = "fit stores a line for every sub-op"
    )]
    pub(crate) fn per_record_us(&self, subop: SubOp, record_bytes: f64) -> f64 {
        self.linear[&subop].predict(record_bytes).max(0.0)
    }

    /// Regime-aware HashBuild cost per record: the spill model is used
    /// when the table exceeds the per-task budget ("if the broadcasted
    /// relation fits in memory … then the corresponding model is used.
    /// Otherwise … the other model").
    pub(crate) fn hash_build_us(&self, record_bytes: f64, table_bytes: f64) -> f64 {
        let mem = self.per_record_us(SubOp::HashBuild, record_bytes);
        if table_bytes <= self.task_hash_budget_bytes {
            mem
        } else {
            self.hash_spilled.predict(record_bytes).max(mem)
        }
    }

    /// The fitted line for one sub-op (for reports/figures).
    #[expect(
        clippy::indexing_slicing,
        reason = "fit stores a line for every sub-op"
    )]
    pub fn line(&self, subop: SubOp) -> &SimpleLinearModel {
        &self.linear[&subop]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sub_op::measurement::SubOpMeasurement;
    use remote_sim::ClusterEngine;
    use workload::probe_suite;

    fn fitted() -> SubOpModels {
        let mut e = ClusterEngine::paper_hive("hive", 3).without_noise();
        let m = SubOpMeasurement::run(&mut e, &probe_suite());
        // The paper cluster's per-task budget.
        SubOpModels::fit(&m, 8.0 * 1024.0 * 1024.0 * 1024.0 * 0.10 / 2.0).unwrap()
    }

    #[test]
    fn recovered_lines_match_hidden_truth() {
        let models = fitted();
        // ReadDFS truth: 0.0041·s + 0.6323.
        let rd = models.line(SubOp::ReadDfs);
        assert!((rd.slope - 0.0041).abs() < 0.0005, "slope {}", rd.slope);
        assert!(
            (rd.intercept - 0.6323).abs() < 0.3,
            "intercept {}",
            rd.intercept
        );
        // WriteDFS truth: 0.0314·s + 0.7403 (Fig. 13c).
        let wd = models.line(SubOp::WriteDfs);
        assert!((wd.slope - 0.0314).abs() < 0.002, "slope {}", wd.slope);
        // Shuffle truth: 0.0126·s + 5.2551 (Fig. 13d).
        let sh = models.line(SubOp::Shuffle);
        assert!((sh.slope - 0.0126).abs() < 0.002, "slope {}", sh.slope);
        assert!(
            (sh.intercept - 5.2551).abs() < 1.0,
            "intercept {}",
            sh.intercept
        );
        // RecMerge truth: 0.0344·s + 36.701 (Fig. 13e).
        let rm = models.line(SubOp::RecMerge);
        assert!((rm.slope - 0.0344).abs() < 0.003);
        assert!((rm.intercept - 36.701).abs() < 3.0);
    }

    #[test]
    fn fits_are_tight() {
        // The paper reports R² ≥ 0.95 for the sub-op lines.
        let models = fitted();
        for subop in [
            SubOp::ReadDfs,
            SubOp::WriteDfs,
            SubOp::Shuffle,
            SubOp::RecMerge,
        ] {
            assert!(
                models.line(subop).r2 > 0.95,
                "{subop}: r2 {}",
                models.line(subop).r2
            );
        }
    }

    #[test]
    fn hash_regimes_switch_on_budget() {
        let models = fitted();
        let small_table = models.hash_build_us(1000.0, 1.0e6);
        let big_table = models.hash_build_us(1000.0, 1.0e12);
        assert!(
            big_table > 2.0 * small_table,
            "mem {small_table} spill {big_table}"
        );
    }

    #[test]
    fn extrapolation_beyond_probed_sizes_is_linear() {
        let models = fitted();
        let at_2000 = models.per_record_us(SubOp::WriteDfs, 2000.0);
        let truth = 0.0314 * 2000.0 + 0.7403;
        assert!(
            (at_2000 - truth).abs() / truth < 0.1,
            "extrapolated {at_2000} vs {truth}"
        );
    }

    #[test]
    fn missing_basic_subop_is_fatal_missing_specific_defaults() {
        let mut e = ClusterEngine::paper_hive("hive", 3).without_noise();
        // Suite with only ReadDfs probes: all other basics missing.
        let suite = workload::probe_suite_for(catalog::remote::ProbeKind::ReadDfs);
        let m = SubOpMeasurement::run(&mut e, &suite);
        assert!(matches!(
            SubOpModels::fit(&m, 1e9),
            Err(SubOpModelError::MissingBasicSubOp(_))
        ));
    }
}
