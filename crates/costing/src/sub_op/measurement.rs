//! Probe-based sub-op measurement (Fig. 5's footnoted methodology).
//!
//! §4: "we avoided instrumenting and injecting special code inside the
//! remote system … Instead, we submitted primitive queries that execute
//! specific type of operations, and from that we extracted the values of
//! the individual sub-ops."
//!
//! The extraction uses two expert facts from the system profile: the
//! cluster's total parallelism (to convert observed elapsed slopes into
//! per-record *work*), and which sub-ops run driver-side (broadcast) vs
//! task-side. Everything else comes from subtraction against the ReadDFS
//! baseline, exactly as Fig. 5's footnotes prescribe ("Subtract rD from
//! the measured values").

use crate::sub_op::subop::SubOp;
use catalog::remote::{ProbeKind, ProbeSpec, SimDuration};
use mathkit::SimpleLinearModel;
use serde::{Deserialize, Serialize};
use sqlkit::RemoteSystem;

/// One executed probe query and its observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeObservation {
    /// The probe kind executed.
    pub kind: ProbeKind,
    /// Rows processed.
    pub rows: u64,
    /// Record size, bytes.
    pub record_bytes: u64,
    /// Whether the spill regime was forced (hash-build probes).
    pub spill: bool,
    /// Observed elapsed time, µs.
    pub elapsed_us: f64,
}

/// The result of running a probe suite on one remote system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubOpMeasurement {
    /// Raw observations, in execution order.
    pub observations: Vec<ProbeObservation>,
    /// Total task parallelism of the measured cluster (expert knowledge
    /// from the system profile).
    pub cores: f64,
    /// Node count (for broadcast interpretation).
    pub nodes: f64,
    /// Total probe queries executed.
    pub queries_run: usize,
    /// Remote busy time consumed by the suite — Fig. 13a's y-axis.
    pub training_time: SimDuration,
    /// Cumulative busy time after each probe.
    pub cumulative: Vec<SimDuration>,
}

/// Which probe measures a sub-op (paired against the ReadDFS baseline).
pub(crate) fn probe_for(subop: SubOp) -> ProbeKind {
    match subop {
        SubOp::ReadDfs => ProbeKind::ReadDfs,
        SubOp::WriteDfs => ProbeKind::ReadWriteDfs,
        SubOp::ReadLocal => ProbeKind::ReadDfsReadLocal,
        SubOp::WriteLocal => ProbeKind::ReadDfsWriteLocal,
        SubOp::Shuffle => ProbeKind::ReadDfsShuffle,
        SubOp::Broadcast => ProbeKind::ReadDfsBroadcast,
        SubOp::Sort => ProbeKind::ReadDfsSort,
        SubOp::Scan => ProbeKind::ReadDfsScan,
        SubOp::HashBuild => ProbeKind::ReadDfsHashBuild,
        SubOp::HashProbe => ProbeKind::ReadDfsHashProbe,
        SubOp::RecMerge => ProbeKind::ReadDfsMerge,
    }
}

impl SubOpMeasurement {
    /// Runs a probe suite against a remote system.
    pub fn run<R: RemoteSystem + ?Sized>(remote: &mut R, suite: &[ProbeSpec]) -> Self {
        let profile = remote.profile().clone();
        let start = remote.total_busy();
        let mut observations = Vec::with_capacity(suite.len());
        let mut cumulative = Vec::with_capacity(suite.len());
        for spec in suite {
            if let Ok(exec) = remote.submit_probe(spec) {
                observations.push(ProbeObservation {
                    kind: spec.kind,
                    rows: spec.rows,
                    record_bytes: spec.record_bytes,
                    spill: spec.force_spill,
                    elapsed_us: exec.elapsed.as_micros(),
                });
                cumulative.push(remote.total_busy() - start);
            }
        }
        SubOpMeasurement {
            observations,
            cores: (profile.total_cores() as f64).max(1.0),
            nodes: profile.nodes as f64,
            queries_run: suite.len(),
            training_time: cumulative.last().copied().unwrap_or(SimDuration::ZERO),
            cumulative,
        }
    }

    /// Observations for a kind/size/spill combination, as (rows, elapsed).
    fn series(&self, kind: ProbeKind, size: u64, spill: bool) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = self
            .observations
            .iter()
            .filter(|o| o.kind == kind && o.record_bytes == size && o.spill == spill)
            .map(|o| (o.rows as f64, o.elapsed_us))
            .collect();
        pts.sort_by(|a, b| mathkit::total_cmp_f64(&a.0, &b.0));
        pts
    }

    /// Elapsed of a specific probe, if it ran.
    fn elapsed_at(&self, kind: ProbeKind, rows: u64, size: u64, spill: bool) -> Option<f64> {
        self.observations
            .iter()
            .find(|o| {
                o.kind == kind && o.rows == rows && o.record_bytes == size && o.spill == spill
            })
            .map(|o| o.elapsed_us)
    }

    /// Record sizes covered for a probe kind.
    fn sizes(&self, kind: ProbeKind) -> Vec<u64> {
        let mut s: Vec<u64> = self
            .observations
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.record_bytes)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Derived per-record **work** (single-core µs) of a sub-op at one
    /// record size, averaged across the row counts — the paper's "group
    /// the measurements by the record size, and compute the average
    /// across the varying number of records".
    pub(crate) fn work_per_record(&self, subop: SubOp, size: u64, spill: bool) -> Option<f64> {
        let series = self.per_record_series(subop, size, spill);
        if series.is_empty() {
            return None;
        }
        Some(series.iter().map(|&(_, v)| v).sum::<f64>() / series.len() as f64)
    }

    /// The per-row-count series behind Figs. 7a/13b: derived per-record
    /// work at each row count (should be roughly flat).
    pub fn per_record_series(&self, subop: SubOp, size: u64, spill: bool) -> Vec<(u64, f64)> {
        let kind = probe_for(subop);
        if subop == SubOp::ReadDfs {
            // Baseline: slope of elapsed vs rows removes constant job
            // overheads; work = slope × cores. Reported per row count via
            // (elapsed − intercept) × cores / rows.
            let pts = self.series(kind, size, false);
            if pts.len() < 2 {
                return vec![];
            }
            let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
            let Ok(line) = SimpleLinearModel::fit(&xs, &ys) else {
                return vec![];
            };
            return pts
                .iter()
                .map(|&(rows, el)| {
                    (
                        rows as u64,
                        ((el - line.intercept) * self.cores / rows).max(0.0),
                    )
                })
                .collect();
        }
        // Everything else: subtract the ReadDFS elapsed at the same
        // (rows, size) — both probes share the read component and the job
        // overheads, so the difference isolates the target sub-op.
        let mut out = Vec::new();
        for o in &self.observations {
            if o.kind != kind || o.record_bytes != size || o.spill != spill {
                continue;
            }
            let Some(base) = self.elapsed_at(ProbeKind::ReadDfs, o.rows, size, false) else {
                continue;
            };
            let diff = (o.elapsed_us - base).max(0.0);
            let scale = if subop == SubOp::Broadcast {
                // Broadcast runs driver-side (serial): elapsed is work.
                1.0
            } else {
                self.cores
            };
            out.push((o.rows, diff * scale / o.rows as f64));
        }
        out.sort_by_key(|&(rows, _)| rows);
        out
    }

    /// Per-size derived points for a sub-op: `(record size, work µs/rec)`.
    pub(crate) fn per_size_points(&self, subop: SubOp, spill: bool) -> Vec<(f64, f64)> {
        self.sizes(probe_for(subop))
            .into_iter()
            .filter_map(|s| self.work_per_record(subop, s, spill).map(|w| (s as f64, w)))
            .collect()
    }

    /// Estimated fixed job overhead in µs (average intercept of the
    /// ReadDFS elapsed-vs-rows fits across record sizes). Used by the
    /// formulas as the per-stage constant.
    pub(crate) fn job_overhead_us(&self) -> f64 {
        let mut intercepts = Vec::new();
        for size in self.sizes(ProbeKind::ReadDfs) {
            let pts = self.series(ProbeKind::ReadDfs, size, false);
            if pts.len() < 2 {
                continue;
            }
            let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
            if let Ok(line) = SimpleLinearModel::fit(&xs, &ys) {
                intercepts.push(line.intercept.max(0.0));
            }
        }
        if intercepts.is_empty() {
            0.0
        } else {
            intercepts.iter().sum::<f64>() / intercepts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remote_sim::ClusterEngine;
    use workload::probe_suite;

    fn measured() -> SubOpMeasurement {
        let mut e = ClusterEngine::paper_hive("hive", 3).without_noise();
        SubOpMeasurement::run(&mut e, &probe_suite())
    }

    #[test]
    fn suite_runs_completely() {
        let m = measured();
        assert_eq!(m.observations.len(), m.queries_run);
        assert!(m.training_time > SimDuration::ZERO);
        assert_eq!(m.cores, 6.0);
    }

    #[test]
    fn read_dfs_work_matches_hidden_truth() {
        let m = measured();
        // Hidden truth: 0.0041·s + 0.6323 µs/record at s = 1000 → 4.7323.
        let w = m.work_per_record(SubOp::ReadDfs, 1000, false).unwrap();
        assert!((w - 4.7323).abs() < 0.3, "derived {w}");
    }

    #[test]
    fn write_dfs_derivation_by_subtraction() {
        let m = measured();
        // Truth: 0.0314·1000 + 0.7403 ≈ 32.14.
        let w = m.work_per_record(SubOp::WriteDfs, 1000, false).unwrap();
        assert!((w - 32.14).abs() < 1.0, "derived {w}");
    }

    #[test]
    fn per_record_series_is_flat_across_row_counts() {
        // The Fig. 7a / 13b observation: per-record cost ~constant vs rows.
        let m = measured();
        let series = m.per_record_series(SubOp::WriteDfs, 1000, false);
        assert_eq!(series.len(), 4);
        let vals: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        for v in &vals {
            assert!((v - mean).abs() / mean < 0.1, "series not flat: {vals:?}");
        }
    }

    #[test]
    fn broadcast_is_measured_serially() {
        let m = measured();
        // Truth: per-node 0.0105·s + 4.2, × 3 nodes. At s=500: 28.35.
        let w = m.work_per_record(SubOp::Broadcast, 500, false).unwrap();
        assert!((w - 28.35).abs() < 3.0, "derived {w}");
    }

    #[test]
    fn hash_build_regimes_differ() {
        let m = measured();
        let mem = m.work_per_record(SubOp::HashBuild, 1000, false).unwrap();
        let spill = m.work_per_record(SubOp::HashBuild, 1000, true).unwrap();
        // Truth: ~43 vs ~130.
        assert!(spill > 2.0 * mem, "mem {mem} spill {spill}");
    }

    #[test]
    fn job_overhead_is_positive_and_near_stage_startup() {
        let m = measured();
        let oh = m.job_overhead_us();
        // Hive persona: 2 s stage startup + ~wave startups.
        assert!(oh > 1.0e6 && oh < 4.0e6, "overhead {oh}");
    }

    #[test]
    fn per_size_points_cover_probe_sizes() {
        let m = measured();
        let pts = m.per_size_points(SubOp::Shuffle, false);
        assert_eq!(pts.len(), 5);
        // Monotone increasing with record size.
        for w in pts.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
    }
}
