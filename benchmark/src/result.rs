//! Result files, and the two tools that read them: `compare` applies
//! each metric's own bound and direction to two sets of runs, `repeat`
//! prints median and quartiles per metric over one set.

use crate::spec::{metric, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub cores: u64,
    /// Build profile; the benchmark refuses to run a debug build.
    pub profile: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_head: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Threads generating load.
    pub generator_threads: u64,
    /// Threads the program under test was given.
    pub program_threads: u64,
}

/// One reading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One output or harness check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckResult {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
    /// Harness checks judge the measurement, output checks the program.
    pub harness: bool,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--trace`.
    pub trace: bool,
    /// `--seconds`.
    pub seconds: u64,
    /// Where it ran.
    pub host: HostStamp,
    /// Every output check held.
    pub correct: bool,
    /// Ops attempted in the measured pass.
    pub attempted: u64,
    /// Ops failed, rejected or shed in the measured pass.
    pub failed: u64,
    /// End-to-end metrics (`trace` off) or per-layer metrics (on).
    pub metrics: BTreeMap<String, Reading>,
    /// Count and accuracy readings that repeat exactly for a seed.
    pub digest: BTreeMap<String, f64>,
    /// Which percentile and sample count stand behind a tail reading.
    pub notes: BTreeMap<String, String>,
    /// Every check made.
    pub checks: Vec<CheckResult>,
    /// Wall time of the whole process, seconds.
    pub wall_s: f64,
}

/// Every workload, untraced and traced, for one seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Suite {
    /// `--seed`.
    pub seed: u64,
    /// Where it ran.
    pub host: HostStamp,
    /// Wall time of the whole command, seconds.
    pub wall_s: f64,
    /// Two runs per workload: untraced, then traced.
    pub runs: Vec<RunResult>,
}

/// What `run` (one suite) and `repeat` (several) write.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// The suites, in the order they ran.
    pub suites: Vec<Suite>,
}

impl ResultFile {
    /// Reads a result file.
    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Writes a result file.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
    }

    /// Every value of one metric on one workload, one per suite that
    /// has it.
    pub fn values(&self, workload: &str, name: &str) -> Vec<f64> {
        self.suites
            .iter()
            .flat_map(|s| &s.runs)
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(name).map(|m| m.value))
            .collect()
    }

    /// Every digest of one workload, one per run that has one.
    fn digests(&self, workload: &str) -> Vec<&BTreeMap<String, f64>> {
        self.suites
            .iter()
            .flat_map(|s| &s.runs)
            .filter(|r| r.workload == workload)
            .map(|r| &r.digest)
            .collect()
    }

    /// Count and accuracy readings that differ between two runs of one
    /// workload with one seed: `workload metric: a vs b`.
    pub fn digest_mismatches(&self) -> Vec<String> {
        let mut out = Vec::new();
        for suite in &self.suites {
            for (i, a) in suite.runs.iter().enumerate() {
                for b in &suite.runs[i + 1..] {
                    if a.workload != b.workload {
                        continue;
                    }
                    for (name, va) in &a.digest {
                        match b.digest.get(name) {
                            Some(vb) if va.to_bits() == vb.to_bits() => {}
                            other => out.push(format!(
                                "{} {name}: {va} vs {other:?} (seed {})",
                                a.workload, suite.seed
                            )),
                        }
                    }
                }
            }
        }
        out
    }
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the first set's own spread.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Worse by more than the metric's bound.
    Worse,
    /// The first set's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the second set of values against the first by the metric's
/// bound and direction. An exact metric must repeat to the bit.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool) -> Verdict {
    if exact {
        let same = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
        return if same {
            Verdict::Unchanged
        } else {
            Verdict::Worse
        };
    }
    let (ma, mb) = (median(a), median(b));
    // Positive when the second set is worse, as a share of the first.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let every_b_beats_every_a = b.iter().all(|vb| {
        a.iter().all(|va| match better {
            Better::Lower => vb < va,
            Better::Higher => vb > va,
        })
    });
    let own_spread = spread(a).unwrap_or(0.0);
    if worse_by > bound {
        return Verdict::Worse;
    }
    if own_spread > bound && !every_b_beats_every_a {
        return Verdict::Unresolved;
    }
    if -worse_by > own_spread.max(f64::EPSILON) && every_b_beats_every_a {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

/// Prints one line per workload × metric present in both files and
/// returns how many were judged worse or unresolved.
pub fn compare(a: &ResultFile, b: &ResultFile) -> usize {
    let mut flagged = 0;
    println!(
        "{:<17} {:<28} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let (va, vb) = (a.values(workload, m.name), b.values(workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            let verdict = match (m.bound, m.exact) {
                (Some(bound), _) => judge(&va, &vb, m.better, bound, false).as_str(),
                (None, true) => judge(&va, &vb, m.better, 0.0, true).as_str(),
                // A layer timing has no bound: the change is the reading.
                (None, false) => "-",
            };
            flagged += usize::from(verdict == "worse" || verdict == "unresolved");
            println!(
                "{workload:<17} {:<28} {ma:>14.6} {mb:>14.6} {change:>+8.2}%  {verdict}",
                m.name
            );
        }
        let (da, db) = (a.digests(workload), b.digests(workload));
        if let (Some(da), Some(db)) = (da.first(), db.first()) {
            for (name, va) in da.iter() {
                if metric(name).is_none() {
                    let same = db.get(name).is_some_and(|vb| vb.to_bits() == va.to_bits());
                    flagged += usize::from(!same);
                    println!(
                        "{workload:<17} {name:<28} {va:>14.6} {:>14.6} {:>9}  {}",
                        db.get(name).copied().unwrap_or(f64::NAN),
                        "",
                        if same { "unchanged" } else { "worse" }
                    );
                }
            }
        }
    }
    flagged
}

/// Prints median, quartiles and spread per workload × metric, marks a
/// spread above a third of the metric's bound, and returns how many
/// end-to-end spreads exceed their bound.
pub fn summarize(file: &ResultFile) -> usize {
    let mut over = 0;
    println!(
        "{:<17} {:<28} {:>3} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "n", "q1", "median", "q3", "spread"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let values = file.values(workload, m.name);
            let Some((q1, med, q3)) = quartiles(&values) else {
                continue;
            };
            let spread = spread(&values).unwrap_or(0.0);
            let mark = match m.bound {
                // The set-up time's spread is not held to its bound.
                Some(bound) if m.name != "setup_s" && spread > bound => {
                    over += 1;
                    " > bound"
                }
                Some(bound) if m.name != "setup_s" && spread > bound / 3.0 => " > bound/3",
                _ => "",
            };
            println!(
                "{workload:<17} {:<28} {:>3} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>7.2}%{mark}",
                m.name,
                values.len(),
                spread * 100.0
            );
        }
    }
    over
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostStamp {
        HostStamp {
            cores: 2,
            profile: "release".to_string(),
            git_head: "0123abc".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            generator_threads: 1,
            program_threads: 1,
        }
    }

    fn run(workload: &str, trace: bool, metrics: &[(&str, f64, &str)]) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed: 7,
            trace,
            seconds: 6,
            host: host(),
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Reading {
                            value: *v,
                            unit: u.to_string(),
                        },
                    )
                })
                .collect(),
            digest: [("sqlkit.stmts".to_string(), 1000.0)].into_iter().collect(),
            notes: [(
                "federation.plan_p99_us".to_string(),
                "p99 of 1000 samples".to_string(),
            )]
            .into_iter()
            .collect(),
            checks: vec![CheckResult {
                name: "argmin".to_string(),
                ok: true,
                detail: "1000 statements".to_string(),
                harness: false,
            }],
            wall_s: 12.5,
        }
    }

    fn file(op_p50: &[f64]) -> ResultFile {
        ResultFile {
            suites: op_p50
                .iter()
                .map(|&v| Suite {
                    seed: 7,
                    host: host(),
                    wall_s: 100.25,
                    runs: vec![
                        run("sql_adhoc", false, &[("op_p50_us", v, "us")]),
                        run("sql_adhoc", true, &[("sqlkit.parse_us", 2.4375, "us")]),
                    ],
                })
                .collect(),
        }
    }

    #[test]
    fn result_json_round_trips() {
        let original = file(&[231.0625, 229.5]);
        let text = serde_json::to_string_pretty(&original).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, original);
        assert_eq!(back.values("sql_adhoc", "op_p50_us"), vec![231.0625, 229.5]);
        assert!(back.values("sql_repeat", "op_p50_us").is_empty());
        assert!(back.digest_mismatches().is_empty());
    }

    #[test]
    fn digests_of_one_seed_must_agree() {
        let mut f = file(&[230.0]);
        f.suites[0].runs[1]
            .digest
            .insert("sqlkit.stmts".to_string(), 999.0);
        assert_eq!(f.digest_mismatches().len(), 1);
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let worse = [112.0, 113.0, 111.0, 112.5, 111.5];
        let better = [80.0, 81.0, 79.0, 80.5, 79.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        assert_eq!(
            judge(&a, &worse, Better::Lower, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &better, Better::Lower, 0.10, false),
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &same, Better::Lower, 0.10, false),
            Verdict::Unchanged
        );
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(
            judge(&a, &worse, Better::Higher, 0.10, false),
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &better, Better::Higher, 0.10, false),
            Verdict::Worse
        );
        // A first set that scatters more than the bound resolves nothing…
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&noisy, &same, Better::Lower, 0.10, false),
            Verdict::Unresolved
        );
        // …unless every run of the second set beats every run of the
        // first, by more than the first set scatters.
        let far_better = [30.0, 31.0, 29.0, 30.5, 29.5];
        assert_eq!(
            judge(&noisy, &far_better, Better::Lower, 0.10, false),
            Verdict::Improved
        );
        // Exact metrics repeat to the bit or are flagged.
        assert_eq!(
            judge(&[4.0, 4.0], &[4.0], Better::Lower, 0.0, true),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&[4.0, 4.0], &[4.5], Better::Lower, 0.0, true),
            Verdict::Worse
        );
    }
}
