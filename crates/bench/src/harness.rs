//! The one measurement harness behind the gated `exp_*` experiments.
//!
//! `hotpath`, `observability`, `frontend`, `drift` and `workload` differ
//! only in *what* they measure and which thresholds they hold the
//! numbers to. Everything else lives here, once: where a document goes
//! (`bench_path`), how it becomes a file (`write()`, `write_json`),
//! how a file becomes a checked document again (`read`, `parse`),
//! the `--validate` entry point every gated binary shares ([`main()`]),
//! the percentile summary (`summarize`), the latency sanity check
//! (`check_latencies`), the readers × republishers measurement scope
//! (`measure_under_churn`) and the aggregation model the serving-side
//! experiments cost against (`trained_flow`). An experiment is a cell
//! definition plus a [`BenchDoc::check`].
//!
//! File policy: a full run writes the tracked trajectory file
//! `BENCH_<name>.json` at the repo root; a `--quick` run writes
//! `<out_dir>/BENCH_<name>.json` (the gitignored `results/`), so a
//! smoke run never clobbers the trajectory; `out_dir: None` writes
//! nothing at all. `--validate` reads whichever of the two the presence
//! of `--quick` / `EXP_QUICK` selects.

use crate::report::ExpConfig;
use costing::logical_op::flow::LogicalOpCosting;
use costing::logical_op::model::{FitConfig, LogicalOpModel};
use costing::service::EstimatorService;
use costing::OperatorKind;
use neuro::Dataset;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The machine a document was measured on. Stamped by `write()`;
/// optional on read so documents written before the stamp existed
/// still validate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism` (0 when the OS will not say).
    pub logical_cores: u64,
    /// `"release"` or `"debug"`.
    pub profile: String,
}

impl Host {
    /// The host this process runs on.
    pub(crate) fn current() -> Self {
        Host {
            logical_cores: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }
}

/// A borrowed view of the fields every BENCH document carries beside
/// its experiment-specific ones.
pub struct Envelope<'a> {
    /// The `experiment` field; must equal [`BenchDoc::NAME`].
    pub experiment: &'a str,
    /// Whether the document came from a `--quick` run.
    pub quick: bool,
    /// How many rows the document holds; must be non-zero.
    pub rows: usize,
    /// The host stamp slot `write()` fills.
    pub host: &'a mut Option<Host>,
}

/// A tracked `BENCH_<name>.json` document: the shared envelope plus the
/// experiment's own gates.
pub trait BenchDoc: Serialize + Deserialize {
    /// Experiment name: the `experiment` field and the file-name stem.
    const NAME: &'static str;

    /// The shared envelope fields of this document.
    fn envelope(&mut self) -> Envelope<'_>;

    /// The experiment's own thresholds and cross-row checks.
    fn check(&self) -> Result<(), String>;

    /// One line describing a valid document (printed by `--validate`).
    fn summary(&self) -> String;
}

/// Where the `name` experiment's document lives under `cfg` — see the
/// module docs for the policy. `None` when file output is disabled.
pub(crate) fn bench_path(name: &str, cfg: &ExpConfig) -> Option<PathBuf> {
    let out_dir = cfg.out_dir.as_ref()?;
    let dir = if cfg.quick {
        out_dir.clone()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    };
    Some(dir.join(format!("BENCH_{name}.json")))
}

/// Serialises `doc` to `path` (creating its directory), reporting like
/// the CSV/text writers do: a warning on failure, the path on success.
pub(crate) fn write_json(path: &Path, doc: &impl Serialize) {
    let written = serde_json::to_string_pretty(doc)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(path, text + "\n").map_err(|e| e.to_string())
        });
    match written {
        Ok(()) => println!("  [json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Stamps the host into `doc` and writes it where [`bench_path`] says
/// (nowhere, unstamped, when output is disabled).
pub(crate) fn write<D: BenchDoc>(cfg: &ExpConfig, doc: &mut D) {
    if let Some(path) = bench_path(D::NAME, cfg) {
        *doc.envelope().host = Some(Host::current());
        write_json(&path, doc);
    }
}

/// Parses a document and validates it: JSON shape, experiment name,
/// non-empty rows, then the experiment's own [`BenchDoc::check`].
pub(crate) fn parse<D: BenchDoc>(text: &str) -> Result<D, String> {
    let mut doc: D =
        serde_json::from_str(text).map_err(|e| format!("not valid {} JSON: {e}", D::NAME))?;
    let envelope = doc.envelope();
    if envelope.experiment != D::NAME {
        return Err(format!("unexpected experiment {:?}", envelope.experiment));
    }
    if envelope.rows == 0 {
        return Err("no rows".to_string());
    }
    doc.check()?;
    Ok(doc)
}

/// Reads and validates the document at `path`.
pub(crate) fn read<D: BenchDoc>(path: &Path) -> Result<D, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{} failed validation: {e}", path.display()))
}

/// The whole `main` of a gated experiment binary: `--validate` checks
/// the existing document without running anything (exit 1 on failure),
/// otherwise `run` measures and writes a new one. `--quick` /
/// `EXP_QUICK` select the reduced run and its file in both modes.
pub fn main<D: BenchDoc, R>(run: impl FnOnce(&ExpConfig) -> R) {
    let cfg = ExpConfig::from_env();
    if !std::env::args().any(|a| a == "--validate") {
        run(&cfg);
        return;
    }
    let path = bench_path(D::NAME, &cfg).expect("from_env enables file output");
    match read::<D>(&path) {
        Ok(mut doc) => println!(
            "{} is valid: {}, quick = {}",
            path.display(),
            doc.summary(),
            doc.envelope().quick
        ),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Exact p50/p99/mean over one cell's per-call latencies (microseconds).
pub(crate) fn summarize(lat_us: &mut [f64]) -> (f64, f64, f64) {
    lat_us.sort_by(mathkit::total_cmp_f64);
    let p50 = mathkit::nearest_rank(lat_us, 0.50);
    let p99 = mathkit::nearest_rank(lat_us, 0.99);
    let mean = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    (p50, p99, mean)
}

/// The latency sanity every timed row passes: each named value finite
/// and positive (or zero when `zero_ok` — a sweep point may complete
/// nothing), and the values ascending in the order given.
pub(crate) fn check_latencies(
    row: usize,
    quantiles: &[(&str, f64)],
    zero_ok: bool,
) -> Result<(), String> {
    for &(name, v) in quantiles {
        if !v.is_finite() || v < 0.0 || (v == 0.0 && !zero_ok) {
            return Err(format!("row {row}: {name} = {v} is not a latency"));
        }
    }
    if quantiles.windows(2).any(|w| w[0].1 > w[1].1) {
        let values: Vec<String> = quantiles.iter().map(|(_, v)| v.to_string()).collect();
        return Err(format!(
            "row {row}: quantiles out of order ({})",
            values.join(" / ")
        ));
    }
    Ok(())
}

/// What one [`measure_under_churn`] slice observed.
pub(crate) struct Slice {
    /// Per-call latencies pooled over every reader, microseconds.
    pub lat_us: Vec<f64>,
    /// The last call's checksum (every call of a slice computes the same
    /// rows, so any one stands for all).
    pub checksum: f64,
    /// Wall time the readers ran for, seconds.
    pub elapsed_s: f64,
}

/// The readers × republishers measurement scope: `concurrency` reader
/// threads each build their own state with `new_reader` and then time
/// calls of it (one call = one batch, returning that batch's checksum)
/// for `duration`, while `republishers` background threads churn
/// `service`'s epochs.
pub(crate) fn measure_under_churn<R: FnMut() -> f64>(
    service: &EstimatorService,
    concurrency: usize,
    republishers: usize,
    duration: Duration,
    new_reader: impl Fn() -> R + Sync,
) -> Slice {
    let stop = AtomicBool::new(false);
    let (stop, new_reader) = (&stop, &new_reader);
    std::thread::scope(|scope| {
        let repub_handles: Vec<_> = (0..republishers)
            .map(|_| {
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let _ = service.republish();
                        std::thread::sleep(Duration::from_micros(200));
                    }
                })
            })
            .collect();
        let started = Instant::now();
        let readers: Vec<_> = (0..concurrency)
            .map(|_| {
                scope.spawn(move || {
                    let mut call = new_reader();
                    let mut lat_us = Vec::new();
                    let mut checksum = 0.0;
                    while started.elapsed() < duration {
                        let t0 = Instant::now();
                        checksum = std::hint::black_box(call());
                        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    (lat_us, checksum)
                })
            })
            .collect();
        let (mut lat_us, mut checksum) = (Vec::new(), 0.0);
        for r in readers {
            let (lat, sum) = r.join().expect("reader thread");
            lat_us.extend(lat);
            checksum = sum;
        }
        let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
        stop.store(true, Ordering::Release);
        for h in repub_handles {
            h.join().expect("republisher thread");
        }
        Slice {
            lat_us,
            checksum,
            elapsed_s,
        }
    })
}

/// The ground truth [`trained_flow`] is trained against.
pub(crate) fn agg_truth(rows: f64, size: f64) -> f64 {
    1.0 + 2e-6 * rows + 0.01 * size
}

/// The aggregation model the serving-side experiments cost against:
/// a two-feature `(rows, size)` flow fitted on a 15×4 grid of
/// `scale * agg_truth`. `scale` 1.0 is the model as trained; the epoch
/// churn writers flip between two scales.
pub(crate) fn trained_flow(scale: f64) -> LogicalOpCosting {
    let mut inputs = vec![];
    let mut targets = vec![];
    for r in 1..=15 {
        for s in 1..=4 {
            let rows = r as f64 * 1e5;
            let size = s as f64 * 100.0;
            inputs.push(vec![rows, size]);
            targets.push(scale * agg_truth(rows, size));
        }
    }
    let (model, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &["rows", "size"],
        &Dataset::new(inputs, targets),
        &FitConfig::fast(),
    );
    LogicalOpCosting::new(model)
}

/// `batch` row-major feature rows inside [`trained_flow`]'s trained
/// range, so a matrix measures the packed kernel and not the remedy.
pub(crate) fn in_range_flat(seed: u64, batch: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = Vec::with_capacity(batch * 2);
    for _ in 0..batch {
        v.push(rng.gen_range(1.0e5..1.5e6));
        v.push(rng.gen_range(100.0..400.0));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{drift, frontend, hotpath, observability, workload};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct ToyRow {
        p50_us: f64,
        p99_us: f64,
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct ToyDoc {
        experiment: String,
        quick: bool,
        seed: u64,
        #[serde(default)]
        host: Option<Host>,
        rows: Vec<ToyRow>,
    }

    impl BenchDoc for ToyDoc {
        const NAME: &'static str = "toy";

        fn envelope(&mut self) -> Envelope<'_> {
            Envelope {
                experiment: &self.experiment,
                quick: self.quick,
                rows: self.rows.len(),
                host: &mut self.host,
            }
        }

        fn check(&self) -> Result<(), String> {
            for (i, r) in self.rows.iter().enumerate() {
                check_latencies(i, &[("p50_us", r.p50_us), ("p99_us", r.p99_us)], false)?;
            }
            Ok(())
        }

        fn summary(&self) -> String {
            format!("{} toy rows", self.rows.len())
        }
    }

    fn toy() -> ToyDoc {
        ToyDoc {
            experiment: "toy".to_string(),
            quick: true,
            seed: 1,
            host: None,
            rows: vec![ToyRow {
                p50_us: 2.0,
                p99_us: 9.0,
            }],
        }
    }

    fn text(doc: &ToyDoc) -> String {
        serde_json::to_string(doc).unwrap()
    }

    #[test]
    fn quick_write_lands_in_out_dir_stamped_and_reads_back() {
        let dir = std::env::temp_dir().join("bench_harness_roundtrip_test");
        let cfg = ExpConfig {
            quick: true,
            out_dir: Some(dir.clone()),
            ..ExpConfig::default()
        };
        write(&cfg, &mut toy());
        let path = dir.join("BENCH_toy.json");
        let doc: ToyDoc = read(&path).expect("what write wrote validates");
        assert_eq!(doc.rows.len(), 1);
        assert_eq!(
            doc.host,
            Some(Host::current()),
            "the writer stamps the host"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_mode_targets_the_repo_root_and_disabled_output_writes_nothing() {
        let full = bench_path("toy", &ExpConfig::default()).unwrap();
        assert!(full.ends_with("../../BENCH_toy.json"), "{full:?}");
        let quick = bench_path(
            "toy",
            &ExpConfig {
                quick: true,
                ..ExpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(quick, Path::new("results/BENCH_toy.json"));

        let mut doc = toy();
        write(&ExpConfig::quick_silent(), &mut doc);
        assert_eq!(doc.host, None, "nothing stamped, nothing serialised");
        assert!(!full.exists() && !quick.exists());
    }

    #[test]
    fn parse_rejects_broken_envelopes_once_for_every_experiment() {
        assert!(parse::<ToyDoc>(&text(&toy())).is_ok());
        assert!(parse::<ToyDoc>("{}").is_err(), "missing fields");
        assert!(parse::<ToyDoc>("not json")
            .unwrap_err()
            .contains("not valid toy JSON"));

        let mut doc = toy();
        doc.experiment = "hotpath".to_string();
        assert!(parse::<ToyDoc>(&text(&doc))
            .unwrap_err()
            .contains("unexpected experiment"));

        let mut doc = toy();
        doc.rows.clear();
        assert!(parse::<ToyDoc>(&text(&doc))
            .unwrap_err()
            .contains("no rows"));

        // A document without a host stamp (anything written before the
        // stamp existed) still validates.
        let unstamped = r#"{"experiment":"toy","quick":false,"seed":1,
                            "rows":[{"p50_us":1.0,"p99_us":2.0}]}"#;
        assert_eq!(parse::<ToyDoc>(unstamped).unwrap().host, None);
    }

    #[test]
    fn shared_latency_check_rejects_nan_and_disorder() {
        let mut doc = toy();
        doc.rows[0].p50_us = 10.0; // above p99
        assert!(parse::<ToyDoc>(&text(&doc))
            .unwrap_err()
            .contains("quantiles out of order (10 / 9)"));

        // The shim renders NaN as null, so a NaN never survives a file
        // round trip; the check itself still refuses one.
        let nan = [("p50_us", f64::NAN), ("p99_us", 9.0)];
        assert!(check_latencies(0, &nan, true)
            .unwrap_err()
            .contains("not a latency"));
        assert!(check_latencies(0, &[("p50_us", -1.0)], true).is_err());
        assert!(check_latencies(0, &[("p50_us", 0.0)], false).is_err());
        assert!(check_latencies(0, &[("p50_us", 0.0), ("p99_us", 0.0)], true).is_ok());
    }

    /// A schema or gate edit that orphans a tracked trajectory file
    /// fails here, not at the next full regeneration.
    #[test]
    fn every_tracked_root_document_passes_its_validator() {
        fn tracked<D: BenchDoc>() {
            let path = bench_path(D::NAME, &ExpConfig::default()).unwrap();
            let mut doc: D = read(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(!doc.envelope().quick, "{} is full-mode", path.display());
        }
        tracked::<hotpath::HotpathDoc>();
        tracked::<observability::ObservabilityDoc>();
        tracked::<frontend::FrontendDoc>();
        tracked::<drift::DriftDoc>();
        tracked::<workload::WorkloadDoc>();
    }
}
