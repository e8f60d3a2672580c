//! The repository benchmark.
//!
//! One request, one budget: six workloads drive the workspace's public
//! entry points from outside, an untraced pass gives the end-to-end
//! metrics, a replay of the same seeded stream through the decomposed
//! pipeline gives the per-layer metrics and checks the outputs.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! benchmark run [--seed <n>] [--seconds <s>]       every workload, untraced then traced
//! benchmark repeat --n <k> [--seed <n>]            `run` k times; median and quartiles
//! benchmark compare <a.json> <b.json>              verdict per workload × metric
//! benchmark spec                                   prints BENCHMARK.json
//! ```

mod fixture;
mod gen;
mod harness;
mod host;
mod hostspeed;
mod openloop;
mod result;
mod span;
mod spec;
mod stats;
mod workloads;

use fixture::Fixture;
use harness::{Mode, Workload};
use result::{CheckResult, Reading, ResultFile, RunResult, Suite};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{churn, dag, facade, serving, sql};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where result and trace files go, relative to the working directory.
const DEFAULT_OUT: &str = "benchmark/out";

/// Builds a workload's inputs and program state from the seed.
fn make_workload(name: &str, fx: &mut Fixture, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sql_adhoc" => Box::new(sql::SqlWorkload::adhoc(fx, seed)),
        "sql_repeat" => Box::new(sql::SqlWorkload::repeat(fx, seed)),
        "estimate_serving" => Box::new(serving::ServingWorkload::new(fx, seed)),
        "dag_batch" => Box::new(dag::DagWorkload::new(fx, seed)),
        "feedback_churn" => Box::new(churn::ChurnWorkload::new(fx, seed)),
        "facade_hybrid" => Box::new(facade::FacadeWorkload::new(fx, seed)),
        _ => return None,
    })
}

/// The value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a whole number, got `{v}`")),
    }
}

fn write_trace(path: &str, spans: &[span::Span]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == span::NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"replay\": {}}}{comma}",
            s.name, s.op, s.start_ns, s.end_ns, s.replay
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// One run of one workload: the driver's form.
fn run_one(args: &[String]) -> Result<RunResult, String> {
    let started = Instant::now();
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    if spec::workload_index(name).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload `{name}`; one of {names:?}"));
    }
    let seed = flag_u64(args, "--seed", 1)?;
    let seconds = flag_u64(args, "--seconds", RUN_SECONDS)?.max(1);
    let trace = flag_u64(args, "--trace", 0)? != 0;
    let out_dir = flag(args, "--out").unwrap_or(DEFAULT_OUT);

    // The allocator takes a faster path (a loop of small allocations
    // runs half again as fast) for as long as a process has never
    // started a thread. The planner runs inside a server, which has; so
    // has every workload here after this line, the single-thread ones
    // too, and a layer reading means the same on all six.
    std::thread::spawn(|| {})
        .join()
        .map_err(|_| "a thread that does nothing panicked")?;

    // Set-up, several times when its time is reported: each time the
    // whole fixture and the workload's own inputs and program state.
    let mut setup_s = Vec::new();
    let mut fit_slowdown = 1.0;
    let mut state = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(state.take());
        let mut timer = hostspeed::ReferenceTimer::start();
        let mut fx = Fixture::build(&mut timer);
        fit_slowdown = fx.fit_slowdown;
        let workload = make_workload(name, &mut fx, seed).expect("name checked above");
        timer.lap();
        setup_s.push(timer.secs);
        state = Some((fx, workload));
    }
    let (mut fx, mut workload) = state.expect("at least one set-up");

    let measured = workload.measure(&mut fx, seconds as f64);
    let mut replay = workload.replay(&mut fx, if trace { Mode::Trace } else { Mode::Check });
    replay.at_reference_speed();

    let gap = span::accounting_gap(replay.spans.spans()).unwrap_or(0.0);
    replay.harness_check(
        "self times add up to the root span (5%)",
        gap <= 0.05,
        format!("median gap {:.3}%", gap * 100.0),
    );
    let untraced_us = replay
        .untraced_op_p50_us
        .unwrap_or_else(|| measured.typical_op_us());
    replay.layers.insert(
        "bench.trace_overhead_pct",
        (replay.op_p50_us - untraced_us) / untraced_us * 100.0,
    );
    replay
        .layers
        .insert("neuro.fit_ms", stats::median(&fx.fit_ms) / fit_slowdown);

    let mut metrics: BTreeMap<String, Reading> = BTreeMap::new();
    let mut checks = std::mem::take(&mut replay.checks);
    let mut notes: BTreeMap<String, String> = replay
        .notes
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    notes.insert("op_latency".to_string(), measured.latency_note());
    if trace {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
        let path = format!("{out_dir}/{name}.trace.json");
        write_trace(&path, replay.spans.spans()).map_err(|e| format!("{path}: {e}"))?;

        // Layers this workload never calls are read from a short replay
        // of a workload that does, so every layer has a reading.
        let mut layers = replay.layers.clone();
        for (other, _) in WORKLOADS {
            if PER_LAYER.iter().all(|m| layers.contains_key(m.name)) {
                break;
            }
            if other == name {
                continue;
            }
            let mut filler = make_workload(other, &mut fx, seed).expect("a listed workload");
            let mut fill = filler.replay(&mut fx, Mode::Fill);
            fill.at_reference_speed();
            for (metric, value) in fill.layers {
                if let std::collections::btree_map::Entry::Vacant(slot) = layers.entry(metric) {
                    slot.insert(value);
                    let note = fill
                        .notes
                        .get(metric)
                        .map(|n| format!("{n}, "))
                        .unwrap_or_default();
                    notes.insert(
                        metric.to_string(),
                        format!("{note}from a short {other} replay"),
                    );
                }
            }
            // A short replay's output checks still judge the program;
            // its harness checks would judge a measurement nobody reads.
            let output_checks = fill.checks.into_iter().filter(|c| !c.harness);
            checks.extend(output_checks.map(|c| CheckResult {
                name: format!("{other}: {}", c.name),
                ..c
            }));
        }
        for m in PER_LAYER {
            let value = *layers
                .get(m.name)
                .ok_or_else(|| format!("no workload produced a reading for {}", m.name))?;
            metrics.insert(
                m.name.to_string(),
                Reading {
                    value,
                    unit: m.unit.to_string(),
                },
            );
        }
    } else {
        let peak_rss_mb = host::peak_rss_mb().ok_or("no VmHWM line in /proc/self/status")?;
        for (metric, value) in [
            ("setup_s", stats::median(&setup_s)),
            ("ops_per_s", measured.ops_per_s()),
            ("op_p50_us", measured.op_p50_us()),
            ("ok_share", measured.ok_share()),
            ("slo_ok_share", measured.slo_ok_share()),
            ("peak_rss_mb", peak_rss_mb),
        ] {
            let unit = spec::metric(metric).expect("listed in END_TO_END").unit;
            metrics.insert(
                metric.to_string(),
                Reading {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        debug_assert_eq!(metrics.len(), END_TO_END.len());
    }
    if let Some((metric, _)) = metrics.iter().find(|(_, r)| !r.value.is_finite()) {
        return Err(format!("{metric} has no finite reading"));
    }

    let (generators, program) = host::thread_counts(name);
    Ok(RunResult {
        workload: name.to_string(),
        seed,
        trace,
        seconds,
        host: host::stamp(generators, program),
        correct: checks.iter().all(|c| c.ok || c.harness),
        attempted: measured.attempted(),
        failed: measured.failed(),
        metrics,
        digest: replay.digest,
        notes,
        checks,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Prints a run: one `workload metric value unit` line per metric, any
/// failed check, and last the one-line JSON object the driver reads.
fn print_run(r: &RunResult) {
    for (name, m) in &r.metrics {
        println!("{} {name} {} {}", r.workload, m.value, m.unit);
    }
    for c in r.checks.iter().filter(|c| !c.ok) {
        let kind = if c.harness { "harness" } else { "output" };
        println!(
            "{} FAILED {kind} check: {} ({})",
            r.workload, c.name, c.detail
        );
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

/// Every workload, untraced then traced, one process each so that
/// `setup_s` and `peak_rss_mb` are per workload.
fn run_suite(args: &[String]) -> Result<Suite, String> {
    let started = Instant::now();
    let seed = flag_u64(args, "--seed", 1)?;
    let seconds = flag_u64(args, "--seconds", RUN_SECONDS)?;
    let out_dir = flag(args, "--out").unwrap_or(DEFAULT_OUT);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in [0, 1] {
            let path = format!("{out_dir}/{workload}.t{trace}.json");
            let mut child = Command::new(&exe)
                .args(["--workload", workload, "--save", &path, "--out", out_dir])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = child.stdout.take().expect("piped above");
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                // The child's last line is for the driver; the rest is ours.
                if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            let status = child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("{workload} --trace {trace} exited with {status}"));
            }
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            runs.push(
                serde_json::from_str::<RunResult>(&text).map_err(|e| format!("{path}: {e}"))?,
            );
        }
    }
    Ok(Suite {
        seed,
        host: host::stamp(0, 0),
        wall_s: started.elapsed().as_secs_f64(),
        runs,
    })
}

/// Failed checks and digest mismatches of a result file, one per line.
fn failures(file: &ResultFile) -> Vec<String> {
    let mut out: Vec<String> = file
        .suites
        .iter()
        .flat_map(|s| &s.runs)
        .flat_map(|r| {
            r.checks.iter().filter(|c| !c.ok).map(move |c| {
                format!(
                    "{} --trace {}: {} ({})",
                    r.workload,
                    u8::from(r.trace),
                    c.name,
                    c.detail
                )
            })
        })
        .collect();
    out.extend(
        file.digest_mismatches().into_iter().map(|m| {
            format!("count or accuracy reading differs between two runs of one seed: {m}")
        }),
    );
    out
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".to_string());
    }
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json(RUN_SECONDS));
            Ok(true)
        }
        Some("compare") => {
            let (a, b) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => (ResultFile::load(a)?, ResultFile::load(b)?),
                _ => return Err("compare takes two result files".to_string()),
            };
            let flagged = result::compare(&a, &b);
            println!("{flagged} worse or unresolved");
            Ok(flagged == 0)
        }
        Some("run") => {
            let out_dir = flag(args, "--out").unwrap_or(DEFAULT_OUT);
            let suite = run_suite(args)?;
            let host = &suite.host;
            println!(
                "host: {} cores, {} build, {}, commit {}, seed {}, wall {:.1} s",
                host.cores, host.profile, host.rustc, host.git_head, suite.seed, suite.wall_s
            );
            let file = ResultFile {
                suites: vec![suite],
            };
            file.save(&format!("{out_dir}/results.json"))?;
            let failed = failures(&file);
            for f in &failed {
                println!("FAILED {f}");
            }
            println!(
                "{} checks failed; results in {out_dir}/results.json",
                failed.len()
            );
            Ok(failed.is_empty())
        }
        Some("repeat") => {
            let n = flag_u64(args, "--n", 5)?.max(1);
            let out_dir = flag(args, "--out").unwrap_or(DEFAULT_OUT);
            let mut file = ResultFile { suites: Vec::new() };
            for _ in 0..n {
                file.suites.push(run_suite(args)?);
                file.save(&format!("{out_dir}/repeat.json"))?;
            }
            let over = result::summarize(&file);
            let failed = failures(&file);
            for f in &failed {
                println!("FAILED {f}");
            }
            println!(
                "{over} end-to-end spreads above their bound, {} checks failed; results in {out_dir}/repeat.json",
                failed.len()
            );
            Ok(over == 0 && failed.is_empty())
        }
        _ => {
            let result = run_one(args)?;
            if let Some(path) = flag(args, "--save") {
                let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
                std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
            }
            print_run(&result);
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
