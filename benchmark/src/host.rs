//! The host stamp and the process's memory high-water mark.

use crate::result::HostStamp;
use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(generator threads, threads the program starts)` of a workload:
/// together never more than the cores. The workloads size themselves
/// from this, so the stamp says what ran.
pub fn thread_counts(workload: &str) -> (usize, usize) {
    match workload {
        "estimate_serving" => (1, cores().saturating_sub(1).max(1)),
        "dag_batch" => (1, cores()),
        "feedback_churn" => (2, 0),
        _ => (1, 0),
    }
}

/// Stamps a result with where it was measured and on how many threads.
pub fn stamp(generator_threads: usize, program_threads: usize) -> HostStamp {
    HostStamp {
        cores: cores() as u64,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
        git_head: first_line("git", &["rev-parse", "HEAD"]),
        rustc: first_line("rustc", &["-V"]),
        generator_threads: generator_threads as u64,
        program_threads: program_threads as u64,
    }
}

/// `VmHWM` of this process in MB; `None` where `/proc` has no such line.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
