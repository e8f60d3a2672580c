//! CLI for the workspace lint pass.
//!
//! ```text
//! cargo run -p analysis -- check [--root DIR]
//! ```
//!
//! Prints the text report. Exit codes: `0` clean, `1` findings (the
//! predicate is `Report::is_clean`, the one the tier-1
//! `workspace_clean` test asserts), `2` usage error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("analysis: {msg}");
            eprintln!("usage: analysis check [--root DIR]");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => return Err("missing command".to_string()),
    }

    let mut root: Option<PathBuf> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            other if other.starts_with("--root=") => {
                root = Some(PathBuf::from(&other["--root=".len()..]));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => discover_workspace_root()?,
    };
    let config = analysis::config::Config::workspace_default();
    let report = analysis::check_workspace(&root, &config)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;
    print!("{}", report.render_text());
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn discover_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found — pass --root".to_string());
        }
    }
}
