//! Experiment configuration and plain-text/CSV reporting helpers.

use std::fs;
use std::path::PathBuf;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Reduced workload sizes (CI/tests). Full mode reproduces the
    /// paper-scale grids.
    pub quick: bool,
    /// Where to write CSV outputs (`results/` by default; `None`
    /// disables file output).
    pub out_dir: Option<PathBuf>,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            quick: false,
            out_dir: Some(PathBuf::from("results")),
            seed: 0x1157e11e,
        }
    }
}

impl ExpConfig {
    /// Reads `--quick` from argv and `EXP_QUICK` from the environment.
    pub fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("EXP_QUICK")
                .map(|v| v == "1")
                .unwrap_or(false);
        ExpConfig {
            quick,
            ..Default::default()
        }
    }

    /// A quick config with file output disabled (tests).
    pub fn quick_silent() -> Self {
        ExpConfig {
            quick: true,
            out_dir: None,
            ..Default::default()
        }
    }
}

/// A named (x, y) series destined for one figure panel.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Series {
    /// Series name (legend label).
    pub name: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub(crate) fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.to_string(),
            points,
        }
    }

    /// Fits a line and returns `(slope, intercept, r2)` — the annotations
    /// the paper prints on its panels.
    pub(crate) fn line_fit(&self) -> Option<(f64, f64, f64)> {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.points.iter().copied().unzip();
        mathkit::SimpleLinearModel::fit(&xs, &ys)
            .ok()
            .map(|m| (m.slope, m.intercept, m.r2))
    }
}

/// Prints a section header.
pub(crate) fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a key/value result row.
pub(crate) fn kv(key: &str, value: impl std::fmt::Display) {
    println!("  {key:<46} {value}");
}

/// Prints an aligned text table (and writes it to `<out_dir>/<file>.txt`
/// when file output is enabled). Every row must have one cell per header.
pub(crate) fn write_text_table(
    cfg: &ExpConfig,
    file: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "table row arity");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::from(" ");
        for (w, cell) in widths.iter().zip(cells) {
            line.push_str(&format!(" {cell:>w$}"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut text = render_row(&header_cells);
    text.push('\n');
    for row in rows {
        text.push_str(&render_row(row));
        text.push('\n');
    }
    print!("{text}");
    let Some(dir) = &cfg.out_dir else {
        return;
    };
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{file}.txt"));
    if let Err(e) = fs::write(&path, &text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  [txt] {}", path.display());
    }
}

/// Writes series to `<out_dir>/<file>.csv` with one `series,x,y` row per
/// point. Silently skips when `out_dir` is `None`.
pub(crate) fn write_csv(cfg: &ExpConfig, file: &str, series: &[Series]) {
    let Some(dir) = &cfg.out_dir else {
        return;
    };
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::from("series,x,y\n");
    for s in series {
        for (x, y) in &s.points {
            out.push_str(&format!("{},{x},{y}\n", s.name));
        }
    }
    let path = dir.join(format!("{file}.csv"));
    if let Err(e) = fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  [csv] {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_line_fit_annotates_like_the_paper() {
        let s = Series::new(
            "x",
            (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect(),
        );
        let (slope, intercept, r2) = s.line_fit().unwrap();
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quick_silent_disables_output() {
        let cfg = ExpConfig::quick_silent();
        assert!(cfg.quick);
        assert!(cfg.out_dir.is_none());
        // write_csv must be a no-op, not a panic.
        write_csv(&cfg, "nope", &[Series::new("a", vec![(1.0, 2.0)])]);
    }
}
