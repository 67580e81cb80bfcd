//! # dp-bench — experiment harness
//!
//! One binary, `reproduce`, regenerates every table and figure of the
//! paper's evaluation from one registry ([`experiments::REGISTRY`], see
//! `DESIGN.md` §4 for the experiment index): each experiment returns
//! its tables plus the paper's shape claims evaluated on the rows it
//! just measured, and [`document`] splices both into `EXPERIMENTS.md`,
//! so a claim can only be stated by the code that evaluated it.
//!
//! Timings — kernel rates, per-layer model timings, end-to-end
//! numbers — are `bench_e2e`'s metrics.

use dp_data::generate::GenScale;
use dp_mdsim::systems::PaperSystem;
use dp_train::recipes::ModelScale;
use std::fmt::Write as _;

pub mod document;
pub mod experiments;

/// What an experiment may vary: everything else is a protocol constant
/// of the experiment itself.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Use the paper-size network and heavier datasets.
    pub paper_scale: bool,
    /// Systems to run (default differs per experiment).
    pub systems: Option<Vec<PaperSystem>>,
    /// Random seed.
    pub seed: u64,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx { paper_scale: false, systems: None, seed: 2024 }
    }
}

impl Ctx {
    /// The network scale, from a per-experiment quick default.
    pub fn model_scale(&self, quick: ModelScale) -> ModelScale {
        if self.paper_scale { ModelScale::Paper } else { quick }
    }

    /// The data-generation scale, from a per-experiment quick default
    /// for frames-per-temperature.
    pub fn gen_scale(&self, quick_frames: usize) -> GenScale {
        let frames = if self.paper_scale { 4 * quick_frames } else { quick_frames };
        GenScale { frames_per_temperature: frames, equilibration: 80, stride: 4 }
    }

    /// Systems to run, with a per-experiment default.
    pub fn systems_or(&self, default: &[PaperSystem]) -> Vec<PaperSystem> {
        self.systems.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The one system of a single-system experiment.
    pub fn system_or(&self, default: PaperSystem) -> PaperSystem {
        self.systems_or(&[default])[0]
    }
}

/// The `reproduce` command line: positional experiment names plus
/// `--paper-scale`, `--systems=`, `--seed=`, `--write`.
#[derive(Clone, Debug)]
pub struct Args {
    /// Experiments to run, in registry order (all when none is named).
    pub experiments: Vec<&'static experiments::Experiment>,
    /// Splice the outcomes into `EXPERIMENTS.md`.
    pub write: bool,
    /// Knobs handed to every experiment.
    pub ctx: Ctx,
}

impl Args {
    /// Usage line printed by `--help` and after a parse error.
    pub const USAGE: &'static str =
        "usage: reproduce [EXPERIMENT...] [--paper-scale] [--systems=Cu,Al,...] [--seed=N] [--write]";

    /// Parse the arguments after the program name.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { experiments: Vec::new(), write: false, ctx: Ctx::default() };
        let mut named = Vec::new();
        for arg in args {
            if arg == "--paper-scale" {
                out.ctx.paper_scale = true;
            } else if arg == "--write" {
                out.write = true;
            } else if let Some(v) = arg.strip_prefix("--systems=") {
                let systems: Result<Vec<_>, _> = v
                    .split(',')
                    .map(|s| parse_system(s).ok_or_else(|| format!("unknown system '{s}'")))
                    .collect();
                out.ctx.systems = Some(systems?);
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                out.ctx.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else if experiments::REGISTRY.iter().any(|e| e.name == arg) {
                named.push(arg);
            } else {
                let known: Vec<&str> = experiments::REGISTRY.iter().map(|e| e.name).collect();
                return Err(format!("unknown experiment '{arg}' (known: {})", known.join(" ")));
            }
        }
        out.experiments = experiments::REGISTRY
            .iter()
            .filter(|e| named.is_empty() || named.iter().any(|n| n == e.name))
            .collect();
        Ok(out)
    }
}

/// Parse a system name as written in the paper ("Cu", "H2O", …).
pub fn parse_system(s: &str) -> Option<PaperSystem> {
    PaperSystem::ALL
        .into_iter()
        .find(|sys| sys.preset().name.eq_ignore_ascii_case(s))
}

/// Minimal fixed-width table; its rendering is a valid Markdown table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for c in 0..ncol {
                let _ = write!(out, "| {:w$} ", cells[c], w = widths[c]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.headers);
        for w in &widths {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
        }
        out.push_str("|\n");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Format a byte count in MB.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_select_experiments_in_registry_order_and_reject_unknowns() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let all = parse("").unwrap();
        assert_eq!(all.experiments.len(), experiments::REGISTRY.len());
        assert!(!all.write && !all.ctx.paper_scale && all.ctx.seed == 2024);
        let some = parse("fig7b table3 --seed=7 --systems=cu,hfo2 --write").unwrap();
        let names: Vec<&str> = some.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["table3", "fig7b"]);
        assert!(some.write);
        assert_eq!(some.ctx.seed, 7);
        assert_eq!(some.ctx.systems, Some(vec![PaperSystem::Cu, PaperSystem::HfO2]));
        for bad in ["table9", "--quick", "--frames=3", "--systems=Xx", "--seed=x"] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["sys", "value"]);
        t.row(&[&"Cu", &1.5]);
        t.row(&[&"NaCl", &"20 µs"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sys"));
        assert!(lines[2].contains("Cu"));
        assert!(lines.iter().all(|l| l.chars().count() == lines[0].chars().count()));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.5), "500ms");
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(250.0), "250s");
        assert_eq!(fmt_mb(1024 * 1024), "1.00 MB");
    }
}
