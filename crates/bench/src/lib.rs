//! # dp-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` §4 for the experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Adam epochs-to-target vs batch size |
//! | `table3` | dataset inventory |
//! | `table4` | FEKF bs-32 vs Adam bs-1 convergence ratio + RMSE |
//! | `table5` | Cu time-to-accuracy across batch/device configs |
//! | `fig4`   | quasi-learning-rate factor sweep |
//! | `fig7a`  | end-to-end wall time Adam/RLEKF/FEKF/FEKF-opt |
//! | `fig7b`  | kernel-launch counts per optimization level |
//! | `fig7c`  | iteration-time decomposition per optimization level |
//! | `memory_report` | §5.3 P-matrix memory accounting |
//! | `scaling_report` | §5.3 communication/scalability analysis |
//!
//! Every binary accepts `--paper-scale` (full-size network and larger
//! datasets) and sizing flags; the defaults are tuned so the whole
//! suite completes on a small CPU box. Results print in the paper's
//! row/series layout so EXPERIMENTS.md can compare line by line.

use dp_data::generate::GenScale;
use dp_mdsim::systems::PaperSystem;
use dp_train::recipes::ModelScale;
use std::fmt::Write as _;

pub mod report;

/// Parsed command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Use the paper-size network and heavier datasets.
    pub paper_scale: bool,
    /// Systems to run (default differs per binary).
    pub systems: Option<Vec<PaperSystem>>,
    /// Frames per generation temperature.
    pub frames: Option<usize>,
    /// Epoch budget override.
    pub epochs: Option<usize>,
    /// Batch size override.
    pub batch: Option<usize>,
    /// Random seed.
    pub seed: u64,
}

impl Args {
    /// Parse `std::env::args()`. Unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut out = Args {
            paper_scale: false,
            systems: None,
            frames: None,
            epochs: None,
            batch: None,
            seed: 2024,
        };
        for arg in std::env::args().skip(1) {
            if arg == "--paper-scale" {
                out.paper_scale = true;
            } else if arg == "--quick" {
                out.paper_scale = false;
            } else if let Some(v) = arg.strip_prefix("--systems=") {
                out.systems = Some(
                    v.split(',')
                        .map(|s| {
                            parse_system(s)
                                .unwrap_or_else(|| die(&format!("unknown system '{s}'")))
                        })
                        .collect(),
                );
            } else if let Some(v) = arg.strip_prefix("--frames=") {
                out.frames = Some(v.parse().unwrap_or_else(|_| die("bad --frames")));
            } else if let Some(v) = arg.strip_prefix("--epochs=") {
                out.epochs = Some(v.parse().unwrap_or_else(|_| die("bad --epochs")));
            } else if let Some(v) = arg.strip_prefix("--batch=") {
                out.batch = Some(v.parse().unwrap_or_else(|_| die("bad --batch")));
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                out.seed = v.parse().unwrap_or_else(|_| die("bad --seed"));
            } else if arg == "--help" || arg == "-h" {
                eprintln!(
                    "flags: --paper-scale --systems=Cu,Al,... --frames=N --epochs=N --batch=N --seed=N"
                );
                std::process::exit(0);
            } else {
                die(&format!("unknown flag '{arg}' (try --help)"));
            }
        }
        out
    }

    /// The model scale implied by the flags.
    pub fn model_scale(&self) -> ModelScale {
        if self.paper_scale {
            ModelScale::Paper
        } else {
            ModelScale::Small
        }
    }

    /// The data-generation scale implied by the flags, with a
    /// per-binary quick default for frames-per-temperature.
    pub fn gen_scale(&self, quick_frames: usize) -> GenScale {
        let frames = self
            .frames
            .unwrap_or(if self.paper_scale { 4 * quick_frames } else { quick_frames });
        GenScale { frames_per_temperature: frames, equilibration: 80, stride: 4 }
    }

    /// Systems to run, with a per-binary default.
    pub fn systems_or(&self, default: &[PaperSystem]) -> Vec<PaperSystem> {
        self.systems.clone().unwrap_or_else(|| default.to_vec())
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse a system name as written in the paper ("Cu", "H2O", …).
pub fn parse_system(s: &str) -> Option<PaperSystem> {
    PaperSystem::ALL
        .into_iter()
        .find(|sys| sys.preset().name.eq_ignore_ascii_case(s))
}

/// Minimal fixed-width table printer for the experiment outputs.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
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

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
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
    fn parse_system_accepts_paper_names() {
        assert_eq!(parse_system("Cu"), Some(PaperSystem::Cu));
        assert_eq!(parse_system("h2o"), Some(PaperSystem::H2O));
        assert_eq!(parse_system("hfo2"), Some(PaperSystem::HfO2));
        assert_eq!(parse_system("Xx"), None);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["sys", "value"]);
        t.row(&["Cu".into(), "1.5".into()]);
        t.row(&["NaCl".into(), "20".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sys"));
        assert!(lines[2].contains("Cu"));
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.5), "500ms");
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(250.0), "250s");
        assert_eq!(fmt_mb(1024 * 1024), "1.00 MB");
    }
}
