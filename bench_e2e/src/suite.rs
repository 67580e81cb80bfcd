//! Suite mode: every workload, untraced then traced, each in a fresh
//! child process (cold caches, its own `peak_rss_mb`), gathered into one
//! JSON document with a header stamp. `--repeat K --check-stability`
//! runs the set K times and fails when an end-to-end metric moves
//! between repeats by more than its own regression bound.

use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::recorder::median;
use crate::{Cli, Platform};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where documents and traces go unless `--out` says otherwise.
const DEFAULT_OUT: &str = "bench_e2e/results";

/// Run one workload in a child; its result object, or why there is none.
fn child(exe: &Path, name: &str, cli: &Cli, trace: bool, out: &Path) -> Result<Json, String> {
    let output = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &cli.seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no result line (exit {:?})", output.status.code()))?;
    let result = Json::parse(line).map_err(|e| format!("{name}: result line is not JSON: {e}"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        eprintln!(
            "bench_e2e: {name} (trace {}) failed its output checks",
            trace as u8
        );
    }
    Ok(result)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One workload of one repeat.
struct Entry {
    name: &'static str,
    untraced: Json,
    traced: Json,
}

impl Entry {
    fn correct(&self) -> bool {
        [&self.untraced, &self.traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.untraced
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn json(&self) -> Json {
        let field = |r: &Json, key: &str| r.get(key).cloned().unwrap_or(Json::Null);
        Json::Object(vec![
            ("name".into(), Json::String(self.name.into())),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), field(&self.untraced, "attempted")),
            ("failed".into(), field(&self.untraced, "failed")),
            ("end_to_end".into(), field(&self.untraced, "metrics")),
            ("per_layer".into(), field(&self.traced, "metrics")),
        ])
    }
}

pub fn run(cli: &Cli, platform: &Platform) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("bench_e2e: cannot find my own executable: {e}");
        std::process::exit(1)
    });
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let mut repeats: Vec<Vec<Entry>> = Vec::with_capacity(cli.repeat);
    for rep in 0..cli.repeat {
        let mut entries = Vec::with_capacity(WORKLOADS.len());
        for (name, _) in WORKLOADS {
            eprintln!("== repeat {} of {}: {name}", rep + 1, cli.repeat);
            let run = |trace| {
                child(&exe, name, cli, trace, &out).unwrap_or_else(|e| {
                    eprintln!("bench_e2e: {e}");
                    std::process::exit(1)
                })
            };
            entries.push(Entry {
                name,
                untraced: run(false),
                traced: run(true),
            });
        }
        repeats.push(entries);
    }

    let all_correct = repeats.iter().flatten().all(Entry::correct);
    let mut stable = true;
    let mut stability = Vec::new();
    if cli.check_stability {
        if cli.repeat < 2 {
            eprintln!("bench_e2e: --check-stability needs --repeat 2 or more");
            std::process::exit(2);
        }
        eprintln!(
            "\n{:<18} {:<22} {:>10} {:>8}",
            "workload", "metric", "spread", "bound"
        );
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            for (metric, _, _, bound) in END_TO_END {
                let values: Vec<f64> = repeats.iter().filter_map(|r| r[w].metric(metric)).collect();
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                let spread = (hi - lo) / median(&values);
                // Set-up time is reported and bounded between commits,
                // but a few tens of milliseconds repeat too coarsely to
                // gate a run on.
                let within = spread <= bound || metric == "setup_s";
                stable &= within;
                eprintln!(
                    "{workload:<18} {metric:<22} {spread:>10.4} {bound:>8.2}{}",
                    if within { "" } else { "  UNSTABLE" }
                );
                stability.push(Json::Object(vec![
                    ("workload".into(), Json::String((*workload).into())),
                    ("metric".into(), Json::String(metric.into())),
                    ("spread".into(), Json::Number(spread)),
                    ("bound".into(), Json::Number(bound)),
                    ("within".into(), Json::Bool(within)),
                ]));
            }
        }
    }

    let mut doc = vec![
        (
            "header".into(),
            Json::Object(vec![
                ("bench".into(), Json::String("bench_e2e".into())),
                ("git_commit".into(), Json::String(git_commit())),
                ("seed".into(), Json::Number(cli.seed as f64)),
                ("run_seconds".into(), Json::Number(cli.seconds)),
                ("repeats".into(), Json::Number(cli.repeat as f64)),
                ("nproc".into(), Json::Number(platform.nproc as f64)),
                (
                    "pool_threads".into(),
                    Json::Number(platform.pool_threads as f64),
                ),
                ("backend".into(), Json::String(platform.backend.into())),
            ]),
        ),
        ("correct".into(), Json::Bool(all_correct)),
        // The first repeat is the document's result; later repeats only
        // feed the stability table.
        (
            "workloads".into(),
            Json::Array(repeats[0].iter().map(Entry::json).collect()),
        ),
    ];
    if cli.check_stability {
        doc.push(("stable".into(), Json::Bool(stable)));
        doc.push(("stability".into(), Json::Array(stability)));
    }
    let text = Json::Object(doc).pretty();
    let path = out.join(format!("run_seed{}.json", cli.seed));
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, format!("{text}\n")))
    {
        eprintln!("bench_e2e: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("# wrote {}", path.display());
    println!("{text}");
    std::process::exit(if all_correct && stable { 0 } else { 1 })
}
