//! `bench_e2e` — the end-to-end benchmark of this repository.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!     one workload in this process; the last line of stdout is the
//!     result object of the benchmark contract
//! bench_e2e [--seed N] [--seconds S] [--repeat K] [--check-stability] [--out DIR]
//!     every workload, untraced then traced, each in a fresh child
//!     process; one JSON document on stdout and in DIR
//! bench_e2e --calibrate W [--seed N]    print W's calibration curve
//! bench_e2e --emit-contract             print BENCHMARK.json
//! ```
//!
//! README.md beside this crate's manifest explains the workloads, the
//! metrics and how to read a trace.

mod common;
mod json;
mod metrics;
mod pacer;
mod recorder;
mod suite;
mod trace;
mod workloads;

use common::{Outcome, RunArgs};
use json::Json;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Room for this many spans per recording thread; a traced window
/// records a few per operation, and a full buffer drops (and counts)
/// spans instead of reallocating while timing.
const SPAN_CAPACITY: usize = 1 << 18;

pub struct Cli {
    pub workload: Option<String>,
    pub calibrate: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub check_stability: bool,
    pub out: Option<PathBuf>,
    pub emit_contract: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      [--repeat K] [--check-stability] [--calibrate NAME] [--emit-contract]\n\
         workloads: {}",
        metrics::WORKLOADS.map(|w| w.0).join(", ")
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        calibrate: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        check_stability: false,
        out: None,
        emit_contract: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--calibrate" => cli.calibrate = Some(value()),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--repeat" => cli.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--check-stability" => cli.check_stability = true,
            "--out" => cli.out = Some(PathBuf::from(value())),
            "--emit-contract" => cli.emit_contract = true,
            _ => usage(),
        }
    }
    if !(cli.seconds >= 1.0 && cli.seconds <= 60.0) || cli.repeat == 0 {
        usage();
    }
    cli
}

/// What the machine and environment resolved to; stamped into every
/// document and checked before anything runs.
pub struct Platform {
    pub nproc: usize,
    pub pool_threads: usize,
    pub backend: &'static str,
}

/// Pool threads are pinned to `min(nproc, 2)`: the numbers are
/// comparable between machines only at a fixed thread count, and this
/// repository's reference box has two cores.
fn resolve_platform() -> Platform {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!("bench_e2e: needs at least 2 processors (found {nproc}): serving, training and the generator share them");
        std::process::exit(2);
    }
    let backend = match dp_tensor::backend::try_global_kind() {
        Ok(kind) => kind.name(),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    };
    let pool_threads = nproc.min(2);
    // Before any thread exists, so the pool and every child read it.
    std::env::set_var("DP_POOL_THREADS", pool_threads.to_string());
    Platform {
        nproc,
        pool_threads: dp_pool::current_threads(),
        backend,
    }
}

fn run_workload(name: &str, args: RunArgs, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "train_cu_small" => workloads::train::run(&workloads::train::CU_SMALL, args, tracer),
        "train_water_dp2" => workloads::train::run(&workloads::train::WATER_DP2, args, tracer),
        "online_cu" => workloads::online::run(args, tracer),
        "fleet_open" => workloads::fleet::run(args, tracer),
        "md_served" => workloads::md_served::run(args, tracer),
        "md_domain" => workloads::md_domain::run(args, tracer),
        _ => return None,
    })
}

/// Single-workload mode. Exit code 0 only when every output check
/// passed and every value is finite.
fn single(cli: &Cli, name: &str, platform: &Platform) -> ! {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
    };
    let mut tracer = Tracer::new(cli.trace, Instant::now(), SPAN_CAPACITY);
    let Some(outcome) = run_workload(name, args, &mut tracer) else {
        usage()
    };

    eprintln!(
        "# {name}: seed {}, {} s, trace {}, nproc {}, pool threads {}, backend {}",
        cli.seed,
        cli.seconds,
        cli.trace as u8,
        platform.nproc,
        platform.pool_threads,
        platform.backend
    );
    for note in &outcome.notes {
        eprintln!("# {note}");
    }
    for c in &outcome.checks {
        eprintln!(
            "# check {:<28} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    if tracer.dropped() > 0 {
        eprintln!("# trace buffer full: {} spans dropped", tracer.dropped());
    }

    let metrics = if cli.trace {
        metrics::per_layer_json(&outcome.layers)
    } else {
        metrics::end_to_end_json(&outcome.work.end_to_end(common::peak_rss_mb()))
    };
    let finite = metrics.fields().iter().all(|(_, m)| {
        m.get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
    });
    if !finite {
        eprintln!("# check values.finite                FAIL  a metric is not a finite number");
    }
    for (key, m) in metrics.fields() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        eprintln!(
            "  {key:<28} {value:>16.6} {}",
            metrics::unit_of(key).unwrap_or("")
        );
    }
    let correct = finite && outcome.checks.iter().all(|c| c.ok);

    if let (true, Some(dir)) = (cli.trace, &cli.out) {
        let path = dir.join(format!("trace_{name}.json"));
        let doc = trace::to_json(name, tracer.spans(), tracer.dropped());
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.compact()))
        {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("# wrote {}", path.display());
    }

    let line = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Number(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Number(outcome.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", line.compact());
    std::process::exit(if correct { 0 } else { 1 })
}

fn main() {
    let cli = parse_cli();
    if cli.emit_contract {
        print!("{}", metrics::contract_json());
        return;
    }
    let platform = resolve_platform();
    if let Some(name) = &cli.calibrate {
        match name.as_str() {
            "train_cu_small" => workloads::train::calibrate(&workloads::train::CU_SMALL, cli.seed),
            "train_water_dp2" => {
                workloads::train::calibrate(&workloads::train::WATER_DP2, cli.seed)
            }
            "fleet_open" => workloads::fleet::calibrate(cli.seed),
            _ => usage(),
        }
        return;
    }
    match &cli.workload {
        Some(name) => single(&cli, name, &platform),
        None => suite::run(&cli, &platform),
    }
}
