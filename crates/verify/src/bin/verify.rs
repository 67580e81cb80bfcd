//! `verify` — drive all eight oracle families and emit a machine-
//! readable report.
//!
//! ```text
//! verify [--seed N] [--profile quick|full] [--family NAME]...
//!        [--bless] [--out DIR] [--golden-dir DIR]
//! ```
//!
//! * `--seed` (default 42) seeds every generator; a failing case
//!   replays bit-for-bit with the same seed.
//! * `--profile` picks the case counts: `quick` is the CI gate
//!   (`scripts/ci.sh`), `full` the nightly sweep (README).
//! * `--family` restricts to a subset (repeatable): `gradcheck`,
//!   `invariants`, `differential`, `golden`, `backend`, `compress`,
//!   `domain`, `fleet`.
//! * `--bless` regenerates the committed golden fingerprints instead
//!   of comparing against them (commit the result).
//!
//! The harness resolves `DP_BACKEND` before running anything and exits
//! with status 2 on the typed [`dp_tensor::backend::BackendError`] —
//! naming a backend this CPU lacks must fail loudly, never silently
//! fall back to scalar.
//!
//! Writes `<out>/VERIFY_report.json` and exits non-zero when any check
//! fails — wire-breakage in any gated crate turns CI red.

use dp_verify::{
    backends, compress, differential, domain, fleet, golden, gradcheck, invariants, Profile,
    VerifyReport,
};
use std::path::PathBuf;
use std::process::ExitCode;

const FAMILIES: [&str; 8] = [
    "gradcheck",
    "invariants",
    "differential",
    "golden",
    "backend",
    "compress",
    "domain",
    "fleet",
];

struct Args {
    seed: u64,
    profile: Profile,
    families: Vec<String>,
    bless: bool,
    out: PathBuf,
    golden_dir: PathBuf,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: verify [--seed N] [--profile quick|full] [--family NAME]... \
         [--bless] [--out DIR] [--golden-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        profile: Profile::Quick,
        families: Vec::new(),
        bless: false,
        out: PathBuf::from("results/verify"),
        golden_dir: PathBuf::from("results/golden"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                args.seed = v.parse().unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--profile" => {
                let v = it.next().unwrap_or_else(|| usage("--profile needs a value"));
                args.profile =
                    Profile::parse(&v).unwrap_or_else(|| usage("--profile must be quick or full"));
            }
            "--family" => {
                let v = it.next().unwrap_or_else(|| usage("--family needs a value"));
                if !FAMILIES.contains(&v.as_str()) {
                    usage(&format!("unknown family {v:?} (expected one of {FAMILIES:?})"));
                }
                args.families.push(v);
            }
            "--bless" => args.bless = true,
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage("--out needs a value"));
                args.out = PathBuf::from(v);
            }
            "--golden-dir" => {
                let v = it.next().unwrap_or_else(|| usage("--golden-dir needs a value"));
                args.golden_dir = PathBuf::from(v);
            }
            "--help" | "-h" => {
                println!(
                    "verify: differential & property-based correctness harness\n\
                     families: {FAMILIES:?}\n\
                     see DESIGN.md §11 for the oracle catalogue and tolerance policy"
                );
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.families.is_empty() {
        args.families = FAMILIES.iter().map(|f| f.to_string()).collect();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    // Resolve DP_BACKEND up front: an unknown or CPU-unsupported value
    // is a configuration error, not something to paper over by running
    // the suite on a backend the user did not ask for.
    let backend_kind = match dp_tensor::backend::try_global_kind() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = VerifyReport::new(args.seed, args.profile.name());
    println!(
        "dp-verify: seed {} profile {} backend {} families {:?}",
        args.seed,
        args.profile.name(),
        backend_kind,
        args.families
    );

    for family in &args.families {
        let t0 = std::time::Instant::now();
        let checks = match family.as_str() {
            "gradcheck" => gradcheck::run(args.seed, args.profile),
            "invariants" => invariants::run(args.seed, args.profile),
            "differential" => differential::run(args.seed, args.profile),
            "golden" => golden::run(&args.golden_dir, args.profile, args.bless),
            "backend" => backends::run(args.seed, args.profile),
            "compress" => compress::run(args.seed, args.profile),
            "domain" => domain::run(args.seed, args.profile),
            "fleet" => fleet::run(args.seed, args.profile),
            _ => unreachable!("families validated at parse time"),
        };
        let dt = t0.elapsed().as_secs_f64();
        let fam_cases: usize = checks.iter().map(|c| c.cases).sum();
        let fam_fail: usize = checks.iter().map(|c| c.failures).sum();
        println!("── {family} ({fam_cases} cases, {fam_fail} failures, {dt:.1}s)");
        for c in checks {
            let status = if c.failures == 0 { "ok  " } else { "FAIL" };
            println!(
                "  {status} {:<32} cases {:>6}  failures {:>4}  max_rel_err {:>9.2e}  tol {:.0e}",
                c.name, c.cases, c.failures, c.max_rel_err, c.tol
            );
            for d in &c.details {
                println!("         ↳ {d}");
            }
            report.push(c);
        }
    }

    let path = args.out.join("VERIFY_report.json");
    if let Err(e) = report.write(&path) {
        eprintln!("error: could not write {}: {e}", path.display());
        return ExitCode::from(3);
    }
    let failures = report.failures();
    println!(
        "total: {} checks, {} cases, {} failures → {}",
        report.checks.len(),
        report.cases(),
        failures,
        path.display()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
