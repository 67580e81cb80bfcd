//! `reproduce [EXPERIMENT...] [--paper-scale] [--systems=..] [--seed=N]
//! [--write]` — run experiments of the registry (all when none is
//! named), print each one's tables and judged claims, and with
//! `--write` splice them into `EXPERIMENTS.md`.
//!
//! Exits 1 when an *exact* claim of an experiment that ran is not
//! reproduced, 2 on a usage or document error.

use dp_bench::document::{self, SpliceError};
use dp_bench::experiments::{Claim, Kind, Verdict};
use dp_bench::Args;
use std::fmt::Display;

const DOCUMENT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

fn fail<T>(msg: impl Display) -> T {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn bad_markers<T>(e: SpliceError) -> T {
    fail(format!("EXPERIMENTS.md markers: {e:?}"))
}

fn main() {
    let args = Args::parse(std::env::args().skip(1))
        .unwrap_or_else(|e| fail(format!("{e}\n{}", Args::USAGE)));
    let stamp = document::stamp(args.ctx.seed);
    let mut doc = args.write.then(|| std::fs::read_to_string(DOCUMENT).unwrap_or_else(fail));
    // A broken marker should cost nothing, not minutes of experiments.
    if let Some(doc) = &doc {
        document::with_summary(doc).unwrap_or_else(bad_markers);
    }
    let mut failed = Vec::new();
    for e in &args.experiments {
        let outcome = (e.run)(&args.ctx);
        let body = document::render(e.name, &stamp, &outcome);
        print!("{body}");
        if let Some(doc) = &mut doc {
            *doc = document::splice(doc, e.name, &body).unwrap_or_else(bad_markers);
        }
        let broken = |c: &&Claim| c.kind == Kind::Exact && c.verdict != Verdict::Reproduced;
        failed.extend(outcome.claims.iter().filter(broken).map(|c| format!("{}: {}", e.name, c.text)));
    }
    if let Some(doc) = doc {
        let doc = document::with_summary(&doc).unwrap_or_else(bad_markers);
        std::fs::write(DOCUMENT, doc).unwrap_or_else(fail);
    }
    if !failed.is_empty() {
        eprintln!("exact claims not reproduced:\n  {}", failed.join("\n  "));
        std::process::exit(1);
    }
}
