//! Rendering of experiment outcomes and their splicing into
//! `EXPERIMENTS.md`: everything between an experiment's
//! `<!-- reproduce:NAME:begin -->` and `<!-- reproduce:NAME:end -->`
//! markers is generated, everything outside them is prose the renderer
//! never touches. The `summary` section is rebuilt from the claim
//! tables of the sections themselves, so it stays whole when only some
//! experiments were rerun.

use crate::experiments::{Kind, Outcome, REGISTRY};
use crate::Table;
use std::fmt;
use std::process::{Command, Stdio};

/// Marker name of the generated all-claims table.
const SUMMARY: &str = "summary";

const CLAIM_HEADERS: [&str; 5] = ["claim", "paper", "measured", "verdict", "kind"];

/// Why a section cannot be spliced; the document is left untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpliceError {
    /// A marker of the section is absent.
    Missing(String),
    /// A marker of the section occurs twice, or its end precedes its begin.
    Misplaced(String),
    /// Another marker sits between the section's begin and end.
    Nested(String),
}

/// Where and under what this process produces its numbers: commit
/// (`+` when the sources differ from it), compute backend, hardware
/// threads and seed.
pub fn stamp(seed: u64) -> String {
    let git = |args: &[&str]| {
        let out = Command::new("git").args(args).stderr(Stdio::null()).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let dirty = git(&["status", "--porcelain", "--", "crates", "vendor", "Cargo.toml", "Cargo.lock"]);
    let commit = match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if dirty.is_some_and(|d| d.is_empty()) => head,
        Some(head) => format!("{head}+"),
        None => "unknown".into(),
    };
    let backend = dp_tensor::backend::try_global_kind().unwrap_or_else(|e| panic!("dp-bench: {e}"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("commit {commit} · backend {} · nproc {nproc} · seed {seed}", backend.name())
}

/// The generated body of one experiment's section, blank lines around
/// it so the markers never touch a table.
pub fn render(name: &str, stamp: &str, outcome: &Outcome) -> String {
    let mut out = format!("\n`reproduce {name}` · {stamp} · {}\n", outcome.scale);
    let mut claims = Table::new(&CLAIM_HEADERS);
    for c in &outcome.claims {
        let kind = if c.kind == Kind::Exact { "exact" } else { "timed" };
        claims.row(&[&c.text, &c.paper, &c.measured, &c.verdict.label(), &kind]);
    }
    for table in outcome.tables.iter().chain([&claims]) {
        out.push('\n');
        out.push_str(&table.render());
    }
    out + "\n"
}

fn marker(name: &str, edge: &str) -> String {
    format!("<!-- reproduce:{name}:{edge} -->\n")
}

/// Byte range of the body between `name`'s markers.
fn section(doc: &str, name: &str) -> Result<std::ops::Range<usize>, SpliceError> {
    let once = |m: &str| match doc.match_indices(m).collect::<Vec<_>>()[..] {
        [] => Err(SpliceError::Missing(name.into())),
        [(at, _)] => Ok(at),
        _ => Err(SpliceError::Misplaced(name.into())),
    };
    let (begin, end) = (marker(name, "begin"), marker(name, "end"));
    let (start, stop) = (once(&begin)? + begin.len(), once(&end)?);
    if stop < start {
        return Err(SpliceError::Misplaced(name.into()));
    }
    if doc[start..stop].contains("<!-- reproduce:") {
        return Err(SpliceError::Nested(name.into()));
    }
    Ok(start..stop)
}

/// `doc` with `name`'s section body replaced by `body`.
pub fn splice(doc: &str, name: &str, body: &str) -> Result<String, SpliceError> {
    let at = section(doc, name)?;
    Ok(format!("{}{body}{}", &doc[..at.start], &doc[at.end..]))
}

/// `doc` with its summary section rebuilt: every claim row of every
/// experiment section, one table.
pub fn with_summary(doc: &str) -> Result<String, SpliceError> {
    let mut all = Table::new(&[&["experiment"], &CLAIM_HEADERS[..]].concat());
    let claims_header = format!("| {} ", CLAIM_HEADERS[0]);
    for e in &REGISTRY {
        let body = &doc[section(doc, e.name)?];
        let rows = body.lines().skip_while(|l| !l.starts_with(&claims_header)).skip(2);
        for row in rows.take_while(|l| l.starts_with('|')) {
            let cells: Vec<&str> = row.trim_matches('|').split(" | ").map(str::trim).collect();
            let cells = std::iter::once(&e.name).chain(&cells).map(|c| c as &dyn fmt::Display);
            all.row(&cells.collect::<Vec<_>>());
        }
    }
    splice(doc, SUMMARY, &format!("\n{}\n", all.render()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Claim, Verdict};

    const DOCUMENT: &str = include_str!("../../../EXPERIMENTS.md");

    #[test]
    fn document_has_exactly_one_marker_pair_per_registry_entry_and_a_current_summary() {
        let found: Vec<&str> = DOCUMENT
            .split("<!-- reproduce:")
            .skip(1)
            .map(|rest| rest.split_once(" -->").expect("a marker is closed").0)
            .collect();
        let names = std::iter::once(SUMMARY).chain(REGISTRY.iter().map(|e| e.name));
        let expected: Vec<String> = names.flat_map(|n| [format!("{n}:begin"), format!("{n}:end")]).collect();
        assert_eq!(found, expected);
        assert_eq!(with_summary(DOCUMENT).unwrap(), DOCUMENT);
    }

    #[test]
    fn splice_is_idempotent_and_local_and_rejects_broken_markers() {
        let mut table = Table::new(&["epoch", "rmse"]);
        table.row(&[&1, &0.5]);
        let claim = Claim {
            text: "it converges".into(),
            paper: "yes".into(),
            measured: "0.5".into(),
            verdict: Verdict::NotReached,
            kind: Kind::Timed,
        };
        let outcome = Outcome { scale: "Al".into(), tables: vec![table], claims: vec![claim] };
        let body = render("fig4", "commit abc1234 · seed 7", &outcome);
        assert!(body.starts_with("\n`reproduce fig4` · commit abc1234 · seed 7 · Al\n"));
        assert!(body.contains("| it converges | yes   | 0.5      | not reached (cap) | timed |"));

        let intro = "prose\n<!-- reproduce:fig4:begin -->\n";
        let outro = "<!-- reproduce:fig4:end -->\nmore prose\n";
        let once = splice(&format!("{intro}stale\n{outro}"), "fig4", &body).unwrap();
        assert_eq!(once, format!("{intro}{body}{outro}"));
        assert_eq!(splice(&once, "fig4", &body).unwrap(), once);

        let err = |doc: &str| splice(doc, "fig4", &body).unwrap_err();
        assert_eq!(err(intro), SpliceError::Missing("fig4".into()));
        assert_eq!(err(&format!("{outro}{intro}")), SpliceError::Misplaced("fig4".into()));
        assert_eq!(err(&format!("{intro}{intro}{outro}")), SpliceError::Misplaced("fig4".into()));
        let nested = format!("{intro}<!-- reproduce:fig7b:begin -->\n{outro}");
        assert_eq!(err(&nested), SpliceError::Nested("fig4".into()));
    }
}
