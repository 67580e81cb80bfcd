//! Machine-readable harness output: one [`VerifyCheck`] per oracle
//! check, collected into a [`VerifyReport`] that the `verify` bin
//! writes to `results/verify/VERIFY_report.json` and `scripts/ci.sh`
//! consumes. The workspace has no JSON dependency, so the (flat) schema
//! is written by hand.

use std::io;
use std::path::Path;

/// One correctness check in a [`VerifyReport`]: an oracle evaluated
/// over `cases` generated inputs, of which `failures` exceeded `tol`.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyCheck {
    /// Oracle family (`"gradcheck"`, `"invariants"`, `"differential"`,
    /// `"golden"`).
    pub family: String,
    /// Check name, e.g. `"forces_vs_fd/NaCl"`.
    pub name: String,
    /// Workspace crates whose kernels this check gates.
    pub gates: Vec<String>,
    /// Number of generated cases evaluated.
    pub cases: usize,
    /// Cases whose error exceeded `tol`.
    pub failures: usize,
    /// Worst per-component relative error observed (0 for exact/bitwise
    /// checks that passed).
    pub max_rel_err: f64,
    /// The tolerance the check enforced (0 means bitwise).
    pub tol: f64,
    /// Human-readable details for the worst failures (empty when all
    /// cases passed).
    pub details: Vec<String>,
}

/// Machine-readable output of the `dp-verify` harness: one record per
/// oracle check, plus the knobs (seed, profile) that decide what was
/// generated. Written to `results/verify/VERIFY_report.json` by the
/// `verify` bin and consumed by `scripts/ci.sh`.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Generator seed the run used.
    pub seed: u64,
    /// Case-count profile (`"quick"` or `"full"`).
    pub profile: String,
    /// All evaluated checks.
    pub checks: Vec<VerifyCheck>,
}

impl VerifyReport {
    /// Start an empty report for one harness run.
    pub fn new(seed: u64, profile: &str) -> Self {
        VerifyReport { seed, profile: profile.to_string(), checks: Vec::new() }
    }

    /// Append one check outcome.
    pub fn push(&mut self, check: VerifyCheck) {
        self.checks.push(check);
    }

    /// Total failing cases across all checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().map(|c| c.failures).sum()
    }

    /// Total evaluated cases across all checks.
    pub fn cases(&self) -> usize {
        self.checks.iter().map(|c| c.cases).sum()
    }

    /// Names of the families that ran at least one case.
    pub fn families(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.checks {
            if !out.contains(&c.family) {
                out.push(c.family.clone());
            }
        }
        out
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"profile\": {},\n", json_str(&self.profile)));
        out.push_str(&format!("  \"cases\": {},\n", self.cases()));
        out.push_str(&format!("  \"failures\": {},\n", self.failures()));
        out.push_str("  \"checks\": [\n");
        for (i, c) in self.checks.iter().enumerate() {
            let gates = c
                .gates
                .iter()
                .map(|g| json_str(g))
                .collect::<Vec<_>>()
                .join(", ");
            let details = c
                .details
                .iter()
                .map(|d| json_str(d))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"family\": {}, \"name\": {}, \"gates\": [{}], \"cases\": {}, \"failures\": {}, \"max_rel_err\": {}, \"tol\": {}, \"details\": [{}]}}{}\n",
                json_str(&c.family),
                json_str(&c.name),
                gates,
                c.cases,
                c.failures,
                json_f64(c.max_rel_err),
                json_f64(c.tol),
                details,
                if i + 1 == self.checks.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `to_json()` to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Always embed a decimal point so readers parse a float.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_report_json_shape_is_stable() {
        let mut r = VerifyReport::new(42, "quick");
        r.push(VerifyCheck {
            family: "gradcheck".into(),
            name: "forces_vs_fd/NaCl".into(),
            gates: vec!["deepmd-core".into()],
            cases: 12,
            failures: 1,
            max_rel_err: 3.5e-4,
            tol: 1e-5,
            details: vec!["atom 3 comp z: fd 0.1 vs analytic 0.2".into()],
        });
        r.push(VerifyCheck {
            family: "differential".into(),
            name: "gemm_tiled_vs_naive".into(),
            gates: vec!["dp-tensor".into()],
            cases: 8,
            failures: 0,
            max_rel_err: 0.0,
            tol: 0.0,
            details: Vec::new(),
        });
        let j = r.to_json();
        assert!(j.contains("\"seed\": 42"));
        assert!(j.contains("\"profile\": \"quick\""));
        assert!(j.contains("\"cases\": 20"));
        assert!(j.contains("\"failures\": 1"));
        assert!(j.contains("\"family\": \"gradcheck\""));
        assert!(j.contains("\"gates\": [\"dp-tensor\"]"));
        assert_eq!(r.failures(), 1);
        assert_eq!(r.families(), vec!["gradcheck".to_string(), "differential".to_string()]);
    }
}
