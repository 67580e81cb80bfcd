//! Machine-readable benchmark output.
//!
//! The perf gate (ISSUE 2) wants the kernel benchmarks to leave a
//! committed trajectory, so every record carries the knobs that decide
//! the number — shape and thread count — plus the median so one noisy
//! sample cannot move the baseline. The workspace has no JSON
//! dependency, so the emitter below writes the (flat, numeric) schema
//! by hand:
//!
//! ```json
//! {
//!   "bench": "gemm",
//!   "backend": "avx512",
//!   "backend_lanes": 8,
//!   "arch": "x86_64",
//!   "cpu_features": ["avx2", "fma", "avx512f"],
//!   "records": [
//!     {"name": "gemm", "shape": [512, 512, 512], "threads": 4,
//!      "median_ns": 123456.0, "samples": 9}
//!   ]
//! }
//! ```
//!
//! Since the backend split (DESIGN §13) every report is stamped with the
//! compute backend and detected CPU features it was measured under —
//! two machines (or two `DP_BACKEND` settings) produce baselines that
//! are not comparable, and the stamp makes that visible in the file.

use std::io;
use std::path::Path;
use std::time::Instant;

/// One measured configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Kernel / phase name, e.g. `"gemm"` or `"p_update_fused"`.
    pub name: String,
    /// Shape knobs in kernel-specific order (GEMM: `[m, k, n]`).
    pub shape: Vec<usize>,
    /// Pool thread count the record was measured at.
    pub threads: usize,
    /// Median wall time per operation, nanoseconds.
    pub median_ns: f64,
    /// Number of timed samples behind the median.
    pub samples: usize,
}

/// A named collection of records, one per `BENCH_*.json` file.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Report name (`"gemm"`, `"p_update"`, `"serve_slo"`).
    pub bench: String,
    /// Compute backend the process resolved from `DP_BACKEND` at
    /// startup — the dispatch every record in this file ran under
    /// (unless the record's name says otherwise, like the per-backend
    /// `gemm/<backend>` sweeps).
    pub backend: String,
    /// `f64` lanes per SIMD vector on that backend.
    pub backend_lanes: usize,
    /// Compile-target architecture (`x86_64`, `aarch64`, …).
    pub arch: String,
    /// CPU features detected at startup (what `auto` dispatch saw).
    pub cpu_features: Vec<String>,
    /// Measured configurations.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Start an empty report, stamped with the process-global backend
    /// and the CPU features behind it: a committed `BENCH_*.json` is
    /// meaningless as a baseline without knowing what dispatch produced
    /// it. Panics with the typed [`dp_tensor::backend::BackendError`]
    /// message when `DP_BACKEND` names a backend this CPU lacks — a
    /// bench run must never silently fall back.
    pub fn new(bench: &str) -> Self {
        let kind = dp_tensor::backend::try_global_kind()
            .unwrap_or_else(|e| panic!("dp-bench: {e}"));
        BenchReport {
            bench: bench.to_string(),
            backend: kind.name().to_string(),
            backend_lanes: kind.lanes(),
            arch: std::env::consts::ARCH.to_string(),
            cpu_features: dp_tensor::backend::detected_features()
                .into_iter()
                .map(|f| f.to_string())
                .collect(),
            records: Vec::new(),
        }
    }

    /// Append one record.
    pub fn push(&mut self, name: &str, shape: &[usize], threads: usize, median_ns: f64, samples: usize) {
        self.records.push(BenchRecord {
            name: name.to_string(),
            shape: shape.to_vec(),
            threads,
            median_ns,
            samples,
        });
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_str(&self.bench)));
        out.push_str(&format!("  \"backend\": {},\n", json_str(&self.backend)));
        out.push_str(&format!("  \"backend_lanes\": {},\n", self.backend_lanes));
        out.push_str(&format!("  \"arch\": {},\n", json_str(&self.arch)));
        let feats = self
            .cpu_features
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("  \"cpu_features\": [{}],\n", feats));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let shape = r
                .shape
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"name\": {}, \"shape\": [{}], \"threads\": {}, \"median_ns\": {}, \"samples\": {}}}{}\n",
                json_str(&r.name),
                shape,
                r.threads,
                json_f64(r.median_ns),
                r.samples,
                if i + 1 == self.records.len() { "" } else { "," },
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

/// Median wall time per call of `f`, in nanoseconds.
///
/// Each sample times `inner` back-to-back calls; `inner` is chosen from
/// one calibration call so a sample lasts ≳ 2 ms (amortizing timer and
/// pool-wake overhead for microsecond-scale kernels), capped so the
/// whole measurement stays bounded for second-scale ones.
pub fn measure(samples: usize, mut f: impl FnMut()) -> (f64, usize) {
    let t0 = Instant::now();
    f();
    let once_ns = t0.elapsed().as_nanos().max(1) as f64;
    let inner = ((2e6 / once_ns).ceil() as usize).clamp(1, 10_000);
    let samples = samples.max(1);
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        per_op.push(t.elapsed().as_nanos() as f64 / inner as f64);
    }
    per_op.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (per_op[per_op.len() / 2], samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut r = BenchReport::new("gemm");
        r.push("gemm", &[4, 4, 4], 2, 1536.25, 9);
        r.push("gemv", &[128], 1, 200.0, 5);
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"gemm\""));
        // Backend metadata is stamped from the live process dispatch.
        let kind = dp_tensor::backend::try_global_kind().unwrap();
        assert!(j.contains(&format!("\"backend\": \"{}\"", kind.name())));
        assert!(j.contains(&format!("\"backend_lanes\": {}", kind.lanes())));
        assert!(j.contains(&format!("\"arch\": \"{}\"", std::env::consts::ARCH)));
        assert!(j.contains("\"cpu_features\": ["));
        assert!(j.contains("\"shape\": [4, 4, 4]"));
        assert!(j.contains("\"median_ns\": 1536.25"));
        assert!(j.contains("\"median_ns\": 200.0"), "integral medians keep a decimal point");
        assert!(j.contains("\"threads\": 2"));
        // Exactly one trailing comma between records, none after the last.
        assert_eq!(j.matches("}},").count() + j.matches("},\n").count(), 1);
    }

    #[test]
    fn measure_returns_positive_median() {
        let mut acc = 0u64;
        let (ns, samples) = measure(5, || {
            acc = acc.wrapping_add(1);
        });
        assert!(ns > 0.0);
        assert_eq!(samples, 5);
        assert!(acc > 0);
    }

    #[test]
    fn escaped_strings_stay_valid() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
