//! # dp-verify — differential & property-based correctness harness
//!
//! The perf work of the previous PRs (analytic force kernels, fused
//! FEKF update, tiled GEMM, env cache, batched serving) replaces slow
//! reference paths with fast ones — exactly the code that rots silently
//! without machine-checked oracles. This crate is the correctness
//! floor: a single harness that proves, on every CI run, that the fast
//! paths still compute the same physics as the slow ones.
//!
//! Eight oracle families (one module each):
//!
//! 1. [`gradcheck`] — central finite-difference validation of the
//!    analytic forces against `E(pos±h)` and of `∇θE` / `∇θ(cᵀF)`
//!    against parameter perturbation, with per-component relative-error
//!    reports.
//! 2. [`invariants`] — translation/rotation/permutation invariance of
//!    the energy, zero net force, and descriptor smoothness at the
//!    cutoff, run across all eight `dp-mdsim` system generators.
//! 3. [`differential`] — fast-vs-reference equivalences: tiled vs naive
//!    GEMM, fused vs unfused `P` update, cached vs uncached env,
//!    manual vs tape-autograd backward, batched-serve vs sequential
//!    forward, FEKF vs Naive-EKF/RLEKF on small dense problems
//!    (bitwise where the fast path promises it, tight-ULP otherwise).
//! 4. [`golden`] — committed end-to-end fingerprints (weights CRC +
//!    bit-exact loss trace after N iterations per optimizer) with a
//!    `--bless` regeneration path, pinned to the scalar backend.
//! 5. [`backends`] — every runtime-detected SIMD backend (AVX2/
//!    AVX-512/NEON) vs the scalar oracle across the whole kernel
//!    surface, including lane-tail / empty / single-row shapes and
//!    unaligned views: tolerance-banded for the reduction kernels,
//!    bitwise for the FMA-free elementwise and `P`-update primitives.
//! 6. [`compress`] — the spline-tabulated and int-quantized serving
//!    tiers vs the f64 master: per-atom energy and per-component force
//!    budgets across all eight paper systems, self-consistency of the
//!    compressed forces (FD of the compressed energy), cutoff
//!    smoothness, and bitwise `DPCM`/`DPQT` artifact roundtrips.
//! 7. [`domain`] — the decomposed MD engine (`dp-domain`) vs its
//!    single-domain reference: forces/energies and whole NVE
//!    trajectories bitwise across domain grids × pool thread counts,
//!    the linked-cell neighbour search vs the `O(N²)` scan, the
//!    per-atom EAM vs the pair-form reference, and the per-domain
//!    sub-frame DeePMD path vs a global `predict`.
//! 8. [`fleet`] — the multi-tenant sharded serving fleet and its wire
//!    protocol: pinned rendezvous-hash goldens (a flipped salt or
//!    mixer constant fails here even though purity and uniformity
//!    still hold), minimal-remap and load-uniformity properties,
//!    seeded corruption of every wire frame type (typed `WireError`,
//!    never a panic, with the IEEE CRC-32 check vector pinned), and
//!    the bitwise fleet-vs-single-engine differential driven through
//!    real encoded frames at every shard count × thread count.
//!
//! Everything is generated from a seed by the vendored-dep-free
//! [`gen`] library and reported through the [`report`] module's
//! `VerifyReport` JSON schema; the `verify` bin drives all families
//! with seed/case-count knobs and is wired into `scripts/ci.sh`
//! (quick profile); README documents the full profile.
//!
//! Tolerance policy (see `DESIGN.md` §11): **bitwise** (`tol = 0`)
//! wherever a fast path documents bit-identical results (env cache,
//! batched serving, k-ascending GEMM tiling, shared `KfCore` paths,
//! FMA-free elementwise/`P`-update SIMD); **tight-ULP** (`1e-12`–`1e-14`
//! relative) where accumulation order legitimately differs (fused `P`
//! update, 4-accumulator GEMV, SIMD lane reductions vs scalar); and
//! **O(h²) finite-difference** tolerances (`1e-5`–`2e-5` relative at
//! `h = 1e-6`) for derivative-vs-FD checks, where the error floor is
//! the FD truncation itself.

pub mod backends;
pub mod compress;
pub mod differential;
pub mod domain;
pub mod fleet;
pub mod gen;
pub mod golden;
pub mod gradcheck;
pub mod invariants;
pub mod report;

pub use report::{VerifyCheck, VerifyReport};

/// How many generated cases each oracle runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// CI gate: fixed seed, small case counts, all six families and
    /// every gated crate still covered (about a minute of work).
    Quick,
    /// Nightly sweep: more systems, more parameter probes, larger and
    /// more numerous random shapes.
    Full,
}

impl Profile {
    /// Parse a `--profile` argument.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "quick" => Some(Profile::Quick),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }

    /// Name as reported in `VERIFY_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }

    /// Systems whose generated frames feed the gradient checks (the
    /// toy lattice is always included on top of these).
    pub fn gradcheck_systems(self) -> &'static [dp_mdsim::systems::PaperSystem] {
        use dp_mdsim::systems::PaperSystem as S;
        match self {
            Profile::Quick => &[S::NaCl],
            Profile::Full => &[S::Cu, S::NaCl, S::Si, S::H2O],
        }
    }

    /// Upper bound on parameter probes per FD gradient check.
    pub fn param_probes(self) -> usize {
        match self {
            Profile::Quick => 40,
            Profile::Full => 160,
        }
    }

    /// Random shapes per GEMM-family differential check.
    pub fn gemm_shapes(self) -> usize {
        match self {
            Profile::Quick => 6,
            Profile::Full => 24,
        }
    }

    /// Random optimizer streams (and steps per stream) for the
    /// Kalman-filter differential checks.
    pub fn kf_cases(self) -> (usize, usize) {
        match self {
            Profile::Quick => (3, 12),
            Profile::Full => (8, 40),
        }
    }

    /// Requests pushed through the serving engine equivalence check.
    pub fn serve_requests(self) -> usize {
        match self {
            Profile::Quick => 24,
            Profile::Full => 96,
        }
    }

    /// Calibration/probe frames per system for the compressed- and
    /// quantized-tier fidelity checks (all eight systems run in both
    /// profiles; only the per-system frame count scales).
    pub fn compress_frames(self) -> usize {
        match self {
            Profile::Quick => 2,
            Profile::Full => 4,
        }
    }

    /// Domain grids the `domain` family sweeps against the
    /// single-domain reference.
    pub fn domain_grids(self) -> &'static [[usize; 3]] {
        match self {
            Profile::Quick => &[[2, 1, 1], [2, 2, 1], [2, 2, 2]],
            Profile::Full => &[[2, 1, 1], [1, 2, 2], [2, 2, 1], [2, 2, 2], [4, 2, 1]],
        }
    }

    /// Pool thread counts the `domain` family crosses with the grids.
    pub fn domain_threads(self) -> &'static [usize] {
        match self {
            Profile::Quick => &[1, 4],
            Profile::Full => &[1, 2, 8],
        }
    }

    /// NVE steps of the `domain` family's trajectory-invariance check.
    pub fn domain_steps(self) -> usize {
        match self {
            Profile::Quick => 10,
            Profile::Full => 40,
        }
    }

    /// Shard counts the `fleet` family sweeps for routing properties
    /// and the fleet-vs-single differential.
    pub fn fleet_shards(self) -> &'static [u32] {
        match self {
            Profile::Quick => &[1, 3],
            Profile::Full => &[1, 2, 5, 8],
        }
    }

    /// Pool thread counts the `fleet` family crosses with the shard
    /// counts.
    pub fn fleet_threads(self) -> &'static [usize] {
        match self {
            Profile::Quick => &[1, 4],
            Profile::Full => &[1, 2, 8],
        }
    }

    /// Requests in the seeded stream of the fleet differential.
    pub fn fleet_requests(self) -> usize {
        match self {
            Profile::Quick => 32,
            Profile::Full => 128,
        }
    }

    /// Model ids probed per shard count by the routing property checks.
    pub fn fleet_route_ids(self) -> u64 {
        match self {
            Profile::Quick => 400,
            Profile::Full => 2000,
        }
    }

    /// (frames, epochs) of each golden-regression training run.
    pub fn golden_scale(self) -> (usize, usize) {
        // Identical in both profiles: the fingerprints are committed,
        // so the trained trajectory must not depend on the profile.
        (8, 2)
    }
}

/// Incremental builder for one [`VerifyCheck`]: feed it per-case
/// errors, it tracks the failure count, the worst error, and a capped
/// list of human-readable details for the report.
#[derive(Clone, Debug)]
pub struct Check {
    family: &'static str,
    name: String,
    gates: Vec<String>,
    tol: f64,
    cases: usize,
    failures: usize,
    max_rel_err: f64,
    details: Vec<String>,
}

/// At most this many per-case failure details are kept per check (the
/// report stays readable when a kernel is badly broken).
const MAX_DETAILS: usize = 8;

impl Check {
    /// Start a check. `tol = 0.0` means bitwise.
    pub fn new(family: &'static str, name: impl Into<String>, gates: &[&str], tol: f64) -> Self {
        Check {
            family,
            name: name.into(),
            gates: gates.iter().map(|g| g.to_string()).collect(),
            tol,
            cases: 0,
            failures: 0,
            max_rel_err: 0.0,
            details: Vec::new(),
        }
    }

    /// Record one case by relative error; `detail` is only rendered on
    /// failure.
    pub fn case(&mut self, rel_err: f64, detail: impl FnOnce() -> String) {
        self.cases += 1;
        // Not-finite (including NaN) always fails.
        let failed = !rel_err.is_finite() || rel_err > self.tol;
        if rel_err.is_finite() {
            self.max_rel_err = self.max_rel_err.max(rel_err);
        } else {
            self.max_rel_err = f64::INFINITY;
        }
        if failed {
            self.failures += 1;
            if self.details.len() < MAX_DETAILS {
                self.details.push(detail());
            }
        }
    }

    /// Record one exactness case: `ok = true` passes, `false` fails.
    pub fn exact(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.case(if ok { 0.0 } else { f64::INFINITY }, detail);
    }

    /// Number of failures so far.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Finish into the report record.
    pub fn finish(self) -> VerifyCheck {
        VerifyCheck {
            family: self.family.to_string(),
            name: self.name,
            gates: self.gates,
            cases: self.cases,
            failures: self.failures,
            max_rel_err: if self.max_rel_err.is_finite() { self.max_rel_err } else { -1.0 },
            tol: self.tol,
            details: self.details,
        }
    }
}

/// Relative error `|a − b| / (1 + |b|)` — the scale-aware metric every
/// FD and differential check reports (denominator floor 1 keeps tiny
/// reference values from exploding the ratio).
pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / (1.0 + b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_cases_and_failures() {
        let mut c = Check::new("differential", "demo", &["dp-tensor"], 1e-6);
        c.case(1e-9, || unreachable!());
        c.case(1e-3, || "boom".to_string());
        c.case(f64::NAN, || "nan".to_string());
        assert_eq!(c.failures(), 2);
        let r = c.finish();
        assert_eq!(r.cases, 3);
        assert_eq!(r.failures, 2);
        assert_eq!(r.details.len(), 2);
        assert_eq!(r.max_rel_err, -1.0, "NaN case marks the worst error unknown");
    }

    #[test]
    fn exact_cases_use_zero_tolerance() {
        let mut c = Check::new("differential", "demo", &[], 0.0);
        c.exact(true, || unreachable!());
        c.exact(false, || "bitwise mismatch".to_string());
        let r = c.finish();
        assert_eq!(r.failures, 1);
        assert_eq!(r.tol, 0.0);
    }

    #[test]
    fn detail_list_is_capped() {
        let mut c = Check::new("gradcheck", "demo", &[], 0.0);
        for i in 0..50 {
            c.case(1.0, || format!("case {i}"));
        }
        let r = c.finish();
        assert_eq!(r.failures, 50);
        assert_eq!(r.details.len(), MAX_DETAILS);
    }

    #[test]
    fn rel_err_is_scale_aware() {
        assert_eq!(rel_err(1.0, 1.0), 0.0);
        assert!((rel_err(2.0, 1.0) - 0.5).abs() < 1e-15);
        assert!(rel_err(1e-30, 0.0) < 1e-15);
    }

    #[test]
    fn profile_knobs_are_ordered() {
        assert!(Profile::Quick.param_probes() < Profile::Full.param_probes());
        assert!(Profile::Quick.gemm_shapes() < Profile::Full.gemm_shapes());
        assert!(Profile::Quick.compress_frames() < Profile::Full.compress_frames());
        assert_eq!(Profile::parse("quick"), Some(Profile::Quick));
        assert_eq!(Profile::parse("full"), Some(Profile::Full));
        assert_eq!(Profile::parse("nope"), None);
        assert_eq!(
            Profile::Quick.golden_scale(),
            Profile::Full.golden_scale(),
            "golden fingerprints must not depend on the profile"
        );
    }
}
