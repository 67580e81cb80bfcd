//! Pluggable compute backends with runtime SIMD dispatch.
//!
//! Every hot kernel in the workspace — the tiled GEMM/GEMV family in
//! [`crate::mat`], the flat-vector primitives in [`crate::vecops`], and
//! the fused FEKF `P`-update consumed by `dp-optim` — bottoms out in the
//! [`Backend`] trait defined here. Exactly one implementation of each
//! primitive exists per backend:
//!
//! * [`BackendKind::Scalar`] — the pre-existing portable kernels, kept
//!   verbatim. This is the differential oracle: golden fingerprints and
//!   the bitwise tiled-vs-naive checks in dp-verify are pinned to it.
//! * [`BackendKind::Avx2`] — x86-64 f64×4 with FMA.
//! * [`BackendKind::Avx512`] — x86-64 f64×8 with FMA, compiled behind
//!   `target_feature` and probed at startup.
//! * [`BackendKind::Neon`] — aarch64 f64×2 with FMA.
//!
//! The three SIMD backends are instantiations: their kernels are written
//! once, generic over the register type, in `simd.rs`.
//!
//! # Dispatch
//!
//! The process-global backend is resolved once, on first use, from the
//! `DP_BACKEND` env var (`scalar|avx2|avx512|neon|auto`, default `auto`)
//! plus `std::is_x86_feature_detected!`/`is_aarch64_feature_detected!`
//! probing. Naming a backend the CPU lacks (or an unknown name) is a
//! loud, typed [`BackendError`] — never a silent fallback.
//!
//! A thread-scoped override, [`with_backend`], stores a backend token in
//! [`dp_pool::taskctx`]; the pool copies the submitting thread's context
//! into every worker that executes one of a region's tasks, so a kernel
//! that fans out over the pool runs *entirely* on the caller's backend.
//! dp-verify uses this to run its scalar oracle while the process-global
//! backend stays `auto`.
//!
//! # Numerical contract
//!
//! Within one backend, results are bitwise independent of the thread
//! count: work decomposition (row groups, chunk boundaries) is a function
//! of the shapes alone and lives *above* this trait, and each backend
//! fixes its lane-reduction order and tail handling. Across backends,
//! results agree only to tolerance (FMA contracts `a*b+c` into one
//! rounding; wider registers mean more partial accumulators; the SIMD
//! `tanh` is a different algorithm from libm's), which the dp-verify
//! `backend` family bands per kernel. Two deliberate
//! exceptions are bitwise across backends: the elementwise primitives
//! (`axpy`/`scale`/`add_assign`, same per-element expression in every
//! lane) and `p_update_rows`, which avoids FMA so the fused `P` update
//! keeps *exact* symmetry and cross-backend bit-equality.

use std::fmt;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::simd;

/// Identifier for one compiled-in backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Portable scalar kernels (the differential oracle).
    Scalar,
    /// x86-64 AVX2 + FMA, 4 × f64 lanes.
    Avx2,
    /// x86-64 AVX-512F, 8 × f64 lanes.
    Avx512,
    /// aarch64 NEON (Advanced SIMD), 2 × f64 lanes.
    Neon,
}

impl BackendKind {
    /// Canonical lowercase name (matches the `DP_BACKEND` values).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Avx2 => "avx2",
            BackendKind::Avx512 => "avx512",
            BackendKind::Neon => "neon",
        }
    }

    /// f64 lanes per SIMD register (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Avx2 => 4,
            BackendKind::Avx512 => 8,
            BackendKind::Neon => 2,
        }
    }

    /// Nonzero token stored in [`dp_pool::taskctx`] for scoped overrides.
    fn token(self) -> u8 {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Avx2 => 2,
            BackendKind::Avx512 => 3,
            BackendKind::Neon => 4,
        }
    }

    fn from_token(t: u8) -> Option<BackendKind> {
        match t {
            1 => Some(BackendKind::Scalar),
            2 => Some(BackendKind::Avx2),
            3 => Some(BackendKind::Avx512),
            4 => Some(BackendKind::Neon),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed backend-resolution failure. `DP_BACKEND` naming a backend this
/// CPU (or this build) lacks must fail loudly, never fall back silently:
/// a benchmark or CI run that *thinks* it measured AVX-512 but silently
/// ran scalar produces corrupt baselines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// `DP_BACKEND` named something that is not a backend.
    Unknown {
        /// The unrecognized value.
        name: String,
    },
    /// The backend exists but this CPU/build cannot run it.
    Unavailable {
        /// What was requested.
        requested: BackendKind,
        /// The architecture this binary was compiled for.
        arch: &'static str,
        /// CPU features that *were* detected at startup.
        detected: Vec<&'static str>,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unknown { name } => write!(
                f,
                "DP_BACKEND={name:?} is not a backend (expected scalar|avx2|avx512|neon|auto)"
            ),
            BackendError::Unavailable { requested, arch, detected } => write!(
                f,
                "backend '{requested}' is not available on this CPU (arch {arch}, detected features: [{}])",
                detected.join(", ")
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// One compute backend: exactly one implementation of each hot-kernel
/// primitive. Work decomposition (parallel chunking, row-group
/// boundaries) happens above this trait; implementations only fix the
/// *within-group* instruction schedule, and must keep it a pure function
/// of the operands so results stay bitwise thread-count invariant.
pub trait Backend: Sync + Send {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Minimum flop count (`rows·cols·inner` for GEMM, `rows·cols` for
    /// GEMV) before a kernel is worth splitting across the pool on this
    /// backend. Faster kernels move the crossover up: region wake/join
    /// overhead is backend-independent (~5–15 µs) while the per-flop
    /// cost shrinks with lane width. See DESIGN §13 for the measurement
    /// methodology behind each constant.
    fn par_flops_threshold(&self) -> usize;

    /// Dot product with fixed lane-reduction order (the GEMV/`A·Bᵀ`
    /// per-element primitive).
    fn dot(&self, x: &[f64], y: &[f64]) -> f64;

    /// `y += alpha · x` (elementwise; bitwise identical across backends).
    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]);

    /// `y *= alpha` (elementwise; bitwise identical across backends).
    fn scale(&self, alpha: f64, y: &mut [f64]);

    /// `dst += src` (elementwise; bitwise identical across backends).
    fn add_assign(&self, dst: &mut [f64], src: &[f64]);

    /// GEMM micro-kernel: accumulate `C[i0.., :] += A[i0.., :] · B` for
    /// the row group held in `crows` (up to `GEMM_MR` rows of width `n`;
    /// `A` is `…×k`, `B` is `k×n`). `k` ascends for every output element.
    ///
    /// Precondition of all three `gemm_*_row_group` methods, in every
    /// backend: `n > 0` and `crows` holds whole rows. A product with an
    /// empty output has no row groups, so callers return before forming
    /// one (as [`crate::Mat`] and the slice GEMMs below do); `n == 0`
    /// here is a caller bug and panics.
    fn gemm_row_group(&self, a: &[f64], bd: &[f64], k: usize, n: usize, i0: usize, crows: &mut [f64]);

    /// `Aᵀ·B` micro-kernel: accumulate `C[i0.., :] += Aᵀ[i0.., :] · B`
    /// for the output row group in `crows` (`A` is `rows×m`, `B` is
    /// `rows×n`; output rows are columns of `A`).
    #[allow(clippy::too_many_arguments)]
    fn gemm_tn_row_group(
        &self,
        a: &[f64],
        bd: &[f64],
        rows: usize,
        m: usize,
        n: usize,
        i0: usize,
        crows: &mut [f64],
    );

    /// `A·Bᵀ` micro-kernel: `C[i0+r][j] = dot(A[i0+r], B[j])` for the
    /// row group in `crows` (`A` is `…×k`, `B` is `n×k`). Every element
    /// is one [`Backend::dot`].
    fn gemm_nt_row_group(&self, a: &[f64], bd: &[f64], k: usize, n: usize, i0: usize, crows: &mut [f64]);

    /// `out[r] = dot(rows[r·k..(r+1)·k], x)` with `k = x.len()`: the
    /// rows of a row-major matrix times one vector, every entry bitwise
    /// one [`Backend::dot`]. The SIMD backends form four rows' dots in
    /// one pass that loads each vector of `x` once for the four.
    fn matvec_rows(&self, rows: &[f64], x: &[f64], out: &mut [f64]);

    /// Fused FEKF `P`-update on a group of rows: for local row `r`
    /// (global row `i0 + r`), `row[j] ← (row[j] − a·(q[i0+r]·q[j]))·inv_lambda`.
    ///
    /// Deliberately FMA-free in every backend: the grouped `a·(qᵢ·qⱼ)`
    /// expression is then evaluated with identical roundings at `(i,j)`
    /// and `(j,i)` — and identically in vector body and scalar tail — so
    /// a symmetric `P` stays *bitwise* symmetric under the update.
    fn p_update_rows(&self, rows: &mut [f64], n: usize, i0: usize, q: &[f64], a: f64, inv_lambda: f64);

    /// [`Backend::p_update_rows`] that also writes `out[r] =
    /// dot(updated row r, g)`: the next Kalman update's `P·g` entry,
    /// formed from the row this pass has just written. The rows are
    /// bitwise those of `p_update_rows` and each `out[r]` bitwise the
    /// [`Backend::dot`] of the written row with `g`, so one pass over
    /// `P` does what an update and a `P·g` sweep did in two.
    #[allow(clippy::too_many_arguments)]
    fn p_update_dot_rows(
        &self,
        rows: &mut [f64],
        n: usize,
        i0: usize,
        q: &[f64],
        a: f64,
        inv_lambda: f64,
        g: &[f64],
        out: &mut [f64],
    );

    /// In-place elementwise `tanh`. Each output depends only on its
    /// own input value — never on the lane, the offset or the slice
    /// length — so within one backend a batched evaluation is bitwise
    /// the sequential one. The scalar backend is libm's `tanh`; the
    /// SIMD backends share one kernel (`tanh.rs`), banded
    /// against libm by the dp-verify `backend` family.
    fn tanh(&self, v: &mut [f64]);
}

/// Serial slice-level GEMMs over the row-group micro-kernels: what
/// [`crate::Mat`]'s products run below the parallel crossover, callable
/// on views into flat buffers without allocating. Row groups are
/// `GEMM_MR` (4) high from row 0, exactly as in [`crate::Mat`], and no
/// output element depends on which group its row fell into.
impl dyn Backend + '_ {
    /// `out += A · B` (`A` is `rows×k`, `B` is `k×n`, `out` is `rows×n`).
    pub fn gemm_acc(&self, a: &[f64], b: &[f64], k: usize, n: usize, out: &mut [f64]) {
        debug_assert_eq!(a.len() * n, out.len() * k);
        debug_assert_eq!(b.len(), k * n);
        if n == 0 {
            return;
        }
        for (g, crows) in out.chunks_mut(GEMM_MR * n).enumerate() {
            self.gemm_row_group(a, b, k, n, g * GEMM_MR, crows);
        }
    }

    /// `out = A · B`.
    pub fn gemm(&self, a: &[f64], b: &[f64], k: usize, n: usize, out: &mut [f64]) {
        out.fill(0.0);
        self.gemm_acc(a, b, k, n, out);
    }

    /// `out += Aᵀ · B` (`A` is `rows×m`, `B` is `rows×n`, `out` is
    /// `m×n`). Accumulating, so a product over row segments that are
    /// not contiguous continues the same ascending-row chain.
    pub fn gemm_tn_acc(&self, a: &[f64], b: &[f64], rows: usize, m: usize, n: usize, out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * m);
        debug_assert_eq!(b.len(), rows * n);
        debug_assert_eq!(out.len(), m * n);
        if n == 0 {
            return;
        }
        for (g, crows) in out.chunks_mut(GEMM_MR * n).enumerate() {
            self.gemm_tn_row_group(a, b, rows, m, n, g * GEMM_MR, crows);
        }
    }

    /// `out = A · Bᵀ` (`A` is `rows×k`, `B` is `n×k`, `out` is `rows×n`).
    pub fn gemm_nt(&self, a: &[f64], b: &[f64], k: usize, n: usize, out: &mut [f64]) {
        debug_assert_eq!(a.len() * n, out.len() * k);
        debug_assert_eq!(b.len(), n * k);
        if n == 0 {
            return;
        }
        for (g, crows) in out.chunks_mut(GEMM_MR * n).enumerate() {
            self.gemm_nt_row_group(a, b, k, n, g * GEMM_MR, crows);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar backend — the pre-backend kernels, kept verbatim as the oracle.
// ---------------------------------------------------------------------------

/// Portable scalar backend. Every routine is byte-for-byte the kernel
/// that shipped before the backend split, so `DP_BACKEND=scalar` output
/// (and the golden fingerprints) is bitwise identical to the pre-backend
/// tree.
struct ScalarBackend;

/// Dot product with 4 independent accumulators (liftable to SIMD by the
/// autovectorizer) and a *fixed* combine order, so the result is a pure
/// function of the operands regardless of how callers are scheduled.
#[inline]
fn dot_scalar(row: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(row.len(), x.len());
    let mut a0 = 0.0;
    let mut a1 = 0.0;
    let mut a2 = 0.0;
    let mut a3 = 0.0;
    let mut rc = row.chunks_exact(4);
    let mut xc = x.chunks_exact(4);
    for (r4, x4) in (&mut rc).zip(&mut xc) {
        a0 += r4[0] * x4[0];
        a1 += r4[1] * x4[1];
        a2 += r4[2] * x4[2];
        a3 += r4[3] * x4[3];
    }
    let mut tail = 0.0;
    for (r, xv) in rc.remainder().iter().zip(xc.remainder()) {
        tail += r * xv;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// Register-tile height shared by every backend's GEMM micro-kernel:
/// rows of `A` processed together so each streamed row of `B` feeds 4
/// accumulator rows. Chunk boundaries (and therefore every per-element
/// accumulation order) depend only on the shapes — never on the thread
/// count or the backend.
pub(crate) const GEMM_MR: usize = 4;

/// Rows in the row group `crows` of an `n`-column output: the one
/// place the precondition shared by the three `gemm_*_row_group`
/// methods of every backend is checked.
#[inline]
pub(crate) fn group_rows(crows: &[f64], n: usize) -> usize {
    debug_assert!(
        n > 0 && crows.len().is_multiple_of(n),
        "row group: {} values are not whole rows of {n} columns",
        crows.len()
    );
    crows.len() / n
}

impl Backend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn par_flops_threshold(&self) -> usize {
        // Re-tuned against the real dp-pool fork-join (PR 2): one region
        // costs ~5–15 µs of wake/join latency and the scalar kernels
        // stream ~4–9 f64-FLOP/ns single-threaded, so region overhead is
        // amortized once a kernel carries a few ×10⁴ flops. `1 << 17`
        // (~131 k flops ≈ 15–35 µs of work) keeps every paper-scale
        // Kalman block (n ≥ 1350 ⇒ ≥ 1.8 M flops per `P·g`) parallel
        // while small descriptor/fitting GEMMs stay on the submitting
        // thread.
        1 << 17
    }

    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        dot_scalar(x, y)
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn scale(&self, alpha: f64, y: &mut [f64]) {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    }

    fn add_assign(&self, dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    fn gemm_row_group(&self, a: &[f64], bd: &[f64], k: usize, n: usize, i0: usize, crows: &mut [f64]) {
        let nr = group_rows(crows, n);
        if nr == GEMM_MR {
            let (c0, rest) = crows.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            let a0 = &a[i0 * k..(i0 + 1) * k];
            let a1 = &a[(i0 + 1) * k..(i0 + 2) * k];
            let a2 = &a[(i0 + 2) * k..(i0 + 3) * k];
            let a3 = &a[(i0 + 3) * k..(i0 + 4) * k];
            for kk in 0..k {
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                let brow = &bd[kk * n..(kk + 1) * n];
                for j in 0..n {
                    let b = brow[j];
                    c0[j] += x0 * b;
                    c1[j] += x1 * b;
                    c2[j] += x2 * b;
                    c3[j] += x3 * b;
                }
            }
        } else {
            for (r, crow) in crows.chunks_mut(n).enumerate() {
                let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
                for (kk, &aik) in arow.iter().enumerate() {
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for (cj, &bkj) in crow.iter_mut().zip(brow.iter()) {
                        *cj += aik * bkj;
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_tn_row_group(
        &self,
        a: &[f64],
        bd: &[f64],
        rows: usize,
        m: usize,
        n: usize,
        i0: usize,
        crows: &mut [f64],
    ) {
        let nr = group_rows(crows, n);
        if nr == GEMM_MR {
            let (c0, rest) = crows.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            for kk in 0..rows {
                let arow = &a[kk * m..(kk + 1) * m];
                let (x0, x1, x2, x3) = (arow[i0], arow[i0 + 1], arow[i0 + 2], arow[i0 + 3]);
                let brow = &bd[kk * n..(kk + 1) * n];
                for j in 0..n {
                    let bkj = brow[j];
                    c0[j] += x0 * bkj;
                    c1[j] += x1 * bkj;
                    c2[j] += x2 * bkj;
                    c3[j] += x3 * bkj;
                }
            }
        } else {
            for kk in 0..rows {
                let arow = &a[kk * m..(kk + 1) * m];
                let brow = &bd[kk * n..(kk + 1) * n];
                for (r, crow) in crows.chunks_mut(n).enumerate() {
                    let x = arow[i0 + r];
                    for (cij, &bkj) in crow.iter_mut().zip(brow.iter()) {
                        *cij += x * bkj;
                    }
                }
            }
        }
    }

    fn gemm_nt_row_group(&self, a: &[f64], bd: &[f64], k: usize, n: usize, i0: usize, crows: &mut [f64]) {
        let nr = group_rows(crows, n);
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            for r in 0..nr {
                let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
                crows[r * n + j] = dot_scalar(arow, brow);
            }
        }
    }

    fn matvec_rows(&self, rows: &[f64], x: &[f64], out: &mut [f64]) {
        let k = x.len();
        assert_eq!(rows.len(), out.len() * k, "matvec_rows: shape mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot_scalar(&rows[r * k..(r + 1) * k], x);
        }
    }

    fn p_update_dot_rows(
        &self,
        rows: &mut [f64],
        n: usize,
        i0: usize,
        q: &[f64],
        a: f64,
        inv_lambda: f64,
        g: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(rows.len().div_ceil(n), out.len(), "p_update_dot_rows: one output per row");
        self.p_update_rows(rows, n, i0, q, a, inv_lambda);
        for (row, o) in rows.chunks(n).zip(out) {
            *o = dot_scalar(row, &g[..row.len()]);
        }
    }

    fn p_update_rows(&self, rows: &mut [f64], n: usize, i0: usize, q: &[f64], a: f64, inv_lambda: f64) {
        for (r, row) in rows.chunks_mut(n).enumerate() {
            let qi = q[i0 + r];
            for (j, v) in row.iter_mut().enumerate() {
                // Grouped as a·(qᵢ·qⱼ): the inner product is bitwise
                // commutative, so symmetric entries stay bitwise equal —
                // the Algorithm 1 line-11 symmetrization is a no-op.
                *v = (*v - a * (qi * q[j])) * inv_lambda;
            }
        }
    }

    fn tanh(&self, v: &mut [f64]) {
        for x in v {
            *x = x.tanh();
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD backends: the kernels of `simd.rs`, instantiated per ISA.
// ---------------------------------------------------------------------------

/// One `Backend` method of a SIMD backend: `$kernel` run with the
/// `$feat` target features enabled. The `#[inline(always)]` kernel
/// becomes the body of the nested function, so its intrinsics compile
/// to instructions, and the (non-inlinable) feature boundary is crossed
/// once per method call.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
macro_rules! shim {
    ($feat:literal, fn $method:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $kernel:expr) => {
        fn $method(&self, $($arg: $ty),*) $(-> $ret)? {
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn enter($($arg: $ty),*) $(-> $ret)? {
                $kernel($($arg),*)
            }
            // SAFETY: the kernels ask only that the CPU has the features
            // of their `Lanes` type, which are the ones this shim
            // enables. `instance` is the only way to one of these
            // backends, and every path to it — `resolve`, `auto_kind`,
            // `with_backend` — goes through `supported`, which probed
            // the CPU for exactly these features.
            unsafe { enter($($arg),*) }
        }
    };
}

/// A SIMD backend: `simd.rs`'s kernels on the register type `$lanes`,
/// with the GEMM register tile `$tile` vectors wide.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
macro_rules! simd_backend {
    (
        $(#[$doc:meta])*
        $name:ident: $kind:ident, $lanes:ty, tile = $tile:literal, features = $feat:literal,
        par_flops_threshold = $par:expr, tanh = $tanh:expr $(,)?
    ) => {
        $(#[$doc])*
        struct $name;

        impl Backend for $name {
            fn kind(&self) -> BackendKind {
                BackendKind::$kind
            }

            fn par_flops_threshold(&self) -> usize {
                $par
            }

            fn tanh(&self, v: &mut [f64]) {
                $tanh(v)
            }

            shim!($feat, fn dot(x: &[f64], y: &[f64]) -> f64 = simd::dot::<$lanes>);
            shim!($feat, fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) = simd::axpy::<$lanes>);
            shim!($feat, fn scale(alpha: f64, y: &mut [f64]) = simd::scale::<$lanes>);
            shim!($feat, fn add_assign(dst: &mut [f64], src: &[f64]) = simd::add_assign::<$lanes>);
            shim!($feat, fn gemm_row_group(a: &[f64], bd: &[f64], k: usize, n: usize, i0: usize, crows: &mut [f64])
                = simd::gemm_row_group::<$lanes, $tile>);
            shim!($feat, fn gemm_tn_row_group(a: &[f64], bd: &[f64], rows: usize, m: usize, n: usize, i0: usize, crows: &mut [f64])
                = simd::gemm_tn_row_group::<$lanes, $tile>);
            shim!($feat, fn gemm_nt_row_group(a: &[f64], bd: &[f64], k: usize, n: usize, i0: usize, crows: &mut [f64])
                = simd::gemm_nt_row_group::<$lanes>);
            shim!($feat, fn matvec_rows(rows: &[f64], x: &[f64], out: &mut [f64]) = simd::matvec_rows::<$lanes>);
            shim!($feat, fn p_update_rows(rows: &mut [f64], n: usize, i0: usize, q: &[f64], a: f64, inv_lambda: f64)
                = simd::p_update_rows::<$lanes>);
            shim!($feat, fn p_update_dot_rows(rows: &mut [f64], n: usize, i0: usize, q: &[f64], a: f64, inv_lambda: f64, g: &[f64], out: &mut [f64])
                = simd::p_update_dot_rows::<$lanes>);
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_backend! {
    /// AVX2 + FMA backend: 4 × f64 lanes.
    ///
    /// Reduction contract: `dot` keeps two vector accumulators (8
    /// f64/iteration), combines them as `acc0 + acc1`, reduces lanes as
    /// `((l0+l1)+(l2+l3))`, then folds the scalar tail in ascending
    /// order. All of that is a pure function of the operand length, so
    /// results are bitwise reproducible within this backend.
    ///
    /// GEMM tile: 4 rows × 2 ymm accumulators + 2 `B` vectors + 1
    /// broadcast = 11 of 16 ymm registers.
    Avx2Backend: Avx2, std::arch::x86_64::__m256d, tile = 2, features = "avx2,fma",
    // ~3–4× the scalar per-flop throughput against the same ~5–15 µs
    // region overhead moves the crossover up one power of two (DESIGN
    // §13.4).
    par_flops_threshold = 1 << 18,
    // SAFETY: as in `shim!` — this backend is reachable only after
    // `supported` saw AVX2 and FMA.
    tanh = |v| unsafe { crate::tanh::x86::tanh_avx2(v) },
}

#[cfg(target_arch = "x86_64")]
simd_backend! {
    /// AVX-512F backend: 8 × f64 lanes, same schedule shape as AVX2
    /// (two vector accumulators, fixed pairwise lane reduction, ascending
    /// scalar tail).
    ///
    /// GEMM tile: 4 rows × 4 zmm accumulators + 4 `B` vectors + 1
    /// broadcast = 21 of 32 zmm registers, 4 broadcast loads amortized
    /// over 16 FMAs.
    Avx512Backend: Avx512, std::arch::x86_64::__m512d, tile = 4, features = "avx512f",
    // Widest lanes, fastest per-flop: the crossover against the fixed
    // region overhead moves up another factor of two over AVX2
    // (measured, DESIGN §13).
    par_flops_threshold = 1 << 19,
    // SAFETY: as in `shim!` — this backend is reachable only after
    // `supported` saw AVX-512F.
    tanh = |v| unsafe { crate::tanh::x86::tanh_avx512(v) },
}

#[cfg(target_arch = "aarch64")]
simd_backend! {
    /// NEON (Advanced SIMD) backend: 2 × f64 lanes with FMA, same
    /// schedule shape as the x86 backends.
    ///
    /// GEMM tile: 4 rows × 4 accumulators + 4 `B` vectors + 1 broadcast
    /// = 21 of 32 vector registers.
    NeonBackend: Neon, std::arch::aarch64::float64x2_t, tile = 4, features = "neon",
    // 2-lane FMA ≈ 2× scalar throughput: one power of two above the
    // scalar crossover (DESIGN §13).
    par_flops_threshold = 1 << 18,
    tanh = crate::tanh::tanh_slice_fma,
}

// ---------------------------------------------------------------------------
// Dispatch: detection, env override, scoped override, metadata.
// ---------------------------------------------------------------------------

static SCALAR: ScalarBackend = ScalarBackend;
#[cfg(target_arch = "x86_64")]
static AVX2: Avx2Backend = Avx2Backend;
#[cfg(target_arch = "x86_64")]
static AVX512: Avx512Backend = Avx512Backend;
#[cfg(target_arch = "aarch64")]
static NEON: NeonBackend = NeonBackend;

/// The static instance for a kind, if it is compiled into this binary.
fn instance(kind: BackendKind) -> Option<&'static dyn Backend> {
    match kind {
        BackendKind::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        BackendKind::Avx2 => Some(&AVX2),
        #[cfg(target_arch = "x86_64")]
        BackendKind::Avx512 => Some(&AVX512),
        #[cfg(target_arch = "aarch64")]
        BackendKind::Neon => Some(&NEON),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

/// CPU features relevant to backend selection that this machine actually
/// has (probed once per call; cheap — the std macros cache internally).
pub fn detected_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            out.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            out.push("neon");
        }
    }
    out
}

/// Whether this CPU (and this build) can run `kind`.
pub fn supported(kind: BackendKind) -> bool {
    if instance(kind).is_none() {
        return false;
    }
    match kind {
        BackendKind::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        BackendKind::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        BackendKind::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(target_arch = "aarch64")]
        BackendKind::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Every backend this process can dispatch to, in [`BackendKind`]
/// declaration order: scalar, which is always present, comes first.
pub fn available() -> Vec<BackendKind> {
    [BackendKind::Scalar, BackendKind::Avx2, BackendKind::Avx512, BackendKind::Neon]
        .into_iter()
        .filter(|&k| supported(k))
        .collect()
}

/// The widest supported backend — what `DP_BACKEND=auto` picks.
pub fn auto_kind() -> BackendKind {
    for k in [BackendKind::Avx512, BackendKind::Avx2, BackendKind::Neon] {
        if supported(k) {
            return k;
        }
    }
    BackendKind::Scalar
}

/// Parse and validate a `DP_BACKEND` value against this CPU.
pub fn resolve(name: &str) -> Result<BackendKind, BackendError> {
    let kind = match name.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => return Ok(auto_kind()),
        "scalar" => BackendKind::Scalar,
        "avx2" => BackendKind::Avx2,
        "avx512" => BackendKind::Avx512,
        "neon" => BackendKind::Neon,
        other => return Err(BackendError::Unknown { name: other.to_string() }),
    };
    if supported(kind) {
        Ok(kind)
    } else {
        Err(BackendError::Unavailable {
            requested: kind,
            arch: std::env::consts::ARCH,
            detected: detected_features(),
        })
    }
}

static GLOBAL: std::sync::OnceLock<Result<BackendKind, BackendError>> = std::sync::OnceLock::new();

/// The process-global backend kind from `DP_BACKEND` (read once).
pub fn try_global_kind() -> Result<BackendKind, BackendError> {
    GLOBAL
        .get_or_init(|| resolve(&std::env::var("DP_BACKEND").unwrap_or_default()))
        .clone()
}

/// The process-global backend, panicking with the typed error's message
/// if `DP_BACKEND` named a backend this CPU lacks. Binaries that want a
/// clean exit call [`try_global_kind`] first.
pub fn global() -> &'static dyn Backend {
    let kind = try_global_kind().unwrap_or_else(|e| panic!("dp-tensor: {e}"));
    instance(kind).expect("resolved backend must be compiled in")
}

/// The backend every kernel on this thread dispatches to: the scoped
/// [`with_backend`] override when one is active (including on pool
/// workers executing an overridden caller's region), else the
/// process-global default.
#[inline]
pub fn active() -> &'static dyn Backend {
    match BackendKind::from_token(dp_pool::taskctx::backend()) {
        Some(kind) => instance(kind).expect("taskctx backend token must map to a compiled backend"),
        None => global(),
    }
}

/// Run `f` with every kernel on this thread (and on pool workers
/// executing regions it submits) dispatched to `kind`. Returns
/// [`BackendError::Unavailable`] without running `f` if this CPU lacks
/// the backend. Overrides nest; the previous backend is restored on exit
/// (including on panic).
pub fn with_backend<T>(kind: BackendKind, f: impl FnOnce() -> T) -> Result<T, BackendError> {
    if !supported(kind) {
        return Err(BackendError::Unavailable {
            requested: kind,
            arch: std::env::consts::ARCH,
            detected: detected_features(),
        });
    }
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            dp_pool::taskctx::set_backend(self.0);
        }
    }
    let _guard = Restore(dp_pool::taskctx::backend());
    dp_pool::taskctx::set_backend(kind.token());
    Ok(f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_auto_resolves() {
        assert!(supported(BackendKind::Scalar));
        assert!(available().contains(&BackendKind::Scalar));
        assert_eq!(resolve("auto").unwrap(), auto_kind());
        assert_eq!(resolve("").unwrap(), auto_kind());
        assert_eq!(resolve("scalar").unwrap(), BackendKind::Scalar);
        assert_eq!(resolve(" SCALAR ").unwrap(), BackendKind::Scalar);
    }

    #[test]
    fn unknown_backend_is_a_typed_error() {
        match resolve("sse9") {
            Err(BackendError::Unknown { name }) => assert_eq!(name, "sse9"),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn foreign_arch_backend_is_unavailable_not_silent() {
        // Whichever architecture this runs on, at least one of these is
        // foreign to it and must produce the typed Unavailable error.
        let foreign = if cfg!(target_arch = "x86_64") {
            "neon"
        } else {
            "avx2"
        };
        match resolve(foreign) {
            Err(BackendError::Unavailable { requested, arch, .. }) => {
                assert_eq!(requested.name(), foreign);
                assert_eq!(arch, std::env::consts::ARCH);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let before = active().kind();
        let inside = with_backend(BackendKind::Scalar, || active().kind()).unwrap();
        assert_eq!(inside, BackendKind::Scalar);
        assert_eq!(active().kind(), before);
    }

    #[test]
    fn with_backend_rejects_unsupported() {
        let foreign = if cfg!(target_arch = "x86_64") {
            BackendKind::Neon
        } else {
            BackendKind::Avx2
        };
        assert!(matches!(
            with_backend(foreign, || ()),
            Err(BackendError::Unavailable { .. })
        ));
    }

    #[test]
    fn tokens_roundtrip() {
        for k in [BackendKind::Scalar, BackendKind::Avx2, BackendKind::Avx512, BackendKind::Neon] {
            assert_eq!(BackendKind::from_token(k.token()), Some(k));
            assert!(k.token() != 0);
            assert_eq!(k.lanes().count_ones(), 1);
        }
        assert_eq!(BackendKind::from_token(0), None);
    }

    /// Every available SIMD backend must agree with scalar to fine
    /// tolerance on the dot primitive, including lane-tail lengths.
    #[test]
    fn simd_dot_matches_scalar_within_tolerance() {
        for kind in available() {
            if kind == BackendKind::Scalar {
                continue;
            }
            for n in [0usize, 1, 2, 3, 5, 8, 15, 16, 17, 63, 64, 65, 1000] {
                let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 101) as f64 * 0.013 - 0.6).collect();
                let y: Vec<f64> = (0..n).map(|i| ((i * 53 + 7) % 97) as f64 * 0.017 - 0.8).collect();
                let want = SCALAR.dot(&x, &y);
                let got = with_backend(kind, || active().dot(&x, &y)).unwrap();
                let err = (got - want).abs() / (1.0 + want.abs());
                assert!(err < 1e-13, "{kind} dot n={n}: {got} vs {want}");
            }
        }
    }

    /// The elementwise primitives and the FMA-free P-update must be
    /// *bitwise* identical across every backend.
    #[test]
    fn elementwise_primitives_bitwise_match_scalar() {
        for kind in available() {
            for n in [0usize, 1, 3, 7, 8, 9, 31, 64, 65] {
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
                let mut y_s: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
                let mut y_b = y_s.clone();
                SCALAR.axpy(0.37, &x, &mut y_s);
                with_backend(kind, || active().axpy(0.37, &x, &mut y_b)).unwrap();
                assert_eq!(bits(&y_s), bits(&y_b), "{kind} axpy n={n}");
                SCALAR.scale(1.1, &mut y_s);
                with_backend(kind, || active().scale(1.1, &mut y_b)).unwrap();
                assert_eq!(bits(&y_s), bits(&y_b), "{kind} scale n={n}");
                let mut p_s: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.11).sin()).collect();
                let mut p_b = p_s.clone();
                let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos()).collect();
                SCALAR.p_update_rows(&mut p_s, n.max(1), 0, &q, 0.2, 1.01);
                with_backend(kind, || active().p_update_rows(&mut p_b, n.max(1), 0, &q, 0.2, 1.01))
                    .unwrap();
                assert_eq!(bits(&p_s), bits(&p_b), "{kind} p_update n={n}");
            }
        }
    }

    /// Within every backend, the four-row GEMV and the chained `P`
    /// update are bitwise one `dot` per row — at row lengths that end in
    /// whole vector pairs, a single vector and a scalar tail.
    #[test]
    fn row_kernels_are_bitwise_one_dot_per_row() {
        for kind in available() {
            with_backend(kind, || {
                let be = active();
                let lanes = kind.lanes();
                for n in [2 * lanes * 3, 2 * lanes * 3 + lanes, 2 * lanes * 3 + lanes + 3, 1, 2] {
                    for rows in [1usize, 4, 7] {
                        let a: Vec<f64> = (0..rows * n).map(|i| (i as f64 * 0.37).sin()).collect();
                        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
                        let mut out = vec![0.0; rows];
                        be.matvec_rows(&a, &x, &mut out);
                        for (r, o) in out.iter().enumerate() {
                            let want = be.dot(&a[r * n..(r + 1) * n], &x);
                            assert_eq!(o.to_bits(), want.to_bits(), "{kind} matvec_rows n={n} row {r}");
                        }
                    }
                    let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos()).collect();
                    let g: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin()).collect();
                    let mut want: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.11).sin()).collect();
                    let mut got = want.clone();
                    let mut out = vec![0.0; n];
                    be.p_update_rows(&mut want, n, 0, &q, 0.2, 1.01);
                    be.p_update_dot_rows(&mut got, n, 0, &q, 0.2, 1.01, &g, &mut out);
                    assert_eq!(bits(&got), bits(&want), "{kind} p_update_dot_rows n={n}");
                    for (i, o) in out.iter().enumerate() {
                        let dot = be.dot(&want[i * n..(i + 1) * n], &g);
                        assert_eq!(o.to_bits(), dot.to_bits(), "{kind} p_update_dot_rows n={n} row {i}");
                    }
                }
            })
            .unwrap();
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }
}
