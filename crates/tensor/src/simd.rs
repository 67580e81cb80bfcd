//! The kernels of the AVX2, AVX-512 and NEON backends, each written
//! once over the register type.
//!
//! [`Lanes`] is the whole per-ISA surface: a lane count and seven
//! operations, each a single intrinsic. Every kernel below is generic
//! over it; the loop strides, tile widths and tails are functions of
//! `V::N`, the tile parameter `T` and the slice lengths alone.
//!
//! Nothing here carries a `#[target_feature]`: `backend.rs` enters the
//! features once, in the shim around each `Backend` method, and the
//! kernels and the `Lanes` methods are `#[inline(always)]` so that they
//! become the body of that shim. (An intrinsic cannot be inlined into a
//! function that lacks its feature; a kernel left out of line would
//! make every vector operation a call.)
//!
//! # Numerical contract
//!
//! Per backend every result is a pure function of the operands.
//! [`dot`] keeps two vector accumulators, adds them, reduces the lanes
//! by [`Lanes::hsum`]'s pairwise tree and folds the scalar tail in
//! ascending order; [`dot4`] and the chained `P` update
//! ([`p_update_dot_row`]) form each of their dots in exactly that order,
//! so `matvec_rows` and `p_update_dot_rows` are bitwise one [`dot`] per
//! row. A GEMM output element is the ascending-`k` chain
//! seeded from its incoming value: FMAs in the vector columns, a
//! separately rounded multiply and add in the scalar tail columns. The
//! elementwise primitives and the `P` update use no FMA, so they equal
//! the scalar backend bit for bit. `tests/backend_pins.rs` pins these
//! bits for AVX2 and AVX-512; the tests below run the kernels on a
//! portable 2-lane [`Lanes`], the only execution NEON's `N = 2`
//! arithmetic gets on x86-64.
//!
//! # Safety
//!
//! Every `unsafe fn` here requires that the CPU supports the
//! instruction set of the [`Lanes`] type it is instantiated with — the
//! dispatch layer of `backend.rs` hands out a SIMD backend only after
//! probing for it. The kernels a `Backend` method enters require
//! nothing else: they check the slice lengths their pointer arithmetic
//! depends on and panic on a mismatch. The helpers under them
//! ([`dot4`], [`fan_row`], [`fan4`], [`p_update_row`],
//! [`p_update_dot_row`]) take those lengths as a
//! second requirement and `debug_assert!` it.

use crate::backend::{group_rows, GEMM_MR};

/// One SIMD register of `f64` lanes.
///
/// # Safety
/// Every method requires that the CPU supports the implementing
/// register's instruction set. Pointers need no alignment.
pub(crate) trait Lanes: Copy {
    /// Lanes per register.
    const N: usize;

    /// All lanes `x`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn splat(x: f64) -> Self;
    /// The `N` values at `p`.
    ///
    /// # Safety
    /// See the trait; `p` must be valid for reading `N` values.
    unsafe fn load(p: *const f64) -> Self;
    /// Write the lanes to the `N` values at `p`.
    ///
    /// # Safety
    /// See the trait; `p` must be valid for writing `N` values.
    unsafe fn store(self, p: *mut f64);
    /// Lanewise `self + o`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn add(self, o: Self) -> Self;
    /// Lanewise `self - o`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn sub(self, o: Self) -> Self;
    /// Lanewise `self * o`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn mul(self, o: Self) -> Self;
    /// Lanewise `self * b + c` with one rounding.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn fma(self, b: Self, c: Self) -> Self;

    /// Sum of the lanes by the fixed pairwise tree: adjacent lanes
    /// first, then adjacent pairs — `(l0+l1)+(l2+l3)` on four lanes,
    /// that plus the same over `l4..l7` on eight.
    ///
    /// # Safety
    /// See the trait.
    #[inline(always)]
    unsafe fn hsum(self) -> f64 {
        debug_assert!(Self::N.is_power_of_two() && Self::N <= MAX_LANES);
        let mut l = [0.0f64; MAX_LANES];
        self.store(l.as_mut_ptr());
        let mut width = Self::N;
        while width > 1 {
            width /= 2;
            for i in 0..width {
                l[i] = l[2 * i] + l[2 * i + 1];
            }
        }
        l[0]
    }
}

/// Lanes of the widest [`Lanes`] register ([`Lanes::hsum`]'s buffer).
const MAX_LANES: usize = 8;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// AVX2 + FMA, 4 lanes.
    impl Lanes for __m256d {
        const N: usize = 4;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_pd(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            _mm256_sub_pd(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_pd(self, o)
        }
        #[inline(always)]
        unsafe fn fma(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_pd(self, b, c)
        }
    }

    /// AVX-512F, 8 lanes.
    impl Lanes for __m512d {
        const N: usize = 8;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm512_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm512_add_pd(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            _mm512_sub_pd(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm512_mul_pd(self, o)
        }
        #[inline(always)]
        unsafe fn fma(self, b: Self, c: Self) -> Self {
            _mm512_fmadd_pd(self, b, c)
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::Lanes;
    use std::arch::aarch64::*;

    /// NEON, 2 lanes. Never compiled where this repository is developed
    /// (no aarch64 hardware or `rust-std`), so every method is kept to
    /// one intrinsic; the loop and tail arithmetic it instantiates is
    /// what the portable 2-lane tests below run.
    impl Lanes for float64x2_t {
        const N: usize = 2;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            vdupq_n_f64(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            vld1q_f64(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            vst1q_f64(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            vaddq_f64(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            vsubq_f64(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            vmulq_f64(self, o)
        }
        #[inline(always)]
        unsafe fn fma(self, b: Self, c: Self) -> Self {
            vfmaq_f64(c, self, b)
        }
    }
}

/// Dot product: two vector accumulators (`2·N` elements a step), one
/// more vector step if `N` elements remain, `(acc0 + acc1).hsum()`,
/// then the scalar tail in ascending order. Panics if the lengths
/// differ.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn dot<V: Lanes>(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = V::splat(0.0);
    let mut acc1 = V::splat(0.0);
    let mut i = 0;
    while i + 2 * V::N <= n {
        acc0 = V::load(xp.add(i)).fma(V::load(yp.add(i)), acc0);
        acc1 = V::load(xp.add(i + V::N)).fma(V::load(yp.add(i + V::N)), acc1);
        i += 2 * V::N;
    }
    if i + V::N <= n {
        acc0 = V::load(xp.add(i)).fma(V::load(yp.add(i)), acc0);
        i += V::N;
    }
    let mut sum = acc0.add(acc1).hsum();
    while i < n {
        sum += x[i] * y[i];
        i += 1;
    }
    sum
}

/// Four [`dot`]s against one `y`: entry `r` is `dot(rows[r·k..(r+1)·k], y)`
/// with `k = y.len()`, bitwise — each row keeps its own two
/// accumulators, its `hsum` and its ascending scalar tail — while every
/// vector of `y` is loaded once for the four rows.
///
/// # Safety
/// The CPU must support `V`'s instruction set, and `rows` must hold
/// `4·y.len()` values.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn dot4<V: Lanes>(rows: &[f64], y: &[f64]) -> [f64; 4] {
    let k = y.len();
    debug_assert_eq!(rows.len(), 4 * k);
    let (rp, yp) = (rows.as_ptr(), y.as_ptr());
    let mut acc0 = [V::splat(0.0); 4];
    let mut acc1 = [V::splat(0.0); 4];
    let mut i = 0;
    while i + 2 * V::N <= k {
        let (y0, y1) = (V::load(yp.add(i)), V::load(yp.add(i + V::N)));
        for r in 0..4 {
            acc0[r] = V::load(rp.add(r * k + i)).fma(y0, acc0[r]);
            acc1[r] = V::load(rp.add(r * k + i + V::N)).fma(y1, acc1[r]);
        }
        i += 2 * V::N;
    }
    if i + V::N <= k {
        let y0 = V::load(yp.add(i));
        for r in 0..4 {
            acc0[r] = V::load(rp.add(r * k + i)).fma(y0, acc0[r]);
        }
        i += V::N;
    }
    let mut sum = [0.0; 4];
    for r in 0..4 {
        sum[r] = acc0[r].add(acc1[r]).hsum();
    }
    while i < k {
        for r in 0..4 {
            sum[r] += *rp.add(r * k + i) * *yp.add(i);
        }
        i += 1;
    }
    sum
}

/// [`crate::backend::Backend::matvec_rows`]: `out[r] = dot(row r, x)`,
/// four rows at a time through [`dot4`], the last `out.len() % 4` rows
/// one [`dot`] each. Panics unless `rows` holds `out.len()` rows of
/// `x.len()` values.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn matvec_rows<V: Lanes>(rows: &[f64], x: &[f64], out: &mut [f64]) {
    let k = x.len();
    assert_eq!(rows.len(), out.len() * k, "matvec_rows: shape mismatch");
    let done = out.len() / 4 * 4;
    let mut quads = out.chunks_exact_mut(4);
    for (g, o) in (&mut quads).enumerate() {
        o.copy_from_slice(&dot4::<V>(&rows[4 * g * k..][..4 * k], x));
    }
    for (r, o) in quads.into_remainder().iter_mut().enumerate() {
        *o = dot::<V>(&rows[(done + r) * k..][..k], x);
    }
}

/// `y += alpha · x`, the multiply and the add rounded separately in
/// the vector body and the tail alike. Panics if the lengths differ.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn axpy<V: Lanes>(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let n = y.len();
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let av = V::splat(alpha);
    let mut i = 0;
    while i + V::N <= n {
        V::load(yp.add(i)).add(av.mul(V::load(xp.add(i)))).store(yp.add(i));
        i += V::N;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

/// `y *= alpha`.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn scale<V: Lanes>(alpha: f64, y: &mut [f64]) {
    let n = y.len();
    let yp = y.as_mut_ptr();
    let av = V::splat(alpha);
    let mut i = 0;
    while i + V::N <= n {
        V::load(yp.add(i)).mul(av).store(yp.add(i));
        i += V::N;
    }
    while i < n {
        y[i] *= alpha;
        i += 1;
    }
}

/// `dst += src`. Panics if the lengths differ.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn add_assign<V: Lanes>(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "add_assign: length mismatch");
    let n = dst.len();
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let mut i = 0;
    while i + V::N <= n {
        V::load(dp.add(i)).add(V::load(sp.add(i))).store(dp.add(i));
        i += V::N;
    }
    while i < n {
        dst[i] += src[i];
        i += 1;
    }
}

/// One accumulator row of the i-k-j GEMM fan-out,
/// `crow[j] += x · brow[j]`: an FMA in the vector columns, a multiply
/// then an add in the tail columns.
///
/// # Safety
/// The CPU must support `V`'s instruction set, and `brow` must hold at
/// least `crow.len()` values.
#[inline(always)]
unsafe fn fan_row<V: Lanes>(x: f64, brow: &[f64], crow: &mut [f64]) {
    debug_assert!(brow.len() >= crow.len());
    let n = crow.len();
    let (bp, cp) = (brow.as_ptr(), crow.as_mut_ptr());
    let xv = V::splat(x);
    let mut j = 0;
    while j + V::N <= n {
        xv.fma(V::load(bp.add(j)), V::load(cp.add(j))).store(cp.add(j));
        j += V::N;
    }
    while j < n {
        crow[j] += x * *bp.add(j);
        j += 1;
    }
}

/// Register-blocked 4-row fan-out: `C[r][j] += Σ_kk x_r(kk) · B[kk][j]`
/// for the four rows of `crows`, where `x_r(kk) = x[r·xrow + kk·xstride]`.
///
/// The j-loop is tiled `T` vectors wide so that the `4 × T` accumulators
/// live in registers across the whole k-loop and each row of `B` is
/// streamed once per tile, instead of `C` being re-loaded and re-stored
/// on every k step as [`fan_row`] does (~3 memory operations per FMA
/// there, under 1 here). `T` is the backend's choice: `4·T`
/// accumulators, `T` vectors of `B` and one broadcast must fit the
/// register file. Columns that do not fill a tile run single-vector
/// tiles, then one scalar chain per tail column.
///
/// Per element of `C` the arithmetic is the ascending-k chain seeded
/// from the incoming value, exactly [`fan_row`]'s: the blocking changes
/// where the partial sums live, not a rounding.
///
/// # Safety
/// The CPU must support `V`'s instruction set; `crows` must hold `4·n`
/// values, `bd` at least `k·n`, and `x` must reach `x_3(k − 1)`.
#[inline(always)]
unsafe fn fan4<V: Lanes, const T: usize>(
    x: &[f64],
    xrow: usize,
    xstride: usize,
    bd: &[f64],
    k: usize,
    n: usize,
    crows: &mut [f64],
) {
    debug_assert_eq!(crows.len(), GEMM_MR * n);
    debug_assert!(bd.len() >= k * n);
    debug_assert!(k == 0 || (GEMM_MR - 1) * xrow + (k - 1) * xstride < x.len());
    let (xp, bp, cp) = (x.as_ptr(), bd.as_ptr(), crows.as_mut_ptr());
    let mut j = 0;
    while j + T * V::N <= n {
        fan4_tile::<V, T>(xp, xrow, xstride, bp.add(j), k, n, cp.add(j));
        j += T * V::N;
    }
    while j + V::N <= n {
        fan4_tile::<V, 1>(xp, xrow, xstride, bp.add(j), k, n, cp.add(j));
        j += V::N;
    }
    while j < n {
        let mut s = [0.0f64; GEMM_MR];
        for (r, sr) in s.iter_mut().enumerate() {
            *sr = *cp.add(r * n + j);
        }
        for kk in 0..k {
            let b = *bp.add(kk * n + j);
            for (r, sr) in s.iter_mut().enumerate() {
                *sr += *xp.add(r * xrow + kk * xstride) * b;
            }
        }
        for (r, sr) in s.iter().enumerate() {
            *cp.add(r * n + j) = *sr;
        }
        j += 1;
    }
}

/// One `4 × (T·N)` tile of [`fan4`]: `b` and `c` point at the tile's
/// first column in row 0 of `B` and of `C`, both with row stride `n`.
///
/// # Safety
/// As [`fan4`], for the `T·N` columns from `b` and `c` on.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn fan4_tile<V: Lanes, const T: usize>(
    x: *const f64,
    xrow: usize,
    xstride: usize,
    b: *const f64,
    k: usize,
    n: usize,
    c: *mut f64,
) {
    let mut acc = [[V::splat(0.0); T]; GEMM_MR];
    for r in 0..GEMM_MR {
        for t in 0..T {
            acc[r][t] = V::load(c.add(r * n + t * V::N));
        }
    }
    for kk in 0..k {
        let mut bv = [V::splat(0.0); T];
        for t in 0..T {
            bv[t] = V::load(b.add(kk * n + t * V::N));
        }
        for r in 0..GEMM_MR {
            let xv = V::splat(*x.add(r * xrow + kk * xstride));
            for t in 0..T {
                acc[r][t] = xv.fma(bv[t], acc[r][t]);
            }
        }
    }
    for r in 0..GEMM_MR {
        for t in 0..T {
            acc[r][t].store(c.add(r * n + t * V::N));
        }
    }
}

/// The row group shared by the NN and TN products:
/// `C[r][:] += Σ_kk x_r(kk) · B[kk][:]` with `x_r(kk)` as in [`fan4`].
/// A full group of four rows runs [`fan4`], a remainder group one
/// [`fan_row`] per `(kk, r)`. Panics if `bd` or `x` is shorter than the
/// shapes say.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn fan_group<V: Lanes, const T: usize>(
    x: &[f64],
    xrow: usize,
    xstride: usize,
    bd: &[f64],
    k: usize,
    n: usize,
    crows: &mut [f64],
) {
    let nr = group_rows(crows, n);
    let bd = &bd[..k * n];
    assert!(
        k == 0 || nr == 0 || (nr - 1) * xrow + (k - 1) * xstride < x.len(),
        "row group: A is shorter than its shape"
    );
    if nr == GEMM_MR {
        fan4::<V, T>(x, xrow, xstride, bd, k, n, crows);
    } else {
        for (kk, brow) in bd.chunks_exact(n).enumerate() {
            for (r, crow) in crows.chunks_exact_mut(n).enumerate() {
                fan_row::<V>(x[r * xrow + kk * xstride], brow, crow);
            }
        }
    }
}

/// [`crate::backend::Backend::gemm_row_group`]: `x_r` walks row
/// `i0 + r` of `A`.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn gemm_row_group<V: Lanes, const T: usize>(
    a: &[f64],
    bd: &[f64],
    k: usize,
    n: usize,
    i0: usize,
    crows: &mut [f64],
) {
    fan_group::<V, T>(&a[i0 * k..], k, 1, bd, k, n, crows)
}

/// [`crate::backend::Backend::gemm_tn_row_group`]: `x_r` walks column
/// `i0 + r` of `A`.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn gemm_tn_row_group<V: Lanes, const T: usize>(
    a: &[f64],
    bd: &[f64],
    rows: usize,
    m: usize,
    n: usize,
    i0: usize,
    crows: &mut [f64],
) {
    // An `A` without rows has no column `i0` to start from.
    if rows > 0 {
        fan_group::<V, T>(&a[i0..], 1, m, bd, rows, n, crows)
    }
}

/// [`crate::backend::Backend::gemm_nt_row_group`]: every output element
/// is one [`dot`] — through [`dot4`] in a full group of four rows, which
/// loads each row of `B` once for the four. Panics if `a` or `bd` is
/// shorter than the shapes say.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn gemm_nt_row_group<V: Lanes>(
    a: &[f64],
    bd: &[f64],
    k: usize,
    n: usize,
    i0: usize,
    crows: &mut [f64],
) {
    let nr = group_rows(crows, n);
    let arows = &a[i0 * k..][..nr * k];
    for j in 0..n {
        let brow = &bd[j * k..][..k];
        if nr == GEMM_MR {
            for (r, c) in dot4::<V>(arows, brow).into_iter().enumerate() {
                crows[r * n + j] = c;
            }
        } else {
            for r in 0..nr {
                crows[r * n + j] = dot::<V>(&arows[r * k..][..k], brow);
            }
        }
    }
}

/// `N` entries of a `P` row, `r ← (r − a·(qi·q))·inv_lambda` with
/// `qiv`, `av`, `lv` the splats of `qi`, `a`, `inv_lambda`: stored back
/// and returned.
///
/// # Safety
/// The CPU must support `V`'s instruction set; `r` and `q` must be
/// valid for `N` values.
#[inline(always)]
unsafe fn p_update_vec<V: Lanes>(r: *mut f64, q: *const f64, qiv: V, av: V, lv: V) -> V {
    let v = V::load(r).sub(av.mul(qiv.mul(V::load(q)))).mul(lv);
    v.store(r);
    v
}

/// One row of the FEKF `P` update,
/// `row[j] ← (row[j] − a·(qi·q[j]))·inv_lambda`: the same multiply,
/// multiply, subtract, multiply in the vector body and the tail, no FMA
/// (see `Backend::p_update_rows`).
///
/// # Safety
/// The CPU must support `V`'s instruction set, and `q` must hold at
/// least `row.len()` values.
#[inline(always)]
unsafe fn p_update_row<V: Lanes>(row: &mut [f64], qi: f64, q: &[f64], a: f64, inv_lambda: f64) {
    debug_assert!(q.len() >= row.len());
    let n = row.len();
    let (rp, qp) = (row.as_mut_ptr(), q.as_ptr());
    let (qiv, av, lv) = (V::splat(qi), V::splat(a), V::splat(inv_lambda));
    let mut j = 0;
    while j + V::N <= n {
        p_update_vec(rp.add(j), qp.add(j), qiv, av, lv);
        j += V::N;
    }
    while j < n {
        row[j] = (row[j] - a * (qi * q[j])) * inv_lambda;
        j += 1;
    }
}

/// [`crate::backend::Backend::p_update_rows`]. Panics if `q` is shorter
/// than a row or does not reach the last row's index.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
pub(crate) unsafe fn p_update_rows<V: Lanes>(
    rows: &mut [f64],
    n: usize,
    i0: usize,
    q: &[f64],
    a: f64,
    inv_lambda: f64,
) {
    for (r, row) in rows.chunks_mut(n).enumerate() {
        p_update_row::<V>(row, q[i0 + r], &q[..row.len()], a, inv_lambda);
    }
}

/// One row of the chained FEKF `P` update: [`p_update_row`]'s values,
/// written in the same pass that forms `dot(new row, g)` from them in
/// [`dot`]'s order — two accumulators fed `2·N` elements a step, one
/// more vector step, `hsum`, then the scalar tail (whose elements are
/// written first) in ascending order.
///
/// # Safety
/// The CPU must support `V`'s instruction set, and `q` and `g` must
/// hold at least `row.len()` values.
#[inline(always)]
unsafe fn p_update_dot_row<V: Lanes>(
    row: &mut [f64],
    qi: f64,
    q: &[f64],
    a: f64,
    inv_lambda: f64,
    g: &[f64],
) -> f64 {
    debug_assert!(q.len() >= row.len() && g.len() >= row.len());
    let n = row.len();
    let (rp, qp, gp) = (row.as_mut_ptr(), q.as_ptr(), g.as_ptr());
    let (qiv, av, lv) = (V::splat(qi), V::splat(a), V::splat(inv_lambda));
    let mut acc0 = V::splat(0.0);
    let mut acc1 = V::splat(0.0);
    let mut j = 0;
    while j + 2 * V::N <= n {
        let v0 = p_update_vec(rp.add(j), qp.add(j), qiv, av, lv);
        let v1 = p_update_vec(rp.add(j + V::N), qp.add(j + V::N), qiv, av, lv);
        acc0 = v0.fma(V::load(gp.add(j)), acc0);
        acc1 = v1.fma(V::load(gp.add(j + V::N)), acc1);
        j += 2 * V::N;
    }
    if j + V::N <= n {
        acc0 = p_update_vec(rp.add(j), qp.add(j), qiv, av, lv).fma(V::load(gp.add(j)), acc0);
        j += V::N;
    }
    let mut sum = acc0.add(acc1).hsum();
    while j < n {
        row[j] = (row[j] - a * (qi * q[j])) * inv_lambda;
        sum += row[j] * g[j];
        j += 1;
    }
    sum
}

/// [`crate::backend::Backend::p_update_dot_rows`]. Panics if `q` or
/// `g` is shorter than a row, `q` does not reach the last row's index,
/// or `out` does not hold one value per row.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn p_update_dot_rows<V: Lanes>(
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
    for (r, (row, o)) in rows.chunks_mut(n).zip(out).enumerate() {
        let len = row.len();
        *o = p_update_dot_row::<V>(row, q[i0 + r], &q[..len], a, inv_lambda, &g[..len]);
    }
}

#[cfg(test)]
mod tests {
    //! The kernels on a portable 2-lane register, against per-element
    //! references written without any notion of lanes beyond "which
    //! columns are vector columns". NEON is the only 2-lane backend and
    //! cannot run here, so this is what exercises the `N = 2` strides,
    //! tile remainders and tails it will instantiate.

    use super::*;

    /// Two lanes in plain Rust; `fma` is `f64::mul_add`, one rounding
    /// like the hardware instruction.
    type Pair = [f64; 2];

    impl Lanes for Pair {
        const N: usize = 2;

        unsafe fn splat(x: f64) -> Self {
            [x; 2]
        }
        unsafe fn load(p: *const f64) -> Self {
            [*p, *p.add(1)]
        }
        unsafe fn store(self, p: *mut f64) {
            *p = self[0];
            *p.add(1) = self[1];
        }
        unsafe fn add(self, o: Self) -> Self {
            [self[0] + o[0], self[1] + o[1]]
        }
        unsafe fn sub(self, o: Self) -> Self {
            [self[0] - o[0], self[1] - o[1]]
        }
        unsafe fn mul(self, o: Self) -> Self {
            [self[0] * o[0], self[1] * o[1]]
        }
        unsafe fn fma(self, b: Self, c: Self) -> Self {
            [self[0].mul_add(b[0], c[0]), self[1].mul_add(b[1], c[1])]
        }
    }

    fn det(i: usize, salt: usize) -> f64 {
        (((i * 2654435761 + salt * 1315423911) % 2000) as f64) * 1e-3 - 1.0
    }

    fn det_vec(n: usize, salt: usize) -> Vec<f64> {
        (0..n).map(|i| det(i, salt)).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// `dot`'s schedule spelled per element: elements of the
    /// two-accumulator loop alternate between the accumulators pair by
    /// pair, a last whole pair goes to accumulator 0, lanes are summed
    /// as `(a0+a1)[0] + (a0+a1)[1]`, the odd element is added last.
    fn dot_ref(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let mut acc = [[0.0f64; 2]; 2];
        for e in 0..n / 2 * 2 {
            let which = if e < n / 4 * 4 { e / 2 % 2 } else { 0 };
            acc[which][e % 2] = x[e].mul_add(y[e], acc[which][e % 2]);
        }
        let mut sum = (acc[0][0] + acc[1][0]) + (acc[0][1] + acc[1][1]);
        for e in n / 2 * 2..n {
            sum += x[e] * y[e];
        }
        sum
    }

    /// One GEMM output element: the ascending-k chain from `seed`, fused
    /// in a vector column, multiply-then-add in a tail column.
    fn chain(seed: f64, terms: impl Iterator<Item = (f64, f64)>, vector_column: bool) -> f64 {
        terms.fold(seed, |acc, (x, b)| if vector_column { x.mul_add(b, acc) } else { acc + x * b })
    }

    #[test]
    fn two_lane_dot_follows_the_documented_schedule() {
        for n in (0..=13).chain([27, 64, 65]) {
            let (x, y) = (det_vec(n, 1), det_vec(n, 2));
            // SAFETY: `Pair` needs no CPU feature.
            let got = unsafe { dot::<Pair>(&x, &y) };
            assert_eq!(got.to_bits(), dot_ref(&x, &y).to_bits(), "n={n}");
        }
    }

    #[test]
    fn two_lane_elementwise_kernels_are_the_scalar_expressions() {
        for n in 0..=9 {
            let x = det_vec(n, 3);
            let y0 = det_vec(n, 4);
            let (mut ya, mut ys, mut yd) = (y0.clone(), y0.clone(), y0.clone());
            let q = det_vec(n, 5);
            let p0 = det_vec(n * n, 6);
            let mut p = p0.clone();
            // SAFETY: `Pair` needs no CPU feature.
            unsafe {
                axpy::<Pair>(0.37, &x, &mut ya);
                scale::<Pair>(1.1, &mut ys);
                add_assign::<Pair>(&mut yd, &x);
                // Two calls, so the second starts at a row offset.
                let split = n / 2 * n;
                p_update_rows::<Pair>(&mut p[..split], n.max(1), 0, &q, 0.2, 1.01);
                p_update_rows::<Pair>(&mut p[split..], n.max(1), n / 2, &q, 0.2, 1.01);
            }
            let want: Vec<f64> = (0..n).map(|i| y0[i] + 0.37 * x[i]).collect();
            assert_eq!(bits(&ya), bits(&want), "axpy n={n}");
            let want: Vec<f64> = (0..n).map(|i| y0[i] * 1.1).collect();
            assert_eq!(bits(&ys), bits(&want), "scale n={n}");
            let want: Vec<f64> = (0..n).map(|i| y0[i] + x[i]).collect();
            assert_eq!(bits(&yd), bits(&want), "add_assign n={n}");
            let want: Vec<f64> =
                (0..n * n).map(|e| (p0[e] - 0.2 * (q[e / n] * q[e % n])) * 1.01).collect();
            assert_eq!(bits(&p), bits(&want), "p_update n={n}");
        }
    }

    #[test]
    fn two_lane_matvec_rows_are_one_dot_per_row() {
        for k in (0..=13).chain([27, 64, 65]) {
            for rows in [0, 1, 3, 4, 5, 8, 9] {
                let (a, x) = (det_vec(rows * k, 13), det_vec(k, 14));
                let mut out = vec![f64::NAN; rows];
                // SAFETY: `Pair` needs no CPU feature.
                unsafe { matvec_rows::<Pair>(&a, &x, &mut out) };
                for (r, o) in out.iter().enumerate() {
                    let want = dot_ref(&a[r * k..][..k], &x);
                    assert_eq!(o.to_bits(), want.to_bits(), "k={k} rows={rows} row {r}");
                }
            }
        }
    }

    /// The chained update writes `p_update_rows`' rows and, per row, the
    /// dot of the written row with `g` in `dot`'s schedule — whole
    /// pairs of vectors, a single vector and a scalar tail all occur.
    #[test]
    fn two_lane_chained_p_update_is_update_then_dot() {
        for n in (1..=11).chain([16, 19]) {
            let (q, g) = (det_vec(n, 15), det_vec(n, 16));
            let p0 = det_vec(n * n, 17);
            let (mut want, mut got) = (p0.clone(), p0.clone());
            let mut out = vec![f64::NAN; n];
            let split = n / 2;
            // SAFETY: `Pair` needs no CPU feature.
            unsafe {
                p_update_rows::<Pair>(&mut want, n, 0, &q, 0.3, 1.02);
                // Two calls, so the second starts at a row offset.
                let (lo, hi) = got.split_at_mut(split * n);
                let (olo, ohi) = out.split_at_mut(split);
                p_update_dot_rows::<Pair>(lo, n, 0, &q, 0.3, 1.02, &g, olo);
                p_update_dot_rows::<Pair>(hi, n, split, &q, 0.3, 1.02, &g, ohi);
            }
            assert_eq!(bits(&got), bits(&want), "rows n={n}");
            for (i, o) in out.iter().enumerate() {
                let dot = dot_ref(&want[i * n..][..n], &g);
                assert_eq!(o.to_bits(), dot.to_bits(), "dot n={n} row {i}");
            }
        }
    }

    /// NN, TN and NT row groups of 1–4 rows at a non-zero `i0`, for one
    /// tile width. `n` up to 19 covers, at `T = 4`, two whole 8-column
    /// tiles, a single-vector tile and a tail column.
    fn row_groups_match_chains<const T: usize>() {
        let i0 = 2;
        for nr in 1..=GEMM_MR {
            for k in [0, 1, 3, 6] {
                for n in (1..=11).chain([16, 19]) {
                    let vector_columns = n / 2 * 2;
                    let c0 = det_vec(nr * n, 7);

                    // NN: A is (i0+nr)×k, B is k×n.
                    let a = det_vec((i0 + nr) * k, 8);
                    let b = det_vec(k * n, 9);
                    let mut c = c0.clone();
                    // SAFETY: `Pair` needs no CPU feature.
                    unsafe { gemm_row_group::<Pair, T>(&a, &b, k, n, i0, &mut c) };
                    for r in 0..nr {
                        for j in 0..n {
                            let terms = (0..k).map(|kk| (a[(i0 + r) * k + kk], b[kk * n + j]));
                            let want = chain(c0[r * n + j], terms, j < vector_columns);
                            assert_eq!(c[r * n + j].to_bits(), want.to_bits(), "nn T={T} nr={nr} k={k} n={n} ({r},{j})");
                        }
                    }

                    // TN: A is k×m with output rows i0..i0+nr its columns.
                    let m = i0 + nr + 1;
                    let a = det_vec(k * m, 10);
                    let mut c = c0.clone();
                    // SAFETY: `Pair` needs no CPU feature.
                    unsafe { gemm_tn_row_group::<Pair, T>(&a, &b, k, m, n, i0, &mut c) };
                    for r in 0..nr {
                        for j in 0..n {
                            let terms = (0..k).map(|kk| (a[kk * m + i0 + r], b[kk * n + j]));
                            let want = chain(c0[r * n + j], terms, j < vector_columns);
                            assert_eq!(c[r * n + j].to_bits(), want.to_bits(), "tn T={T} nr={nr} k={k} n={n} ({r},{j})");
                        }
                    }

                    // NT: B is n×k, every element one dot.
                    let a = det_vec((i0 + nr) * k, 11);
                    let bt = det_vec(n * k, 12);
                    let mut c = c0.clone();
                    // SAFETY: `Pair` needs no CPU feature.
                    unsafe { gemm_nt_row_group::<Pair>(&a, &bt, k, n, i0, &mut c) };
                    for r in 0..nr {
                        for j in 0..n {
                            let want = dot_ref(&a[(i0 + r) * k..][..k], &bt[j * k..][..k]);
                            assert_eq!(c[r * n + j].to_bits(), want.to_bits(), "nt nr={nr} k={k} n={n} ({r},{j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn two_lane_row_groups_are_ascending_k_chains_at_every_tile_width() {
        row_groups_match_chains::<1>();
        row_groups_match_chains::<2>();
        row_groups_match_chains::<4>();
    }
}
