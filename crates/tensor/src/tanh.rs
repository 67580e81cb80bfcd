//! The vector `tanh` kernel behind [`crate::backend::Backend::tanh`].
//!
//! One algorithm, three instantiations. [`tanh_fma`] is the definition:
//! portable scalar Rust whose every step is a correctly rounded IEEE
//! operation (`+ − × ÷`, `fma`, integer add/shift, bit masks). The AVX2
//! and AVX-512 kernels are the same steps on 4 / 8 lanes, so they return
//! the same bits as `tanh_fma` for every input — and therefore the same
//! bits at every lane, offset and slice length (tails are padded into a
//! full vector and run through the identical code, never through a
//! different routine). NEON calls `tanh_fma` directly: `f64::mul_add`
//! is a single `fmadd` there.
//!
//! The scalar backend does **not** use this: it keeps libm's `tanh`, so
//! everything pinned to `DP_BACKEND=scalar` stays bitwise what it was.
//!
//! # Method
//!
//! `tanh|x| = (E − 1)/(E + 1)` with `E = e^{2|x|} = 2^k·(1 + p)`,
//! `p = expm1(r)`, `r = 2|x| − k·ln2`, `|r| ≤ ln2/2`. `p`, `E − 1` and
//! `E + 1` are carried as unevaluated `hi + lo` pairs and the quotient
//! gets one residual correction, so the only rounding that matters is
//! the last one (measured: 93 % of 2·10⁶ points of [−20, 20] equal
//! glibc's `tanh` bitwise, none differs by more than 2 ulp; the
//! dp-verify `backend` family holds that band). Odd symmetry is exact (the sign is copied back at
//! the end), `tanh(±0) = ±0`, `|x| ≥ 20` (including ±∞) gives exactly
//! ±1, and NaN returns the input NaN.

const INV_LN2: f64 = std::f64::consts::LOG2_E;
/// `ln 2` split so that `k·LN2_HI` is exact for `k < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000); // 6.93147180369123816490e-1
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76); // 1.90821492927058770002e-10
/// `1.5·2⁵²`: adding it rounds to the nearest integer (ties to even) and
/// leaves that integer in the low mantissa bits.
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// Inputs are clamped here; `tanh` rounds to 1 from 19.07 on.
const CLAMP: f64 = 20.0;
/// `1/n!` for `n = 3..=14`: `expm1(r) = r + r²/2 + r³·Σ rⁿ⁻³/n!`,
/// truncation below 4·10⁻¹⁸ on `|r| ≤ ln2/2`.
const C: [f64; 12] = [
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
    1.0 / 87_178_291_200.0,
];

/// The reference implementation (see the module docs). On x86-64 only
/// the tests run it, against the vector kernels.
#[cfg(any(target_arch = "aarch64", test))]
#[inline(always)]
pub(crate) fn tanh_fma(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let a = x.abs();
    let a = if a < CLAMP { a } else { CLAMP };
    let y = a + a;
    // k = round(y / ln2) and c = 2^k.
    let t = y.mul_add(INV_LN2, MAGIC);
    let kf = t - MAGIC;
    let ki = (t.to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64);
    let c = f64::from_bits(((ki + 1023) as u64) << 52);
    // r + r_lo = y − k·ln2.
    let r_hi = (-kf).mul_add(LN2_HI, y);
    let r = (-kf).mul_add(LN2_LO, r_hi);
    let r_lo = (-kf).mul_add(LN2_LO, r_hi - r);
    // p_hi + p_lo = expm1(r + r_lo).
    let mut q3 = C[11];
    for &ck in C[..11].iter().rev() {
        q3 = q3.mul_add(r, ck);
    }
    let tail = (r * r * r) * q3;
    let half_r = 0.5 * r;
    let hh = r * half_r;
    let hl = r.mul_add(half_r, -hh);
    let s_hi = hh + tail;
    let s_lo = (tail - (s_hi - hh)) + hl;
    let p_hi = r + s_hi;
    let p_lo = ((s_hi - (p_hi - r)) + s_lo) + r_lo.mul_add(p_hi, r_lo);
    // n = E − 1, d = E + 1 as hi + lo pairs.
    let cp = c * p_hi;
    let cl = c * p_lo;
    let cm1 = c - 1.0;
    let cp1 = c + 1.0;
    let n_hi = cm1 + cp;
    let n_lo = (cp - (n_hi - cm1)) + cl;
    let d_hi = cp1 + cp;
    let d_lo = (cp - (d_hi - cp1)) + cl;
    // q = n/d with one residual correction.
    let recip = 1.0 / d_hi;
    let q0 = n_hi * recip;
    let rem = (-q0).mul_add(d_hi, n_hi) + (-q0).mul_add(d_lo, n_lo);
    let q = rem.mul_add(recip, q0);
    f64::from_bits(q.to_bits() | (x.to_bits() & (1 << 63)))
}

/// In-place `tanh` over a slice through [`tanh_fma`].
#[cfg(any(target_arch = "aarch64", test))]
pub(crate) fn tanh_slice_fma(v: &mut [f64]) {
    for x in v {
        *x = tanh_fma(*x);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{C, CLAMP, INV_LN2, LN2_HI, LN2_LO, MAGIC};
    use std::arch::x86_64::*;

    /// One 4-lane step of [`super::tanh_fma`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh4(x: __m256d) -> __m256d {
        let sign = _mm256_set1_pd(-0.0);
        let one = _mm256_set1_pd(1.0);
        let magic = _mm256_set1_pd(MAGIC);
        let a = _mm256_min_pd(_mm256_andnot_pd(sign, x), _mm256_set1_pd(CLAMP));
        let y = _mm256_add_pd(a, a);
        let t = _mm256_fmadd_pd(y, _mm256_set1_pd(INV_LN2), magic);
        let kf = _mm256_sub_pd(t, magic);
        let ki = _mm256_sub_epi64(_mm256_castpd_si256(t), _mm256_castpd_si256(magic));
        let c = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(ki, _mm256_set1_epi64x(1023))));
        let ln2_lo = _mm256_set1_pd(LN2_LO);
        let r_hi = _mm256_fnmadd_pd(kf, _mm256_set1_pd(LN2_HI), y);
        let r = _mm256_fnmadd_pd(kf, ln2_lo, r_hi);
        let r_lo = _mm256_fnmadd_pd(kf, ln2_lo, _mm256_sub_pd(r_hi, r));
        let mut q3 = _mm256_set1_pd(C[11]);
        for &ck in C[..11].iter().rev() {
            q3 = _mm256_fmadd_pd(q3, r, _mm256_set1_pd(ck));
        }
        let tail = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(r, r), r), q3);
        let half_r = _mm256_mul_pd(_mm256_set1_pd(0.5), r);
        let hh = _mm256_mul_pd(r, half_r);
        let hl = _mm256_fmsub_pd(r, half_r, hh);
        let s_hi = _mm256_add_pd(hh, tail);
        let s_lo = _mm256_add_pd(_mm256_sub_pd(tail, _mm256_sub_pd(s_hi, hh)), hl);
        let p_hi = _mm256_add_pd(r, s_hi);
        let p_lo = _mm256_add_pd(
            _mm256_add_pd(_mm256_sub_pd(s_hi, _mm256_sub_pd(p_hi, r)), s_lo),
            _mm256_fmadd_pd(r_lo, p_hi, r_lo),
        );
        let cp = _mm256_mul_pd(c, p_hi);
        let cl = _mm256_mul_pd(c, p_lo);
        let cm1 = _mm256_sub_pd(c, one);
        let cp1 = _mm256_add_pd(c, one);
        let n_hi = _mm256_add_pd(cm1, cp);
        let n_lo = _mm256_add_pd(_mm256_sub_pd(cp, _mm256_sub_pd(n_hi, cm1)), cl);
        let d_hi = _mm256_add_pd(cp1, cp);
        let d_lo = _mm256_add_pd(_mm256_sub_pd(cp, _mm256_sub_pd(d_hi, cp1)), cl);
        let recip = _mm256_div_pd(one, d_hi);
        let q0 = _mm256_mul_pd(n_hi, recip);
        let rem = _mm256_add_pd(_mm256_fnmadd_pd(q0, d_hi, n_hi), _mm256_fnmadd_pd(q0, d_lo, n_lo));
        let q = _mm256_fmadd_pd(rem, recip, q0);
        let out = _mm256_or_pd(q, _mm256_and_pd(x, sign));
        // NaN in, the same NaN out (`min` above dropped it).
        _mm256_blendv_pd(out, x, _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x))
    }

    /// In-place AVX2 `tanh`. A short tail is padded with zeros into a
    /// full vector and goes through the same `tanh4`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn tanh_avx2(v: &mut [f64]) {
        let mut chunks = v.chunks_exact_mut(4);
        for ch in &mut chunks {
            // SAFETY: `ch` is exactly 4 contiguous f64.
            _mm256_storeu_pd(ch.as_mut_ptr(), tanh4(_mm256_loadu_pd(ch.as_ptr())));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut pad = [0.0f64; 4];
            pad[..rest.len()].copy_from_slice(rest);
            // SAFETY: `pad` is 4 contiguous f64.
            _mm256_storeu_pd(pad.as_mut_ptr(), tanh4(_mm256_loadu_pd(pad.as_ptr())));
            rest.copy_from_slice(&pad[..rest.len()]);
        }
    }

    /// One 8-lane step of [`super::tanh_fma`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tanh8(x: __m512d) -> __m512d {
        let sign = _mm512_set1_epi64(i64::MIN);
        let one = _mm512_set1_pd(1.0);
        let magic = _mm512_set1_pd(MAGIC);
        let xi = _mm512_castpd_si512(x);
        let a = _mm512_min_pd(_mm512_castsi512_pd(_mm512_andnot_si512(sign, xi)), _mm512_set1_pd(CLAMP));
        let y = _mm512_add_pd(a, a);
        let t = _mm512_fmadd_pd(y, _mm512_set1_pd(INV_LN2), magic);
        let kf = _mm512_sub_pd(t, magic);
        let ki = _mm512_sub_epi64(_mm512_castpd_si512(t), _mm512_castpd_si512(magic));
        let c = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_add_epi64(ki, _mm512_set1_epi64(1023))));
        let ln2_lo = _mm512_set1_pd(LN2_LO);
        let r_hi = _mm512_fnmadd_pd(kf, _mm512_set1_pd(LN2_HI), y);
        let r = _mm512_fnmadd_pd(kf, ln2_lo, r_hi);
        let r_lo = _mm512_fnmadd_pd(kf, ln2_lo, _mm512_sub_pd(r_hi, r));
        let mut q3 = _mm512_set1_pd(C[11]);
        for &ck in C[..11].iter().rev() {
            q3 = _mm512_fmadd_pd(q3, r, _mm512_set1_pd(ck));
        }
        let tail = _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(r, r), r), q3);
        let half_r = _mm512_mul_pd(_mm512_set1_pd(0.5), r);
        let hh = _mm512_mul_pd(r, half_r);
        let hl = _mm512_fmsub_pd(r, half_r, hh);
        let s_hi = _mm512_add_pd(hh, tail);
        let s_lo = _mm512_add_pd(_mm512_sub_pd(tail, _mm512_sub_pd(s_hi, hh)), hl);
        let p_hi = _mm512_add_pd(r, s_hi);
        let p_lo = _mm512_add_pd(
            _mm512_add_pd(_mm512_sub_pd(s_hi, _mm512_sub_pd(p_hi, r)), s_lo),
            _mm512_fmadd_pd(r_lo, p_hi, r_lo),
        );
        let cp = _mm512_mul_pd(c, p_hi);
        let cl = _mm512_mul_pd(c, p_lo);
        let cm1 = _mm512_sub_pd(c, one);
        let cp1 = _mm512_add_pd(c, one);
        let n_hi = _mm512_add_pd(cm1, cp);
        let n_lo = _mm512_add_pd(_mm512_sub_pd(cp, _mm512_sub_pd(n_hi, cm1)), cl);
        let d_hi = _mm512_add_pd(cp1, cp);
        let d_lo = _mm512_add_pd(_mm512_sub_pd(cp, _mm512_sub_pd(d_hi, cp1)), cl);
        let recip = _mm512_div_pd(one, d_hi);
        let q0 = _mm512_mul_pd(n_hi, recip);
        let rem = _mm512_add_pd(_mm512_fnmadd_pd(q0, d_hi, n_hi), _mm512_fnmadd_pd(q0, d_lo, n_lo));
        let q = _mm512_fmadd_pd(rem, recip, q0);
        let out = _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(q), _mm512_and_si512(xi, sign)));
        // NaN in, the same NaN out (`min` above dropped it).
        _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_UNORD_Q>(x, x), out, x)
    }

    /// In-place AVX-512 `tanh`; tails as in [`tanh_avx2`].
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn tanh_avx512(v: &mut [f64]) {
        let mut chunks = v.chunks_exact_mut(8);
        for ch in &mut chunks {
            // SAFETY: `ch` is exactly 8 contiguous f64.
            _mm512_storeu_pd(ch.as_mut_ptr(), tanh8(_mm512_loadu_pd(ch.as_ptr())));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut pad = [0.0f64; 8];
            pad[..rest.len()].copy_from_slice(rest);
            // SAFETY: `pad` is 8 contiguous f64.
            _mm512_storeu_pd(pad.as_mut_ptr(), tanh8(_mm512_loadu_pd(pad.as_ptr())));
            rest.copy_from_slice(&pad[..rest.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite doubles
    /// of the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    fn samples() -> impl Iterator<Item = f64> {
        // A dense sweep of [−20, 20] plus log-spaced magnitudes down to
        // the subnormals.
        let sweep = (0..400_001).map(|i| -20.0 + i as f64 * 1e-4);
        let small = (0..2_000).flat_map(|i| {
            let m = 10f64.powf(-(i as f64) * 0.16) * 1.234_567;
            [m, -m]
        });
        sweep.chain(small)
    }

    #[test]
    fn reference_is_within_two_ulp_of_libm() {
        let mut worst = 0;
        for x in samples() {
            let (got, want) = (tanh_fma(x), x.tanh());
            let d = ulps(got, want);
            assert!(d <= 2, "tanh({x:e}) = {got:e}, libm {want:e} ({d} ulp)");
            worst = worst.max(d);
        }
        assert!(worst <= 2);
    }

    #[test]
    fn reference_edge_cases() {
        assert_eq!(tanh_fma(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh_fma(-0.0).to_bits(), (-0.0f64).to_bits());
        for x in [19.5, 20.0, 25.0, 1e300, f64::INFINITY] {
            assert_eq!(tanh_fma(x), 1.0);
            assert_eq!(tanh_fma(-x), -1.0);
        }
        assert_eq!(tanh_fma(5e-324), 5e-324);
        assert_eq!(tanh_fma(1e-300), 1e-300);
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(tanh_fma(nan).to_bits(), nan.to_bits());
        for x in samples() {
            assert_eq!(tanh_fma(-x).to_bits(), (-tanh_fma(x)).to_bits(), "odd symmetry at {x:e}");
            assert!(tanh_fma(x).abs() <= 1.0);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_kernels_equal_the_reference_bitwise() {
        let mut xs: Vec<f64> = samples().collect();
        xs.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 5e-324, 1e300]);
        let mut want = xs.clone();
        tanh_slice_fma(&mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
            let mut got = xs.clone();
            // SAFETY: features checked on the line above.
            unsafe { x86::tanh_avx2(&mut got) };
            assert_eq!(bits(&got), bits(&want), "avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            let mut got = xs.clone();
            // SAFETY: feature checked on the line above.
            unsafe { x86::tanh_avx512(&mut got) };
            assert_eq!(bits(&got), bits(&want), "avx512");
        }
    }
}
