//! Oracle family 5 — SIMD compute backends vs the scalar oracle.
//!
//! The backend split (DESIGN §13) keeps the pre-backend scalar kernels
//! verbatim as [`dp_tensor::backend`]'s `scalar` backend and adds
//! runtime-dispatched AVX2/AVX-512/NEON implementations of the same
//! primitives. This family holds every backend the running CPU supports
//! to the scalar oracle, across the full kernel surface and the shapes
//! SIMD gets wrong when it is wrong — lane-width tails, `n = 0/1`
//! vectors, single-row/column matrices, unaligned sub-slice views.
//!
//! Tolerance bands follow the trait's numerical contract:
//!
//! * **banded** for the reduction kernels (`matmul`/`t_matmul`/
//!   `matmul_t`/`matvec` at `1e-12`, `dot` at `1e-13`): wider lanes and
//!   FMA legitimately re-associate the `k`-loop, so cross-backend
//!   equality is tight-ULP, not bitwise;
//! * **bitwise** for the elementwise primitives (`axpy`/`scale`/
//!   `add_assign`) and the fused `P`-update, which every backend
//!   implements FMA-free precisely so vector body and scalar tail (and
//!   therefore every backend) round identically — including the exact
//!   bitwise symmetry of the updated `P`;
//! * **≤ 2 ulp of libm** for `tanh` on `[−20, 20]` (the scalar backend
//!   *is* libm; the SIMD backends run their own kernel), with the parts
//!   of the contract the model relies on held exactly: odd symmetry,
//!   `±0 → ±0`, saturation to `±1`, NaN in → NaN out (a poisoned
//!   snapshot must still trip the serving breaker), and **position
//!   independence** — the same value gives the same bits at every
//!   offset, slice length and tail position, which is what makes a
//!   frame-batched evaluation bitwise the per-atom one within a backend.
//!
//! `scalar` itself is swept too: a trivially-green scalar-vs-scalar run
//! proves the `with_backend` plumbing on machines with no SIMD at all.
//! Within-backend determinism (thread-count invariance, scoped-override
//! restore) lives in dp-tensor's own tests; this family is strictly the
//! cross-backend claim.

use crate::gen::{self, XorShift64};
use crate::{rel_err, Check, Profile, VerifyCheck};
use dp_tensor::backend::{self, BackendKind};

/// Cross-backend tolerance for the GEMM/GEMV kernels: `k ≤ 64` here, so
/// re-association error is bounded well under `k·ε ≈ 1.4e-14` relative.
const TOL_GEMM: f64 = 1e-12;
/// Cross-backend tolerance for the bare `dot` primitive (matches the
/// rowdot band the differential family already uses).
const TOL_DOT: f64 = 1e-13;

/// Matrix shapes `(m, k, n)` chosen to straddle every lane width (2, 4,
/// 8): exact multiples, ±1 tails, single rows/columns, and one shape
/// past the scalar `PAR_FLOPS_THRESHOLD` so the pool path is swept with
/// the backend token propagated to workers.
const EDGE_SHAPES: [(usize, usize, usize); 14] = [
    (1, 1, 1),
    (1, 1, 7),
    (1, 9, 1),
    (7, 1, 1),
    (1, 17, 5),
    (3, 1, 3),
    (2, 2, 2),
    (4, 4, 4),
    (5, 3, 7),
    (8, 8, 8),
    (9, 16, 9),
    (16, 17, 15),
    (33, 31, 29),
    (64, 64, 64), // 64³ = 262144 flops ≥ the scalar 2¹⁷ threshold
];

/// Vector lengths for the 1-D primitives: empty, scalar, every lane
/// width ±1, and a long run.
const EDGE_LENS: [usize; 15] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 65, 1000];

/// `P` sizes for the fused-update bitwise check.
const P_SIZES: [usize; 5] = [1, 5, 8, 17, 33];

/// `tanh` band against libm, in units in the last place.
const TANH_MAX_ULPS: u64 = 2;

/// `tanh` of `xs` through `kind`'s kernel, as one slice.
fn tanh_under(kind: BackendKind, xs: &[f64]) -> Vec<f64> {
    backend::with_backend(kind, || {
        let mut v = xs.to_vec();
        backend::active().tanh(&mut v);
        v
    })
    .expect("backend came from available()")
}

/// The `tanh` contract of one backend (see the module docs).
fn tanh_checks(kind: BackendKind, rng: &mut XorShift64, profile: Profile) -> [VerifyCheck; 2] {
    let gates = &["dp-tensor", "deepmd-core"];
    let name = kind.name();
    let mut band = Check::new("backend", format!("{name}/tanh_vs_libm"), gates, 0.0);
    let mut pos = Check::new("backend", format!("{name}/tanh_position_independent"), gates, 0.0);

    // A sweep of [−20, 20], random points, and magnitudes down to the
    // subnormals; every point with its negation.
    let n_random = 2_000 * (1 + profile.gemm_shapes());
    let mut xs: Vec<f64> = (0..=8_000).map(|i| -20.0 + i as f64 * 0.005).collect();
    xs.extend((0..n_random).map(|_| rng.range(-20.0, 20.0)));
    xs.extend((0..640).map(|i| 10f64.powf(-(i as f64) * 0.5) * 1.7));
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    let (ys, ys_neg) = (tanh_under(kind, &xs), tanh_under(kind, &negated));
    for ((&x, &y), &yn) in xs.iter().zip(&ys).zip(&ys_neg) {
        let want = x.tanh();
        let ulps = (y.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
        band.exact(ulps <= TANH_MAX_ULPS, || {
            format!("tanh({x:e}): {name} {y:.17e} vs libm {want:.17e} ({ulps} ulp)")
        });
        band.exact(yn.to_bits() == (-y).to_bits(), || {
            format!("tanh(−{x:e}) = {yn:e} is not −tanh({x:e}) = {:e}", -y)
        });
    }
    let special = [0.0, -0.0, 20.0, -20.0, 1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let want = [0.0, -0.0, 1.0, -1.0, 1.0, 1.0, -1.0, f64::NAN];
    for ((x, y), w) in special.iter().zip(tanh_under(kind, &special)).zip(want) {
        band.exact(y.to_bits() == w.to_bits() || (y.is_nan() && w.is_nan()), || {
            format!("tanh({x:e}): {name} gave {y:e}, the contract says {w:e}")
        });
    }

    // Position independence: each value alone in a one-element slice
    // fixes its bits; every window of the buffer must reproduce them.
    let vals: Vec<f64> = (0..67).map(|_| rng.range(-6.0, 6.0)).collect();
    let alone: Vec<f64> = vals.iter().map(|&v| tanh_under(kind, &[v])[0]).collect();
    for off in 0..9 {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 58] {
            let end = (off + len).min(vals.len());
            let got = tanh_under(kind, &vals[off..end]);
            pos.exact(bits_eq(&got, &alone[off..end]), || {
                format!("tanh over [{off}, {end}): {name} differs from the one-element results")
            });
        }
    }
    [band.finish(), pos.finish()]
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Random symmetric `n×n` matrix (the `P`-update symmetry claim needs a
/// symmetric start).
fn random_symmetric(rng: &mut XorShift64, n: usize) -> Vec<f64> {
    let mut p = vec![0.0; n * n];
    for i in 0..n {
        for j in i..n {
            let v = rng.range(-1.0, 1.0);
            p[i * n + j] = v;
            p[j * n + i] = v;
        }
    }
    p
}

/// Apply the fused `P`-update row-by-row through `kind`'s backend.
fn p_update_under(
    kind: BackendKind,
    p0: &[f64],
    n: usize,
    q: &[f64],
    a: f64,
    inv_lambda: f64,
) -> Vec<f64> {
    backend::with_backend(kind, || {
        let be = backend::active();
        let mut p = p0.to_vec();
        for (i, row) in p.chunks_mut(n).enumerate() {
            be.p_update_rows(row, n, i, q, a, inv_lambda);
        }
        p
    })
    .expect("backend came from available()")
}

/// All checks for one backend against the scalar oracle.
fn backend_vs_scalar(kind: BackendKind, seed: u64, profile: Profile) -> Vec<VerifyCheck> {
    let gates = &["dp-tensor", "dp-optim"];
    let name = kind.name();
    let mut mm = Check::new("backend", format!("{name}/matmul_vs_scalar"), gates, TOL_GEMM);
    let mut tn = Check::new("backend", format!("{name}/t_matmul_vs_scalar"), gates, TOL_GEMM);
    let mut nt = Check::new("backend", format!("{name}/matmul_t_vs_scalar"), gates, TOL_GEMM);
    let mut mv = Check::new("backend", format!("{name}/matvec_vs_scalar"), gates, TOL_GEMM);
    let mut dt = Check::new("backend", format!("{name}/dot_vs_scalar"), gates, TOL_DOT);
    let mut el = Check::new("backend", format!("{name}/elementwise_bitwise"), gates, 0.0);
    let mut pu = Check::new("backend", format!("{name}/p_update_bitwise"), gates, 0.0);

    // Same seed for every backend: each sweeps identical operands, so a
    // failure replays under any single backend in isolation.
    let mut rng = XorShift64::new(seed ^ 0x00B2_EC7B_ACE2_D155);
    let mut shapes: Vec<(usize, usize, usize)> = EDGE_SHAPES.to_vec();
    for _ in 0..profile.gemm_shapes() {
        shapes.push((1 + rng.index(33), 1 + rng.index(33), 1 + rng.index(33)));
    }

    for &(m, k, n) in &shapes {
        let a = gen::random_mat(&mut rng, m, k);
        let b = gen::random_mat(&mut rng, k, n);
        let at = gen::random_mat(&mut rng, k, m); // Aᵀ·B operand
        let bt = gen::random_mat(&mut rng, n, k); // A·Bᵀ operand
        let x = gen::random_vec(&mut rng, k);

        let (mm_s, tn_s, nt_s, mv_s) = backend::with_backend(BackendKind::Scalar, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt), a.matvec(&x))
        })
        .expect("scalar is always available");
        let (mm_b, tn_b, nt_b, mv_b) = backend::with_backend(kind, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt), a.matvec(&x))
        })
        .expect("backend came from available()");

        for (idx, (x, y)) in mm_b.as_slice().iter().zip(mm_s.as_slice()).enumerate() {
            mm.case(rel_err(*x, *y), || {
                format!("matmul {m}x{k}x{n} elem {idx}: {name} {x:.17e} vs scalar {y:.17e}")
            });
        }
        for (idx, (x, y)) in tn_b.as_slice().iter().zip(tn_s.as_slice()).enumerate() {
            tn.case(rel_err(*x, *y), || {
                format!("t_matmul {k}x{m}x{n} elem {idx}: {name} {x:.17e} vs scalar {y:.17e}")
            });
        }
        for (idx, (x, y)) in nt_b.as_slice().iter().zip(nt_s.as_slice()).enumerate() {
            nt.case(rel_err(*x, *y), || {
                format!("matmul_t {m}x{k}x{n} elem {idx}: {name} {x:.17e} vs scalar {y:.17e}")
            });
        }
        for (idx, (x, y)) in mv_b.iter().zip(&mv_s).enumerate() {
            mv.case(rel_err(*x, *y), || {
                format!("matvec {m}x{k} row {idx}: {name} {x:.17e} vs scalar {y:.17e}")
            });
        }
    }

    for &n in &EDGE_LENS {
        let xv = gen::random_vec(&mut rng, n);
        let y0 = gen::random_vec(&mut rng, n);
        let alpha = rng.range(-2.0, 2.0);
        // Two views per length: the full slice and (when long enough) a
        // sub-slice starting at 1 — off the allocator's 16/32-byte
        // alignment, where a kernel assuming aligned loads would fault
        // or read garbage.
        let offsets: &[usize] = if n >= 2 { &[0, 1] } else { &[0] };
        for &off in offsets {
            let xs = &xv[off..];
            let run = |k: BackendKind| {
                backend::with_backend(k, || {
                    let be = backend::active();
                    let d = be.dot(xs, &y0[off..]);
                    let mut ya = y0[off..].to_vec();
                    be.axpy(alpha, xs, &mut ya);
                    let mut ysc = y0[off..].to_vec();
                    be.scale(alpha, &mut ysc);
                    let mut yad = y0[off..].to_vec();
                    be.add_assign(&mut yad, xs);
                    (d, ya, ysc, yad)
                })
                .expect("backend came from available()")
            };
            let (d_s, ya_s, ysc_s, yad_s) = run(BackendKind::Scalar);
            let (d_b, ya_b, ysc_b, yad_b) = run(kind);
            dt.case(rel_err(d_b, d_s), || {
                format!("dot n={n} off={off}: {name} {d_b:.17e} vs scalar {d_s:.17e}")
            });
            el.exact(bits_eq(&ya_b, &ya_s), || {
                format!("axpy n={n} off={off}: {name} differs bitwise from scalar")
            });
            el.exact(bits_eq(&ysc_b, &ysc_s), || {
                format!("scale n={n} off={off}: {name} differs bitwise from scalar")
            });
            el.exact(bits_eq(&yad_b, &yad_s), || {
                format!("add_assign n={n} off={off}: {name} differs bitwise from scalar")
            });
        }
    }

    for &n in &P_SIZES {
        let p0 = random_symmetric(&mut rng, n);
        let q = gen::random_vec(&mut rng, n);
        let a = rng.range(0.0, 1.0);
        let inv_lambda = 1.0 / rng.range(0.95, 1.0);
        let p_s = p_update_under(BackendKind::Scalar, &p0, n, &q, a, inv_lambda);
        let p_b = p_update_under(kind, &p0, n, &q, a, inv_lambda);
        pu.exact(bits_eq(&p_b, &p_s), || {
            format!("p_update n={n}: {name} differs bitwise from scalar")
        });
        let symmetric = (0..n).all(|i| {
            (0..n).all(|j| p_b[i * n + j].to_bits() == p_b[j * n + i].to_bits())
        });
        pu.exact(symmetric, || {
            format!("p_update n={n}: {name} broke bitwise symmetry of P")
        });
    }

    let [th, tp] = tanh_checks(kind, &mut rng, profile);
    vec![
        mm.finish(),
        tn.finish(),
        nt.finish(),
        mv.finish(),
        dt.finish(),
        el.finish(),
        pu.finish(),
        th,
        tp,
    ]
}

/// Run the family: every backend this CPU supports, against scalar.
pub fn run(seed: u64, profile: Profile) -> Vec<VerifyCheck> {
    let mut out = Vec::new();
    for kind in backend::available() {
        out.extend(backend_vs_scalar(kind, seed, profile));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_available_backend_matches_scalar() {
        for check in run(7, Profile::Quick) {
            assert_eq!(check.failures, 0, "{}: {:?}", check.name, check.details);
        }
    }

    #[test]
    fn a_perturbed_simd_result_would_be_caught() {
        // The bitwise oracle in miniature: one ULP of drift in an
        // elementwise result must flag.
        let a = [1.0f64, 2.0, 3.0];
        let mut b = a;
        b[1] = f64::from_bits(b[1].to_bits() + 1);
        assert!(!bits_eq(&a, &b));
        let mut c = Check::new("backend", "t", &[], 0.0);
        c.exact(bits_eq(&a, &b), || "mismatch".to_string());
        assert_eq!(c.failures(), 1);
    }
}
