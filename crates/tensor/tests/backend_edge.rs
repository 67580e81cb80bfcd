//! SIMD edge-shape sweep: every backend this CPU supports (plus forced
//! scalar), over the inputs lane-based kernels get wrong when they are
//! wrong — tails not divisible by the lane width, `n = 0/1` vectors,
//! single-row/column matrices, and unaligned sub-slice views that start
//! one element past the allocator's 16/32-byte alignment.
//!
//! Reduction kernels are checked against an inline naive reference with
//! the cross-backend tolerance band (DESIGN §13); the elementwise
//! primitives are checked *bitwise* against the scalar backend, which
//! is the FMA-free contract every SIMD implementation signs up to.

use dp_tensor::backend::{self, BackendKind};
use dp_tensor::vecops;

mod common;
use common::{det_mat, det_vec, LENS, SHAPES};

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / (1.0 + b.abs())
}

const TOL: f64 = 1e-12;

/// `available()` always includes scalar, so the sweep covers forced
/// scalar on a no-SIMD machine and scalar + every SIMD tier elsewhere.
fn all_backends() -> Vec<BackendKind> {
    let kinds = backend::available();
    assert!(kinds.contains(&BackendKind::Scalar));
    kinds
}

#[test]
fn gemm_kernels_match_naive_on_edge_shapes() {
    for kind in all_backends() {
        for &(m, k, n) in &SHAPES {
            let a = det_mat(m, k, 1);
            let b = det_mat(k, n, 2);
            let at = det_mat(k, m, 3);
            let bt = det_mat(n, k, 4);
            let x = det_vec(k, 5);

            let (mm, tn, nt, mv) = backend::with_backend(kind, || {
                (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt), a.matvec(&x))
            })
            .expect("backend came from available()");

            for i in 0..m {
                for j in 0..n {
                    let r: f64 = (0..k).map(|p| a.get(i, p) * b.get(p, j)).sum();
                    assert!(
                        rel_err(mm.get(i, j), r) < TOL,
                        "{}: matmul {m}x{k}x{n} at ({i},{j}): {} vs naive {r}",
                        kind.name(),
                        mm.get(i, j)
                    );
                }
            }
            assert_eq!(tn.shape(), (m, n));
            for i in 0..m {
                for j in 0..n {
                    let r: f64 = (0..k).map(|p| at.get(p, i) * b.get(p, j)).sum();
                    assert!(
                        rel_err(tn.get(i, j), r) < TOL,
                        "{}: t_matmul {k}x{m}x{n} at ({i},{j})",
                        kind.name()
                    );
                }
            }
            for i in 0..m {
                for j in 0..n {
                    let r: f64 = (0..k).map(|p| a.get(i, p) * bt.get(j, p)).sum();
                    assert!(
                        rel_err(nt.get(i, j), r) < TOL,
                        "{}: matmul_t {m}x{k}x{n} at ({i},{j})",
                        kind.name()
                    );
                }
            }
            for (i, &yi) in mv.iter().enumerate() {
                let r: f64 = (0..k).map(|p| a.get(i, p) * x[p]).sum();
                assert!(
                    rel_err(yi, r) < TOL,
                    "{}: matvec {m}x{k} row {i}: {yi} vs naive {r}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn elementwise_primitives_are_bitwise_scalar_on_tails_and_unaligned_views() {
    for kind in all_backends() {
        for &n in &LENS {
            let x = det_vec(n, 6);
            let y0 = det_vec(n, 7);
            let alpha = 1.25e-1 + n as f64 * 1e-3;
            // off = 1 starts the view one f64 past the allocation — off
            // any 16/32/64-byte SIMD alignment.
            let offsets: &[usize] = if n >= 2 { &[0, 1] } else { &[0] };
            for &off in offsets {
                let run = |k: BackendKind| {
                    backend::with_backend(k, || {
                        let mut ya = y0[off..].to_vec();
                        vecops::axpy(alpha, &x[off..], &mut ya);
                        let mut ys = y0[off..].to_vec();
                        vecops::scale(alpha, &mut ys);
                        let mut yd = y0[off..].to_vec();
                        vecops::add_assign(&mut yd, &x[off..]);
                        (ya, ys, yd)
                    })
                    .expect("backend came from available()")
                };
                let (ya_s, ys_s, yd_s) = run(BackendKind::Scalar);
                let (ya_b, ys_b, yd_b) = run(kind);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ya_b), bits(&ya_s), "{}: axpy n={n} off={off}", kind.name());
                assert_eq!(bits(&ys_b), bits(&ys_s), "{}: scale n={n} off={off}", kind.name());
                assert_eq!(bits(&yd_b), bits(&yd_s), "{}: add_assign n={n} off={off}", kind.name());
            }
        }
    }
}

#[test]
fn backend_dot_handles_empty_short_and_unaligned_inputs() {
    for kind in all_backends() {
        for &n in &LENS {
            let x = det_vec(n, 8);
            let y = det_vec(n, 9);
            let offsets: &[usize] = if n >= 2 { &[0, 1] } else { &[0] };
            for &off in offsets {
                let naive: f64 = x[off..].iter().zip(&y[off..]).map(|(a, b)| a * b).sum();
                let d = backend::with_backend(kind, || {
                    backend::active().dot(&x[off..], &y[off..])
                })
                .expect("backend came from available()");
                assert!(
                    rel_err(d, naive) < 1e-13,
                    "{}: dot n={n} off={off}: {d} vs naive {naive}",
                    kind.name()
                );
            }
        }
    }
    // The degenerate cases have exact expected values.
    for kind in all_backends() {
        let checks = backend::with_backend(kind, || {
            let be = backend::active();
            (be.dot(&[], &[]), be.dot(&[3.0], &[-2.5]))
        })
        .expect("backend came from available()");
        assert_eq!(checks.0, 0.0, "{}: empty dot", kind.name());
        assert_eq!(checks.1, -7.5, "{}: n=1 dot", kind.name());
    }
}

#[test]
fn matvec_on_single_row_and_single_column_matrices() {
    for kind in all_backends() {
        backend::with_backend(kind, || {
            // 1×k row · k-vector = plain dot.
            let a = det_mat(1, 9, 10);
            let x = det_vec(9, 11);
            let y = a.matvec(&x);
            let naive: f64 = (0..9).map(|p| a.get(0, p) * x[p]).sum();
            assert!(rel_err(y[0], naive) < TOL, "{}: 1xk matvec", kind.name());

            // m×1 column · 1-vector = scaled column.
            let a = det_mat(9, 1, 12);
            let y = a.matvec(&[2.0]);
            for (i, &yi) in y.iter().enumerate() {
                assert!(
                    rel_err(yi, a.get(i, 0) * 2.0) < TOL,
                    "{}: mx1 matvec row {i}",
                    kind.name()
                );
            }
        })
        .expect("backend came from available()");
    }
}
