//! Flat-vector kernels shared by the optimizers and the communication
//! layer: dot products, AXPY, reductions. Each is one "kernel launch".
//!
//! The elementwise primitives (`axpy`/`scale`/`add_assign`) dispatch to
//! the active [`crate::backend`] — the single implementation per backend
//! shared with [`crate::Mat`]'s methods of the same name. [`dot`] is the
//! one deliberate exception: see its docs.

use crate::backend;
use crate::kernel;

/// Dot product `x · y` as a *strict left-to-right fold*.
///
/// Deliberately **not** a [`crate::backend`] primitive: the EKF gain
/// `a = 1/(λ + gᵀq)` consumes this exact fold order, and the golden
/// training fingerprints (and every committed checkpoint) pin it
/// bitwise. It is O(n) next to the O(n²) GEMV feeding it, so
/// vectorizing it buys nothing measurable; the backend trait's tiled
/// `dot` (4-accumulator combine, SIMD-overridden) serves the O(n²)
/// paths instead.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    kernel::launch("dot");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    kernel::launch("axpy_v");
    backend::active().axpy(alpha, x, y);
}

/// `y = alpha * y`.
pub fn scale(alpha: f64, y: &mut [f64]) {
    kernel::launch("scale_v");
    backend::active().scale(alpha, y);
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Elementwise sum of `src` into `dst`.
pub fn add_assign(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "add_assign: length mismatch");
    kernel::launch("add_v");
    backend::active().add_assign(dst, src);
}

/// Mean of the elements (0 for an empty slice).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Root-mean-square of the elements (0 for an empty slice).
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small_and_large_agree_with_reference() {
        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5).collect();
        let reference: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - reference).abs() < 1e-6 * reference.abs().max(1.0));
        let xs = &x[..100];
        let ys = &y[..100];
        let rs: f64 = xs.iter().zip(ys).map(|(a, b)| a * b).sum();
        assert!((dot(xs, ys) - rs).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0, 18.0]);
    }

    #[test]
    fn mean_and_rms() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn norm2_matches_hand_value() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }
}
