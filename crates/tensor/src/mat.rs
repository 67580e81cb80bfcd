//! Row-major dense `f64` matrices and the GEMM-family kernels built on
//! them.
//!
//! Dimensions in the DeePMD workload are small-to-medium (neighbour counts
//! ≲ 200, feature widths ≤ 400), so the kernels favour a cache-friendly
//! `i-k-j` loop order with an optional `dp-pool` split over row blocks for the
//! larger products (notably the Kalman-filter `P·g` GEMVs over blocks of
//! up to 10240×10240). Every public kernel reports one launch to
//! [`crate::kernel`].
//!
//! This layer owns the *decomposition* — row-group boundaries, the
//! serial/parallel crossover, beta handling — all of it a pure function
//! of the shapes, so results stay bitwise identical at any thread count.
//! The per-group arithmetic itself lives behind [`crate::backend`]: the
//! active SIMD backend is resolved once per kernel launch and carried
//! into the pool closures, so every row group of one launch runs on the
//! same backend even when a scoped `with_backend` override is active.

use crate::backend::{self, GEMM_MR};
use crate::kernel;

/// Row-major dense matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Create a matrix that owns `data` (row-major, `rows*cols` long).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec: length mismatch");
        Mat { rows, cols, data }
    }

    /// `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        kernel::launch("transpose");
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `C = A · B`.
    pub fn matmul(&self, b: &Mat) -> Mat {
        let mut c = Mat::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut c, 0.0);
        c
    }

    /// `C = A · B + beta · C`, writing into a preallocated `out`.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, b: &Mat, out: &mut Mat, beta: f64) {
        assert_eq!(self.cols, b.rows, "matmul: inner dims {} vs {}", self.cols, b.rows);
        assert_eq!(out.shape(), (self.rows, b.cols), "matmul: bad out shape");
        kernel::launch("gemm");
        let n = b.cols;
        if n == 0 || self.rows == 0 {
            return;
        }
        let work = self.rows * self.cols * n;
        if beta == 0.0 {
            out.data.fill(0.0);
        } else if beta != 1.0 {
            for v in &mut out.data {
                *v *= beta;
            }
        }
        let a = &self.data;
        let bd = &b.data;
        let k = self.cols;
        let be = backend::active();
        // Row groups of GEMM_MR are the unit of work; the group
        // boundaries are a function of the shapes alone, so scheduling
        // cannot change any accumulation order.
        if work >= be.par_flops_threshold() {
            dp_pool::for_each_chunk_mut(&mut out.data, GEMM_MR * n, |g, crows| {
                be.gemm_row_group(a, bd, k, n, g * GEMM_MR, crows)
            });
        } else {
            for (g, crows) in out.data.chunks_mut(GEMM_MR * n).enumerate() {
                be.gemm_row_group(a, bd, k, n, g * GEMM_MR, crows);
            }
        }
    }

    /// `C = Aᵀ · B` without materializing the transpose.
    ///
    /// Tiled like [`Mat::matmul_into`]: [`GEMM_MR`]-high output row
    /// groups in `i-k-j` order, so each streamed `A`/`B` row pair feeds
    /// 4 accumulator rows and `k` ascends for every output element —
    /// group boundaries depend only on the shapes, so the result is
    /// bitwise thread-count independent.
    pub fn t_matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.rows, b.rows, "t_matmul: inner dims {} vs {}", self.rows, b.rows);
        kernel::launch("gemm_tn");
        let (m, n) = (self.cols, b.cols);
        let mut out = Mat::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        let a = &self.data;
        let bd = &b.data;
        let rows = self.rows;
        let be = backend::active();
        if rows * m * n >= be.par_flops_threshold() {
            dp_pool::for_each_chunk_mut(&mut out.data, GEMM_MR * n, |g, crows| {
                be.gemm_tn_row_group(a, bd, rows, m, n, g * GEMM_MR, crows)
            });
        } else {
            for (g, crows) in out.data.chunks_mut(GEMM_MR * n).enumerate() {
                be.gemm_tn_row_group(a, bd, rows, m, n, g * GEMM_MR, crows);
            }
        }
        out
    }

    /// `C = A · Bᵀ` without materializing the transpose.
    ///
    /// Output rows are processed in [`GEMM_MR`] groups sharing each
    /// streamed row of `B` (one `B`-row load per 4 outputs); every
    /// element stays an independent [`backend::Backend::dot`], so the
    /// tiling is bitwise identical to the naive row-by-row loop at any
    /// thread count within one backend.
    pub fn matmul_t(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.cols, "matmul_t: inner dims {} vs {}", self.cols, b.cols);
        kernel::launch("gemm_nt");
        let (m, n, k) = (self.rows, b.rows, self.cols);
        let mut out = Mat::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        let a = &self.data;
        let bd = &b.data;
        let be = backend::active();
        if m * n * k >= be.par_flops_threshold() {
            dp_pool::for_each_chunk_mut(&mut out.data, GEMM_MR * n, |g, crows| {
                be.gemm_nt_row_group(a, bd, k, n, g * GEMM_MR, crows)
            });
        } else {
            for (g, crows) in out.data.chunks_mut(GEMM_MR * n).enumerate() {
                be.gemm_nt_row_group(a, bd, k, n, g * GEMM_MR, crows);
            }
        }
        out
    }

    /// Matrix–vector product `y = A · x`.
    ///
    /// Parallelized over row blocks for the large Kalman-filter blocks.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// `out = A · x`, writing into a preallocated buffer — the
    /// allocation-free GEMV backing the FEKF `P·g` hot path.
    ///
    /// Each output element is one [`backend::Backend::dot`] (fixed
    /// lane-reduction order within the active backend), so results are
    /// bitwise identical for every thread count; the rows run through
    /// [`backend::Backend::matvec_rows`] in groups of four, which
    /// share each load of `x`. Neither the sequential nor the pool path
    /// heap-allocates.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(self.cols, x.len(), "matvec: dims {} vs {}", self.cols, x.len());
        assert_eq!(out.len(), self.rows, "matvec: bad out length");
        kernel::launch("gemv");
        let n = self.cols;
        if n == 0 {
            out.fill(0.0);
            return;
        }
        let data = &self.data;
        let be = backend::active();
        if self.rows * n >= be.par_flops_threshold() {
            dp_pool::for_each_chunk_mut(out, GEMM_MR, |g, o| {
                be.matvec_rows(&data[g * GEMM_MR * n..][..o.len() * n], x, o);
            });
        } else {
            be.matvec_rows(data, x, out);
        }
    }

    /// Elementwise map (counts as one kernel).
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Mat {
        kernel::launch("map");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Mat {
        kernel::launch("tanh");
        let mut data = self.data.clone();
        backend::active().tanh(&mut data);
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise sum with another matrix of the same shape.
    pub fn add(&self, b: &Mat) -> Mat {
        assert_eq!(self.shape(), b.shape(), "add: shape mismatch");
        kernel::launch("add");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&b.data).map(|(a, b)| a + b).collect(),
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, b: &Mat) -> Mat {
        assert_eq!(self.shape(), b.shape(), "sub: shape mismatch");
        kernel::launch("sub");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&b.data).map(|(a, b)| a - b).collect(),
        }
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, b: &Mat) -> Mat {
        assert_eq!(self.shape(), b.shape(), "hadamard: shape mismatch");
        kernel::launch("mul");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&b.data).map(|(a, b)| a * b).collect(),
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Mat {
        kernel::launch("scale");
        let mut data = self.data.clone();
        backend::active().scale(s, &mut data);
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += alpha * b`.
    pub fn axpy(&mut self, alpha: f64, b: &Mat) {
        assert_eq!(self.shape(), b.shape(), "axpy: shape mismatch");
        kernel::launch("axpy");
        backend::active().axpy(alpha, &b.data, &mut self.data);
    }

    /// Broadcast-add a `1 × cols` row vector onto every row.
    pub fn add_row_broadcast(&self, row: &Mat) -> Mat {
        assert_eq!(row.rows, 1, "add_row_broadcast: row must be 1×n");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: width mismatch");
        kernel::launch("add_bcast");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(row.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        kernel::launch("sum");
        self.data.iter().sum()
    }

    /// Copy of the column slice `[c0, c1)`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Mat {
        assert!(c0 <= c1 && c1 <= self.cols, "slice_cols: bad range");
        kernel::launch("slice");
        let w = c1 - c0;
        let mut out = Mat::zeros(self.rows, w);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn close(a: &Mat, b: &Mat, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Mat::from_fn(7, 5, |r, c| (r as f64) - 0.3 * c as f64);
        let b = Mat::from_fn(5, 9, |r, c| 0.1 * (r * c) as f64 - 1.0);
        assert!(close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-12));
    }

    #[test]
    fn t_matmul_matches_transpose_then_matmul() {
        let a = Mat::from_fn(6, 4, |r, c| ((r + 2 * c) as f64).sin());
        let b = Mat::from_fn(6, 3, |r, c| ((r * c) as f64).cos());
        assert!(close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-12));
    }

    #[test]
    fn matmul_t_matches_matmul_with_transpose() {
        let a = Mat::from_fn(4, 5, |r, c| (r + c) as f64 * 0.25);
        let b = Mat::from_fn(7, 5, |r, c| (r as f64 - c as f64) * 0.5);
        assert!(close(&a.matmul_t(&b), &a.matmul(&b.transpose()), 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_fn(8, 6, |r, c| (r * 6 + c) as f64 * 0.01);
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let xm = Mat::from_vec(6, 1, x.clone());
        let y = a.matvec(&x);
        let ym = a.matmul(&xm);
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - ym.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_into_accumulates_with_beta() {
        let a = Mat::from_fn(3, 3, |r, c| (r + c) as f64);
        let b = Mat::eye(3);
        let mut c = Mat::from_fn(3, 3, |_, _| 1.0);
        a.matmul_into(&b, &mut c, 2.0);
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.get(i, j) - (2.0 + (i + j) as f64)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn large_parallel_gemm_matches_naive() {
        let a = Mat::from_fn(120, 90, |r, c| ((r * 31 + c * 17) % 13) as f64 - 6.0);
        let b = Mat::from_fn(90, 110, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.1);
        assert!(close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_remainder_rows_match_naive() {
        // 121 rows: 30 full 4-row register tiles plus a 1-row remainder.
        let a = Mat::from_fn(121, 33, |r, c| ((r * 13 + c * 7) % 17) as f64 * 0.3 - 2.0);
        let b = Mat::from_fn(33, 29, |r, c| ((r * 5 + c * 11) % 19) as f64 * 0.1 - 0.9);
        assert!(close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-10));
    }

    #[test]
    fn matvec_into_matches_matvec_without_allocating_shapes() {
        let a = Mat::from_fn(37, 23, |r, c| ((r * 7 + c) % 5) as f64 - 1.5);
        let x: Vec<f64> = (0..23).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut out = vec![f64::NAN; 37];
        a.matvec_into(&x, &mut out);
        let y = a.matvec(&x);
        assert_eq!(out, y);
    }

    /// GEMM and GEMV must produce bit-identical outputs for every pool
    /// size: fixed row-group boundaries + fixed accumulator combine order.
    #[test]
    fn kernels_bitwise_invariant_across_thread_counts() {
        // Big enough to clear PAR_FLOPS_THRESHOLD and hit the pool path.
        let a = Mat::from_fn(130, 80, |r, c| ((r * 31 + c * 17) as f64 * 0.013).sin());
        let b = Mat::from_fn(80, 70, |r, c| ((r * 7 + c * 3) as f64 * 0.021).cos());
        let x: Vec<f64> = (0..80).map(|i| (i as f64 * 0.37).sin()).collect();
        let big = Mat::from_fn(600, 600, |r, c| ((r * 601 + c) as f64 * 1e-5).tanh());
        let xb: Vec<f64> = (0..600).map(|i| (i as f64 * 0.017).cos()).collect();
        let run = |threads: usize| {
            dp_pool::set_threads(threads);
            (
                a.matmul(&b),
                a.matvec(&x),
                big.matvec(&xb),
                a.t_matmul(&a),
                b.matmul_t(&b),
            )
        };
        let (c1, y1, z1, t1, u1) = run(1);
        let (c2, y2, z2, t2, u2) = run(2);
        let (c8, y8, z8, t8, u8) = run(8);
        dp_pool::set_threads(1);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(c1.as_slice()), bits(c2.as_slice()));
        assert_eq!(bits(c1.as_slice()), bits(c8.as_slice()));
        assert_eq!(bits(&y1), bits(&y2));
        assert_eq!(bits(&y1), bits(&y8));
        assert_eq!(bits(&z1), bits(&z2));
        assert_eq!(bits(&z1), bits(&z8));
        assert_eq!(bits(t1.as_slice()), bits(t2.as_slice()));
        assert_eq!(bits(t1.as_slice()), bits(t8.as_slice()));
        assert_eq!(bits(u1.as_slice()), bits(u2.as_slice()));
        assert_eq!(bits(u1.as_slice()), bits(u8.as_slice()));
    }

    #[test]
    fn slice_cols_roundtrip() {
        let a = Mat::from_fn(4, 6, |r, c| (10 * r + c) as f64);
        let s = a.slice_cols(1, 4);
        assert_eq!(s.shape(), (4, 3));
        assert_eq!(s.get(2, 0), 21.0);
        assert_eq!(s.get(3, 2), 33.0);
    }

    #[test]
    fn add_row_broadcast_adds_each_row() {
        let a = Mat::zeros(3, 2);
        let row = Mat::from_vec(1, 2, vec![1.0, -2.0]);
        let out = a.add_row_broadcast(&row);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Mat::from_fn(5, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
            proptest::collection::vec(-5.0f64..5.0, rows * cols)
                .prop_map(move |v| Mat::from_vec(rows, cols, v))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn matmul_distributes_over_addition(
                a in mat_strategy(4, 5),
                b in mat_strategy(5, 3),
                c in mat_strategy(5, 3),
            ) {
                let lhs = a.matmul(&b.add(&c));
                let rhs = a.matmul(&b).add(&a.matmul(&c));
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-9);
                }
            }

            #[test]
            fn transpose_reverses_products(
                a in mat_strategy(3, 4),
                b in mat_strategy(4, 2),
            ) {
                // (AB)ᵀ = Bᵀ Aᵀ
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-10);
                }
            }

            #[test]
            fn t_matmul_and_matmul_t_are_consistent(
                a in mat_strategy(4, 3),
                b in mat_strategy(4, 2),
            ) {
                // AᵀB computed two ways.
                let lhs = a.t_matmul(&b);
                let rhs = b.transpose().matmul(&a).transpose();
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-10);
                }
            }

            #[test]
            fn scale_is_linear(a in mat_strategy(3, 3), s in -3.0f64..3.0, t in -3.0f64..3.0) {
                let lhs = a.scale(s + t);
                let rhs = a.scale(s).add(&a.scale(t));
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-10);
                }
            }
        }
    }
}
