//! Deterministic fixtures shared by the backend sweeps (`backend_edge`,
//! `backend_pins`): no RNG dependency, the same values on every run.
#![allow(dead_code)]

use dp_tensor::Mat;

/// Deterministic non-trivial fill in `[-1, 1)`.
pub fn det(i: usize, salt: usize) -> f64 {
    (((i * 2654435761 + salt * 1315423911) % 2000) as f64) * 1e-3 - 1.0
}

pub fn det_mat(rows: usize, cols: usize, salt: usize) -> Mat {
    Mat::from_fn(rows, cols, |r, c| det(r * cols + c, salt))
}

pub fn det_vec(n: usize, salt: usize) -> Vec<f64> {
    (0..n).map(|i| det(i, salt)).collect()
}

/// `(m, k, n)` shapes straddling every lane width (2, 4, 8): exact
/// multiples, ±1 tails, and degenerate single-row/column cases.
pub const SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (1, 1, 5),
    (1, 7, 1),
    (5, 1, 1),
    (1, 16, 3), // single output row, lane-exact k
    (3, 17, 1), // single output column, lane+1 k
    (2, 2, 2),
    (4, 8, 4),
    (5, 9, 7),
    (8, 15, 9),
    (9, 33, 16),
    (13, 65, 11),
];

/// Lengths for the 1-D primitives: empty, scalar, lane widths ±1.
pub const LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 65];
