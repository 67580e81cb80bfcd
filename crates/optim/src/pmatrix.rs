//! Block-diagonal weights error covariance matrix `P`.
//!
//! Two update implementations of Algorithm 1 lines 9–11
//! (`K = A·P·g`, `P ← (P − (1/A)KKᵀ)/λ`, symmetrize):
//!
//! * [`BlockP::update_fused`] — the paper's Opt3 handwritten kernel: a
//!   single elementwise pass `P_ij ← (P_ij − a·q_i·q_j)/λ` with **zero**
//!   temporary allocation. Because `a·q_i·q_j` is bitwise symmetric and
//!   `P` starts symmetric, exact symmetry is preserved by induction
//!   (asserted in the tests), making the explicit symmetrization pass a
//!   no-op that we fold away.
//! * [`BlockP::update_unfused`] — the PyTorch-style composition the
//!   baseline executes: materialize `K`, the `n×n` outer product `KKᵀ`,
//!   the subtraction, the scaling and the transpose-average — each its
//!   own kernel launch with its own `n×n` temporary. §5.3 attributes a
//!   3380 MB → 1805 MB peak-memory drop to removing exactly these
//!   temporaries.

use crate::blocks::BlockLayout;
use dp_tensor::kernel;
use dp_tensor::Mat;

/// Block-diagonal `P = diag(P₁ … P_L)`, initialized to identity.
#[derive(Clone, Debug)]
pub struct BlockP {
    blocks: Vec<Mat>,
}

impl BlockP {
    /// Identity `P` shaped by the layout (Algorithm 1 line 2).
    pub fn identity(layout: &BlockLayout) -> Self {
        BlockP {
            blocks: layout.sizes().iter().map(|&n| Mat::eye(n)).collect(),
        }
    }

    /// Number of diagonal blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Borrow a block.
    pub fn block(&self, b: usize) -> &Mat {
        &self.blocks[b]
    }

    /// Borrow a block mutably.
    pub fn block_mut(&mut self, b: usize) -> &mut Mat {
        &mut self.blocks[b]
    }

    /// `q = P_b · g` — the cached `P·g` product reused by `A`, `K` and
    /// the `P` update (Opt3's "cache intermediate results").
    pub fn matvec(&self, b: usize, g: &[f64]) -> Vec<f64> {
        self.blocks[b].matvec(g)
    }

    /// `out = P_b · g` into a preallocated buffer — the allocation-free
    /// variant backing the steady-state FEKF iteration.
    pub fn matvec_into(&self, b: usize, g: &[f64], out: &mut [f64]) {
        self.blocks[b].matvec_into(g, out);
    }

    /// Fused update: `P ← (P − a·q·qᵀ)/λ` in one allocation-free pass.
    ///
    /// The per-row arithmetic is the active [`dp_tensor::backend`]'s
    /// `p_update_rows` primitive. Every backend evaluates the grouped
    /// `a·(qᵢ·qⱼ)` expression FMA-free with identical roundings, so the
    /// update is bitwise identical across backends and symmetric entries
    /// stay bitwise equal — the Algorithm 1 line-11 symmetrization
    /// remains a no-op under SIMD too (asserted in the tests).
    pub fn update_fused(&mut self, b: usize, q: &[f64], a: f64, lambda: f64) {
        let p = &mut self.blocks[b];
        let n = p.cols();
        assert_eq!(q.len(), n, "update_fused: dimension mismatch");
        kernel::launch("p_update_fused");
        let inv_lambda = 1.0 / lambda;
        let be = dp_tensor::backend::active();
        dp_pool::for_each_chunk_mut(p.as_mut_slice(), n, |i, row| {
            be.p_update_rows(row, n, i, q, a, inv_lambda)
        });
    }

    /// [`BlockP::update_fused`] chained to the next Kalman update: the
    /// same pass also writes `q_next = P_b · g_next` for the `P_b` it
    /// leaves behind, each entry formed from the row just written in
    /// the order of [`dp_tensor::backend::Backend::dot`] (the backend's
    /// `p_update_dot_rows`). `P_b` and `q_next` are bitwise what
    /// `update_fused` followed by [`BlockP::matvec_into`] produce, in
    /// one sweep of `P_b` instead of two.
    pub fn update_fused_chained(
        &mut self,
        b: usize,
        q: &[f64],
        a: f64,
        lambda: f64,
        g_next: &[f64],
        q_next: &mut [f64],
    ) {
        let p = &mut self.blocks[b];
        let n = p.cols();
        assert!(
            q.len() == n && g_next.len() == n && q_next.len() == n,
            "update_fused_chained: dimension mismatch"
        );
        kernel::launch("p_update_fused_dot");
        let inv_lambda = 1.0 / lambda;
        let be = dp_tensor::backend::active();
        dp_pool::for_each_chunk_pair_mut(p.as_mut_slice(), n, q_next, 1, |i, row, out| {
            be.p_update_dot_rows(row, n, i, q, a, inv_lambda, g_next, out)
        });
    }

    /// Unfused (framework-style) update: the same arithmetic through
    /// generic tensor ops, materializing `K`, `KKᵀ` and the
    /// intermediate differences. Returns the peak number of *extra*
    /// bytes allocated, for the §5.3 memory accounting.
    pub fn update_unfused(&mut self, b: usize, q: &[f64], a: f64, lambda: f64) -> usize {
        let n = self.blocks[b].cols();
        assert_eq!(q.len(), n, "update_unfused: dimension mismatch");
        // K = a·q  (n×1 temp).
        kernel::launch("scale_v");
        let k = Mat::from_vec(n, 1, q.iter().map(|&v| a * v).collect());
        // KKᵀ via GEMM (n×n temp).
        let kkt = k.matmul_t(&k);
        // P − (1/a)·KKᵀ (n×n temp) — note (1/a)·KKᵀ = a·qqᵀ.
        let scaled = kkt.scale(1.0 / a);
        let diff = self.blocks[b].sub(&scaled);
        // (1/λ) scaling (n×n temp).
        let new_p = diff.scale(1.0 / lambda);
        // Symmetrize: (P + Pᵀ)/2 (n×n temps).
        let pt = new_p.transpose();
        self.blocks[b] = new_p.add(&pt).scale(0.5);
        // Peak live temporaries: K + ~3 n×n buffers.
        (n + 3 * n * n) * std::mem::size_of::<f64>()
    }

    /// Explicit symmetrization `(P + Pᵀ)/2` (Algorithm 1 line 11) —
    /// exposed for the unfused path and drift tests.
    pub fn symmetrize(&mut self, b: usize) {
        kernel::launch("p_symmetrize");
        let p = &mut self.blocks[b];
        let n = p.cols();
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (p.get(i, j) + p.get(j, i));
                p.set(i, j, avg);
                p.set(j, i, avg);
            }
        }
    }

    /// Reset one block to `p0·I` — the divergence-recovery action: a
    /// block whose covariance went non-finite or exploded is returned
    /// to a fresh, conservative prior.
    pub fn reset_block(&mut self, b: usize, p0: f64) {
        let n = self.blocks[b].cols();
        let mut m = Mat::eye(n);
        if p0 != 1.0 {
            m = m.scale(p0);
        }
        self.blocks[b] = m;
    }

    /// Overwrite one block's entries (checkpoint restore).
    ///
    /// # Panics
    /// Panics if `data` does not match the block's element count —
    /// callers validate sizes before restoring.
    pub fn set_block_data(&mut self, b: usize, data: &[f64]) {
        let p = &mut self.blocks[b];
        assert_eq!(data.len(), p.len(), "set_block_data: size mismatch");
        p.as_mut_slice().copy_from_slice(data);
    }

    /// First block whose diagonal is unhealthy — non-finite,
    /// non-positive, or larger than `cap` — if any. The diagonal of a
    /// covariance block is its variance; the KF update can only shrink
    /// `gᵀPg`, so an exploding or negative diagonal is always
    /// numerical divergence.
    pub fn first_unhealthy_block(&self, cap: f64) -> Option<usize> {
        (0..self.blocks.len()).find(|&b| {
            let p = &self.blocks[b];
            let n = p.cols();
            (0..n).any(|i| {
                let d = p.get(i, i);
                !d.is_finite() || d <= 0.0 || d > cap
            })
        })
    }

    /// Resident bytes of all blocks (the §5.3 `P` footprint).
    pub fn memory_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|m| m.len() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Maximum asymmetry `|P − Pᵀ|_∞` over a block (drift diagnostics).
    pub fn asymmetry(&self, b: usize) -> f64 {
        let p = &self.blocks[b];
        let n = p.cols();
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                worst = worst.max((p.get(i, j) - p.get(j, i)).abs());
            }
        }
        worst
    }
}

/// Per-block memory report for the §5.3 analysis.
#[derive(Clone, Debug)]
pub struct MemoryReport {
    /// Block sizes.
    pub block_sizes: Vec<usize>,
    /// Bytes per block.
    pub block_bytes: Vec<usize>,
    /// Total resident `P` bytes.
    pub total_bytes: usize,
    /// Peak bytes with the fused update (P + the largest block's row
    /// working set ≈ P itself).
    pub fused_peak_bytes: usize,
    /// Peak bytes with the unfused update (P + ~3 extra copies of the
    /// largest block, per §5.3 "twice the memory footprint of max Pᵢ" on
    /// top of the resident P for the framework path).
    pub unfused_peak_bytes: usize,
}

/// Compute the §5.3 memory report for a block layout.
pub fn memory_report(layout: &BlockLayout) -> MemoryReport {
    let sizes = layout.sizes();
    let bytes: Vec<usize> = sizes.iter().map(|&n| n * n * 8).collect();
    let total: usize = bytes.iter().sum();
    let largest = bytes.iter().copied().max().unwrap_or(0);
    MemoryReport {
        block_sizes: sizes,
        block_bytes: bytes,
        total_bytes: total,
        fused_peak_bytes: total,
        unfused_peak_bytes: total + 2 * largest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn layout(sizes: &[usize]) -> BlockLayout {
        BlockLayout::from_layer_sizes(sizes, *sizes.iter().max().unwrap())
    }

    #[test]
    fn identity_blocks_match_layout() {
        let _ = layout(&[3, 4]);
        let l = BlockLayout::from_layer_sizes(&[3, 4], 4);
        let p = BlockP::identity(&l);
        assert_eq!(p.n_blocks(), 2);
        assert_eq!(p.block(0).shape(), (3, 3));
        assert_eq!(p.block(1).shape(), (4, 4));
        assert_eq!(p.matvec(1, &[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fused_and_unfused_updates_agree() {
        let l = BlockLayout::from_layer_sizes(&[6], 8);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut p1 = BlockP::identity(&l);
        let mut p2 = BlockP::identity(&l);
        for _ in 0..10 {
            let q: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a = rng.gen_range(0.1..0.9);
            let lambda = rng.gen_range(0.9..1.0);
            p1.update_fused(0, &q, a, lambda);
            p2.update_unfused(0, &q, a, lambda);
        }
        for (x, y) in p1.block(0).as_slice().iter().zip(p2.block(0).as_slice()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_update_preserves_exact_symmetry() {
        let l = BlockLayout::from_layer_sizes(&[16], 16);
        let mut p = BlockP::identity(&l);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..200 {
            let g: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let q = p.matvec(0, &g);
            let a = 1.0 / (0.98 + q.iter().zip(&g).map(|(x, y)| x * y).sum::<f64>());
            p.update_fused(0, &q, a.abs().min(10.0), 0.98);
        }
        assert_eq!(p.asymmetry(0), 0.0, "bitwise symmetry must be exact");
    }

    #[test]
    fn kf_update_shrinks_variance_along_the_gradient() {
        // After an update with gradient g, the uncertainty in the g
        // direction (gᵀPg) must decrease (information gained).
        let l = BlockLayout::from_layer_sizes(&[8], 8);
        let mut p = BlockP::identity(&l);
        let g: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let q = p.matvec(0, &g);
        let gpg: f64 = q.iter().zip(&g).map(|(a, b)| a * b).sum();
        let a = 1.0 / (1.0 + gpg);
        p.update_fused(0, &q, a, 1.0);
        let q2 = p.matvec(0, &g);
        let gpg2: f64 = q2.iter().zip(&g).map(|(a, b)| a * b).sum();
        assert!(gpg2 < gpg, "gᵀPg must shrink: {gpg} → {gpg2}");
        // And P stays positive along g.
        assert!(gpg2 > 0.0);
    }

    #[test]
    fn memory_report_reproduces_paper_magnitudes() {
        // Paper §5.3: blocks {1350, 10240, 9760, 5301} weigh
        // {13.9, 800, 726.8, 214.4} MB; ours {1350, 10240, 9810, 5151}
        // weigh essentially the same.
        let layers = [50, 650, 650, 20050, 2550, 2550, 51];
        let layout = BlockLayout::from_layer_sizes(&layers, 10240);
        let report = memory_report(&layout);
        let mb: Vec<f64> = report
            .block_bytes
            .iter()
            .map(|&b| b as f64 / (1024.0 * 1024.0))
            .collect();
        assert!((mb[0] - 13.9).abs() < 0.2, "block 0 = {} MB", mb[0]);
        assert!((mb[1] - 800.0).abs() < 1.0, "block 1 = {} MB", mb[1]);
        assert!((mb[2] - 726.8).abs() < 10.0, "block 2 = {} MB", mb[2]);
        assert!((mb[3] - 214.4).abs() < 15.0, "block 3 = {} MB", mb[3]);
        // Unfused peak carries ~2 extra copies of the largest block
        // (the paper's 3405 MB vs 1805 MB theory).
        assert!(report.unfused_peak_bytes > report.fused_peak_bytes + report.block_bytes[1]);
    }

    #[test]
    fn nan_poisoned_block_is_flagged_and_reset() {
        let l = BlockLayout::from_layer_sizes(&[4, 6], 8);
        let mut p = BlockP::identity(&l);
        assert_eq!(p.first_unhealthy_block(1e8), None);
        p.blocks[1].set(2, 2, f64::NAN);
        assert_eq!(p.first_unhealthy_block(1e8), Some(1));
        p.reset_block(1, 0.25);
        assert_eq!(p.first_unhealthy_block(1e8), None);
        assert_eq!(p.block(1).get(2, 2), 0.25);
        assert_eq!(p.block(1).get(0, 1), 0.0);
        // Block 0 untouched by the reset.
        assert_eq!(p.block(0).get(0, 0), 1.0);
    }

    #[test]
    fn exploding_diagonal_is_flagged() {
        let l = BlockLayout::from_layer_sizes(&[4], 4);
        let mut p = BlockP::identity(&l);
        p.blocks[0].set(1, 1, 1e12);
        assert_eq!(p.first_unhealthy_block(1e8), Some(0));
        assert_eq!(p.first_unhealthy_block(1e13), None);
    }

    #[test]
    fn symmetrize_removes_drift() {
        let l = BlockLayout::from_layer_sizes(&[4], 4);
        let mut p = BlockP::identity(&l);
        // Inject artificial asymmetry.
        p.blocks[0].set(0, 1, 0.5);
        assert!(p.asymmetry(0) > 0.0);
        p.symmetrize(0);
        assert_eq!(p.asymmetry(0), 0.0);
        assert!((p.block(0).get(0, 1) - 0.25).abs() < 1e-15);
    }
}
