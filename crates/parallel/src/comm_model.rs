//! Communication-volume formulas (§3.3, §5.3) and a latency/bandwidth
//! time model parameterized with the paper's cluster.
//!
//! §5.3 "Scalability Analysis": in FEKF the gradient
//! `g = {1350, 10240, 9760, 5301}` weighs ~0.2 MB, its ring-allreduce
//! costs `(r−1)·Mem(g)` per rank, the absolute errors add `O(r)`
//! scalars, and the block-diagonal `P` is **never** communicated
//! (replicas stay identical). The fusiform Naive-EKF would have to move
//! per-sample `P`s of order `O((r−1)·N·N_b)` — the crate quantifies
//! both so the scaling report can print them side by side.

/// Per-collective communication statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of participating ranks.
    pub ranks: usize,
    /// Bytes sent by the busiest rank.
    pub bytes_sent_per_rank: usize,
    /// Sequential communication steps.
    pub steps: usize,
}

/// Interconnect model: the paper's nodes use RoCE at 25 GB/s.
#[derive(Clone, Copy, Debug)]
pub struct ClusterModel {
    /// Per-message latency (s).
    pub latency_s: f64,
    /// Link bandwidth (bytes/s).
    pub bandwidth_bps: f64,
}

impl ClusterModel {
    /// The paper's testbed: RoCE fat-tree, 25 GB/s, ~2 µs latency.
    pub fn paper_cluster() -> Self {
        ClusterModel { latency_s: 2e-6, bandwidth_bps: 25e9 }
    }

    /// Modeled wall time of a collective.
    pub fn time(&self, stats: &CommStats) -> f64 {
        stats.steps as f64 * self.latency_s + stats.bytes_sent_per_rank as f64 / self.bandwidth_bps
    }
}

/// Ring-allreduce volume for an `n`-element f64 vector over `r` ranks:
/// `2·(r−1)·(n/r)` elements sent per rank.
pub fn ring_allreduce_stats(n: usize, r: usize) -> CommStats {
    if r <= 1 {
        return CommStats { ranks: r, bytes_sent_per_rank: 0, steps: 0 };
    }
    let chunk = n.div_ceil(r);
    CommStats { ranks: r, bytes_sent_per_rank: 2 * (r - 1) * chunk * 8, steps: 2 * (r - 1) }
}

/// Per-iteration FEKF communication: one gradient allreduce per weight
/// update (1 energy + `force_updates` force groups) plus the scalar
/// ABE reductions. `P` contributes zero bytes.
pub fn fekf_iteration_stats(n_params: usize, r: usize, force_updates: usize) -> CommStats {
    let per_update = ring_allreduce_stats(n_params, r);
    let updates = 1 + force_updates;
    // ABE: one f64 per update, allreduced.
    let abe = ring_allreduce_stats(updates, r);
    CommStats {
        ranks: r,
        bytes_sent_per_rank: per_update.bytes_sent_per_rank * updates + abe.bytes_sent_per_rank,
        steps: per_update.steps * updates + abe.steps,
    }
}

/// Per-iteration Naive-EKF communication if its per-sample `P`s had to
/// be exchanged to keep replicas consistent: the §3.3 argument. With
/// block sizes `blocks`, the `P` payload per rank is
/// `(r−1)/r · 2 · Σ n_b²` bytes·8 — order `O((r−1)·N·N_b)`.
pub fn naive_ekf_p_stats(blocks: &[usize], r: usize) -> CommStats {
    let p_elems: usize = blocks.iter().map(|&n| n * n).sum();
    ring_allreduce_stats(p_elems, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gradient_volume_is_about_0_2_mb() {
        // §5.3: gradient blocks {1350, 10240, 9760, 5301} ≈ 0.2 MB.
        let n = 1350 + 10240 + 9760 + 5301;
        let bytes = n * 8;
        assert!((bytes as f64 / 1e6 - 0.21).abs() < 0.02, "gradient = {bytes} bytes");
        let stats = ring_allreduce_stats(n, 16);
        // (r−1) growth: ~2·15/16·N·8 per rank.
        assert!(stats.bytes_sent_per_rank < 2 * n * 8);
    }

    #[test]
    fn fekf_communication_is_dominated_by_gradients() {
        let stats = fekf_iteration_stats(26651, 16, 4);
        let grad_only = ring_allreduce_stats(26651, 16).bytes_sent_per_rank * 5;
        let abe_part = stats.bytes_sent_per_rank - grad_only;
        assert!(
            (abe_part as f64) < 0.01 * stats.bytes_sent_per_rank as f64,
            "ABE share must be negligible: {abe_part} of {}",
            stats.bytes_sent_per_rank
        );
    }

    #[test]
    fn naive_p_volume_dwarfs_fekf_volume() {
        let blocks = [1350usize, 10240, 9760, 5301];
        let p = naive_ekf_p_stats(&blocks, 4);
        let fekf = fekf_iteration_stats(26651, 4, 4);
        assert!(
            p.bytes_sent_per_rank > 1000 * fekf.bytes_sent_per_rank,
            "P traffic {} must dwarf gradient traffic {}",
            p.bytes_sent_per_rank,
            fekf.bytes_sent_per_rank
        );
    }

    #[test]
    fn single_rank_needs_no_communication() {
        assert_eq!(fekf_iteration_stats(1000, 1, 4).bytes_sent_per_rank, 0);
    }

    #[test]
    fn time_model_is_monotone_in_ranks() {
        let m = ClusterModel::paper_cluster();
        let t4 = m.time(&ring_allreduce_stats(1_000_000, 4));
        let t16 = m.time(&ring_allreduce_stats(1_000_000, 16));
        assert!(t16 > t4, "more ranks → more per-rank traffic in a ring");
    }
}
