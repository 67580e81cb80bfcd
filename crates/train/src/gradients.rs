//! Deterministic frame-parallel batch-gradient reduction.
//!
//! FEKF sums signed per-frame gradients (and averages per-frame
//! absolute errors) over the minibatch before every Kalman update
//! (§3.1 early reduction). This module fans that per-frame work
//! across `dp-pool` under the same determinism contract as the tiled
//! kernels of PR 2:
//!
//! * the batch is split into [`MAX_GRAD_BLOCKS`] fixed blocks whose
//!   boundaries depend only on the item count — never the thread
//!   count — and frames accumulate into their block's scratch in
//!   ascending index order;
//! * blocks combine into the output in ascending block order on the
//!   submitting thread.
//!
//! Floating-point addition is deterministic for a fixed order, so the
//! reduced gradient (hence weights, `P` blocks and DPCK checkpoint
//! bytes) is a pure function of (data, seed, config) at any
//! `DP_POOL_THREADS`.
//!
//! Each block owns a recycled [`BlockScratch`] — the model workspace
//! its frames are evaluated in, per-tangent gradient buffers, flat
//! accumulators, coefficient vectors — so the steady-state iteration
//! performs no allocation at all. The per-block mutexes are uncontended
//! (each block index is claimed by exactly one pool task); they exist
//! to satisfy `Sync` for the fan-out closure.

use deepmd_core::model::{ModelGrads, Workspace};
use dp_mdsim::Vec3;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bound on reduction blocks. More blocks raise the parallelism
/// ceiling but cost one gradient-sized accumulator each; 8 covers the
/// pool widths we sweep (1–8 threads) without hurting 1-thread runs.
pub const MAX_GRAD_BLOCKS: usize = 8;

/// Recycled per-block working memory for the fan-out stage.
#[derive(Default)]
pub struct BlockScratch {
    /// The workspace this block's frames are evaluated in: taken by a
    /// forward pass, put back when the pass is consumed.
    pub workspace: Option<Box<Workspace>>,
    /// Per-frame gradient buffers, one per tangent of the force sweep
    /// (the first doubles as the energy buffer); sized on first use.
    pub grads: Vec<ModelGrads>,
    /// Predicted forces of the current frame.
    pub forces: Vec<Vec3>,
    /// Force-contraction coefficients, one `3 · n_atoms` vector per
    /// force group.
    pub coeffs: Vec<f64>,
    /// Flat gradient accumulators, `n_slots × n_params` used prefix.
    pub acc: Vec<f64>,
    /// Absolute-error accumulators, `n_slots` used prefix.
    pub abes: Vec<f64>,
    /// Time `per_item` reports having spent in forward passes during
    /// the current reduction (see [`GradScratch::block_reduce`]).
    pub forward: Duration,
    /// Time this block's task ran during the current reduction.
    busy: Duration,
}

/// Recycled state of the block reduction: per-block scratch. One per
/// training loop, shared by its ranks; buffers grow to the largest
/// phase and stay.
#[derive(Default)]
pub struct GradScratch {
    blocks: Vec<Mutex<BlockScratch>>,
}

/// Number of reduction blocks for `n_items` frames: a function of the
/// item count alone (the determinism contract).
fn n_blocks(n_items: usize) -> usize {
    n_items.clamp(1, MAX_GRAD_BLOCKS)
}

/// Half-open index range of block `b` out of `nb`: sizes differ by at
/// most one, earlier blocks take the remainder.
fn block_range(n_items: usize, nb: usize, b: usize) -> (usize, usize) {
    let base = n_items / nb;
    let rem = n_items % nb;
    let lo = b * base + b.min(rem);
    (lo, lo + base + usize::from(b < rem))
}

impl GradScratch {
    /// Fresh scratch (buffers size themselves on first use).
    pub fn new() -> Self {
        GradScratch::default()
    }

    /// Run `per_item(i, block_scratch)` for every `i < n_items` across
    /// the pool and combine the per-block `acc`/`abes` prefixes into
    /// `out` (resized to `n_slots · n_params`) and `out_abes` (resized
    /// to `n_slots`) in ascending block order.
    ///
    /// `per_item` must *add* its frame's contribution into
    /// `scratch.acc[..n_slots * n_params]` / `scratch.abes[..n_slots]`
    /// (both pre-zeroed per call); items within a block run in
    /// ascending index order on one task.
    ///
    /// Returns `(forward, busy)`: the time `per_item` booked on
    /// `scratch.forward`, and the time the blocks' tasks ran, summed
    /// over blocks — how a caller whose items run forward pass and
    /// gradient back to back splits the reduction's wall time between
    /// the two phases.
    pub fn block_reduce(
        &mut self,
        n_items: usize,
        n_slots: usize,
        n_params: usize,
        per_item: &(dyn Fn(usize, &mut BlockScratch) + Sync),
        out: &mut Vec<f64>,
        out_abes: &mut Vec<f64>,
    ) -> (Duration, Duration) {
        let nb = n_blocks(n_items);
        let len = n_slots * n_params;
        if self.blocks.len() < nb {
            self.blocks.resize_with(nb, || Mutex::new(BlockScratch::default()));
        }
        for blk in &self.blocks[..nb] {
            let mut s = blk.lock().unwrap_or_else(|e| e.into_inner());
            if s.acc.len() < len {
                s.acc.resize(len, 0.0);
            }
            s.acc[..len].fill(0.0);
            if s.abes.len() < n_slots {
                s.abes.resize(n_slots, 0.0);
            }
            s.abes[..n_slots].fill(0.0);
            s.forward = Duration::ZERO;
        }
        let blocks = &self.blocks[..nb];
        dp_pool::parallel_for(nb, &|b| {
            let start = Instant::now();
            let mut s = blocks[b].lock().unwrap_or_else(|e| e.into_inner());
            let (lo, hi) = block_range(n_items, nb, b);
            for i in lo..hi {
                per_item(i, &mut s);
            }
            s.busy = start.elapsed();
        });
        out.resize(len, 0.0);
        out[..len].fill(0.0);
        out_abes.resize(n_slots, 0.0);
        out_abes[..n_slots].fill(0.0);
        let (mut forward, mut busy) = (Duration::ZERO, Duration::ZERO);
        for blk in &self.blocks[..nb] {
            let s = blk.lock().unwrap_or_else(|e| e.into_inner());
            for (o, v) in out[..len].iter_mut().zip(&s.acc[..len]) {
                *o += v;
            }
            for (o, v) in out_abes[..n_slots].iter_mut().zip(&s.abes[..n_slots]) {
                *o += v;
            }
            forward += s.forward;
            busy += s.busy;
        }
        out.truncate(len);
        out_abes.truncate(n_slots);
        (forward, busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    static POOL_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn block_ranges_partition_and_balance() {
        for n in [0usize, 1, 3, 7, 8, 9, 16, 33] {
            let nb = n_blocks(n);
            let mut covered = 0;
            let mut prev_end = 0;
            for b in 0..nb {
                let (lo, hi) = block_range(n, nb, b);
                assert_eq!(lo, prev_end, "blocks must tile contiguously");
                assert!(hi - lo <= n / nb + 1);
                covered += hi - lo;
                prev_end = hi;
            }
            assert_eq!(covered, n, "n={n}");
        }
    }

    #[test]
    fn reduce_matches_sequential_sum_at_any_thread_count() {
        let _g = POOL_LOCK.lock().unwrap();
        let n_items = 13;
        let n_slots = 3;
        let n_params = 5;
        // Reference: plain ascending-order sum.
        let contrib = |i: usize, s: usize, p: usize| ((i * 31 + s * 7 + p) as f64 * 0.01).sin();
        let mut want = vec![0.0; n_slots * n_params];
        let mut want_abes = vec![0.0; n_slots];
        for i in 0..n_items {
            for s in 0..n_slots {
                for p in 0..n_params {
                    want[s * n_params + p] += contrib(i, s, p);
                }
                want_abes[s] += (i * n_slots + s) as f64;
            }
        }
        let run = |threads: usize| {
            dp_pool::set_threads(threads);
            let mut scratch = GradScratch::new();
            let mut out = Vec::new();
            let mut abes = Vec::new();
            scratch.block_reduce(
                n_items,
                n_slots,
                n_params,
                &|i, blk| {
                    for s in 0..n_slots {
                        for p in 0..n_params {
                            blk.acc[s * n_params + p] += contrib(i, s, p);
                        }
                        blk.abes[s] += (i * n_slots + s) as f64;
                    }
                },
                &mut out,
                &mut abes,
            );
            (out, abes)
        };
        let (o1, a1) = run(1);
        for &t in &[2usize, 8] {
            let (o, a) = run(t);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&o1), bits(&o), "gradients diverged at {t} threads");
            assert_eq!(bits(&a1), bits(&a), "abes diverged at {t} threads");
        }
        dp_pool::set_threads(1);
        // Tolerance (not bitwise) vs the naive single-sum reference:
        // the block split changes the addition tree.
        for (x, y) in o1.iter().zip(&want) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in a1.iter().zip(&want_abes) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn buffers_shrink_logically_between_phases() {
        let _g = POOL_LOCK.lock().unwrap();
        dp_pool::set_threads(1);
        let mut scratch = GradScratch::new();
        let mut out = Vec::new();
        let mut abes = Vec::new();
        // Wide phase (4 slots), then narrow phase (1 slot): the narrow
        // output must not see stale wide-phase values.
        scratch.block_reduce(4, 4, 3, &|_, blk| {
            for v in blk.acc[..12].iter_mut() {
                *v += 1.0;
            }
        }, &mut out, &mut abes);
        assert_eq!(out.len(), 12);
        scratch.block_reduce(4, 1, 3, &|i, blk| {
            blk.acc[0] += i as f64;
            blk.abes[0] += 1.0;
        }, &mut out, &mut abes);
        assert_eq!(out.len(), 3);
        assert_eq!(abes, vec![4.0]);
        assert_eq!(out, vec![0.0 + 1.0 + 2.0 + 3.0, 0.0, 0.0]);
    }
}
