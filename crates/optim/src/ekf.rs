//! Shared Extended-Kalman-Filter core (Algorithm 1 of the paper).
//!
//! One Kalman update performs, per diagonal block `b`:
//!
//! ```text
//! q   = P_b · g_b                (cached P·g — Opt3 reuse)
//! A   = 1 / (λ + g_bᵀ q)         (line 8)
//! K   = A · q                    (line 9)
//! P_b ← (P_b − A·q·qᵀ)/λ         (lines 10–11, fused kernel)
//! Δw_b = scale · ABE · K         (line 13; scale = √bs for FEKF)
//! ```
//!
//! with the memory factor advanced once per update (line 12).
//! [`KfCore::update_slots`] runs one phase's updates (the energy
//! update, or the four force-group updates) as one chain: update `k`'s
//! `P` sweep also forms update `k + 1`'s `q`, bitwise as a separate
//! `P·g` would. The same
//! core drives RLEKF (per-sample updates, scale 1), Naive-EKF (one core
//! per sample lane) and FEKF (one update on batch-reduced `g`/`ABE`).

use crate::blocks::BlockLayout;
use crate::lambda::MemoryFactor;
use crate::pmatrix::BlockP;
use dp_tensor::vecops;
use dp_tensor::wire::{Reader, WireError, Writer};

/// Block-wise EKF state: layout, covariance, memory factor.
#[derive(Clone, Debug)]
pub struct KfCore {
    /// Block partition of the parameter vector.
    pub layout: BlockLayout,
    /// Block-diagonal error covariance.
    pub p: BlockP,
    /// Forgetting-factor schedule.
    pub mem: MemoryFactor,
    /// Use the fused `P` update (Opt3) instead of the framework-style
    /// composition.
    pub fused: bool,
    updates: u64,
    /// `q = P·g` scratch, `2·n_params` long: the current update's `q`
    /// and, when updates are chained, the next one's. Purely transient:
    /// excluded from the checkpoint wire format and never read across
    /// calls.
    scratch_q: Vec<f64>,
}

impl KfCore {
    /// Build from per-layer parameter counts.
    pub fn new(layer_sizes: &[usize], blocksize: usize, mem: MemoryFactor, fused: bool) -> Self {
        let layout = BlockLayout::from_layer_sizes(layer_sizes, blocksize);
        let p = BlockP::identity(&layout);
        let scratch_q = vec![0.0; 2 * layout.n_params];
        KfCore { layout, p, mem, fused, updates: 0, scratch_q }
    }

    /// Number of parameters covered.
    pub fn n_params(&self) -> usize {
        self.layout.n_params
    }

    /// Updates performed so far.
    pub fn n_updates(&self) -> u64 {
        self.updates
    }

    /// One Kalman update from a (possibly batch-reduced) gradient `g`
    /// and scalar absolute error `abe`; returns the weight increment.
    ///
    /// Allocating convenience wrapper over [`KfCore::update_into`].
    ///
    /// # Panics
    /// Panics if `g.len() != n_params()`.
    pub fn update(&mut self, g: &[f64], abe: f64, scale: f64) -> Vec<f64> {
        let mut delta = vec![0.0; g.len()];
        self.update_into(g, abe, scale, &mut delta);
        delta
    }

    /// One Kalman update writing Δw into a preallocated `delta`: the
    /// one-slot case of [`KfCore::update_slots`]. An all-zero `g` is
    /// skipped like an all-zero slot there, and leaves `delta` zero.
    ///
    /// # Panics
    /// Panics if `g.len() != n_params()` or `delta.len() != g.len()`.
    pub fn update_into(&mut self, g: &[f64], abe: f64, scale: f64, delta: &mut [f64]) {
        delta.fill(0.0);
        self.update_slots(g, &[abe], 1.0, scale, delta, |_| {});
    }

    /// The Kalman updates of one phase, in slot order: slot `k` is the
    /// gradient `grads[k·n..(k+1)·n]` (`n = n_params()`) with absolute
    /// error `abes[k]·abe_scale`, and `apply` receives each update's Δw
    /// before the next update begins. A slot whose gradient is all zero
    /// — a force group no frame of the batch has atoms for — is
    /// skipped: it would move no weight, yet still divide `P` by λ and
    /// advance λ.
    ///
    /// Every slot's gradient exists before the first update, so with the
    /// fused kernel each update's `P` sweep also forms the next update's
    /// `q = P·g` ([`BlockP::update_fused_chained`]): `s` updates read `P`
    /// `s + 1` times instead of `2s`, and every Δw, `P` entry and λ is
    /// bitwise what `s` separate updates give. The framework-style path
    /// (`fused = false`) keeps one `P·g` per update. With the fused
    /// kernel the call performs **zero heap allocations** — `q` lives
    /// in the core's resident scratch — as the allocation probe in
    /// `crates/bench` asserts.
    ///
    /// # Panics
    /// Panics if `grads.len() != abes.len()·n_params()` or
    /// `delta.len() != n_params()`.
    pub fn update_slots(
        &mut self,
        grads: &[f64],
        abes: &[f64],
        abe_scale: f64,
        scale: f64,
        delta: &mut [f64],
        mut apply: impl FnMut(&[f64]),
    ) {
        let n = self.n_params();
        assert_eq!(grads.len(), abes.len() * n, "gradient length mismatch");
        assert_eq!(delta.len(), n, "delta length mismatch");
        let slot = |k: usize| &grads[k * n..(k + 1) * n];
        let live = |k: &usize| slot(*k).iter().any(|&v| v != 0.0);
        let (mut q, mut q_next) = self.scratch_q.split_at_mut(n);
        // Whether `q` already holds `P·g` of the update about to run.
        let mut q_ready = false;
        let mut next = (0..abes.len()).find(live);
        while let Some(k) = next {
            next = (k + 1..abes.len()).find(live);
            let g = slot(k);
            let chained = next.filter(|_| self.fused).map(slot);
            let lambda = self.mem.step();
            for (b, blk) in self.layout.blocks.iter().enumerate() {
                let range = blk.start..blk.end;
                let gb = &g[range.clone()];
                let qb = &mut q[range.clone()];
                // Cached q = P·g, reused by A, K and the P update.
                if !q_ready {
                    self.p.matvec_into(b, gb, qb);
                }
                let a = 1.0 / (lambda + vecops::dot(gb, qb));
                // Δw_b = scale·abe·K = scale·abe·a·q.
                let coeff = scale * (abes[k] * abe_scale) * a;
                for (d, &qi) in delta[range.clone()].iter_mut().zip(qb.iter()) {
                    *d = coeff * qi;
                }
                match chained {
                    Some(g_next) => {
                        let (gn, qn) = (&g_next[range.clone()], &mut q_next[range]);
                        self.p.update_fused_chained(b, qb, a, lambda, gn, qn);
                    }
                    None if self.fused => self.p.update_fused(b, qb, a, lambda),
                    None => {
                        self.p.update_unfused(b, qb, a, lambda);
                    }
                }
            }
            std::mem::swap(&mut q, &mut q_next);
            q_ready = chained.is_some();
            self.updates += 1;
            apply(delta);
        }
    }

    /// First `P` block with a non-finite, non-positive, or
    /// larger-than-`cap` diagonal entry (divergence guard probe).
    pub fn first_unhealthy_block(&self, cap: f64) -> Option<usize> {
        self.p.first_unhealthy_block(cap)
    }

    /// Reset one `P` block to `p0·I` and decay λ — the recovery action
    /// after a divergence in that block (forget the poisoned history
    /// faster while the covariance re-learns).
    pub fn reset_block(&mut self, b: usize, p0: f64) {
        self.p.reset_block(b, p0);
        self.mem.decay(0.98);
    }

    /// Serialize the full filter state — update counter, λ schedule,
    /// and every `P` block — for checkpointing. The block *layout* is
    /// not stored; it is re-derived from the model configuration and
    /// validated on restore.
    pub fn state_to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.reserve(self.state_len());
        self.write_state(&mut w);
        w.into_bytes()
    }

    /// Length of what [`KfCore::write_state`] appends.
    pub(crate) fn state_len(&self) -> usize {
        let blocks: usize = (0..self.p.n_blocks()).map(|b| 8 + 8 * self.p.block(b).len()).sum();
        8 + 1 + 8 + 8 + 8 + 8 + blocks
    }

    /// Append the [`KfCore::state_to_bytes`] encoding to `w`.
    pub(crate) fn write_state(&self, w: &mut Writer) {
        w.u64(self.updates);
        w.u8(self.fused as u8);
        w.f64(self.mem.lambda);
        w.f64(self.mem.nu);
        w.u64(self.n_params() as u64);
        w.u64(self.p.n_blocks() as u64);
        for b in 0..self.p.n_blocks() {
            w.f64_vec(self.p.block(b).as_slice());
        }
    }

    /// Overwrite this core's filter state — every `P` block, λ, the
    /// update counter and the kernel choice — with `src`'s, copying into
    /// the buffers this core already holds: the state a
    /// [`KfCore::state_to_bytes`] / [`KfCore::restore_state`] round trip
    /// would leave, without serialising or allocating.
    ///
    /// # Panics
    /// Panics if the two cores have different block layouts.
    pub fn copy_state_from(&mut self, src: &KfCore) {
        assert_eq!(self.layout, src.layout, "copy_state_from: block layouts differ");
        for b in 0..self.p.n_blocks() {
            self.p.set_block_data(b, src.p.block(b).as_slice());
        }
        self.updates = src.updates;
        self.fused = src.fused;
        self.mem = src.mem;
    }

    /// Restore state written by [`KfCore::state_to_bytes`] into a core
    /// with the *same layout*. Rejects mismatched shapes and
    /// non-finite λ.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let updates = r.u64()?;
        let fused = r.u8()? != 0;
        let lambda = r.f64()?;
        let nu = r.f64()?;
        if !(lambda.is_finite() && nu.is_finite()) {
            return Err(WireError::Invalid("non-finite memory factor".into()));
        }
        let n_params = r.u64()? as usize;
        if n_params != self.n_params() {
            return Err(WireError::Invalid(format!(
                "state has {n_params} params, core has {}",
                self.n_params()
            )));
        }
        let n_blocks = r.u64()? as usize;
        if n_blocks != self.p.n_blocks() {
            return Err(WireError::Invalid(format!(
                "state has {n_blocks} P blocks, core has {}",
                self.p.n_blocks()
            )));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for b in 0..n_blocks {
            let data = r.f64_vec()?;
            let expect = {
                let m = self.p.block(b);
                m.len()
            };
            if data.len() != expect {
                return Err(WireError::Invalid(format!(
                    "P block {b} has {} entries, expected {expect}",
                    data.len()
                )));
            }
            blocks.push(data);
        }
        r.expect_end()?;
        for (b, data) in blocks.into_iter().enumerate() {
            self.p.set_block_data(b, &data);
        }
        self.updates = updates;
        self.fused = fused;
        self.mem.lambda = lambda;
        self.mem.nu = nu;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn core(fused: bool) -> KfCore {
        KfCore::new(&[4, 6], 8, MemoryFactor::paper_default(), fused)
    }

    #[test]
    fn fused_and_unfused_cores_produce_identical_deltas() {
        let mut c1 = core(true);
        let mut c2 = core(false);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            let g: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let abe = rng.gen_range(0.0..1.0);
            let d1 = c1.update(&g, abe, 1.0);
            let d2 = c2.update(&g, abe, 1.0);
            for (a, b) in d1.iter().zip(&d2) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn update_direction_follows_gradient_sign_times_error() {
        // With P = I and a fresh core, K ∝ g, so the increment moves
        // weights along +g scaled by the error.
        let mut c = core(true);
        let g: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let delta = c.update(&g, 0.5, 1.0);
        for (d, gi) in delta.iter().zip(&g) {
            assert!(d * gi > 0.0, "delta must align with g");
        }
    }

    /// The canonical sanity check for any KF optimizer: online linear
    /// regression. Prediction ŷ = wᵀx, gradient of ŷ is x, and the
    /// signed-error update must drive w to the generating weights in a
    /// handful of passes.
    #[test]
    fn kalman_filter_solves_linear_regression_quickly() {
        let n = 10;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let w_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut w = vec![0.0; n];
        let mut core = KfCore::new(&[n], n, MemoryFactor::paper_default(), true);
        let mut last_err = f64::INFINITY;
        for step in 0..200 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y: f64 = w_true.iter().zip(&x).map(|(a, b)| a * b).sum();
            let yhat: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
            let err = y - yhat;
            // Sign trick of Algorithm 1 lines 3–5: gradient of ±ŷ.
            let sign = if err >= 0.0 { 1.0 } else { -1.0 };
            let g: Vec<f64> = x.iter().map(|v| sign * v).collect();
            let delta = core.update(&g, err.abs(), 1.0);
            for (wi, d) in w.iter_mut().zip(&delta) {
                *wi += d;
            }
            if step == 199 {
                last_err = err.abs();
            }
        }
        let dist: f64 = w
            .iter()
            .zip(&w_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 0.05, "KF failed to identify weights: dist {dist}, err {last_err}");
    }

    #[test]
    fn update_counter_and_lambda_advance() {
        let mut c = core(true);
        let l0 = c.mem.lambda;
        let g = vec![0.1; 10];
        c.update(&g, 0.1, 1.0);
        c.update(&g, 0.1, 1.0);
        assert_eq!(c.n_updates(), 2);
        assert!(c.mem.lambda > l0);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn wrong_gradient_length_panics() {
        let mut c = core(true);
        let _ = c.update(&[1.0; 3], 0.1, 1.0);
    }

    /// A random symmetric positive-definite `n×n` matrix, `M·Mᵀ/n + I`.
    fn spd(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        let m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut p = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mij: f64 = (0..n).map(|k| m[i * n + k] * m[j * n + k]).sum();
                p[i * n + j] = mij / n as f64 + if i == j { 1.0 } else { 0.0 };
            }
        }
        p
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One chained call over an energy-style slot and four force slots
    /// (the middle one all zero) is bitwise the slots run one update at
    /// a time: every Δw, `P` entry and λ. Rows of 2N·m, 2N·m + N and
    /// 2N·m + N + 3 (N = the active backend's lanes) reach the chained
    /// kernel's two-accumulator body, its single-vector step and its
    /// scalar tail; the layout has three blocks with a ragged last one.
    #[test]
    fn chained_slots_are_bitwise_the_sequential_updates() {
        let lanes = dp_tensor::backend::active().kind().lanes();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for n in [2 * lanes * 4, 2 * lanes * 4 + lanes, 2 * lanes * 4 + lanes + 3] {
            let layers = [n, n, n / 2];
            let mut chained = KfCore::new(&layers, n, MemoryFactor::paper_default(), true);
            assert_eq!(chained.layout.n_blocks(), 3);
            for b in 0..3 {
                let size = chained.layout.blocks[b].len();
                chained.p.set_block_data(b, &spd(size, &mut rng));
            }
            let mut sequential = chained.clone();
            let np = chained.n_params();
            let slots = 5;
            let mut grads: Vec<f64> = (0..slots * np).map(|_| rng.gen_range(-1.0..1.0)).collect();
            grads[2 * np..3 * np].fill(0.0);
            let abes: Vec<f64> = (0..slots).map(|_| rng.gen_range(0.0..1.0)).collect();
            let inv_bs = 0.25;

            let mut got = Vec::new();
            let mut delta = vec![0.0; np];
            chained.update_slots(&grads, &abes, inv_bs, 2.0, &mut delta, |d| got.push(bits(d)));
            let mut want = Vec::new();
            for (g, abe) in grads.chunks_exact(np).zip(&abes) {
                if g.iter().any(|&v| v != 0.0) {
                    want.push(bits(&sequential.update(g, abe * inv_bs, 2.0)));
                }
            }
            assert_eq!(got.len(), slots - 1, "n={n}: the zero slot is skipped");
            assert_eq!(got, want, "n={n}: deltas");
            for b in 0..3 {
                let (c, s) = (chained.p.block(b).as_slice(), sequential.p.block(b).as_slice());
                assert_eq!(bits(c), bits(s), "n={n}: P block {b}");
            }
            assert_eq!(chained.mem.lambda.to_bits(), sequential.mem.lambda.to_bits(), "n={n}: λ");
            assert_eq!(chained.n_updates(), sequential.n_updates());
        }
    }

    #[test]
    fn zero_gradient_update_is_skipped() {
        let mut c = core(true);
        let before = c.clone();
        let delta = c.update(&[0.0; 10], 0.3, 1.0);
        assert!(delta.iter().all(|&d| d == 0.0));
        assert_eq!(c.n_updates(), 0);
        assert_eq!(c.mem.lambda.to_bits(), before.mem.lambda.to_bits());
        assert_eq!(c.state_to_bytes(), before.state_to_bytes());
    }

    #[test]
    fn copied_state_is_the_bytes_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut c = core(true);
        for _ in 0..7 {
            let g: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let _ = c.update(&g, 0.2, 1.0);
        }
        let mut copy = core(true);
        copy.copy_state_from(&c);
        let mut restored = core(true);
        restored.restore_state(&c.state_to_bytes()).unwrap();
        assert_eq!(copy.state_to_bytes(), restored.state_to_bytes());
        assert_eq!(copy.state_to_bytes(), c.state_to_bytes());
    }

    #[test]
    fn state_roundtrip_is_bitwise_and_resumes_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut c = core(true);
        for _ in 0..15 {
            let g: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let _ = c.update(&g, rng.gen_range(0.0..1.0), 1.0);
        }
        let blob = c.state_to_bytes();
        let mut fresh = core(true);
        fresh.restore_state(&blob).unwrap();
        assert_eq!(fresh.n_updates(), c.n_updates());
        assert_eq!(fresh.mem.lambda.to_bits(), c.mem.lambda.to_bits());
        // Continuing from restored state must be bitwise identical.
        let g: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let d1 = c.update(&g, 0.3, 1.0);
        let d2 = fresh.update(&g, 0.3, 1.0);
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn restore_rejects_wrong_layout_and_garbage() {
        let c = core(true);
        let blob = c.state_to_bytes();
        // Different layout: 12 params instead of 10.
        let mut other = KfCore::new(&[4, 8], 8, MemoryFactor::paper_default(), true);
        assert!(other.restore_state(&blob).is_err());
        // Truncation.
        let mut same = core(true);
        assert!(same.restore_state(&blob[..blob.len() - 3]).is_err());
    }

    #[test]
    fn nan_block_reset_recovers_and_decays_lambda() {
        let mut c = core(true);
        let g = vec![0.2; 10];
        for _ in 0..5 {
            let _ = c.update(&g, 0.1, 1.0);
        }
        // Poison block 1 via a restore round-trip of hand-edited state.
        c.p.set_block_data(1, &vec![f64::NAN; 6 * 6]);
        assert_eq!(c.first_unhealthy_block(1e8), Some(1));
        let lambda_before = c.mem.lambda;
        c.reset_block(1, 1.0);
        assert_eq!(c.first_unhealthy_block(1e8), None);
        assert!(c.mem.lambda < lambda_before, "λ must decay on reset");
        // Training continues: updates stay finite.
        let d = c.update(&g, 0.1, 1.0);
        assert!(d.iter().all(|v| v.is_finite()));
    }
}
