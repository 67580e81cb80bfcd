//! FEKF — the paper's Fast Extended Kalman Filter (Algorithm 1).
//!
//! Funnel-shaped "aggregation-then-computing" dataflow: the caller
//! reduces per-sample gradients and absolute errors over the minibatch
//! *first* (the "early reduction" of §3.1), then a single Kalman update
//! is performed on the reduced quantities:
//!
//! `w ← w + √bs · ĀB̄Ē · K(ḡ)`   (Eq. 2)
//!
//! The `√bs` quasi-learning-rate is the paper's heuristic (Figure 4
//! compares it against factors `1` and `bs`; [`QuasiLr`] exposes all
//! three for that experiment). All samples share one replicated `P`,
//! which is what eliminates both the Naive-EKF memory blow-up and the
//! `P` communication in distributed training (§3.3).
//!
//! At `bs = 1` the reduction is the identity and `√bs = 1`: the update
//! is the single-sample RLEKF recursion of \[23\], so RLEKF runs as
//! `Fekf::new(layers, 1, ..)` rather than as a type of its own.

use crate::ekf::KfCore;
use crate::lambda::MemoryFactor;
use crate::{OptKind, OptimizerState};
use dp_tensor::wire::{Reader, WireError, Writer};

/// Quasi-learning-rate factor applied to the weight increment (Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuasiLr {
    /// No batch scaling (factor 1).
    One,
    /// The paper's `√bs` rule (default).
    SqrtBs,
    /// Linear `bs` scaling (shown to diverge/oscillate in Fig. 4).
    LinearBs,
}

impl QuasiLr {
    /// The numeric factor for batch size `bs`.
    pub fn factor(self, bs: usize) -> f64 {
        match self {
            QuasiLr::One => 1.0,
            QuasiLr::SqrtBs => (bs as f64).sqrt(),
            QuasiLr::LinearBs => bs as f64,
        }
    }
}

/// FEKF configuration.
#[derive(Clone, Copy, Debug)]
pub struct FekfConfig {
    /// Block gather/split threshold (paper: 10240).
    pub blocksize: usize,
    /// Initial memory factor λ₀ and decay ν; `None` picks the paper's
    /// batch-size-dependent recommendation (§3.2).
    pub mem: Option<MemoryFactor>,
    /// Use the fused `P` update kernel (Opt3).
    pub fused: bool,
    /// Quasi-learning-rate rule.
    pub quasi_lr: QuasiLr,
}

impl Default for FekfConfig {
    fn default() -> Self {
        FekfConfig {
            blocksize: 10240,
            mem: None,
            fused: true,
            quasi_lr: QuasiLr::SqrtBs,
        }
    }
}

/// The FEKF optimizer.
#[derive(Clone, Debug)]
pub struct Fekf {
    core: KfCore,
    batch_size: usize,
    quasi_lr: QuasiLr,
}

impl Fekf {
    /// Build for a model with the given per-layer parameter counts and
    /// training batch size.
    pub fn new(layer_sizes: &[usize], batch_size: usize, cfg: FekfConfig) -> Self {
        assert!(batch_size >= 1, "batch size must be ≥ 1");
        let mem = cfg.mem.unwrap_or_else(|| MemoryFactor::recommended(batch_size));
        Fekf {
            core: KfCore::new(layer_sizes, cfg.blocksize, mem, cfg.fused),
            batch_size,
            quasi_lr: cfg.quasi_lr,
        }
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.core.n_params()
    }

    /// The training batch size this instance was tuned for.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Immutable access to the KF core (for memory reports etc.).
    pub fn core(&self) -> &KfCore {
        &self.core
    }

    /// Mutable access to the KF core.
    pub fn core_mut(&mut self) -> &mut KfCore {
        &mut self.core
    }

    /// [`OptimizerState::state_to_bytes`], callable without the trait in
    /// scope: the KF core's bytes, length-prefixed, behind the batch
    /// envelope, written into one buffer sized once (`P` encoded once).
    pub fn state_to_bytes(&self) -> Vec<u8> {
        let core_len = self.core.state_len();
        let mut w = Writer::new();
        w.reserve(8 + 1 + 8 + core_len);
        w.u64(self.batch_size as u64);
        w.u8(match self.quasi_lr {
            QuasiLr::One => 0,
            QuasiLr::SqrtBs => 1,
            QuasiLr::LinearBs => 2,
        });
        w.u64(core_len as u64);
        self.core.write_state(&mut w);
        w.into_bytes()
    }

    /// One FEKF update from the batch-**sum** signed gradient
    /// (Algorithm 1 line 7: `Ŷ.sum().backward()`) and the batch-mean
    /// absolute error. Returns Δw.
    ///
    /// The sum convention matters: the Kalman gain normalizes by
    /// `gᵀPg`, so a summed gradient over `bs` weakly-correlated samples
    /// shrinks the gain by ≈ √bs — which the √bs quasi-learning-rate
    /// restores (the paper's Eq. 2 intuition).
    pub fn step(&mut self, sum_grad: &[f64], mean_abe: f64) -> Vec<f64> {
        let scale = self.quasi_lr.factor(self.batch_size);
        self.core.update(sum_grad, mean_abe, scale)
    }

    /// [`Fekf::step`] writing Δw into a preallocated buffer: together
    /// with the core's resident `q` scratch this makes the steady-state
    /// FEKF iteration (`P·g`, gain, fused `P` update) allocation-free.
    pub fn step_into(&mut self, sum_grad: &[f64], mean_abe: f64, delta: &mut [f64]) {
        let scale = self.quasi_lr.factor(self.batch_size);
        self.core.update_into(sum_grad, mean_abe, scale, delta);
    }

    /// One phase's FEKF updates as one chain ([`KfCore::update_slots`]):
    /// slot `k` is the batch-sum gradient `grads[k·n..(k+1)·n]` with the
    /// batch-mean error `abe_sums[k]·inv_bs`, `apply` receives each
    /// update's Δw (written into `delta`) in slot order, and all-zero
    /// slots are skipped. Allocation-free.
    pub fn step_slots(
        &mut self,
        grads: &[f64],
        abe_sums: &[f64],
        inv_bs: f64,
        delta: &mut [f64],
        apply: impl FnMut(&[f64]),
    ) {
        let scale = self.quasi_lr.factor(self.batch_size);
        self.core.update_slots(grads, abe_sums, inv_bs, scale, delta, apply);
    }
}

impl OptimizerState for Fekf {
    const KIND: OptKind = OptKind::Fekf;

    fn state_to_bytes(&self) -> Vec<u8> {
        Fekf::state_to_bytes(self)
    }

    fn copy_state_from(&mut self, src: &Fekf) {
        self.core.copy_state_from(&src.core);
        self.batch_size = src.batch_size;
        self.quasi_lr = src.quasi_lr;
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let batch_size = r.u64()? as usize;
        if batch_size != self.batch_size {
            return Err(WireError::Invalid(format!(
                "state batch size {batch_size} != optimizer batch size {}",
                self.batch_size
            )));
        }
        let quasi_lr = match r.u8()? {
            0 => QuasiLr::One,
            1 => QuasiLr::SqrtBs,
            2 => QuasiLr::LinearBs,
            t => return Err(WireError::Invalid(format!("unknown quasi-lr tag {t}"))),
        };
        let core_bytes = r.bytes()?.to_vec();
        r.expect_end()?;
        self.core.restore_state(&core_bytes)?;
        self.quasi_lr = quasi_lr;
        Ok(())
    }

    fn kf_cores(&mut self) -> &mut [KfCore] {
        std::slice::from_mut(&mut self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn quasi_lr_factors() {
        assert_eq!(QuasiLr::One.factor(64), 1.0);
        assert_eq!(QuasiLr::SqrtBs.factor(64), 8.0);
        assert_eq!(QuasiLr::LinearBs.factor(64), 64.0);
    }

    #[test]
    fn default_hparams_follow_batch_size_rule() {
        let small = Fekf::new(&[10], 32, FekfConfig::default());
        assert!((small.core.mem.lambda - 0.98).abs() < 1e-12);
        let large = Fekf::new(&[10], 4096, FekfConfig::default());
        assert!((large.core.mem.lambda - 0.90).abs() < 1e-12);
    }

    /// RLEKF is FEKF at bs = 1: the √bs factor is 1 and the default
    /// memory factor is the paper's, so every step is bitwise the
    /// per-sample Kalman recursion — and it converges on a streaming
    /// regression.
    #[test]
    fn fekf_at_batch_one_is_the_per_sample_recursion() {
        let n = 8;
        let mut fekf = Fekf::new(&[n], 1, FekfConfig::default());
        let mut single = KfCore::new(&[n], 10240, MemoryFactor::paper_default(), true);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let w_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut w = vec![0.0; n];
        for _ in 0..150 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let err: f64 = w_true.iter().zip(&w).zip(&x).map(|((t, w), x)| (t - w) * x).sum();
            let sign = if err >= 0.0 { 1.0 } else { -1.0 };
            let g: Vec<f64> = x.iter().map(|v| sign * v).collect();
            let delta = fekf.step(&g, err.abs());
            let reference = single.update(&g, err.abs(), 1.0);
            for (a, b) in delta.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (wi, d) in w.iter_mut().zip(&delta) {
                *wi += d;
            }
        }
        assert_eq!(fekf.core().n_updates(), 150);
        let dist = w.iter().zip(&w_true).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(dist < 0.05, "bs-1 FEKF failed to converge: {dist}");
    }

    /// Batched linear regression: FEKF with early-reduced gradients
    /// converges, and the √bs rule converges at least as fast as the
    /// factor-1 rule (the Figure 4 observation, in miniature).
    #[test]
    fn sqrt_bs_converges_faster_than_factor_one() {
        let n = 12;
        let bs = 16;
        let run = |q: QuasiLr| -> f64 {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let w_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut w = vec![0.0; n];
            let mut opt = Fekf::new(
                &[n],
                bs,
                FekfConfig { quasi_lr: q, ..FekfConfig::default() },
            );
            for _ in 0..400 {
                // One minibatch: early reduction of signed gradients and
                // absolute errors.
                let mut gbar = vec![0.0; n];
                let mut abe = 0.0;
                for _ in 0..bs {
                    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let y: f64 = w_true.iter().zip(&x).map(|(a, b)| a * b).sum();
                    let yhat: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
                    let err = y - yhat;
                    let sign = if err >= 0.0 { 1.0 } else { -1.0 };
                    // Sum-reduced gradient, mean ABE (Algorithm 1).
                    for (g, xv) in gbar.iter_mut().zip(&x) {
                        *g += sign * xv;
                    }
                    abe += err.abs() / bs as f64;
                }
                let delta = opt.step(&gbar, abe);
                for (wi, d) in w.iter_mut().zip(&delta) {
                    *wi += d;
                }
            }
            w.iter()
                .zip(&w_true)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let err_sqrt = run(QuasiLr::SqrtBs);
        let err_one = run(QuasiLr::One);
        assert!(
            err_sqrt < err_one,
            "√bs ({err_sqrt}) should beat factor 1 ({err_one})"
        );
        assert!(err_sqrt < 0.35, "√bs run must actually converge: {err_sqrt}");
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut opt = Fekf::new(&[6, 4], 4, FekfConfig::default());
        for _ in 0..12 {
            let g: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let _ = opt.step(&g, rng.gen_range(0.0..0.5));
        }
        let blob = opt.state_to_bytes();
        let mut fresh = Fekf::new(&[6, 4], 4, FekfConfig::default());
        fresh.restore_state(&blob).unwrap();
        let g: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let d1 = opt.step(&g, 0.2);
        let d2 = fresh.step(&g, 0.2);
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Wrong batch size is rejected.
        let mut wrong = Fekf::new(&[6, 4], 8, FekfConfig::default());
        assert!(wrong.restore_state(&blob).is_err());
    }
}
