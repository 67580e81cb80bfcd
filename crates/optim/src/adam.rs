//! Adam — the first-order baseline (the optimizer currently deployed
//! in the DeePMD package, §1/§2.1).
//!
//! Includes the paper's training schedule: base learning rate 1e-3
//! with exponential decay ×0.95 every 5000 steps (§4 "Model
//! parameters"), and the `√bs` learning-rate scaling the paper applies
//! when growing the Adam batch size in Table 1.

use crate::{OptKind, OptimizerState};
use dp_tensor::wire::{Reader, WireError, Writer};

/// Adam hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Base learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Multiplicative LR decay factor.
    pub decay_factor: f64,
    /// Steps between decays (0 disables the schedule).
    pub decay_steps: usize,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            decay_factor: 0.95,
            decay_steps: 5000,
        }
    }
}

impl AdamConfig {
    /// The paper's Table 1 protocol: scale the learning rate by `√bs`
    /// when training with batch size `bs` ("multiplying the learning
    /// rate with their square root of the minibatch").
    pub fn with_sqrt_bs_scaling(mut self, bs: usize) -> Self {
        self.lr *= (bs as f64).sqrt();
        self
    }
}

/// Adam optimizer state.
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Create for `n_params` parameters.
    pub fn new(n_params: usize, cfg: AdamConfig) -> Self {
        Adam { cfg, m: vec![0.0; n_params], v: vec![0.0; n_params], t: 0 }
    }

    /// Current (decayed) learning rate.
    pub fn current_lr(&self) -> f64 {
        if self.cfg.decay_steps == 0 {
            return self.cfg.lr;
        }
        let decays = (self.t / self.cfg.decay_steps as u64) as i32;
        self.cfg.lr * self.cfg.decay_factor.powi(decays)
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One Adam step on the loss gradient; returns the weight increment
    /// Δw (add it to the parameters).
    ///
    /// # Panics
    /// Panics if the gradient length differs from the state size.
    pub fn step(&mut self, grad: &[f64]) -> Vec<f64> {
        assert_eq!(grad.len(), self.m.len(), "gradient length mismatch");
        let lr = self.current_lr();
        self.t += 1;
        let t = self.t as f64;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let mut delta = vec![0.0; grad.len()];
        for i in 0..grad.len() {
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * grad[i];
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * grad[i] * grad[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            delta[i] = -lr * mhat / (vhat.sqrt() + self.cfg.eps);
        }
        delta
    }
}

impl OptimizerState for Adam {
    const KIND: OptKind = OptKind::Adam;

    /// The step counter, then both moment vectors.
    fn state_to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.t);
        w.f64_vec(&self.m);
        w.f64_vec(&self.v);
        w.into_bytes()
    }

    fn copy_state_from(&mut self, src: &Adam) {
        self.t = src.t;
        self.m.copy_from_slice(&src.m);
        self.v.copy_from_slice(&src.v);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let t = r.u64()?;
        let m = r.f64_vec()?;
        let v = r.f64_vec()?;
        r.expect_end()?;
        if m.len() != self.m.len() || v.len() != self.v.len() {
            return Err(WireError::Invalid(format!(
                "state has {}/{} moments, optimizer has {}",
                m.len(),
                v.len(),
                self.m.len()
            )));
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(w) = Σ (w − target)², gradient 2(w − target).
        let target = [1.0, -2.0, 0.5];
        let mut w = [0.0; 3];
        let mut opt = Adam::new(3, AdamConfig { lr: 0.05, ..Default::default() });
        for _ in 0..2000 {
            let grad: Vec<f64> = w.iter().zip(&target).map(|(a, b)| 2.0 * (a - b)).collect();
            let delta = opt.step(&grad);
            for (wi, d) in w.iter_mut().zip(&delta) {
                *wi += d;
            }
        }
        for (a, b) in w.iter().zip(&target) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn lr_schedule_decays_every_decay_steps() {
        let mut opt = Adam::new(1, AdamConfig { decay_steps: 10, ..Default::default() });
        let lr0 = opt.current_lr();
        for _ in 0..10 {
            opt.step(&[0.1]);
        }
        let lr1 = opt.current_lr();
        assert!((lr1 - lr0 * 0.95).abs() < 1e-12, "{lr0} → {lr1}");
    }

    #[test]
    fn sqrt_bs_scaling_matches_table_1_protocol() {
        let cfg = AdamConfig::default().with_sqrt_bs_scaling(64);
        assert!((cfg.lr - 8e-3).abs() < 1e-12);
    }

    #[test]
    fn first_step_moves_at_learning_rate_magnitude() {
        // Bias correction means the very first step has magnitude ≈ lr.
        let mut opt = Adam::new(1, AdamConfig { lr: 0.01, decay_steps: 0, ..Default::default() });
        let delta = opt.step(&[3.0]);
        assert!((delta[0] + 0.01).abs() < 1e-6, "step {}", delta[0]);
    }

    #[test]
    fn zero_gradient_produces_zero_update() {
        let mut opt = Adam::new(4, AdamConfig::default());
        let delta = opt.step(&[0.0; 4]);
        assert!(delta.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let mut opt = Adam::new(3, AdamConfig::default());
        for i in 0..7 {
            let _ = opt.step(&[0.1 * i as f64, -0.2, 0.3]);
        }
        let blob = opt.state_to_bytes();
        let mut fresh = Adam::new(3, AdamConfig::default());
        fresh.restore_state(&blob).unwrap();
        assert_eq!(fresh.steps(), opt.steps());
        let d1 = opt.step(&[0.5, -0.5, 0.1]);
        let d2 = fresh.step(&[0.5, -0.5, 0.1]);
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Wrong size rejected.
        let mut wrong = Adam::new(4, AdamConfig::default());
        assert!(wrong.restore_state(&blob).is_err());
    }
}
