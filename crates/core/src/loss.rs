//! Loss functions and accuracy metrics.
//!
//! The paper's accuracy measure (§5.1 / Table 4) is the RMSE of the
//! total energy and of the force components; "the summation of Energy
//! RMSE and Force RMSE" is the convergence criterion. The Adam baseline
//! trains on the standard DeePMD loss
//! `L = p_e (ΔE/N)² + p_f · |ΔF|²/(3N)`.

use crate::model::DeepPotModel;
use dp_data::dataset::{Dataset, Snapshot};

/// Weights of the Adam training loss.
#[derive(Clone, Copy, Debug)]
pub struct LossWeights {
    /// Energy prefactor.
    pub pe: f64,
    /// Force prefactor.
    pub pf: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        // DeePMD-kit's customary end-of-schedule weighting.
        LossWeights { pe: 1.0, pf: 1.0 }
    }
}

/// DeePMD's prefactor schedule: the loss weights interpolate between a
/// force-heavy start and a balanced end as the learning rate decays —
/// `p(t) = p_limit·(1 − r) + p_start·r` with `r = lr(t)/lr(0)`.
///
/// The quick experiments in this repo train with constant weights (their
/// runs are too short for the schedule to move); the schedule is
/// provided for paper-scale Adam runs, where DeePMD-kit's defaults
/// (`pe: 0.02 → 1`, `pf: 1000 → 1`) matter.
#[derive(Clone, Copy, Debug)]
pub struct LossSchedule {
    /// Weights at `r = 1` (start of training).
    pub start: LossWeights,
    /// Weights at `r = 0` (fully decayed learning rate).
    pub limit: LossWeights,
}

impl LossSchedule {
    /// DeePMD-kit's customary schedule.
    pub fn deepmd_default() -> Self {
        LossSchedule {
            start: LossWeights { pe: 0.02, pf: 1000.0 },
            limit: LossWeights { pe: 1.0, pf: 1.0 },
        }
    }

    /// A constant schedule (both ends equal).
    pub fn constant(w: LossWeights) -> Self {
        LossSchedule { start: w, limit: w }
    }

    /// Weights at learning-rate ratio `r = lr(t)/lr(0)` (clamped to
    /// `[0, 1]`).
    pub fn at(&self, r: f64) -> LossWeights {
        let r = r.clamp(0.0, 1.0);
        // `a + (b − a)·r` rather than `a·(1−r) + b·r`: exact at r = 0
        // and whenever both ends coincide (constant schedules).
        LossWeights {
            pe: self.limit.pe + (self.start.pe - self.limit.pe) * r,
            pf: self.limit.pf + (self.start.pf - self.limit.pf) * r,
        }
    }
}

/// Per-dataset accuracy metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Metrics {
    /// RMSE of the total energy (eV).
    pub energy_rmse: f64,
    /// RMSE of the per-atom energy (eV/atom).
    pub energy_rmse_per_atom: f64,
    /// RMSE over force components (eV/Å).
    pub force_rmse: f64,
}

impl Metrics {
    /// The paper's combined convergence measure.
    pub fn combined(&self) -> f64 {
        self.energy_rmse + self.force_rmse
    }
}

/// Evaluate energy/force RMSE of `model` over `data` (optionally only
/// the first `max_frames` frames, for cheap in-training eval).
pub fn evaluate(model: &DeepPotModel, data: &Dataset, max_frames: usize) -> Metrics {
    let frames = &data.frames[..max_frames.max(1).min(data.frames.len())];
    let (se, sea, sf, nf, n_frames) = dp_pool::map_reduce(
        frames,
        || (0.0, 0.0, 0.0, 0usize, 0usize),
        |frame| {
            let pred = model.predict(frame);
            let de = pred.energy - frame.energy;
            let n = frame.types.len() as f64;
            let mut sf = 0.0;
            for (p, l) in pred.forces.iter().zip(&frame.forces) {
                let d = *p - *l;
                sf += d.norm2();
            }
            (de * de, (de / n) * (de / n), sf, 3 * frame.types.len(), 1usize)
        },
        |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3, a.4 + b.4),
    );
    let nfr = n_frames.max(1) as f64;
    Metrics {
        energy_rmse: (se / nfr).sqrt(),
        energy_rmse_per_atom: (sea / nfr).sqrt(),
        force_rmse: (sf / nf.max(1) as f64).sqrt(),
    }
}

/// Adam loss and its exact parameter gradient for one frame.
///
/// `L = p_e (ΔE/N)² + p_f |ΔF|² / (3N)`; the force term's gradient uses
/// the model's force-contraction sweep with `c = 2 p_f (F̂−F) / 3N`
/// (exact, since `∇_θ Σ(F̂−F)² = 2 (F̂−F)ᵀ ∂F̂/∂θ`).
pub fn loss_and_grad(
    model: &DeepPotModel,
    frame: &Snapshot,
    w: &LossWeights,
) -> (f64, Vec<f64>) {
    let n = frame.types.len() as f64;
    let pass = model.forward(frame);
    let forces = model.forces(&pass);
    let de = pass.energy - frame.energy;
    let mut loss = w.pe * (de / n) * (de / n);
    let mut coeffs = Vec::with_capacity(3 * frame.types.len());
    let mut sf = 0.0;
    for (p, l) in forces.iter().zip(&frame.forces) {
        for a in 0..3 {
            let d = p.0[a] - l.0[a];
            sf += d * d;
            coeffs.push(2.0 * w.pf * d / (3.0 * n));
        }
    }
    loss += w.pf * sf / (3.0 * n);
    // Gradient: energy part + force part.
    let mut grad = model.grad_energy_params(&pass);
    let escale = 2.0 * w.pe * de / (n * n);
    for g in &mut grad {
        *g *= escale;
    }
    let gf = model.grad_force_sum_params(&pass, &coeffs);
    for (g, f) in grad.iter_mut().zip(&gf) {
        *g += f;
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dp_mdsim::lattice::{fcc, Species};
    use dp_mdsim::Vec3;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn frame(seed: u64) -> Snapshot {
        let mut s = fcc(Species::new("A", 30.0), 4.0, [2, 2, 2]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        s.jitter_positions(0.2, &mut rng);
        Snapshot {
            cell: s.cell.lengths(),
            types: s.types.clone(),
            type_names: s.type_names.clone(),
            pos: s.pos.clone(),
            energy: -4.0 + 0.1 * seed as f64,
            forces: (0..s.n_atoms())
                .map(|i| Vec3::new(0.1 * i as f64, -0.05, 0.02))
                .collect(),
            temperature: 300.0,
        }
    }

    fn model() -> DeepPotModel {
        let mut cfg = ModelConfig::small(1, 3.1);
        cfg.rcut_smooth = 2.0;
        let mut ds = Dataset::new("t", vec!["A".into()]);
        ds.push(frame(1));
        ds.push(frame(2));
        DeepPotModel::new(cfg, &ds)
    }

    #[test]
    fn metrics_are_zero_for_perfect_predictions() {
        let m = model();
        let mut ds = Dataset::new("t", vec!["A".into()]);
        let mut f = frame(3);
        let pred = m.predict(&f);
        f.energy = pred.energy;
        f.forces = pred.forces.clone();
        ds.push(f);
        let metrics = evaluate(&m, &ds, 10);
        assert!(metrics.energy_rmse < 1e-12);
        assert!(metrics.force_rmse < 1e-12);
        assert!(metrics.combined() < 1e-12);
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let m = model();
        let f = frame(4);
        let w = LossWeights { pe: 1.0, pf: 0.5 };
        let (_, grad) = loss_and_grad(&m, &f, &w);
        let p0 = m.get_params();
        let h = 1e-6;
        let stride = (p0.len() / 40).max(1);
        for e in (0..p0.len()).step_by(stride) {
            let eval = |delta: f64| {
                let mut mm = m.clone();
                let mut p = p0.clone();
                p[e] += delta;
                mm.set_params(&p);
                loss_and_grad(&mm, &f, &w).0
            };
            let fd = (eval(h) - eval(-h)) / (2.0 * h);
            assert!(
                (fd - grad[e]).abs() < 2e-5 * (1.0 + fd.abs()),
                "param {e}: fd {fd} vs {}",
                grad[e]
            );
        }
    }

    #[test]
    fn loss_decreases_along_negative_gradient() {
        let mut m = model();
        let f = frame(5);
        let w = LossWeights::default();
        let (l0, grad) = loss_and_grad(&m, &f, &w);
        let step: Vec<f64> = grad.iter().map(|g| -1e-3 * g).collect();
        m.apply_update(&step);
        let (l1, _) = loss_and_grad(&m, &f, &w);
        assert!(l1 < l0, "gradient step must reduce the loss: {l0} → {l1}");
    }

    #[test]
    fn schedule_interpolates_between_endpoints() {
        let sched = LossSchedule::deepmd_default();
        let start = sched.at(1.0);
        assert!((start.pe - 0.02).abs() < 1e-12);
        assert!((start.pf - 1000.0).abs() < 1e-12);
        let end = sched.at(0.0);
        assert!((end.pe - 1.0).abs() < 1e-12);
        assert!((end.pf - 1.0).abs() < 1e-12);
        let mid = sched.at(0.5);
        assert!(mid.pe > start.pe && mid.pe < end.pe);
        assert!(mid.pf < start.pf && mid.pf > end.pf);
        // Out-of-range ratios clamp.
        assert!((sched.at(2.0).pf - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn constant_schedule_never_moves() {
        let sched = LossSchedule::constant(LossWeights { pe: 2.0, pf: 3.0 });
        for r in [0.0, 0.3, 1.0] {
            assert_eq!(sched.at(r).pe, 2.0);
            assert_eq!(sched.at(r).pf, 3.0);
        }
    }

    #[test]
    fn evaluate_uses_at_most_max_frames() {
        let m = model();
        let mut ds = Dataset::new("t", vec!["A".into()]);
        ds.push(frame(6));
        ds.push(frame(7));
        let m1 = evaluate(&m, &ds, 1);
        let m2 = evaluate(&m, &ds, 2);
        // Different frame subsets generally give different RMSE.
        assert!(m1.energy_rmse.is_finite() && m2.energy_rmse.is_finite());
    }
}
