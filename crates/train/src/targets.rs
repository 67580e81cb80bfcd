//! Kalman-filter prediction targets (Algorithm 1, lines 3–7).
//!
//! For each sample the EKF needs, per weight update:
//!
//! * the **signed gradient** `g = ∇_θ Σ_k (±ŷ_k)` where a component's
//!   sign is flipped when `ŷ_k ≥ y_k` (lines 3–5) — so the Kalman gain
//!   always points from prediction towards label,
//! * the **absolute error** `ABE = mean_k |y_k − ŷ_k|` (line 6).
//!
//! One iteration performs one *energy* update (`ŷ = Ê_tot`, a single
//! component) and `n_groups` *force* updates, each over the force
//! components of a disjoint round-robin group of atoms (§4: "updated
//! one time with total Energy and four times with atomic force").

use deepmd_core::model::{DeepPotModel, ForwardPass, ModelGrads};
use deepmd_core::tape_path;
use dp_data::dataset::Snapshot;

/// Which derivative implementation the trainer drives.
///
/// [`Backend::Manual`] is the paper's Opt1+ path (handwritten fused
/// kernels on the frame-batched core); [`Backend::Tape`] is the
/// framework-Autograd baseline of
/// Figure 7 — numerically identical, executed as fragmented primitive
/// kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Handwritten derivative kernels (Opt1).
    Manual,
    /// Tape-autograd baseline.
    Tape,
}

/// Signed gradient + absolute error for one KF update.
#[derive(Clone, Debug)]
pub struct KfTarget {
    /// `∇_θ Σ(±ŷ)` flattened over the model parameters.
    pub grad: Vec<f64>,
    /// Mean absolute error over the update's components.
    pub abe: f64,
}

/// Energy-update target for one sample.
pub fn energy_target(model: &DeepPotModel, pass: &ForwardPass) -> KfTarget {
    energy_target_with(model, pass, Backend::Manual)
}

/// Energy-update target computed with an explicit backend.
///
/// The Kalman update consumes the **per-atom** energy (`E_tot / N`),
/// as in the reference RLEKF/FEKF implementations: per-sample energy
/// errors are strongly sign-correlated early in training, so the
/// batch-mean signed gradient barely cancels and the `√bs` factor
/// would overshoot on the raw total energy; the per-atom scale keeps
/// the gain in the stable regime across system sizes.
pub fn energy_target_with(model: &DeepPotModel, pass: &ForwardPass, backend: Backend) -> KfTarget {
    let n = pass.frame.types.len().max(1) as f64;
    let err = (pass.frame.energy - pass.energy) / n;
    let sign = if err >= 0.0 { 1.0 } else { -1.0 };
    let mut grad = match backend {
        Backend::Manual => model.grad_energy_params(pass),
        Backend::Tape => tape_path::grad_energy_params_tape(model, pass.frame),
    };
    let scale = sign / n;
    for g in &mut grad {
        *g *= scale;
    }
    KfTarget { grad, abe: err.abs() }
}

/// Accumulating form of [`energy_target_with`]: adds the signed,
/// per-atom-scaled energy gradient into `acc` (length `n_params`) and
/// returns the sample's absolute per-atom energy error.
///
/// `scratch` holds recycled per-frame gradient buffers (created on
/// first use) so the steady-state batch loop allocates nothing;
/// summing `scale · g` directly into `acc` is bitwise identical to
/// materialising the scaled per-sample vector first
/// (`0 + scale·g == scale·g`, and accumulation order is the caller's).
pub fn accumulate_energy_target(
    model: &DeepPotModel,
    pass: &ForwardPass,
    backend: Backend,
    scratch: &mut Vec<ModelGrads>,
    acc: &mut [f64],
) -> f64 {
    let n = pass.frame.types.len().max(1) as f64;
    let err = (pass.frame.energy - pass.energy) / n;
    let sign = if err >= 0.0 { 1.0 } else { -1.0 };
    let scale = sign / n;
    match backend {
        Backend::Manual => {
            let g = &mut frame_grads(model, scratch, 1)[0];
            model.backward_energy_params(pass, g);
            model.add_flattened_scaled(g, scale, acc);
        }
        Backend::Tape => {
            let grad = tape_path::grad_energy_params_tape(model, pass.frame);
            for (a, gv) in acc.iter_mut().zip(&grad) {
                *a += scale * gv;
            }
        }
    }
    err.abs()
}

/// The first `n` recycled per-frame gradient buffers, zeroed.
fn frame_grads<'a>(
    model: &DeepPotModel,
    scratch: &'a mut Vec<ModelGrads>,
    n: usize,
) -> &'a mut [ModelGrads] {
    while scratch.len() < n {
        scratch.push(model.zero_grads());
    }
    for g in &mut scratch[..n] {
        g.zero();
    }
    &mut scratch[..n]
}

/// Accumulating form of [`force_targets_with`]: for each round-robin
/// force group `k`, adds the group's signed gradient into
/// `acc[k * n_params ..]` and its absolute error into `abes[k]`.
///
/// `acc` holds `n_groups` slots of `n_params` each; groups beyond the
/// effective count (`n_groups` clamped to `n_atoms`) are left
/// untouched, which is the additive identity for the batch reduction.
/// Group membership is the `i % n_groups` round-robin of
/// [`force_groups`], iterated directly (`i = k, k+ng, …`) so no index
/// lists are built. The groups go through the model as the tangents of
/// **one** dual sweep, each reducing into its own recycled buffer of
/// `scratch` and from there into its own slot — bitwise what one sweep
/// per group gives.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_force_targets(
    model: &DeepPotModel,
    pass: &ForwardPass,
    forces_pred: &[dp_mdsim::Vec3],
    frame: &Snapshot,
    n_groups: usize,
    backend: Backend,
    scratch: &mut Vec<ModelGrads>,
    coeffs: &mut Vec<f64>,
    acc: &mut [f64],
    abes: &mut [f64],
) {
    let n_atoms = frame.types.len();
    let ng = n_groups.max(1).min(n_atoms.max(1));
    let n_params = model.n_params();
    coeffs.clear();
    coeffs.resize(ng * 3 * n_atoms, 0.0);
    for (k, coeffs) in coeffs.chunks_exact_mut((3 * n_atoms).max(1)).enumerate() {
        let mut abs_sum = 0.0;
        let mut count = 0usize;
        let mut i = k;
        while i < n_atoms {
            for a in 0..3 {
                let err = frame.forces[i].0[a] - forces_pred[i].0[a];
                coeffs[3 * i + a] = if err >= 0.0 { 1.0 } else { -1.0 };
                abs_sum += err.abs();
                count += 1;
            }
            i += ng;
        }
        abes[k] += abs_sum / count.max(1) as f64;
    }
    match backend {
        Backend::Manual => {
            let grads = frame_grads(model, scratch, ng);
            model.grad_force_sums_params_into(pass, coeffs, grads);
            for (g, slot) in grads.iter().zip(acc.chunks_exact_mut(n_params)) {
                model.add_flattened_scaled(g, 1.0, slot);
            }
        }
        Backend::Tape => {
            let groups = coeffs.chunks_exact((3 * n_atoms).max(1));
            for (coeffs, slot) in groups.zip(acc.chunks_exact_mut(n_params)) {
                let grad = tape_path::grad_force_sum_params_tape(model, frame, coeffs);
                for (a, gv) in slot.iter_mut().zip(&grad) {
                    *a += gv;
                }
            }
        }
    }
}

/// Round-robin atom groups: atom `i` belongs to group `i % n_groups`.
pub fn force_groups(n_atoms: usize, n_groups: usize) -> Vec<Vec<usize>> {
    let n_groups = n_groups.max(1).min(n_atoms.max(1));
    let mut groups = vec![Vec::new(); n_groups];
    for i in 0..n_atoms {
        groups[i % n_groups].push(i);
    }
    groups
}

/// Force-update targets for one sample: one per atom group. All share
/// the forward `pass` (and its predicted `forces`).
pub fn force_targets(
    model: &DeepPotModel,
    pass: &ForwardPass,
    forces_pred: &[dp_mdsim::Vec3],
    frame: &Snapshot,
    n_groups: usize,
) -> Vec<KfTarget> {
    force_targets_with(model, pass, forces_pred, frame, n_groups, Backend::Manual)
}

/// Force-update targets computed with an explicit backend.
pub fn force_targets_with(
    model: &DeepPotModel,
    pass: &ForwardPass,
    forces_pred: &[dp_mdsim::Vec3],
    frame: &Snapshot,
    n_groups: usize,
    backend: Backend,
) -> Vec<KfTarget> {
    let n_atoms = frame.types.len();
    force_groups(n_atoms, n_groups)
        .into_iter()
        .map(|group| {
            let mut coeffs = vec![0.0; 3 * n_atoms];
            let mut abs_sum = 0.0;
            let mut count = 0usize;
            for &i in &group {
                for a in 0..3 {
                    let err = frame.forces[i].0[a] - forces_pred[i].0[a];
                    coeffs[3 * i + a] = if err >= 0.0 { 1.0 } else { -1.0 };
                    abs_sum += err.abs();
                    count += 1;
                }
            }
            let grad = match backend {
                Backend::Manual => model.grad_force_sum_params(pass, &coeffs),
                Backend::Tape => {
                    tape_path::grad_force_sum_params_tape(model, frame, &coeffs)
                }
            };
            KfTarget { grad, abe: abs_sum / count.max(1) as f64 }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::config::ModelConfig;
    use dp_data::dataset::Dataset;
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
            energy: -3.5 - 0.2 * seed as f64,
            forces: (0..s.n_atoms())
                .map(|i| Vec3::new(0.2 * (i as f64 - 1.5), 0.1, -0.15))
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
    fn energy_target_sign_points_towards_label() {
        let m = model();
        let f = frame(3);
        let pass = m.forward(&f);
        let t = energy_target(&m, &pass);
        // Taking a small step along the Kalman-gain direction (here the
        // raw signed gradient as proxy) must reduce |E_label − Ê|.
        let err0 = (f.energy - pass.energy).abs();
        let mut m2 = m.clone();
        let step: Vec<f64> = t.grad.iter().map(|g| 1e-4 * g).collect();
        m2.apply_update(&step);
        let err1 = (f.energy - m2.forward(&f).energy).abs();
        assert!(err1 < err0, "step along signed gradient must reduce error: {err0} → {err1}");
        // The ABE is the per-atom energy error.
        assert!((t.abe - err0 / f.types.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn force_groups_partition_atoms() {
        let groups = force_groups(10, 4);
        assert_eq!(groups.len(), 4);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Balanced within 1.
        let lens: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn more_groups_than_atoms_degrades_gracefully() {
        let groups = force_groups(2, 4);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn force_targets_have_positive_abe_and_full_length_grads() {
        let m = model();
        let f = frame(4);
        let pass = m.forward(&f);
        let forces = m.forces(&pass);
        let targets = force_targets(&m, &pass, &forces, &f, 4);
        assert_eq!(targets.len(), 4);
        for t in &targets {
            assert_eq!(t.grad.len(), m.n_params());
            assert!(t.abe > 0.0);
            assert!(t.grad.iter().any(|&g| g != 0.0), "gradient must be nonzero");
        }
    }

    #[test]
    fn accumulate_forms_match_materialized_targets_bitwise() {
        let m = model();
        let f = frame(6);
        let pass = m.forward(&f);
        let forces = m.forces(&pass);
        let n_params = m.n_params();
        let n_groups = 4;

        let et = energy_target_with(&m, &pass, Backend::Manual);
        let mut scratch = Vec::new();
        let mut acc = vec![0.0; n_params];
        let abe = accumulate_energy_target(&m, &pass, Backend::Manual, &mut scratch, &mut acc);
        assert_eq!(abe.to_bits(), et.abe.to_bits());
        for (a, b) in acc.iter().zip(&et.grad) {
            assert_eq!(a.to_bits(), b.to_bits(), "energy gradient must match bitwise");
        }

        let fts = force_targets_with(&m, &pass, &forces, &f, n_groups, Backend::Manual);
        let mut coeffs = Vec::new();
        let mut facc = vec![0.0; n_groups * n_params];
        let mut abes = vec![0.0; n_groups];
        accumulate_force_targets(
            &m, &pass, &forces, &f, n_groups, Backend::Manual,
            &mut scratch, &mut coeffs, &mut facc, &mut abes,
        );
        assert_eq!(fts.len(), n_groups);
        for (k, t) in fts.iter().enumerate() {
            assert_eq!(abes[k].to_bits(), t.abe.to_bits());
            for (a, b) in facc[k * n_params..(k + 1) * n_params].iter().zip(&t.grad) {
                assert_eq!(a.to_bits(), b.to_bits(), "group {k} gradient must match bitwise");
            }
        }
    }

    #[test]
    fn force_update_step_reduces_group_error() {
        let m = model();
        let f = frame(5);
        let pass = m.forward(&f);
        let forces = m.forces(&pass);
        let targets = force_targets(&m, &pass, &forces, &f, 1);
        let group_err = |m: &DeepPotModel| -> f64 {
            let pass = m.forward(&f);
            let pred = m.forces(&pass);
            pred.iter()
                .zip(&f.forces)
                .map(|(p, l)| (0..3).map(|a| (l.0[a] - p.0[a]).abs()).sum::<f64>())
                .sum()
        };
        let e0 = group_err(&m);
        let mut m2 = m.clone();
        let step: Vec<f64> = targets[0].grad.iter().map(|g| 1e-5 * g).collect();
        m2.apply_update(&step);
        let e1 = group_err(&m2);
        assert!(e1 < e0, "signed force gradient must reduce error: {e0} → {e1}");
    }
}
