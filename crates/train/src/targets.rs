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

/// Energy-update target of one sample: adds the signed, per-atom-scaled
/// energy gradient into `acc` (length `n_params`) and returns the
/// sample's absolute per-atom energy error.
///
/// The Kalman update consumes the **per-atom** energy (`E_tot / N`),
/// as in the reference RLEKF/FEKF implementations: per-sample energy
/// errors are strongly sign-correlated early in training, so the
/// batch-mean signed gradient barely cancels and the `√bs` factor
/// would overshoot on the raw total energy; the per-atom scale keeps
/// the gain in the stable regime across system sizes.
///
/// `scratch` holds recycled per-frame gradient buffers (created on
/// first use) so the steady-state batch loop allocates nothing.
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

/// Force-update targets of one sample: for each round-robin force
/// group `k` (atom `i` belongs to group `i % n_groups`), adds the
/// group's signed gradient into `acc[k * n_params ..]` and its mean
/// absolute error into `abes[k]`.
///
/// `acc` holds `n_groups` slots of `n_params` each; groups beyond the
/// effective count (`n_groups` clamped to `n_atoms`) are left
/// untouched, which is the additive identity for the batch reduction.
/// Members are iterated directly (`i = k, k+ng, …`) so no index lists
/// are built. The groups go through the model as the tangents of
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

    /// Energy target of `f`: (signed gradient, absolute error).
    fn energy(m: &DeepPotModel, f: &Snapshot) -> (Vec<f64>, f64) {
        let mut acc = vec![0.0; m.n_params()];
        let abe = accumulate_energy_target(m, &m.forward(f), Backend::Manual, &mut Vec::new(), &mut acc);
        (acc, abe)
    }

    /// Force targets of `f` over `n_groups` groups: (slots, errors).
    fn forces(m: &DeepPotModel, f: &Snapshot, n_groups: usize) -> (Vec<f64>, Vec<f64>) {
        let pass = m.forward(f);
        let pred = m.forces(&pass);
        let (mut acc, mut abes) = (vec![0.0; n_groups * m.n_params()], vec![0.0; n_groups]);
        let (mut scratch, mut coeffs) = (Vec::new(), Vec::new());
        accumulate_force_targets(
            m, &pass, &pred, f, n_groups, Backend::Manual, &mut scratch, &mut coeffs, &mut acc, &mut abes,
        );
        (acc, abes)
    }

    #[test]
    fn energy_sign_points_towards_label() {
        let m = model();
        let f = frame(3);
        let (grad, abe) = energy(&m, &f);
        // Taking a small step along the Kalman-gain direction (here the
        // raw signed gradient as proxy) must reduce |E_label − Ê|.
        let err0 = (f.energy - m.forward(&f).energy).abs();
        let mut m2 = m.clone();
        let step: Vec<f64> = grad.iter().map(|g| 1e-4 * g).collect();
        m2.apply_update(&step);
        let err1 = (f.energy - m2.forward(&f).energy).abs();
        assert!(err1 < err0, "step along signed gradient must reduce error: {err0} → {err1}");
        // The ABE is the per-atom energy error.
        assert!((abe - err0 / f.types.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn groups_are_round_robin_over_atoms() {
        let m = model();
        let f = frame(4);
        let pred = m.forces(&m.forward(&f));
        let (labels, pred) = (&f.forces, &pred);
        let n_groups = 3;
        let (acc, abes) = forces(&m, &f, n_groups);
        for (k, (g, &abe)) in acc.chunks_exact(m.n_params()).zip(&abes).enumerate() {
            // Mean |error| over the components of atoms k, k+3, k+6, ….
            let errs: Vec<f64> = (k..f.types.len())
                .step_by(n_groups)
                .flat_map(|i| (0..3).map(move |a| (labels[i].0[a] - pred[i].0[a]).abs()))
                .collect();
            let want = errs.iter().sum::<f64>() / errs.len() as f64;
            assert_eq!(abe.to_bits(), want.to_bits(), "group {k} error");
            assert!(g.iter().any(|&v| v != 0.0), "group {k} gradient must be nonzero");
        }
    }

    #[test]
    fn groups_beyond_the_atom_count_stay_empty() {
        let m = model();
        let f = frame(4);
        let n_atoms = f.types.len();
        let (acc, abes) = forces(&m, &f, n_atoms + 2);
        for (k, g) in acc.chunks_exact(m.n_params()).enumerate() {
            let empty = k >= n_atoms;
            assert_eq!(g.iter().all(|&v| v == 0.0), empty, "group {k}");
            assert_eq!(abes[k] == 0.0, empty, "group {k}");
        }
    }

    /// The one dual sweep over all groups equals one `∇θ(cᵀF)` per group,
    /// and the energy slot equals the scaled `∇θE`, bit for bit.
    #[test]
    fn one_sweep_matches_per_group_gradients_bitwise() {
        let m = model();
        let f = frame(6);
        let pass = m.forward(&f);
        let pred = m.forces(&pass);
        let n_atoms = f.types.len();

        let (grad, _) = energy(&m, &f);
        let err = (f.energy - pass.energy) / n_atoms as f64;
        let sign = if err >= 0.0 { 1.0 } else { -1.0 };
        let scale = sign / n_atoms as f64;
        for (a, b) in grad.iter().zip(m.grad_energy_params(&pass)) {
            assert_eq!(a.to_bits(), (0.0 + scale * b).to_bits(), "energy gradient");
        }

        let n_groups = 4;
        let (acc, _) = forces(&m, &f, n_groups);
        for (k, slot) in acc.chunks_exact(m.n_params()).enumerate() {
            let mut coeffs = vec![0.0; 3 * n_atoms];
            for i in (k..n_atoms).step_by(n_groups) {
                for a in 0..3 {
                    let err = f.forces[i].0[a] - pred[i].0[a];
                    coeffs[3 * i + a] = if err >= 0.0 { 1.0 } else { -1.0 };
                }
            }
            for (a, b) in slot.iter().zip(m.grad_force_sum_params(&pass, &coeffs)) {
                assert_eq!(a.to_bits(), (0.0 + b).to_bits(), "group {k} gradient");
            }
        }
    }

    #[test]
    fn force_update_step_reduces_group_error() {
        let m = model();
        let f = frame(5);
        let (grad, _) = forces(&m, &f, 1);
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
        let step: Vec<f64> = grad.iter().map(|g| 1e-5 * g).collect();
        m2.apply_update(&step);
        let e1 = group_err(&m2);
        assert!(e1 < e0, "signed force gradient must reduce error: {e0} → {e1}");
    }
}
