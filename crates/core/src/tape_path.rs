//! Baseline "Autograd" implementation of the model derivatives.
//!
//! The paper's baseline (Figure 7) computes forces and optimizer
//! gradients through the ML framework's Autograd API, which "launches a
//! lot of fragmented kernels" (§3.4). This module reproduces that
//! execution style: the whole per-frame computation — including the
//! explicit forward-tangent (JVP) graph used for force gradients — is
//! recorded on the [`dp_tensor::tape`] engine op by op, then swept in
//! reverse. Every primitive is a separate kernel launch with its own
//! intermediate allocation.
//!
//! The results are *numerically identical* to the handwritten kernels
//! in [`crate::model`] (asserted by the tests); only the execution
//! profile differs. The Figure 7(b)/(c) experiments measure exactly
//! that difference.

use crate::model::{DeepPotModel, ForwardPass};
use dp_data::dataset::Snapshot;
use dp_mdsim::Vec3;
use dp_tensor::tape::{Grads, Tape, VarId};
use dp_tensor::Mat;

/// Parameter leaves in model flatten order: `(w, b)` per layer per MLP.
struct ParamLeaves {
    per_layer: Vec<(VarId, VarId)>,
}

fn make_param_leaves(model: &DeepPotModel, tape: &mut Tape) -> ParamLeaves {
    let mut per_layer = Vec::new();
    for mlp in model.embeddings.iter().chain(model.fittings.iter()) {
        for l in &mlp.layers {
            let w = tape.leaf(l.w.clone());
            let b = tape.leaf(l.b.clone());
            per_layer.push((w, b));
        }
    }
    ParamLeaves { per_layer }
}

/// Index of the first layer of MLP `mlp_idx` in flatten order, where
/// embeddings come first (3 layers each) then fittings (4 layers each).
fn mlp_layer_offset(model: &DeepPotModel, emb_idx: Option<usize>, fit_idx: Option<usize>) -> usize {
    let nt = model.cfg.n_types;
    match (emb_idx, fit_idx) {
        (Some(e), None) => e * 3,
        (None, Some(f)) => nt * nt * 3 + f * 4,
        _ => unreachable!(),
    }
}

/// Forward an MLP on the tape; returns the output node.
fn mlp_forward_tape(
    model: &DeepPotModel,
    tape: &mut Tape,
    leaves: &ParamLeaves,
    layer_off: usize,
    mlp: &crate::mlp::Mlp,
    x: VarId,
) -> VarId {
    let _ = model;
    let mut cur = x;
    for (l, layer) in mlp.layers.iter().enumerate() {
        let (w, b) = leaves.per_layer[layer_off + l];
        let z = tape.matmul(cur, w);
        let zb = tape.add_row_broadcast(z, b);
        cur = match layer.kind {
            crate::mlp::LayerKind::Linear => zb,
            crate::mlp::LayerKind::Tanh => tape.tanh(zb),
            crate::mlp::LayerKind::TanhResidual => {
                let t = tape.tanh(zb);
                tape.add(cur, t)
            }
        };
    }
    cur
}

/// JVP of an MLP as explicit tape ops. Returns `(outputs, tangents)` —
/// the tangent chain is ordinary ops, so one reverse sweep later
/// differentiates through it (this is how the autograd baseline gets
/// force gradients without a second-order engine).
fn mlp_jvp_tape(
    tape: &mut Tape,
    leaves: &ParamLeaves,
    layer_off: usize,
    mlp: &crate::mlp::Mlp,
    x: VarId,
    xdot: VarId,
) -> (VarId, VarId) {
    let mut cur = x;
    let mut cur_dot = xdot;
    for (l, layer) in mlp.layers.iter().enumerate() {
        let (w, b) = leaves.per_layer[layer_off + l];
        let z = tape.matmul(cur, w);
        let zb = tape.add_row_broadcast(z, b);
        let zdot = tape.matmul(cur_dot, w);
        match layer.kind {
            crate::mlp::LayerKind::Linear => {
                cur = zb;
                cur_dot = zdot;
            }
            crate::mlp::LayerKind::Tanh | crate::mlp::LayerKind::TanhResidual => {
                let t = tape.tanh(zb);
                // h = 1 − t².
                let (rows, cols) = tape.value(t).shape();
                let ones = tape.leaf(Mat::from_fn(rows, cols, |_, _| 1.0));
                let tsq = tape.hadamard(t, t);
                let h = tape.sub(ones, tsq);
                let tdot = tape.hadamard(h, zdot);
                if layer.kind == crate::mlp::LayerKind::TanhResidual {
                    cur = tape.add(cur, t);
                    cur_dot = tape.add(cur_dot, tdot);
                } else {
                    cur = t;
                    cur_dot = tdot;
                }
            }
        }
    }
    (cur, cur_dot)
}

/// One neighbour-type block's leaves: `(r̃ leaf, s leaf, neighbour type)`.
type BlockLeaves = (VarId, VarId, usize);

/// Per-atom tape handles needed to read gradients back out.
struct AtomLeaves {
    /// Leaves per neighbour type (None for empty blocks).
    blocks: Vec<Option<BlockLeaves>>,
}

/// Build the full energy graph for a frame. Returns
/// `(energy_node, param leaves, per-atom leaves)`.
fn build_energy_graph(
    model: &DeepPotModel,
    pass: &ForwardPass,
    tape: &mut Tape,
) -> (VarId, ParamLeaves, Vec<AtomLeaves>) {
    let leaves = make_param_leaves(model, tape);
    let nt = model.cfg.n_types;
    let m_sub = model.cfg.m_sub;
    let inv_n = 1.0 / model.stats.n_scale;
    let mut e_total: Option<VarId> = None;
    let mut atom_leaves = Vec::new();
    let envs = &pass.frame_env().envs;
    for (i, &ti) in pass.frame.types.iter().enumerate() {
        let mut blocks = Vec::with_capacity(nt);
        let mut u_acc: Option<VarId> = None;
        for tj in 0..nt {
            let entries = envs.of(i, tj);
            if entries.is_empty() {
                blocks.push(None);
                continue;
            }
            let n_blk = entries.len();
            let r_blk = tape.leaf(Mat::from_fn(n_blk, 4, |r, c| entries[r].row[c]));
            let s_blk = tape.leaf(Mat::from_fn(n_blk, 1, |r, _| entries[r].row[0]));
            let off = mlp_layer_offset(model, Some(ti * nt + tj), None);
            let g_blk = mlp_forward_tape(
                model,
                tape,
                &leaves,
                off,
                &model.embeddings[ti * nt + tj],
                s_blk,
            );
            let u_blk = tape.t_matmul(r_blk, g_blk);
            u_acc = Some(match u_acc {
                None => u_blk,
                Some(prev) => tape.add(prev, u_blk),
            });
            blocks.push(Some((r_blk, s_blk, tj)));
        }
        // Isolated atoms (no neighbours in the cutoff) still contribute
        // a constant per-atom energy through the fitting net on a zero
        // descriptor.
        let u_raw = u_acc.unwrap_or_else(|| tape.leaf(Mat::zeros(4, model.cfg.m)));
        let u = tape.scale(u_raw, inv_n);
        let v = tape.slice_cols(u, 0, m_sub);
        let d = tape.t_matmul(u, v);
        let d_flat = tape.reshape(d, 1, model.cfg.descriptor_dim());
        let off = mlp_layer_offset(model, None, Some(ti));
        let e_atom = mlp_forward_tape(model, tape, &leaves, off, &model.fittings[ti], d_flat);
        e_total = Some(match e_total {
            None => e_atom,
            Some(prev) => tape.add(prev, e_atom),
        });
        atom_leaves.push(AtomLeaves { blocks });
    }
    (e_total.expect("empty frame"), leaves, atom_leaves)
}

fn gather_param_grads(model: &DeepPotModel, tape: &Tape, grads: &Grads, leaves: &ParamLeaves) -> Vec<f64> {
    let mut out = Vec::with_capacity(model.n_params());
    for (w, b) in &leaves.per_layer {
        let gw = grads.get_or_zero(*w, tape.value(*w).shape());
        out.extend_from_slice(gw.as_slice());
        let gb = grads.get_or_zero(*b, tape.value(*b).shape());
        out.extend_from_slice(gb.as_slice());
    }
    out
}

/// Baseline energy evaluation through the tape. Equals
/// `model.forward(frame).energy`.
pub fn energy_tape(model: &DeepPotModel, frame: &Snapshot) -> f64 {
    let pass = model.forward(frame);
    let mut tape = Tape::new();
    let (e, _, _) = build_energy_graph(model, &pass, &mut tape);
    tape.value(e).get(0, 0) + model.bias.reference_energy(&frame.types)
}

/// Baseline `∇_θ E` through one tape backward.
pub fn grad_energy_params_tape(model: &DeepPotModel, frame: &Snapshot) -> Vec<f64> {
    let pass = model.forward(frame);
    let mut tape = Tape::new();
    let (e, leaves, _) = build_energy_graph(model, &pass, &mut tape);
    let grads = tape.backward(e);
    gather_param_grads(model, &tape, &grads, &leaves)
}

/// Baseline forces: tape backward to the environment leaves, then the
/// same geometric assembly as the manual path.
pub fn forces_tape(model: &DeepPotModel, frame: &Snapshot) -> Vec<Vec3> {
    let pass = model.forward(frame);
    let mut tape = Tape::new();
    let (e, _, atom_leaves) = build_energy_graph(model, &pass, &mut tape);
    let grads = tape.backward(e);
    let n_atoms = frame.types.len();
    let mut dpos = vec![Vec3::ZERO; n_atoms];
    let envs = &pass.frame_env().envs;
    for (i, leavesi) in atom_leaves.iter().enumerate() {
        for blk in leavesi.blocks.iter().flatten() {
            let (r_leaf, s_leaf, tj) = *blk;
            let g_r = grads.get_or_zero(r_leaf, tape.value(r_leaf).shape());
            let g_s = grads.get_or_zero(s_leaf, tape.value(s_leaf).shape());
            for (k, e_entry) in envs.of(i, tj).iter().enumerate() {
                let mut dvec = [0.0; 3];
                for (axis, dva) in dvec.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for c in 0..4 {
                        acc += g_r.get(k, c) * e_entry.drow[c][axis];
                    }
                    acc += g_s.get(k, 0) * e_entry.drow[0][axis];
                    *dva = acc;
                }
                let dv = Vec3(dvec);
                dpos[e_entry.j] += dv;
                dpos[i] -= dv;
            }
        }
    }
    dpos.into_iter().map(|v| -v).collect()
}

/// Baseline `∇_θ (Σ c_k F_k)`: the JVP graph is built from ordinary
/// tape ops and differentiated with one reverse sweep.
pub fn grad_force_sum_params_tape(
    model: &DeepPotModel,
    frame: &Snapshot,
    coeffs: &[f64],
) -> Vec<f64> {
    let pass = model.forward(frame);
    let n_atoms = frame.types.len();
    assert_eq!(coeffs.len(), 3 * n_atoms);
    let nt = model.cfg.n_types;
    let m_sub = model.cfg.m_sub;
    let inv_n = 1.0 / model.stats.n_scale;
    let c_at = |k: usize| [coeffs[3 * k], coeffs[3 * k + 1], coeffs[3 * k + 2]];

    let mut tape = Tape::new();
    let leaves = make_param_leaves(model, &mut tape);
    let mut edot_total: Option<VarId> = None;
    let envs = &pass.frame_env().envs;
    for (i, &ti) in frame.types.iter().enumerate() {
        let ci = c_at(i);
        let mut u_acc: Option<VarId> = None;
        let mut udot_acc: Option<VarId> = None;
        let mut g_blocks: Vec<Option<(VarId, VarId, VarId, VarId)>> = Vec::with_capacity(nt);
        for tj in 0..nt {
            let entries = envs.of(i, tj);
            if entries.is_empty() {
                g_blocks.push(None);
                continue;
            }
            let n_blk = entries.len();
            let r_blk = tape.leaf(Mat::from_fn(n_blk, 4, |r, c| entries[r].row[c]));
            let s_blk = tape.leaf(Mat::from_fn(n_blk, 1, |r, _| entries[r].row[0]));
            let rdot = Mat::from_fn(n_blk, 4, |r, c| {
                let e = &entries[r];
                let cj = c_at(e.j);
                (0..3).map(|ax| e.drow[c][ax] * (cj[ax] - ci[ax])).sum::<f64>()
            });
            let sdot_mat = Mat::from_fn(n_blk, 1, |r, _| rdot.get(r, 0));
            let rdot_blk = tape.leaf(rdot);
            let sdot_blk = tape.leaf(sdot_mat);
            let off = mlp_layer_offset(model, Some(ti * nt + tj), None);
            let (g_blk, gdot_blk) = mlp_jvp_tape(
                &mut tape,
                &leaves,
                off,
                &model.embeddings[ti * nt + tj],
                s_blk,
                sdot_blk,
            );
            let u_blk = tape.t_matmul(r_blk, g_blk);
            let udot_a = tape.t_matmul(rdot_blk, g_blk);
            let udot_b = tape.t_matmul(r_blk, gdot_blk);
            let udot_blk = tape.add(udot_a, udot_b);
            u_acc = Some(match u_acc {
                None => u_blk,
                Some(p) => tape.add(p, u_blk),
            });
            udot_acc = Some(match udot_acc {
                None => udot_blk,
                Some(p) => tape.add(p, udot_blk),
            });
            g_blocks.push(Some((r_blk, s_blk, rdot_blk, sdot_blk)));
        }
        let u = {
            let raw = u_acc.unwrap_or_else(|| tape.leaf(Mat::zeros(4, model.cfg.m)));
            tape.scale(raw, inv_n)
        };
        let udot = {
            let raw = udot_acc.unwrap_or_else(|| tape.leaf(Mat::zeros(4, model.cfg.m)));
            tape.scale(raw, inv_n)
        };
        let v = tape.slice_cols(u, 0, m_sub);
        let vdot = tape.slice_cols(udot, 0, m_sub);
        let d_a = tape.t_matmul(udot, v);
        let d_b = tape.t_matmul(u, vdot);
        let ddot = tape.add(d_a, d_b);
        let d = tape.t_matmul(u, v);
        let d_flat = tape.reshape(d, 1, model.cfg.descriptor_dim());
        let ddot_flat = tape.reshape(ddot, 1, model.cfg.descriptor_dim());
        let off = mlp_layer_offset(model, None, Some(ti));
        let (_e_atom, edot_atom) = mlp_jvp_tape(
            &mut tape,
            &leaves,
            off,
            &model.fittings[ti],
            d_flat,
            ddot_flat,
        );
        edot_total = Some(match edot_total {
            None => edot_atom,
            Some(p) => tape.add(p, edot_atom),
        });
    }
    // φ = Σ c·F = −Ė.
    let edot = edot_total.expect("empty frame");
    let phi = tape.scale(edot, -1.0);
    let grads = tape.backward(phi);
    gather_param_grads(model, &tape, &grads, &leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dp_data::dataset::Dataset;
    use dp_mdsim::lattice::{rocksalt, Species};
    use dp_tensor::kernel;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn toy_frame(seed: u64) -> Snapshot {
        let mut s = rocksalt(Species::new("A", 20.0), Species::new("B", 30.0), 4.4, [1, 1, 1]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        s.jitter_positions(0.25, &mut rng);
        Snapshot {
            cell: s.cell.lengths(),
            types: s.types.clone(),
            type_names: s.type_names.clone(),
            pos: s.pos.clone(),
            energy: -10.0,
            forces: vec![Vec3::ZERO; s.n_atoms()],
            temperature: 300.0,
        }
    }

    fn toy_model() -> DeepPotModel {
        let mut cfg = ModelConfig::small(2, 2.1);
        cfg.rcut_smooth = 1.2;
        let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
        ds.push(toy_frame(1));
        ds.push(toy_frame(2));
        DeepPotModel::new(cfg, &ds)
    }

    #[test]
    fn tape_energy_matches_manual() {
        let m = toy_model();
        let f = toy_frame(3);
        let manual = m.forward(&f).energy;
        let tape = energy_tape(&m, &f);
        assert!((manual - tape).abs() < 1e-10, "{manual} vs {tape}");
    }

    #[test]
    fn tape_energy_grad_matches_manual() {
        let m = toy_model();
        let f = toy_frame(4);
        let pass = m.forward(&f);
        let manual = m.grad_energy_params(&pass);
        let tape = grad_energy_params_tape(&m, &f);
        assert_eq!(manual.len(), tape.len());
        for (a, b) in manual.iter().zip(&tape) {
            assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn tape_forces_match_manual() {
        let m = toy_model();
        let f = toy_frame(5);
        let manual = m.forces(&m.forward(&f));
        let tape = forces_tape(&m, &f);
        for (a, b) in manual.iter().zip(&tape) {
            assert!((*a - *b).norm() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn tape_force_grad_matches_manual() {
        let m = toy_model();
        let f = toy_frame(6);
        let n = f.types.len();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let coeffs: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let pass = m.forward(&f);
        let manual = m.grad_force_sum_params(&pass, &coeffs);
        let tape = grad_force_sum_params_tape(&m, &f, &coeffs);
        for (i, (a, b)) in manual.iter().zip(&tape).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + a.abs()),
                "param {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn isolated_atom_is_handled_by_both_paths() {
        // One atom far outside everyone's cutoff: its energy is the
        // fitting net's value on a zero descriptor; forces on it vanish.
        let m = toy_model();
        let mut f = toy_frame(8);
        // Blow the frame up so nothing is within the 2.1 Å cutoff.
        f.cell = [40.0, 40.0, 40.0];
        for (i, p) in f.pos.iter_mut().enumerate() {
            *p = Vec3::new(5.0 * i as f64 + 1.0, 1.0, 1.0);
        }
        let manual_e = m.forward(&f).energy;
        let tape_e = energy_tape(&m, &f);
        assert!((manual_e - tape_e).abs() < 1e-10);
        let manual_f = m.forces(&m.forward(&f));
        let tape_f = forces_tape(&m, &f);
        for (a, b) in manual_f.iter().zip(&tape_f) {
            assert!(a.norm() < 1e-12 && b.norm() < 1e-12);
        }
        let grads_m = m.grad_energy_params(&m.forward(&f));
        let grads_t = grad_energy_params_tape(&m, &f);
        for (a, b) in grads_m.iter().zip(&grads_t) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn tape_launches_many_more_kernels_than_manual() {
        let m = toy_model();
        let f = toy_frame(7);
        let (_, manual_n) = kernel::count_region(|| {
            let pass = m.forward(&f);
            let _ = m.forces(&pass);
            let _ = m.grad_energy_params(&pass);
        });
        let (_, tape_n) = kernel::count_region(|| {
            let _ = forces_tape(&m, &f);
            let _ = grad_energy_params_tape(&m, &f);
        });
        assert!(
            tape_n > manual_n,
            "autograd path should launch more kernels: tape {tape_n} vs manual {manual_n}"
        );
    }
}
