//! The assembled Deep Potential model.
//!
//! Pipeline per atom `i` (paper §2.1):
//!
//! ```text
//! R̃ᵢ (nᵢ×4)  ──┐
//!               ├─ U = R̃ᵀG / n_scale (4×M) ─ D = UᵀU^< (M×M^<) ─ fit ─ Eᵢ
//! G (nᵢ×M) ────┘
//! E_tot = Σᵢ Eᵢ + bias,  F = −∇_r E_tot
//! ```
//!
//! All derivative paths are handwritten (paper §3.4 / Opt1) and run on
//! the frame-batched core (`frame.rs`) — one tall GEMM per
//! network per layer per frame, every buffer recycled:
//!
//! * [`DeepPotModel::forces`] — reverse sweep to positions using the
//!   product-rule derivative of the symmetry-preserving operator
//!   (paper Eq. 4),
//! * [`DeepPotModel::grad_energy_params`] — `∇_θ E_tot` for the
//!   Kalman-filter energy update,
//! * [`DeepPotModel::grad_force_sum_params`] — exact
//!   `∇_θ (Σ_k c_k F_k)` via a forward-tangent (JVP) sweep followed by
//!   one reverse sweep over the dual computation. This is what replaces
//!   `create_graph=True` double backprop: forces are directional
//!   derivatives of the energy, so their parameter gradient is the
//!   reverse sweep of a tangent program, not a second-order graph.
//!   [`DeepPotModel::grad_force_sums_params_into`] takes the trainer's
//!   force groups together: they share the forward pass and the
//!   tangent-independent half of the reverse sweep.
//!
//! A [`ForwardPass`] owns a [`Workspace`]. The plain entry points take
//! it from (and, when the pass is dropped, return it to) a per-thread
//! spare, so a serving or evaluation thread re-uses one set of buffers;
//! the `_in` entry points take a caller-owned workspace and
//! [`ForwardPass::into_workspace`] hands it back, which is how the
//! gradient-reduction blocks and the MD domains own theirs.

use crate::config::ModelConfig;
use crate::env::{EnvStats, Envs};
use crate::env_cache::{EnvCache, FrameEnv};
use crate::frame::Nets;
pub use crate::frame::Workspace;
use crate::mlp::{LayerKind, Mlp};
use dp_data::dataset::{Dataset, Snapshot};
use dp_data::stats::EnergyBias;
use dp_mdsim::Vec3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::sync::Arc;

/// Model output for one frame.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Total energy (eV), including the per-type bias.
    pub energy: f64,
    /// Forces (eV/Å).
    pub forces: Vec<Vec3>,
}

/// Parameter gradients in the parameter-vector layout.
#[derive(Clone, Debug)]
pub struct ModelGrads {
    flat: Vec<f64>,
}

impl ModelGrads {
    /// Reset every entry to zero in place, keeping the allocation —
    /// the per-block scratch of the gradient engine is recycled across
    /// samples and iterations.
    pub fn zero(&mut self) {
        self.flat.fill(0.0);
    }
}

impl AsMut<[f64]> for ModelGrads {
    fn as_mut(&mut self) -> &mut [f64] {
        &mut self.flat
    }
}

/// The Deep Potential model.
#[derive(Clone, Debug)]
pub struct DeepPotModel {
    /// Hyper-parameters.
    pub cfg: ModelConfig,
    /// Environment normalization statistics.
    pub stats: EnvStats,
    /// Per-type energy bias removed before fitting.
    pub bias: EnergyBias,
    /// Embedding nets, one per (centre type, neighbour type) pair,
    /// indexed `ti * n_types + tj`.
    pub embeddings: Vec<Mlp>,
    /// Fitting nets, one per centre type.
    pub fittings: Vec<Mlp>,
}

thread_local! {
    /// The workspace the plain (non-`_in`) entry points recycle on this
    /// thread: a forward pass takes it, dropping the pass returns it.
    static SPARE: Cell<Option<Box<Workspace>>> = const { Cell::new(None) };
}

/// Take this thread's spare workspace (a fresh one if there is none).
pub(crate) fn take_spare_workspace() -> Box<Workspace> {
    SPARE.with(Cell::take).unwrap_or_default()
}

/// Make `ws` this thread's spare workspace.
pub(crate) fn return_spare_workspace(ws: Box<Workspace>) {
    // Fails only while the thread's locals are being torn down; the
    // workspace is then simply freed.
    let _ = SPARE.try_with(|spare| spare.set(Some(ws)));
}

/// Forward pass over a frame: the energy, plus the forward state the
/// derivative sweeps read.
///
/// Borrows the frame (no per-forward `Snapshot` deep copy) and shares
/// the frame geometry via `Arc` — a cache hit makes the whole
/// weight-independent part of the forward free.
pub struct ForwardPass<'f> {
    /// The frame the pass was computed from.
    pub frame: &'f Snapshot,
    /// Per-atom environments (owned fresh build or cached entry).
    env: Arc<FrameEnv>,
    /// `None` only after [`ForwardPass::into_workspace`].
    ws: Option<Box<Workspace>>,
    /// Network output before adding the bias back.
    pub energy_residual: f64,
    /// Total predicted energy (bias added).
    pub energy: f64,
}

impl<'f> ForwardPass<'f> {
    /// Run `nets` forward over `frame` in `ws` (the thread's spare
    /// workspace when `None`). The single forward worker every public
    /// entry point of every model tier funnels into: they differ
    /// **only** in where the [`FrameEnv`], the workspace and the
    /// embedding rows come from, so for the same geometry they are
    /// bitwise-equal. Keep it that way: any numeric change belongs in
    /// the core, never in a wrapper.
    pub(crate) fn evaluate(
        nets: &Nets<'_>,
        bias: &EnergyBias,
        ws: Option<Box<Workspace>>,
        frame: &'f Snapshot,
        env: Arc<FrameEnv>,
    ) -> Self {
        debug_assert_eq!(
            env.geom_hash,
            crate::env_cache::geometry_hash(frame),
            "evaluate: env does not match the frame geometry"
        );
        let mut ws = ws.unwrap_or_else(take_spare_workspace);
        let energy_residual = nets.forward(&frame.types, &env.envs, None, &mut ws.state);
        let energy = energy_residual + bias.reference_energy(&frame.types);
        ForwardPass { frame, env, ws: Some(ws), energy_residual, energy }
    }

    /// The reverse energy sweep of `nets` over this pass.
    pub(crate) fn backward_energy(
        &self,
        nets: &Nets<'_>,
        grads: Option<&mut [f64]>,
        forces: Option<&mut [Vec3]>,
    ) {
        nets.backward_energy(self.ws(), &self.env.envs, grads, forces);
    }

    fn ws(&self) -> &Workspace {
        self.ws.as_deref().expect("the pass owns its workspace until consumed")
    }

    /// Number of atoms in the frame.
    pub fn n_atoms(&self) -> usize {
        self.ws().state.n_atoms()
    }

    /// The frame geometry this pass was computed against.
    pub fn frame_env(&self) -> &FrameEnv {
        &self.env
    }

    /// Per-atom energy residual (fitting-network output before the
    /// type bias), in frame order. Summing these in ascending atom
    /// order reproduces `energy_residual` bitwise — the hook the
    /// domain-decomposed engine uses to reduce per-domain energies in
    /// fixed global index order (DESIGN §15).
    pub fn atom_energy_residual(&self, i: usize) -> f64 {
        self.ws().state.atom_energy(i)
    }

    /// Consume the pass and hand its workspace back for the next frame.
    pub fn into_workspace(mut self) -> Box<Workspace> {
        self.ws.take().expect("the pass owns its workspace until consumed")
    }
}

impl Drop for ForwardPass<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            return_spare_workspace(ws);
        }
    }
}

impl DeepPotModel {
    /// Initialize a model from a training dataset: computes environment
    /// statistics and the energy bias, then draws weights.
    pub fn new(cfg: ModelConfig, train: &Dataset) -> Self {
        cfg.validate();
        assert_eq!(
            cfg.n_types,
            train.n_types(),
            "config n_types must match the dataset"
        );
        let stats = EnvStats::compute(&cfg, train, 32);
        let bias = EnergyBias::fit(train);
        Self::with_stats(cfg, stats, bias)
    }

    /// Initialize with explicit statistics (tests / deserialization).
    pub fn with_stats(cfg: ModelConfig, stats: EnvStats, bias: EnergyBias) -> Self {
        cfg.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let nt = cfg.n_types;
        let [w0, w1, w2] = cfg.embedding_widths;
        let emb_spec = [
            (1, w0, LayerKind::Tanh),
            (
                w0,
                w1,
                if w0 == w1 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
            (
                w1,
                w2,
                if w1 == w2 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
        ];
        let [f0, f1, f2] = cfg.fitting_widths;
        let fit_spec = [
            (cfg.descriptor_dim(), f0, LayerKind::Tanh),
            (
                f0,
                f1,
                if f0 == f1 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
            (
                f1,
                f2,
                if f1 == f2 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
            (f2, 1, LayerKind::Linear),
        ];
        let embeddings = (0..nt * nt).map(|_| Mlp::init(&emb_spec, &mut rng)).collect();
        let mut fittings: Vec<Mlp> = (0..nt).map(|_| Mlp::init(&fit_spec, &mut rng)).collect();
        // Small-init the scalar output layer: per-atom residuals start
        // near zero, so the initial prediction is the fitted energy bias
        // instead of an O(n_atoms)-eV random offset.
        for fit in &mut fittings {
            let last = fit.layers.last_mut().unwrap();
            let scaled = last.w.scale(0.1);
            last.w = scaled;
        }
        DeepPotModel { cfg, stats, bias, embeddings, fittings }
    }

    // ---- parameter vector plumbing -----------------------------------

    fn mlps(&self) -> impl Iterator<Item = &Mlp> {
        self.embeddings.iter().chain(self.fittings.iter())
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.mlps().map(Mlp::n_params).sum()
    }

    /// Per-layer segment sizes in flattening order — the "layers" the
    /// RLEKF block splitting strategy gathers and splits.
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.mlps()
            .flat_map(|m| m.layers.iter().map(|l| l.n_params()))
            .collect()
    }

    /// Flatten all parameters (layer order: W row-major, then b).
    pub fn get_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_params());
        self.params_into(&mut out);
        out
    }

    /// [`DeepPotModel::get_params`] into `out`, replacing its contents:
    /// allocation-free once `out` has held this model's parameters.
    pub fn params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for mlp in self.mlps() {
            for l in &mlp.layers {
                out.extend_from_slice(l.w.as_slice());
                out.extend_from_slice(l.b.as_slice());
            }
        }
    }

    /// Whether every parameter is finite, checked in place (no copy).
    pub fn params_finite(&self) -> bool {
        self.mlps()
            .flat_map(|m| &m.layers)
            .all(|l| l.w.as_slice().iter().chain(l.b.as_slice()).all(|v| v.is_finite()))
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != n_params()`.
    pub fn set_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.n_params(), "set_params: length mismatch");
        let mut off = 0;
        for mlp in self.embeddings.iter_mut().chain(self.fittings.iter_mut()) {
            for l in &mut mlp.layers {
                let wlen = l.w.len();
                l.w.as_mut_slice().copy_from_slice(&flat[off..off + wlen]);
                off += wlen;
                let blen = l.b.len();
                l.b.as_mut_slice().copy_from_slice(&flat[off..off + blen]);
                off += blen;
            }
        }
    }

    /// Add `delta` to the parameter vector (the optimizer update).
    pub fn apply_update(&mut self, delta: &[f64]) {
        assert_eq!(delta.len(), self.n_params(), "apply_update: length mismatch");
        let mut off = 0;
        for mlp in self.embeddings.iter_mut().chain(self.fittings.iter_mut()) {
            for l in &mut mlp.layers {
                for v in l.w.as_mut_slice() {
                    *v += delta[off];
                    off += 1;
                }
                for v in l.b.as_mut_slice() {
                    *v += delta[off];
                    off += 1;
                }
            }
        }
    }

    /// Zeroed gradient buffer in the parameter-vector layout.
    pub fn zero_grads(&self) -> ModelGrads {
        ModelGrads { flat: vec![0.0; self.n_params()] }
    }

    /// Flatten gradients in the parameter-vector order.
    pub fn flatten_grads(&self, grads: &ModelGrads) -> Vec<f64> {
        grads.flat.clone()
    }

    /// `out += scale · flatten(grads)` without allocating — the
    /// accumulation step of the frame-parallel gradient reduction.
    ///
    /// # Panics
    /// Panics if `out.len() != n_params()`.
    pub fn add_flattened_scaled(&self, grads: &ModelGrads, scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_params(), "add_flattened_scaled: length mismatch");
        for (o, &v) in out.iter_mut().zip(&grads.flat) {
            *o += scale * v;
        }
    }

    // ---- forward ------------------------------------------------------

    /// The networks as the frame core takes them.
    fn nets(&self) -> Nets<'_> {
        Nets {
            cfg: &self.cfg,
            n_scale: self.stats.n_scale,
            embeddings: &self.embeddings,
            tables: None,
            fittings: &self.fittings,
        }
    }

    /// Forward pass: energy + the forward state for the derivative
    /// sweeps. Builds the frame geometry fresh;
    /// [`DeepPotModel::forward_with_cache`] skips the rebuild when a
    /// valid cached entry exists.
    pub fn forward<'f>(&self, frame: &'f Snapshot) -> ForwardPass<'f> {
        let env = Arc::new(FrameEnv::build(&self.cfg, &self.stats, frame));
        self.forward_cached(frame, env)
    }

    /// Forward pass against a cache: one geometry build per frame per
    /// dataset lifetime (steady-state hit rate 1.0).
    pub fn forward_with_cache<'f>(
        &self,
        cache: &EnvCache,
        idx: usize,
        frame: &'f Snapshot,
    ) -> ForwardPass<'f> {
        let env = cache.get_or_build(&self.cfg, &self.stats, idx, frame);
        self.forward_cached(frame, env)
    }

    /// [`DeepPotModel::forward_with_cache`] into a caller-owned
    /// workspace; get it back with [`ForwardPass::into_workspace`].
    pub fn forward_with_cache_in<'f>(
        &self,
        ws: Box<Workspace>,
        cache: &EnvCache,
        idx: usize,
        frame: &'f Snapshot,
    ) -> ForwardPass<'f> {
        let env = cache.get_or_build(&self.cfg, &self.stats, idx, frame);
        ForwardPass::evaluate(&self.nets(), &self.bias, Some(ws), frame, env)
    }

    /// Forward pass for a streamed frame with no stable dataset index
    /// (the serving path): the environment is looked up direct-mapped
    /// by geometry hash, so an MD client re-evaluating the same
    /// configuration — or retrying it against a hot-swapped model with
    /// identical statistics — reuses the geometry build. Bitwise
    /// identical to [`DeepPotModel::forward`] (the cache only ever
    /// serves a hash-verified entry built by the same `build_envs`).
    pub fn forward_keyed<'f>(&self, cache: &EnvCache, frame: &'f Snapshot) -> ForwardPass<'f> {
        let env = cache.get_or_build_keyed(&self.cfg, &self.stats, frame);
        self.forward_cached(frame, env)
    }

    /// Forward pass over a precomputed [`FrameEnv`]. The env must have
    /// been built from this `frame` with this model's config/stats —
    /// [`EnvCache::get_or_build`] guarantees that via the geometry hash.
    pub fn forward_cached<'f>(&self, frame: &'f Snapshot, frame_env: Arc<FrameEnv>) -> ForwardPass<'f> {
        ForwardPass::evaluate(&self.nets(), &self.bias, None, frame, frame_env)
    }

    /// Energy + forces in one call.
    pub fn predict(&self, frame: &Snapshot) -> Prediction {
        let pass = self.forward(frame);
        let forces = self.forces(&pass);
        Prediction { energy: pass.energy, forces }
    }

    /// Per-atom energy residuals and forces of the atoms flagged in
    /// `centres`, on borrowed geometry — the MD-domain entry point,
    /// where the sub-frame holds ghosts that only serve as neighbours.
    /// `envs` need entries for the centres only. For a centre `i`,
    /// `energy[i]` is bitwise [`ForwardPass::atom_energy_residual`] of
    /// a whole-frame pass; `forces[j]` sums, in ascending centre order,
    /// what the evaluated centres contribute to atom `j`.
    pub fn eval_centres(
        &self,
        ws: &mut Workspace,
        types: &[usize],
        envs: &Envs,
        centres: &[bool],
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        let nets = self.nets();
        nets.forward(types, envs, Some(centres), &mut ws.state);
        for (i, e) in energy.iter_mut().enumerate() {
            *e = ws.state.atom_energy(i);
        }
        nets.backward_energy(ws, envs, None, Some(forces));
    }

    // ---- reverse sweep (forces and ∇θ E) -------------------------------

    /// Forces `F = −∇_r E_tot` from a forward pass (handwritten Opt1
    /// kernels).
    pub fn forces(&self, pass: &ForwardPass<'_>) -> Vec<Vec3> {
        let mut out = vec![Vec3::ZERO; pass.n_atoms()];
        self.forces_into(pass, &mut out);
        out
    }

    /// [`DeepPotModel::forces`] into a caller-owned buffer of
    /// `n_atoms` entries.
    pub fn forces_into(&self, pass: &ForwardPass<'_>, out: &mut [Vec3]) {
        pass.backward_energy(&self.nets(), None, Some(out));
    }

    /// `∇_θ E_tot` as a flat vector (the Kalman-filter energy update
    /// gradient; `h = E_tot` in Algorithm 1).
    pub fn grad_energy_params(&self, pass: &ForwardPass<'_>) -> Vec<f64> {
        let mut grads = self.zero_grads();
        self.backward_energy_params(pass, &mut grads);
        grads.flat
    }

    /// Accumulate `∇_θ E_tot` into a caller-owned (zeroed or partially
    /// summed) gradient buffer — the allocation-free form used by the
    /// frame-parallel gradient engine.
    pub fn backward_energy_params(&self, pass: &ForwardPass<'_>, grads: &mut ModelGrads) {
        pass.backward_energy(&self.nets(), Some(&mut grads.flat), None);
    }

    // ---- dual sweep (∇θ of force contractions) -------------------------

    /// Exact `∇_θ (Σ_k c_k · F_k)` where `coeffs` is the flattened
    /// per-component contraction vector (length `3 · n_atoms`).
    ///
    /// Used by the Kalman-filter force updates (`c = ±1` over a force
    /// group) and the Adam force-loss gradient (`c = 2(F̂ − F)/3N`).
    pub fn grad_force_sum_params(&self, pass: &ForwardPass<'_>, coeffs: &[f64]) -> Vec<f64> {
        let mut grads = self.zero_grads();
        self.grad_force_sum_params_into(pass, coeffs, &mut grads);
        grads.flat
    }

    /// Accumulating form of [`DeepPotModel::grad_force_sum_params`]:
    /// adds `∇_θ (Σ_k c_k F_k)` into a caller-owned gradient buffer.
    pub fn grad_force_sum_params_into(
        &self,
        pass: &ForwardPass<'_>,
        coeffs: &[f64],
        grads: &mut ModelGrads,
    ) {
        self.grad_force_sums_params_into(pass, coeffs, std::slice::from_mut(grads));
    }

    /// [`DeepPotModel::grad_force_sum_params_into`] for `grads.len()`
    /// contraction vectors at once: `coeffs` holds them back to back
    /// (`3 · n_atoms` each) and vector `t`'s gradient is added into
    /// `grads[t]`. Bitwise the same as one single-vector call per
    /// tangent; cheaper, because the tangents share the forward state
    /// and the tangent-independent half of the reverse sweep.
    pub fn grad_force_sums_params_into(
        &self,
        pass: &ForwardPass<'_>,
        coeffs: &[f64],
        grads: &mut [ModelGrads],
    ) {
        self.nets().grad_force_sums(pass.ws(), &pass.env.envs, coeffs, grads);
    }

    /// Directly evaluate `Σ_k c_k · F_k` via the tangent sweep alone
    /// (cheaper than assembling all forces; used for validation).
    pub fn force_contraction(&self, pass: &ForwardPass<'_>, coeffs: &[f64]) -> f64 {
        let forces = self.forces(pass);
        forces
            .iter()
            .enumerate()
            .map(|(k, f)| {
                f.0[0] * coeffs[3 * k] + f.0[1] * coeffs[3 * k + 1] + f.0[2] * coeffs[3 * k + 2]
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mdsim::lattice::{rocksalt, Species};
    use rand::Rng;

    /// A small two-type frame with irregular geometry.
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

    fn toy_model(seed: u64) -> DeepPotModel {
        let mut cfg = ModelConfig::small(2, 2.1);
        cfg.rcut_smooth = 1.2;
        cfg.seed = seed;
        let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
        ds.push(toy_frame(1));
        ds.push(toy_frame(2));
        DeepPotModel::new(cfg, &ds)
    }

    #[test]
    fn forward_is_finite_and_deterministic() {
        let model = toy_model(7);
        let f = toy_frame(3);
        let p1 = model.forward(&f);
        let p2 = model.forward(&f);
        assert!(p1.energy.is_finite());
        assert_eq!(p1.energy, p2.energy);
    }

    #[test]
    fn params_roundtrip() {
        let mut model = toy_model(8);
        let p = model.get_params();
        assert_eq!(p.len(), model.n_params());
        let mut p2 = p.clone();
        for v in &mut p2 {
            *v += 0.01;
        }
        model.set_params(&p2);
        assert_eq!(model.get_params(), p2);
        let delta: Vec<f64> = p.iter().zip(&p2).map(|(a, b)| a - b).collect();
        model.apply_update(&delta);
        let back = model.get_params();
        for (a, b) in back.iter().zip(&p) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn layer_sizes_sum_to_param_count() {
        let model = toy_model(9);
        assert_eq!(model.layer_sizes().iter().sum::<usize>(), model.n_params());
        // 2 types: 4 embedding nets × 3 layers + 2 fitting nets × 4 layers.
        assert_eq!(model.layer_sizes().len(), 4 * 3 + 2 * 4);
    }

    #[test]
    fn forces_match_finite_difference_of_energy() {
        let model = toy_model(10);
        let frame = toy_frame(4);
        let pass = model.forward(&frame);
        let forces = model.forces(&pass);
        let h = 1e-6;
        for (i, force) in forces.iter().enumerate() {
            for a in 0..3 {
                let mut fp = frame.clone();
                fp.pos[i].0[a] += h;
                let mut fm = frame.clone();
                fm.pos[i].0[a] -= h;
                let fd = -(model.forward(&fp).energy - model.forward(&fm).energy) / (2.0 * h);
                let an = force.0[a];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "atom {i} comp {a}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn energy_param_gradient_matches_finite_difference() {
        let model = toy_model(11);
        let frame = toy_frame(5);
        let pass = model.forward(&frame);
        let grad = model.grad_energy_params(&pass);
        let h = 1e-6;
        let p0 = model.get_params();
        // Probe a spread of parameters.
        let stride = (p0.len() / 60).max(1);
        for e in (0..p0.len()).step_by(stride) {
            let eval = |delta: f64| {
                let mut m = model.clone();
                let mut p = p0.clone();
                p[e] += delta;
                m.set_params(&p);
                m.forward(&frame).energy
            };
            let fd = (eval(h) - eval(-h)) / (2.0 * h);
            assert!(
                (fd - grad[e]).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {e}: fd {fd} vs {}",
                grad[e]
            );
        }
    }

    #[test]
    fn force_sum_param_gradient_matches_finite_difference() {
        let model = toy_model(12);
        let frame = toy_frame(6);
        let n = frame.types.len();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let coeffs: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let pass = model.forward(&frame);
        let grad = model.grad_force_sum_params(&pass, &coeffs);
        let h = 1e-6;
        let p0 = model.get_params();
        let stride = (p0.len() / 50).max(1);
        for e in (0..p0.len()).step_by(stride) {
            let eval = |delta: f64| {
                let mut m = model.clone();
                let mut p = p0.clone();
                p[e] += delta;
                m.set_params(&p);
                let pass = m.forward(&frame);
                m.force_contraction(&pass, &coeffs)
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
    fn translation_invariance() {
        let model = toy_model(13);
        let frame = toy_frame(7);
        let e0 = model.forward(&frame).energy;
        let mut shifted = frame.clone();
        for p in &mut shifted.pos {
            *p += Vec3::new(1.37, -0.6, 2.05);
        }
        let e1 = model.forward(&shifted).energy;
        assert!((e0 - e1).abs() < 1e-9, "translation changed energy: {e0} vs {e1}");
    }

    #[test]
    fn rotation_equivariance_under_axis_permutation() {
        // Cubic cell: cyclic permutation of the axes is a rigid rotation
        // the cell maps onto itself. Energy must be invariant and forces
        // must co-rotate.
        let model = toy_model(14);
        let frame = toy_frame(8);
        let p0 = model.predict(&frame);
        let mut rot = frame.clone();
        for p in &mut rot.pos {
            *p = Vec3::new(p.y(), p.z(), p.x());
        }
        let p1 = model.predict(&rot);
        assert!((p0.energy - p1.energy).abs() < 1e-9);
        for (f0, f1) in p0.forces.iter().zip(&p1.forces) {
            let expect = Vec3::new(f0.y(), f0.z(), f0.x());
            assert!((*f1 - expect).norm() < 1e-9);
        }
    }

    #[test]
    fn permutation_invariance() {
        let model = toy_model(15);
        let frame = toy_frame(9);
        let e0 = model.forward(&frame).energy;
        let f0 = model.forces(&model.forward(&frame));
        // Swap two atoms of the same type.
        let same_type: Vec<usize> = (0..frame.types.len())
            .filter(|&i| frame.types[i] == frame.types[0])
            .collect();
        assert!(same_type.len() >= 2);
        let (a, b) = (same_type[0], same_type[1]);
        let mut perm = frame.clone();
        perm.pos.swap(a, b);
        let e1 = model.forward(&perm).energy;
        let f1 = model.forces(&model.forward(&perm));
        assert!((e0 - e1).abs() < 1e-9, "permutation changed energy");
        assert!((f0[a] - f1[b]).norm() < 1e-9);
        assert!((f0[b] - f1[a]).norm() < 1e-9);
    }

    #[test]
    fn newtons_third_law_total_force_is_zero() {
        let model = toy_model(16);
        let frame = toy_frame(10);
        let forces = model.forces(&model.forward(&frame));
        let total = forces.iter().fold(Vec3::ZERO, |acc, f| acc + *f);
        assert!(total.norm() < 1e-10, "net force {total:?} must vanish");
    }
}
