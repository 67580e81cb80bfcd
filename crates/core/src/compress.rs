//! Model compression: tabulated embedding networks (DeePMD-kit v3's
//! "model compression" / deepmd-jax `compress=True`).
//!
//! Every embedding net is a function of **one scalar** — the
//! normalized switched-radial input `s̃` — so the deepest per-pair MLP
//! in the serving hot path can be fitted once onto a uniform-knot
//! cubic **Hermite** spline table (value + first derivative per knot)
//! and evaluated with one 4-row weighted combination per neighbour
//! instead of three dense layers and ~3·M `tanh` calls. Knot values
//! and derivatives are
//! taken from the exact network ([`crate::mlp::Mlp::forward_rows`] +
//! [`crate::mlp::Mlp::jvp_rows`] with a unit tangent), so:
//!
//! * the table is **exact at every knot** (the interpolant reproduces
//!   `f` and `f′` there), C¹ everywhere, and O(h⁴) in between;
//! * the force path stays **analytic**: the spline's derivative is the
//!   derivative actually chained into the position sweep, so
//!   compressed forces are exactly −∇ of the compressed energy — the
//!   FD property tests hold for the compressed model just as for the
//!   master.
//!
//! The table domain is `[s̃(r → r_c), s̃(r_min)]` with `r_min` a
//! physical closest-approach bound (deepmd-jax default 0.6 Å). The
//! left edge is `s̃ = 0` exactly — the normalization keeps the radial
//! mean at zero precisely so a neighbour's row vanishes smoothly at
//! the cutoff — and inputs right of the domain (closer than `r_min`)
//! fall back to the exact embedding MLP, so compression never changes
//! the model's domain of validity, only its speed inside the physical
//! range.
//!
//! The interpolation inner loop is a plain FMA-free mul/add chain the
//! compiler auto-vectorizes — at `M = 25` rows, per-neighbour backend
//! dispatch costs more than the combination itself — and its fixed
//! rounding order keeps compressed energies bitwise identical across
//! backends (the elementwise contract of DESIGN §13).

use crate::config::ModelConfig;
use crate::env::{switch, EnvStats};
use crate::env_cache::{EnvCache, FrameEnv};
use crate::frame::Nets;
use crate::mlp::{DualTape, Mlp, Rows, Tape};
use crate::model::{DeepPotModel, ForwardPass, Prediction};
use dp_data::dataset::Snapshot;
use dp_data::stats::EnergyBias;
use dp_mdsim::Vec3;
use dp_tensor::backend;
use dp_tensor::Mat;
use std::sync::Arc;

/// Tabulation knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressSpec {
    /// Uniform bins per table (knots = bins + 1). The deepmd-jax
    /// default; at 1024 bins the Hermite error is O(h⁴) ≈ 1e-10 of the
    /// embedding output scale, far inside the serving accuracy budget.
    pub n_bins: usize,
    /// Closest physical approach (Å) the table must cover. Neighbours
    /// closer than this are evaluated by the exact embedding net.
    pub r_min: f64,
}

impl Default for CompressSpec {
    fn default() -> Self {
        CompressSpec { n_bins: 1024, r_min: 0.6 }
    }
}

/// Measured fit quality of one `(centre type, neighbour type)` table,
/// sampled at every bin midpoint (the worst case for Hermite error)
/// against the exact embedding net.
#[derive(Clone, Copy, Debug)]
pub struct TableFit {
    /// Centre type.
    pub ti: usize,
    /// Neighbour type.
    pub tj: usize,
    /// Max |table − exact| over all midpoints and outputs.
    pub max_value_err: f64,
    /// Max |table′ − exact′| over all midpoints and outputs.
    pub max_deriv_err: f64,
}

/// The per-model fitted-error report carried alongside the tables (and
/// persisted into the `model_io` artifact, so a loaded snapshot keeps
/// its measured accuracy budget).
#[derive(Clone, Debug, Default)]
pub struct CompressReport {
    /// Per-table fit errors, indexed like the tables (`ti·nt + tj`).
    pub tables: Vec<TableFit>,
}

impl CompressReport {
    /// Worst value error across all tables.
    pub fn max_value_err(&self) -> f64 {
        self.tables.iter().fold(0.0, |a, t| a.max(t.max_value_err))
    }

    /// Worst derivative error across all tables.
    pub fn max_deriv_err(&self) -> f64 {
        self.tables.iter().fold(0.0, |a, t| a.max(t.max_deriv_err))
    }
}

/// A uniform-knot cubic Hermite table of one embedding net: per knot,
/// the exact `M`-wide output row and its exact derivative row.
#[derive(Clone, Debug)]
pub struct SplineTable {
    /// Left edge of the domain (`s̃` at the cutoff — always 0 with the
    /// zero-mean radial normalization).
    pub x_lo: f64,
    /// Right edge (`s̃` at `r_min`); inputs beyond it take the exact
    /// MLP fallback.
    pub x_hi: f64,
    /// Knot spacing `(x_hi − x_lo)/n_bins`.
    pub h: f64,
    /// Bin count.
    pub n_bins: usize,
    /// Output width `M`.
    pub m: usize,
    /// Knot values, `(n_bins+1) × M`.
    pub values: Mat,
    /// Knot derivatives `dG/ds̃`, `(n_bins+1) × M`.
    pub derivs: Mat,
}

impl SplineTable {
    /// Tabulate `mlp` (a 1 → M network) on `[x_lo, x_hi]` with
    /// `n_bins` uniform bins. Knot values come from the exact forward
    /// pass, knot derivatives from the exact JVP with a unit tangent.
    pub fn build(mlp: &Mlp, x_lo: f64, x_hi: f64, n_bins: usize) -> Result<SplineTable, String> {
        if mlp.n_in() != 1 {
            return Err(format!("can only tabulate scalar-input nets, got n_in = {}", mlp.n_in()));
        }
        if n_bins < 2 {
            return Err(format!("need at least 2 bins, got {n_bins}"));
        }
        if !(x_hi.is_finite() && x_lo.is_finite() && x_hi > x_lo) {
            return Err(format!("degenerate table domain [{x_lo}, {x_hi}]"));
        }
        let h = (x_hi - x_lo) / n_bins as f64;
        let knots: Vec<f64> = (0..=n_bins).map(|k| x_lo + k as f64 * h).collect();
        let (values, derivs) = values_and_derivs(mlp, &knots);
        Ok(SplineTable { x_lo, x_hi, h, n_bins, m: mlp.n_out(), values, derivs })
    }

    /// Does `x` lie inside the tabulated domain? (Left of `x_lo` is
    /// clamped — it cannot occur for physical inputs, where `s̃ ≥ 0` —
    /// right of `x_hi` must take the exact fallback.)
    #[inline]
    pub fn covers(&self, x: f64) -> bool {
        x <= self.x_hi
    }

    /// Locate `x`: bin index and the local coordinate `t ∈ [0, 1]`.
    #[inline]
    fn locate(&self, x: f64) -> (usize, f64) {
        let u = ((x - self.x_lo) / self.h).max(0.0);
        let idx = (u as usize).min(self.n_bins - 1);
        (idx, u - idx as f64)
    }

    /// Write the interpolated value row `G(x)` into `out` (length `M`).
    /// One FMA-free weighted combination of the four bracketing knot
    /// rows — a fixed mul/add chain per element, so the result is
    /// bitwise identical on every backend (the serving hot loop calls
    /// this once per neighbour; a dispatched-kernel version measured
    /// slower than the work itself at `M = 25`). At `t = 0` the result
    /// is bitwise the knot row itself.
    #[inline]
    pub fn eval_into(&self, x: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.m);
        let (idx, t) = self.locate(x);
        let t2 = t * t;
        let t3 = t2 * t;
        let w0 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let w1 = self.h * (t3 - 2.0 * t2 + t);
        let w2 = 3.0 * t2 - 2.0 * t3;
        let w3 = self.h * (t3 - t2);
        self.combine_into(idx, w0, w1, w2, w3, out);
    }

    /// Write the interpolant's derivative row `dG/ds̃(x)` into `out`.
    /// This is the *exact* derivative of [`SplineTable::eval_into`], so
    /// chaining it through the position sweep keeps compressed forces
    /// equal to −∇ of the compressed energy.
    #[inline]
    pub fn eval_deriv_into(&self, x: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.m);
        let (idx, t) = self.locate(x);
        let t2 = t * t;
        let w0 = (6.0 * t2 - 6.0 * t) / self.h;
        let w1 = 3.0 * t2 - 4.0 * t + 1.0;
        let w2 = (6.0 * t - 6.0 * t2) / self.h;
        let w3 = 3.0 * t2 - 2.0 * t;
        self.combine_into(idx, w0, w1, w2, w3, out);
    }

    /// `out = w0·values[idx] + w1·derivs[idx] + w2·values[idx+1] +
    /// w3·derivs[idx+1]`, accumulated left to right with separate mul
    /// and add (no FMA contraction), matching the elementwise backend
    /// contract — identical bits regardless of DP_BACKEND.
    #[inline]
    fn combine_into(&self, idx: usize, w0: f64, w1: f64, w2: f64, w3: f64, out: &mut [f64]) {
        let v0 = self.values.row(idx);
        let d0 = self.derivs.row(idx);
        let v1 = self.values.row(idx + 1);
        let d1 = self.derivs.row(idx + 1);
        for (k, o) in out.iter_mut().enumerate() {
            *o = ((w0 * v0[k] + w1 * d0[k]) + w2 * v1[k]) + w3 * d1[k];
        }
    }

    /// Measure the fit against the exact net at every bin midpoint.
    pub fn fit_against(&self, mlp: &Mlp) -> (f64, f64) {
        let mids: Vec<f64> = (0..self.n_bins).map(|k| self.x_lo + (k as f64 + 0.5) * self.h).collect();
        let (exact, exact_d) = values_and_derivs(mlp, &mids);
        let mut row = vec![0.0; self.m];
        let mut max_v = 0.0f64;
        let mut max_d = 0.0f64;
        for (k, &x) in mids.iter().enumerate() {
            self.eval_into(x, &mut row);
            for (a, &b) in row.iter().zip(exact.row(k)) {
                max_v = max_v.max((a - b).abs());
            }
            self.eval_deriv_into(x, &mut row);
            for (a, &b) in row.iter().zip(exact_d.row(k)) {
                max_d = max_d.max((a - b).abs());
            }
        }
        (max_v, max_d)
    }
}

/// The table domain for centre type `ti`: `s̃` spans `[s̃(r_c), s̃(r_min)]`
/// under that type's radial normalization (the embedding input is
/// `row[0] = (s − mean)/std`, monotone decreasing in `r`).
pub(crate) fn table_domain(
    cfg: &ModelConfig,
    stats: &EnvStats,
    ti: usize,
    spec: &CompressSpec,
) -> Result<(f64, f64), String> {
    if !(spec.r_min > 0.0 && spec.r_min < cfg.rcut) {
        return Err(format!(
            "compress r_min must be in (0, rcut = {}), got {}",
            cfg.rcut, spec.r_min
        ));
    }
    let inv_std = 1.0 / stats.std_radial[ti];
    let x_lo = (0.0 - stats.mean_radial[ti]) * inv_std;
    let (s_max, _) = switch(spec.r_min, cfg.rcut_smooth, cfg.rcut);
    let x_hi = (s_max - stats.mean_radial[ti]) * inv_std;
    if x_hi <= x_lo {
        return Err(format!("degenerate compress domain [{x_lo}, {x_hi}] for type {ti}"));
    }
    Ok((x_lo, x_hi))
}

/// A scalar-input net and its derivative at every `xs[k]`: one forward
/// sweep over all points and the JVP with a unit tangent, as
/// `(values, derivatives)`, both `xs.len() × n_out`.
fn values_and_derivs(mlp: &Mlp, xs: &[f64]) -> (Mat, Mat) {
    let (be, rows) = (backend::active(), xs.len());
    let mut tape = Tape::default();
    tape.prepare(mlp, rows);
    mlp.forward_rows(be, xs, &mut tape, 0, rows);
    let mut dual = DualTape::default();
    dual.prepare(mlp, rows, 1);
    mlp.jvp_rows(be, &tape, Rows::whole(0, rows, rows), 1, &vec![1.0; rows], &mut dual);
    let as_mat = |v: &[f64]| Mat::from_vec(rows, mlp.n_out(), v.to_vec());
    (as_mat(tape.output()), as_mat(dual.output()))
}

/// Forward pass of a [`CompressedModel`] over one frame: a
/// [`ForwardPass`] (`energy`, `energy_residual`, `frame`, … read
/// through it) whose embedding rows came from the spline tables, kept a
/// distinct type so it cannot be handed to the master's sweeps.
pub struct CompressedPass<'f>(ForwardPass<'f>);

impl<'f> std::ops::Deref for CompressedPass<'f> {
    type Target = ForwardPass<'f>;

    fn deref(&self) -> &ForwardPass<'f> {
        &self.0
    }
}

/// A serving-side compressed model: the master's config, statistics,
/// bias and fitting nets, with every embedding net tabulated (plus the
/// exact nets kept for the `r < r_min` fallback).
#[derive(Clone, Debug)]
pub struct CompressedModel {
    /// Hyper-parameters (identical to the master's, so the compressed
    /// path can share a snapshot's [`EnvCache`]).
    pub cfg: ModelConfig,
    /// Environment statistics (identical to the master's).
    pub stats: EnvStats,
    /// Per-type energy bias.
    pub bias: EnergyBias,
    /// The tabulation knobs this model was built with.
    pub spec: CompressSpec,
    /// One table per `(ti, tj)` pair, indexed `ti·nt + tj`.
    pub tables: Vec<SplineTable>,
    /// The exact embedding nets (fallback for `r < r_min`).
    pub embeddings: Vec<Mlp>,
    /// The master's f64 fitting nets.
    pub fittings: Vec<Mlp>,
    /// Measured per-table fit errors.
    pub report: CompressReport,
}

impl CompressedModel {
    /// Tabulate `model`'s embedding nets under `spec`.
    pub fn compress(model: &DeepPotModel, spec: &CompressSpec) -> Result<CompressedModel, String> {
        let nt = model.cfg.n_types;
        let mut tables = Vec::with_capacity(nt * nt);
        let mut fits = Vec::with_capacity(nt * nt);
        for ti in 0..nt {
            let (x_lo, x_hi) = table_domain(&model.cfg, &model.stats, ti, spec)?;
            for tj in 0..nt {
                let mlp = &model.embeddings[ti * nt + tj];
                let table = SplineTable::build(mlp, x_lo, x_hi, spec.n_bins)?;
                let (max_value_err, max_deriv_err) = table.fit_against(mlp);
                fits.push(TableFit { ti, tj, max_value_err, max_deriv_err });
                tables.push(table);
            }
        }
        Ok(CompressedModel {
            cfg: model.cfg.clone(),
            stats: model.stats.clone(),
            bias: model.bias.clone(),
            spec: *spec,
            tables,
            embeddings: model.embeddings.clone(),
            fittings: model.fittings.clone(),
            report: CompressReport { tables: fits },
        })
    }

    /// Forward pass building the frame geometry fresh.
    pub fn forward<'f>(&self, frame: &'f Snapshot) -> CompressedPass<'f> {
        let env = Arc::new(FrameEnv::build(&self.cfg, &self.stats, frame));
        self.forward_cached(frame, env)
    }

    /// Forward pass against a geometry-hash-keyed cache (the serving
    /// path; the cache can be the snapshot's own, shared with the
    /// master, because config and statistics are identical).
    pub fn forward_keyed<'f>(&self, cache: &EnvCache, frame: &'f Snapshot) -> CompressedPass<'f> {
        let env = cache.get_or_build_keyed(&self.cfg, &self.stats, frame);
        self.forward_cached(frame, env)
    }

    /// The networks as the frame core takes them.
    pub(crate) fn nets(&self) -> Nets<'_> {
        Nets {
            cfg: &self.cfg,
            n_scale: self.stats.n_scale,
            embeddings: &self.embeddings,
            tables: Some(&self.tables),
            fittings: &self.fittings,
        }
    }

    /// Forward pass over a precomputed [`FrameEnv`]: the master's
    /// stages with the embedding rows read off the tables.
    pub fn forward_cached<'f>(
        &self,
        frame: &'f Snapshot,
        frame_env: Arc<FrameEnv>,
    ) -> CompressedPass<'f> {
        CompressedPass(ForwardPass::evaluate(&self.nets(), &self.bias, None, frame, frame_env))
    }

    /// Forces `F = −∇_r E` of the *compressed* energy: the reverse
    /// sweep is the master's, with the embedding backward replaced by
    /// a contraction against the spline derivative rows.
    pub fn forces(&self, pass: &CompressedPass<'_>) -> Vec<Vec3> {
        let mut out = vec![Vec3::ZERO; pass.n_atoms()];
        pass.0.backward_energy(&self.nets(), None, Some(&mut out));
        out
    }

    /// Energy + forces in one call.
    pub fn predict(&self, frame: &Snapshot) -> Prediction {
        let pass = self.forward(frame);
        let forces = self.forces(&pass);
        Prediction { energy: pass.energy, forces }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_data::dataset::Dataset;
    use dp_mdsim::lattice::{rocksalt, Species};
    use rand::SeedableRng;
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
    fn compressed_energy_tracks_the_master_closely() {
        let model = toy_model(7);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        for seed in 3..7 {
            let f = toy_frame(seed);
            let e_master = model.forward(&f).energy;
            let e_comp = comp.forward(&f).energy;
            let per_atom = (e_master - e_comp).abs() / f.types.len() as f64;
            assert!(per_atom < 1e-6, "seed {seed}: ΔE/atom = {per_atom:e}");
        }
    }

    #[test]
    fn compressed_forces_track_the_master_closely() {
        let model = toy_model(8);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        let f = toy_frame(4);
        let fm = model.predict(&f).forces;
        let fc = comp.predict(&f).forces;
        for (a, b) in fm.iter().zip(&fc) {
            for c in 0..3 {
                assert!(
                    (a.0[c] - b.0[c]).abs() < 1e-5,
                    "force mismatch {} vs {}",
                    a.0[c],
                    b.0[c]
                );
            }
        }
    }

    #[test]
    fn compressed_forces_match_finite_difference_of_compressed_energy() {
        // Self-consistency: the spline derivative is the derivative of
        // the spline value, so compressed forces are −∇E_compressed to
        // FD accuracy — independent of how well either tracks the
        // master.
        let model = toy_model(10);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        let frame = toy_frame(5);
        let forces = comp.forces(&comp.forward(&frame));
        let h = 1e-6;
        for (i, force) in forces.iter().enumerate() {
            for a in 0..3 {
                let mut fp = frame.clone();
                fp.pos[i].0[a] += h;
                let mut fm = frame.clone();
                fm.pos[i].0[a] -= h;
                let fd = -(comp.forward(&fp).energy - comp.forward(&fm).energy) / (2.0 * h);
                let an = force.0[a];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "atom {i} comp {a}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn fit_report_is_tight() {
        let model = toy_model(11);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        assert_eq!(comp.report.tables.len(), 4);
        assert!(comp.report.max_value_err() < 1e-4, "{}", comp.report.max_value_err());
        assert!(comp.report.max_deriv_err() < 1e-2, "{}", comp.report.max_deriv_err());
    }

    #[test]
    fn table_is_exact_at_knots() {
        let model = toy_model(12);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        let table = &comp.tables[0];
        let mlp = &comp.embeddings[0];
        let mut row = vec![0.0; table.m];
        for k in [0, 1, table.n_bins / 2, table.n_bins] {
            let x = table.x_lo + k as f64 * table.h;
            table.eval_into(x.min(table.x_hi), &mut row);
            let (exact, _) = values_and_derivs(mlp, &[x.min(table.x_hi)]);
            for (a, &b) in row.iter().zip(exact.row(0)) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "knot {k}: table {a} vs exact {b}"
                );
            }
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        let model = toy_model(13);
        let e = CompressedModel::compress(&model, &CompressSpec { n_bins: 1, r_min: 0.6 });
        assert!(e.is_err());
        let e = CompressedModel::compress(&model, &CompressSpec { n_bins: 64, r_min: 99.0 });
        assert!(e.is_err());
        let e = CompressedModel::compress(&model, &CompressSpec { n_bins: 64, r_min: -1.0 });
        assert!(e.is_err());
    }
}
