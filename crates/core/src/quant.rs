//! NNUE-style integer quantization of the fitting net for
//! energy-only serving.
//!
//! The serving degraded lane and bulk energy-only traffic don't need
//! f64 fitting-net precision: an `i16`-weight / `i16`-activation net
//! with `i32` accumulation (the Stockfish-NNUE recipe — frostburn's
//! `quantize.py` is the exemplar in the related set) evaluates the
//! same three dense layers in a quarter of the memory traffic, with
//! only the nonlinearity left in f64. The scheme per layer:
//!
//! * **weights** `w_q = round(w · s_w)` with `s_w = 2047 / max|w|`,
//!   stored `i16`;
//! * **activations** `a_q = clamp(round(a · s_in), ±1023)`, stored in
//!   `i32` lanes for the accumulate;
//! * **accumulate** in `i32`: with `n_in ≤ 512` inputs the worst-case
//!   magnitude is `512 · 1023 · 2047 ≈ 1.07e9 < 2³¹` — overflow is
//!   impossible by construction (asserted at quantize time);
//! * **dequantize** `z = acc / (s_in · s_w)`, then the activation
//!   (`tanh`, plus the residual input for [`LayerKind::TanhResidual`])
//!   runs in f64 and is re-quantized for the next layer.
//!
//! Activation scales are static, not per-input: after a `tanh` the
//! layer output is bounded by 1 (plus 1 per residual hop), and the
//! descriptor input is bounded by calibration over training frames
//! (with 5% headroom — clamping covers mild extrapolation). That makes
//! the forward pass branch-free and deterministic.
//!
//! A [`QuantizedModel`] serves **energy only** — the quantization grid
//! is far too coarse for clean derivatives, so the force path refuses
//! to exist rather than produce plausible-looking garbage. Forces at
//! reduced precision are the compressed (tabulated) model's job.

use crate::compress::{CompressedModel, SplineTable};
use crate::config::ModelConfig;
use crate::env::EnvStats;
use crate::env_cache::{EnvCache, FrameEnv};
use crate::frame::{Nets, Workspace};
use crate::mlp::{LayerKind, Mlp};
use dp_data::dataset::Snapshot;
use dp_data::stats::EnergyBias;
use std::sync::Arc;

/// Max quantized activation magnitude (10 bits + sign).
pub const ACT_MAX: i32 = 1023;
/// Max quantized weight magnitude (11 bits + sign).
pub const W_MAX: f64 = 2047.0;
/// Accumulator-headroom bound: `MAX_QUANT_IN · ACT_MAX · W_MAX < 2³¹`.
pub const MAX_QUANT_IN: usize = 512;

/// One integer-quantized dense layer.
#[derive(Clone, Debug)]
pub struct QuantLayer {
    /// Activation kind (applied in f64 after dequantization).
    pub kind: LayerKind,
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Quantized weights, `n_in × n_out` row-major, `|w| ≤ 2047`.
    pub w: Vec<i16>,
    /// Bias pre-scaled onto the accumulator grid: `round(b · s_in · s_w)`.
    pub b: Vec<i32>,
    /// Input activation scale (f64 → integer grid).
    pub s_in: f64,
    /// Weight scale.
    pub s_w: f64,
}

/// An integer-quantized MLP (the fitting net shape: Tanh,
/// TanhResidual…, Linear last).
#[derive(Clone, Debug)]
pub struct QuantMlp {
    /// The layers, input to output.
    pub layers: Vec<QuantLayer>,
}

impl QuantMlp {
    /// Quantize `mlp` given a bound on the magnitude of its input
    /// activations. Activation bounds are propagated statically:
    /// `tanh` output is bounded by 1, a residual hop adds the input
    /// bound on top.
    pub fn quantize(mlp: &Mlp, input_bound: f64) -> Result<QuantMlp, String> {
        if !(input_bound.is_finite() && input_bound > 0.0) {
            return Err(format!("quantize: bad input bound {input_bound}"));
        }
        let mut bound = input_bound;
        let n_layers = mlp.layers.len();
        let mut layers = Vec::with_capacity(n_layers);
        for (li, layer) in mlp.layers.iter().enumerate() {
            let n_in = layer.w.rows();
            let n_out = layer.w.cols();
            if n_in > MAX_QUANT_IN {
                return Err(format!(
                    "quantize: layer {li} has {n_in} inputs > {MAX_QUANT_IN} (i32 accumulator headroom)"
                ));
            }
            if layer.kind == LayerKind::Linear && li + 1 != n_layers {
                return Err(format!("quantize: interior Linear layer {li} unsupported"));
            }
            let s_in = ACT_MAX as f64 / bound;
            let max_w = layer
                .w
                .as_slice()
                .iter()
                .fold(0.0f64, |a, &v| a.max(v.abs()))
                .max(1e-12);
            let s_w = W_MAX / max_w;
            let w = layer
                .w
                .as_slice()
                .iter()
                .map(|&v| (v * s_w).round() as i16)
                .collect();
            let mut b = Vec::with_capacity(n_out);
            for &v in layer.b.as_slice() {
                let q = (v * s_in * s_w).round();
                if q.abs() >= i32::MAX as f64 {
                    return Err(format!("quantize: layer {li} bias overflows the i32 grid"));
                }
                b.push(q as i32);
            }
            layers.push(QuantLayer { kind: layer.kind, n_in, n_out, w, b, s_in, s_w });
            bound = match layer.kind {
                LayerKind::Tanh => 1.0,
                LayerKind::TanhResidual => bound + 1.0,
                LayerKind::Linear => bound, // final layer; value unused
            };
        }
        Ok(QuantMlp { layers })
    }

    /// Evaluate one input row. `scratch` must hold at least the widest
    /// layer width and is reused across calls (zero-alloc steady state).
    pub fn eval_into(&self, x: &[f64], scratch: &mut QuantScratch) -> f64 {
        scratch.cur.clear();
        scratch.cur.extend_from_slice(x);
        let mut out = 0.0;
        for layer in &self.layers {
            debug_assert_eq!(scratch.cur.len(), layer.n_in);
            // Quantize the input activations onto the integer grid.
            scratch.q.clear();
            scratch.q.extend(scratch.cur.iter().map(|&v| {
                ((v * layer.s_in).round() as i32).clamp(-ACT_MAX, ACT_MAX)
            }));
            let inv_scale = 1.0 / (layer.s_in * layer.s_w);
            // NNUE-style accumulator update: seed with the biases, then
            // rank-1-accumulate one contiguous weight row per nonzero
            // input lane. Row-major access over `i16` rows keeps the
            // inner loop vectorizable (overflow-free by the headroom
            // bound); the column-at-a-time layout would stride by
            // `n_out` and defeat it.
            scratch.acc.clear();
            scratch.acc.extend_from_slice(&layer.b);
            for (i, &qi) in scratch.q.iter().enumerate() {
                if qi == 0 {
                    continue;
                }
                let row = &layer.w[i * layer.n_out..(i + 1) * layer.n_out];
                for (a, &w) in scratch.acc.iter_mut().zip(row) {
                    *a += qi * w as i32;
                }
            }
            scratch.next.clear();
            for (j, &acc) in scratch.acc.iter().enumerate() {
                let z = acc as f64 * inv_scale;
                let v = match layer.kind {
                    LayerKind::Linear => z,
                    LayerKind::Tanh => z.tanh(),
                    LayerKind::TanhResidual => scratch.cur[j] + z.tanh(),
                };
                scratch.next.push(v);
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        if let Some(&v) = scratch.cur.first() {
            out = v;
        }
        out
    }
}

/// Reusable evaluation scratch for [`QuantMlp::eval_into`].
#[derive(Clone, Debug, Default)]
pub struct QuantScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
    q: Vec<i32>,
    acc: Vec<i32>,
}

/// An energy-only quantized serving snapshot: tabulated embeddings
/// (shared construction with [`CompressedModel`]) feeding
/// `i16`-quantized fitting nets.
#[derive(Clone, Debug)]
pub struct QuantizedModel {
    /// Hyper-parameters (identical to the master's).
    pub cfg: ModelConfig,
    /// Environment statistics (identical to the master's).
    pub stats: EnvStats,
    /// Per-type energy bias.
    pub bias: EnergyBias,
    /// Tabulated embedding nets (own copy, indexed `ti·nt + tj`).
    pub tables: Vec<SplineTable>,
    /// Exact embedding nets for the `r < r_min` fallback.
    pub embeddings: Vec<Mlp>,
    /// Quantized fitting nets, one per centre type.
    pub qfittings: Vec<QuantMlp>,
    /// The calibrated descriptor-magnitude bound the layer-0 scale was
    /// derived from (with headroom applied).
    pub input_bound: f64,
}

impl QuantizedModel {
    /// Quantize `model`'s fitting nets, calibrating the descriptor
    /// input scale over `calib` frames (typically a slice of the
    /// training set). At least one frame is required.
    pub fn quantize(model: &CompressedModel, calib: &[Snapshot]) -> Result<QuantizedModel, String> {
        if calib.is_empty() {
            return Err("quantize: need at least one calibration frame".into());
        }
        let mut max_d = 0.0f64;
        let mut ws = Workspace::default();
        for frame in calib {
            let fe = FrameEnv::build(&model.cfg, &model.stats, frame);
            model.nets().descriptors(&frame.types, &fe.envs, None, &mut ws.state);
            for &v in ws.state.descriptors() {
                if !v.is_finite() {
                    return Err("quantize: non-finite descriptor in calibration".into());
                }
                max_d = max_d.max(v.abs());
            }
        }
        // 5% headroom over the calibrated range; harder extrapolation
        // saturates at the clamp, which degrades smoothly.
        let input_bound = (max_d * 1.05).max(1e-6);
        let qfittings = model
            .fittings
            .iter()
            .map(|f| QuantMlp::quantize(f, input_bound))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QuantizedModel {
            cfg: model.cfg.clone(),
            stats: model.stats.clone(),
            bias: model.bias.clone(),
            tables: model.tables.clone(),
            embeddings: model.embeddings.clone(),
            qfittings,
            input_bound,
        })
    }

    /// Total energy, building the frame geometry fresh.
    pub fn energy(&self, frame: &Snapshot) -> f64 {
        let env = Arc::new(FrameEnv::build(&self.cfg, &self.stats, frame));
        self.energy_cached(frame, env)
    }

    /// Total energy against a geometry-hash-keyed cache (the serving
    /// path — sharable with the master/compressed snapshot, the
    /// config and statistics being identical).
    pub fn energy_keyed(&self, cache: &EnvCache, frame: &Snapshot) -> f64 {
        let env = cache.get_or_build_keyed(&self.cfg, &self.stats, frame);
        self.energy_cached(frame, env)
    }

    /// Total energy over a precomputed [`FrameEnv`].
    pub fn energy_cached(&self, frame: &Snapshot, frame_env: Arc<FrameEnv>) -> f64 {
        debug_assert_eq!(
            frame_env.geom_hash,
            crate::env_cache::geometry_hash(frame),
            "energy_cached: env does not match the frame geometry"
        );
        let nets = Nets {
            cfg: &self.cfg,
            n_scale: self.stats.n_scale,
            embeddings: &self.embeddings,
            tables: Some(&self.tables),
            fittings: &[],
        };
        let mut ws = crate::model::take_spare_workspace();
        nets.descriptors(&frame.types, &frame_env.envs, None, &mut ws.state);
        let mut scratch = QuantScratch::default();
        let mut residual = 0.0;
        for (i, &ti) in frame.types.iter().enumerate() {
            residual += self.qfittings[ti].eval_into(ws.state.descriptor(i), &mut scratch);
        }
        crate::model::return_spare_workspace(ws);
        residual + self.bias.reference_energy(&frame.types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressSpec;
    use crate::model::DeepPotModel;
    use dp_data::dataset::Dataset;
    use dp_mdsim::lattice::{rocksalt, Species};
    use dp_mdsim::Vec3;
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

    fn toy_quantized(seed: u64) -> (DeepPotModel, QuantizedModel) {
        let mut cfg = crate::config::ModelConfig::small(2, 2.1);
        cfg.rcut_smooth = 1.2;
        cfg.seed = seed;
        let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
        ds.push(toy_frame(1));
        ds.push(toy_frame(2));
        let model = DeepPotModel::new(cfg, &ds);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        let calib = vec![toy_frame(1), toy_frame(2)];
        let quant = QuantizedModel::quantize(&comp, &calib).unwrap();
        (model, quant)
    }

    #[test]
    fn quantized_energy_tracks_the_master_within_budget() {
        let (model, quant) = toy_quantized(7);
        for seed in 3..7 {
            let f = toy_frame(seed);
            let e_master = model.forward(&f).energy;
            let e_q = quant.energy(&f);
            let per_atom = (e_master - e_q).abs() / f.types.len() as f64;
            assert!(per_atom < 1e-3, "seed {seed}: ΔE/atom = {per_atom:e}");
        }
    }

    #[test]
    fn quantized_energy_is_deterministic() {
        let (_, quant) = toy_quantized(8);
        let f = toy_frame(3);
        assert_eq!(quant.energy(&f), quant.energy(&f));
    }

    #[test]
    fn quantized_weights_use_the_full_grid() {
        let (_, quant) = toy_quantized(9);
        for qf in &quant.qfittings {
            for layer in &qf.layers {
                let max_w = layer.w.iter().map(|&w| (w as i32).abs()).max().unwrap();
                assert_eq!(max_w, W_MAX as i32, "scale should land max|w| on the grid edge");
                assert!(layer.n_in <= MAX_QUANT_IN);
            }
        }
    }

    #[test]
    fn calibration_requires_frames() {
        let (model, _) = toy_quantized(10);
        let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
        assert!(QuantizedModel::quantize(&comp, &[]).is_err());
    }

    #[test]
    fn wide_layers_are_rejected() {
        // 513 inputs would let the i32 accumulator overflow.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::init(&[(600, 4, LayerKind::Tanh), (4, 1, LayerKind::Linear)], &mut rng);
        assert!(QuantMlp::quantize(&mlp, 1.0).is_err());
    }
}
