//! Model persistence: the trained Deep Potential model (the artifact an
//! online-learning loop keeps updating and an MD engine consumes) and
//! its two serving tiers, each a [`Record`] of `dp_tensor::wire` —
//! header, CRC rule, end check and atomic save live there; this module
//! writes and reads the bodies (little-endian):
//!
//! ```text
//! DPMD v2 (v1: no trailer) := header | n_emb u64 | mlp… | n_fit u64 | mlp…
//! DPCM v1 := header | spec (n_bins u64, r_min f64) | n_tables u64 |
//!            table… | fit report (per table: verr, derr f64) |
//!            n_emb u64 | mlp… | n_fit u64 | mlp…
//! DPQT v1 := header | input_bound f64 | n_tables u64 | table… |
//!            n_emb u64 | mlp… | n_qfit u64 | qmlp…
//! header := config | stats | bias
//! config := n_types u64 | rcut f64 | rcut_smooth f64 | m u64 |
//!           m_sub u64 | emb widths 3×u64 | fit widths 3×u64 | seed u64
//! stats  := 3 × f64 vec (mean/std radial, std angular) | n_scale f64
//! bias   := f64 vec
//! mlp    := n_layers u64 | layer…
//! layer  := kind u8 | rows u64 | cols u64 | w (rows·cols)×f64 | b cols×f64
//! table  := x_lo f64 | x_hi f64 | n_bins u64 | m u64 | values vec | derivs vec
//! qmlp layer := kind u8 | n_in u64 | n_out u64 | s_in f64 | s_w f64 |
//!               w i16 vec | b i32 vec
//! f64 vec := len u64 | data
//! ```
//!
//! Loading validates the configuration ([`ModelConfig::try_validate`]),
//! every list length against the configuration, and rejects non-finite
//! weights and statistics — a crashed writer or corrupt disk must never
//! poison a resumed training run. The compressed tier persists its
//! per-table fitted-error report with the tables; loading the quantized
//! tier re-checks the integer payload against the quantization grid so
//! the i32-accumulator overflow-freedom argument holds for loaded
//! artifacts too.

use crate::compress::{CompressReport, CompressSpec, CompressedModel, SplineTable, TableFit};
use crate::config::ModelConfig;
use crate::env::EnvStats;
use crate::mlp::{Layer, LayerKind, Mlp};
use crate::model::DeepPotModel;
use crate::quant::{QuantLayer, QuantMlp, QuantizedModel, MAX_QUANT_IN, W_MAX};
use dp_data::stats::EnergyBias;
use dp_tensor::wire::{Reader, Record, WireError, Writer};
use dp_tensor::Mat;
use std::io;
use std::path::Path;

const MODEL: Record = Record::new(*b"DPMD", 2, 2);
const COMPRESSED: Record = Record::new(*b"DPCM", 1, 1);
const QUANTIZED: Record = Record::new(*b"DPQT", 1, 1);

fn invalid(msg: impl Into<String>) -> WireError {
    WireError::Invalid(msg.into())
}

/// Write a counted list.
fn put_list<T>(w: &mut Writer, items: &[T], put: fn(&mut Writer, &T)) {
    w.u64(items.len() as u64);
    for item in items {
        put(w, item);
    }
}

/// Read a counted list whose count must be `n`.
fn get_list<T>(
    r: &mut Reader,
    n: usize,
    what: &str,
    get: fn(&mut Reader) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = r.count(8)?;
    if count != n {
        return Err(invalid(format!("{what} count {count}, expected {n}")));
    }
    (0..n).map(|_| get(r)).collect()
}

fn layer_kind_code(kind: LayerKind) -> u8 {
    match kind {
        LayerKind::Tanh => 0,
        LayerKind::TanhResidual => 1,
        LayerKind::Linear => 2,
    }
}

fn read_layer_kind(r: &mut Reader) -> Result<LayerKind, WireError> {
    match r.u8()? {
        0 => Ok(LayerKind::Tanh),
        1 => Ok(LayerKind::TanhResidual),
        2 => Ok(LayerKind::Linear),
        _ => Err(invalid("unknown layer kind")),
    }
}

fn read_layer_count(r: &mut Reader) -> Result<usize, WireError> {
    let n_layers = r.u64()? as usize;
    if n_layers > 64 {
        return Err(invalid("implausible layer count"));
    }
    Ok(n_layers)
}

fn write_mlp(w: &mut Writer, mlp: &Mlp) {
    w.u64(mlp.layers.len() as u64);
    for l in &mlp.layers {
        w.u8(layer_kind_code(l.kind));
        w.u64(l.w.rows() as u64);
        w.u64(l.w.cols() as u64);
        for &x in l.w.as_slice() {
            w.f64(x);
        }
        for &x in l.b.as_slice() {
            w.f64(x);
        }
    }
}

fn read_mlp(r: &mut Reader) -> Result<Mlp, WireError> {
    let n_layers = read_layer_count(r)?;
    let mut layers = Vec::with_capacity(n_layers);
    for li in 0..n_layers {
        let kind = read_layer_kind(r)?;
        let rows = r.u64()? as usize;
        let cols = r.u64()? as usize;
        let n_weights = rows
            .checked_mul(cols)
            .filter(|&n| n > 0)
            .ok_or_else(|| invalid("implausible layer shape"))?;
        let wdata = r.f64s(n_weights)?;
        let bdata = r.f64s(cols)?;
        if wdata.iter().chain(&bdata).any(|v| !v.is_finite()) {
            return Err(invalid(format!("non-finite weight in layer {li}")));
        }
        layers.push(Layer {
            w: Mat::from_vec(rows, cols, wdata),
            b: Mat::from_vec(1, cols, bdata),
            kind,
        });
    }
    Ok(Mlp { layers })
}

fn ensure_finite(name: &str, vals: &[f64]) -> Result<(), WireError> {
    if vals.iter().any(|v| !v.is_finite()) {
        return Err(invalid(format!("non-finite value in {name}")));
    }
    Ok(())
}

/// Write the config/stats/bias header every body starts with.
fn write_header(w: &mut Writer, cfg: &ModelConfig, stats: &EnvStats, bias: &EnergyBias) {
    w.u64(cfg.n_types as u64);
    w.f64(cfg.rcut);
    w.f64(cfg.rcut_smooth);
    w.u64(cfg.m as u64);
    w.u64(cfg.m_sub as u64);
    for &x in &cfg.embedding_widths {
        w.u64(x as u64);
    }
    for &x in &cfg.fitting_widths {
        w.u64(x as u64);
    }
    w.u64(cfg.seed);
    w.f64_vec(&stats.mean_radial);
    w.f64_vec(&stats.std_radial);
    w.f64_vec(&stats.std_angular);
    w.f64(stats.n_scale);
    w.f64_vec(&bias.per_type);
}

/// Read + validate the shared config/stats/bias header.
fn read_header(r: &mut Reader) -> Result<(ModelConfig, EnvStats, EnergyBias), WireError> {
    let cfg = ModelConfig {
        n_types: r.u64()? as usize,
        rcut: r.f64()?,
        rcut_smooth: r.f64()?,
        m: r.u64()? as usize,
        m_sub: r.u64()? as usize,
        embedding_widths: [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize],
        fitting_widths: [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize],
        seed: r.u64()?,
    };
    cfg.try_validate().map_err(|e| invalid(format!("invalid model config: {e}")))?;
    let stats = EnvStats {
        mean_radial: r.f64_vec()?,
        std_radial: r.f64_vec()?,
        std_angular: r.f64_vec()?,
        n_scale: r.f64()?,
    };
    ensure_finite("mean_radial stats", &stats.mean_radial)?;
    ensure_finite("std_radial stats", &stats.std_radial)?;
    ensure_finite("std_angular stats", &stats.std_angular)?;
    ensure_finite("n_scale", &[stats.n_scale])?;
    let bias = EnergyBias { per_type: r.f64_vec()? };
    ensure_finite("energy bias", &bias.per_type)?;
    Ok((cfg, stats, bias))
}

/// Serialize a model to a DPMD record.
pub fn to_bytes(model: &DeepPotModel) -> Vec<u8> {
    let mut w = MODEL.writer();
    write_header(&mut w, &model.cfg, &model.stats, &model.bias);
    put_list(&mut w, &model.embeddings, write_mlp);
    put_list(&mut w, &model.fittings, write_mlp);
    MODEL.seal(w)
}

fn read_model(r: &mut Reader) -> Result<DeepPotModel, WireError> {
    let (cfg, stats, bias) = read_header(r)?;
    let nt = cfg.n_types;
    let embeddings = get_list(r, nt * nt, "embedding", read_mlp)?;
    let fittings = get_list(r, nt, "fitting", read_mlp)?;
    Ok(DeepPotModel { cfg, stats, bias, embeddings, fittings })
}

/// Deserialize a DPMD record (version 2, or legacy version 1).
pub fn from_bytes(buf: &[u8]) -> io::Result<DeepPotModel> {
    Ok(MODEL.decode(buf, read_model)?)
}

/// Write a model to `path` atomically and durably ([`Record::save`]).
pub fn save(model: &DeepPotModel, path: impl AsRef<Path>) -> io::Result<()> {
    MODEL.save(path, &to_bytes(model))
}

/// Read a model from `path`.
pub fn load(path: impl AsRef<Path>) -> io::Result<DeepPotModel> {
    MODEL.load(path, read_model)
}

// ---- compressed artifact (DPCM) ------------------------------------

fn write_table(w: &mut Writer, t: &SplineTable) {
    w.f64(t.x_lo);
    w.f64(t.x_hi);
    w.u64(t.n_bins as u64);
    w.u64(t.m as u64);
    w.f64_vec(t.values.as_slice());
    w.f64_vec(t.derivs.as_slice());
}

fn read_table(r: &mut Reader) -> Result<SplineTable, WireError> {
    let x_lo = r.f64()?;
    let x_hi = r.f64()?;
    let n_bins = r.u64()? as usize;
    let m = r.u64()? as usize;
    if !(x_lo.is_finite() && x_hi.is_finite() && x_hi > x_lo) {
        return Err(invalid("degenerate spline-table domain"));
    }
    if !(2..=(1 << 22)).contains(&n_bins) || m == 0 || m > 65536 {
        return Err(invalid("implausible spline-table shape"));
    }
    let values = r.f64_vec()?;
    let derivs = r.f64_vec()?;
    if values.len() != (n_bins + 1) * m || derivs.len() != (n_bins + 1) * m {
        return Err(invalid("spline-table payload does not match its shape"));
    }
    ensure_finite("spline-table values", &values)?;
    ensure_finite("spline-table derivatives", &derivs)?;
    // Same expression the builder uses, so a loaded table interpolates
    // bitwise-identically to the freshly built one.
    let h = (x_hi - x_lo) / n_bins as f64;
    Ok(SplineTable {
        x_lo,
        x_hi,
        h,
        n_bins,
        m,
        values: Mat::from_vec(n_bins + 1, m, values),
        derivs: Mat::from_vec(n_bins + 1, m, derivs),
    })
}

/// Serialize a compressed model to a DPCM record. The per-table
/// fitted-error report rides along so a loaded artifact still knows its
/// measured accuracy budget.
pub fn compressed_to_bytes(model: &CompressedModel) -> Vec<u8> {
    let mut w = COMPRESSED.writer();
    write_header(&mut w, &model.cfg, &model.stats, &model.bias);
    w.u64(model.spec.n_bins as u64);
    w.f64(model.spec.r_min);
    put_list(&mut w, &model.tables, write_table);
    for fit in &model.report.tables {
        w.f64(fit.max_value_err);
        w.f64(fit.max_deriv_err);
    }
    put_list(&mut w, &model.embeddings, write_mlp);
    put_list(&mut w, &model.fittings, write_mlp);
    COMPRESSED.seal(w)
}

fn read_compressed(r: &mut Reader) -> Result<CompressedModel, WireError> {
    let (cfg, stats, bias) = read_header(r)?;
    let spec = CompressSpec { n_bins: r.u64()? as usize, r_min: r.f64()? };
    if !(spec.r_min.is_finite() && spec.r_min > 0.0 && spec.r_min < cfg.rcut) {
        return Err(invalid("implausible compress r_min"));
    }
    let nt = cfg.n_types;
    let tables = get_list(r, nt * nt, "spline-table", read_table)?;
    let mut fits = Vec::with_capacity(tables.len());
    for idx in 0..tables.len() {
        let max_value_err = r.f64()?;
        let max_deriv_err = r.f64()?;
        ensure_finite("table fit report", &[max_value_err, max_deriv_err])?;
        fits.push(TableFit { ti: idx / nt, tj: idx % nt, max_value_err, max_deriv_err });
    }
    let embeddings = get_list(r, nt * nt, "embedding", read_mlp)?;
    let fittings = get_list(r, nt, "fitting", read_mlp)?;
    Ok(CompressedModel {
        cfg,
        stats,
        bias,
        spec,
        tables,
        embeddings,
        fittings,
        report: CompressReport { tables: fits },
    })
}

/// Deserialize a DPCM record.
pub fn compressed_from_bytes(buf: &[u8]) -> io::Result<CompressedModel> {
    Ok(COMPRESSED.decode(buf, read_compressed)?)
}

// ---- quantized artifact (DPQT) -------------------------------------

fn write_quant_mlp(w: &mut Writer, mlp: &QuantMlp) {
    w.u64(mlp.layers.len() as u64);
    for l in &mlp.layers {
        w.u8(layer_kind_code(l.kind));
        w.u64(l.n_in as u64);
        w.u64(l.n_out as u64);
        w.f64(l.s_in);
        w.f64(l.s_w);
        w.i16_vec(&l.w);
        w.i32_vec(&l.b);
    }
}

fn read_quant_mlp(r: &mut Reader) -> Result<QuantMlp, WireError> {
    let n_layers = read_layer_count(r)?;
    let mut layers = Vec::with_capacity(n_layers);
    for li in 0..n_layers {
        let kind = read_layer_kind(r)?;
        let n_in = r.u64()? as usize;
        let n_out = r.u64()? as usize;
        if n_in == 0 || n_in > MAX_QUANT_IN || n_out == 0 || n_out > 65536 {
            return Err(invalid("implausible quantized layer shape"));
        }
        let s_in = r.f64()?;
        let s_w = r.f64()?;
        if !(s_in.is_finite() && s_in > 0.0 && s_w.is_finite() && s_w > 0.0) {
            return Err(invalid(format!("bad quantization scales in layer {li}")));
        }
        let w = r.i16_vec()?;
        let b = r.i32_vec()?;
        if w.len() != n_in * n_out || b.len() != n_out {
            return Err(invalid("quantized layer payload does not match its shape"));
        }
        if w.iter().any(|&v| (v as i32).abs() > W_MAX as i32) {
            return Err(invalid(format!(
                "quantized weight off the ±{} grid in layer {li}",
                W_MAX as i32
            )));
        }
        layers.push(QuantLayer { kind, n_in, n_out, w, b, s_in, s_w });
    }
    Ok(QuantMlp { layers })
}

/// Serialize a quantized energy-only model to a DPQT record.
pub fn quantized_to_bytes(model: &QuantizedModel) -> Vec<u8> {
    let mut w = QUANTIZED.writer();
    write_header(&mut w, &model.cfg, &model.stats, &model.bias);
    w.f64(model.input_bound);
    put_list(&mut w, &model.tables, write_table);
    put_list(&mut w, &model.embeddings, write_mlp);
    put_list(&mut w, &model.qfittings, write_quant_mlp);
    QUANTIZED.seal(w)
}

fn read_quantized(r: &mut Reader) -> Result<QuantizedModel, WireError> {
    let (cfg, stats, bias) = read_header(r)?;
    let input_bound = r.f64()?;
    if !(input_bound.is_finite() && input_bound > 0.0) {
        return Err(invalid("implausible quantization input bound"));
    }
    let nt = cfg.n_types;
    let tables = get_list(r, nt * nt, "spline-table", read_table)?;
    let embeddings = get_list(r, nt * nt, "embedding", read_mlp)?;
    let qfittings = get_list(r, nt, "fitting", read_quant_mlp)?;
    Ok(QuantizedModel { cfg, stats, bias, tables, embeddings, qfittings, input_bound })
}

/// Deserialize a DPQT record (the integer payload is bounds-checked
/// back onto the quantization grid).
pub fn quantized_from_bytes(buf: &[u8]) -> io::Result<QuantizedModel> {
    Ok(QUANTIZED.decode(buf, read_quantized)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_data::dataset::{Dataset, Snapshot};
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

    fn toy_model() -> DeepPotModel {
        let mut cfg = ModelConfig::small(2, 2.1);
        cfg.rcut_smooth = 1.2;
        let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
        ds.push(toy_frame(1));
        ds.push(toy_frame(2));
        DeepPotModel::new(cfg, &ds)
    }

    #[test]
    fn roundtrip_preserves_predictions_exactly() {
        let m = toy_model();
        let bytes = to_bytes(&m);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.n_params(), m.n_params());
        assert_eq!(back.get_params(), m.get_params());
        let f = toy_frame(3);
        let p1 = m.predict(&f);
        let p2 = back.predict(&f);
        assert_eq!(p1.energy, p2.energy);
        for (a, b) in p1.forces.iter().zip(&p2.forces) {
            assert_eq!(a.0, b.0);
        }
    }

    #[test]
    fn legacy_v1_files_without_trailer_still_load() {
        let m = toy_model();
        let mut bytes = to_bytes(&m);
        // Rewrite as v1: version field ← 1, CRC trailer stripped.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes.truncate(bytes.len() - 4);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.get_params(), m.get_params());
    }

    #[test]
    fn non_finite_weights_are_rejected_descriptively() {
        // A crashed writer can flush NaNs; the loader must name the
        // problem instead of handing back a poisoned model. to_bytes
        // recomputes the CRC, so the *semantic* validation is what fires.
        let mut m = toy_model();
        m.embeddings[0].layers[0].w.as_mut_slice()[0] = f64::NAN;
        let e = from_bytes(&to_bytes(&m)).unwrap_err();
        assert!(e.to_string().contains("non-finite"), "got: {e}");

        let mut m = toy_model();
        m.bias.per_type[0] = f64::INFINITY;
        let e = from_bytes(&to_bytes(&m)).unwrap_err();
        assert!(e.to_string().contains("non-finite"), "got: {e}");
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let m = toy_model();
        let mut bytes = to_bytes(&m);
        // Config starts right after magic + version: n_types u64 at
        // offset 8, rcut f64 at offset 16. NaN rcut must be caught by
        // try_validate, not a panic.
        bytes[16..24].copy_from_slice(&f64::NAN.to_le_bytes());
        let end = bytes.len() - 4;
        let crc = dp_tensor::wire::crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        let e = from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("invalid model config"), "got: {e}");

        // n_types is the u64 at offset 8: zero species fails validation,
        // three species over a two-species body fails on the list count.
        for (n_types, want) in [(0u64, "invalid model config"), (3, "embedding count")] {
            let mut bytes = to_bytes(&m);
            bytes[8..16].copy_from_slice(&n_types.to_le_bytes());
            let end = bytes.len() - 4;
            let crc = dp_tensor::wire::crc32(&bytes[..end]);
            bytes[end..].copy_from_slice(&crc.to_le_bytes());
            let e = from_bytes(&bytes).unwrap_err();
            assert!(e.to_string().contains(want), "{n_types} types: {e}");
        }
    }

    #[test]
    fn compressed_roundtrip_is_bitwise() {
        let m = toy_model();
        let comp = CompressedModel::compress(&m, &CompressSpec::default()).unwrap();
        let bytes = compressed_to_bytes(&comp);
        let back = compressed_from_bytes(&bytes).unwrap();
        let f = toy_frame(3);
        let p1 = comp.predict(&f);
        let p2 = back.predict(&f);
        assert_eq!(p1.energy, p2.energy);
        for (a, b) in p1.forces.iter().zip(&p2.forces) {
            assert_eq!(a.0, b.0);
        }
        assert_eq!(back.report.max_value_err(), comp.report.max_value_err());
        assert_eq!(back.report.max_deriv_err(), comp.report.max_deriv_err());
        assert_eq!(back.spec, comp.spec);
    }

    #[test]
    fn quantized_roundtrip_is_bitwise() {
        let m = toy_model();
        let comp = CompressedModel::compress(&m, &CompressSpec::default()).unwrap();
        let quant = QuantizedModel::quantize(&comp, &[toy_frame(1), toy_frame(2)]).unwrap();
        let bytes = quantized_to_bytes(&quant);
        let back = quantized_from_bytes(&bytes).unwrap();
        let f = toy_frame(3);
        assert_eq!(quant.energy(&f), back.energy(&f));
        assert_eq!(quant.input_bound, back.input_bound);
    }
}
