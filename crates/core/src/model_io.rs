//! Model persistence: a compact, versioned binary format for trained
//! Deep Potential models (the artifact an online-learning loop keeps
//! updating and an MD engine consumes).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "DPMD" | version u32 | config | stats | bias | mlps… | crc32 (v2)
//! config := n_types u64 | rcut f64 | rcut_smooth f64 | m u64 |
//!           m_sub u64 | emb widths 3×u64 | fit widths 3×u64 | seed u64
//! stats  := 3 × f64 vec (mean/std radial, std angular) | n_scale f64
//! bias   := f64 vec
//! mlp    := n_layers u64 | layer…
//! layer  := kind u8 | rows u64 | cols u64 | w (rows·cols)×f64 | b cols×f64
//! f64 vec := len u64 | data
//! ```
//!
//! Version 2 (current) appends a CRC-32 (IEEE) trailer over everything
//! before it, so storage bit-rot is detected before any value is
//! deserialized; version-1 files (no trailer) still load. Loading also
//! validates the configuration ([`ModelConfig::try_validate`]) and
//! rejects non-finite weights and statistics — a crashed writer or
//! corrupt disk must never poison a resumed training run. [`save`] is
//! crash-safe: it writes a temporary sibling and renames it over the
//! destination, so readers see either the old or the new model, never
//! a torn file.
//!
//! Two serving-side artifact records share the header layout, the CRC
//! trailer, and the atomic-save discipline:
//!
//! * `"DPCM"` — a [`CompressedModel`] (spline-tabulated embeddings,
//!   [`compressed_to_bytes`]/[`compressed_from_bytes`]); the per-table
//!   fitted-error report is persisted with the tables.
//! * `"DPQT"` — a [`QuantizedModel`] (`i16` fitting nets,
//!   [`quantized_to_bytes`]/[`quantized_from_bytes`]); loading
//!   re-checks the integer payload against the quantization grid so
//!   the i32-accumulator overflow-freedom argument holds for loaded
//!   artifacts too.

use crate::compress::{CompressReport, CompressSpec, CompressedModel, SplineTable, TableFit};
use crate::config::ModelConfig;
use crate::env::EnvStats;
use crate::mlp::{Layer, LayerKind, Mlp};
use crate::model::DeepPotModel;
use crate::quant::{QuantLayer, QuantMlp, QuantizedModel, MAX_QUANT_IN, W_MAX};
use dp_data::stats::EnergyBias;
use dp_tensor::wire::{save_atomic, Reader, Writer};
use dp_tensor::Mat;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 4] = b"DPMD";
const VERSION: u32 = 2;

/// Compressed (spline-tabulated) serving artifact.
const MAGIC_COMPRESSED: &[u8; 4] = b"DPCM";
const VERSION_COMPRESSED: u32 = 1;

/// Quantized (i16 fitting net) serving artifact.
const MAGIC_QUANTIZED: &[u8; 4] = b"DPQT";
const VERSION_QUANTIZED: u32 = 1;

fn err(m: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.to_string())
}

fn write_mlp(w: &mut Writer, mlp: &Mlp) {
    w.u64(mlp.layers.len() as u64);
    for l in &mlp.layers {
        w.u8(match l.kind {
            LayerKind::Tanh => 0,
            LayerKind::TanhResidual => 1,
            LayerKind::Linear => 2,
        });
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

fn read_mlp(r: &mut Reader) -> io::Result<Mlp> {
    let n_layers = r.u64()? as usize;
    if n_layers > 64 {
        return Err(err("implausible layer count"));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for li in 0..n_layers {
        let kind = match r.u8()? {
            0 => LayerKind::Tanh,
            1 => LayerKind::TanhResidual,
            2 => LayerKind::Linear,
            _ => return Err(err("unknown layer kind")),
        };
        let rows = r.u64()? as usize;
        let cols = r.u64()? as usize;
        let n_weights = rows
            .checked_mul(cols)
            .filter(|&n| n > 0)
            .ok_or_else(|| err("implausible layer shape"))?;
        let wdata = r.f64s(n_weights)?;
        let bdata = r.f64s(cols)?;
        if wdata.iter().chain(&bdata).any(|v| !v.is_finite()) {
            return Err(err(&format!("non-finite weight in layer {li}")));
        }
        layers.push(Layer {
            w: Mat::from_vec(rows, cols, wdata),
            b: Mat::from_vec(1, cols, bdata),
            kind,
        });
    }
    Ok(Mlp { layers })
}

fn ensure_finite(name: &str, vals: &[f64]) -> io::Result<()> {
    if vals.iter().any(|v| !v.is_finite()) {
        return Err(err(&format!("non-finite value in {name}")));
    }
    Ok(())
}

/// Write the config/stats/bias header every record shares.
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
fn read_header(r: &mut Reader) -> io::Result<(ModelConfig, EnvStats, EnergyBias)> {
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
    cfg.try_validate().map_err(|e| err(&format!("invalid model config: {e}")))?;
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

/// Check a record's magic and return its version.
fn read_version(buf: &[u8], magic: &[u8; 4], bad_magic: &str) -> io::Result<u32> {
    let mut r = Reader::new(buf);
    if r.raw(4)? != magic {
        return Err(err(bad_magic));
    }
    Ok(r.u32()?)
}

/// A reader over a record's payload, positioned past magic + version.
/// With `crc`, the CRC-32 trailer is verified (and stripped) first.
fn payload_reader(buf: &[u8], crc: bool) -> io::Result<Reader<'_>> {
    let mut r = if crc { Reader::new_verifying_crc(buf)? } else { Reader::new(buf) };
    r.raw(8)?;
    Ok(r)
}

/// Serialize a model to bytes.
pub fn to_bytes(model: &DeepPotModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u32(VERSION);
    write_header(&mut w, &model.cfg, &model.stats, &model.bias);
    w.u64(model.embeddings.len() as u64);
    for m in &model.embeddings {
        write_mlp(&mut w, m);
    }
    w.u64(model.fittings.len() as u64);
    for m in &model.fittings {
        write_mlp(&mut w, m);
    }
    w.into_bytes_with_crc()
}

/// Deserialize a model from bytes. Accepts the current version 2
/// (CRC-32 trailer, verified before decoding) and legacy version 1.
pub fn from_bytes(buf: &[u8]) -> io::Result<DeepPotModel> {
    let mut r = match read_version(buf, MAGIC, "bad magic")? {
        1 => payload_reader(buf, false)?,
        2 => payload_reader(buf, true)?,
        v => return Err(err(&format!("unsupported version {v}"))),
    };
    let (cfg, stats, bias) = read_header(&mut r)?;
    let n_emb = r.count(8)?;
    if n_emb != cfg.n_types * cfg.n_types {
        return Err(err("embedding count mismatch"));
    }
    let mut embeddings = Vec::with_capacity(n_emb);
    for _ in 0..n_emb {
        embeddings.push(read_mlp(&mut r)?);
    }
    let n_fit = r.count(8)?;
    if n_fit != cfg.n_types {
        return Err(err("fitting count mismatch"));
    }
    let mut fittings = Vec::with_capacity(n_fit);
    for _ in 0..n_fit {
        fittings.push(read_mlp(&mut r)?);
    }
    Ok(DeepPotModel { cfg, stats, bias, embeddings, fittings })
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

fn read_table(r: &mut Reader) -> io::Result<SplineTable> {
    let x_lo = r.f64()?;
    let x_hi = r.f64()?;
    let n_bins = r.u64()? as usize;
    let m = r.u64()? as usize;
    if !(x_lo.is_finite() && x_hi.is_finite() && x_hi > x_lo) {
        return Err(err("degenerate spline-table domain"));
    }
    if !(2..=(1 << 22)).contains(&n_bins) || m == 0 || m > 65536 {
        return Err(err("implausible spline-table shape"));
    }
    let values = r.f64_vec()?;
    let derivs = r.f64_vec()?;
    if values.len() != (n_bins + 1) * m || derivs.len() != (n_bins + 1) * m {
        return Err(err("spline-table payload does not match its shape"));
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

/// Serialize a compressed model to bytes:
///
/// ```text
/// "DPCM" | version u32 | header | spec (n_bins u64, r_min f64) |
/// n_tables u64 | table… | fit report (per table: verr, derr f64) |
/// n_emb u64 | mlp… | n_fit u64 | mlp… | crc32
/// table := x_lo f64 | x_hi f64 | n_bins u64 | m u64 |
///          values vec | derivs vec
/// ```
///
/// The per-table fitted-error report rides along so a loaded artifact
/// still knows its measured accuracy budget.
pub fn compressed_to_bytes(model: &CompressedModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC_COMPRESSED);
    w.u32(VERSION_COMPRESSED);
    write_header(&mut w, &model.cfg, &model.stats, &model.bias);
    w.u64(model.spec.n_bins as u64);
    w.f64(model.spec.r_min);
    w.u64(model.tables.len() as u64);
    for t in &model.tables {
        write_table(&mut w, t);
    }
    for fit in &model.report.tables {
        w.f64(fit.max_value_err);
        w.f64(fit.max_deriv_err);
    }
    w.u64(model.embeddings.len() as u64);
    for m in &model.embeddings {
        write_mlp(&mut w, m);
    }
    w.u64(model.fittings.len() as u64);
    for m in &model.fittings {
        write_mlp(&mut w, m);
    }
    w.into_bytes_with_crc()
}

/// Deserialize a compressed model (CRC verified before decoding).
pub fn compressed_from_bytes(buf: &[u8]) -> io::Result<CompressedModel> {
    let version = read_version(buf, MAGIC_COMPRESSED, "bad magic (expected DPCM)")?;
    if version != VERSION_COMPRESSED {
        return Err(err(&format!("unsupported compressed-model version {version}")));
    }
    let mut r = payload_reader(buf, true)?;
    let (cfg, stats, bias) = read_header(&mut r)?;
    let spec = CompressSpec { n_bins: r.u64()? as usize, r_min: r.f64()? };
    if !(spec.r_min.is_finite() && spec.r_min > 0.0 && spec.r_min < cfg.rcut) {
        return Err(err("implausible compress r_min"));
    }
    let nt = cfg.n_types;
    let n_tables = r.count(8)?;
    if n_tables != nt * nt {
        return Err(err("spline-table count mismatch"));
    }
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(read_table(&mut r)?);
    }
    let mut fits = Vec::with_capacity(n_tables);
    for idx in 0..n_tables {
        let max_value_err = r.f64()?;
        let max_deriv_err = r.f64()?;
        ensure_finite("table fit report", &[max_value_err, max_deriv_err])?;
        fits.push(TableFit { ti: idx / nt, tj: idx % nt, max_value_err, max_deriv_err });
    }
    let n_emb = r.count(8)?;
    if n_emb != nt * nt {
        return Err(err("embedding count mismatch"));
    }
    let mut embeddings = Vec::with_capacity(n_emb);
    for _ in 0..n_emb {
        embeddings.push(read_mlp(&mut r)?);
    }
    let n_fit = r.count(8)?;
    if n_fit != nt {
        return Err(err("fitting count mismatch"));
    }
    let mut fittings = Vec::with_capacity(n_fit);
    for _ in 0..n_fit {
        fittings.push(read_mlp(&mut r)?);
    }
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

// ---- quantized artifact (DPQT) -------------------------------------

fn write_quant_mlp(w: &mut Writer, mlp: &QuantMlp) {
    w.u64(mlp.layers.len() as u64);
    for l in &mlp.layers {
        w.u8(match l.kind {
            LayerKind::Tanh => 0,
            LayerKind::TanhResidual => 1,
            LayerKind::Linear => 2,
        });
        w.u64(l.n_in as u64);
        w.u64(l.n_out as u64);
        w.f64(l.s_in);
        w.f64(l.s_w);
        w.i16_vec(&l.w);
        w.i32_vec(&l.b);
    }
}

fn read_quant_mlp(r: &mut Reader) -> io::Result<QuantMlp> {
    let n_layers = r.u64()? as usize;
    if n_layers > 64 {
        return Err(err("implausible layer count"));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for li in 0..n_layers {
        let kind = match r.u8()? {
            0 => LayerKind::Tanh,
            1 => LayerKind::TanhResidual,
            2 => LayerKind::Linear,
            _ => return Err(err("unknown layer kind")),
        };
        let n_in = r.u64()? as usize;
        let n_out = r.u64()? as usize;
        if n_in == 0 || n_in > MAX_QUANT_IN || n_out == 0 || n_out > 65536 {
            return Err(err("implausible quantized layer shape"));
        }
        let s_in = r.f64()?;
        let s_w = r.f64()?;
        if !(s_in.is_finite() && s_in > 0.0 && s_w.is_finite() && s_w > 0.0) {
            return Err(err(&format!("bad quantization scales in layer {li}")));
        }
        let w = r.i16_vec()?;
        let b = r.i32_vec()?;
        if w.len() != n_in * n_out || b.len() != n_out {
            return Err(err("quantized layer payload does not match its shape"));
        }
        if w.iter().any(|&v| (v as i32).abs() > W_MAX as i32) {
            return Err(err(&format!(
                "quantized weight off the ±{} grid in layer {li}",
                W_MAX as i32
            )));
        }
        layers.push(QuantLayer { kind, n_in, n_out, w, b, s_in, s_w });
    }
    Ok(QuantMlp { layers })
}

/// Serialize a quantized energy-only model to bytes:
///
/// ```text
/// "DPQT" | version u32 | header | input_bound f64 | n_tables u64 |
/// table… | n_emb u64 | mlp… | n_qfit u64 | qmlp… | crc32
/// qmlp layer := kind u8 | n_in u64 | n_out u64 | s_in f64 | s_w f64 |
///               w i16 vec | b i32 vec
/// ```
pub fn quantized_to_bytes(model: &QuantizedModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC_QUANTIZED);
    w.u32(VERSION_QUANTIZED);
    write_header(&mut w, &model.cfg, &model.stats, &model.bias);
    w.f64(model.input_bound);
    w.u64(model.tables.len() as u64);
    for t in &model.tables {
        write_table(&mut w, t);
    }
    w.u64(model.embeddings.len() as u64);
    for m in &model.embeddings {
        write_mlp(&mut w, m);
    }
    w.u64(model.qfittings.len() as u64);
    for m in &model.qfittings {
        write_quant_mlp(&mut w, m);
    }
    w.into_bytes_with_crc()
}

/// Deserialize a quantized model (CRC verified before decoding; the
/// integer payload is bounds-checked back onto the quantization grid,
/// so the overflow-freedom argument holds for loaded artifacts too).
pub fn quantized_from_bytes(buf: &[u8]) -> io::Result<QuantizedModel> {
    let version = read_version(buf, MAGIC_QUANTIZED, "bad magic (expected DPQT)")?;
    if version != VERSION_QUANTIZED {
        return Err(err(&format!("unsupported quantized-model version {version}")));
    }
    let mut r = payload_reader(buf, true)?;
    let (cfg, stats, bias) = read_header(&mut r)?;
    let input_bound = r.f64()?;
    if !(input_bound.is_finite() && input_bound > 0.0) {
        return Err(err("implausible quantization input bound"));
    }
    let nt = cfg.n_types;
    let n_tables = r.count(8)?;
    if n_tables != nt * nt {
        return Err(err("spline-table count mismatch"));
    }
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(read_table(&mut r)?);
    }
    let n_emb = r.count(8)?;
    if n_emb != nt * nt {
        return Err(err("embedding count mismatch"));
    }
    let mut embeddings = Vec::with_capacity(n_emb);
    for _ in 0..n_emb {
        embeddings.push(read_mlp(&mut r)?);
    }
    let n_qfit = r.count(8)?;
    if n_qfit != nt {
        return Err(err("fitting count mismatch"));
    }
    let mut qfittings = Vec::with_capacity(n_qfit);
    for _ in 0..n_qfit {
        qfittings.push(read_quant_mlp(&mut r)?);
    }
    Ok(QuantizedModel { cfg, stats, bias, tables, embeddings, qfittings, input_bound })
}

/// Atomic save/load for the compressed artifact.
pub fn save_compressed(model: &CompressedModel, path: impl AsRef<Path>) -> io::Result<()> {
    save_atomic(path, &compressed_to_bytes(model))
}

/// See [`save_compressed`].
pub fn load_compressed(path: impl AsRef<Path>) -> io::Result<CompressedModel> {
    compressed_from_bytes(&fs::read(path)?)
}

/// Atomic save/load for the quantized artifact.
pub fn save_quantized(model: &QuantizedModel, path: impl AsRef<Path>) -> io::Result<()> {
    save_atomic(path, &quantized_to_bytes(model))
}

/// See [`save_quantized`].
pub fn load_quantized(path: impl AsRef<Path>) -> io::Result<QuantizedModel> {
    quantized_from_bytes(&fs::read(path)?)
}

/// Write a model to `path` crash-safely: the bytes go to a temporary
/// sibling first and are renamed over the destination, so a crash
/// mid-write can never leave a torn model file behind.
pub fn save(model: &DeepPotModel, path: impl AsRef<Path>) -> io::Result<()> {
    save_atomic(path, &to_bytes(model))
}

/// Read a model from `path`.
pub fn load(path: impl AsRef<Path>) -> io::Result<DeepPotModel> {
    from_bytes(&fs::read(path)?)
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
    fn file_roundtrip() {
        let m = toy_model();
        let path = std::env::temp_dir().join("dp_model_io_test.dpmd");
        save(&m, &path).unwrap();
        let back = load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.get_params(), m.get_params());
    }

    #[test]
    fn corrupted_files_are_rejected() {
        let m = toy_model();
        let bytes = to_bytes(&m);
        assert!(from_bytes(b"XXXX").is_err());
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Z';
        assert!(from_bytes(&bad_magic).is_err());
    }

    #[test]
    fn single_flipped_bit_fails_the_checksum() {
        let m = toy_model();
        let mut bytes = to_bytes(&m);
        // Flip one bit deep in the weight payload (would silently load
        // in a CRC-less format).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let e = from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("checksum"), "got: {e}");
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

    #[test]
    fn artifact_corruption_is_rejected() {
        let m = toy_model();
        let comp = CompressedModel::compress(&m, &CompressSpec::default()).unwrap();
        let quant = QuantizedModel::quantize(&comp, &[toy_frame(1)]).unwrap();
        for bytes in [compressed_to_bytes(&comp), quantized_to_bytes(&quant)] {
            // Truncation, a flipped payload bit, and the wrong magic
            // must all fail before any value is trusted.
            let mid = bytes.len() / 2;
            let mut flipped = bytes.clone();
            flipped[mid] ^= 0x10;
            let mut wrong_magic = bytes.clone();
            wrong_magic[0] = b'Z';
            if bytes[..4] == *b"DPCM" {
                assert!(compressed_from_bytes(&bytes[..mid]).is_err());
                assert!(compressed_from_bytes(&flipped).is_err());
                assert!(compressed_from_bytes(&wrong_magic).is_err());
                // Cross-loading a DPCM record as DPQT must fail on magic.
                assert!(quantized_from_bytes(&bytes).is_err());
            } else {
                assert!(quantized_from_bytes(&bytes[..mid]).is_err());
                assert!(quantized_from_bytes(&flipped).is_err());
                assert!(quantized_from_bytes(&wrong_magic).is_err());
                assert!(compressed_from_bytes(&bytes).is_err());
            }
        }
    }

    #[test]
    fn artifact_files_save_atomically() {
        let m = toy_model();
        let comp = CompressedModel::compress(&m, &CompressSpec::default()).unwrap();
        let quant = QuantizedModel::quantize(&comp, &[toy_frame(1)]).unwrap();
        let dir = std::env::temp_dir();
        let cpath = dir.join("dp_model_io_test.dpcm");
        let qpath = dir.join("dp_model_io_test.dpqt");
        save_compressed(&comp, &cpath).unwrap();
        save_quantized(&quant, &qpath).unwrap();
        assert!(!dir.join("dp_model_io_test.dpcm.tmp").exists());
        assert!(!dir.join("dp_model_io_test.dpqt.tmp").exists());
        let cback = load_compressed(&cpath).unwrap();
        let qback = load_quantized(&qpath).unwrap();
        let _ = std::fs::remove_file(&cpath);
        let _ = std::fs::remove_file(&qpath);
        let f = toy_frame(4);
        assert_eq!(cback.forward(&f).energy, comp.forward(&f).energy);
        assert_eq!(qback.energy(&f), quant.energy(&f));
    }

    #[test]
    fn save_leaves_no_temporary_behind_and_is_atomic() {
        let m = toy_model();
        let dir = std::env::temp_dir();
        let path = dir.join("dp_model_io_atomic.dpmd");
        save(&m, &path).unwrap();
        assert!(!dir.join("dp_model_io_atomic.dpmd.tmp").exists());
        // Overwriting an existing file also goes through the rename.
        save(&m, &path).unwrap();
        let back = load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.get_params(), m.get_params());
    }
}
