//! On-disk format pins: the length and CRC-32 of `to_bytes` for one
//! fixed-seed record of every magic. The literals were computed before the byte
//! codecs were unified behind `dp_tensor::wire`, so a codec change
//! that moves a single byte of any format fails here.
//!
//! Records are built under the forced-scalar backend: the compressed
//! and quantized artifacts are computed from the model (GEMM, `tanh`),
//! and only scalar arithmetic is bit-identical on every CPU.

use fekf_deepmd::core::compress::{CompressSpec, CompressedModel};
use fekf_deepmd::core::config::ModelConfig;
use fekf_deepmd::core::env::EnvStats;
use fekf_deepmd::core::model::DeepPotModel;
use fekf_deepmd::core::model_io;
use fekf_deepmd::core::quant::QuantizedModel;
use fekf_deepmd::data::dataset::{Dataset, Snapshot};
use fekf_deepmd::data::stats::EnergyBias;
use fekf_deepmd::mdsim::lattice::{rocksalt, Species};
use fekf_deepmd::mdsim::Vec3;
use fekf_deepmd::optim::fekf::{Fekf, FekfConfig};
use fekf_deepmd::tensor::backend::{with_backend, BackendKind};
use fekf_deepmd::tensor::wire::crc32;
use fekf_deepmd::train::checkpoint::{Checkpoint, OptKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn frame(seed: u64) -> Snapshot {
    let mut s = rocksalt(Species::new("A", 20.0), Species::new("B", 30.0), 4.4, [1, 1, 1]);
    s.jitter_positions(0.25, &mut ChaCha8Rng::seed_from_u64(seed));
    let n = s.n_atoms();
    Snapshot {
        cell: s.cell.lengths(),
        types: s.types.clone(),
        type_names: s.type_names.clone(),
        pos: s.pos.clone(),
        energy: -10.0 - seed as f64,
        forces: (0..n).map(|i| Vec3::new(0.5 * i as f64, -0.25, 1.0 / (1 + i) as f64)).collect(),
        temperature: 300.0 + seed as f64,
    }
}

fn model() -> DeepPotModel {
    let mut cfg = ModelConfig::small(2, 2.1);
    cfg.rcut_smooth = 1.2;
    cfg.seed = 7;
    DeepPotModel::with_stats(cfg, EnvStats::identity(2), EnergyBias { per_type: vec![0.1, -0.2] })
}

fn compressed() -> CompressedModel {
    CompressedModel::compress(&model(), &CompressSpec::default()).unwrap()
}

fn dpmd() -> Vec<u8> {
    model_io::to_bytes(&model())
}

fn dpcm() -> Vec<u8> {
    model_io::compressed_to_bytes(&compressed())
}

fn dpqt() -> Vec<u8> {
    let quant = QuantizedModel::quantize(&compressed(), &[frame(1), frame(2)]).unwrap();
    model_io::quantized_to_bytes(&quant)
}

fn dpds() -> Vec<u8> {
    let mut ds = Dataset::new("pins", vec!["A".into(), "B".into()]);
    for seed in 1..=3 {
        ds.push(frame(seed));
    }
    fekf_deepmd::data::io::to_bytes(&ds)
}

fn dpck() -> Vec<u8> {
    let params: Vec<f64> = (0..13).map(|i| (i as f64 - 6.0) * 0.375).collect();
    Checkpoint {
        epoch: 3,
        batches_done: 7,
        iterations: 41,
        word_pos: (5u128 << 64) | 123,
        rollbacks: 2,
        opt_kind: OptKind::Fekf,
        opt_bytes: Fekf::new(&[8, 5], 2, FekfConfig::default()).state_to_bytes(),
        best: Some((0.125, params.iter().map(|p| p * 0.5).collect())),
        params,
    }
    .to_bytes()
}

#[test]
fn to_bytes_of_every_format_is_pinned() {
    type Row = (&'static [u8; 4], fn() -> Vec<u8>, usize, u32);
    let rows: [Row; 5] = [
        (b"DPMD", dpmd, 23160, 0x060c_c518),
        (b"DPCM", dpcm, 548240, 0xde4f_ce5d),
        (b"DPQT", dpqt, 535552, 0xfb8f_4df5),
        (b"DPDS", dpds, 1542, 0x222a_8154),
        (b"DPCK", dpck, 1716, 0xdb01_b3b9),
    ];
    for (magic, build, len, crc) in rows {
        let bytes = with_backend(BackendKind::Scalar, build).expect("scalar is always available");
        let name = String::from_utf8_lossy(magic);
        assert_eq!(&bytes[..4], magic, "{name}: magic");
        // Past the magic: the CRC-32 of a whole CRC-trailed record is the
        // same residue for every payload.
        assert_eq!(
            (bytes.len(), crc32(&bytes[4..])),
            (len, crc),
            "{name}: (length, CRC-32 past the magic) of to_bytes"
        );
    }
}
