//! One fixed-seed record of every on-disk magic, shared by the format
//! pins and the corrupt-input suite.

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
use fekf_deepmd::train::checkpoint::{Checkpoint, OptKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub fn frame(seed: u64) -> Snapshot {
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

pub fn model() -> DeepPotModel {
    let mut cfg = ModelConfig::small(2, 2.1);
    cfg.rcut_smooth = 1.2;
    cfg.seed = 7;
    DeepPotModel::with_stats(cfg, EnvStats::identity(2), EnergyBias { per_type: vec![0.1, -0.2] })
}

fn compressed() -> CompressedModel {
    CompressedModel::compress(&model(), &CompressSpec::default()).unwrap()
}

pub fn dataset() -> Dataset {
    let mut ds = Dataset::new("pins", vec!["A".into(), "B".into()]);
    for seed in 1..=3 {
        ds.push(frame(seed));
    }
    ds
}

pub fn checkpoint() -> Checkpoint {
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
}

pub fn dpmd() -> Vec<u8> {
    model_io::to_bytes(&model())
}

pub fn dpcm() -> Vec<u8> {
    model_io::compressed_to_bytes(&compressed())
}

pub fn dpqt() -> Vec<u8> {
    let quant = QuantizedModel::quantize(&compressed(), &[frame(1), frame(2)]).unwrap();
    model_io::quantized_to_bytes(&quant)
}

pub fn dpds() -> Vec<u8> {
    fekf_deepmd::data::io::to_bytes(&dataset())
}

pub fn dpck() -> Vec<u8> {
    checkpoint().to_bytes()
}
