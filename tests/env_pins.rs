//! Environment pins: the length and CRC-32 of every bit `FrameEnv::build`
//! produces — per atom its type offsets, then per entry the neighbour
//! index, the row and the row derivative — on four fixed-seed systems:
//! the Cu 108-atom, Al 32-atom and H₂O cells (the `O(N²)` scan) and a
//! 3888-atom Cu supercell (the linked-cell search), once as jittered and
//! once wrapped into the cell. The literals were computed before the
//! neighbour search and the environment layout were rewritten, so a
//! change that moves one bit of one environment fails here.
//!
//! The environment is plain scalar arithmetic (no tensor backend), so
//! the bits are the same on every CPU.

use fekf_deepmd::core::config::ModelConfig;
use fekf_deepmd::core::env::EnvStats;
use fekf_deepmd::core::env_cache::FrameEnv;
use fekf_deepmd::data::dataset::{Dataset, Snapshot};
use fekf_deepmd::mdsim::systems::PaperSystem;
use fekf_deepmd::mdsim::Vec3;
use fekf_deepmd::tensor::wire::crc32;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `system`'s cell tiled `reps` times and jittered by 0.1 Å, with the
/// recipe's cutoff (the labelling potential's, within half the base
/// cell) and statistics computed on the frame itself.
fn fixture(system: PaperSystem, reps: [usize; 3], wrap: bool) -> (ModelConfig, EnvStats, Snapshot) {
    let (base, pot) = system.preset().instantiate();
    let rcut = pot.cutoff().max(3.0).min(0.5 * base.cell.min_length());
    let mut state = base.replicate(reps);
    state.jitter_positions(0.1, &mut ChaCha8Rng::seed_from_u64(11));
    if wrap {
        for p in &mut state.pos {
            *p = state.cell.wrap(p);
        }
    }
    let frame = Snapshot {
        cell: state.cell.lengths(),
        types: state.types.clone(),
        type_names: state.type_names.clone(),
        pos: state.pos.clone(),
        energy: 0.0,
        forces: vec![Vec3::ZERO; state.n_atoms()],
        temperature: 0.0,
    };
    let cfg = ModelConfig::small(state.type_names.len(), rcut);
    let mut ds = Dataset::new("pins", state.type_names.clone());
    ds.push(frame.clone());
    let stats = EnvStats::compute(&cfg, &ds, 1);
    (cfg, stats, frame)
}

/// Every bit of the frame's environments, atom after atom.
fn env_bytes(cfg: &ModelConfig, stats: &EnvStats, frame: &Snapshot) -> Vec<u8> {
    let envs = FrameEnv::build(cfg, stats, frame).envs;
    let mut out = Vec::new();
    for i in 0..frame.types.len() {
        let first = envs.range(i, 0).start;
        for t in 0..cfg.n_types {
            let range = envs.range(i, t);
            out.extend(((range.start - first) as u64).to_le_bytes());
            out.extend(((range.end - first) as u64).to_le_bytes());
        }
        for t in 0..cfg.n_types {
            for e in envs.of(i, t) {
                out.extend((e.j as u64).to_le_bytes());
                for v in e.row.iter().chain(e.drow.iter().flatten()) {
                    out.extend(v.to_bits().to_le_bytes());
                }
            }
        }
    }
    out
}

#[test]
fn every_environment_bit_is_pinned() {
    type Row = (&'static str, PaperSystem, [usize; 3], bool, usize, u32);
    let rows: [Row; 5] = [
        ("Cu 108", PaperSystem::Cu, [1, 1, 1], false, 559056, 0x2cd3_1429),
        ("Al 32", PaperSystem::Al, [1, 1, 1], false, 58720, 0x2bd7_0506),
        ("H2O 48", PaperSystem::H2O, [1, 1, 1], false, 182960, 0x87c2_471f),
        ("Cu 3888", PaperSystem::Cu, [4, 3, 3], false, 19978864, 0x7465_45fc),
        ("Cu 3888 wrapped", PaperSystem::Cu, [4, 3, 3], true, 19978864, 0x5142_d0ae),
    ];
    for (name, system, reps, wrap, len, crc) in rows {
        let (cfg, stats, frame) = fixture(system, reps, wrap);
        let bytes = env_bytes(&cfg, &stats, &frame);
        assert_eq!((bytes.len(), crc32(&bytes)), (len, crc), "{name}: (length, CRC-32) of the environments");
    }
}
