//! Small self-contained serving fixtures: a one-species Al model and
//! jittered fcc frames, cheap enough for CI smoke runs (no MD
//! labelling, no training). Shared by the serve binaries, the
//! integration tests and the examples so they all exercise the same
//! geometry.

use deepmd_core::config::ModelConfig;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::{Dataset, Snapshot};
use dp_mdsim::lattice::{fcc, Species};
use dp_mdsim::Vec3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A 32-atom fcc aluminium frame with seed-deterministic jitter.
pub fn demo_frame(seed: u64) -> Snapshot {
    let mut s = fcc(Species::new("Al", 27.0), 4.05, [2, 2, 2]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    s.jitter_positions(0.1, &mut rng);
    Snapshot {
        cell: s.cell.lengths(),
        types: s.types.clone(),
        type_names: s.type_names.clone(),
        pos: s.pos.clone(),
        energy: -3.0,
        forces: vec![Vec3::ZERO; s.n_atoms()],
        temperature: 300.0,
    }
}

/// A small untrained (but statistically initialized) Al model whose
/// weights — and therefore served energies — depend on `seed`, so two
/// seeds make two distinguishable published versions.
pub fn demo_model(seed: u64) -> DeepPotModel {
    let mut cfg = ModelConfig::small(1, 3.4);
    cfg.rcut_smooth = 2.0;
    cfg.seed = seed;
    let mut ds = Dataset::new("Al", vec!["Al".into()]);
    ds.push(demo_frame(1));
    ds.push(demo_frame(2));
    DeepPotModel::new(cfg, &ds)
}

/// A 108-atom 3×3×3 fcc aluminium frame — big enough to legally carry
/// the production 6 Å cutoff (`rcut ≤ L/2`): a paper-sized request.
pub fn demo_frame_paper(seed: u64) -> Snapshot {
    let mut s = fcc(Species::new("Al", 27.0), 4.05, [3, 3, 3]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    s.jitter_positions(0.1, &mut rng);
    Snapshot {
        cell: s.cell.lengths(),
        types: s.types.clone(),
        type_names: s.type_names.clone(),
        pos: s.pos.clone(),
        energy: -3.0,
        forces: vec![Vec3::ZERO; s.n_atoms()],
        temperature: 300.0,
    }
}
