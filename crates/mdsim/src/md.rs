//! MD simulation driver producing labelled training frames.
//!
//! Mirrors the paper's data-generation protocol (§4, Table 3): for each
//! temperature, run thermostatted dynamics with a small time step,
//! "fast generate a long sequence of snapshots … and choose one for
//! every fixed number" — i.e. subsample the trajectory at a stride to
//! decorrelate configurations.

use crate::integrate::{evaluate, langevin_step, Langevin};
use crate::potential::Potential;
use crate::state::State;
use crate::vec3::Vec3;
use rand::Rng;

/// One labelled snapshot: configuration plus its exact energy/forces
/// under the labelling potential (our "ab initio" oracle).
#[derive(Clone, Debug)]
pub struct LabeledFrame {
    /// Cell edge lengths (Å).
    pub cell: [f64; 3],
    /// Per-atom type ids.
    pub types: Vec<usize>,
    /// Species names indexed by type id.
    pub type_names: Vec<String>,
    /// Positions (Å), wrapped into the cell.
    pub pos: Vec<Vec3>,
    /// Label: total potential energy (eV).
    pub energy: f64,
    /// Label: forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Temperature (K) of the generating trajectory.
    pub temperature: f64,
}

/// MD sampling configuration for one temperature.
#[derive(Clone, Copy, Debug)]
pub struct MdConfig {
    /// Integration timestep (fs).
    pub dt: f64,
    /// Thermostat temperature (K).
    pub temperature: f64,
    /// Langevin friction (1/fs).
    pub friction: f64,
    /// Equilibration steps discarded before sampling.
    pub equilibration: usize,
    /// Stride between recorded snapshots.
    pub stride: usize,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            dt: 1.0,
            temperature: 300.0,
            friction: 0.05,
            equilibration: 200,
            stride: 10,
        }
    }
}

/// Runs thermostatted MD and collects labelled frames.
pub struct MdRunner<'a> {
    potential: &'a dyn Potential,
}

impl<'a> MdRunner<'a> {
    /// Create a runner over the labelling potential.
    pub fn new(potential: &'a dyn Potential) -> Self {
        MdRunner { potential }
    }

    /// Sample `n_frames` labelled frames from a trajectory started at
    /// `state` (which is consumed as the working configuration).
    pub fn sample(
        &self,
        mut state: State,
        cfg: &MdConfig,
        n_frames: usize,
        rng: &mut impl Rng,
    ) -> Vec<LabeledFrame> {
        state.init_velocities(cfg.temperature, rng);
        let thermostat = Langevin {
            temperature: cfg.temperature,
            friction: cfg.friction,
        };
        let (_, mut forces) = evaluate(self.potential, &state);
        for _ in 0..cfg.equilibration {
            langevin_step(self.potential, &mut state, &mut forces, cfg.dt, &thermostat, rng);
        }
        let mut frames = Vec::with_capacity(n_frames);
        while frames.len() < n_frames {
            let mut energy = 0.0;
            for _ in 0..cfg.stride.max(1) {
                energy = langevin_step(
                    self.potential,
                    &mut state,
                    &mut forces,
                    cfg.dt,
                    &thermostat,
                    rng,
                );
            }
            frames.push(LabeledFrame {
                cell: state.cell.lengths(),
                types: state.types.clone(),
                type_names: state.type_names.clone(),
                pos: state.pos.iter().map(|p| state.cell.wrap(p)).collect(),
                energy,
                forces: forces.clone(),
                temperature: cfg.temperature,
            });
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{fcc, Species};
    use crate::neighbor::NeighborList;
    use crate::potential::sutton_chen::{SuttonChen, SuttonChenParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampled_frames_have_consistent_labels() {
        let s = fcc(Species::new("Cu", 63.546), 3.61, [2, 2, 2]);
        let pot = SuttonChen::new(SuttonChenParams::copper(), 3.5);
        let runner = MdRunner::new(&pot);
        let cfg = MdConfig { equilibration: 50, stride: 5, ..Default::default() };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let frames = runner.sample(s, &cfg, 4, &mut rng);
        assert_eq!(frames.len(), 4);
        for f in &frames {
            // Re-evaluating the potential at the stored positions must
            // reproduce the stored labels exactly (same oracle).
            let state = State {
                cell: crate::cell::Cell::orthorhombic(f.cell[0], f.cell[1], f.cell[2]),
                type_names: f.type_names.clone(),
                masses: vec![63.546],
                types: f.types.clone(),
                pos: f.pos.clone(),
                vel: vec![Vec3::ZERO; f.pos.len()],
                topology: Default::default(),
            };
            let nl = NeighborList::build(&state.cell, &state.pos, pot.cutoff());
            let mut forces = vec![Vec3::ZERO; state.n_atoms()];
            let e = pot.compute(&state, &nl, &mut forces);
            assert!((e - f.energy).abs() < 1e-9, "energy label mismatch");
            for (a, b) in forces.iter().zip(&f.forces) {
                assert!((*a - *b).norm() < 1e-9, "force label mismatch");
            }
        }
    }

    #[test]
    fn frames_are_decorrelated_by_stride() {
        let s = fcc(Species::new("Cu", 63.546), 3.61, [2, 2, 2]);
        let pot = SuttonChen::new(SuttonChenParams::copper(), 3.5);
        let runner = MdRunner::new(&pot);
        let cfg = MdConfig {
            temperature: 800.0,
            equilibration: 50,
            stride: 10,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let frames = runner.sample(s, &cfg, 3, &mut rng);
        // Successive frames must differ meaningfully.
        let d01: f64 = frames[0]
            .pos
            .iter()
            .zip(&frames[1].pos)
            .map(|(a, b)| (*a - *b).norm())
            .sum();
        assert!(d01 > 1e-3, "stride produced identical frames");
        // Energies differ too.
        assert!((frames[0].energy - frames[1].energy).abs() > 1e-9);
    }
}
