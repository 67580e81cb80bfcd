//! NNMD inference: drive molecular dynamics with a trained Deep
//! Potential.
//!
//! This closes the loop the paper's title points at: a model trained in
//! minutes is immediately usable as the force field of an MD simulation
//! ([`DeepPotential`] implements [`dp_mdsim::potential::Potential`]),
//! which is what produces the next batch of configurations in an
//! online-learning workflow.
//!
//! Because the model's forces are exact gradients of its energy
//! (finite-difference-verified in `model.rs`), NVE dynamics under the
//! learned potential conserves energy to integrator order — the
//! standard sanity check for NNMD deployments, exercised in the tests
//! and the `nnmd_validation` example.

use crate::model::DeepPotModel;
use dp_data::dataset::Snapshot;
use dp_mdsim::neighbor::NeighborList;
use dp_mdsim::potential::Potential;
use dp_mdsim::state::State;
use dp_mdsim::Vec3;

/// A trained Deep Potential wrapped as an MD force field.
pub struct DeepPotential {
    model: DeepPotModel,
}

impl DeepPotential {
    /// Wrap a trained model.
    pub fn new(model: DeepPotModel) -> Self {
        DeepPotential { model }
    }

    /// Borrow the underlying model.
    pub fn model(&self) -> &DeepPotModel {
        &self.model
    }

    fn state_to_frame(&self, state: &State) -> Snapshot {
        Snapshot {
            cell: state.cell.lengths(),
            types: state.types.clone(),
            type_names: state.type_names.clone(),
            pos: state.pos.iter().map(|p| state.cell.wrap(p)).collect(),
            energy: 0.0,
            forces: vec![Vec3::ZERO; state.n_atoms()],
            temperature: 0.0,
        }
    }
}

impl Potential for DeepPotential {
    fn cutoff(&self) -> f64 {
        self.model.cfg.rcut
    }

    fn name(&self) -> &'static str {
        "deep-potential"
    }

    fn compute(&self, state: &State, _nl: &NeighborList, forces: &mut [Vec3]) -> f64 {
        // The model builds its own typed environments from the frame
        // (the passed neighbour list is not reused; the model's cutoff
        // may differ from the composite list the integrator built).
        let frame = self.state_to_frame(state);
        let pass = self.model.forward(&frame);
        let f = self.model.forces(&pass);
        for (dst, src) in forces.iter_mut().zip(&f) {
            *dst += *src;
        }
        pass.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dp_data::dataset::Dataset;
    use dp_mdsim::integrate::{evaluate, velocity_verlet_step};
    use dp_mdsim::lattice::{fcc, Species};
    use dp_mdsim::potential::check_forces_fd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn training_frame(seed: u64) -> Snapshot {
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

    fn wrapped_model() -> DeepPotential {
        let mut cfg = ModelConfig::small(1, 3.4);
        cfg.rcut_smooth = 2.0;
        let mut ds = Dataset::new("Al", vec!["Al".into()]);
        ds.push(training_frame(1));
        ds.push(training_frame(2));
        DeepPotential::new(DeepPotModel::new(cfg, &ds))
    }

    #[test]
    fn potential_forces_match_finite_differences() {
        let pot = wrapped_model();
        let mut s = fcc(Species::new("Al", 27.0), 4.05, [2, 2, 2]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        s.jitter_positions(0.12, &mut rng);
        check_forces_fd(&pot, &s, 1e-5, 1e-4);
    }

    #[test]
    fn nve_under_the_learned_potential_conserves_energy() {
        let pot = wrapped_model();
        let mut s = fcc(Species::new("Al", 27.0), 4.05, [2, 2, 2]);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        s.jitter_positions(0.05, &mut rng);
        s.init_velocities(150.0, &mut rng);
        let (e0_pot, mut forces) = evaluate(&pot, &s);
        let e0 = e0_pot + s.kinetic_energy();
        let mut e_pot = e0_pot;
        for _ in 0..120 {
            e_pot = velocity_verlet_step(&pot, &mut s, &mut forces, 1.0);
        }
        let e1 = e_pot + s.kinetic_energy();
        let drift = (e1 - e0).abs() / s.n_atoms() as f64;
        assert!(
            drift < 5e-4,
            "NVE drift under the learned potential: {drift} eV/atom"
        );
    }

    #[test]
    fn wrapped_energy_matches_direct_prediction() {
        let pot = wrapped_model();
        let s = fcc(Species::new("Al", 27.0), 4.05, [2, 2, 2]);
        let nl = NeighborList::build(&s.cell, &s.pos, pot.cutoff());
        let mut forces = vec![Vec3::ZERO; s.n_atoms()];
        let e = pot.compute(&s, &nl, &mut forces);
        let frame = pot.state_to_frame(&s);
        let direct = pot.model().predict(&frame);
        assert_eq!(e, direct.energy);
        for (a, b) in forces.iter().zip(&direct.forces) {
            assert_eq!(a.0, b.0);
        }
    }
}
