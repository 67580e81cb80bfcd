//! Simulation state: atoms, types, velocities, and (for molecular
//! systems) bonded topology.

use crate::cell::Cell;
use crate::units::{temperature_from_kinetic, KE_CONV};
use crate::vec3::Vec3;
use rand::Rng;

/// Harmonic bond between two atoms.
#[derive(Clone, Copy, Debug)]
pub struct Bond {
    /// First atom index.
    pub i: usize,
    /// Second atom index.
    pub j: usize,
}

/// Angle `i–j–k` centred on `j`.
#[derive(Clone, Copy, Debug)]
pub struct Angle {
    /// First flank atom.
    pub i: usize,
    /// Central atom.
    pub j: usize,
    /// Second flank atom.
    pub k: usize,
}

/// Bonded topology (empty for atomic crystals).
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Bond list.
    pub bonds: Vec<Bond>,
    /// Angle list.
    pub angles: Vec<Angle>,
}

/// Full dynamical state of a periodic atomic system.
#[derive(Clone, Debug)]
pub struct State {
    /// Periodic cell.
    pub cell: Cell,
    /// Chemical-species names, indexed by type id.
    pub type_names: Vec<String>,
    /// Atomic masses (amu), indexed by type id.
    pub masses: Vec<f64>,
    /// Per-atom type id.
    pub types: Vec<usize>,
    /// Positions (Å).
    pub pos: Vec<Vec3>,
    /// Velocities (Å/fs).
    pub vel: Vec<Vec3>,
    /// Bonded topology (for molecular systems such as water).
    pub topology: Topology,
}

impl State {
    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.pos.len()
    }

    /// Mass (amu) of atom `i`.
    #[inline]
    pub fn mass_of(&self, i: usize) -> f64 {
        self.masses[self.types[i]]
    }

    /// Total kinetic energy in eV.
    pub fn kinetic_energy(&self) -> f64 {
        self.vel
            .iter()
            .zip(&self.types)
            .map(|(v, &t)| KE_CONV * self.masses[t] * v.norm2())
            .sum()
    }

    /// Instantaneous temperature in K.
    pub fn temperature(&self) -> f64 {
        temperature_from_kinetic(self.kinetic_energy(), self.n_atoms())
    }

    /// Draw Maxwell–Boltzmann velocities at temperature `t` (K), then
    /// remove the centre-of-mass drift.
    pub fn init_velocities(&mut self, t: f64, rng: &mut impl Rng) {
        use crate::units::KB_EV;
        for i in 0..self.n_atoms() {
            let m = self.mass_of(i);
            // σ_v = sqrt(kB T / m) in Å/fs: kB T [eV] → v² via 1/(2·KE_CONV·m).
            let sigma = (KB_EV * t / (2.0 * KE_CONV * m)).sqrt();
            let mut v = [0.0; 3];
            for c in &mut v {
                // Box–Muller normal deviate.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                *c = sigma
                    * (-2.0 * u1.ln()).sqrt()
                    * (2.0 * std::f64::consts::PI * u2).cos();
            }
            self.vel[i] = Vec3(v);
        }
        self.remove_com_velocity();
    }

    /// Subtract the mass-weighted centre-of-mass velocity.
    pub fn remove_com_velocity(&mut self) {
        let mut p = Vec3::ZERO;
        let mut m_tot = 0.0;
        for i in 0..self.n_atoms() {
            let m = self.mass_of(i);
            p += self.vel[i] * m;
            m_tot += m;
        }
        if m_tot == 0.0 {
            return;
        }
        let v_com = p * (1.0 / m_tot);
        for v in &mut self.vel {
            *v -= v_com;
        }
    }

    /// Randomly displace every atom by a uniform jitter in `[-amp, amp]`
    /// per component (used to break perfect-lattice symmetry before MD).
    pub fn jitter_positions(&mut self, amp: f64, rng: &mut impl Rng) {
        for p in &mut self.pos {
            for c in &mut p.0 {
                *c += rng.gen_range(-amp..=amp);
            }
        }
    }

    /// Tile the periodic cell `nx × ny × nz` times into a supercell.
    ///
    /// Image `(ax, ay, az)` of atom `i` lands at index
    /// `(ax*ny + ay)*nz + az)*n + i` — images are ordered
    /// lexicographically by image coordinate and keep the base-cell
    /// atom order within each image, so replication is deterministic
    /// and the first `n` atoms of the supercell are the original cell.
    /// Velocities are copied per image and bonded topology indices are
    /// offset per image (bonds/angles never span images; the base-cell
    /// builders keep molecules whole).
    ///
    /// # Panics
    /// Panics if any factor is zero.
    pub fn replicate(&self, reps: [usize; 3]) -> State {
        let [nx, ny, nz] = reps;
        assert!(nx > 0 && ny > 0 && nz > 0, "replication factors must be positive");
        let lens = self.cell.lengths();
        let cell = Cell::orthorhombic(lens[0] * nx as f64, lens[1] * ny as f64, lens[2] * nz as f64);
        let n = self.n_atoms();
        let n_images = nx * ny * nz;
        let mut types = Vec::with_capacity(n * n_images);
        let mut pos = Vec::with_capacity(n * n_images);
        let mut vel = Vec::with_capacity(n * n_images);
        let mut topology = Topology::default();
        for ax in 0..nx {
            for ay in 0..ny {
                for az in 0..nz {
                    let shift =
                        Vec3::new(ax as f64 * lens[0], ay as f64 * lens[1], az as f64 * lens[2]);
                    let off = pos.len();
                    types.extend_from_slice(&self.types);
                    pos.extend(self.pos.iter().map(|p| *p + shift));
                    vel.extend_from_slice(&self.vel);
                    topology.bonds.extend(
                        self.topology.bonds.iter().map(|b| Bond { i: b.i + off, j: b.j + off }),
                    );
                    topology.angles.extend(
                        self.topology
                            .angles
                            .iter()
                            .map(|a| Angle { i: a.i + off, j: a.j + off, k: a.k + off }),
                    );
                }
            }
        }
        State {
            cell,
            type_names: self.type_names.clone(),
            masses: self.masses.clone(),
            types,
            pos,
            vel,
            topology,
        }
    }

    /// Count of atoms per type id.
    pub fn type_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.type_names.len()];
        for &t in &self.types {
            counts[t] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn two_atom_state() -> State {
        State {
            cell: Cell::cubic(10.0),
            type_names: vec!["A".into()],
            masses: vec![10.0],
            types: vec![0, 0],
            pos: vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)],
            vel: vec![Vec3::ZERO; 2],
            topology: Topology::default(),
        }
    }

    #[test]
    fn velocity_init_reaches_requested_temperature() {
        let mut s = two_atom_state();
        // Many atoms for statistics.
        s.types = vec![0; 500];
        s.pos = vec![Vec3::ZERO; 500];
        s.vel = vec![Vec3::ZERO; 500];
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        s.init_velocities(300.0, &mut rng);
        let t = s.temperature();
        assert!((t - 300.0).abs() < 30.0, "temperature {t} too far from 300");
    }

    #[test]
    fn com_velocity_removed() {
        let mut s = two_atom_state();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        s.init_velocities(500.0, &mut rng);
        let p: Vec3 = s
            .vel
            .iter()
            .enumerate()
            .fold(Vec3::ZERO, |acc, (i, v)| acc + *v * s.mass_of(i));
        assert!(p.norm() < 1e-10);
    }

    #[test]
    fn kinetic_energy_hand_value() {
        let mut s = two_atom_state();
        s.vel[0] = Vec3::new(0.01, 0.0, 0.0);
        let expect = KE_CONV * 10.0 * 0.0001;
        assert!((s.kinetic_energy() - expect).abs() < 1e-12);
    }

    #[test]
    fn replicate_tiles_cell_atoms_and_topology() {
        let mut s = two_atom_state();
        s.vel[1] = Vec3::new(0.01, -0.02, 0.03);
        s.topology.bonds.push(Bond { i: 0, j: 1 });
        s.topology.angles.push(Angle { i: 0, j: 1, k: 0 });
        let r = s.replicate([2, 1, 3]);
        assert_eq!(r.n_atoms(), 12);
        assert_eq!(r.cell.lengths(), [20.0, 10.0, 30.0]);
        assert_eq!(r.topology.bonds.len(), 6);
        assert_eq!(r.topology.angles.len(), 6);
        // First image is the original cell verbatim.
        assert_eq!(r.pos[0].0, s.pos[0].0);
        assert_eq!(r.pos[1].0, s.pos[1].0);
        // Image (1, 0, 2) of atom 1: index ((1*1 + 0)*3 + 2)*2 + 1 = 11.
        let idx = 11;
        assert_eq!(r.pos[idx].0, [11.0, 0.0, 20.0]);
        assert_eq!(r.vel[idx].0, s.vel[1].0);
        assert_eq!(r.types[idx], s.types[1]);
        // Topology indices are offset per image and never span images.
        for (img, b) in r.topology.bonds.iter().enumerate() {
            assert_eq!((b.i, b.j), (2 * img, 2 * img + 1));
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn replicate_rejects_zero_factor() {
        let _ = two_atom_state().replicate([2, 0, 1]);
    }

    #[test]
    fn type_counts() {
        let mut s = two_atom_state();
        s.type_names = vec!["A".into(), "B".into()];
        s.masses = vec![1.0, 2.0];
        s.types = vec![0, 1];
        assert_eq!(s.type_counts(), vec![1, 1]);
    }
}
