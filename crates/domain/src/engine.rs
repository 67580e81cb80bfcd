//! The domain-decomposed MD engine.
//!
//! Owns the decomposed state (one SoA [`DomainStore`] per domain),
//! runs the exchange → evaluate → reduce schedule, and advances the
//! system with velocity-Verlet. Every parallel phase distributes whole
//! domains over `dp-pool` workers via `parallel_for_each_mut`
//! (disjoint `&mut` per domain, no interior mutability), and every
//! cross-domain reduction happens sequentially in ascending global-id
//! order — which is what makes results bitwise identical at any domain
//! grid and any thread count (DESIGN §15).
//!
//! Per step:
//! 1. half kick + drift + wrap (per domain, per atom — intrinsic ops);
//! 2. migrate boundary-crossers to their new owner (sequential,
//!    gid order kept per store);
//! 3. ghost exchange (per-source outboxes, then per-destination
//!    collect + gid sort — the result is independent of source order);
//! 4. local evaluation on the merged owned+ghost sub-frame;
//! 5. energy reduction by ascending gid + second half kick.

use crate::grid::DomainGrid;
use crate::potential::{DomainPotential, LocalFrame};
use crate::store::{DomainStore, GhostStore, LocalArrays};
use crate::DomainError;
use dp_mdsim::cell::Cell;
use dp_mdsim::state::{State, Topology};
use dp_mdsim::units::{temperature_from_kinetic, ACC_CONV, KE_CONV};
use dp_mdsim::vec3::Vec3;

/// Ghost-selection slack (Å): absorbs the ≤ few-ulp disagreement
/// between the ownership rule (`domain_of`) and the region-interval
/// distance at domain faces. Extra marginal ghosts are filtered by the
/// exact `< cutoff` neighbour criterion, so slack never changes
/// results — it only guarantees no true neighbour is missed.
const GHOST_SLACK: f64 = 1e-9;

/// One replicated atom on its way to a neighbouring domain.
#[derive(Clone, Copy, Debug)]
struct GhostMsg {
    dst: usize,
    gid: usize,
    typ: usize,
    pos: Vec3,
    inner: bool,
}

/// An atom that crossed a domain face during the drift.
#[derive(Clone, Copy, Debug)]
struct Migrant {
    dst: usize,
    gid: usize,
    typ: usize,
    pos: Vec3,
    vel: Vec3,
}

/// Per-domain state bundle.
#[derive(Default)]
struct Domain {
    store: DomainStore,
    ghosts: GhostStore,
    loc: LocalArrays,
    inbox: Vec<GhostMsg>,
    out_e: Vec<f64>,
    out_f: Vec<Vec3>,
}

/// Domain-decomposed MD state + velocity-Verlet driver.
pub struct DecomposedMd {
    cell: Cell,
    grid: DomainGrid,
    pot: Box<dyn DomainPotential>,
    type_names: Vec<String>,
    masses: Vec<f64>,
    /// Global type ids, gid-indexed (types never migrate).
    types: Vec<usize>,
    domains: Vec<Domain>,
    /// Per-source ghost outboxes.
    ghost_out: Vec<Vec<GhostMsg>>,
    migrants: Vec<Migrant>,
    /// Per-gid energy gather buffer (scratch for the fixed-order sum).
    e_by_gid: Vec<f64>,
    /// Per-gid kinetic-term gather buffer.
    ke_by_gid: Vec<f64>,
    energy: f64,
}

impl DecomposedMd {
    /// Decompose `state` onto a `dims` domain grid and evaluate the
    /// initial forces/energy.
    ///
    /// Positions are wrapped into the cell (ownership needs canonical
    /// coordinates); velocities and types are taken as-is. Bonded
    /// topology is not supported — molecular systems stay on the
    /// single-cell `dp-mdsim` path.
    pub fn new(
        state: &State,
        pot: Box<dyn DomainPotential>,
        dims: [usize; 3],
    ) -> Result<Self, DomainError> {
        if state.n_atoms() == 0 {
            return Err(DomainError::EmptySystem);
        }
        if !state.topology.bonds.is_empty() || !state.topology.angles.is_empty() {
            return Err(DomainError::UnsupportedTopology {
                bonds: state.topology.bonds.len(),
                angles: state.topology.angles.len(),
            });
        }
        let cutoff = pot.cutoff();
        if cutoff > 0.5 * state.cell.min_length() + 1e-9 {
            return Err(DomainError::CutoffTooLarge {
                cutoff,
                min_length: state.cell.min_length(),
            });
        }
        let grid = DomainGrid::new(&state.cell, dims)?;
        let n_domains = grid.n_domains();
        let mut domains: Vec<Domain> = (0..n_domains).map(|_| Domain::default()).collect();
        for gid in 0..state.n_atoms() {
            let p = state.cell.wrap(&state.pos[gid]);
            let d = grid.domain_of(&p);
            domains[d].store.insert(gid, state.types[gid], p, state.vel[gid]);
        }
        let n = state.n_atoms();
        let mut md = DecomposedMd {
            cell: state.cell,
            grid,
            pot,
            type_names: state.type_names.clone(),
            masses: state.masses.clone(),
            types: state.types.clone(),
            domains,
            ghost_out: (0..n_domains).map(|_| Vec::new()).collect(),
            migrants: Vec::new(),
            e_by_gid: vec![0.0; n],
            ke_by_gid: vec![0.0; n],
            energy: 0.0,
        };
        md.compute();
        Ok(md)
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.types.len()
    }

    /// The domain grid.
    pub fn grid(&self) -> &DomainGrid {
        &self.grid
    }

    /// The global periodic cell.
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// Atoms currently owned by domain `d`.
    pub fn domain_len(&self, d: usize) -> usize {
        self.domains[d].store.len()
    }

    /// Ghosts currently replicated into domain `d`.
    pub fn ghost_len(&self, d: usize) -> usize {
        self.domains[d].ghosts.len()
    }

    /// Potential energy at the current positions (eV).
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Rebuild ghosts, evaluate the potential per domain, and reduce
    /// the total energy in ascending-gid order. Returns the energy.
    pub fn compute(&mut self) -> f64 {
        self.exchange_ghosts();
        let pot = self.pot.as_ref();
        let cell = &self.cell;
        let type_names = &self.type_names;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|d, dom| {
            dom.loc.rebuild(&dom.store, &dom.ghosts);
            let n = dom.loc.len();
            dom.out_e.clear();
            dom.out_e.resize(n, 0.0);
            dom.out_f.clear();
            dom.out_f.resize(n, Vec3::ZERO);
            let Domain { store, loc, out_e, out_f, .. } = dom;
            let frame = LocalFrame {
                cell,
                type_names,
                gids: &loc.gids,
                types: &loc.types,
                pos: &loc.pos,
                owned: &loc.owned,
                inner: &loc.inner,
            };
            pot.compute_local(d, &frame, out_e, out_f);
            for li in 0..loc.len() {
                let slot = loc.owned_slot[li];
                if slot != usize::MAX {
                    let f = out_f[li];
                    store.fx[slot] = f.0[0];
                    store.fy[slot] = f.0[1];
                    store.fz[slot] = f.0[2];
                    store.energy[slot] = out_e[li];
                }
            }
        });
        // Fixed-order reduction: scatter per-gid (each gid owned by
        // exactly one domain), then sum ascending.
        for dom in &self.domains {
            for (slot, &g) in dom.store.gid.iter().enumerate() {
                self.e_by_gid[g] = dom.store.energy[slot];
            }
        }
        let mut pe = 0.0;
        for &e in &self.e_by_gid {
            pe += e;
        }
        pe += self.pot.energy_offset(&self.types);
        self.energy = pe;
        pe
    }

    /// One velocity-Verlet NVE step of size `dt` (fs). Returns the new
    /// potential energy.
    pub fn step_nve(&mut self, dt: f64) -> f64 {
        let masses = &self.masses;
        let cell = &self.cell;
        // Half kick + drift + wrap. All per-atom intrinsic arithmetic,
        // mirroring dp_mdsim::integrate::velocity_verlet_step (plus the
        // wrap, applied identically at every grid).
        dp_pool::parallel_for_each_mut(&mut self.domains, &|_, dom| {
            let st = &mut dom.store;
            for i in 0..st.len() {
                let inv_m = ACC_CONV / masses[st.typ[i]];
                let s = 0.5 * dt * inv_m;
                st.vx[i] += st.fx[i] * s;
                st.vy[i] += st.fy[i] * s;
                st.vz[i] += st.fz[i] * s;
                let p = Vec3::new(
                    st.x[i] + st.vx[i] * dt,
                    st.y[i] + st.vy[i] * dt,
                    st.z[i] + st.vz[i] * dt,
                );
                let w = cell.wrap(&p);
                st.x[i] = w.0[0];
                st.y[i] = w.0[1];
                st.z[i] = w.0[2];
            }
        });
        self.migrate();
        let e = self.compute();
        // Second half kick with the new forces.
        let masses = &self.masses;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|_, dom| {
            let st = &mut dom.store;
            for i in 0..st.len() {
                let inv_m = ACC_CONV / masses[st.typ[i]];
                let s = 0.5 * dt * inv_m;
                st.vx[i] += st.fx[i] * s;
                st.vy[i] += st.fy[i] * s;
                st.vz[i] += st.fz[i] * s;
            }
        });
        e
    }

    /// Move atoms whose wrapped position left their owner's region to
    /// the new owner, keeping every store in ascending gid order (an
    /// ordered remove and insert per migrant, no allocation at a size
    /// seen before). Sequential and deterministic; forces/energies are
    /// left stale (the schedule always recomputes before reading them).
    fn migrate(&mut self) {
        self.migrants.clear();
        for d in 0..self.domains.len() {
            let store = &mut self.domains[d].store;
            let mut i = 0;
            while i < store.len() {
                let p = store.pos(i);
                let owner = self.grid.domain_of(&p);
                if owner != d {
                    self.migrants.push(Migrant {
                        dst: owner,
                        gid: store.gid[i],
                        typ: store.typ[i],
                        pos: p,
                        vel: store.vel(i),
                    });
                    store.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        for m in &self.migrants {
            self.domains[m.dst].store.insert(m.gid, m.typ, m.pos, m.vel);
        }
    }

    /// Rebuild every domain's ghost set from the current positions.
    fn exchange_ghosts(&mut self) {
        let grid = &self.grid;
        let n_domains = self.domains.len();
        let halo = self.pot.halo() + GHOST_SLACK;
        let halo2 = halo * halo;
        let rin = self.pot.cutoff() + GHOST_SLACK;
        let rin2 = rin * rin;
        // Phase 1: each source domain scans its owned atoms into its
        // outbox. Interior atoms (≥ halo from every own face) are
        // rejected in O(1); only the surface shell pays the
        // per-destination distance test.
        let domains = &self.domains;
        dp_pool::parallel_for_each_mut(&mut self.ghost_out, &|src, out| {
            out.clear();
            let store = &domains[src].store;
            for i in 0..store.len() {
                let p = store.pos(i);
                if grid.interior_margin(&p, src) >= halo {
                    continue;
                }
                for dst in 0..n_domains {
                    if dst == src {
                        continue;
                    }
                    let d2 = grid.dist2_to_domain(&p, dst);
                    if d2 < halo2 {
                        out.push(GhostMsg {
                            dst,
                            gid: store.gid[i],
                            typ: store.typ[i],
                            pos: p,
                            inner: d2 < rin2,
                        });
                    }
                }
            }
        });
        // Phase 2: each destination collects its messages and sorts by
        // gid — the ghost set is then independent of source order.
        let ghost_out = &self.ghost_out;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|dst, dom| {
            dom.inbox.clear();
            for outbox in ghost_out {
                for msg in outbox {
                    if msg.dst == dst {
                        dom.inbox.push(*msg);
                    }
                }
            }
            dom.inbox.sort_unstable_by_key(|m| m.gid);
            dom.ghosts.clear();
            for m in &dom.inbox {
                dom.ghosts.gid.push(m.gid);
                dom.ghosts.typ.push(m.typ);
                dom.ghosts.pos.push(m.pos);
                dom.ghosts.inner.push(m.inner);
            }
        });
    }

    /// Per-atom potential energies in gid order (from the last
    /// evaluation).
    pub fn energies(&self) -> Vec<f64> {
        self.e_by_gid.clone()
    }

    /// Forces in gid order (from the last evaluation).
    pub fn forces(&self) -> Vec<Vec3> {
        let mut f = vec![Vec3::ZERO; self.n_atoms()];
        for dom in &self.domains {
            for (slot, &g) in dom.store.gid.iter().enumerate() {
                f[g] = dom.store.force(slot);
            }
        }
        f
    }

    /// Total kinetic energy (eV), reduced in ascending-gid order.
    pub fn kinetic_energy(&mut self) -> f64 {
        for dom in &self.domains {
            let st = &dom.store;
            for (slot, &g) in st.gid.iter().enumerate() {
                let v = st.vel(slot);
                self.ke_by_gid[g] = KE_CONV * self.masses[st.typ[slot]] * v.norm2();
            }
        }
        let mut ke = 0.0;
        for &k in &self.ke_by_gid {
            ke += k;
        }
        ke
    }

    /// Instantaneous temperature (K).
    pub fn temperature(&mut self) -> f64 {
        temperature_from_kinetic(self.kinetic_energy(), self.n_atoms())
    }

    /// Owning domain of atom `gid` (scan; test/diagnostic helper).
    pub fn owner_of(&self, gid: usize) -> Option<usize> {
        for (d, dom) in self.domains.iter().enumerate() {
            if dom.store.gid.binary_search(&gid).is_ok() {
                return Some(d);
            }
        }
        None
    }

    /// Check the decomposition invariants: every atom owned exactly
    /// once, every store gid-ascending, every owned position wrapped
    /// and inside its owner's region.
    ///
    /// # Panics
    /// Panics on the first violation (test/diagnostic helper).
    pub fn assert_invariants(&self) {
        let mut seen = vec![false; self.n_atoms()];
        let lens = self.cell.lengths();
        for (d, dom) in self.domains.iter().enumerate() {
            let st = &dom.store;
            assert!(st.gid.windows(2).all(|w| w[0] < w[1]), "domain {d}: gids not ascending");
            for (slot, &g) in st.gid.iter().enumerate() {
                assert!(!seen[g], "atom {g} owned twice");
                seen[g] = true;
                let p = st.pos(slot);
                for (&x, &len) in p.0.iter().zip(lens.iter()) {
                    assert!(x >= 0.0 && x < len + 1e-12, "atom {g} not wrapped: {p:?}");
                }
                assert_eq!(self.grid.domain_of(&p), d, "atom {g} owned by the wrong domain");
            }
        }
        assert!(seen.iter().all(|&s| s), "atom lost during migration");
    }

    /// Reassemble the global state (gid order, wrapped positions).
    pub fn gather(&self) -> State {
        let n = self.n_atoms();
        let mut pos = vec![Vec3::ZERO; n];
        let mut vel = vec![Vec3::ZERO; n];
        for dom in &self.domains {
            let st = &dom.store;
            for (slot, &g) in st.gid.iter().enumerate() {
                pos[g] = st.pos(slot);
                vel[g] = st.vel(slot);
            }
        }
        State {
            cell: self.cell,
            type_names: self.type_names.clone(),
            masses: self.masses.clone(),
            types: self.types.clone(),
            pos,
            vel,
            topology: Topology::default(),
        }
    }
}
