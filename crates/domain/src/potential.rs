//! Potentials evaluated on a domain's local (owned + ghost) sub-frame.
//!
//! A [`DomainPotential`] receives a [`LocalFrame`] — the merged,
//! gid-ascending owned+ghost view of one domain — and fills per-local-
//! atom energies and forces. The engine consumes only the owned
//! entries; ghost outputs are scratch. Two implementations:
//!
//! * [`LocalSuttonChen`] — the per-atom form of `dp-mdsim`'s
//!   Sutton–Chen EAM: densities for every centre-eligible atom, then
//!   per-owned-atom energy `ε(½Σ φ(r) − c√ρᵢ)` and force, each summed
//!   over gid-ascending neighbours. Per-atom values are intrinsic
//!   (they depend only on the atom's ≤ `2·rcut` surroundings, all
//!   present in the halo), so they are bitwise identical at any grid.
//! * [`DeepDomainPotential`] — the DeePMD model evaluated on the
//!   sub-frame's centre-eligible atoms in a per-domain workspace;
//!   owned per-atom residuals and force rows are bitwise equal to the
//!   single-frame `predict` (see DESIGN §15 for the argument).

use deepmd_core::env::Envs;
use deepmd_core::model::{DeepPotModel, Workspace};
use dp_mdsim::cell::Cell;
use dp_mdsim::neighbor::{Lists, NeighborList};
use dp_mdsim::potential::sutton_chen::SuttonChenParams;
use dp_mdsim::vec3::Vec3;
use std::sync::Mutex;

/// One domain's merged owned+ghost view, sorted ascending by global id.
///
/// Positions are wrapped into the **global** cell and displacements are
/// always taken with the global minimum-image map, so periodicity is
/// handled exactly as in the single-domain path.
pub struct LocalFrame<'a> {
    /// The global periodic cell.
    pub cell: &'a Cell,
    /// Species names indexed by type id (global table).
    pub type_names: &'a [String],
    /// Global atom ids, ascending.
    pub gids: &'a [usize],
    /// Global type ids per local atom.
    pub types: &'a [usize],
    /// Wrapped positions per local atom (owner's exact bits).
    pub pos: &'a [Vec3],
    /// Owned flag per local atom.
    pub owned: &'a [bool],
    /// Centre-evaluation flag: owned atoms and ghosts within `cutoff`
    /// of the region (their intermediate quantities can feed owned
    /// results; outer ghosts — between `cutoff` and `halo` — cannot).
    pub inner: &'a [bool],
}

impl LocalFrame<'_> {
    /// Number of local atoms.
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True when the domain sees no atoms at all.
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }
}

/// A potential evaluated per domain on local sub-frames.
pub trait DomainPotential: Send + Sync {
    /// Interaction cutoff (Å).
    fn cutoff(&self) -> f64;

    /// Ghost-selection halo width (Å). The default `2 × cutoff` lets
    /// many-body potentials evaluate inner-ghost centres locally and
    /// redundantly — every centre within `cutoff` of the region has
    /// its full neighbourhood inside the halo, so its intermediate
    /// values (EAM density, descriptor rows) come out bitwise
    /// identical on every domain that computes them, and no mid-step
    /// scalar exchange round is needed. Strictly pairwise potentials
    /// may override this down to `cutoff`.
    fn halo(&self) -> f64 {
        2.0 * self.cutoff()
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Fill `energy[i]`/`forces[i]` for every **owned** local atom `i`
    /// of `frame` (ghost entries are scratch the engine ignores).
    /// `domain` indexes per-domain state such as env caches. Both
    /// output slices have `frame.len()` entries and arrive zeroed.
    fn compute_local(
        &self,
        domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    );

    /// Global energy contribution that is not attributable per atom
    /// (the deep model's type bias). Added once, after the per-atom
    /// gid-ascending reduction, from the global type array.
    fn energy_offset(&self, types: &[usize]) -> f64 {
        let _ = types;
        0.0
    }
}

/// Per-atom Sutton–Chen EAM over a local sub-frame.
///
/// Mirrors `dp_mdsim::potential::sutton_chen::SuttonChen` exactly
/// (same kernels, same shifts, same guard for isolated atoms); the
/// only difference is the accumulation grouping — per centre over
/// ascending neighbours instead of per pair — which the decomposed≡
/// single-domain bitwise contract requires and the dp-verify `domain`
/// family cross-checks against the pair form at tight-ULP tolerance.
pub struct LocalSuttonChen {
    p: SuttonChenParams,
    cutoff: f64,
    pair_shift: f64,
    dens_shift: f64,
}

impl LocalSuttonChen {
    /// Build with the given cutoff (Å).
    pub fn new(p: SuttonChenParams, cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "Sutton-Chen cutoff must be positive");
        LocalSuttonChen {
            p,
            cutoff,
            pair_shift: (p.a / cutoff).powi(p.n),
            dens_shift: (p.a / cutoff).powi(p.m),
        }
    }

    #[inline]
    fn pair_kernel(&self, r: f64) -> f64 {
        (self.p.a / r).powi(self.p.n) - self.pair_shift
    }

    #[inline]
    fn pair_kernel_deriv(&self, r: f64) -> f64 {
        -(self.p.n as f64) * (self.p.a / r).powi(self.p.n) / r
    }

    #[inline]
    fn dens_kernel(&self, r: f64) -> f64 {
        (self.p.a / r).powi(self.p.m) - self.dens_shift
    }

    #[inline]
    fn dens_kernel_deriv(&self, r: f64) -> f64 {
        -(self.p.m as f64) * (self.p.a / r).powi(self.p.m) / r
    }
}

impl DomainPotential for LocalSuttonChen {
    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn name(&self) -> &'static str {
        "sutton-chen/local"
    }

    fn compute_local(
        &self,
        _domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        let n = frame.len();
        if n == 0 {
            return;
        }
        // Lists for the `inner` atoms only: pass 1 walks them, pass 2
        // walks the owned ones, and owned ⊂ inner.
        let mut nl = NeighborList::default();
        nl.search(frame.cell, frame.pos, self.cutoff, Lists::Centres(frame.inner));
        // Pass 1: densities for every centre-eligible atom. A ghost
        // neighbour of an owned atom is always `inner` (it is within
        // `cutoff` of the region), and its own neighbourhood is fully
        // inside the `2·cutoff` halo — so this value is bitwise the
        // one its owner computes.
        let mut rho = vec![0.0; n];
        let mut inv_sqrt_rho = vec![0.0; n];
        for i in 0..n {
            if !frame.inner[i] {
                continue;
            }
            let mut r = 0.0;
            for nb in nl.neighbors_of(i) {
                r += self.dens_kernel(nb.dist);
            }
            rho[i] = r;
            if r > 0.0 {
                inv_sqrt_rho[i] = 1.0 / r.sqrt();
            }
        }
        // Pass 2: per-owned-atom energy and force over ascending
        // neighbours.
        for i in 0..n {
            if !frame.owned[i] {
                continue;
            }
            let mut e_pair = 0.0;
            let mut f = Vec3::ZERO;
            for nb in nl.neighbors_of(i) {
                e_pair += self.pair_kernel(nb.dist);
                let dpair = self.p.epsilon * self.pair_kernel_deriv(nb.dist);
                let demb = -self.p.epsilon
                    * self.p.c
                    * 0.5
                    * (inv_sqrt_rho[i] + inv_sqrt_rho[nb.j])
                    * self.dens_kernel_deriv(nb.dist);
                f += nb.rij * ((dpair + demb) / nb.dist);
            }
            let mut e = 0.5 * self.p.epsilon * e_pair;
            if rho[i] > 0.0 {
                e -= self.p.epsilon * self.p.c * rho[i].sqrt();
            }
            energy[i] = e;
            forces[i] = f;
        }
    }
}

/// The DeePMD model evaluated per domain on the local sub-frame.
///
/// Owned rows of the result are bitwise equal to `model.predict` on
/// the assembled global frame: the sub-frame holds every atom within
/// `2·rcut` of the region in ascending gid order, so each owned (and
/// inner-ghost) centre sees exactly its global environment rows in the
/// global order, and the backward accumulates into each owned atom the
/// same contribution sequence as the global pass. Only the `inner`
/// atoms are evaluated as centres: an outer ghost is ≥ `rcut` from
/// every owned atom, so as a centre it could not touch an owned row.
pub struct DeepDomainPotential {
    model: DeepPotModel,
    /// One recycled workspace per domain.
    workspaces: Vec<Mutex<DomainWorkspace>>,
}

/// The buffers one domain's evaluation reuses step after step: the
/// neighbour search, the environments and the model workspace. Once
/// they have seen the domain's size, a step allocates nothing.
#[derive(Default)]
struct DomainWorkspace {
    nl: NeighborList,
    envs: Envs,
    model: Workspace,
}

impl DeepDomainPotential {
    /// Wrap `model` with one workspace per domain.
    pub fn new(model: DeepPotModel, n_domains: usize) -> Self {
        let workspaces = (0..n_domains.max(1)).map(|_| Mutex::default()).collect();
        DeepDomainPotential { model, workspaces }
    }

    /// The wrapped model.
    pub fn model(&self) -> &DeepPotModel {
        &self.model
    }
}

impl DomainPotential for DeepDomainPotential {
    fn cutoff(&self) -> f64 {
        self.model.cfg.rcut
    }

    fn name(&self) -> &'static str {
        "deep-pot/local"
    }

    fn compute_local(
        &self,
        domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        if frame.is_empty() {
            return;
        }
        let (cfg, stats) = (&self.model.cfg, &self.model.stats);
        let mut guard = self.workspaces[domain % self.workspaces.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let DomainWorkspace { nl, envs, model } = &mut *guard;
        envs.rebuild(cfg, stats, frame.cell, frame.types, frame.pos, Some(frame.inner), nl);
        self.model.eval_centres(model, frame.types, envs, frame.inner, energy, forces);
    }

    fn energy_offset(&self, types: &[usize]) -> f64 {
        self.model.bias.reference_energy(types)
    }
}
