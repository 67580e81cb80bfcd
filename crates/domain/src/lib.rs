//! # dp-domain — domain-decomposed MD engine
//!
//! Scales the MD side from the paper's single-cell generators (32–108
//! atoms) to the 10⁴–10⁶-atom supercells the 100M-atom DeePMD and
//! 149 ns/day papers target, without giving up this workspace's PR 2–5
//! contract: **bitwise-identical results at any domain grid and any
//! thread count**.
//!
//! The pieces:
//!
//! * [`grid::DomainGrid`] — a regular 3D partition of the periodic
//!   box; `domain_of` is the single ownership rule.
//! * [`store::DomainStore`] — per-domain SoA atom arrays (positions /
//!   types / velocities / forces in separate contiguous vectors),
//!   always sorted ascending by global id.
//! * ghost-atom halo exchange — every atom within the potential's
//!   `halo()` of a foreign region is replicated there with its exact
//!   position bits, re-exchanged after each position update; atoms
//!   crossing a face migrate to the new owner.
//! * [`potential::DomainPotential`] — local evaluation on the merged
//!   owned+ghost sub-frame: [`potential::LocalSuttonChen`] (per-atom
//!   EAM) and [`potential::DeepDomainPotential`] (the DeePMD model on
//!   the sub-frame's centre-eligible atoms, one workspace per domain).
//! * [`engine::DecomposedMd`] — the velocity-Verlet driver: parallel
//!   per-domain phases over `dp_pool::parallel_for_each_mut`,
//!   sequential ascending-gid reductions.
//!
//! ## Determinism argument (short form; DESIGN §15 has the full one)
//!
//! Sub-frames are gid-ascending and hold every atom within `2·rcut` of
//! the region, positions are the owner's exact bits, and displacements
//! always go through the global cell's minimum-image map — so every
//! owned atom sees exactly its global neighbour set, in the global
//! order, with the global values. Per-atom outputs are therefore
//! bitwise grid-invariant, and the engine's only cross-domain
//! reductions (total energy, kinetic energy) run sequentially in
//! ascending gid order. `dp_pool` distributes whole domains with
//! disjoint `&mut` access, so thread count cannot reorder anything.
//!
//! The dp-verify `domain` family pins all of this: decomposed vs
//! single-domain bitwise across grids × thread counts, the cell-list
//! vs naive neighbour oracle, the per-atom EAM vs the pair-form
//! reference, and the deep sub-frame path vs `model.predict`.

pub mod engine;
pub mod grid;
pub mod potential;
pub mod store;

pub use engine::DecomposedMd;
pub use grid::DomainGrid;
pub use potential::{DeepDomainPotential, DomainPotential, LocalFrame, LocalSuttonChen};
pub use store::{DomainStore, GhostStore};

/// Construction-time failures of the decomposed engine.
#[derive(Clone, Debug, PartialEq)]
pub enum DomainError {
    /// A grid dimension was zero.
    BadGrid {
        /// The offending dimensions.
        dims: [usize; 3],
    },
    /// The potential cutoff violates the minimum-image precondition.
    CutoffTooLarge {
        /// Potential cutoff (Å).
        cutoff: f64,
        /// Shortest cell edge (Å).
        min_length: f64,
    },
    /// The system carries bonded topology (molecular systems stay on
    /// the single-cell `dp-mdsim` path).
    UnsupportedTopology {
        /// Bond count.
        bonds: usize,
        /// Angle count.
        angles: usize,
    },
    /// The system has no atoms.
    EmptySystem,
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::BadGrid { dims } => {
                write!(f, "domain grid {dims:?} has a zero dimension")
            }
            DomainError::CutoffTooLarge { cutoff, min_length } => write!(
                f,
                "cutoff {cutoff} exceeds half the min box length {min_length} — replicate the \
                 system first"
            ),
            DomainError::UnsupportedTopology { bonds, angles } => write!(
                f,
                "bonded topology ({bonds} bonds, {angles} angles) is not supported by the \
                 decomposed engine"
            ),
            DomainError::EmptySystem => write!(f, "cannot decompose an empty system"),
        }
    }
}

impl std::error::Error for DomainError {}
