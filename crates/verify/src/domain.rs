//! Oracle family 7 — domain decomposition (`dp-domain`).
//!
//! The decomposed MD engine claims the strongest contract in the
//! workspace: **bitwise-identical physics at any domain grid and any
//! pool thread count**, sustained across whole NVE trajectories. That
//! claim rests on four independently checkable legs, one check each:
//!
//! * `sc/decomposed_vs_single` — forces, total energy, and per-atom
//!   energies of the decomposed Sutton–Chen engine vs the single-domain
//!   single-thread reference, bitwise, across the profile's grid ×
//!   thread matrix.
//! * `sc/trajectory_grid_invariant` — gathered positions, velocities,
//!   and energies after an NVE run, bitwise across the same matrix
//!   (one step can hide what thousands amplify; migration and re-ghosting
//!   run every step here).
//! * `sc/per_atom_vs_pair_form` — the per-atom EAM evaluation vs the
//!   `dp-mdsim` pair-form reference (different accumulation grouping,
//!   same physics): tight-ULP, not bitwise.
//! * `deep/decomposed_vs_predict` — the DeePMD model evaluated through
//!   per-domain sub-frames (`DeepDomainPotential`) vs a plain global
//!   `model.predict`, bitwise across grids: the halo construction must
//!   hand every owned atom exactly its global environment.
//! * `neighbor/celllist_vs_naive` — the linked-cell neighbour search vs
//!   the `O(N²)` minimum-image scan, bitwise on pairs and full lists,
//!   and a search limited to a centre mask vs the scan's lists of those
//!   centres (the dispatch inside `NeighborList::search` is only sound
//!   because the constructions are interchangeable).

use crate::gen::XorShift64;
use crate::{rel_err, Check, Profile, VerifyCheck};
use dp_domain::{DecomposedMd, DeepDomainPotential, LocalSuttonChen};
use dp_data::dataset::Snapshot;
use dp_mdsim::cell::Cell;
use dp_mdsim::integrate::evaluate;
use dp_mdsim::neighbor::{Lists, NeighborList, Neighbor};
use dp_mdsim::potential::sutton_chen::{SuttonChen, SuttonChenParams};
use dp_mdsim::state::State;
use dp_mdsim::systems::PaperSystem;
use dp_mdsim::vec3::Vec3;

/// Per-atom vs pair-form EAM: accumulation grouping differs, so the
/// comparison is tight-ULP (matches the in-crate dp-domain test).
const TOL_PAIR_FORM: f64 = 1e-12;

const CU_CUTOFF: f64 = 4.5;

/// Replicated, jittered, thermalized Cu supercell — deterministic in
/// the seed, no `rand` plumbing (vendored-deps policy, like [`crate::gen`]).
fn cu_state(reps: [usize; 3], seed: u64) -> State {
    let (mut state, _) = PaperSystem::Cu.replicate(reps[0], reps[1], reps[2]);
    let mut rng = XorShift64::new(seed ^ 0xD04A_11E8_52C3_97BF);
    for p in &mut state.pos {
        for a in 0..3 {
            p.0[a] += 0.08 * rng.range(-1.0, 1.0);
        }
    }
    for v in &mut state.vel {
        for a in 0..3 {
            v.0[a] = 0.02 * rng.range(-1.0, 1.0);
        }
    }
    state
}

fn sc_engine(state: &State, dims: [usize; 3]) -> DecomposedMd {
    let pot = Box::new(LocalSuttonChen::new(SuttonChenParams::copper(), CU_CUTOFF));
    DecomposedMd::new(state, pot, dims).expect("decompose Cu supercell")
}

fn bits_eq(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| (0..3).all(|k| x.0[k].to_bits() == y.0[k].to_bits()))
}

/// Decomposed vs single-domain Sutton–Chen, bitwise, one static
/// configuration, every (grid, threads) pair of the profile.
pub fn sc_decomposed_vs_single(seed: u64, profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "domain",
        "sc/decomposed_vs_single",
        &["dp-domain", "dp-pool", "dp-mdsim"],
        0.0,
    );
    let saved_threads = dp_pool::current_threads();
    let state = cu_state([2, 2, 2], seed);
    dp_pool::set_threads(1);
    let reference = sc_engine(&state, [1, 1, 1]);
    let (e_ref, f_ref, pa_ref) = (reference.energy(), reference.forces(), reference.energies());
    for &dims in profile.domain_grids() {
        for &threads in profile.domain_threads() {
            dp_pool::set_threads(threads);
            let eng = sc_engine(&state, dims);
            eng.assert_invariants();
            check.exact(eng.energy().to_bits() == e_ref.to_bits(), || {
                format!(
                    "grid {dims:?} threads {threads}: energy {:.17e} vs {:.17e}",
                    eng.energy(),
                    e_ref
                )
            });
            check.exact(bits_eq(&eng.forces(), &f_ref), || {
                format!("grid {dims:?} threads {threads}: forces differ bitwise")
            });
            let pa = eng.energies();
            let pa_ok =
                pa.len() == pa_ref.len() && pa.iter().zip(&pa_ref).all(|(a, b)| a.to_bits() == b.to_bits());
            check.exact(pa_ok, || {
                format!("grid {dims:?} threads {threads}: per-atom energies differ bitwise")
            });
        }
    }
    dp_pool::set_threads(saved_threads);
    check.finish()
}

/// Whole NVE trajectories bitwise grid- and thread-invariant: per-step
/// migration, re-ghosting, and the velocity-Verlet update must all
/// preserve the contract, not just a single static evaluation.
pub fn sc_trajectory_grid_invariant(seed: u64, profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "domain",
        "sc/trajectory_grid_invariant",
        &["dp-domain", "dp-pool", "dp-mdsim"],
        0.0,
    );
    let saved_threads = dp_pool::current_threads();
    let state = cu_state([2, 2, 1], seed.wrapping_add(1));
    let steps = profile.domain_steps();
    let run = |dims: [usize; 3], threads: usize| -> (Vec<Vec3>, Vec<Vec3>, f64) {
        dp_pool::set_threads(threads);
        let mut eng = sc_engine(&state, dims);
        let mut e = 0.0;
        for _ in 0..steps {
            e = eng.step_nve(1.0);
        }
        eng.assert_invariants();
        let s = eng.gather();
        (s.pos, s.vel, e)
    };
    let (p_ref, v_ref, e_ref) = run([1, 1, 1], 1);
    for &dims in profile.domain_grids() {
        for &threads in profile.domain_threads() {
            let (p, v, e) = run(dims, threads);
            check.exact(e.to_bits() == e_ref.to_bits(), || {
                format!(
                    "grid {dims:?} threads {threads}: energy after {steps} steps \
                     {e:.17e} vs {e_ref:.17e}"
                )
            });
            check.exact(bits_eq(&p, &p_ref), || {
                format!("grid {dims:?} threads {threads}: positions diverged after {steps} steps")
            });
            check.exact(bits_eq(&v, &v_ref), || {
                format!("grid {dims:?} threads {threads}: velocities diverged after {steps} steps")
            });
        }
    }
    dp_pool::set_threads(saved_threads);
    check.finish()
}

/// Per-atom EAM vs the `dp-mdsim` pair-form Sutton–Chen on the same
/// configuration: same physics, different accumulation grouping.
pub fn sc_vs_pair_form(seed: u64, _profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "domain",
        "sc/per_atom_vs_pair_form",
        &["dp-domain", "dp-mdsim"],
        TOL_PAIR_FORM,
    );
    let saved_threads = dp_pool::current_threads();
    dp_pool::set_threads(1);
    let state = cu_state([2, 2, 2], seed.wrapping_add(2));
    let pair_form = SuttonChen::new(SuttonChenParams::copper(), CU_CUTOFF);
    let (e_ref, f_ref) = evaluate(&pair_form, &state);
    let eng = sc_engine(&state, [2, 2, 2]);
    check.case(rel_err(eng.energy(), e_ref), || {
        format!("energy: per-atom {:.17e} vs pair-form {e_ref:.17e}", eng.energy())
    });
    for (i, (a, b)) in eng.forces().iter().zip(&f_ref).enumerate() {
        for k in 0..3 {
            check.case(rel_err(a.0[k], b.0[k]), || {
                format!(
                    "force atom {i} comp {k}: per-atom {:+.12e} vs pair-form {:+.12e}",
                    a.0[k], b.0[k]
                )
            });
        }
    }
    dp_pool::set_threads(saved_threads);
    check.finish()
}

/// The DeePMD model through per-domain sub-frames vs a plain global
/// `predict`: bitwise. This is where the halo radius (`2·rcut`), the
/// gid-ascending sub-frame order, and the exact-position-bits ghost
/// rule all earn their keep — any slip shows up as a flipped bit here.
pub fn deep_decomposed_vs_predict(seed: u64, profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "domain",
        "deep/decomposed_vs_predict",
        &["dp-domain", "deepmd-core", "dp-pool"],
        0.0,
    );
    let saved_threads = dp_pool::current_threads();
    let (model, _frames) = crate::gen::system_model(PaperSystem::Cu, seed.wrapping_add(3), 2);
    // The engine wraps positions at construction with `Cell::wrap`; the
    // reference frame must wrap with the same map to share bits.
    let (mut state, _) = PaperSystem::Cu.preset().instantiate();
    let mut rng = XorShift64::new(seed ^ 0x33C1_8A0F_D5E2_6B94);
    for p in &mut state.pos {
        for a in 0..3 {
            p.0[a] += 0.08 * rng.range(-1.0, 1.0);
        }
    }
    let frame = Snapshot {
        cell: state.cell.lengths(),
        types: state.types.clone(),
        type_names: state.type_names.clone(),
        pos: state.pos.iter().map(|p| state.cell.wrap(p)).collect(),
        energy: 0.0,
        forces: vec![Vec3::ZERO; state.n_atoms()],
        temperature: 0.0,
    };
    let reference = model.predict(&frame);
    let grids: &[[usize; 3]] = match profile {
        Profile::Quick => &[[1, 1, 1], [2, 1, 1], [2, 2, 2]],
        Profile::Full => &[[1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 2, 1], [2, 2, 2]],
    };
    for &dims in grids {
        for &threads in profile.domain_threads() {
            dp_pool::set_threads(threads);
            let n_domains = dims[0] * dims[1] * dims[2];
            let pot = Box::new(DeepDomainPotential::new(model.clone(), n_domains));
            let eng = DecomposedMd::new(&state, pot, dims).expect("decompose Cu cell");
            eng.assert_invariants();
            check.exact(eng.energy().to_bits() == reference.energy.to_bits(), || {
                format!(
                    "grid {dims:?} threads {threads}: energy {:.17e} vs predict {:.17e}",
                    eng.energy(),
                    reference.energy
                )
            });
            check.exact(bits_eq(&eng.forces(), &reference.forces), || {
                format!("grid {dims:?} threads {threads}: forces differ bitwise from predict")
            });
        }
    }
    dp_pool::set_threads(saved_threads);
    check.finish()
}

/// Linked-cell vs naive neighbour construction: bitwise on the pair
/// list and every full (per-atom) list, on boxes wide enough to engage
/// the linked-cell path, plus one deliberately narrow fallback box; and
/// a search for a random third of the atoms as centres, whose lists
/// must be the scan's on the centres and empty elsewhere.
pub fn celllist_vs_naive(seed: u64, profile: Profile) -> VerifyCheck {
    let mut check =
        Check::new("domain", "neighbor/celllist_vs_naive", &["dp-mdsim"], 0.0);
    let reps: &[[usize; 3]] = match profile {
        Profile::Quick => &[[2, 2, 2], [3, 2, 2]],
        Profile::Full => &[[2, 2, 2], [3, 2, 2], [3, 3, 3], [4, 3, 2]],
    };
    for (case, &r) in reps.iter().enumerate() {
        let state = cu_state(r, seed.wrapping_add(10 + case as u64));
        compare_lists(&mut check, &state.cell, &state.pos, CU_CUTOFF, &format!("Cu {r:?}"));
    }
    let state = cu_state(reps[0], seed.wrapping_add(30));
    let mut rng = XorShift64::new(seed ^ 0x5EED_CE47_2E5A_0001);
    let centres: Vec<bool> = state.pos.iter().map(|_| rng.range(0.0, 3.0) < 1.0).collect();
    let slow = NeighborList::build_naive(&state.cell, &state.pos, CU_CUTOFF);
    let mut masked = NeighborList::default();
    masked.search(&state.cell, &state.pos, CU_CUTOFF, Lists::Centres(&centres));
    for (i, &centre) in centres.iter().enumerate() {
        let want: &[Neighbor] = if centre { slow.neighbors_of(i) } else { &[] };
        check.exact(same_full_list(masked.neighbors_of(i), want), || {
            format!("Cu {:?} masked: full list of atom {i} (centre: {centre}) differs", reps[0])
        });
    }
    // Narrow box: `build` must fall back to the naive scan and still
    // agree with an explicit naive build (trivially — but it pins the
    // dispatch threshold against regressions that would double-count).
    let narrow = cu_state([1, 1, 1], seed.wrapping_add(20));
    compare_lists(&mut check, &narrow.cell, &narrow.pos, CU_CUTOFF, "Cu [1,1,1] (fallback)");
    check.finish()
}

fn compare_lists(check: &mut Check, cell: &Cell, pos: &[Vec3], cutoff: f64, label: &str) {
    let fast = NeighborList::build(cell, pos, cutoff);
    let slow = NeighborList::build_naive(cell, pos, cutoff);
    check.exact(fast.pairs().len() == slow.pairs().len(), || {
        format!("{label}: pair count {} vs naive {}", fast.pairs().len(), slow.pairs().len())
    });
    for (idx, (a, b)) in fast.pairs().iter().zip(slow.pairs()).enumerate() {
        let ok = a.i == b.i
            && a.j == b.j
            && a.dist.to_bits() == b.dist.to_bits()
            && (0..3).all(|k| a.rij.0[k].to_bits() == b.rij.0[k].to_bits());
        check.exact(ok, || {
            format!("{label}: pair {idx} ({},{}) vs naive ({},{})", a.i, a.j, b.i, b.j)
        });
    }
    for i in 0..pos.len() {
        check.exact(same_full_list(fast.neighbors_of(i), slow.neighbors_of(i)), || {
            format!("{label}: full list of atom {i} differs")
        });
    }
}

fn same_full_list(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            a.j == b.j
                && a.dist.to_bits() == b.dist.to_bits()
                && (0..3).all(|k| a.rij.0[k].to_bits() == b.rij.0[k].to_bits())
        })
}

/// Run the whole family.
pub fn run(seed: u64, profile: Profile) -> Vec<VerifyCheck> {
    vec![
        sc_decomposed_vs_single(seed, profile),
        sc_trajectory_grid_invariant(seed, profile),
        sc_vs_pair_form(seed, profile),
        deep_decomposed_vs_predict(seed, profile),
        celllist_vs_naive(seed, profile),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_family_passes() {
        for check in run(42, Profile::Quick) {
            assert_eq!(check.failures, 0, "{}: {:?}", check.name, check.details);
        }
    }

    #[test]
    fn a_corrupted_force_is_caught() {
        // Acceptance criterion in miniature: flip one mantissa bit in a
        // decomposed force and the bitwise oracle must flag it.
        let saved = dp_pool::current_threads();
        dp_pool::set_threads(1);
        let state = cu_state([2, 2, 1], 9);
        let eng = sc_engine(&state, [2, 2, 1]);
        let reference = sc_engine(&state, [1, 1, 1]);
        let mut f = eng.forces();
        f[7].0[1] = f64::from_bits(f[7].0[1].to_bits() ^ 1);
        let mut c = Check::new("domain", "t", &[], 0.0);
        c.exact(bits_eq(&f, &reference.forces()), || "mismatch".to_string());
        assert_eq!(c.failures(), 1);
        dp_pool::set_threads(saved);
    }
}
