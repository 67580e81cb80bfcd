//! Allocation probe for the hot paths: in steady state neither the
//! optimizer step (`q = P·g`, Kalman gain, Δw scatter, fused `P`
//! update), nor a whole `Trainer::fekf_iteration` (forward, energy
//! reduce, force reduce, all five KF updates, on 2 pool threads), nor
//! an iteration of the FEKF epoch loop with its divergence guards on,
//! nor a domain-decomposed MD step with the deep potential (migration, halo,
//! neighbour search, environments, forces, on 2 pool threads) performs
//! a single heap allocation, and `FrameEnv::build` and the
//! `Vec`-returning model wrappers allocate their return value and
//! nothing else, whatever the atom count.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms each path up (worker spawn, workspace and scratch sizing) and
//! then asserts how far the allocation counter moves. The counter is
//! process-global, so the probe is one `main` without the libtest
//! harness (`harness = false`): the harness's own thread allocates
//! while tests run — its slow-test notice after 60 s, for one — and
//! would land inside a measured window of a debug build.

use deepmd_core::env_cache::{EnvCache, FrameEnv};
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Snapshot;
use dp_data::generate::GenScale;
use dp_domain::{DecomposedMd, DeepDomainPotential};
use dp_mdsim::state::State;
use dp_mdsim::systems::PaperSystem;
use dp_mdsim::Vec3;
use dp_optim::fekf::{Fekf, FekfConfig};
use dp_train::recipes::{self, ModelScale};
use dp_train::trainer::{LoopState, RobustConfig, TrainConfig, Trainer};
use dp_train::TrainError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

fn main() {
    // A 512-wide block crosses PAR_FLOPS_THRESHOLD (512² ≥ 2¹⁷), so both
    // the `P·g` GEMV and the fused `P` update take the *pool* path — the
    // probe covers parallel dispatch, not just the sequential loop.
    dp_pool::set_threads(2);
    let n = 512;
    let mut opt = Fekf::new(&[n], n, FekfConfig::default());
    let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 1e-2).collect();
    let mut delta = vec![0.0; n];

    // Warmup: spawn workers, size the KF scratch, fault in lazy statics.
    for _ in 0..3 {
        opt.step_into(&g, 0.1, &mut delta);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10 {
        opt.step_into(&g, 0.1, &mut delta);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state FEKF step must not allocate ({} allocations in 10 steps)",
        after - before
    );

    // Sanity: the counter itself works.
    let before = ALLOCS.load(Ordering::SeqCst);
    let v = vec![0u8; 1024];
    assert!(ALLOCS.load(Ordering::SeqCst) > before);
    drop(v);

    whole_iteration_is_allocation_free();
    guarded_loop_iteration_is_allocation_free();
    wrappers_allocate_only_what_they_return();
    domain_md_step_is_allocation_free();
    dp_pool::set_threads(1);
    println!("alloc_probe: every steady-state path is allocation-free");
}

/// The whole path: per-frame forward, ∇θE, forces and the four-tangent
/// ∇θΣcF in each reduction block's workspace, the block reductions, and
/// the five KF updates. The same batch every iteration, so each block
/// sees the frames it was sized for.
fn whole_iteration_is_allocation_free() {
    let scale = GenScale { frames_per_temperature: 4, equilibration: 20, stride: 2 };
    let exp = recipes::setup(PaperSystem::Cu, &scale, ModelScale::Small, 3);
    let mut model = exp.model.clone();
    let batch: Vec<usize> = (0..8).collect();
    let trainer = Trainer::new(TrainConfig { batch_size: batch.len(), ..TrainConfig::default() });
    let mut opt = Fekf::new(&model.layer_sizes(), batch.len(), FekfConfig::default());
    let cache = EnvCache::new(exp.train.len());
    let mut state = LoopState::new();
    for _ in 0..3 {
        trainer.fekf_iteration(&mut model, &mut opt, &exp.train, &batch, &cache, &mut state);
    }
    let ((), n) = allocs_in(|| {
        for _ in 0..3 {
            trainer.fekf_iteration(&mut model, &mut opt, &exp.train, &batch, &cache, &mut state);
        }
    });
    assert_eq!(n, 0, "a steady-state FEKF iteration must not allocate ({n} allocations in 3)");
    assert_eq!(cache.stats().misses, batch.len() as u64, "one geometry build per frame");
}

/// The epoch loop under `RobustConfig::default()`, the guards checked
/// after every iteration: a run halted after iteration k + 3 allocates
/// exactly what one halted after k does, both inside the second epoch.
///
/// Every frame is a copy of one Cu geometry. A reduction block's
/// buffers grow (once, doubling) the first time it meets a frame with
/// more neighbour pairs than its first; with shuffled distinct frames
/// that still happens now and then in later epochs. Equal geometries
/// let the first epoch size every buffer, so the difference isolates
/// the loop and its guards.
fn guarded_loop_iteration_is_allocation_free() {
    let scale = GenScale { frames_per_temperature: 16, equilibration: 20, stride: 2 };
    let mut exp = recipes::setup(PaperSystem::Cu, &scale, ModelScale::Small, 3);
    let first = exp.train.frames[0].clone();
    exp.train.frames.fill(first);
    let bs = 8;
    let trainer = Trainer::new(TrainConfig { batch_size: bs, eval_every: 0, ..TrainConfig::default() });
    let per_epoch = exp.train.len().div_ceil(bs) as u64;
    assert!(per_epoch >= 5, "k + 3 must stay inside the second epoch");
    let allocs_until = |halt: u64| {
        let mut model = exp.model.clone();
        let mut opt = Fekf::new(&model.layer_sizes(), bs, FekfConfig::default());
        let robust = RobustConfig { halt_after: Some(halt), ..RobustConfig::default() };
        let (result, n) =
            allocs_in(|| trainer.train_fekf_robust(&mut model, &mut opt, &exp.train, None, &robust));
        assert!(matches!(result, Err(TrainError::Halted { iterations }) if iterations == halt));
        n
    };
    let k = per_epoch + 1;
    // Warm-up: the evaluation's per-thread workspaces.
    allocs_until(k);
    let (short, long) = (allocs_until(k), allocs_until(k + 3));
    assert_eq!(
        long,
        short,
        "a guarded steady-state loop iteration must not allocate ({} allocations in 3)",
        long as i64 - short as i64
    );
}

/// `forces`, `grad_energy_params`, `grad_force_sum_params` and `predict`
/// on a 108-atom and a 32-atom system: one allocation each, the value
/// they return. (`predict` also builds the frame's geometry — a
/// `FrameEnv` behind an `Arc`, counted on its own and subtracted.)
/// `FrameEnv::build` itself allocates the two buffers of its result, on
/// those frames and on a 3888-atom supercell (the linked-cell search).
fn wrappers_allocate_only_what_they_return() {
    let scale = GenScale { frames_per_temperature: 2, equilibration: 20, stride: 2 };
    for system in [PaperSystem::Cu, PaperSystem::Al] {
        let exp = recipes::setup(system, &scale, ModelScale::Small, 5);
        let (model, frame) = (&exp.model, &exp.train.frames[0]);
        assert_eq!(env_build_allocs(model, frame), 2, "{system:?}: FrameEnv::build");
        let coeffs = vec![1.0; 3 * frame.types.len()];
        // Warm this thread's workspace on this system.
        let pass = model.forward(frame);
        model.forces(&pass);
        model.grad_energy_params(&pass);
        model.grad_force_sum_params(&pass, &coeffs);
        assert_eq!(allocs_in(|| model.forces(&pass)).1, 1, "{system:?}: forces");
        assert_eq!(allocs_in(|| model.grad_energy_params(&pass)).1, 1, "{system:?}: grad_energy_params");
        assert_eq!(
            allocs_in(|| model.grad_force_sum_params(&pass, &coeffs)).1,
            1,
            "{system:?}: grad_force_sum_params"
        );
        drop(pass);
        let (_, geometry) = allocs_in(|| Arc::new(FrameEnv::build(&model.cfg, &model.stats, frame)));
        assert_eq!(allocs_in(|| model.predict(frame)).1, geometry + 1, "{system:?}: predict");
    }
    let (model, state) = cu_supercell();
    assert_eq!(env_build_allocs(&model, &snapshot(&state)), 2, "Cu 3888: FrameEnv::build");
}

/// Allocations of a `FrameEnv::build` of `frame`, after one warm-up build
/// has sized this thread's neighbour-search buffers.
fn env_build_allocs(model: &DeepPotModel, frame: &Snapshot) -> u64 {
    drop(FrameEnv::build(&model.cfg, &model.stats, frame));
    allocs_in(|| FrameEnv::build(&model.cfg, &model.stats, frame)).1
}

/// The `md_domain` system: a jittered, thermalised 4×3×3 Cu supercell
/// (3888 atoms) and a small Cu model.
fn cu_supercell() -> (DeepPotModel, State) {
    let scale = GenScale { frames_per_temperature: 2, equilibration: 10, stride: 2 };
    let model = recipes::setup(PaperSystem::Cu, &scale, ModelScale::Small, 7).model;
    let (mut state, _) = PaperSystem::Cu.replicate(4, 3, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    state.jitter_positions(0.05, &mut rng);
    state.init_velocities(300.0, &mut rng);
    (model, state)
}

fn snapshot(state: &State) -> Snapshot {
    Snapshot {
        cell: state.cell.lengths(),
        types: state.types.clone(),
        type_names: state.type_names.clone(),
        pos: state.pos.clone(),
        energy: 0.0,
        forces: vec![Vec3::ZERO; state.n_atoms()],
        temperature: 0.0,
    }
}

/// Velocity-Verlet steps of the deep potential on a 2×1×1 grid over 2
/// pool threads: migration, halo exchange, each domain's neighbour
/// search, environments and forces all run in recycled buffers.
fn domain_md_step_is_allocation_free() {
    let (model, state) = cu_supercell();
    let pot = Box::new(DeepDomainPotential::new(model, 2));
    let mut md = DecomposedMd::new(&state, pot, [2, 1, 1]).expect("the supercell fits the grid");
    // Warm-up: sub-frame sizes drift as atoms move, and a buffer
    // reallocates (to twice its size) the first time it outgrows the
    // size of its first use.
    for _ in 0..10 {
        md.step_nve(1.0);
    }
    let (_, n) = allocs_in(|| {
        for _ in 0..10 {
            md.step_nve(1.0);
        }
    });
    assert_eq!(n, 0, "a steady-state domain MD step must not allocate ({n} allocations in 10)");
}
