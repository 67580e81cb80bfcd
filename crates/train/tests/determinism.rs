//! Thread-count determinism gate (ISSUE 2 acceptance criterion).
//!
//! The pool contract: block/chunk boundaries are a function of data
//! length only, and partial results combine in index order — so training
//! is a pure function of (data, seed, config) with the thread count an
//! invisible scheduling detail. These tests prove it end to end:
//! bitwise-identical weight trajectories, optimizer state, and DPCK
//! checkpoint bytes for `DP_POOL_THREADS ∈ {1, 2, 8}`, including a
//! kill-and-resume run executed entirely under the multithreaded pool.
//!
//! The pool is process-global, so the tests serialize on a mutex and
//! sweep thread counts in-process via `dp_pool::set_threads`.

use deepmd_core::config::ModelConfig;
use deepmd_core::env_cache::{CacheStats, EnvCache};
use deepmd_core::model::DeepPotModel;
use dp_data::batch::BatchSampler;
use dp_data::dataset::Dataset;
use dp_mdsim::lattice::{fcc, Species};
use dp_mdsim::md::{MdConfig, MdRunner};
use dp_mdsim::potential::lj::LennardJones;
use dp_optim::fekf::{Fekf, FekfConfig};
use dp_parallel::{DeviceGroup, FaultPlan};
use dp_tensor::backend::{with_backend, BackendKind};
use dp_train::targets::Backend;
use dp_train::trainer::{LoopState, RobustConfig, TrainConfig, Trainer};
use dp_train::TrainError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

const SWEEP: &[usize] = &[1, 2, 8];

fn tiny_dataset(n_frames: usize, seed: u64) -> Dataset {
    let s = fcc(Species::new("Ar", 39.9), 5.26, [2, 2, 2]);
    let pot = LennardJones::single(0.0104, 3.4, 4.2);
    let runner = MdRunner::new(&pot);
    let cfg = MdConfig {
        dt: 2.0,
        temperature: 60.0,
        friction: 0.05,
        equilibration: 40,
        stride: 4,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let frames = runner.sample(s, &cfg, n_frames, &mut rng);
    let mut ds = Dataset::new("ArLJ", vec!["Ar".into()]);
    for f in frames {
        ds.push(f);
    }
    ds
}

fn tiny_model(train: &Dataset) -> DeepPotModel {
    let mut cfg = ModelConfig::small(1, 4.2);
    cfg.rcut_smooth = 2.6;
    DeepPotModel::new(cfg, train)
}

fn trainer(bs: usize, epochs: usize) -> Trainer {
    Trainer::new(TrainConfig {
        batch_size: bs,
        max_epochs: epochs,
        target: None,
        eval_frames: 16,
        force_updates: 4,
        seed: 3,
        backend: Backend::Manual,
        eval_every: 0,
    })
}

fn param_bits(m: &DeepPotModel) -> Vec<u64> {
    m.get_params().iter().map(|v| v.to_bits()).collect()
}

/// Full FEKF training runs at 1, 2 and 8 threads produce bit-identical
/// weights and bit-identical serialized optimizer state.
#[test]
fn fekf_training_is_bitwise_identical_across_thread_counts() {
    let _g = POOL_LOCK.lock().unwrap();
    let ds = tiny_dataset(16, 21);
    let run = |threads: usize| {
        dp_pool::set_threads(threads);
        let mut m = tiny_model(&ds);
        let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
        let out = trainer(4, 2)
            .train_fekf_robust(&mut m, &mut opt, &ds, None, &RobustConfig::off())
            .unwrap();
        assert!(out.iterations > 0);
        (param_bits(&m), opt.state_to_bytes())
    };
    let (p1, s1) = run(SWEEP[0]);
    for &t in &SWEEP[1..] {
        let (p, s) = run(t);
        assert_eq!(p1, p, "weights diverged at {t} threads");
        assert_eq!(s1, s, "optimizer state diverged at {t} threads");
    }
    dp_pool::set_threads(1);
}

/// Two epochs of `Trainer::fekf_iteration` over the loop's own batch
/// order, against `cache`: weights, filter state and cache counters.
fn replay(ds: &Dataset, cache: &EnvCache) -> (Vec<u64>, Vec<u8>, CacheStats) {
    let t = trainer(4, 2);
    let mut m = tiny_model(ds);
    let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
    let sampler = BatchSampler::new(ds.len(), t.cfg.batch_size, false);
    let mut rng = ChaCha8Rng::seed_from_u64(t.cfg.seed);
    let mut state = LoopState::new();
    for _ in 0..t.cfg.max_epochs {
        for batch in sampler.epoch(&mut rng) {
            t.fekf_iteration(&mut m, &mut opt, ds, &batch, cache, &mut state);
        }
    }
    (param_bits(&m), opt.state_to_bytes(), cache.stats())
}

/// The environment cache and the frame-parallel engine are invisible
/// to the trajectory: the training loop, and its iterations replayed
/// with a slotless cache (`EnvCache::new(0)`, every geometry rebuilt)
/// or a full one at 1, 2 and 8 threads, land on bit-identical weights
/// and optimizer state, and the full cache builds each geometry exactly
/// once (steady-state hit rate 1).
#[test]
fn fekf_training_is_bitwise_identical_with_and_without_env_cache() {
    let _g = POOL_LOCK.lock().unwrap();
    let ds = tiny_dataset(16, 24);
    dp_pool::set_threads(1);
    let mut m = tiny_model(&ds);
    let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
    trainer(4, 2)
        .train_fekf_robust(&mut m, &mut opt, &ds, None, &RobustConfig::off())
        .unwrap();
    let reference = (param_bits(&m), opt.state_to_bytes());
    for &t in SWEEP {
        dp_pool::set_threads(t);
        for slots in [0, ds.len()] {
            let (params, state, stats) = replay(&ds, &EnvCache::new(slots));
            assert_eq!(
                reference,
                (params, state),
                "trajectory diverged at {t} threads, {slots} cache slots"
            );
            if slots == 0 {
                assert_eq!(stats.hits, 0, "a slotless cache must never hit");
            } else {
                assert_eq!(stats.misses, ds.len() as u64, "each geometry must be built exactly once");
                assert!(stats.hits > stats.misses);
            }
        }
    }
    dp_pool::set_threads(1);
}

/// DPCK checkpoint files written under different thread counts are
/// byte-for-byte identical.
#[test]
fn checkpoint_bytes_are_identical_across_thread_counts() {
    let _g = POOL_LOCK.lock().unwrap();
    let ds = tiny_dataset(16, 22);
    let run = |threads: usize| -> Vec<u8> {
        dp_pool::set_threads(threads);
        let dir = std::env::temp_dir().join(format!("dp_det_ck_{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = tiny_model(&ds);
        let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
        let robust = RobustConfig {
            restore_best: false,
            checkpoint_every: 3,
            checkpoint_dir: Some(dir.clone()),
            ..RobustConfig::default()
        };
        trainer(4, 1)
            .train_fekf_robust(&mut m, &mut opt, &ds, None, &robust)
            .unwrap();
        let bytes = std::fs::read(dp_train::checkpoint::checkpoint_path(&dir)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let b1 = run(SWEEP[0]);
    for &t in &SWEEP[1..] {
        assert_eq!(b1, run(t), "DPCK bytes diverged at {t} threads");
    }
    dp_pool::set_threads(1);
}

/// Kill-and-resume under the multithreaded pool: a run checkpointed and
/// killed mid-epoch at 8 threads, resumed at 8 threads, lands bitwise on
/// the uninterrupted 1-thread trajectory.
#[test]
fn kill_and_resume_under_multithreaded_pool_matches_single_thread() {
    let _g = POOL_LOCK.lock().unwrap();
    let ds = tiny_dataset(16, 23);
    let t = trainer(4, 3);
    let no_chaos = RobustConfig { restore_best: false, ..RobustConfig::default() };

    // Reference: uninterrupted single-threaded run.
    dp_pool::set_threads(1);
    let mut m_ref = tiny_model(&ds);
    let mut o_ref = Fekf::new(&m_ref.layer_sizes(), 4, FekfConfig::default());
    t.train_fekf_robust(&mut m_ref, &mut o_ref, &ds, None, &no_chaos).unwrap();

    // Crash at 8 threads, mid-epoch, off the checkpoint boundary.
    dp_pool::set_threads(8);
    let dir = std::env::temp_dir().join("dp_det_resume_mt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut m = tiny_model(&ds);
    let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
    let robust = RobustConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        halt_after: Some(5),
        ..no_chaos.clone()
    };
    match t.train_fekf_robust(&mut m, &mut opt, &ds, None, &robust) {
        Err(TrainError::Halted { iterations }) => assert_eq!(iterations, 5),
        other => panic!("expected Halted, got {other:?}"),
    }

    // Resume, still at 8 threads, from the checkpoint alone.
    let mut m2 = tiny_model(&ds);
    let mut o2 = Fekf::new(&m2.layer_sizes(), 4, FekfConfig::default());
    let robust = RobustConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..no_chaos
    };
    let out = t.train_fekf_robust(&mut m2, &mut o2, &ds, None, &robust).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    dp_pool::set_threads(1);
    assert!(out.iterations > 5, "resume must continue past the crash point");

    assert_eq!(
        param_bits(&m_ref),
        param_bits(&m2),
        "multithreaded kill-and-resume diverged from the single-threaded trajectory"
    );
    assert_eq!(o_ref.state_to_bytes(), o2.state_to_bytes());
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `(devices, FNV-1a over the parameter bits then the optimizer-state
/// bytes, comm_bytes_per_rank)` after two epochs of distributed FEKF on
/// the scalar backend.
const DISTRIBUTED_PINS: [(usize, u64, usize); 3] =
    [(1, 0x6993c9778a110322, 0), (2, 0x3d311ef4bdddbe9d, 299952), (3, 0xfcb5ad608ef3297c, 399984)];

/// Data-parallel FEKF is a pure function of (data, seed, config, device
/// count): at 1, 2 and 8 pool threads it lands on the pinned weights,
/// filter state and byte count for 1, 2 and 3 devices, and on one
/// device it is the single-device loop. A moved hash means the
/// reduction order moved; never re-pin it to make a change pass.
#[test]
fn distributed_fekf_bits_are_pinned_at_every_thread_count() {
    let _g = POOL_LOCK.lock().unwrap();
    let ds = tiny_dataset(16, 25);
    // Batches of 6, 6 and 4 frames: three devices all hold frames.
    let t = trainer(6, 2);
    let run = |devices: Option<usize>| -> (u64, usize) {
        let mut m = tiny_model(&ds);
        let mut opt = Fekf::new(&m.layer_sizes(), t.cfg.batch_size, FekfConfig::default());
        let off = RobustConfig::off();
        let out = match devices {
            None => t.train_fekf_robust(&mut m, &mut opt, &ds, None, &off),
            Some(d) => t.train_fekf_distributed_robust(
                &mut m,
                &mut opt,
                &ds,
                None,
                &DeviceGroup::new(d),
                &FaultPlan::none(),
                &off,
            ),
        }
        .unwrap();
        let params: Vec<u8> = m.get_params().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        let h = fnv1a(fnv1a(0xCBF2_9CE4_8422_2325, &params), &opt.state_to_bytes());
        (h, out.comm_bytes_per_rank)
    };
    with_backend(BackendKind::Scalar, || {
        dp_pool::set_threads(1);
        let single = run(None);
        for &(devices, hash, bytes) in &DISTRIBUTED_PINS {
            for &threads in SWEEP {
                dp_pool::set_threads(threads);
                let (h, b) = run(Some(devices));
                assert_eq!(
                    (h, b),
                    (hash, bytes),
                    "{devices} devices at {threads} threads: got ({devices}, {h:#018x}, {b})"
                );
            }
        }
        assert_eq!(single, (DISTRIBUTED_PINS[0].1, DISTRIBUTED_PINS[0].2), "one device is the single-device loop");
    })
    .expect("the scalar backend is always available");
    dp_pool::set_threads(1);
}
