//! `train_cu_small` and `train_water_dp2`: FEKF run until the trainer's
//! own convergence test (combined RMSE on its evaluation window) meets
//! a pinned target — the paper's Table 5 quantity.
//!
//! Time-to-accuracy is a first-passage time of a noisy RMSE curve: over
//! data / initialisation / shuffle seeds the iteration count at which
//! the target is first met varies by more than a factor of two, far
//! beyond any bound this benchmark could hold. The paper's datasets are
//! fixed files, so here the dataset, the initial weights and the batch
//! order are part of the workload (pinned constants) and `--seed` moves
//! every frame by its own rigid translation: new coordinate bits and
//! new geometry-cache keys, the same physics. The iteration count is
//! then the same for every seed up to rounding, and what varies between
//! runs is time, which is what `tta_s` is for.

use crate::common::{
    check, finish_trace, probe_ns, repeated_setup, sub_seed, Outcome, RunArgs, Work,
};
use crate::metrics::Layers;
use crate::recorder::{median, Recorder};
use crate::trace::Tracer;
use deepmd_core::env_cache::{EnvCache, FrameEnv};
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Dataset;
use dp_data::generate::GenScale;
use dp_mdsim::systems::PaperSystem;
use dp_optim::fekf::{Fekf, FekfConfig};
use dp_parallel::{DeviceGroup, FaultPlan};
use dp_train::error::TrainError;
use dp_train::recipes::{self, ExperimentSetup, ModelScale};
use dp_train::trainer::{RobustConfig, TrainConfig, TrainOutcome, Trainer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Everything that defines one training workload.
pub struct TrainSpec {
    pub name: &'static str,
    system: PaperSystem,
    gen: GenScale,
    /// Seeds dataset generation, the train/test split and the initial
    /// weights (through `recipes::setup`).
    data_seed: u64,
    /// Seeds the batch order.
    shuffle_seed: u64,
    model_scale: ModelScale,
    batch_size: usize,
    devices: usize,
    max_epochs: usize,
    eval_frames: usize,
    /// The trainer stops when the combined (energy + force) RMSE on
    /// its evaluation window is at or below this, eV. Calibrated with
    /// `--calibrate` (README.md, "Calibration").
    target: f64,
    /// Output check: combined RMSE on the held-out split after the run
    /// must not exceed this, eV.
    heldout_ceiling: f64,
    /// An epoch slower than this does not count towards
    /// `slo_goodput_rps`, s.
    epoch_limit_s: f64,
}

pub const CU_SMALL: TrainSpec = TrainSpec {
    name: "train_cu_small",
    system: PaperSystem::Cu,
    gen: GenScale {
        frames_per_temperature: 32,
        equilibration: 40,
        stride: 4,
    },
    data_seed: 3,
    shuffle_seed: 7,
    model_scale: ModelScale::Small,
    batch_size: 16,
    devices: 1,
    max_epochs: 6,
    eval_frames: 32,
    target: 5.0,
    heldout_ceiling: 4.0,
    epoch_limit_s: 4.0,
};

pub const WATER_DP2: TrainSpec = TrainSpec {
    name: "train_water_dp2",
    system: PaperSystem::H2O,
    gen: GenScale {
        frames_per_temperature: 24,
        equilibration: 40,
        stride: 4,
    },
    data_seed: 1,
    shuffle_seed: 7,
    model_scale: ModelScale::Small,
    batch_size: 8,
    devices: 2,
    max_epochs: 8,
    eval_frames: 32,
    target: 2.0,
    heldout_ceiling: 2.3,
    epoch_limit_s: 4.0,
};

/// Training runs per benchmark run, whatever the window.
const MIN_RUNS: u64 = 3;
/// The trainer probes its target every this many iterations.
const EVAL_EVERY: usize = 4;
/// Force-group updates per iteration (the trainer's default, named
/// here because the probe model needs it).
const FORCE_GROUPS: usize = 4;

/// Move every atom of each frame by that frame's own random vector
/// and wrap into the cell.
fn translate(data: &mut Dataset, rng: &mut ChaCha8Rng) {
    for frame in &mut data.frames {
        let cell = frame.cell;
        let shift = cell.map(|length| rng.gen_range(0.0..length));
        for p in &mut frame.pos {
            for ((x, d), length) in p.0.iter_mut().zip(shift).zip(cell) {
                *x = (*x + d).rem_euclid(length);
            }
        }
    }
}

fn setup(spec: &TrainSpec, seed: u64, tracer: &mut Tracer) -> ExperimentSetup {
    let span = tracer.begin("data.generate", 0);
    let mut exp = recipes::setup(spec.system, &spec.gen, spec.model_scale, spec.data_seed);
    tracer.end(span);
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0x7472_6169));
    translate(&mut exp.train, &mut rng);
    translate(&mut exp.test, &mut rng);
    exp
}

fn train_config(spec: &TrainSpec, target: Option<f64>) -> TrainConfig {
    TrainConfig {
        batch_size: spec.batch_size,
        max_epochs: spec.max_epochs,
        target,
        eval_frames: spec.eval_frames,
        force_updates: FORCE_GROUPS,
        seed: spec.shuffle_seed,
        eval_every: EVAL_EVERY,
        ..TrainConfig::default()
    }
}

/// One training run from the fixture's initial weights.
fn train(
    spec: &TrainSpec,
    exp: &ExperimentSetup,
    cfg: TrainConfig,
    robust: &RobustConfig,
) -> (DeepPotModel, Result<TrainOutcome, TrainError>) {
    let mut model = exp.model.clone();
    let mut opt = Fekf::new(&model.layer_sizes(), spec.batch_size, FekfConfig::default());
    let trainer = Trainer::new(cfg);
    let result = if spec.devices == 1 {
        trainer.train_fekf_robust(&mut model, &mut opt, &exp.train, Some(&exp.test), robust)
    } else {
        trainer.train_fekf_distributed_robust(
            &mut model,
            &mut opt,
            &exp.train,
            Some(&exp.test),
            &DeviceGroup::new(spec.devices),
            &FaultPlan::none(),
            robust,
        )
    };
    (model, result)
}

pub fn run(spec: &TrainSpec, args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let (exp, setup_s) = repeated_setup(tracer, |t| setup(spec, args.seed, t));
    let mut layers = Layers::default();
    let mut notes = Vec::new();

    // Identical runs (same inputs, same numerics): at least MIN_RUNS,
    // so the median is not the cold first run, and more while a
    // further one still fits the window.
    let root = tracer.begin("workload", 0);
    let window = Instant::now();
    let mut runs: Vec<(TrainOutcome, DeepPotModel)> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut last_run_s = 0.0;
    while attempted < MIN_RUNS || window.elapsed().as_secs_f64() + last_run_s <= args.seconds {
        attempted += 1;
        let span = tracer.begin("train.run", attempted);
        let t0 = Instant::now();
        let (model, result) = train(
            spec,
            &exp,
            train_config(spec, Some(spec.target)),
            &RobustConfig::default(),
        );
        last_run_s = t0.elapsed().as_secs_f64();
        tracer.end(span);
        match result {
            Ok(out) if out.converged => runs.push((out, model)),
            Ok(out) => {
                failed += 1;
                notes.push(format!(
                    "run {attempted}: target {} not met in {} epochs (train RMSE {:.4})",
                    spec.target,
                    out.epochs_run,
                    out.final_train.combined()
                ));
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("run {attempted}: {e}"));
            }
        }
    }
    tracer.end(root);
    let window_s = window.elapsed().as_secs_f64();

    let mut checks = vec![check(
        "train.converged",
        failed == 0 && !runs.is_empty(),
        format!(
            "{} of {attempted} runs met the target {}",
            runs.len(),
            spec.target
        ),
    )];
    let Some((first, model)) = runs.first() else {
        // Nothing converged: report the failure with placeholder work
        // so the result line still has every metric.
        let mut lat = Recorder::with_capacity(1);
        lat.record(0, (window_s * 1e9) as u64);
        return Outcome {
            attempted,
            failed,
            checks,
            work: Work {
                setup_s,
                goal_s: window_s,
                frames_per_s: 0.0,
                arrival_to_served_s: window_s,
                lat: lat.summary().expect("one sample"),
                good_per_s: 0.0,
            },
            layers,
            notes,
        };
    };

    let heldout = first
        .final_test
        .expect("held-out split was passed")
        .combined();
    checks.push(check(
        "train.heldout_rmse",
        heldout <= spec.heldout_ceiling,
        format!(
            "held-out combined RMSE {heldout:.4} eV, ceiling {}",
            spec.heldout_ceiling
        ),
    ));
    checks.push(check(
        "train.iterations_repeat",
        runs.iter().all(|(o, _)| o.iterations == first.iterations),
        format!(
            "iterations per run: {:?}",
            runs.iter().map(|(o, _)| o.iterations).collect::<Vec<_>>()
        ),
    ));

    // tta: the wall clock of the record that met the target (the
    // trainer's final full-set evaluations come after it).
    let tta = |o: &TrainOutcome| o.history.epochs.last().map_or(o.wall_s, |r| r.wall_s);
    let ttas: Vec<f64> = runs.iter().map(|(o, _)| tta(o)).collect();
    let goal_s = median(&ttas);
    let frames_per_run = first.iterations * spec.batch_size as u64;
    // The operation of a training workload is one epoch, evaluation
    // included: the cadence at which a user sees progress.
    let mut epochs = Recorder::with_capacity(runs.len() * (spec.max_epochs + 1));
    let mut good = 0u64;
    let mut first_epoch_s = Vec::with_capacity(runs.len());
    for (o, _) in &runs {
        let mut prev = 0.0;
        for r in &o.history.epochs {
            let dt = r.wall_s - prev;
            prev = r.wall_s;
            epochs.record(epochs.len() as u64, (dt * 1e9) as u64);
            good += u64::from(dt <= spec.epoch_limit_s);
        }
        first_epoch_s.push(o.history.epochs.first().map_or(o.wall_s, |r| r.wall_s));
    }
    let lat = epochs
        .summary()
        .expect("a converged run has at least one record");
    notes.push(format!(
        "{} run(s), {} iterations each, tta {:?} s; epoch latency from {} samples, tail = p{:.1}",
        runs.len(),
        first.iterations,
        ttas,
        lat.count,
        lat.tail_percentile * 100.0
    ));
    let work = Work {
        setup_s,
        goal_s,
        frames_per_s: frames_per_run as f64 / goal_s,
        arrival_to_served_s: median(&first_epoch_s),
        lat,
        good_per_s: good as f64 / ttas.iter().sum::<f64>(),
    };

    if tracer.enabled() {
        let iter_ms = goal_s * 1e3 / first.iterations as f64;
        layers.set("train.iters_to_target", first.iterations as f64);
        layers.set("train.iter_ms", iter_ms);
        layers.set("train.heldout_rmse", heldout);
        let wall = first.wall_s;
        layers.set(
            "train.forward_share",
            first.phases.forward.as_secs_f64() / wall,
        );
        layers.set(
            "train.gradient_share",
            first.phases.gradient.as_secs_f64() / wall,
        );
        layers.set(
            "train.optimizer_share",
            first.phases.optimizer.as_secs_f64() / wall,
        );
        layers.set("train.other_s", wall - first.phases.total().as_secs_f64());
        layers.set("core.env_cache_hit_rate", first.env_cache.hit_rate());
        layers.set("core.env_cache_misses", first.env_cache.misses as f64);
        layers.set(
            "parallel.bytes_per_iter",
            first.comm_bytes_per_rank as f64 / first.iterations as f64,
        );
        // One energy reduction and one fused force-group reduction per
        // iteration (computed from the algorithm, not counted).
        layers.set(
            "parallel.calls_per_iter",
            if spec.devices > 1 { 2.0 } else { 0.0 },
        );
        layers.set(
            "core.model_bytes",
            deepmd_core::model_io::to_bytes(model).len() as f64,
        );
        layer_probes(spec, &exp, model, iter_ms, tracer, &mut layers, &mut notes);
        checks.extend(finish_trace(tracer, &mut layers, window_s));
    }

    Outcome {
        attempted,
        failed,
        checks,
        work,
        layers,
        notes,
    }
}

/// Replay single layer calls on the workload's own frames with the
/// trained weights, and state how much of an iteration they explain.
fn layer_probes(
    spec: &TrainSpec,
    exp: &ExperimentSetup,
    model: &DeepPotModel,
    iter_ms: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    notes: &mut Vec<String>,
) {
    const FRAMES: usize = 8;
    let frames = &exp.train.frames[..FRAMES];
    let env_build = probe_ns(tracer, "probe.env_build", FRAMES, |i| {
        std::hint::black_box(FrameEnv::build(&model.cfg, &model.stats, &frames[i]));
    });
    let cache = EnvCache::new(FRAMES);
    for (i, f) in frames.iter().enumerate() {
        model.forward_with_cache(&cache, i, f);
    }
    let forward = probe_ns(tracer, "probe.forward", FRAMES, |i| {
        std::hint::black_box(model.forward_with_cache(&cache, i, &frames[i]));
    });
    let passes: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| model.forward_with_cache(&cache, i, f))
        .collect();
    let forces = probe_ns(tracer, "probe.forces", FRAMES, |i| {
        std::hint::black_box(model.forces(&passes[i]));
    });
    let grad_energy = probe_ns(tracer, "probe.grad_energy", FRAMES, |i| {
        std::hint::black_box(model.grad_energy_params(&passes[i]));
    });
    // One force group: +1 on every component of a quarter of the atoms.
    let n_atoms = frames[0].types.len();
    let mut coeffs = vec![0.0; 3 * n_atoms];
    coeffs[..3 * n_atoms.div_ceil(FORCE_GROUPS)].fill(1.0);
    let mut grads = model.zero_grads();
    let grad_force = probe_ns(tracer, "probe.grad_force", FRAMES, |i| {
        model.grad_force_sum_params_into(&passes[i], &coeffs, &mut grads);
    });
    let g = model.grad_energy_params(&passes[0]);
    let mut opt = Fekf::new(&model.layer_sizes(), spec.batch_size, FekfConfig::default());
    let mut delta = vec![0.0; g.len()];
    let kf_step = probe_ns(tracer, "probe.kf_step", 7, |_| {
        opt.step_into(&g, 0.01, &mut delta)
    });
    let n_params = model.n_params();
    let allreduce = if spec.devices > 1 {
        [n_params, FORCE_GROUPS * n_params + FORCE_GROUPS]
            .iter()
            .map(|&len| {
                probe_ns(tracer, "probe.allreduce", 7, |_| {
                    let mut buffers = vec![vec![1.0; len]; spec.devices];
                    dp_parallel::ring::ring_allreduce(&mut buffers).expect("clean link");
                })
            })
            .sum()
    } else {
        0.0
    };
    layers.set("core.env_build_us", env_build / 1e3);
    layers.set("core.forward_us", forward / 1e3);
    layers.set("core.forces_us", forces / 1e3);
    layers.set("core.grad_energy_us", grad_energy / 1e3);
    layers.set("core.grad_force_us", grad_force / 1e3);
    layers.set("optim.kf_step_ms", kf_step / 1e6);
    layers.set("optim.p_bytes", opt.core().p.memory_bytes() as f64);
    // q = P·g (2n²) and the rank-one P update (2n²) per block.
    let flops: f64 = opt
        .core()
        .layout
        .sizes()
        .iter()
        .map(|&n| 4.0 * (n * n) as f64)
        .sum();
    layers.set("optim.kf_flops_per_step", flops);
    layers.set("optim.kf_gflops", flops / kf_step);
    layers.set("parallel.allreduce_ms", allreduce / 1e6);

    // The frames of a batch run on the pool's threads side by side; the
    // KF steps and the allreduce are serial.
    let lanes = dp_pool::current_threads().min(spec.batch_size) as f64;
    let bs = spec.batch_size as f64;
    let per_frame = (forward + grad_energy) + (forward + forces + FORCE_GROUPS as f64 * grad_force);
    let modelled_ms =
        (bs * per_frame / lanes + (1 + FORCE_GROUPS) as f64 * kf_step + allreduce) / 1e6;
    let gap = (modelled_ms - iter_ms).abs() / iter_ms;
    layers.set("train.model_gap", gap);
    notes.push(format!(
        "probes explain {modelled_ms:.1} ms of the {iter_ms:.1} ms iteration (gap {:.0} %{})",
        gap * 100.0,
        if gap > 0.25 { ", unresolved" } else { "" }
    ));
}

/// Print the trainer's probe curve so a target can be chosen: one run
/// per probe point, halted there, then evaluated the way the trainer's
/// mid-epoch probe evaluates.
pub fn calibrate(spec: &TrainSpec, seed: u64) {
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let exp = setup(spec, seed, &mut tracer);
    let batches_per_epoch = exp.train.len() / spec.batch_size;
    println!(
        "# {}: {} train / {} held-out frames, {} parameters, {} iterations per epoch",
        spec.name,
        exp.train.len(),
        exp.test.len(),
        exp.model.n_params(),
        batches_per_epoch
    );
    println!(
        "# iteration  probe_rmse(16 frames)  window_rmse({} frames)  heldout_rmse",
        spec.eval_frames
    );
    for point in (EVAL_EVERY..=spec.max_epochs * batches_per_epoch).step_by(EVAL_EVERY) {
        let robust = RobustConfig {
            halt_after: Some(point as u64),
            ..RobustConfig::default()
        };
        let (model, result) = train(spec, &exp, train_config(spec, None), &robust);
        if !matches!(result, Err(TrainError::Halted { .. })) {
            break;
        }
        let probe = deepmd_core::loss::evaluate(&model, &exp.train, spec.eval_frames.clamp(1, 16))
            .combined();
        let window = deepmd_core::loss::evaluate(&model, &exp.train, spec.eval_frames).combined();
        let heldout = deepmd_core::loss::evaluate(&model, &exp.test, usize::MAX).combined();
        println!("{point:>6}  {probe:>10.4}  {window:>10.4}  {heldout:>10.4}");
    }
}
