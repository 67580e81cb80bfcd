//! Training for Adam, Naive-EKF and FEKF (single- and multi-device).
//!
//! Per-iteration structure of the EKF optimizers (§4 "Model parameters"):
//! one weight update with the total energy, then `force_updates` (4 by
//! default) updates with disjoint atomic-force groups. FEKF reduces the
//! signed gradients and absolute errors over the whole minibatch before
//! each update (the funnel dataflow of §3.1). RLEKF performs the same
//! sequence per individual sample, which is FEKF at batch size 1: it
//! runs through the same loop as `Fekf::new(layers, 1, ..)`.
//!
//! Every optimizer runs through one epoch loop, generic over
//! [`OptimizerState`]: sampling, divergence guards, rollback snapshot,
//! DPCK checkpoints and resume, and convergence checks. Each `train_*`
//! method hands it the body of one iteration. [`RobustConfig::off`]
//! turns every guard off (the plain schedule, no snapshot); the Adam
//! and Naive-EKF baselines run with it.
//!
//! Implementation note: the four force-group updates of one iteration
//! share a single fresh forward pass (taken after the energy update)
//! instead of re-running the network between groups — the groups are
//! disjoint, and this matches the batched reference implementation's
//! cost model while keeping the sequential `P` updates.

use crate::checkpoint::{self, Checkpoint, Cursor, Snapshot};
use crate::error::TrainError;
use crate::gradients::{BlockScratch, GradScratch};
use crate::metrics::{timed, EpochRecord, PhaseTimes, TrainHistory};
use crate::targets::{accumulate_energy_target, accumulate_force_targets, Backend};
use deepmd_core::env_cache::{CacheStats, EnvCache};
use deepmd_core::loss::{self, LossWeights, Metrics};
use deepmd_core::model::DeepPotModel;
use dp_data::batch::BatchSampler;
use dp_data::dataset::Dataset;
use dp_optim::adam::Adam;
use dp_optim::ekf::KfCore;
use dp_optim::fekf::Fekf;
use dp_optim::naive_ekf::NaiveEkf;
use dp_optim::OptimizerState;
use dp_parallel::{CommError, DeviceGroup, FaultPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Training-loop configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Minibatch size.
    pub batch_size: usize,
    /// Hard epoch cap.
    pub max_epochs: usize,
    /// Stop when the combined train RMSE (energy + force) reaches this.
    pub target: Option<f64>,
    /// Frames used for the per-epoch train evaluation.
    pub eval_frames: usize,
    /// Force-group updates per iteration (paper: 4).
    pub force_updates: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Derivative backend for the EKF loops (Figure 7 baseline switch).
    pub backend: Backend,
    /// Check the convergence target every N iterations (0 = only at
    /// epoch boundaries). Mid-epoch checks give wall-time measurements
    /// sub-epoch resolution for the time-to-accuracy experiments.
    pub eval_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            max_epochs: 20,
            target: None,
            eval_frames: 64,
            force_updates: 4,
            seed: 7,
            backend: Backend::Manual,
            eval_every: 0,
        }
    }
}

/// Result of a training run.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Weight-update iterations performed.
    pub iterations: u64,
    /// Whether the target was reached.
    pub converged: bool,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Final metrics on the training set.
    pub final_train: Metrics,
    /// Final metrics on the test set, when one was provided.
    pub final_test: Option<Metrics>,
    /// Per-epoch history.
    pub history: TrainHistory,
    /// Phase decomposition (Figure 7c).
    pub phases: PhaseTimes,
    /// Ring-allreduce bytes sent by the busiest rank (distributed runs).
    pub comm_bytes_per_rank: usize,
    /// Environment-cache hit/miss counters of the FEKF iterations (zero
    /// for Adam and Naive-EKF, whose iterations do not use the cache).
    pub env_cache: CacheStats,
    /// Divergence rollbacks the loop took (zero whenever the guards are
    /// off, as for the Adam and Naive-EKF baselines).
    pub rollbacks: u32,
}

/// The training driver.
#[derive(Clone, Copy, Debug)]
pub struct Trainer {
    /// Loop configuration.
    pub cfg: TrainConfig,
}

/// Everything one training loop carries from iteration to iteration:
/// phase timers, counters, and the recycled buffers that keep the
/// steady-state FEKF iteration allocation-free.
pub struct LoopState {
    start: Instant,
    phases: PhaseTimes,
    iterations: u64,
    history: TrainHistory,
    comm_bytes: usize,
    /// Reusable Δw buffer of the FEKF steps: sized on the first
    /// iteration, then the steady-state KF path stays allocation-free.
    delta: Vec<f64>,
    /// Recycled block-reduction scratch of the frame-parallel gradient
    /// engine, shared by the ranks (they run in turn).
    scratch: GradScratch,
    /// Absolute-error sums of the last rank's block reduction.
    abes: Vec<f64>,
    /// One allreduce vector per rank: its shard's gradient sums
    /// (`n_slots × n_params`, slot-major; a force phase appends its
    /// groups' error sums), the whole batch's after the allreduce.
    bufs: Vec<Vec<f64>>,
    /// Latest environment-cache counters (refreshed every iteration so
    /// every outcome path reports them).
    cache_stats: CacheStats,
    /// Divergence rollbacks taken so far (the loop's retry budget).
    rollbacks: u32,
}

impl Default for LoopState {
    fn default() -> Self {
        Self::new()
    }
}

impl LoopState {
    /// Fresh state; the clock of `wall_s` starts now.
    pub fn new() -> Self {
        LoopState {
            start: Instant::now(),
            phases: PhaseTimes::default(),
            iterations: 0,
            history: TrainHistory::default(),
            comm_bytes: 0,
            delta: Vec::new(),
            scratch: GradScratch::new(),
            abes: Vec::new(),
            bufs: Vec::new(),
            cache_stats: CacheStats::default(),
            rollbacks: 0,
        }
    }
}

/// Time `f`, block reductions that return `(out, forward, busy)`: how
/// long their blocks spent in forward passes and busy in all. Book its
/// wall time on the forward and gradient phases in that proportion.
fn timed_split<R>(phases: &mut PhaseTimes, f: impl FnOnce() -> (R, Duration, Duration)) -> R {
    let start = Instant::now();
    let (out, forward, busy) = f();
    let wall = start.elapsed();
    let share = if busy.is_zero() { 0.0 } else { (forward.as_secs_f64() / busy.as_secs_f64()).min(1.0) };
    let forward = wall.mul_f64(share);
    phases.forward += forward;
    phases.gradient += wall - forward;
    out
}

/// One phase of an EKF iteration: how many update slots it fills, and
/// what each frame adds to them (FEKF sums the frames, Naive-EKF not).
#[derive(Clone, Copy)]
enum Phase {
    /// The total-energy update: one slot.
    Energy,
    /// The force-group updates: one slot per group.
    Forces(usize),
}

impl Phase {
    /// The phases of one iteration, in update order.
    fn iteration(force_updates: usize) -> [Phase; 2] {
        [Phase::Energy, Phase::Forces(force_updates.max(1))]
    }

    fn slots(self) -> usize {
        match self {
            Phase::Energy => 1,
            Phase::Forces(n_groups) => n_groups,
        }
    }

    /// Frame `idx`'s work in `blk`, a reduction block's (or a lane's)
    /// scratch: a forward pass, then the phase's signed gradients and
    /// absolute errors added into its slots. The force groups of a frame
    /// share its pass and one dual sweep.
    fn item(
        self,
        model: &DeepPotModel,
        cache: &EnvCache,
        train: &Dataset,
        idx: usize,
        backend: Backend,
        blk: &mut BlockScratch,
    ) {
        let n_params = model.n_params();
        let frame = &train.frames[idx];
        let start = Instant::now();
        let ws = blk.workspace.take().unwrap_or_default();
        let pass = model.forward_with_cache_in(ws, cache, idx, frame);
        match self {
            Phase::Energy => {
                blk.forward += start.elapsed();
                let acc = &mut blk.acc[..n_params];
                blk.abes[0] += accumulate_energy_target(model, &pass, backend, &mut blk.grads, acc);
            }
            Phase::Forces(n_groups) => {
                blk.forces.clear();
                blk.forces.resize(frame.types.len(), dp_mdsim::Vec3::ZERO);
                model.forces_into(&pass, &mut blk.forces);
                blk.forward += start.elapsed();
                accumulate_force_targets(
                    model,
                    &pass,
                    &blk.forces,
                    frame,
                    n_groups,
                    backend,
                    &mut blk.grads,
                    &mut blk.coeffs,
                    &mut blk.acc[..n_groups * n_params],
                    &mut blk.abes[..n_groups],
                );
            }
        }
        blk.workspace = Some(pass.into_workspace());
    }
}

impl Trainer {
    /// Create a trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer { cfg }
    }

    fn epoch_end(
        &self,
        model: &DeepPotModel,
        train: &Dataset,
        state: &mut LoopState,
        epoch: usize,
    ) -> bool {
        let m = loss::evaluate(model, train, self.cfg.eval_frames);
        state.history.epochs.push(EpochRecord {
            epoch,
            train: m,
            wall_s: state.start.elapsed().as_secs_f64(),
        });
        self.cfg.target.is_some_and(|t| m.combined() <= t)
    }

    /// Mid-epoch convergence probe (when `eval_every` is set).
    fn mid_epoch_converged(
        &self,
        model: &DeepPotModel,
        train: &Dataset,
        state: &mut LoopState,
    ) -> bool {
        if self.cfg.eval_every == 0 || !state.iterations.is_multiple_of(self.cfg.eval_every as u64)
        {
            return false;
        }
        let Some(target) = self.cfg.target else { return false };
        let m = loss::evaluate(model, train, self.cfg.eval_frames.clamp(1, 16));
        if m.combined() <= target {
            // Confirm on the full eval window before declaring victory.
            let confirm = loss::evaluate(model, train, self.cfg.eval_frames);
            if confirm.combined() <= target {
                state.history.epochs.push(EpochRecord {
                    epoch: state.history.epochs.len() + 1,
                    train: confirm,
                    wall_s: state.start.elapsed().as_secs_f64(),
                });
                return true;
            }
        }
        false
    }

    fn outcome(
        &self,
        model: &DeepPotModel,
        train: &Dataset,
        test: Option<&Dataset>,
        state: LoopState,
        epochs_run: usize,
        converged: bool,
    ) -> TrainOutcome {
        let final_train = loss::evaluate(model, train, self.cfg.eval_frames.max(64));
        let final_test = test.map(|t| loss::evaluate(model, t, usize::MAX));
        TrainOutcome {
            epochs_run,
            iterations: state.iterations,
            converged,
            wall_s: state.start.elapsed().as_secs_f64(),
            final_train,
            final_test,
            history: state.history,
            phases: state.phases,
            comm_bytes_per_rank: state.comm_bytes,
            env_cache: state.cache_stats,
            rollbacks: state.rollbacks,
        }
    }

    /// Train with Adam on the standard DeePMD loss (batch-mean
    /// gradients): the Table 1 / Figure 7(a) baseline. The guards watch
    /// the batch-mean loss.
    pub fn train_adam(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Adam,
        train: &Dataset,
        test: Option<&Dataset>,
        robust: &RobustConfig,
    ) -> Result<TrainOutcome, TrainError> {
        let weights = LossWeights::default();
        self.robust_loop(model, opt, train, test, robust, |model, opt, batch, state| {
            let (loss, grad) = timed(&mut state.phases.gradient, || {
                let (loss, mut gsum) = dp_pool::map_reduce(
                    batch,
                    || (0.0, vec![0.0; model.n_params()]),
                    |&i| loss::loss_and_grad(model, &train.frames[i], &weights),
                    |(la, mut ga), (lb, gb)| {
                        for (a, b) in ga.iter_mut().zip(&gb) {
                            *a += b;
                        }
                        (la + lb, ga)
                    },
                );
                let inv = 1.0 / batch.len() as f64;
                for g in &mut gsum {
                    *g *= inv;
                }
                (loss * inv, gsum)
            });
            timed(&mut state.phases.optimizer, || {
                let delta = opt.step(&grad);
                model.apply_update(&delta);
            });
            state.iterations += 1;
            Ok(loss)
        })
    }

    /// One FEKF iteration over `batch` on one device: the data-parallel
    /// iteration on `DeviceGroup::new(1)`, which communicates nothing.
    /// Returns the batch-mean absolute energy error, which the
    /// divergence guards watch.
    ///
    /// # Panics
    /// Panics if a frame's work panics.
    pub fn fekf_iteration(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        batch: &[usize],
        cache: &EnvCache,
        state: &mut LoopState,
    ) -> f64 {
        self.fekf_distributed_iteration(model, opt, train, batch, &DeviceGroup::new(1), cache, state)
            .unwrap_or_else(|e| panic!("FEKF iteration: {e}"))
    }

    /// Train with the fusiform Naive-EKF (§3.1's
    /// "computing-then-aggregation" dataflow): every sample in the
    /// batch drives its *own* Kalman lane with its own `P` replica; the
    /// per-sample weight increments are averaged. Exists to quantify
    /// the dataflow ablation against FEKF (accuracy vs `bs×` memory).
    /// The guards watch the lane-mean absolute energy error.
    pub fn train_naive_ekf(
        &self,
        model: &mut DeepPotModel,
        opt: &mut NaiveEkf,
        train: &Dataset,
        test: Option<&Dataset>,
        robust: &RobustConfig,
    ) -> Result<TrainOutcome, TrainError> {
        assert_eq!(
            opt.batch_size(),
            self.cfg.batch_size,
            "Naive-EKF lane count must match the batch size"
        );
        // No geometry cache: each lane's pass builds its environment.
        let (backend, uncached) = (self.cfg.backend, EnvCache::new(0));
        self.robust_loop(model, opt, train, test, robust, |model, opt, batch, state| {
            let n_params = model.n_params();
            let mut mean_abe = 0.0;
            // FEKF's phases, unreduced: each lane's slots from its own
            // pass, then one lane-averaged update per slot.
            for phase in Phase::iteration(self.cfg.force_updates) {
                let n_slots = phase.slots();
                let model_ref = &*model;
                let lanes: Vec<(Vec<f64>, Vec<f64>)> = timed(&mut state.phases.gradient, || {
                    dp_pool::map_collect(batch, |&i| {
                        let mut blk = BlockScratch::default();
                        (blk.acc, blk.abes) = (vec![0.0; n_slots * n_params], vec![0.0; n_slots]);
                        phase.item(model_ref, &uncached, train, i, backend, &mut blk);
                        (blk.acc, blk.abes)
                    })
                });
                if let Phase::Energy = phase {
                    mean_abe = lanes.iter().map(|(_, a)| a[0]).sum::<f64>() / lanes.len() as f64;
                }
                timed(&mut state.phases.optimizer, || {
                    for k in 0..n_slots {
                        let slot = k * n_params..(k + 1) * n_params;
                        let grads: Vec<&[f64]> = lanes.iter().map(|(g, _)| &g[slot.clone()]).collect();
                        let abes: Vec<f64> = lanes.iter().map(|(_, a)| a[k]).collect();
                        model.apply_update(&opt.step_batch(&grads, &abes));
                    }
                });
            }
            state.iterations += 1;
            Ok(mean_abe)
        })
    }

    /// One data-parallel FEKF iteration: sharded gradient/error sums,
    /// combined with the ring allreduce, then the identical KF updates
    /// every replica would apply (§3.3). A failed collective surfaces
    /// as a typed error — the distributed hot path never panics.
    ///
    /// Each frame runs forward pass and gradient back to back in its
    /// reduction block's workspace, against cached neighbour
    /// environments (`cache`); each shard's gradient/error sums run
    /// through the fixed-block engine of [`crate::gradients`], so the
    /// result is bitwise independent of `DP_POOL_THREADS` and of how
    /// many slots `cache` has (`EnvCache::new(0)` rebuilds every
    /// geometry). Once every buffer has seen the batch's frames, an
    /// iteration allocates nothing.
    #[allow(clippy::too_many_arguments)]
    fn fekf_distributed_iteration(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        batch: &[usize],
        devices: &DeviceGroup,
        cache: &EnvCache,
        state: &mut LoopState,
    ) -> Result<f64, CommError> {
        let n_params = model.n_params();
        let inv_bs = 1.0 / batch.len() as f64;
        let backend = self.cfg.backend;
        state.delta.resize(n_params, 0.0);
        let mut mean_abe = 0.0;
        // The energy phase, then the force phase on fresh passes taken
        // after the energy update. Each reduces the signed gradients and
        // absolute errors over the batch (the early reduction of §3.1,
        // Algorithm 1 line 7): gradients are *summed*
        // ("Ŷ.sum().backward()"), errors are averaged. The Kalman gain
        // normalizes by gᵀPg, so the summed gradient's √bs-growth is
        // exactly what the √bs weight factor compensates (Eq. 2).
        for phase in Phase::iteration(self.cfg.force_updates) {
            let n_slots = phase.slots();
            // The energy error rides as the reduction's scalar; the force
            // groups' errors ride behind their gradients in the vector.
            let len = match phase {
                Phase::Energy => n_params,
                Phase::Forces(_) => n_slots * (n_params + 1),
            };
            // Each rank fans its shard's fused forward+gradient work over
            // the block engine (frames within a rank parallelize across
            // `dp-pool`; the per-rank shard sum stays a fixed-order
            // reduction, so the allreduce input — and hence the update —
            // is thread-count independent).
            let model_ref = &*model;
            let LoopState { phases, scratch, abes, bufs, .. } = &mut *state;
            let red = timed_split(phases, || {
                let (mut forward, mut busy) = (Duration::ZERO, Duration::ZERO);
                let red = devices.map_reduce(batch, len, bufs, |_, shard, buf| {
                    let (f, b) = scratch.block_reduce(
                        shard.len(),
                        n_slots,
                        n_params,
                        &|si, blk| phase.item(model_ref, cache, train, shard[si], backend, blk),
                        buf,
                        abes,
                    );
                    (forward, busy) = (forward + f, busy + b);
                    match phase {
                        Phase::Energy => abes[0],
                        Phase::Forces(_) => {
                            buf.extend_from_slice(abes);
                            0.0
                        }
                    }
                });
                (red, forward, busy)
            })?;
            state.comm_bytes += red.comm.bytes_sent_per_rank;
            let reduced = &state.bufs[0];
            let (grads, abes) = match phase {
                Phase::Energy => {
                    mean_abe = red.scalar * inv_bs;
                    (&reduced[..], std::slice::from_ref(&red.scalar))
                }
                Phase::Forces(_) => reduced.split_at(n_slots * n_params),
            };
            timed(&mut state.phases.optimizer, || {
                opt.step_slots(grads, abes, inv_bs, &mut state.delta, |d| model.apply_update(d))
            });
        }
        state.iterations += 1;
        state.cache_stats = cache.stats();
        Ok(mean_abe)
    }

    /// Fault-tolerant single-device FEKF training: periodic
    /// checkpointing, divergence detection with rollback-and-retry, and
    /// bit-exact resume after a crash (see [`RobustConfig`]). It is the
    /// data-parallel loop on one device, and RLEKF is this loop with a
    /// batch-size-1 `Fekf`.
    pub fn train_fekf_robust(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        test: Option<&Dataset>,
        robust: &RobustConfig,
    ) -> Result<TrainOutcome, TrainError> {
        let one = DeviceGroup::new(1);
        self.train_fekf_distributed_robust(model, opt, train, test, &one, &FaultPlan::none(), robust)
    }

    /// Fault-tolerant data-parallel FEKF training: the gradients and
    /// absolute errors are ring-allreduced over `devices`, with all the
    /// [`RobustConfig`] machinery of the single-device loop. `_plan` is
    /// ignored: [`FaultPlan`] is an inert placeholder that callers still
    /// pass.
    #[allow(clippy::too_many_arguments)]
    pub fn train_fekf_distributed_robust(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        test: Option<&Dataset>,
        devices: &DeviceGroup,
        _plan: &FaultPlan,
        robust: &RobustConfig,
    ) -> Result<TrainOutcome, TrainError> {
        let cache = EnvCache::new(train.len());
        self.robust_loop(model, opt, train, test, robust, |model, opt, batch, state| {
            self.fekf_distributed_iteration(model, opt, train, batch, devices, &cache, state)
        })
    }

    /// The epoch loop. `iterate` performs one weight-update iteration
    /// and returns the error the guards watch (or a communication fault).
    fn robust_loop<O: OptimizerState>(
        &self,
        model: &mut DeepPotModel,
        opt: &mut O,
        train: &Dataset,
        test: Option<&Dataset>,
        robust: &RobustConfig,
        mut iterate: impl FnMut(&mut DeepPotModel, &mut O, &[usize], &mut LoopState) -> Result<f64, CommError>,
    ) -> Result<TrainOutcome, TrainError> {
        let sampler = BatchSampler::new(train.len(), self.cfg.batch_size, O::DROP_LAST);
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let mut state = LoopState::new();
        let mut converged = false;
        let mut epochs_run = 0;
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut poisoned = false;
        let mut abe_floor: Option<f64> = None;

        // Cursor: the next batch comes from (epoch, batches_done), with
        // the RNG positioned at the start of `epoch`'s shuffle stream.
        let mut epoch = 1usize;
        let mut batches_done = 0usize;

        if robust.resume {
            let dir = robust.checkpoint_dir.as_deref().ok_or_else(|| {
                TrainError::Checkpoint("resume requested without a checkpoint_dir".into())
            })?;
            if let Some(ck) = checkpoint::load_latest(dir)? {
                restore_checkpoint(&ck, model, opt)?;
                rng.set_word_pos(ck.word_pos);
                epoch = ck.epoch.max(1);
                batches_done = ck.batches_done;
                state.iterations = ck.iterations;
                state.rollbacks = ck.rollbacks;
                best = ck.best.clone();
            }
        }

        // The last known-healthy state: the rollback target of the
        // guards and what a checkpoint persists. Taken once here, then
        // refreshed in place at every checkpoint and every epoch
        // boundary. With the guards off and no checkpoint directory
        // nothing reads it, so the loop takes none and never copies `P`.
        let snapshots = robust.check_every > 0 || robust.checkpoint_dir.is_some();
        let cursor = |epoch, batches_done, state: &LoopState, word_pos| Cursor {
            epoch,
            batches_done,
            iterations: state.iterations,
            word_pos,
            rollbacks: state.rollbacks,
        };
        let mut snap = snapshots.then(|| {
            Snapshot::take(cursor(epoch, batches_done, &state, rng.get_word_pos()), model, opt)
        });

        'epochs: while epoch <= self.cfg.max_epochs {
            // Replay this epoch's shuffle from the epoch-start stream
            // position (recorded so rollback/resume reproduce the
            // exact batch order).
            let epoch_word_pos = rng.get_word_pos();
            let batches = sampler.epoch(&mut rng);
            let mut bi = batches_done;
            while bi < batches.len() {
                let abe = match iterate(model, opt, &batches[bi], &mut state) {
                    Ok(a) => a,
                    Err(source) => return Err(TrainError::Comm { source, epoch }),
                };
                bi += 1;
                batches_done = bi;

                // Chaos hook: a one-shot single-event upset NaN-poisons
                // one P block (transient fault model — it does not
                // recur after the rollback).
                if let Some((at, block)) = robust.poison_p_at {
                    if !poisoned && state.iterations >= at {
                        poisoned = true;
                        poison_p_block(opt.kf_cores(), block);
                    }
                }

                // Divergence guards.
                if robust.check_every > 0
                    && state.iterations.is_multiple_of(robust.check_every as u64)
                {
                    if let Some(bad_block) = divergence(model, opt.kf_cores(), abe, &mut abe_floor, robust) {
                        let healthy = snap.as_ref().expect("the guards keep a snapshot");
                        healthy.restore(model, opt);
                        let at = healthy.cursor;
                        if state.rollbacks >= robust.max_rollbacks {
                            // Budget exhausted: hand back the last
                            // healthy (or best) state with a typed
                            // error.
                            state.iterations = at.iterations;
                            restore_best_params(model, train, self.cfg, &best, robust);
                            let rollbacks = state.rollbacks;
                            let outcome = self.outcome(
                                model,
                                train,
                                test,
                                state,
                                epochs_run.max(epoch.saturating_sub(1)),
                                false,
                            );
                            return Err(TrainError::Diverged {
                                epoch,
                                rollbacks,
                                outcome: Box::new(outcome),
                            });
                        }
                        state.rollbacks += 1;
                        // Rolled back to the last healthy snapshot; now
                        // the recovery nudge — reset the offending P
                        // block to p0·I and decay λ, in every Kalman
                        // core — so the replay takes a tamer trajectory
                        // instead of re-diverging identically.
                        for core in opt.kf_cores() {
                            match bad_block {
                                Some(b) => core.reset_block(b, 1.0),
                                None => core.mem.decay(0.98),
                            }
                        }
                        epoch = at.epoch;
                        batches_done = at.batches_done;
                        state.iterations = at.iterations;
                        rng.set_word_pos(at.word_pos);
                        continue 'epochs;
                    }
                }

                // Periodic checkpoint: refresh the rollback target and
                // (when configured) persist it crash-safely.
                if let Some(snap) = snap.as_mut().filter(|_| {
                    robust.checkpoint_every > 0
                        && state.iterations.is_multiple_of(robust.checkpoint_every as u64)
                }) {
                    snap.refresh(cursor(epoch, batches_done, &state, epoch_word_pos), model, opt);
                    write_checkpoint(snap, &best, robust)?;
                }

                // Chaos hook: simulated kill. Everything after the last
                // checkpoint is lost, exactly like a real crash; resume
                // replays the gap deterministically.
                if let Some(h) = robust.halt_after {
                    if state.iterations >= h {
                        return Err(TrainError::Halted { iterations: state.iterations });
                    }
                }

                if self.mid_epoch_converged(model, train, &mut state) {
                    converged = true;
                    break;
                }
            }
            epochs_run = epoch;
            if converged || self.epoch_end(model, train, &mut state, epoch) {
                converged = true;
            }
            if let Some(rec) = state.history.epochs.last().filter(|_| robust.restore_best) {
                let eval = rec.train.combined();
                if eval.is_finite() && best.as_ref().is_none_or(|(b, _)| eval < *b) {
                    best = Some((eval, model.get_params()));
                }
            }
            // Epoch boundary: new cursor, fresh snapshot (the RNG now
            // sits at the start of the next epoch's stream).
            epoch += 1;
            batches_done = 0;
            if let Some(snap) = snap.as_mut() {
                snap.refresh(cursor(epoch, batches_done, &state, rng.get_word_pos()), model, opt);
                write_checkpoint(snap, &best, robust)?;
            }
            if converged {
                break;
            }
        }
        restore_best_params(model, train, self.cfg, &best, robust);
        Ok(self.outcome(model, train, test, state, epochs_run, converged))
    }
}

/// Fault-tolerance policy of the epoch loop.
#[derive(Clone, Debug)]
pub struct RobustConfig {
    /// Snapshot (and persist, when `checkpoint_dir` is set) every N
    /// iterations; 0 = epoch boundaries only.
    pub checkpoint_every: usize,
    /// Where checkpoints are written. `None` keeps them in memory only
    /// (rollback still works; crash recovery does not).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint in `checkpoint_dir` if one exists.
    pub resume: bool,
    /// Run the divergence guards every N iterations (0 disables them).
    pub check_every: usize,
    /// Declare divergence when the batch energy error exceeds this
    /// multiple of the best error seen so far.
    pub explode_factor: f64,
    /// Declare divergence when any `P` diagonal entry exceeds this (or
    /// goes non-finite / non-positive).
    pub p_diag_cap: f64,
    /// Rollback budget before giving up with [`TrainError::Diverged`].
    pub max_rollbacks: u32,
    /// On exit, restore the parameters of the best epoch evaluation if
    /// they beat the final ones.
    pub restore_best: bool,
    /// Chaos hook: return [`TrainError::Halted`] once this many
    /// iterations complete (simulates `kill -9` for resume tests).
    pub halt_after: Option<u64>,
    /// Chaos hook: NaN-poison `P` block `.1` after iteration `.0`
    /// (one-shot; exercises detect → rollback → reset → continue).
    pub poison_p_at: Option<(u64, usize)>,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            check_every: 1,
            explode_factor: 1e4,
            p_diag_cap: 1e12,
            max_rollbacks: 3,
            restore_best: true,
            halt_after: None,
            poison_p_at: None,
        }
    }
}

impl RobustConfig {
    /// Every guard off: no divergence checks, no checkpoints, the final
    /// weights kept. The loop is then the plain epoch schedule — it
    /// takes no snapshot, so it never copies `P` — and on a clean link
    /// it cannot fail.
    pub fn off() -> Self {
        RobustConfig { check_every: 0, restore_best: false, ..RobustConfig::default() }
    }
}

/// Put a loaded DPCK checkpoint's weights and optimizer state back
/// (resume), after checking they belong to this run.
fn restore_checkpoint<O: OptimizerState>(
    ck: &Checkpoint,
    model: &mut DeepPotModel,
    opt: &mut O,
) -> Result<(), TrainError> {
    if ck.opt_kind != O::KIND {
        return Err(TrainError::Checkpoint(format!(
            "checkpoint holds {:?} state, expected {:?}",
            ck.opt_kind,
            O::KIND
        )));
    }
    if ck.params.len() != model.n_params() {
        return Err(TrainError::Checkpoint(format!(
            "checkpoint has {} parameters, model has {}",
            ck.params.len(),
            model.n_params()
        )));
    }
    opt.restore_state(&ck.opt_bytes)
        .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
    model.set_params(&ck.params);
    Ok(())
}

/// Persist `snap` as a DPCK record when the run has a checkpoint
/// directory; without one, nothing is serialised.
fn write_checkpoint<O: OptimizerState>(
    snap: &Snapshot<O>,
    best: &Option<(f64, Vec<f64>)>,
    robust: &RobustConfig,
) -> Result<(), TrainError> {
    if let Some(dir) = &robust.checkpoint_dir {
        fs::create_dir_all(dir)?;
        snap.to_checkpoint(best).save(checkpoint::checkpoint_path(dir))?;
    }
    Ok(())
}

/// The per-iteration divergence guards: non-finite or exploding batch
/// error, non-finite parameters, or an unhealthy `P` block in any of
/// `cores`. On divergence returns `Some` of the offending block, when
/// one is identifiable. Allocation-free: it runs every iteration.
fn divergence(
    model: &DeepPotModel,
    cores: &[KfCore],
    abe: f64,
    abe_floor: &mut Option<f64>,
    robust: &RobustConfig,
) -> Option<Option<usize>> {
    let bad_block = cores.iter().find_map(|c| c.first_unhealthy_block(robust.p_diag_cap));
    if !abe.is_finite() || bad_block.is_some() {
        return Some(bad_block);
    }
    if abe_floor.is_some_and(|floor| abe > robust.explode_factor * floor.max(f64::MIN_POSITIVE)) {
        return Some(None);
    }
    *abe_floor = Some(abe_floor.map_or(abe, |f| f.min(abe)));
    (!model.params_finite()).then_some(None)
}

/// One-shot chaos fault: overwrite the first element of `P` block
/// `block` of the first Kalman core with NaN, in place (a simulated
/// memory upset). Without a core (Adam) nothing happens.
fn poison_p_block(cores: &mut [KfCore], block: usize) {
    if let Some(core) = cores.first_mut() {
        let b = block % core.p.n_blocks();
        core.p.block_mut(b).as_mut_slice()[0] = f64::NAN;
    }
}

/// Apply `restore_best`: if a tracked epoch evaluation beat the final
/// state, put those parameters back.
fn restore_best_params(
    model: &mut DeepPotModel,
    train: &Dataset,
    cfg: TrainConfig,
    best: &Option<(f64, Vec<f64>)>,
    robust: &RobustConfig,
) {
    if !robust.restore_best {
        return;
    }
    if let Some((best_eval, best_params)) = best {
        let current = loss::evaluate(model, train, cfg.eval_frames).combined();
        if !current.is_finite() || *best_eval < current {
            model.set_params(best_params);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::config::ModelConfig;
    use dp_mdsim::lattice::{fcc, Species};
    use dp_mdsim::potential::lj::LennardJones;
    use dp_mdsim::md::{MdConfig, MdRunner};
    use dp_optim::adam::AdamConfig;
    use dp_optim::fekf::FekfConfig;

    /// Tiny LJ dataset: 8-atom argon-like fcc at 60 K.
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

    /// FEKF at the trainer's batch size, every guard off.
    fn fekf(t: &Trainer, model: &mut DeepPotModel, ds: &Dataset) -> TrainOutcome {
        let mut opt = Fekf::new(&model.layer_sizes(), t.cfg.batch_size, FekfConfig::default());
        t.train_fekf_robust(model, &mut opt, ds, None, &RobustConfig::off()).unwrap()
    }

    fn param_bits(m: &DeepPotModel) -> Vec<u64> {
        m.get_params().iter().map(|v| v.to_bits()).collect()
    }

    /// The optimizers the loop trains: the rows of the tests that hold
    /// for each of them.
    #[derive(Clone, Copy, Debug)]
    enum Opt {
        Fekf,
        Adam,
        NaiveEkf,
    }

    impl Opt {
        /// Train `model` with a fresh optimizer of this kind at the
        /// trainer's batch size: the outcome and the optimizer's state.
        fn train(
            self,
            t: &Trainer,
            model: &mut DeepPotModel,
            ds: &Dataset,
            robust: &RobustConfig,
        ) -> (Result<TrainOutcome, TrainError>, Vec<u8>) {
            let (layers, bs) = (model.layer_sizes(), t.cfg.batch_size);
            match self {
                Opt::Fekf => {
                    let mut o = Fekf::new(&layers, bs, FekfConfig::default());
                    (t.train_fekf_robust(model, &mut o, ds, None, robust), o.state_to_bytes())
                }
                Opt::Adam => {
                    let mut o = Adam::new(model.n_params(), AdamConfig::default());
                    (t.train_adam(model, &mut o, ds, None, robust), o.state_to_bytes())
                }
                Opt::NaiveEkf => {
                    let mut o = NaiveEkf::new(&layers, 10240, bs, None, true);
                    (t.train_naive_ekf(model, &mut o, ds, None, robust), o.state_to_bytes())
                }
            }
        }
    }

    #[test]
    fn fekf_training_reduces_rmse() {
        let ds = tiny_dataset(24, 1);
        let mut model = tiny_model(&ds);
        let initial = loss::evaluate(&model, &ds, 16);
        let out = fekf(&trainer(4, 4), &mut model, &ds);
        assert!(out.iterations > 0);
        assert!(
            out.final_train.combined() < 0.5 * initial.combined(),
            "FEKF should cut RMSE at least in half: {} → {}",
            initial.combined(),
            out.final_train.combined()
        );
    }

    /// RLEKF: the same loop at batch size 1.
    #[test]
    fn rlekf_training_reduces_rmse() {
        let ds = tiny_dataset(16, 2);
        let mut model = tiny_model(&ds);
        let initial = loss::evaluate(&model, &ds, 16);
        let out = fekf(&trainer(1, 2), &mut model, &ds);
        assert!(
            out.final_train.combined() < 0.5 * initial.combined(),
            "RLEKF: {} → {}",
            initial.combined(),
            out.final_train.combined()
        );
    }

    #[test]
    fn adam_training_reduces_rmse() {
        let ds = tiny_dataset(24, 3);
        let mut model = tiny_model(&ds);
        let initial = loss::evaluate(&model, &ds, 16);
        let mut opt = Adam::new(model.n_params(), AdamConfig { lr: 5e-3, ..Default::default() });
        let out = trainer(4, 12).train_adam(&mut model, &mut opt, &ds, None, &RobustConfig::off()).unwrap();
        assert!(
            out.final_train.combined() < initial.combined(),
            "Adam: {} → {}",
            initial.combined(),
            out.final_train.combined()
        );
    }

    #[test]
    fn fekf_converges_much_faster_than_adam_per_epoch() {
        // The paper's core claim in miniature: after ONE epoch of
        // updates, FEKF is already far below Adam (the Kalman gain
        // front-loads convergence — that is what makes minutes-scale
        // training possible). At this toy scale Adam eventually catches
        // up with enough epochs, so the single-epoch comparison is the
        // discriminating one.
        let ds = tiny_dataset(24, 4);
        let mut m1 = tiny_model(&ds);
        let mut m2 = m1.clone();
        let mut adam = Adam::new(m2.n_params(), AdamConfig::default());
        let out_f = fekf(&trainer(4, 1), &mut m1, &ds);
        let out_a = trainer(4, 1).train_adam(&mut m2, &mut adam, &ds, None, &RobustConfig::off()).unwrap();
        assert!(
            out_f.final_train.combined() < 0.5 * out_a.final_train.combined(),
            "FEKF {} should be far below Adam {} after one epoch",
            out_f.final_train.combined(),
            out_a.final_train.combined()
        );
    }

    #[test]
    fn distributed_fekf_matches_single_device_closely() {
        let ds = tiny_dataset(16, 5);
        let mut m1 = tiny_model(&ds);
        let mut m2 = m1.clone();
        let mut o2 = Fekf::new(&m2.layer_sizes(), 4, FekfConfig::default());
        let t = trainer(4, 2);
        let single = fekf(&t, &mut m1, &ds);
        let devices = DeviceGroup::new(2);
        let multi = t
            .train_fekf_distributed_robust(
                &mut m2,
                &mut o2,
                &ds,
                None,
                &devices,
                &FaultPlan::none(),
                &RobustConfig::off(),
            )
            .unwrap();
        assert!(multi.comm_bytes_per_rank > 0, "2 devices must communicate");
        // Same data order (same seed) → near-identical trajectories up
        // to float-reduction ordering.
        let rel = (single.final_train.combined() - multi.final_train.combined()).abs()
            / single.final_train.combined();
        assert!(
            rel < 0.15,
            "single {} vs distributed {}",
            single.final_train.combined(),
            multi.final_train.combined()
        );
    }

    #[test]
    fn naive_ekf_training_reduces_rmse() {
        let ds = tiny_dataset(16, 9);
        let mut model = tiny_model(&ds);
        let initial = loss::evaluate(&model, &ds, 16);
        let mut opt = NaiveEkf::new(&model.layer_sizes(), 10240, 4, None, true);
        let out = trainer(4, 2).train_naive_ekf(&mut model, &mut opt, &ds, None, &RobustConfig::off()).unwrap();
        assert!(out.iterations > 0);
        assert!(
            out.final_train.combined() < initial.combined(),
            "Naive-EKF: {} → {}",
            initial.combined(),
            out.final_train.combined()
        );
    }

    #[test]
    fn target_stops_training_early() {
        let ds = tiny_dataset(16, 6);
        let mut model = tiny_model(&ds);
        let t = Trainer::new(TrainConfig {
            batch_size: 4,
            max_epochs: 50,
            target: Some(1e9), // trivially met after epoch 1
            eval_frames: 8,
            force_updates: 4,
            seed: 1,
            backend: Backend::Manual,
            eval_every: 0,
        });
        let out = fekf(&t, &mut model, &ds);
        assert!(out.converged);
        assert_eq!(out.epochs_run, 1);
    }

    #[test]
    fn phase_times_are_populated() {
        let ds = tiny_dataset(8, 7);
        let mut model = tiny_model(&ds);
        let out = fekf(&trainer(4, 1), &mut model, &ds);
        assert!(out.phases.forward.as_nanos() > 0);
        assert!(out.phases.gradient.as_nanos() > 0);
        assert!(out.phases.optimizer.as_nanos() > 0);
    }

    fn no_chaos() -> RobustConfig {
        RobustConfig { restore_best: false, ..RobustConfig::default() }
    }

    #[test]
    fn guards_are_a_no_op_on_a_healthy_run() {
        // The fault-tolerance machinery must be a no-op on a healthy
        // run: same batches, same updates, bit-identical weights.
        let ds = tiny_dataset(16, 11);
        let mut m1 = tiny_model(&ds);
        let mut m2 = m1.clone();
        let mut o2 = Fekf::new(&m2.layer_sizes(), 4, FekfConfig::default());
        let t = trainer(4, 2);
        let _ = fekf(&t, &mut m1, &ds);
        let _ = t.train_fekf_robust(&mut m2, &mut o2, &ds, None, &no_chaos()).unwrap();
        assert_eq!(param_bits(&m1), param_bits(&m2));
    }

    /// The data-parallel iteration on one device is the single-device
    /// iteration, bit for bit: under either derivative backend, and with
    /// more force groups than the frames' 32 atoms (the empty groups are
    /// skipped by both, so neither divides `P` by λ for them).
    #[test]
    fn one_device_distributed_run_is_the_single_device_run_bitwise() {
        let ds = tiny_dataset(8, 17);
        for (backend, force_updates) in [(Backend::Manual, 4), (Backend::Tape, 4), (Backend::Manual, 40)] {
            let t = Trainer::new(TrainConfig { backend, force_updates, ..trainer(4, 1).cfg });
            let mut m1 = tiny_model(&ds);
            let mut m2 = m1.clone();
            let mut o1 = Fekf::new(&m1.layer_sizes(), 4, FekfConfig::default());
            let mut o2 = Fekf::new(&m2.layer_sizes(), 4, FekfConfig::default());
            let off = RobustConfig::off();
            t.train_fekf_robust(&mut m1, &mut o1, &ds, None, &off).unwrap();
            let devices = DeviceGroup::new(1);
            t.train_fekf_distributed_robust(&mut m2, &mut o2, &ds, None, &devices, &FaultPlan::none(), &off)
                .unwrap();
            let case = format!("{backend:?}, {force_updates} force groups");
            assert_eq!(param_bits(&m1), param_bits(&m2), "weights: {case}");
            assert_eq!(o1.state_to_bytes(), o2.state_to_bytes(), "filter state: {case}");
        }
    }

    #[test]
    fn killed_and_resumed_run_is_bitwise_identical_to_uninterrupted() {
        let ds = tiny_dataset(16, 12);
        let t = trainer(4, 3);
        for opt in [Opt::Fekf, Opt::Adam, Opt::NaiveEkf] {
            let dir = std::env::temp_dir().join(format!("dp_resume_{opt:?}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);

            // Reference: uninterrupted run.
            let mut m_ref = tiny_model(&ds);
            let (done, state_ref) = opt.train(&t, &mut m_ref, &ds, &no_chaos());
            done.unwrap();

            // Crashed run: checkpoint every 2 iterations, killed after 5 —
            // mid-epoch, NOT on a checkpoint boundary, so resume must
            // replay the gap from the last checkpoint.
            let mut m = tiny_model(&ds);
            let robust = RobustConfig {
                checkpoint_every: 2,
                checkpoint_dir: Some(dir.clone()),
                halt_after: Some(5),
                ..no_chaos()
            };
            match opt.train(&t, &mut m, &ds, &robust).0 {
                Err(TrainError::Halted { iterations }) => assert_eq!(iterations, 5, "{opt:?}"),
                other => panic!("{opt:?}: expected Halted, got {other:?}"),
            }

            // Resume in a FRESH process image: new model, new optimizer —
            // everything must come from the checkpoint file.
            let mut m2 = tiny_model(&ds);
            let robust = RobustConfig {
                checkpoint_every: 2,
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..no_chaos()
            };
            let (out, state) = opt.train(&t, &mut m2, &ds, &robust);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(out.unwrap().iterations > 5, "{opt:?}: resume must continue past the crash point");
            assert_eq!(param_bits(&m2), param_bits(&m_ref), "{opt:?}: weights after resume");
            assert_eq!(state, state_ref, "{opt:?}: optimizer state after resume");
        }
    }

    #[test]
    fn injected_p_nan_triggers_rollback_and_training_continues() {
        let ds = tiny_dataset(16, 13);
        let mut m = tiny_model(&ds);
        let initial = loss::evaluate(&m, &ds, 16);
        let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
        let robust = RobustConfig {
            poison_p_at: Some((3, 0)),
            ..no_chaos()
        };
        let out = trainer(4, 3).train_fekf_robust(&mut m, &mut opt, &ds, None, &robust).unwrap();
        // The run recovered: it completed, the model is finite and the
        // P blocks are healthy again.
        assert!(out.iterations > 3);
        assert!(m.get_params().iter().all(|v| v.is_finite()));
        assert!(opt.core().first_unhealthy_block(1e12).is_none());
        assert!(
            out.final_train.combined() < initial.combined(),
            "training must still improve after the upset: {} → {}",
            initial.combined(),
            out.final_train.combined()
        );
    }

    /// The rollback restores the in-memory snapshot whether or not the
    /// run also writes DPCK checkpoints: a poisoned run ends with the
    /// same weights, optimizer state (`P` and λ) and rollback count
    /// either way. Adam has no `P` to poison, so it takes no rollback.
    #[test]
    fn rollback_is_bitwise_the_same_with_and_without_a_checkpoint_dir() {
        let ds = tiny_dataset(16, 13);
        for (opt, rollbacks) in [(Opt::Fekf, 1), (Opt::Adam, 0), (Opt::NaiveEkf, 1)] {
            let dir = std::env::temp_dir().join(format!("dp_rollback_{opt:?}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let run = |checkpoint_dir: Option<PathBuf>| {
                let mut m = tiny_model(&ds);
                let robust = RobustConfig {
                    checkpoint_every: 2,
                    checkpoint_dir,
                    poison_p_at: Some((3, 0)),
                    ..no_chaos()
                };
                let (out, state) = opt.train(&trainer(4, 3), &mut m, &ds, &robust);
                (param_bits(&m), state, out.unwrap().rollbacks)
            };
            let without = run(None);
            let with = run(Some(dir.clone()));
            let saved = checkpoint::load_latest(&dir).unwrap().expect("the run wrote checkpoints");
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(without.2, rollbacks, "{opt:?}: one upset, one rollback");
            assert_eq!(with, without, "{opt:?}");
            assert_eq!(saved.rollbacks, rollbacks, "{opt:?}");
        }
    }

    #[test]
    fn divergence_past_retry_budget_is_a_typed_error_with_best_effort_state() {
        let ds = tiny_dataset(8, 14);
        let mut m = tiny_model(&ds);
        let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
        // An impossible explosion threshold plus zero retries: the
        // first guard check fails the run immediately.
        let robust = RobustConfig {
            max_rollbacks: 0,
            poison_p_at: Some((1, 0)),
            ..RobustConfig::default()
        };
        match trainer(4, 2).train_fekf_robust(&mut m, &mut opt, &ds, None, &robust) {
            Err(TrainError::Diverged { rollbacks, outcome, .. }) => {
                assert_eq!(rollbacks, 0);
                assert!(!outcome.converged);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        // The model was rolled back to the last healthy snapshot.
        assert!(m.get_params().iter().all(|v| v.is_finite()));
    }
}
