//! Training loops for Adam, Naive-EKF and FEKF (single- and
//! multi-device).
//!
//! Per-iteration structure of the EKF loops (§4 "Model parameters"):
//! one weight update with the total energy, then `force_updates` (4 by
//! default) updates with disjoint atomic-force groups. FEKF reduces the
//! signed gradients and absolute errors over the whole minibatch before
//! each update (the funnel dataflow of §3.1). RLEKF performs the same
//! sequence per individual sample, which is FEKF at batch size 1: it
//! runs through the same loop as `Fekf::new(layers, 1, ..)`.
//!
//! FEKF has one epoch loop, the fault-tolerant one behind
//! [`Trainer::train_fekf_robust`] and
//! [`Trainer::train_fekf_distributed_robust`]; [`RobustConfig::off`]
//! turns every guard off for callers that want the plain schedule.
//!
//! Implementation note: the four force-group updates of one iteration
//! share a single fresh forward pass (taken after the energy update)
//! instead of re-running the network between groups — the groups are
//! disjoint, and this matches the batched reference implementation's
//! cost model while keeping the sequential `P` updates.

use crate::checkpoint::{self, Checkpoint, OptKind};
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
use dp_optim::fekf::Fekf;
use dp_parallel::{CommError, DeviceGroup, FaultPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

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
    /// Environment-cache hit/miss counters of the FEKF loop (zero for
    /// Adam and Naive-EKF, which do not use the cache).
    pub env_cache: CacheStats,
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
    /// Reusable Δw buffer for the optimizer steps: sized on the first
    /// iteration, then the steady-state KF path stays allocation-free.
    delta: Vec<f64>,
    /// Recycled block-reduction scratch of the frame-parallel gradient
    /// engine (single-device loops).
    scratch: GradScratch,
    /// Combined gradient sums of the last block reduction
    /// (`n_slots × n_params` layout, slot-major).
    gsum: Vec<f64>,
    /// Combined absolute-error sums of the last block reduction.
    gabes: Vec<f64>,
    /// Per-rank recycled scratch for the distributed shard closures
    /// (sized lazily to the device count).
    dist_scratch: Vec<Mutex<GradScratch>>,
    /// Latest environment-cache counters (refreshed every iteration so
    /// every outcome path reports them).
    cache_stats: CacheStats,
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
            gsum: Vec::new(),
            gabes: Vec::new(),
            dist_scratch: Vec::new(),
            cache_stats: CacheStats::default(),
        }
    }

    /// Detach the reusable Δw buffer, (re)sized to `n_params`. Callers
    /// hand it back via [`LoopState::return_delta`] so the next
    /// iteration reuses the same allocation.
    fn take_delta(&mut self, n_params: usize) -> Vec<f64> {
        let mut d = std::mem::take(&mut self.delta);
        if d.len() != n_params {
            d = vec![0.0; n_params];
        }
        d
    }

    fn return_delta(&mut self, d: Vec<f64>) {
        self.delta = d;
    }
}

/// Time `f`, a block reduction that returns the forward share of its
/// busy time, and book its wall time on the forward and gradient phases
/// in that proportion.
fn timed_split(phases: &mut PhaseTimes, f: impl FnOnce() -> f64) {
    let start = Instant::now();
    let forward_share = f();
    let wall = start.elapsed();
    let forward = wall.mul_f64(forward_share);
    phases.forward += forward;
    phases.gradient += wall - forward;
}

/// One reduction phase of a FEKF iteration: how many update slots it
/// fills, and what each frame adds to them.
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

    /// Frame `idx`'s work in its reduction block's workspace: a forward
    /// pass, then the phase's signed gradients and absolute errors added
    /// into the block's slots. The force groups of a frame share its
    /// pass and one dual sweep.
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

/// Apply one phase's Kalman updates in slot order: slot `k` of `grads`
/// (`n_params` wide) with batch-mean error `abes[k] · inv_bs`. A slot
/// whose reduced gradient is all zero — a force group that no frame of
/// the batch has atoms for — is skipped: it would move no weight, yet
/// still divide `P` by λ and advance λ.
fn kf_updates(
    model: &mut DeepPotModel,
    opt: &mut Fekf,
    grads: &[f64],
    abes: &[f64],
    inv_bs: f64,
    delta: &mut [f64],
) {
    for (g, &abe) in grads.chunks_exact(delta.len()).zip(abes) {
        if g.iter().any(|&v| v != 0.0) {
            opt.step_into(g, abe * inv_bs, delta);
            model.apply_update(delta);
        }
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
        match self.cfg.target {
            Some(t) => m.combined() <= t,
            None => false,
        }
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
        }
    }

    /// Train with Adam on the standard DeePMD loss (batch-mean
    /// gradients). The Table 1 / Figure 7(a) baseline.
    pub fn train_adam(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Adam,
        train: &Dataset,
        test: Option<&Dataset>,
    ) -> TrainOutcome {
        let weights = LossWeights::default();
        let sampler = BatchSampler::new(train.len(), self.cfg.batch_size, false);
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let mut state = LoopState::new();
        let mut converged = false;
        let mut epochs_run = 0;
        for epoch in 1..=self.cfg.max_epochs {
            for batch in sampler.epoch(&mut rng) {
                let grad = timed(&mut state.phases.gradient, || {
                    let mut gsum = dp_pool::map_reduce(
                        &batch,
                        || vec![0.0; model.n_params()],
                        |&i| loss::loss_and_grad(model, &train.frames[i], &weights).1,
                        |mut ga, gb| {
                            for (a, b) in ga.iter_mut().zip(&gb) {
                                *a += b;
                            }
                            ga
                        },
                    );
                    let inv = 1.0 / batch.len() as f64;
                    for g in &mut gsum {
                        *g *= inv;
                    }
                    gsum
                });
                timed(&mut state.phases.optimizer, || {
                    let delta = opt.step(&grad);
                    model.apply_update(&delta);
                });
                state.iterations += 1;
                if self.mid_epoch_converged(model, train, &mut state) {
                    converged = true;
                    break;
                }
            }
            epochs_run = epoch;
            if converged || self.epoch_end(model, train, &mut state, epoch) {
                converged = true;
                break;
            }
        }
        self.outcome(model, train, test, state, epochs_run, converged)
    }

    /// One FEKF iteration over `batch`. Returns the batch-mean absolute
    /// energy error, which the divergence guards watch.
    ///
    /// Each frame runs forward pass and gradient back to back in its
    /// reduction block's workspace, against cached neighbour
    /// environments (`cache`); the batch gradient/error sums run
    /// through the fixed-block engine of [`crate::gradients`], so the
    /// result is bitwise independent of `DP_POOL_THREADS` and of how
    /// many slots `cache` has (`EnvCache::new(0)` rebuilds every
    /// geometry). Once every buffer has seen the batch's frames, an
    /// iteration allocates nothing.
    pub fn fekf_iteration(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        batch: &[usize],
        cache: &EnvCache,
        state: &mut LoopState,
    ) -> f64 {
        let n_params = model.n_params();
        let inv_bs = 1.0 / batch.len() as f64;
        let backend = self.cfg.backend;
        let mut delta = state.take_delta(n_params);
        // The energy phase, then the force phase on fresh passes taken
        // after the energy update. Each reduces the signed gradients and
        // absolute errors over the batch (the early reduction of §3.1,
        // Algorithm 1 line 7): gradients are *summed*
        // ("Ŷ.sum().backward()"), errors are averaged. The Kalman gain
        // normalizes by gᵀPg, so the summed gradient's √bs-growth is
        // exactly what the √bs weight factor compensates (Eq. 2).
        let [mean_abe, _] = Phase::iteration(self.cfg.force_updates).map(|phase| {
            {
                let model = &*model;
                let LoopState { phases, scratch, gsum, gabes, .. } = &mut *state;
                timed_split(phases, || {
                    scratch.block_reduce(
                        batch.len(),
                        phase.slots(),
                        n_params,
                        &|bi, blk| phase.item(model, cache, train, batch[bi], backend, blk),
                        gsum,
                        gabes,
                    )
                });
            }
            timed(&mut state.phases.optimizer, || {
                kf_updates(model, opt, &state.gsum, &state.gabes, inv_bs, &mut delta)
            });
            state.gabes[0] * inv_bs
        });
        state.return_delta(delta);
        state.iterations += 1;
        state.cache_stats = cache.stats();
        mean_abe
    }

    /// Train with the fusiform Naive-EKF (§3.1's
    /// "computing-then-aggregation" dataflow): every sample in the
    /// batch drives its *own* Kalman lane with its own `P` replica; the
    /// per-sample weight increments are averaged. Exists to quantify
    /// the dataflow ablation against FEKF (accuracy vs `bs×` memory).
    pub fn train_naive_ekf(
        &self,
        model: &mut DeepPotModel,
        opt: &mut dp_optim::naive_ekf::NaiveEkf,
        train: &Dataset,
        test: Option<&Dataset>,
    ) -> TrainOutcome {
        assert_eq!(
            opt.batch_size(),
            self.cfg.batch_size,
            "Naive-EKF lane count must match the batch size"
        );
        // drop_last: lanes must stay fully populated.
        let sampler = BatchSampler::new(train.len(), self.cfg.batch_size, true);
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let mut state = LoopState::new();
        let mut converged = false;
        let mut epochs_run = 0;
        let n_groups = self.cfg.force_updates.max(1);
        let (n_params, backend) = (model.n_params(), self.cfg.backend);
        for epoch in 1..=self.cfg.max_epochs {
            for batch in sampler.epoch(&mut rng) {
                // Energy update: one gradient per lane.
                let (grads, abes): (Vec<Vec<f64>>, Vec<f64>) = timed(&mut state.phases.gradient, || {
                    dp_pool::map_collect(&batch, |&i| {
                        let pass = model.forward(&train.frames[i]);
                        let mut g = vec![0.0; n_params];
                        let abe = accumulate_energy_target(model, &pass, backend, &mut Vec::new(), &mut g);
                        (g, abe)
                    })
                    .into_iter()
                    .unzip()
                });
                timed(&mut state.phases.optimizer, || {
                    let delta = opt.step_batch(&grads, &abes);
                    model.apply_update(&delta);
                });
                // Force updates: every lane's groups from one pass.
                let per_sample: Vec<(Vec<f64>, Vec<f64>)> = timed(&mut state.phases.gradient, || {
                    dp_pool::map_collect(&batch, |&i| {
                        let frame = &train.frames[i];
                        let pass = model.forward(frame);
                        let forces = model.forces(&pass);
                        let (mut g, mut abes) = (vec![0.0; n_groups * n_params], vec![0.0; n_groups]);
                        let (mut grads, mut coeffs) = (Vec::new(), Vec::new());
                        accumulate_force_targets(
                            model, &pass, &forces, frame, n_groups, backend, &mut grads, &mut coeffs, &mut g,
                            &mut abes,
                        );
                        (g, abes)
                    })
                });
                timed(&mut state.phases.optimizer, || {
                    for k in 0..n_groups {
                        let slot = k * n_params..(k + 1) * n_params;
                        let grads: Vec<Vec<f64>> =
                            per_sample.iter().map(|(g, _)| g[slot.clone()].to_vec()).collect();
                        let abes: Vec<f64> = per_sample.iter().map(|(_, a)| a[k]).collect();
                        let delta = opt.step_batch(&grads, &abes);
                        model.apply_update(&delta);
                    }
                });
                state.iterations += 1;
            }
            epochs_run = epoch;
            if self.epoch_end(model, train, &mut state, epoch) {
                converged = true;
                break;
            }
        }
        self.outcome(model, train, test, state, epochs_run, converged)
    }

    /// One data-parallel FEKF iteration: sharded gradient/error sums,
    /// combined with the (possibly fault-injected) resilient ring
    /// allreduce, then the identical KF updates every replica would
    /// apply (§3.3). Communication faults the resilient layer cannot
    /// absorb surface as typed errors — the distributed hot path never
    /// panics.
    #[allow(clippy::too_many_arguments)]
    fn fekf_distributed_iteration(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        batch: &[usize],
        devices: &DeviceGroup,
        plan: &FaultPlan,
        cache: &EnvCache,
        state: &mut LoopState,
    ) -> Result<f64, CommError> {
        let n_params = model.n_params();
        let inv_bs = 1.0 / batch.len() as f64;
        let backend = self.cfg.backend;
        if state.dist_scratch.len() < devices.n_devices() {
            state
                .dist_scratch
                .resize_with(devices.n_devices(), || Mutex::new(GradScratch::new()));
        }
        let mut delta = state.take_delta(n_params);
        let mut mean_abe = 0.0;
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
            let (model_ref, dist) = (&*model, &state.dist_scratch);
            let red = timed(&mut state.phases.gradient, || {
                devices.map_reduce_faulty(batch, len, plan, |rank, shard| {
                    let mut sc = dist[rank].lock().unwrap_or_else(|e| e.into_inner());
                    let (mut g, mut abes) = (Vec::new(), Vec::new());
                    sc.block_reduce(
                        shard.len(),
                        n_slots,
                        n_params,
                        &|si, blk| phase.item(model_ref, cache, train, shard[si], backend, blk),
                        &mut g,
                        &mut abes,
                    );
                    match phase {
                        Phase::Energy => (g, abes[0]),
                        Phase::Forces(_) => {
                            g.extend_from_slice(&abes);
                            (g, 0.0)
                        }
                    }
                })
            })?;
            state.comm_bytes += red.comm.bytes_sent_per_rank;
            let (grads, abes) = match phase {
                Phase::Energy => {
                    mean_abe = red.scalar * inv_bs;
                    (&red.vector[..], std::slice::from_ref(&red.scalar))
                }
                Phase::Forces(_) => red.vector.split_at(n_slots * n_params),
            };
            timed(&mut state.phases.optimizer, || {
                kf_updates(model, opt, grads, abes, inv_bs, &mut delta)
            });
        }
        state.return_delta(delta);
        state.iterations += 1;
        state.cache_stats = cache.stats();
        Ok(mean_abe)
    }

    /// Fault-tolerant single-device FEKF training: periodic
    /// checkpointing, divergence detection with rollback-and-retry, and
    /// bit-exact resume after a crash (see [`RobustConfig`]). RLEKF is
    /// this loop with a batch-size-1 `Fekf`.
    pub fn train_fekf_robust(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        test: Option<&Dataset>,
        robust: &RobustConfig,
    ) -> Result<TrainOutcome, TrainError> {
        let cache = EnvCache::new(train.len());
        self.robust_loop(model, opt, train, test, robust, |this, model, opt, batch, state| {
            Ok(this.fekf_iteration(model, opt, train, batch, &cache, state))
        })
    }

    /// Fault-tolerant data-parallel FEKF training: the allreduce runs
    /// under the given [`FaultPlan`] (dropped / corrupted messages heal
    /// transparently inside the ring; dead ranks degrade to a
    /// renormalized survivor sum), plus all the [`RobustConfig`]
    /// machinery of the single-device loop.
    #[allow(clippy::too_many_arguments)]
    pub fn train_fekf_distributed_robust(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        test: Option<&Dataset>,
        devices: &DeviceGroup,
        plan: &FaultPlan,
        robust: &RobustConfig,
    ) -> Result<TrainOutcome, TrainError> {
        let cache = EnvCache::new(train.len());
        self.robust_loop(model, opt, train, test, robust, |this, model, opt, batch, state| {
            this.fekf_distributed_iteration(model, opt, train, batch, devices, plan, &cache, state)
        })
    }

    /// The FEKF epoch loop. `iterate` performs one weight-update
    /// iteration and returns the batch-mean absolute energy error (or a
    /// communication fault).
    fn robust_loop(
        &self,
        model: &mut DeepPotModel,
        opt: &mut Fekf,
        train: &Dataset,
        test: Option<&Dataset>,
        robust: &RobustConfig,
        mut iterate: impl FnMut(
            &Trainer,
            &mut DeepPotModel,
            &mut Fekf,
            &[usize],
            &mut LoopState,
        ) -> Result<f64, CommError>,
    ) -> Result<TrainOutcome, TrainError> {
        let sampler = BatchSampler::new(train.len(), self.cfg.batch_size, false);
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let mut state = LoopState::new();
        let mut converged = false;
        let mut epochs_run = 0;
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut rollbacks = 0u32;
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
                restore_snapshot(&ck, model, opt)?;
                rng.set_word_pos(ck.word_pos);
                epoch = ck.epoch.max(1);
                batches_done = ck.batches_done;
                state.iterations = ck.iterations;
                rollbacks = ck.rollbacks;
                best = ck.best.clone();
            }
        }

        // The last known-healthy state: the rollback target of the
        // guards and what a checkpoint persists. Refreshed at every
        // checkpoint and every epoch boundary. With the guards off and
        // no checkpoint directory nothing reads it, so the loop takes
        // none and never copies `P`.
        let snapshots = robust.check_every > 0 || robust.checkpoint_dir.is_some();
        let mut snap = snapshots.then(|| {
            let word_pos = rng.get_word_pos();
            take_snapshot(epoch, batches_done, state.iterations, word_pos, rollbacks, model, opt, &best)
        });

        'epochs: while epoch <= self.cfg.max_epochs {
            // Replay this epoch's shuffle from the epoch-start stream
            // position (recorded so rollback/resume reproduce the
            // exact batch order).
            let epoch_word_pos = rng.get_word_pos();
            let batches = sampler.epoch(&mut rng);
            let mut bi = batches_done;
            while bi < batches.len() {
                let abe = match iterate(self, model, opt, &batches[bi], &mut state) {
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
                        poison_p_block(opt, block);
                    }
                }

                // Divergence guards.
                if robust.check_every > 0
                    && state.iterations.is_multiple_of(robust.check_every as u64)
                {
                    if let Some(bad_block) = divergence(model, opt, abe, &mut abe_floor, robust) {
                        let healthy = snap.as_ref().expect("the guards keep a snapshot");
                        rollbacks += 1;
                        restore_snapshot(healthy, model, opt)?;
                        if rollbacks > robust.max_rollbacks {
                            // Budget exhausted: hand back the last
                            // healthy (or best) state with a typed
                            // error.
                            state.iterations = healthy.iterations;
                            restore_best_params(model, train, self.cfg, &best, robust);
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
                                rollbacks: rollbacks - 1,
                                outcome: Box::new(outcome),
                            });
                        }
                        // Rolled back to the last healthy snapshot; now
                        // the recovery nudge — reset the offending P
                        // block to p0·I and decay λ — so the replay
                        // takes a tamer trajectory instead of
                        // re-diverging identically.
                        match bad_block {
                            Some(b) => opt.core_mut().reset_block(b, 1.0),
                            None => opt.core_mut().mem.decay(0.98),
                        }
                        epoch = healthy.epoch;
                        batches_done = healthy.batches_done;
                        state.iterations = healthy.iterations;
                        rng.set_word_pos(healthy.word_pos);
                        continue 'epochs;
                    }
                }

                // Periodic checkpoint: refresh the rollback target and
                // (when configured) persist it crash-safely.
                if snapshots
                    && robust.checkpoint_every > 0
                    && state.iterations.is_multiple_of(robust.checkpoint_every as u64)
                {
                    let ck = take_snapshot(
                        epoch,
                        batches_done,
                        state.iterations,
                        epoch_word_pos,
                        rollbacks,
                        model,
                        opt,
                        &best,
                    );
                    write_checkpoint(&ck, robust)?;
                    snap = Some(ck);
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
            if snapshots {
                let ck = take_snapshot(
                    epoch,
                    batches_done,
                    state.iterations,
                    rng.get_word_pos(),
                    rollbacks,
                    model,
                    opt,
                    &best,
                );
                write_checkpoint(&ck, robust)?;
                snap = Some(ck);
            }
            if converged {
                break;
            }
        }
        restore_best_params(model, train, self.cfg, &best, robust);
        Ok(self.outcome(model, train, test, state, epochs_run, converged))
    }
}

/// Fault-tolerance policy of the FEKF loop.
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
    /// weights kept. The loop is then the plain FEKF epoch schedule — it
    /// takes no snapshot, so it never copies `P` — and on a clean link
    /// it cannot fail.
    pub fn off() -> Self {
        RobustConfig { check_every: 0, restore_best: false, ..RobustConfig::default() }
    }
}

#[allow(clippy::too_many_arguments)]
fn take_snapshot(
    epoch: usize,
    batches_done: usize,
    iterations: u64,
    word_pos: u128,
    rollbacks: u32,
    model: &DeepPotModel,
    opt: &Fekf,
    best: &Option<(f64, Vec<f64>)>,
) -> Checkpoint {
    Checkpoint {
        epoch,
        batches_done,
        iterations,
        word_pos,
        rollbacks,
        params: model.get_params(),
        opt_kind: OptKind::Fekf,
        opt_bytes: opt.state_to_bytes(),
        best: best.clone(),
    }
}

fn restore_snapshot(
    ck: &Checkpoint,
    model: &mut DeepPotModel,
    opt: &mut Fekf,
) -> Result<(), TrainError> {
    if ck.opt_kind != OptKind::Fekf {
        return Err(TrainError::Checkpoint(format!(
            "checkpoint holds {:?} state, expected Fekf",
            ck.opt_kind
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

fn write_checkpoint(snap: &Checkpoint, robust: &RobustConfig) -> Result<(), TrainError> {
    if let Some(dir) = &robust.checkpoint_dir {
        fs::create_dir_all(dir)?;
        snap.save(checkpoint::checkpoint_path(dir))?;
    }
    Ok(())
}

/// The per-iteration divergence guards: non-finite or exploding batch
/// error, non-finite parameters, or an unhealthy `P` block. On
/// divergence returns `Some` of the offending block, when one is
/// identifiable. Allocation-free: it runs every iteration.
fn divergence(
    model: &DeepPotModel,
    opt: &Fekf,
    abe: f64,
    abe_floor: &mut Option<f64>,
    robust: &RobustConfig,
) -> Option<Option<usize>> {
    let bad_block = opt.core().first_unhealthy_block(robust.p_diag_cap);
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
/// `block` with NaN (a simulated memory upset).
fn poison_p_block(opt: &mut Fekf, block: usize) {
    let core = opt.core_mut();
    let b = block % core.p.n_blocks();
    let mut data = core.p.block(b).as_slice().to_vec();
    data[0] = f64::NAN;
    core.p.set_block_data(b, &data);
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
        let out = trainer(4, 12).train_adam(&mut model, &mut opt, &ds, None);
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
        let out_a = trainer(4, 1).train_adam(&mut m2, &mut adam, &ds, None);
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
        let mut opt =
            dp_optim::naive_ekf::NaiveEkf::new(&model.layer_sizes(), 10240, 4, None, true);
        let out = trainer(4, 2).train_naive_ekf(&mut model, &mut opt, &ds, None);
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
        let dir = std::env::temp_dir().join("dp_resume_bitwise_test");
        let _ = std::fs::remove_dir_all(&dir);
        let t = trainer(4, 3);

        // Reference: uninterrupted run.
        let mut m_ref = tiny_model(&ds);
        let mut o_ref = Fekf::new(&m_ref.layer_sizes(), 4, FekfConfig::default());
        let _ = t.train_fekf_robust(&mut m_ref, &mut o_ref, &ds, None, &no_chaos()).unwrap();

        // Crashed run: checkpoint every 2 iterations, killed after 5 —
        // mid-epoch, NOT on a checkpoint boundary, so resume must
        // replay the gap from the last checkpoint.
        let mut m = tiny_model(&ds);
        let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
        let robust = RobustConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            halt_after: Some(5),
            ..no_chaos()
        };
        match t.train_fekf_robust(&mut m, &mut opt, &ds, None, &robust) {
            Err(TrainError::Halted { iterations }) => assert_eq!(iterations, 5),
            other => panic!("expected Halted, got {other:?}"),
        }

        // Resume in a FRESH process image: new model, new optimizer —
        // everything must come from the checkpoint file.
        let mut m2 = tiny_model(&ds);
        let mut o2 = Fekf::new(&m2.layer_sizes(), 4, FekfConfig::default());
        let robust = RobustConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..no_chaos()
        };
        let out = t.train_fekf_robust(&mut m2, &mut o2, &ds, None, &robust).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.iterations > 5, "resume must continue past the crash point");

        let p_ref = m_ref.get_params();
        let p_res = m2.get_params();
        for (i, (a, b)) in p_ref.iter().zip(&p_res).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "param {i} differs after resume: {a} vs {b}"
            );
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

    #[test]
    fn distributed_fekf_with_drops_and_straggler_matches_clean_run_bitwise() {
        // Acceptance: an 8-rank FEKF run under ≥5% message drops plus a
        // straggler completes to the SAME result — the ack/retransmit
        // protocol makes the lossy allreduce bitwise equal to the clean
        // one, so the RMSE target is reached identically.
        use dp_parallel::Straggler;
        use std::time::Duration;
        let ds = tiny_dataset(16, 15);
        let t = trainer(8, 1);
        let devices = DeviceGroup::new(8);

        let mut m_clean = tiny_model(&ds);
        let mut o_clean = Fekf::new(&m_clean.layer_sizes(), 8, FekfConfig::default());
        let clean = t
            .train_fekf_distributed_robust(
                &mut m_clean,
                &mut o_clean,
                &ds,
                None,
                &devices,
                &FaultPlan::none(),
                &no_chaos(),
            )
            .unwrap();

        let mut m_faulty = tiny_model(&ds);
        let mut o_faulty = Fekf::new(&m_faulty.layer_sizes(), 8, FekfConfig::default());
        let plan = FaultPlan {
            seed: 42,
            drop_prob: 0.08,
            corrupt_prob: 0.02,
            straggler: Some(Straggler { rank: 3, delay: Duration::from_micros(300) }),
            ..FaultPlan::none()
        };
        let faulty = t
            .train_fekf_distributed_robust(
                &mut m_faulty,
                &mut o_faulty,
                &ds,
                None,
                &devices,
                &plan,
                &no_chaos(),
            )
            .unwrap();

        assert!(faulty.comm_bytes_per_rank > 0);
        let pc = m_clean.get_params();
        let pf = m_faulty.get_params();
        for (i, (a, b)) in pc.iter().zip(&pf).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "param {i}: faulty allreduce must heal to the clean result"
            );
        }
        assert_eq!(
            clean.final_train.combined().to_bits(),
            faulty.final_train.combined().to_bits(),
            "same weights → same RMSE"
        );
    }

    #[test]
    fn dead_rank_mid_training_degrades_gracefully() {
        use dp_parallel::DeadRank;
        let ds = tiny_dataset(16, 16);
        let mut m = tiny_model(&ds);
        let initial = loss::evaluate(&m, &ds, 16);
        let mut opt = Fekf::new(&m.layer_sizes(), 4, FekfConfig::default());
        let devices = DeviceGroup::new(4);
        // Rank 2 dies at its first communication step and stays dead
        // for the whole run; the ring re-forms over 3 survivors with a
        // renormalized sum and training carries on.
        let plan = FaultPlan {
            dead: vec![DeadRank { rank: 2, step: 0 }],
            ..FaultPlan::none()
        };
        let out = trainer(4, 2)
            .train_fekf_distributed_robust(
                &mut m,
                &mut opt,
                &ds,
                None,
                &devices,
                &plan,
                &no_chaos(),
            )
            .unwrap();
        assert!(out.iterations > 0);
        assert!(m.get_params().iter().all(|v| v.is_finite()));
        assert!(
            out.final_train.combined() < initial.combined(),
            "degraded run must still learn: {} → {}",
            initial.combined(),
            out.final_train.combined()
        );
    }
}

