//! One-call experiment entry points shared by the examples and the
//! benchmark binaries that regenerate the paper's tables and figures.

use crate::error::TrainError;
use crate::trainer::{RobustConfig, TrainConfig, TrainOutcome, Trainer};
use deepmd_core::config::ModelConfig;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Dataset;
use dp_data::generate::{generate, GenScale};
use dp_data::split::train_test_split;
use dp_mdsim::systems::PaperSystem;
use dp_optim::adam::{Adam, AdamConfig};
use dp_optim::fekf::{Fekf, FekfConfig};
use dp_parallel::DeviceGroup;

/// Network scale for an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelScale {
    /// The reduced network used in `--quick` mode (M = 8, d = 16) —
    /// same architecture, sized for the 2-core CPU substrate.
    Small,
    /// Mid-size network (M = 12, d = 24): the P update dominates the
    /// per-sample cost, as in the paper's wall-time regime.
    Medium,
    /// The paper's §4 network (M = 25, M^< = 16, d = 50; ~26.6k
    /// parameters per species).
    Paper,
}

/// A generated experiment: datasets plus a freshly initialized model.
pub struct ExperimentSetup {
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    /// Initialized (untrained) model.
    pub model: DeepPotModel,
}

/// Generate data for `system` and initialize a model.
///
/// The model's cutoff is tied to the labelling potential's cutoff
/// (capped by the minimum-image bound of the system's cell).
pub fn setup(system: PaperSystem, scale: &GenScale, model_scale: ModelScale, seed: u64) -> ExperimentSetup {
    let dataset = generate(system, scale, seed);
    let (train, test) = train_test_split(&dataset, 0.85, seed ^ 0xD5);
    let preset = system.preset();
    let (state, pot) = preset.instantiate();
    let rcut = pot
        .cutoff()
        .max(3.0)
        .min(0.5 * state.cell.min_length());
    let n_types = train.n_types();
    let mut cfg = match model_scale {
        ModelScale::Small => ModelConfig::small(n_types, rcut),
        ModelScale::Medium => ModelConfig::medium(n_types, rcut),
        ModelScale::Paper => ModelConfig::paper(n_types, rcut),
    };
    cfg.seed = seed.wrapping_add(17);
    let model = DeepPotModel::new(cfg, &train);
    ExperimentSetup { train, test, model }
}

/// Train `setup.model` in place with Adam (optionally with the Table 1
/// `√bs` learning-rate scaling), with every guard off
/// ([`RobustConfig::off`]).
pub fn run_adam(setup: &mut ExperimentSetup, cfg: TrainConfig, sqrt_bs_lr: bool) -> TrainOutcome {
    let adam_cfg = if sqrt_bs_lr {
        AdamConfig::default().with_sqrt_bs_scaling(cfg.batch_size)
    } else {
        AdamConfig::default()
    };
    let mut opt = Adam::new(setup.model.n_params(), adam_cfg);
    let (model, off) = (&mut setup.model, RobustConfig::off());
    best_effort(Trainer::new(cfg).train_adam(model, &mut opt, &setup.train, Some(&setup.test), &off))
}

/// Train with single-sample RLEKF: FEKF at batch size 1, where the
/// early reduction is the identity and `√bs = 1`, with every guard off
/// ([`RobustConfig::off`]).
pub fn run_rlekf(setup: &mut ExperimentSetup, cfg: TrainConfig, blocksize: usize) -> TrainOutcome {
    let cfg = TrainConfig { batch_size: 1, ..cfg };
    let fekf_cfg = FekfConfig { blocksize, ..FekfConfig::default() };
    let mut opt = Fekf::new(&setup.model.layer_sizes(), 1, fekf_cfg);
    best_effort(Trainer::new(cfg).train_fekf_robust(
        &mut setup.model,
        &mut opt,
        &setup.train,
        Some(&setup.test),
        &RobustConfig::off(),
    ))
}

/// Collapse a robust-loop result into a best-effort outcome: a run that
/// exhausted its divergence-retry budget still hands back the best
/// weights it reached (the model is left in that state). Genuinely
/// unrecoverable failures — which the clean-link recipes cannot
/// produce — are reported loudly.
fn best_effort(result: Result<TrainOutcome, TrainError>) -> TrainOutcome {
    match result {
        Ok(out) => out,
        Err(TrainError::Diverged { outcome, .. }) => *outcome,
        Err(e) => panic!("unrecoverable training failure: {e}"),
    }
}

/// Train with FEKF on one device. Runs on the fault-tolerant loop:
/// divergence triggers rollback + `P`-reset instead of a NaN model, and
/// the best epoch's weights are kept if the final ones are worse.
pub fn run_fekf(setup: &mut ExperimentSetup, cfg: TrainConfig, fekf_cfg: FekfConfig) -> TrainOutcome {
    let mut opt = Fekf::new(&setup.model.layer_sizes(), cfg.batch_size, fekf_cfg);
    best_effort(Trainer::new(cfg).train_fekf_robust(
        &mut setup.model,
        &mut opt,
        &setup.train,
        Some(&setup.test),
        &RobustConfig::default(),
    ))
}

/// Train with FEKF data-parallel over `n_devices` logical devices, with
/// the same fault-tolerant semantics as [`run_fekf`].
pub fn run_fekf_distributed(
    setup: &mut ExperimentSetup,
    cfg: TrainConfig,
    fekf_cfg: FekfConfig,
    n_devices: usize,
) -> TrainOutcome {
    let mut opt = Fekf::new(&setup.model.layer_sizes(), cfg.batch_size, fekf_cfg);
    let devices = DeviceGroup::new(n_devices);
    best_effort(Trainer::new(cfg).train_fekf_distributed_robust(
        &mut setup.model,
        &mut opt,
        &setup.train,
        Some(&setup.test),
        &devices,
        &dp_parallel::FaultPlan::none(),
        &RobustConfig::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> GenScale {
        GenScale { frames_per_temperature: 8, equilibration: 20, stride: 2 }
    }

    #[test]
    fn setup_builds_consistent_experiment() {
        let s = setup(PaperSystem::Al, &tiny_scale(), ModelScale::Small, 1);
        assert_eq!(s.train.n_types(), 1);
        assert!(s.train.len() > s.test.len());
        assert!(s.model.n_params() > 0);
        // Model must be able to evaluate a frame.
        let p = s.model.predict(&s.test.frames[0]);
        assert!(p.energy.is_finite());
    }

    #[test]
    fn fekf_recipe_improves_over_initialization() {
        let mut s = setup(PaperSystem::Al, &tiny_scale(), ModelScale::Small, 2);
        let before = deepmd_core::loss::evaluate(&s.model, &s.test, 8);
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: 3,
            eval_frames: 8,
            ..Default::default()
        };
        let out = run_fekf(&mut s, cfg, FekfConfig::default());
        assert!(out.final_test.unwrap().combined() < before.combined());
    }

    #[test]
    fn multispecies_setup_works() {
        let s = setup(PaperSystem::NaCl, &tiny_scale(), ModelScale::Small, 3);
        assert_eq!(s.train.n_types(), 2);
        let p = s.model.predict(&s.train.frames[0]);
        assert_eq!(p.forces.len(), 64);
    }
}
