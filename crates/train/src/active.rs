//! Active learning on top of fast retraining — the workflow the
//! paper's conclusion points at ("making it one step toward online
//! training").
//!
//! The standard NNMD active-learning loop (as in DP-GEN) is
//! query-by-committee: train a small **ensemble** of Deep Potentials
//! that differ only in their weight initialization; drive MD with one
//! of them; for every visited configuration measure the ensemble's
//! *maximum force deviation* — high deviation means the models
//! extrapolate and the configuration should be labelled (by the
//! ab-initio oracle) and added to the training set. Minutes-scale FEKF
//! retraining is what makes each cycle of this loop cheap.
//!
//! * [`Ensemble`] — k models, shared data, different seeds,
//! * [`Ensemble::force_deviation`] — the committee disagreement score,
//! * [`select_frames`] — pick the most informative frames of a pool,
//! * [`ActiveLoop`] — MD-explore → select → label → retrain cycles.

use crate::trainer::{RobustConfig, TrainConfig, Trainer};
use deepmd_core::model::DeepPotModel;
use deepmd_core::nnmd::DeepPotential;
use dp_data::dataset::{Dataset, Snapshot};
use dp_mdsim::md::{MdConfig, MdRunner};
use dp_mdsim::potential::Potential;
use dp_mdsim::state::State;
use dp_mdsim::Vec3;
use dp_optim::fekf::{Fekf, FekfConfig};
use rand::Rng;

/// A committee of Deep Potentials differing only by init seed.
pub struct Ensemble {
    models: Vec<DeepPotModel>,
}

impl Ensemble {
    /// Train-ready ensemble: `k` clones of a base configuration with
    /// distinct seeds (weights re-drawn per member).
    pub fn new(base: &DeepPotModel, train: &Dataset, k: usize) -> Self {
        assert!(k >= 2, "a committee needs at least two members");
        let models = (0..k)
            .map(|i| {
                let mut cfg = base.cfg.clone();
                cfg.seed = base.cfg.seed.wrapping_add(1 + i as u64);
                DeepPotModel::new(cfg, train)
            })
            .collect();
        Ensemble { models }
    }

    /// Committee size.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True if the committee is empty (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Borrow the members.
    pub fn models(&self) -> &[DeepPotModel] {
        &self.models
    }

    /// Train every member on `train` with FEKF (identical protocol,
    /// different initializations, every guard off).
    pub fn train(&mut self, train: &Dataset, cfg: TrainConfig, fekf: FekfConfig) {
        for model in &mut self.models {
            let mut opt = Fekf::new(&model.layer_sizes(), cfg.batch_size, fekf);
            let robust = RobustConfig::off();
            let _ = Trainer::new(cfg).train_fekf_robust(model, &mut opt, train, None, &robust);
        }
    }

    /// Maximum over atoms of the standard deviation of the committee's
    /// force predictions — the canonical DP-GEN selection score.
    pub fn force_deviation(&self, frame: &Snapshot) -> f64 {
        let predictions: Vec<Vec<Vec3>> =
            self.models.iter().map(|m| m.predict(frame).forces).collect();
        let n_atoms = frame.types.len();
        let k = self.models.len() as f64;
        let mut worst = 0.0f64;
        for i in 0..n_atoms {
            // Mean force on atom i.
            let mean = predictions
                .iter()
                .fold(Vec3::ZERO, |acc, p| acc + p[i])
                .scaled(1.0 / k);
            let var = predictions
                .iter()
                .map(|p| (p[i] - mean).norm2())
                .sum::<f64>()
                / k;
            worst = worst.max(var.sqrt());
        }
        worst
    }
}

/// Rank `pool` by committee force deviation and return the indices of
/// the `n_select` most uncertain frames (descending deviation).
pub fn select_frames(ensemble: &Ensemble, pool: &[Snapshot], n_select: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = pool
        .iter()
        .enumerate()
        .map(|(i, f)| (i, ensemble.force_deviation(f)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.into_iter().take(n_select).map(|(i, _)| i).collect()
}

/// One active-learning cycle report.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Cycle index.
    pub cycle: usize,
    /// Frames explored by model-driven MD.
    pub explored: usize,
    /// Frames selected for labelling.
    pub selected: usize,
    /// Mean committee deviation over the exploration pool, before
    /// retraining.
    pub mean_deviation: f64,
    /// Training-set size after the cycle.
    pub train_size: usize,
}

/// The explore → select → label → retrain loop.
pub struct ActiveLoop<'a> {
    /// The labelling oracle (stands in for DFT).
    pub oracle: &'a dyn Potential,
    /// MD exploration settings (temperature, stride, …).
    pub md: MdConfig,
    /// Frames to explore per cycle.
    pub explore_frames: usize,
    /// Frames to select and label per cycle.
    pub select_per_cycle: usize,
    /// Retraining protocol.
    pub train_cfg: TrainConfig,
    /// FEKF settings for retraining.
    pub fekf: FekfConfig,
}

impl ActiveLoop<'_> {
    /// Run `cycles` rounds: explore with member 0 of the committee,
    /// select by committee disagreement, label with the oracle, extend
    /// `train`, retrain every member.
    pub fn run(
        &self,
        ensemble: &mut Ensemble,
        start: &State,
        train: &mut Dataset,
        cycles: usize,
        rng: &mut impl Rng,
    ) -> Vec<CycleReport> {
        let mut reports = Vec::with_capacity(cycles);
        for cycle in 0..cycles {
            // Explore with the current best guess of the physics.
            let driver = DeepPotential::new(ensemble.models()[0].clone());
            let runner = MdRunner::new(&driver);
            let explored = runner.sample(start.clone(), &self.md, self.explore_frames, rng);
            let mean_dev = explored
                .iter()
                .map(|f| ensemble.force_deviation(f))
                .sum::<f64>()
                / explored.len().max(1) as f64;
            // Select the most uncertain configurations…
            let picks = select_frames(ensemble, &explored, self.select_per_cycle);
            // …and label them with the oracle (positions are kept; the
            // energies/forces are replaced by ground truth).
            for &i in &picks {
                let mut frame = explored[i].clone();
                let mut state = start.clone();
                state.pos = frame.pos.clone();
                let (e, f) = dp_mdsim::integrate::evaluate(self.oracle, &state);
                frame.energy = e;
                frame.forces = f;
                train.push(frame);
            }
            ensemble.train(train, self.train_cfg, self.fekf);
            reports.push(CycleReport {
                cycle,
                explored: explored.len(),
                selected: picks.len(),
                mean_deviation: mean_dev,
                train_size: train.len(),
            });
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::{setup, ModelScale};
    use dp_data::generate::GenScale;
    use dp_mdsim::systems::PaperSystem;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn tiny() -> (crate::recipes::ExperimentSetup, GenScale) {
        let scale = GenScale { frames_per_temperature: 8, equilibration: 20, stride: 2 };
        (setup(PaperSystem::Al, &scale, ModelScale::Small, 31), scale)
    }

    #[test]
    fn deviation_is_zero_for_identical_committee() {
        let (s, _) = tiny();
        let ensemble = Ensemble {
            models: vec![s.model.clone(), s.model.clone()],
        };
        let dev = ensemble.force_deviation(&s.train.frames[0]);
        assert!(dev < 1e-12, "identical members must agree: {dev}");
    }

    #[test]
    fn deviation_is_positive_for_distinct_seeds() {
        let (s, _) = tiny();
        let ensemble = Ensemble::new(&s.model, &s.train, 2);
        let dev = ensemble.force_deviation(&s.train.frames[0]);
        assert!(dev > 1e-6, "differently-seeded members must disagree: {dev}");
    }

    #[test]
    fn select_frames_ranks_by_deviation() {
        let (s, _) = tiny();
        let ensemble = Ensemble::new(&s.model, &s.train, 2);
        let pool: Vec<_> = s.train.frames[..6].to_vec();
        let picks = select_frames(&ensemble, &pool, 3);
        assert_eq!(picks.len(), 3);
        // The picks must be the top-3 by deviation.
        let mut devs: Vec<(usize, f64)> = pool
            .iter()
            .enumerate()
            .map(|(i, f)| (i, ensemble.force_deviation(f)))
            .collect();
        devs.sort_by(|a, b| b.1.total_cmp(&a.1));
        let expected: Vec<usize> = devs[..3].iter().map(|(i, _)| *i).collect();
        assert_eq!(picks, expected);
    }

    #[test]
    fn trained_committee_disagrees_more_off_data_than_on_data() {
        // The property active learning relies on: after training, the
        // committee agrees on configurations like the training data and
        // disagrees on extrapolated (strongly perturbed) ones.
        let (s, _) = tiny();
        let mut ensemble = Ensemble::new(&s.model, &s.train, 2);
        ensemble.train(
            &s.train,
            TrainConfig { batch_size: 4, max_epochs: 4, eval_frames: 8, ..Default::default() },
            FekfConfig::default(),
        );
        let on_data: f64 = s.train.frames[..4]
            .iter()
            .map(|f| ensemble.force_deviation(f))
            .sum::<f64>()
            / 4.0;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let off_data: f64 = s.train.frames[..4]
            .iter()
            .map(|f| {
                let mut distorted = f.clone();
                for p in &mut distorted.pos {
                    for c in &mut p.0 {
                        *c += rng.gen_range(-0.35..0.35);
                    }
                }
                ensemble.force_deviation(&distorted)
            })
            .sum::<f64>()
            / 4.0;
        assert!(
            off_data > on_data,
            "extrapolation must raise disagreement: on {on_data} vs off {off_data}"
        );
    }

    #[test]
    fn active_cycle_grows_the_training_set_and_reports() {
        let (mut s, _) = tiny();
        let preset = PaperSystem::Al.preset();
        let (state, oracle) = preset.instantiate();
        let mut ensemble = Ensemble::new(&s.model, &s.train, 2);
        let looper = ActiveLoop {
            oracle: oracle.as_ref(),
            md: MdConfig {
                dt: 1.0,
                temperature: 300.0,
                friction: 0.1,
                equilibration: 10,
                stride: 2,
            },
            explore_frames: 4,
            select_per_cycle: 2,
            train_cfg: TrainConfig {
                batch_size: 4,
                max_epochs: 1,
                eval_frames: 8,
                ..Default::default()
            },
            fekf: FekfConfig::default(),
        };
        let n0 = s.train.len();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let reports = looper.run(&mut ensemble, &state, &mut s.train, 2, &mut rng);
        assert_eq!(reports.len(), 2);
        assert_eq!(s.train.len(), n0 + 4);
        assert!(reports.iter().all(|r| r.mean_deviation.is_finite()));
        assert_eq!(reports[1].train_size, n0 + 4);
    }
}
