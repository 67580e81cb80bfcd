//! The online-learning / repetitive-retraining loop of Figure 1.
//!
//! The paper's motivation: "the labeling data cannot cover all chemical
//! space a priori, \[so\] the training procedure is invoked repetitively"
//! — e.g. the same copper system sampled at new temperatures forces a
//! retrain, 20–100 times per NNMD development. Fast training (minutes,
//! not hours) is what makes this loop — and ultimately *online*
//! learning — practical.
//!
//! [`OnlineLoop::run`] simulates exactly that: data shards arrive one
//! at a time (here: one generation temperature per stage), the current
//! model is evaluated on the incoming shard (the "surprise"), then
//! retrained on everything seen so far, warm-starting from the previous
//! weights.

use crate::error::TrainError;
use crate::trainer::{RobustConfig, TrainConfig, Trainer};
use deepmd_core::loss::{self, Metrics};
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Dataset;
use dp_optim::fekf::{Fekf, FekfConfig};

/// Which serving tiers a stage's publication actually carried, beyond
/// the always-present f64 master. The publish hook returns one of
/// these so the stage report records what the serving side can route
/// to — an online-learning operator reading the report log can tell
/// whether a stage shipped the cheap tiers or fell back to
/// master-only (e.g. compression failed its fit budget).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FidelitySet {
    /// A spline-tabulated [`deepmd_core::compress`]-style model was
    /// published alongside the master.
    pub compressed: bool,
    /// An int-quantized energy-only model was published alongside the
    /// master.
    pub quantized: bool,
}

impl std::fmt::Display for FidelitySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.compressed, self.quantized) {
            (false, false) => write!(f, "master"),
            (true, false) => write!(f, "master+compressed"),
            (false, true) => write!(f, "master+quantized"),
            (true, true) => write!(f, "master+compressed+quantized"),
        }
    }
}

/// Report for one retraining stage.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stage index (arrival order).
    pub stage: usize,
    /// Temperature (K) of the arriving shard.
    pub temperature: f64,
    /// Metrics on the incoming shard *before* retraining.
    pub before: Metrics,
    /// Metrics on the incoming shard *after* retraining (for a failed
    /// stage: after the best-effort recovery).
    pub after: Metrics,
    /// Wall-clock seconds of the retrain.
    pub retrain_s: f64,
    /// Training iterations spent.
    pub iterations: u64,
    /// Why the stage's retrain failed, if it did. A failed stage is
    /// recorded and *skipped* — the loop carries the recovered model
    /// into the next stage instead of aborting the whole run.
    pub failure: Option<String>,
    /// Why the stage's *publication* was rejected, if it was (e.g. the
    /// serving registry's `model_io` validation refused the bytes). A
    /// failed publish is record-and-skip exactly like a failed retrain:
    /// the loop keeps training, and serving clients keep the last-good
    /// snapshot.
    pub publish_failure: Option<String>,
    /// Which fidelity tiers the publish hook actually shipped for this
    /// stage (`None` for unpublished stages — failed retrain, rejected
    /// publish, or a [`OnlineLoop::run`] call with no hook).
    pub published_fidelities: Option<FidelitySet>,
}

impl StageReport {
    /// Did this stage's retrain complete?
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }

    /// Did this stage's model reach the serving side (retrain succeeded
    /// *and* the publish hook accepted it)?
    pub fn published(&self) -> bool {
        self.failure.is_none() && self.publish_failure.is_none()
    }
}

/// Online-learning driver: FEKF retraining over arriving shards.
pub struct OnlineLoop {
    /// Training configuration per stage.
    pub cfg: TrainConfig,
    /// FEKF configuration (a fresh optimizer state per stage; the
    /// *model weights* are warm-started).
    pub fekf: FekfConfig,
    /// Fault-tolerance policy for each stage's retrain.
    pub robust: RobustConfig,
}

impl OnlineLoop {
    /// Run the loop: `shards` arrive in order; the model is retrained
    /// after each arrival on the union of everything seen.
    ///
    /// A stage whose retrain exhausts its retry budget is recorded with
    /// [`StageReport::failure`] set and skipped: the model keeps the
    /// best-effort weights the robust loop recovered, and the loop
    /// moves on to the next shard — an online-learning service must
    /// outlive a single bad retrain.
    pub fn run(&self, model: &mut DeepPotModel, shards: &[Dataset]) -> Vec<StageReport> {
        self.run_published(model, shards, &mut |_, _| Ok(FidelitySet::default()))
    }

    /// [`OnlineLoop::run`] with a publication hook: after every stage
    /// whose retrain *succeeded*, `publish` is called with the freshly
    /// retrained weights and the stage report. This is how the loop
    /// feeds a serving registry (`dp-serve`) without this crate
    /// depending on it — the caller's closure typically clones the
    /// model into `ModelRegistry::publish`, hot-swapping what MD
    /// clients see while the next stage retrains. Failed stages are
    /// recorded but never published: clients keep the last good model.
    ///
    /// The hook is fallible: a rejected publication (corrupt bytes, a
    /// registry validation failure) is recorded on the stage report as
    /// [`StageReport::publish_failure`] and *skipped* — the loop keeps
    /// retraining on the same weights, and the serving side stays on
    /// its last-good snapshot. An online-learning service must outlive
    /// a bad publish exactly as it outlives a bad retrain.
    ///
    /// On success the hook returns the [`FidelitySet`] it actually
    /// shipped (master-only vs +compressed/+quantized artifacts); the
    /// loop stamps it into [`StageReport::published_fidelities`] so
    /// the report log records what the serving side can route to.
    pub fn run_published(
        &self,
        model: &mut DeepPotModel,
        shards: &[Dataset],
        publish: &mut dyn FnMut(&DeepPotModel, &StageReport) -> Result<FidelitySet, String>,
    ) -> Vec<StageReport> {
        assert!(!shards.is_empty(), "need at least one shard");
        let mut seen = Dataset::new(&shards[0].name, shards[0].type_names.clone());
        let mut reports = Vec::with_capacity(shards.len());
        // The poison chaos hook is one-shot across the whole loop: it
        // arms each stage until one consumes it (a transient upset hits
        // once, not once per retrain).
        let mut pending_poison = self.robust.poison_p_at;
        for (stage, shard) in shards.iter().enumerate() {
            let before = loss::evaluate(model, shard, self.cfg.eval_frames);
            for f in &shard.frames {
                seen.push(f.clone());
            }
            let mut opt = Fekf::new(&model.layer_sizes(), self.cfg.batch_size, self.fekf);
            let mut robust = self.robust.clone();
            robust.poison_p_at = pending_poison;
            let result = Trainer::new(self.cfg).train_fekf_robust(
                model,
                &mut opt,
                &seen,
                None,
                &robust,
            );
            // A failed retrain with the hook armed means the upset fired
            // (or the stage is beyond saving — either way, don't re-inject).
            if let Some((at, _)) = pending_poison {
                if result.as_ref().map_or(true, |out| out.iterations >= at) {
                    pending_poison = None;
                }
            }
            let (retrain_s, iterations, failure) = match result {
                Ok(out) => (out.wall_s, out.iterations, None),
                Err(TrainError::Diverged { epoch, rollbacks, outcome }) => {
                    let why = format!("retrain diverged in epoch {epoch} after {rollbacks} rollback(s)");
                    (outcome.wall_s, outcome.iterations, Some(why))
                }
                // No outcome to salvage (checkpoint I/O, comm): zeroed
                // training stats, the current weights carried forward.
                Err(e) => (0.0, 0, Some(e.to_string())),
            };
            let after = loss::evaluate(model, shard, self.cfg.eval_frames);
            reports.push(StageReport {
                stage,
                temperature: shard.frames.first().map(|f| f.temperature).unwrap_or(0.0),
                before,
                after,
                retrain_s,
                iterations,
                failure,
                publish_failure: None,
                published_fidelities: None,
            });
            let report = reports.last_mut().expect("just pushed");
            if report.succeeded() {
                match publish(model, report) {
                    Ok(set) => report.published_fidelities = Some(set),
                    Err(why) => report.publish_failure = Some(why),
                }
            }
        }
        reports
    }
}

/// Split a mixed-temperature dataset into per-temperature shards,
/// ordered by temperature (the arrival order of Figure 1a).
pub fn shards_by_temperature(data: &Dataset) -> Vec<Dataset> {
    let mut temps: Vec<f64> = Vec::new();
    for f in &data.frames {
        if !temps.iter().any(|&t| (t - f.temperature).abs() < 1e-9) {
            temps.push(f.temperature);
        }
    }
    temps.sort_by(|a, b| a.total_cmp(b));
    temps
        .into_iter()
        .map(|t| {
            let mut shard = Dataset::new(&data.name, data.type_names.clone());
            for f in &data.frames {
                if (f.temperature - t).abs() < 1e-9 {
                    shard.push(f.clone());
                }
            }
            shard
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::{setup, ModelScale};
    use dp_data::generate::GenScale;
    use dp_mdsim::systems::PaperSystem;

    #[test]
    fn shards_partition_by_temperature_in_order() {
        let scale = GenScale { frames_per_temperature: 4, equilibration: 15, stride: 2 };
        let s = setup(PaperSystem::Al, &scale, ModelScale::Small, 5);
        let shards = shards_by_temperature(&s.train);
        assert_eq!(shards.len(), 4); // Al: 300, 500, 800, 1000 K
        let mut prev = 0.0;
        let mut total = 0;
        for sh in &shards {
            let t = sh.frames[0].temperature;
            assert!(t > prev);
            assert!(sh.frames.iter().all(|f| f.temperature == t));
            prev = t;
            total += sh.len();
        }
        assert_eq!(total, s.train.len());
    }

    #[test]
    fn retraining_improves_each_incoming_shard() {
        let scale = GenScale { frames_per_temperature: 8, equilibration: 20, stride: 2 };
        let mut s = setup(PaperSystem::Al, &scale, ModelScale::Small, 6);
        let shards = shards_by_temperature(&s.train);
        let looper = OnlineLoop {
            cfg: TrainConfig {
                batch_size: 4,
                max_epochs: 2,
                eval_frames: 8,
                ..Default::default()
            },
            fekf: FekfConfig::default(),
            robust: RobustConfig::default(),
        };
        let reports = looper.run(&mut s.model, &shards[..2]);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.succeeded(), "stage {} failed: {:?}", r.stage, r.failure);
            assert!(
                r.after.combined() < r.before.combined(),
                "stage {} at {} K: {} → {}",
                r.stage,
                r.temperature,
                r.before.combined(),
                r.after.combined()
            );
        }
    }

    #[test]
    fn publish_hook_fires_once_per_successful_stage() {
        let scale = GenScale { frames_per_temperature: 8, equilibration: 20, stride: 2 };
        let mut s = setup(PaperSystem::Al, &scale, ModelScale::Small, 6);
        let shards = shards_by_temperature(&s.train);
        let looper = OnlineLoop {
            cfg: TrainConfig {
                batch_size: 4,
                max_epochs: 2,
                eval_frames: 8,
                ..Default::default()
            },
            fekf: FekfConfig::default(),
            robust: RobustConfig::default(),
        };
        let mut published: Vec<(usize, Vec<f64>)> = Vec::new();
        let reports = looper.run_published(&mut s.model, &shards[..2], &mut |m, r| {
            published.push((r.stage, m.get_params()));
            Ok(FidelitySet { compressed: true, quantized: false })
        });
        let ok = reports.iter().filter(|r| r.succeeded()).count();
        assert!(reports.iter().all(|r| r.published() == r.succeeded()));
        // The hook's fidelity set is stamped on every published stage.
        for r in reports.iter().filter(|r| r.published()) {
            let set = r.published_fidelities.expect("published stage carries a set");
            assert!(set.compressed && !set.quantized);
            assert_eq!(set.to_string(), "master+compressed");
        }
        assert_eq!(published.len(), ok, "one publication per successful stage");
        assert_eq!(published.last().unwrap().0, reports.last().unwrap().stage);
        // The last publication carries the weights the loop ends with.
        assert_eq!(published.last().unwrap().1, s.model.get_params());
    }

    #[test]
    fn rejected_publish_is_recorded_and_skipped_not_aborted() {
        let scale = GenScale { frames_per_temperature: 8, equilibration: 20, stride: 2 };
        let mut s = setup(PaperSystem::Al, &scale, ModelScale::Small, 6);
        let shards = shards_by_temperature(&s.train);
        let looper = OnlineLoop {
            cfg: TrainConfig {
                batch_size: 4,
                max_epochs: 2,
                eval_frames: 8,
                ..Default::default()
            },
            fekf: FekfConfig::default(),
            robust: RobustConfig::default(),
        };
        let reports = looper.run_published(&mut s.model, &shards[..2], &mut |_, r| {
            if r.stage == 0 {
                Err("registry refused: checksum mismatch".into())
            } else {
                Ok(FidelitySet::default())
            }
        });
        assert_eq!(reports.len(), 2, "a failed publish must not abort the loop");
        assert!(reports[0].succeeded(), "the retrain itself was fine");
        assert!(!reports[0].published());
        assert!(reports[0].published_fidelities.is_none(), "rejected publish ships no tiers");
        assert_eq!(
            reports[0].publish_failure.as_deref(),
            Some("registry refused: checksum mismatch")
        );
        assert!(reports[1].published(), "stage 1 publishes normally");
    }

    #[test]
    fn failed_stage_is_recorded_and_skipped_not_aborted() {
        let scale = GenScale { frames_per_temperature: 8, equilibration: 20, stride: 2 };
        let mut s = setup(PaperSystem::Al, &scale, ModelScale::Small, 6);
        let shards = shards_by_temperature(&s.train);
        // A zero-retry budget plus an injected P-block upset in stage
        // 0's iteration range makes that stage's retrain fail; the loop
        // must record it and continue into stage 1.
        let looper = OnlineLoop {
            cfg: TrainConfig {
                batch_size: 4,
                max_epochs: 2,
                eval_frames: 8,
                ..Default::default()
            },
            fekf: FekfConfig::default(),
            robust: RobustConfig {
                max_rollbacks: 0,
                poison_p_at: Some((2, 0)),
                ..RobustConfig::default()
            },
        };
        let reports = looper.run(&mut s.model, &shards[..2]);
        assert_eq!(reports.len(), 2, "a failed stage must not abort the loop");
        assert!(!reports[0].succeeded(), "stage 0 should have failed");
        assert!(
            reports[0].failure.as_deref().unwrap().contains("diverged"),
            "failure surfaced: {:?}",
            reports[0].failure
        );
        // The one-shot upset fired in stage 0, so stage 1 retrains
        // cleanly on the recovered model.
        assert!(reports[1].succeeded(), "stage 1 failed: {:?}", reports[1].failure);
        assert!(reports[1].after.combined().is_finite());
        // The model carried forward is healthy (best-effort recovery).
        assert!(s.model.get_params().iter().all(|v| v.is_finite()));
    }
}
