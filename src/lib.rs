//! # fekf-deepmd — umbrella crate
//!
//! Re-exports the public API of the workspace crates implementing the
//! PPoPP '24 paper *"Training one DeePMD Model in Minutes: a Step towards
//! Online Learning"*: the DeePMD model, the FEKF/Naive-EKF/Adam optimizer
//! family (RLEKF is FEKF at batch size 1), the data-parallel runtime,
//! the classical-MD labelling oracle and the training harness.
//!
//! ```no_run
//! use fekf_deepmd::prelude::*;
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end training run and
//! `DESIGN.md` / `EXPERIMENTS.md` for the experiment inventory.

pub use deepmd_core as core;
pub use dp_data as data;
pub use dp_domain as domain;
pub use dp_mdsim as mdsim;
pub use dp_optim as optim;
pub use dp_parallel as parallel;
pub use dp_serve as serve;
pub use dp_tensor as tensor;
pub use dp_train as train;
pub use dp_verify as verify;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use deepmd_core::compress::{CompressSpec, CompressedModel};
    pub use deepmd_core::config::ModelConfig;
    pub use deepmd_core::model::DeepPotModel;
    pub use deepmd_core::nnmd::DeepPotential;
    pub use deepmd_core::quant::QuantizedModel;
    pub use dp_data::dataset::{Dataset, Snapshot};
    pub use dp_domain::{DecomposedMd, DeepDomainPotential, DomainGrid, LocalSuttonChen};
    pub use dp_mdsim::systems::{PaperSystem, SystemPreset};
    pub use dp_optim::adam::{Adam, AdamConfig};
    pub use dp_optim::fekf::{Fekf, FekfConfig};
    pub use dp_serve::{
        BatchPolicy, ChaosPlan, Engine, Fidelity, InferRequest, InferResponse, ModelRegistry,
        ServeError, SloPolicy,
    };
    pub use dp_train::online::FidelitySet;
    pub use dp_train::recipes;
    pub use dp_train::trainer::{RobustConfig, TrainConfig, TrainOutcome, Trainer};
    pub use dp_verify::{Profile, VerifyCheck, VerifyReport};
}
