//! # dp-train — training harness
//!
//! Orchestrates the paper's training protocols end to end:
//!
//! * [`targets`] — the Kalman-filter prediction targets of Algorithm 1:
//!   the sign-flipped gradients (`if ŷ ≥ y then ŷ = −ŷ`) and absolute
//!   errors for the energy update and the four atomic-force group
//!   updates,
//! * [`trainer`] — epoch loops for Adam (batch-mean loss gradients),
//!   Naive-EKF (one `P` per sample) and FEKF (early-reduced batch
//!   updates; RLEKF is its batch-size-1 case), on one device or
//!   data-parallel over [`dp_parallel::DeviceGroup`] devices — one
//!   fault-tolerant FEKF loop, whose guards [`RobustConfig::off`]
//!   turns off,
//! * [`gradients`] — the deterministic frame-parallel batch-gradient
//!   engine: fixed-block fan-out over `dp-pool`, index-order
//!   reduction, recycled per-block scratch (allocation-free steady
//!   state),
//! * [`metrics`] — phase timers (forward / gradient / KF — the
//!   decomposition of Figure 7(c)) and training histories,
//! * [`recipes`] — one-call experiment entry points used by the
//!   benchmark binaries,
//! * [`online`] — the Figure 1 online-learning loop: repeated
//!   retraining as new-temperature data arrives,
//! * [`checkpoint`] / [`error`] — the fault-tolerant runtime: crash-safe
//!   resumable snapshots (model + optimizer + sampler cursor) and the
//!   typed failures of the robust training loops,
//! * [`active`] — committee-based active learning (query-by-committee
//!   frame selection + oracle labelling + FEKF retraining), the
//!   workflow the paper's fast training enables.

pub mod active;
pub mod checkpoint;
pub mod error;
pub mod gradients;
pub mod metrics;
pub mod online;
pub mod recipes;
pub mod targets;
pub mod trainer;

pub use checkpoint::Checkpoint;
pub use error::TrainError;
pub use metrics::{PhaseTimes, TrainHistory};
pub use trainer::{RobustConfig, TrainConfig, Trainer};
