//! # dp-optim — the optimizer family
//!
//! Implements the paper's contribution and its baselines:
//!
//! * [`adam::Adam`] — the first-order baseline (Table 1, Figure 7a),
//! * [`naive_ekf::NaiveEkf`] — the fusiform-shaped
//!   "computing-then-aggregation" multi-sample EKF (§3.1), kept to
//!   quantify its per-sample `P`-matrix memory blow-up,
//! * [`fekf::Fekf`] — the paper's **Fast Extended Kalman Filter**:
//!   funnel-shaped "aggregation-then-computing" dataflow (early
//!   reduction of gradients and absolute errors), `√bs` quasi-learning
//!   rate, a shared replicated `P`, and the fused `P`-update kernel
//!   with `P·g` caching (Opt3 of §3.4). At batch size 1 the early
//!   reduction is the identity and `√bs = 1`, so `Fekf` with
//!   `batch_size = 1` *is* the single-sample Reorganized Layer-wise EKF
//!   (RLEKF) of \[23\], the paper's strongest baseline.
//!
//! Supporting machinery: [`blocks`] (the RLEKF gather/split strategy
//! that organizes the error covariance into a block diagonal),
//! [`pmatrix`] (block storage, fused vs. PyTorch-style unfused update,
//! memory accounting for §5.3) and [`lambda`] (the memory-factor
//! schedule λ ← λν + 1 − ν of Eq. 3). All three are [`OptimizerState`]s.

pub mod adam;
pub mod blocks;
pub mod ekf;
pub mod fekf;
pub mod lambda;
pub mod naive_ekf;
pub mod pmatrix;

pub use adam::{Adam, AdamConfig};
pub use blocks::BlockLayout;
pub use fekf::{Fekf, FekfConfig, QuasiLr};
pub use naive_ekf::NaiveEkf;

use dp_tensor::wire::WireError;
use ekf::KfCore;

/// Optimizer family; the discriminant is its checkpoint tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OptKind {
    /// FEKF (KF core + batch envelope).
    Fekf = 0,
    /// Adam (moment vectors + step counter).
    Adam = 1,
    /// Naive-EKF (one KF core per batch lane).
    NaiveEkf = 2,
}

impl OptKind {
    /// The family whose checkpoint tag is `tag`.
    pub fn from_tag(tag: u8) -> Result<OptKind, WireError> {
        let kinds = [OptKind::Fekf, OptKind::Adam, OptKind::NaiveEkf];
        let unknown = || WireError::Invalid(format!("unknown optimizer tag {tag}"));
        kinds.into_iter().find(|&k| k as u8 == tag).ok_or_else(unknown)
    }
}

/// What a training loop needs of an optimizer besides its step:
/// in-place state copies for a rollback snapshot, the checkpoint
/// encoding, and the Kalman cores whose `P` divergence guards check,
/// reset and (chaos hook) poison. Adam has none.
pub trait OptimizerState: Clone {
    /// The family [`OptimizerState::state_to_bytes`] belongs to.
    const KIND: OptKind;
    /// Sample batches with `drop_last`: Naive-EKF's lanes must stay full.
    const DROP_LAST: bool = false;
    /// Overwrite the state with `src`'s in place, without allocating.
    ///
    /// # Panics
    /// Panics if the two were built for different models or lane counts.
    fn copy_state_from(&mut self, src: &Self);
    /// Serialize the state (not the hyper-parameters) for checkpointing.
    fn state_to_bytes(&self) -> Vec<u8>;
    /// Restore what [`OptimizerState::state_to_bytes`] wrote into an
    /// optimizer built the same way. On error nothing has changed.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError>;
    /// The Kalman cores.
    fn kf_cores(&mut self) -> &mut [KfCore] {
        &mut []
    }
}
