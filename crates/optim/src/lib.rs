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
//! schedule λ ← λν + 1 − ν of Eq. 3).

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
