//! # deepmd-core — the DeePMD model
//!
//! A from-scratch implementation of the Deep Potential model of §2.1 of
//! *"Training one DeePMD Model in Minutes"* (PPoPP '24):
//!
//! 1. the smooth environment matrix `R̃ᵢ ∈ R^{n_i×4}` with rows
//!    `s(r)·(1, r̂)` and the switching function `s(r)` (1/r below
//!    `r_cs`, a quintic-smoothed decay to zero at `r_c`),
//! 2. per-type-pair three-layer **embedding networks**
//!    `G = E₂∘E₁∘E₀(s)`,
//! 3. the **symmetry-preserving descriptor**
//!    `D = (GᵀR̃)(R̃ᵀG^<)` (translation/rotation/permutation invariant —
//!    property-tested in [`model`]),
//! 4. per-type **fitting networks** mapping `D` to atomic energies, with
//!    `E_tot = Σᵢ Eᵢ` and forces `F = −∇_r E_tot`.
//!
//! Derivatives are *handwritten* (the paper's Opt1 — §3.4 replaces the
//! framework Autograd with manual kernels, including the product-rule
//! derivative of the symmetry-preserving operator, its Eq. 4):
//!
//! * [`mlp`] implements forward / reverse / JVP / dual-reverse sweeps for
//!   the embedding and fitting networks, over row ranges of frame-wide
//!   flat buffers,
//! * the frame-batched core (`frame.rs`) lays a frame out so that each
//!   network runs once per frame on a tall matrix, and assembles
//!   analytic forces and the two parameter-gradients the Kalman-filter
//!   optimizers need — `∇_θ E` and `∇_θ (cᵀF)` (the latter via a
//!   forward-tangent + reverse sweep, avoiding `create_graph`-style
//!   double backprop) — in recycled workspaces,
//! * [`model`] is the public face: [`DeepPotModel`], [`ForwardPass`]
//!   and [`Workspace`],
//! * [`tape_path`] provides the *baseline* implementation built on the
//!   [`dp_tensor::tape`] autograd engine, used by the Figure 7 kernel
//!   accounting experiments and as an oracle in the tests.
//!
//! For serving, [`compress`] tabulates each embedding net onto cubic
//! Hermite spline tables (DeePMD-kit v3's "model compression", forces
//! kept analytic) and [`quant`] adds an NNUE-style `i16`-quantized
//! fitting net for energy-only traffic — see DESIGN §14.

pub mod compress;
pub mod config;
pub mod env;
pub mod env_cache;
mod frame;
pub mod loss;
pub mod mlp;
pub mod model;
pub mod model_io;
pub mod nnmd;
pub mod quant;
pub mod tape_path;

pub use compress::{CompressSpec, CompressedModel};
pub use config::ModelConfig;
pub use env_cache::{CacheStats, EnvCache, FrameEnv};
pub use model::{DeepPotModel, ForwardPass, Prediction, Workspace};
pub use quant::QuantizedModel;
