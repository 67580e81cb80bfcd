//! # dp-tensor — dense tensor substrate
//!
//! A small, self-contained dense linear-algebra layer that plays the role
//! the CUDA/PyTorch stack plays in the paper *"Training one DeePMD Model in
//! Minutes"* (PPoPP '24). It provides:
//!
//! * [`Mat`] — a row-major `f64` matrix with the GEMM/GEMV kernels the
//!   DeePMD model and the Kalman-filter optimizers are built from,
//! * [`backend`] — the pluggable compute backends those kernels dispatch
//!   to: portable scalar (the differential oracle) plus runtime-probed
//!   AVX2/AVX-512/NEON SIMD, selectable via `DP_BACKEND`; the SIMD
//!   kernels are written once over the register width (`simd.rs`),
//! * [`kernel`] — a kernel-*launch* accounting layer. Every primitive
//!   operation is a "kernel"; fused routines count as a single launch.
//!   This is the instrumentation behind the paper's Figure 7(b), which
//!   counts CUDA kernel launches under the step-by-step optimizations,
//! * [`tape`] — a tape-based reverse-mode autodiff engine standing in for
//!   the PyTorch Autograd API (the *baseline* of Figure 7(b)/(c)). The
//!   handwritten, fused derivative kernels that replace it (the paper's
//!   Opt1) live next to the model in `deepmd-core`.
//!
//! All numerics are `f64`, matching the double-precision weights error
//! covariance matrices reported in §5.3 of the paper (the 10240² block of
//! `P` is quoted at 800 MB, i.e. 8 bytes per entry).

// Every `unsafe` block argues its soundness and every `unsafe fn` states
// its contract; `scripts/ci.sh`'s clippy step holds the line.
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod backend;
pub mod kernel;
pub mod mat;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64", test))]
mod simd;
pub mod tape;
mod tanh;
pub mod vecops;
pub mod wire;

pub use mat::Mat;
pub use tape::{Tape, VarId};
