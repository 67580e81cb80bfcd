//! # dp-parallel — data-parallel runtime
//!
//! The paper distributes FEKF training over up to 16 GPUs with
//! Horovod's ring-allreduce; the *only* communicated state is the
//! batch-reduced gradient (plus the scalar absolute errors), because
//! the error covariance matrix `P` stays bit-identical on every device
//! (§3.3 "Communication avoidance").
//!
//! This crate provides the equivalent as a plain library over
//! caller-owned buffers; it starts no threads, and `dp-pool` is the only
//! compute runtime:
//!
//! * [`ring`] — a chunked ring-allreduce run as an in-place schedule on
//!   the calling thread (r − 1 scatter-reduce steps + r − 1 allgather
//!   steps), with the byte accounting of a real ring,
//! * [`error`] — typed [`CommError`]s for an empty group, mismatched
//!   lengths and a panicking rank,
//! * [`comm_model`] — the §3.3/§5.3 communication-volume formulas and a
//!   latency/bandwidth time model parameterized with the paper's
//!   cluster numbers (RoCE at 25 GB/s), used to extrapolate beyond the
//!   physical core count,
//! * [`device`] — a group of logical devices: minibatch shards computed
//!   in turn, their vectors reduced in per-rank buffers — the substrate
//!   for the distributed trainer in `dp-train`.

pub mod comm_model;
pub mod device;
pub mod error;
pub mod ring;

pub use comm_model::{ClusterModel, CommStats};
pub use device::DeviceGroup;
pub use error::CommError;
pub use ring::{naive_allreduce, ring_allreduce};

/// An inert placeholder kept for callers that still pass one to
/// `dp_train::Trainer::train_fekf_distributed_robust`. It carries
/// nothing and changes nothing: the ranks are buffers of one process,
/// and no fault is injected between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan;

impl FaultPlan {
    /// The only plan there is.
    pub fn none() -> Self {
        FaultPlan
    }
}
