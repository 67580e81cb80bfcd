//! Typed failures of the training runtime.
//!
//! The fault-tolerant loops ([`crate::trainer::Trainer::train_fekf_robust`]
//! and the distributed variant) never panic on the training hot path:
//! every runtime failure — divergence past the retry budget, a failed
//! allreduce, a checkpoint that cannot be written or read — surfaces as a
//! [`TrainError`] the caller can match on.

use crate::trainer::TrainOutcome;
use dp_parallel::CommError;
use std::fmt;
use std::io;

/// A failure of a training run.
#[derive(Debug)]
pub enum TrainError {
    /// The run kept diverging after exhausting the rollback budget.
    /// Carries the best-effort outcome (the model holds the last
    /// healthy — or best, see `RobustConfig::restore_best` — weights).
    Diverged {
        /// Epoch in which the final, unrecovered divergence occurred.
        epoch: usize,
        /// Rollbacks performed before giving up.
        rollbacks: u32,
        /// Outcome assembled from the last healthy state.
        outcome: Box<TrainOutcome>,
    },
    /// The run was halted by `RobustConfig::halt_after` (the simulated
    /// `kill -9` of the checkpoint/resume tests). State up to the last
    /// checkpoint is on disk; resume with `RobustConfig::resume`.
    Halted {
        /// Iterations completed when the halt fired.
        iterations: u64,
    },
    /// The gradient allreduce failed (a device's work panicked or
    /// returned a vector of the wrong length).
    Comm {
        /// The underlying communication error.
        source: CommError,
        /// Epoch in which the fault occurred.
        epoch: usize,
    },
    /// Checkpoint I/O failed.
    Io(io::Error),
    /// A checkpoint file was unreadable or inconsistent with the run.
    Checkpoint(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged { epoch, rollbacks, .. } => write!(
                f,
                "training diverged in epoch {epoch} after {rollbacks} rollback(s); \
                 retry budget exhausted"
            ),
            TrainError::Halted { iterations } => {
                write!(f, "training halted after {iterations} iteration(s)")
            }
            TrainError::Comm { source, epoch } => {
                write!(f, "communication fault in epoch {epoch}: {source}")
            }
            TrainError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            TrainError::Checkpoint(m) => write!(f, "bad checkpoint: {m}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Comm { source, .. } => Some(source),
            TrainError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TrainError {
    fn from(e: io::Error) -> Self {
        TrainError::Io(e)
    }
}
