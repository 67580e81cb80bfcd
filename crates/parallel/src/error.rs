//! Typed communication errors.
//!
//! The seed implementation panicked (`expect("ring send")`, worker
//! join unwraps) anywhere the ring broke. On a distributed training
//! hot path a panic tears down the whole run; these variants instead
//! reach the caller as a value it can match on.

use std::fmt;

/// Failure of a collective communication call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The group had zero ranks.
    EmptyGroup,
    /// A rank's buffer length disagreed with the group's.
    MismatchedLengths {
        /// Offending rank.
        rank: usize,
        /// Length of rank 0's buffer.
        expect: usize,
        /// Length found.
        got: usize,
    },
    /// A neighbour's channel closed mid-collective (its thread exited).
    Disconnected {
        /// Rank that observed the closed channel.
        rank: usize,
        /// Ring step at which it was observed.
        step: usize,
    },
    /// A rank's worker thread panicked (a bug, not a fault).
    WorkerPanic {
        /// The panicking rank.
        rank: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::EmptyGroup => write!(f, "communication group has no ranks"),
            CommError::MismatchedLengths { rank, expect, got } => write!(
                f,
                "rank {rank}: buffer length {got} does not match group length {expect}"
            ),
            CommError::Disconnected { rank, step } => {
                write!(f, "rank {rank} lost its neighbour at ring step {step}")
            }
            CommError::WorkerPanic { rank } => {
                write!(f, "worker thread for rank {rank} panicked")
            }
        }
    }
}

impl std::error::Error for CommError {}
