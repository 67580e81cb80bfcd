//! Typed communication errors.
//!
//! On a distributed training hot path a panic tears down the whole run;
//! a malformed collective or a rank whose work panicked instead reaches
//! the caller as a value it can match on.

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
    /// A rank's work panicked (a bug, not a fault).
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
            CommError::WorkerPanic { rank } => {
                write!(f, "work of rank {rank} panicked")
            }
        }
    }
}

impl std::error::Error for CommError {}
