//! Typed errors for the partitioning request path.
//!
//! Every partitioning entry point ([`run_xtrapulp_job`](crate::run_xtrapulp_job),
//! [`try_pulp_run`](crate::try_pulp_run) and the functions they call) reports failures through [`PartitionError`] instead of panicking, so a serving layer
//! (see `xtrapulp-api`) can reject a malformed request without tearing down the rank
//! runtime — a panic inside a collective would leave the other ranks deadlocked, exactly
//! like a crashed MPI task hangs the job.

use std::fmt;

/// Why a partitioning request was rejected or a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `num_parts` must be at least 1.
    InvalidNumParts {
        /// The rejected value.
        got: usize,
    },
    /// An imbalance ratio (`vertex_imbalance` / `edge_imbalance`) was negative or NaN.
    InvalidImbalance {
        /// Which parameter was rejected.
        which: &'static str,
        /// The rejected value, formatted (the error is `Eq`, floats are not).
        got: String,
    },
    /// A multiplier constant (`mult_x` / `mult_y`) was negative or NaN.
    InvalidMultiplier {
        /// Which parameter was rejected.
        which: &'static str,
        /// The rejected value, formatted.
        got: String,
    },
    /// The requested rank count cannot run a collective job.
    InvalidRanks {
        /// The rejected value.
        got: usize,
    },
    /// The distributed gather of per-rank results failed to cover every vertex:
    /// some global ids were never assigned a part by any rank.
    IncompleteGather {
        /// Number of vertices no rank claimed.
        missing: u64,
    },
    /// A rank reported a nonsensical `(vertex, part)` pair during the gather — an
    /// out-of-range vertex id or a negative part label.
    CorruptGather {
        /// The reported global vertex id.
        vertex: u64,
        /// The reported part label.
        part: i32,
    },
    /// A method name did not resolve in the partitioner registry.
    UnknownMethod {
        /// The name that failed to resolve.
        name: String,
        /// Comma-separated list of the names that would have resolved (filled in by the
        /// registry, which is the only constructor of this variant).
        expected: String,
    },
    /// A warm-start part vector was unusable (wrong length, or a part label outside
    /// `-1..num_parts` — `-1` marks vertices to be assigned greedily).
    InvalidWarmStart {
        /// What was wrong with the vector.
        detail: String,
    },
    /// The boundary exchange delivered something the receiving rank cannot apply: a part
    /// update addressed to a local id that is not one of its ghosts. Reported instead of
    /// indexing out of bounds; the partition it interrupted must be discarded.
    CorruptExchange {
        /// The rank the offending message came from.
        peer: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The communication layer failed underneath the job: an invalid rank
    /// configuration, or — on a multi-process transport — a peer process died,
    /// timed out or sent a corrupt frame mid-collective.
    Comm(xtrapulp_comm::CommError),
}

impl From<xtrapulp_comm::CommError> for PartitionError {
    fn from(e: xtrapulp_comm::CommError) -> Self {
        PartitionError::Comm(e)
    }
}

impl From<xtrapulp_graph::HaloError> for PartitionError {
    fn from(e: xtrapulp_graph::HaloError) -> Self {
        PartitionError::CorruptExchange {
            peer: e.peer,
            detail: e.detail,
        }
    }
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InvalidNumParts { got } => {
                write!(f, "num_parts must be at least 1 (got {got})")
            }
            PartitionError::InvalidImbalance { which, got } => {
                write!(f, "{which} must be a non-negative ratio (got {got})")
            }
            PartitionError::InvalidMultiplier { which, got } => {
                write!(f, "{which} must be a non-negative constant (got {got})")
            }
            PartitionError::InvalidRanks { got } => {
                write!(f, "a partitioning job needs at least 1 rank (got {got})")
            }
            PartitionError::IncompleteGather { missing } => {
                write!(
                    f,
                    "distributed gather left {missing} vertices without a part assignment"
                )
            }
            PartitionError::CorruptGather { vertex, part } => {
                write!(
                    f,
                    "distributed gather produced an invalid assignment (vertex {vertex}, part {part})"
                )
            }
            PartitionError::UnknownMethod { name, expected } => {
                write!(
                    f,
                    "unknown partitioning method '{name}' (expected one of: {expected})"
                )
            }
            PartitionError::InvalidWarmStart { detail } => {
                write!(f, "invalid warm-start part vector: {detail}")
            }
            PartitionError::CorruptExchange { peer, detail } => {
                write!(f, "corrupt boundary exchange from rank {peer}: {detail}")
            }
            PartitionError::Comm(e) => write!(f, "communication layer failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offending_value() {
        let e = PartitionError::InvalidNumParts { got: 0 };
        assert!(e.to_string().contains("num_parts"));
        assert!(e.to_string().contains('0'));
        let e = PartitionError::IncompleteGather { missing: 17 };
        assert!(e.to_string().contains("17"));
        let e = PartitionError::UnknownMethod {
            name: "metiss".into(),
            expected: "XtraPuLP, PuLP".into(),
        };
        assert!(e.to_string().contains("metiss"));
        assert!(
            e.to_string().contains("XtraPuLP, PuLP"),
            "message must list the valid names: {e}"
        );
        let e = PartitionError::InvalidWarmStart {
            detail: "wrong length".into(),
        };
        assert!(e.to_string().contains("wrong length"));
        let e = PartitionError::CorruptExchange {
            peer: 3,
            detail: "slot 7".into(),
        };
        assert!(e.to_string().contains("rank 3") && e.to_string().contains("slot 7"));
    }

    #[test]
    fn errors_are_comparable_for_test_assertions() {
        assert_eq!(
            PartitionError::InvalidNumParts { got: 0 },
            PartitionError::InvalidNumParts { got: 0 }
        );
        assert_ne!(
            PartitionError::InvalidNumParts { got: 0 },
            PartitionError::InvalidRanks { got: 0 }
        );
    }
}
