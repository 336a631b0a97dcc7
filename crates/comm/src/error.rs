//! Typed errors for runtime construction and distributed execution.

use std::fmt;

use crate::transport::TransportError;

/// Why building or driving a [`Runtime`](crate::Runtime) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A runtime was requested with zero ranks.
    ZeroRanks,
    /// A transport claimed a rank outside `0..nranks`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The job's rank count.
        nranks: usize,
    },
    /// Transports handed to one runtime disagree on the job's rank count.
    RankCountMismatch {
        /// The rank count of the first transport.
        expected: usize,
        /// The conflicting rank count.
        got: usize,
    },
    /// The OS refused to spawn a rank worker thread.
    Spawn {
        /// OS error detail.
        detail: String,
    },
    /// A locally hosted rank's worker thread is gone, so a job could not run
    /// there: the job was not delivered, or the worker exited before running it.
    WorkerLost {
        /// The rank whose worker is gone.
        rank: usize,
    },
    /// A collective failed at the transport layer (peer death, timeout,
    /// corrupt frame, ...).
    Transport(TransportError),
    /// A recoverable execution gave up: its recovery budget ran out, or a
    /// recovery attempt itself failed.
    Aborted {
        /// Successful membership recoveries performed before giving up.
        recoveries: u32,
        /// The transport failure that ended the job.
        last: TransportError,
    },
    /// The cross-rank trace gather succeeded but a blob failed to decode or
    /// the merged trace file could not be written.
    TraceExport {
        /// What went wrong.
        detail: String,
    },
    /// The stall watchdog tripped: a rank stopped making progress inside a
    /// collective for longer than the configured deadline while still alive
    /// (distinct from [`CommError::Transport`] peer death or timeout — the
    /// peer was *there*, just not moving).
    Stalled {
        /// The collective the stalled rank was inside.
        collective: &'static str,
        /// The rank that tripped the watchdog.
        rank: usize,
        /// The rank's transport-operation frame counter at the stall.
        frame: u64,
        /// Milliseconds waited without progress before tripping.
        waited_ms: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::ZeroRanks => write!(f, "a Runtime requires at least one rank"),
            CommError::RankOutOfRange { rank, nranks } => {
                write!(
                    f,
                    "transport claims rank {rank}, out of range for {nranks} ranks"
                )
            }
            CommError::RankCountMismatch { expected, got } => {
                write!(
                    f,
                    "transports disagree on the rank count: expected {expected}, got {got}"
                )
            }
            CommError::Spawn { detail } => write!(f, "failed to spawn rank worker: {detail}"),
            CommError::WorkerLost { rank } => {
                write!(
                    f,
                    "rank {rank}'s worker thread is gone; the job did not run there"
                )
            }
            CommError::Transport(e) => write!(f, "transport failure: {e}"),
            CommError::Aborted { recoveries, last } => write!(
                f,
                "job aborted after {recoveries} successful recoveries: {last}"
            ),
            CommError::TraceExport { detail } => write!(f, "trace export failed: {detail}"),
            CommError::Stalled {
                collective,
                rank,
                frame,
                waited_ms,
            } => write!(
                f,
                "watchdog tripped: rank {rank} made no progress in {collective} \
                 at frame {frame} for {waited_ms} ms"
            ),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Transport(e) => Some(e),
            CommError::Aborted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<TransportError> for CommError {
    fn from(e: TransportError) -> Self {
        CommError::Transport(e)
    }
}
