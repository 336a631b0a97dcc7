//! # xtrapulp-comm
//!
//! A rank-parallel, bulk-synchronous communication runtime that plays the role MPI plays
//! in the original XtraPuLP implementation.
//!
//! The paper's partitioner is an MPI+OpenMP code: every MPI *task* owns a slice of the
//! graph, computes on it with OpenMP threads, and exchanges boundary updates with
//! `MPI_Alltoallv` and part sizes with `MPI_Allreduce` at superstep boundaries. This crate
//! reproduces that programming model on a single machine: each **rank** is an OS thread
//! with private state, and the [`RankCtx`] handle exposes the collectives the stack
//! calls — `barrier`, `gather` to rank 0, `allgatherv`, `alltoallv` (also with a tally
//! summed in the same round) and `allreduce`. Initialisation needs no `MPI_Bcast`: every
//! rank draws the same roots from the same gathered candidates and seed. Ranks are the
//! only parallelism: where the original runs OpenMP threads inside each task, a rank
//! here is one thread and its sweeps, generators and graph builders are plain loops, so
//! in-process ranks (at most one per core) are the shared-memory parallelism.
//!
//! Because the partitioning algorithms only observe collective *semantics* (what data
//! arrives where, and when), running ranks as threads preserves the algorithmic behaviour
//! the paper studies — batched ghost updates, stale labels within a superstep, and the
//! dynamic `mult` stabiliser — while remaining runnable on a laptop. Communication volume
//! is tracked per rank in [`CommStats`] so experiments can report the quantity that would
//! have crossed the network.
//!
//! ## Transports
//!
//! The collectives are written against the pluggable [`Transport`] trait (see
//! [`transport`]). [`Runtime::new`] hosts every rank as a thread of this
//! process over the in-process backend; [`Runtime::with_transport`] hosts one
//! rank of a shared-nothing multi-process job over a connected
//! [`TcpTransport`], where frames really are serialised byte streams and peer
//! failures surface as typed [`TransportError`]s via [`Runtime::try_execute`].
//!
//! ## Example
//!
//! ```
//! use xtrapulp_comm::Runtime;
//!
//! // Sum rank ids across 4 ranks with an allreduce: a one-shot job on a runtime that
//! // is dropped at once (keep a runtime alive to run many).
//! let results = Runtime::new(4).execute(|ctx| {
//!     let mine = vec![ctx.rank() as u64];
//!     let total = ctx.allreduce_sum_u64(&mine);
//!     total[0]
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```
//!
//! ## Usage contract
//!
//! As with MPI, collectives must be called by **every** rank of the runtime, in the same
//! order. Violating this deadlocks the step, exactly as it would on a real cluster.

mod ctx;
mod error;
mod stats;
mod timer;
pub mod transport;
pub mod watchdog;

pub use ctx::{ExecOutcome, RankCtx, Runtime};
pub use error::CommError;
pub use stats::{
    CollectiveKind, CollectiveVolume, CommStats, CommStatsSnapshot, PerCollectiveSnapshot,
};
pub use timer::PhaseTimer;
pub use transport::{
    BarrierCost, CodecError, FaultInjectTransport, FaultPlan, Frame, InProcFabric, InProcTransport,
    TcpConfig, TcpTransport, Transport, TransportError, WireElem, WireMessage,
};

#[cfg(test)]
mod tests;
