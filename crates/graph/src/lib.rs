//! # xtrapulp-graph
//!
//! Graph data structures for the XtraPuLP reproduction.
//!
//! The original XtraPuLP stores the graph in a distributed one-dimensional compressed
//! sparse row (CSR) representation: each MPI task owns a subset of vertices and their
//! incident edges, maps global vertex identifiers to task-local ones with a hash map, and
//! keeps *ghost* copies of the one-hop neighbourhood owned by other tasks. This crate
//! provides:
//!
//! * [`Csr`] — an in-memory CSR graph with a forgiving builder (deduplication,
//!   symmetrisation, self-loop removal), used for single-rank algorithms (PuLP, the
//!   multilevel baselines) and as the source representation for distribution.
//! * [`Distribution`] — the vertex-to-rank ownership functions (block, cyclic, hashed)
//!   the paper discusses ("we utilize either random and block distributions").
//! * [`DistGraph`] — the per-rank local graph: owned vertices, ghost table, local CSR,
//!   ghost degrees and its halo plan.
//! * [`HaloPlan`] — where each owned boundary vertex's ghost copies live on the other
//!   ranks, resolved by the graph's construction handshake, plus the ghost→owned
//!   transpose; its `push` is the one index-resolved ghost update every consumer of
//!   per-vertex state shares, full refreshes included.
//! * [`bfs`] — serial and distributed breadth-first search (used by the initialisation
//!   strategy, the diameter estimator and the analytics crate).
//! * [`stats`] — degree statistics and the iterative-BFS diameter estimate used to build
//!   Table I.
//! * [`io`] — the binary edge-list (`.bel`) and update-log (`.ulog`) files, both
//!   encoded by the comm layer's wire codec.
//! * [`delta`] — normalised mutation batches ([`GraphDelta`]) and the incremental
//!   rebuild-from-delta paths ([`Csr::apply_delta`], [`DistGraph::apply_delta`]) the
//!   dynamic-graph subsystem is built on.

pub mod bfs;
pub mod csr;
pub mod delta;
pub mod dist_graph;
pub mod distribution;
pub mod halo;
pub mod io;
pub mod stats;

pub use csr::{csr_from_edges, Csr};
pub use delta::{GraphDelta, TimedOp, UpdateOp};
pub use dist_graph::DistGraph;
pub use distribution::Distribution;
pub use halo::{HaloError, HaloPlan};
pub use stats::GraphStats;

/// Global vertex identifier. The paper works with graphs of up to 2^34 vertices, so
/// global identifiers are 64-bit.
pub type GlobalId = u64;

/// Rank-local vertex identifier (an index into the rank's owned+ghost tables).
pub type LocalId = u32;

/// Sentinel for "no part assigned yet" (the paper initialises part labels to -1).
pub const UNASSIGNED: i32 = -1;
