//! # xtrapulp
//!
//! A Rust reproduction of **XtraPuLP** — the distributed-memory, label-propagation-based
//! graph partitioner of Slota, Rajamanickam, Devine and Madduri ("Partitioning
//! Trillion-edge Graphs in Minutes", IPDPS 2017) — together with the shared-memory PuLP
//! baseline and the naive block/random baselines the paper compares against.
//!
//! ## What the algorithm does
//!
//! XtraPuLP computes a `p`-way partition of an undirected graph under two balance
//! constraints (vertices per part and edges per part) while minimising two objectives
//! (total edge cut and the maximum per-part cut). It does so with three stages of
//! label-propagation-style sweeps over the vertices:
//!
//! 1. **Initialisation** ([`init`]): `p` random roots are grown breadth-first; unassigned
//!    vertices adopt a random neighbouring part.
//! 2. **Vertex stage** (the balance and refinement passes in `pass.rs`): weighted label
//!    propagation drives part *vertex* counts towards balance, alternating with
//!    constrained refinement sweeps that reduce the cut.
//! 3. **Edge stage** (the same passes with the edge objective): the same machinery
//!    driven by per-part *edge* and *cut* counts, yielding the multi-constraint,
//!    multi-objective result.
//!
//! One driver in `pass.rs` runs this schedule for serial PuLP and distributed XtraPuLP
//! alike, over a backend that keeps part sizes live or stale; a warm start enters it
//! with a seed instead of initialisation, and the driver's documentation is the one
//! statement of when a warm run falls back to the cold schedule and what it rescores.
//!
//! The distributed-memory realisation keeps a one-dimensional vertex distribution
//! (see [`xtrapulp_graph::DistGraph`]), exchanges boundary labels with an
//! `Alltoallv`-based update queue ([`exchange`]), and throttles per-rank moves with the
//! dynamic multiplier described in the paper, never below the rank count (see
//! [`PartitionParams::multiplier`]).
//!
//! ## Entry points
//!
//! Most callers should go through the **`xtrapulp-api` facade** (re-exported as
//! `xtrapulp_suite::api`): its `Session` owns a persistent rank runtime that is reused
//! across jobs, its `Method` registry resolves any of the workspace's seven partitioning
//! methods by name, and every job returns a JSON-able `PartitionReport`. This crate
//! provides the kernel underneath:
//!
//! * [`try_xtrapulp_partition`] — the collective kernel over an already-distributed
//!   graph ([`DistGraph`]), called on every rank; this is what the scaling experiments
//!   use.
//! * [`run_xtrapulp_job`] — the one place a whole distributed job runs, and the one
//!   warm-started entry point: it distributes a [`Csr`] over a
//!   [`Runtime`](xtrapulp_comm::Runtime)'s ranks (or takes the caller's per-rank graphs,
//!   see [`GraphSource`]), runs the kernel cold or warm, gathers the labels — across
//!   processes when the runtime spans several — and assembles the global part vector
//!   (failing with [`PartitionError::IncompleteGather`] if any vertex goes unclaimed)
//!   into a [`JobOutcome`], with the exact [`PartCounts`](metrics::PartCounts) a caller
//!   keeping the partition hands to its next warm job. `xtrapulp-api`'s `Session` and
//!   `DynamicSession` are thin callers of it; on a fresh runtime it is a one-shot run.
//! * [`try_pulp_run`] — the shared-memory PuLP baseline, cold or warm-started, with its
//!   work counters; [`try_pulp_partition`] returns the part vector alone.
//! * [`baselines`] — the naive random, vertex-block and edge-block assignments.
//! * [`metrics::PartitionQuality`] — the paper's quality metrics.
//!
//! Every partitioning entry point validates its [`PartitionParams`] and reports failures
//! as typed [`PartitionError`]s instead of panicking.
//!
//! ```
//! use xtrapulp::{run_xtrapulp_job, Distribution, GraphSource, PartitionParams};
//! use xtrapulp_comm::Runtime;
//! use xtrapulp_gen::{GraphConfig, GraphKind};
//!
//! let graph = GraphConfig::new(GraphKind::Rmat { scale: 10, edge_factor: 8 }, 42)
//!     .generate()
//!     .to_csr();
//! let params = PartitionParams::with_parts(8);
//! let mut runtime = Runtime::new(2);
//! let source = GraphSource::Csr(&graph, &Distribution::Block);
//! let outcome = run_xtrapulp_job(&mut runtime, source, &params, None, None)
//!     .expect("valid parameters");
//! assert_eq!(outcome.parts.len(), graph.num_vertices());
//! assert!(outcome.quality.vertex_imbalance < 1.2);
//!
//! // Malformed requests are typed errors, not panics.
//! let bad = PartitionParams { num_parts: 0, ..Default::default() };
//! assert!(run_xtrapulp_job(&mut runtime, source, &bad, None, None).is_err());
//! ```

pub mod baselines;
pub mod error;
pub mod exchange;
pub mod init;
pub mod metrics;
pub mod params;
pub mod partitioner;
mod pass;
pub mod pulp;
pub mod sweep;

pub use error::PartitionError;
pub use params::{InitStrategy, PartitionParams};
pub use partitioner::{
    greedy_seed_unassigned, run_xtrapulp_job, try_xtrapulp_partition, validate_warm_start,
    GraphSource, JobOutcome, PartitionResult,
};
pub use pulp::{try_pulp_partition, try_pulp_partition_from, try_pulp_run, PulpRun, PulpWarmStart};
pub use sweep::{StageBreakdown, StageKind, SweepStats, SweepWorkspace};

// Re-exported so downstream crates (analytics, spmv, bench) can name graph types without
// an extra dependency edge.
pub use xtrapulp_graph::{Csr, DistGraph, Distribution};
