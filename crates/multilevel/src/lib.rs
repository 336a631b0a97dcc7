//! # xtrapulp-multilevel
//!
//! Multilevel partitioning baselines for the XtraPuLP reproduction.
//!
//! The paper benchmarks XtraPuLP against two traditional multilevel partitioners:
//! **ParMETIS** (Table II, Fig. 4, Table III) and the label-propagation-coarsening
//! partitioner of **Meyerhenke, Sanders and Schulz** (Fig. 6, "KaHIP"). Neither can be
//! linked from Rust without the original C/C++ code bases, so this crate implements the
//! same algorithmic families from scratch:
//!
//! * [`metis_like`] — heavy-edge matching coarsening, greedy graph-growing
//!   initial partitioning, and weight-constrained greedy boundary (FM-style) refinement
//!   at every level.
//! * [`lp_coarsen_kway`] — size-constrained label-propagation clustering as the
//!   coarsening step, matching the design point of the Meyerhenke et al. partitioner.
//!
//! Both are plain functions of a graph, the parameters and an optional warm-start part
//! vector, dispatched by `xtrapulp-api`'s `Method` registry beside the other methods.
//! They reproduce the qualitative behaviour the paper relies on:
//! excellent quality on regular meshes, competitive-but-slower behaviour on small-world
//! graphs, and much higher memory footprints than the single-level label-propagation
//! approach (every coarsening level keeps a full copy of the graph).

pub mod coarsen;
pub mod drivers;
pub mod initial;
pub mod refine;
pub mod weighted;

pub use drivers::{lp_coarsen_kway, metis_like};
pub use weighted::WeightedGraph;
