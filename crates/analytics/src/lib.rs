//! # xtrapulp-analytics
//!
//! Distributed graph analytics used to evaluate partitions end-to-end, reproducing the
//! Fig. 8 study of the paper: Harmonic Centrality (HC), approximate K-Core decomposition
//! (KC), Label-Propagation community detection (LP), PageRank (PR), largest
//! strongly-connected-component extraction (SCC, equal to the weakly connected one since
//! all edges are treated as undirected) and Weakly Connected Components (WCC).
//!
//! Each analytic runs over a [`xtrapulp_graph::DistGraph`] whose vertex ownership can be
//! any [`xtrapulp_graph::Distribution`] — in particular, an
//! [`Explicit`](xtrapulp_graph::Distribution::Explicit) distribution built from a
//! partition computed by XtraPuLP or one of the baselines, which is how the Fig. 8
//! comparison of EdgeBlock / Random / VertexBlock / XtraPuLP placements is reproduced.
//!
//! On top of the from-scratch suite, the [`incremental`] module provides delta-aware
//! (warm) variants of PageRank, connected components and coreness, and [`consumer`]
//! packages them as an [`AnalyticsConsumer`]/[`AnalyticsSubscriber`] pair that
//! subscribes to a serving pipeline's [`EpochStore`](xtrapulp_serve::EpochStore) and
//! repairs its state from each epoch's [`GraphDelta`](xtrapulp_graph::GraphDelta)
//! stream instead of redistributing and recomputing.

pub mod algorithms;
pub mod consumer;
pub mod incremental;
pub mod suite;

pub use algorithms::{
    harmonic_centrality, kcore_approx, label_propagation, largest_component, pagerank, wcc,
};
pub use consumer::{
    AnalyticsConsumer, AnalyticsSubscriber, ColdWork, EpochReport, SubscriberError, WarmPolicy,
};
pub use incremental::{
    kcore_tighten, pagerank_resume, wcc_propagate, wcc_repair, PagerankWork, WccWork,
};
pub use suite::{run_suite, run_suite_with_partition, AnalyticResult, SuiteResult};

/// For ranks that are threads of a runtime this crate owns, exchanging over the halo plans
/// of graphs they built together: a halo exchange one of them rejects is a bug in this
/// crate, not a condition a caller can meet or handle.
fn in_process<T>(result: Result<T, xtrapulp_graph::HaloError>) -> T {
    // lint: panic-ok — see the function docs: unreachable unless this crate is wrong
    result.expect("in-process ranks agree on the halo")
}
