//! Umbrella crate for the XtraPuLP reproduction workspace.
//!
//! This crate exists to host the runnable [examples](https://doc.rust-lang.org/cargo/guide/project-layout.html)
//! and the cross-crate integration tests in `/tests`. It re-exports every
//! workspace crate under a short alias so examples read naturally:
//!
//! ```
//! use xtrapulp_suite::prelude::*;
//! ```
//!
//! The recommended entry point is the [`api`] facade: a persistent [`Session`](api::Session)
//! owning a reusable rank runtime, the [`Method`](api::Method) registry resolving any of
//! the seven partitioning methods by name, and JSON-able
//! [`PartitionReport`](api::PartitionReport) results with typed
//! [`PartitionError`](api::PartitionError) failures.

pub use xtrapulp as core;
pub use xtrapulp_analytics as analytics;
pub use xtrapulp_api as api;
pub use xtrapulp_comm as comm;
pub use xtrapulp_dynamic as dynamic;
pub use xtrapulp_gen as gen;
pub use xtrapulp_graph as graph;
pub use xtrapulp_multilevel as multilevel;
pub use xtrapulp_obs as obs;
pub use xtrapulp_serve as serve;
pub use xtrapulp_spmv as spmv;

/// Convenience re-exports used by the examples and integration tests.
pub mod prelude {
    pub use xtrapulp::{metrics::PartitionQuality, PartitionError, PartitionParams};
    pub use xtrapulp_api::{
        DynamicReport, DynamicSession, EpochStore, IngestError, Method, PartitionJob,
        PartitionReport, PartitionSnapshot, ServeConfig, ServeStats, ServingSession, Session,
        UpdateBatch, UpdateError,
    };
    pub use xtrapulp_comm::{CommStats, RankCtx, Runtime};
    pub use xtrapulp_dynamic::{GraphDelta, UpdateOp};
    pub use xtrapulp_gen::{GraphConfig, GraphKind};
    pub use xtrapulp_graph::{Csr, DistGraph, Distribution};
}
