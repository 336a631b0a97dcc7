//! # xtrapulp-api
//!
//! The serving facade of the XtraPuLP reproduction: a unified, typed request/response
//! surface over every partitioning method in the workspace.
//!
//! The motivation is the same one RFP makes for RDMA systems — once the kernel is fast,
//! the *API paradigm* dominates end-to-end throughput. Three pieces:
//!
//! * [`Session`] — a persistent handle owning a reusable rank
//!   [`Runtime`](xtrapulp_comm::Runtime). Back-to-back jobs reuse the same rank threads
//!   (and rendezvous state), so a service partitioning many graphs amortises thread
//!   spawn instead of paying it per call, and can pipeline partition → analytics jobs on
//!   the same ranks via [`Session::execute`]. A distributed job runs where the kernel
//!   lives: [`Session::submit`] and every [`DynamicSession`] epoch are one call of
//!   [`xtrapulp::run_xtrapulp_job`] on the session's runtime (graph distribution, cold
//!   or warm kernel, gather and assembly in a single dispatch); serial methods run
//!   inline on the calling thread. Both layers work unchanged over a multi-process
//!   [`Session::with_runtime`]: every process submits the same jobs and applies the same
//!   update batches in the same order, and every process receives the identical report.
//! * Typed errors — every request is validated before it touches the runtime, and every
//!   failure (malformed [`PartitionParams`](xtrapulp::PartitionParams), zero ranks,
//!   unknown method name, incomplete result gather) surfaces as a
//!   [`PartitionError`] instead of a panic, keeping the session healthy for the next
//!   request.
//! * [`Method`] — the cross-crate partitioner registry. All seven methods
//!   (`XtraPuLP`, `PuLP`, `Random`, `VertexBlock`, `EdgeBlock`, `MetisLike`,
//!   `LpCoarsenKway`) are enumerable ([`Method::all`]) and resolvable by name
//!   ([`Method::from_name`]), replacing the hardcoded lists the bench binaries and
//!   analytics suite used to duplicate.
//!
//! Jobs return a [`PartitionReport`] bundling the part vector, the paper's
//! [`PartitionQuality`](xtrapulp::metrics::PartitionQuality) metrics, per-phase
//! [`PhaseTimer`](xtrapulp_comm::PhaseTimer) timings and
//! [`CommStatsSnapshot`](xtrapulp_comm::CommStatsSnapshot) communication counters —
//! JSON-serialisable via [`PartitionReport::to_json`] for machine-readable experiment
//! output.
//!
//! ## Example
//!
//! ```
//! use xtrapulp::PartitionParams;
//! use xtrapulp_api::{Method, PartitionJob, Session};
//! use xtrapulp_gen::{GraphConfig, GraphKind};
//!
//! let graph = GraphConfig::new(GraphKind::Rmat { scale: 10, edge_factor: 8 }, 42)
//!     .generate()
//!     .to_csr();
//!
//! // One session, many jobs: the rank threads are spawned once.
//! let mut session = Session::new(4).expect("4 ranks is a valid session");
//! let report = session
//!     .partition(&graph, &PartitionParams::with_parts(8))
//!     .expect("default params are valid");
//! assert_eq!(report.parts.len(), graph.num_vertices());
//!
//! // Any registered method can run through the same facade, resolved by name if need be.
//! let job = PartitionJob::new(Method::from_name("pulp").unwrap()).with_parts(8);
//! let pulp = session.submit(&job, &graph).expect("valid job");
//! assert_eq!(pulp.method, "PuLP");
//!
//! // Malformed requests come back as typed errors, not panics.
//! let bad = PartitionJob::new(Method::XtraPulp).with_parts(0);
//! assert!(session.submit(&bad, &graph).is_err());
//! ```

mod dynamic;
mod method;
mod report;
mod serving;
mod session;

pub use dynamic::{DynamicReport, DynamicSession, LiveGraph, UpdateSummary};
pub use method::Method;
pub use report::PartitionReport;
pub use serving::{EngineError, MetricsEndpoint, ServingSession};
pub use session::{PartitionJob, Session};

// The facade's error type lives in the core crate (validation happens there); re-export
// it so `xtrapulp_api` is self-contained for serving callers. The dynamic-subsystem,
// serve-subsystem and analytics-consumer types come from their crates for the same
// reason.
pub use xtrapulp::PartitionError;
pub use xtrapulp_analytics::{
    AnalyticsConsumer, AnalyticsSubscriber, EpochReport, SubscriberError, WarmPolicy,
};
pub use xtrapulp_dynamic::{UpdateBatch, UpdateError};
pub use xtrapulp_obs::{Histogram, HistogramSnapshot, MetricsServer};
pub use xtrapulp_serve::{
    BatchPolicy, DurabilityError, EpochStore, IngestError, IngestQueue, MigrationDiff,
    PartitionSnapshot, ReplayError, ReplayOutcome, ServeConfig, ServeError, ServeLatencies,
    ServeStats,
};
