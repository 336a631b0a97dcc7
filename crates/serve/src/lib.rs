//! # xtrapulp-serve
//!
//! The concurrent serving layer over the dynamic-graph subsystem: MVCC-style epochs
//! for any number of readers, a bounded ingest queue for any number of writers, and a
//! single background worker repartitioning off the serving path.
//!
//! `DynamicSession` (PR 2) made repartitioning after a mutation cheap, but it is
//! strictly single-writer: every `apply_updates` → `repartition` cycle blocks every
//! consumer of the partition. Production traffic wants the serving-path analogue of
//! the paper's design (conf_ipps_SlotaRDM17) — computation proceeds against a stable
//! snapshot while updates are exchanged asynchronously — which is exactly what this
//! crate provides:
//!
//! * [`EpochStore`] — the publication point. The worker publishes each epoch as an
//!   immutable, `Arc`-shared [`PartitionSnapshot`]; readers clone the `Arc` under a
//!   shared lock (the offline stand-in for `arc-swap`) and then query `part_of`,
//!   whole-part views and [`MigrationDiff`]s with no further synchronisation. Epochs
//!   are strictly monotonic and readers can never observe a torn partition: they hold
//!   either epoch `k` or epoch `k+1`, never a mix.
//! * [`IngestQueue`] — a bounded multi-producer queue of [`UpdateBatch`]es with typed
//!   backpressure ([`IngestError::QueueFull`]) and a [`BatchPolicy`] that groups
//!   queued batches per repartition, amortising one warm run over a burst of updates.
//! * [`spawn`] / [`ServeHandle`] — the background worker driving any
//!   [`RepartitionEngine`] (the production engine is
//!   `xtrapulp_api::ServingSession`, wrapping a `DynamicSession`): drain a batch
//!   group, apply each batch through the dynamic subsystem's validation, repartition
//!   warm-started, publish. Shutdown is drain-then-stop: the queue closes to
//!   producers, everything queued is applied and published, then the worker exits,
//!   returning the engine. [`ServeStats`] counts epochs, warm/cold splits, ops,
//!   rejections, queue depth and publish/ingest-to-publish latency.
//! * [`replay_update_log`] — feed a recorded `.ulog` mutation trace
//!   ([`xtrapulp_graph::io::read_update_log`]) through the same queue, so replayed
//!   traffic exercises the identical pipeline as live producers.
//! * [`durable`] — crash recovery. One [`durable::Journal`] owns a job's durable
//!   directory (persisted base graph, write-ahead log, checkpoints) and the order an
//!   engine writes it in: log a batch before applying it, mark each published epoch,
//!   checkpoint at a cadence. `xtrapulp_api::ServingSession::recover` replays it.

pub mod durable;
mod epoch;
mod queue;
mod replay;
mod snapshot;
mod stats;
mod worker;

pub use durable::{Checkpoint, DurabilityError, DurableConfig, WalRecord};
pub use epoch::{EpochStore, DEFAULT_DELTA_HISTORY};
pub use queue::{BatchPolicy, Drained, IngestError, IngestQueue, QueuedBatch};
pub use replay::{replay_ops, replay_update_log, ReplayError, ReplayOutcome};
pub use snapshot::{MigrationDiff, PartitionSnapshot};
pub use stats::{ServeLatencies, ServeStats};
pub use worker::{spawn, RepartitionEngine, ServeConfig, ServeError, ServeHandle};

// Re-exported so engine implementors and producers can name the batch type without an
// extra dependency edge.
pub use xtrapulp_dynamic::UpdateBatch;
