//! The concurrent serving session: a [`DynamicSession`] behind the `xtrapulp-serve`
//! pipeline, so readers and writers stop sharing one lock-stepped loop.
//!
//! [`ServingSession::spawn`] runs the cold epoch-0 partition inline (readers always
//! observe a fully-published snapshot), then moves the dynamic session onto a
//! background worker thread. From there on:
//!
//! * any number of threads [`ingest`](ServingSession::ingest) update batches through
//!   the bounded queue (typed backpressure when they outrun the partitioner);
//! * the worker drains batch groups, applies them through the dynamic subsystem's
//!   validation, repartitions warm-started from the previous epoch, and atomically
//!   publishes each new [`PartitionSnapshot`](xtrapulp_serve::PartitionSnapshot);
//! * any number of reader threads hold the [`EpochStore`] and query `part_of`,
//!   whole-part views and migration diffs against immutable epochs — the epoch-`k`
//!   partition keeps serving while epoch `k+1` repartitions.
//!
//! [`shutdown`](ServingSession::shutdown) is drain-then-stop and hands the
//! [`DynamicSession`] back, so a service can fall back to the single-writer loop (or
//! run analytics on the final graph) after the concurrent phase.
//!
//! Durable sessions write through a [`xtrapulp_serve::durable::Journal`]; this module
//! only replays one into a [`DynamicSession`] on recovery.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::{PartitionError, StageBreakdown};
use xtrapulp_analytics::{AnalyticsConsumer, AnalyticsSubscriber, WarmPolicy};
use xtrapulp_dynamic::{UpdateBatch, UpdateError};
use xtrapulp_graph::{Csr, GraphDelta};
use xtrapulp_obs as obs;
use xtrapulp_serve::durable::{DurabilityError, DurableConfig, Journal, WalRecord};
use xtrapulp_serve::{
    replay_update_log, EpochStore, IngestError, IngestQueue, PartitionSnapshot, RepartitionEngine,
    ReplayError, ReplayOutcome, ServeConfig, ServeError, ServeHandle, ServeLatencies, ServeStats,
};

use crate::dynamic::{DynamicReport, DynamicSession};
use crate::session::{PartitionJob, Session};

/// Why the serving engine failed to process a cycle: a batch the dynamic subsystem
/// rejected, or a repartition error. Rejected batches leave the graph untouched and
/// are counted in [`ServeStats::batches_rejected`]; repartition failures keep the
/// previous epoch serving. (Pipeline-level failures — a dead worker — surface as
/// [`xtrapulp_serve::ServeError`] instead.)
#[derive(Debug)]
pub enum EngineError {
    /// The update batch failed validation against the live topology.
    Update(UpdateError),
    /// The repartition job failed.
    Partition(PartitionError),
    /// A durable WAL append or checkpoint write failed. For a batch this means
    /// the batch was rejected *before* touching the graph (write-ahead: nothing
    /// is applied that is not logged); for a repartition the previous epoch
    /// keeps serving and the worker retries.
    Durability(std::io::Error),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Update(e) => write!(f, "update batch rejected: {e}"),
            EngineError::Partition(e) => write!(f, "repartition failed: {e}"),
            EngineError::Durability(e) => write!(f, "durable state write failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The production [`RepartitionEngine`]: a [`DynamicSession`] driven on the worker
/// thread. Public only through [`ServingSession`].
struct DynamicEngine {
    session: DynamicSession,
    /// Deltas applied since the last *published* snapshot; drained into the next one
    /// so epoch consumers can replay them (a failed publish keeps them pending).
    pending_deltas: Vec<GraphDelta>,
    /// `Some` for sessions spawned with [`ServingSession::spawn_durable`] or
    /// [`ServingSession::recover`].
    journal: Option<Journal>,
}

impl RepartitionEngine for DynamicEngine {
    type Error = EngineError;

    fn apply(&mut self, batch: &UpdateBatch) -> Result<(), EngineError> {
        // Write-ahead: recovery is exact only if nothing is applied before it is logged.
        if let Some(journal) = self.journal.as_mut() {
            journal.log_batch(batch).map_err(EngineError::Durability)?;
        }
        let (_, delta) = self
            .session
            .apply_updates_with_delta(batch)
            .map_err(EngineError::Update)?;
        self.pending_deltas.push(delta);
        Ok(())
    }

    fn repartition(&mut self) -> Result<PartitionSnapshot, EngineError> {
        let report = self.session.repartition().map_err(EngineError::Partition)?;
        if let Some(journal) = self.journal.as_mut() {
            journal
                .mark_epoch(report.epoch, &report.report.parts)
                .map_err(EngineError::Durability)?;
        }
        Ok(snapshot_from(
            report,
            std::mem::take(&mut self.pending_deltas),
        ))
    }
}

/// Convert one dynamic-session epoch report into the immutable snapshot the epoch
/// store publishes; `deltas` are the graph mutations applied since the previously
/// published snapshot.
fn snapshot_from(report: DynamicReport, deltas: Vec<GraphDelta>) -> PartitionSnapshot {
    PartitionSnapshot {
        epoch: report.epoch,
        num_parts: report.report.num_parts,
        quality: report.report.quality,
        warm_start: report.warm_start,
        lp_sweeps: report.lp_sweeps,
        vertices_scored: report.vertices_scored,
        stages: report.stages,
        vertices_migrated: report.vertices_migrated,
        parts: report.report.parts,
        deltas: deltas.into(),
    }
}

/// A concurrently-served dynamic partitioning session.
pub struct ServingSession {
    handle: ServeHandle<DynamicEngine>,
    nranks: usize,
    /// The epoch the store opened with, its topology and its partition: the spawn
    /// input itself and its cold epoch, or for a recovered session the graph the replay
    /// assembled once and the partition it ended at. An analytics consumer builds its
    /// rank graphs from them and catches up through the store's delta history. This pins
    /// the base graph for the session's lifetime even when no consumer subscribes
    /// (ROADMAP direction 6).
    base_epoch: u64,
    base_csr: Csr,
    base_parts: Vec<i32>,
}

impl ServingSession {
    /// Spawn a serving session with the default [`ServeConfig`]: `nranks` rank threads
    /// under the hood, `csr` as the initial graph, `job` as the partitioning request
    /// every epoch runs. Blocks for the cold epoch-0 partition, then returns with the
    /// background worker running.
    pub fn spawn(
        nranks: usize,
        csr: Csr,
        job: PartitionJob,
    ) -> Result<ServingSession, PartitionError> {
        ServingSession::spawn_with_config(nranks, csr, job, ServeConfig::default())
    }

    /// [`spawn`](ServingSession::spawn) with an explicit queue capacity and batching
    /// policy.
    pub fn spawn_with_config(
        nranks: usize,
        csr: Csr,
        job: PartitionJob,
        config: ServeConfig,
    ) -> Result<ServingSession, PartitionError> {
        let mut session = DynamicSession::over(Session::new(nranks)?, &csr, job)?;
        let initial = snapshot_from(session.repartition()?, Vec::new());
        Ok(Self::start(session, initial, None, config, csr))
    }

    /// [`spawn_with_config`](ServingSession::spawn_with_config) with crash-recoverable
    /// state under `durable.dir`: the base graph is persisted, every accepted batch is
    /// written ahead to a checksummed WAL, each published epoch is marked, and the part
    /// vector is checkpointed atomically once the graph epoch has advanced
    /// `durable.checkpoint_every_epochs` past the previous checkpoint. A session killed
    /// mid-serve comes back bit-identical through [`recover`](ServingSession::recover).
    ///
    /// Starts a *fresh* job: any WAL, checkpoints or persisted base graph already in
    /// the directory are removed first.
    pub fn spawn_durable(
        nranks: usize,
        csr: Csr,
        job: PartitionJob,
        config: ServeConfig,
        durable: DurableConfig,
    ) -> Result<ServingSession, DurabilityError> {
        let mut session = DynamicSession::over(Session::new(nranks)?, &csr, job)?;
        let initial = snapshot_from(session.repartition()?, Vec::new());
        let journal = Journal::create(&durable, &csr, initial.epoch, &initial.parts)?;
        Ok(Self::start(session, initial, Some(journal), config, csr))
    }

    /// Recover a durable serving session after a crash: load the newest checkpoint
    /// that validates (falling back past corrupted ones), fast-forward the persisted
    /// base graph through the WAL records the checkpoint covers, seed its part
    /// vector, and replay the WAL tail — repartitioning at each epoch mark — to the
    /// exact state the crashed session had made durable. The rebuilt session resumes
    /// serving (and journaling) in place.
    ///
    /// `job` must be the job the durable session was spawned with: partition results
    /// are deterministic in (graph, job, rank count), which is what makes the
    /// recovered trajectory bit-identical.
    pub fn recover(
        nranks: usize,
        job: PartitionJob,
        config: ServeConfig,
        durable: DurableConfig,
    ) -> Result<ServingSession, DurabilityError> {
        let (mut journal, base, ckpt, records) = Journal::open(&durable)?;
        let num_parts = job.params.num_parts;
        let mut session = DynamicSession::spawn(nranks, base, job)?;

        let mut idx = 0usize;
        match &ckpt {
            Some(c) => {
                // Fast-forward the topology to the checkpoint's WAL position
                // without repartitioning; batches the engine rejected when live
                // re-reject identically here and are skipped the same way.
                for record in &records[..c.wal_records as usize] {
                    if let WalRecord::Batch(batch) = record {
                        let _ = session.apply_updates(batch);
                    }
                }
                session
                    .seed_partition(c.parts.clone())
                    .map_err(|e| DurabilityError::Corrupt {
                        detail: format!(
                            "the checkpoint of epoch {} does not match the topology its \
                             WAL prefix reproduces: {e}",
                            c.epoch
                        ),
                    })?;
                idx = c.wal_records as usize;
            }
            None => {
                // No checkpoint survived: redo the cold epoch-0 run the original
                // spawn performed, then replay the entire WAL.
                session.repartition()?;
            }
        }

        // Replay the tail: apply batches, repartition at each epoch mark —
        // reproducing the crashed session's warm-start trajectory exactly.
        let mut unmarked = false;
        for record in &records[idx..] {
            match record {
                // Only an accepted batch leaves the graph ahead of its last mark: the
                // live worker skips the repartition of a group it rejected whole.
                WalRecord::Batch(batch) => unmarked |= session.apply_updates(batch).is_ok(),
                WalRecord::EpochMark { .. } => {
                    session.repartition()?;
                    unmarked = false;
                }
            }
        }
        if unmarked {
            // The WAL ends in accepted batches whose epoch mark never landed (the
            // torn write-ahead window). Logged means applied: repartition them now;
            // `resume` marks it.
            session.repartition()?;
        }
        let parts = session
            .parts()
            .ok_or_else(|| DurabilityError::Corrupt {
                detail: "replaying the durable state left no partition".into(),
            })?
            .to_vec();
        journal.resume(session.epoch(), &parts, unmarked)?;

        let base = session.csr();
        let initial = PartitionSnapshot {
            epoch: session.epoch(),
            num_parts,
            quality: PartitionQuality::evaluate(&base, &parts, num_parts),
            parts,
            warm_start: ckpt.is_some(),
            lp_sweeps: 0,
            vertices_scored: 0,
            stages: StageBreakdown::default(),
            vertices_migrated: 0,
            deltas: Vec::new().into(),
        };
        Ok(Self::start(session, initial, Some(journal), config, base))
    }

    /// The one start path: wrap `session` (and `journal`, when durable) in the serving
    /// engine and spawn the worker with `initial`, the partition of the session's
    /// current graph `base_csr`, as the store's first epoch.
    fn start(
        mut session: DynamicSession,
        initial: PartitionSnapshot,
        journal: Option<Journal>,
        config: ServeConfig,
        base_csr: Csr,
    ) -> ServingSession {
        let nranks = session.session_mut().nranks();
        let base_epoch = initial.epoch;
        let base_parts = initial.parts.clone();
        let engine = DynamicEngine {
            session,
            pending_deltas: Vec::new(),
            journal,
        };
        ServingSession {
            handle: xtrapulp_serve::spawn(engine, initial, config),
            nranks,
            base_epoch,
            base_csr,
            base_parts,
        }
    }

    /// Subscribe an incremental analytics consumer to this session's epoch stream.
    ///
    /// The consumer gets its own `nranks`-rank runtime and one graph per rank, built
    /// from the epoch the store opened with (the spawned graph's cold epoch, or the
    /// epoch [`recover`](ServingSession::recover) replayed to) and distributed by its
    /// partition; its initial (cold) analytics state is computed before this returns.
    /// Each [`poll`](AnalyticsSubscriber::poll) then blocks for the next published
    /// epoch, applies the epoch's [`GraphDelta`](xtrapulp_graph::GraphDelta) stream to
    /// the rank graphs and repairs the consumer's PageRank / components / coreness
    /// state — warm while the churn stays under the [`WarmPolicy`] thresholds, cold
    /// beyond them, and cold after the rank graphs move their rows onto the published
    /// partition once it has drifted too far from their placement.
    ///
    /// Subscribe before heavy ingest: a consumer that lags more than the store's
    /// delta history (see [`xtrapulp_serve::DEFAULT_DELTA_HISTORY`]) behind the
    /// published epoch observes [`SubscriberError::Lagged`](
    /// xtrapulp_analytics::SubscriberError::Lagged) and must be rebuilt.
    pub fn subscribe_analytics(&self, policy: WarmPolicy) -> AnalyticsSubscriber {
        let mut consumer =
            AnalyticsConsumer::new(self.nranks, self.base_csr.clone(), &self.base_parts, policy);
        consumer.set_epoch(self.base_epoch);
        AnalyticsSubscriber::new(self.handle.store(), consumer)
    }

    /// The epoch store readers subscribe to: clone the returned `Arc` into as many
    /// reader threads as needed; every snapshot it hands out is immutable and fully
    /// published.
    pub fn store(&self) -> Arc<EpochStore> {
        self.handle.store()
    }

    /// The latest published epoch (wait-free).
    pub fn epoch(&self) -> u64 {
        self.handle.store().epoch()
    }

    /// The shared ingest queue, for producer threads that submit directly.
    pub fn queue(&self) -> Arc<IngestQueue> {
        self.handle.queue()
    }

    /// Submit one update batch without blocking. Returns
    /// [`IngestError::QueueFull`] as backpressure when producers outrun the worker.
    pub fn try_ingest(&self, batch: UpdateBatch) -> Result<(), IngestError> {
        self.handle.try_ingest(batch)
    }

    /// Submit one update batch, blocking while the queue is full.
    pub fn ingest(&self, batch: UpdateBatch) -> Result<(), IngestError> {
        self.handle.ingest(batch)
    }

    /// Replay a recorded `.ulog` update log through the ingest queue in chunks of at
    /// most `max_batch_ops` ops, with blocking backpressure — a recorded trace drives
    /// the identical pipeline live producers use.
    pub fn replay_log(
        &self,
        path: &Path,
        max_batch_ops: usize,
    ) -> Result<ReplayOutcome, ReplayError> {
        replay_update_log(&self.handle.queue(), path, max_batch_ops)
    }

    /// A point-in-time view of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    /// The serving pipeline's latency distributions
    /// ([`xtrapulp_serve::ServeLatencies`]), as mergeable histogram snapshots;
    /// benches subtract consecutive snapshots to report per-window percentiles.
    pub fn latencies(&self) -> ServeLatencies {
        self.handle.latencies()
    }

    /// Start a live metrics plane for this session: bind a Prometheus-style text
    /// exposition endpoint on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// and register a collector exposing this session's [`ServeStats`] alongside
    /// the process-global registry (collective latencies, analytics epochs, ...).
    ///
    /// Scrape with `curl http://<local_addr>/metrics` (any path serves the same
    /// body). The endpoint and the collector unregister when the returned handle
    /// is dropped or [`MetricsEndpoint::shutdown`] is called.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<MetricsEndpoint> {
        let stats_fn = self.handle.stats_fn();
        let collector = obs::registry::register_collector(move |out| {
            let s = stats_fn();
            render_serve_stats(&s, out);
        });
        let server = obs::MetricsServer::bind(addr)?;
        Ok(MetricsEndpoint {
            server,
            _collector: collector,
        })
    }

    /// The most recent batch-rejection or repartition failure, if any.
    pub fn last_error(&self) -> Option<String> {
        self.handle.last_error()
    }

    /// Drain-then-stop shutdown: close the queue, apply and publish everything already
    /// accepted, then return the inner [`DynamicSession`] (live graph, final
    /// partition, persistent ranks) and the final counters. A worker that died
    /// mid-serve comes back as [`ServeError::WorkerPanicked`] instead of re-raising
    /// the panic here.
    pub fn shutdown(self) -> Result<(DynamicSession, ServeStats), ServeError> {
        let (engine, stats) = self.handle.shutdown()?;
        Ok((engine.session, stats))
    }
}

/// A live metrics endpoint bound by [`ServingSession::serve_metrics`]: the HTTP
/// listener plus the registry collector exposing the session's serving counters.
/// Both shut down when this is dropped.
pub struct MetricsEndpoint {
    server: obs::MetricsServer,
    _collector: obs::registry::CollectorGuard,
}

impl MetricsEndpoint {
    /// The address the endpoint actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop the listener thread and unregister the session's collector.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

/// Append the session's serving counters as Prometheus exposition lines.
fn render_serve_stats(s: &ServeStats, out: &mut String) {
    use std::fmt::Write as _;
    let counters = [
        ("serve_epochs_published", s.epochs_published),
        ("serve_warm_epochs", s.warm_epochs),
        ("serve_cold_epochs", s.cold_epochs),
        ("serve_batches_applied", s.batches_applied),
        ("serve_batches_rejected", s.batches_rejected),
        ("serve_ops_applied", s.ops_applied),
        ("serve_repartition_failures", s.repartition_failures),
    ];
    for (name, v) in counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
    }
    let gauges = [
        ("serve_queue_depth_ops", s.queue_depth_ops as f64),
        ("serve_queue_depth_batches", s.queue_depth_batches as f64),
        ("serve_total_publish_seconds", s.total_publish_seconds),
        ("serve_last_lp_sweeps", s.last_lp_sweeps as f64),
        ("serve_last_vertices_scored", s.last_vertices_scored as f64),
    ];
    for (name, v) in gauges {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
    }
    let summaries = [
        (
            "serve_publish_seconds",
            s.publish_seconds_p50,
            s.publish_seconds_p99,
        ),
        (
            "serve_ingest_to_publish_seconds",
            s.ingest_to_publish_seconds_p50,
            s.ingest_to_publish_seconds_p99,
        ),
    ];
    for (name, p50, p99) in summaries {
        let _ = writeln!(
            out,
            "# TYPE {name} summary\n{name}{{quantile=\"0.5\"}} {p50}\n{name}{{quantile=\"0.99\"}} {p99}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Method;
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;
    use xtrapulp::PartitionParams;
    use xtrapulp_gen::{GraphConfig, GraphKind};

    fn ba_csr(n: u64, seed: u64) -> Csr {
        GraphConfig::new(
            GraphKind::BarabasiAlbert {
                num_vertices: n,
                edges_per_vertex: 5,
            },
            seed,
        )
        .generate()
        .to_csr()
    }

    fn job(parts: usize) -> PartitionJob {
        PartitionJob::new(Method::XtraPulp).with_params(PartitionParams {
            num_parts: parts,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn serving_session_publishes_epochs_and_returns_the_dynamic_session() {
        let csr = ba_csr(400, 3);
        let serving = ServingSession::spawn(2, csr, job(4)).unwrap();
        assert_eq!(serving.epoch(), 0);
        let reader = serving.store();
        assert_eq!(reader.current().num_vertices(), 400);

        let mut batch = UpdateBatch::new();
        batch
            .add_vertices(1)
            .insert_edge(400, 0)
            .insert_edge(400, 1);
        serving.ingest(batch).unwrap();
        let published = reader
            .wait_for_epoch(1, Duration::from_secs(60))
            .expect("worker publishes epoch 1");
        assert!(published.warm_start);
        assert_eq!(published.num_vertices(), 401);

        let (session, stats) = serving.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.warm_epochs, 1);
        assert_eq!(stats.cold_epochs, 0, "epoch 0 is published by the spawner");
        assert_eq!(session.graph().num_vertices(), 401);
        assert_eq!(session.epoch(), 1);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xtrapulp-serving-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One deterministic mutation batch per step, distinct per `i`.
    fn step_batch(i: u64) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        batch
            .add_vertices(1)
            .insert_edge(500 + i, (i * 7) % 400)
            .insert_edge(500 + i, (i * 13 + 1) % 400);
        batch
    }

    /// Epoch-per-batch config so the WAL trajectory is deterministic.
    fn epoch_per_batch_config() -> ServeConfig {
        ServeConfig {
            policy: xtrapulp_serve::BatchPolicy {
                max_group_batches: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn durable_session_recovers_bit_identical_after_clean_shutdown() {
        let dir = temp_dir("clean");
        let csr = ba_csr(500, 7);
        let serving = ServingSession::spawn_durable(
            2,
            csr.clone(),
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir).checkpoint_every(2),
        )
        .unwrap();
        let store = serving.store();
        for i in 0..5 {
            serving.ingest(step_batch(i)).unwrap();
            store
                .wait_for_epoch(i + 1, Duration::from_secs(60))
                .unwrap();
        }
        let (reference, _) = serving.shutdown().unwrap();
        let ref_parts = reference.parts().unwrap().to_vec();
        let ref_epoch = reference.epoch();

        let recovered =
            ServingSession::recover(2, job(4), ServeConfig::default(), DurableConfig::new(&dir))
                .unwrap();
        assert_eq!(recovered.epoch(), ref_epoch);
        let snap = recovered.store().current();
        assert_eq!(
            snap.parts, ref_parts,
            "recovered partition must be bit-identical"
        );
        assert!(snap.warm_start, "recovery seeds from a checkpoint");
        let (session, _) = recovered.shutdown().unwrap();
        assert_eq!(session.graph().num_vertices(), 505);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_session_recovers_bit_identical_after_injected_mid_epoch_crash() {
        let total_batches = 6u64;
        for crash_after in [2u64, 3, 5, 7, 9] {
            let dir = temp_dir(&format!("crash-{crash_after}"));
            let csr = ba_csr(500, 7);

            // Uninterrupted reference trajectory (same graph, job, batches).
            let reference = {
                let serving = ServingSession::spawn_durable(
                    2,
                    csr.clone(),
                    job(4),
                    epoch_per_batch_config(),
                    DurableConfig::new(dir.join("ref")),
                )
                .unwrap();
                let store = serving.store();
                for i in 0..total_batches {
                    serving.ingest(step_batch(i)).unwrap();
                    store
                        .wait_for_epoch(i + 1, Duration::from_secs(60))
                        .unwrap();
                }
                let (session, _) = serving.shutdown().unwrap();
                session
            };

            // Crashing run: the worker panics once `crash_after` WAL records land.
            let serving = ServingSession::spawn_durable(
                2,
                csr.clone(),
                job(4),
                epoch_per_batch_config(),
                DurableConfig::new(&dir)
                    .checkpoint_every(2)
                    .crash_after_wal_records(crash_after),
            )
            .unwrap();
            let store = serving.store();
            for i in 0..total_batches {
                if serving.ingest(step_batch(i)).is_err() {
                    break; // queue closed by the crashed worker
                }
                if store
                    .wait_for_epoch(i + 1, Duration::from_secs(10))
                    .is_none()
                {
                    break; // worker died before publishing
                }
            }
            match serving.shutdown() {
                Err(ServeError::WorkerPanicked { detail }) => {
                    assert!(detail.contains("injected durability crash"), "{detail}");
                }
                Err(e) => panic!("crash_after={crash_after}: expected a worker panic, got {e}"),
                Ok(_) => panic!("crash_after={crash_after}: worker survived the injected crash"),
            }

            // Recover, then drive the remaining batches to the reference epoch.
            let recovered = ServingSession::recover(
                2,
                job(4),
                epoch_per_batch_config(),
                DurableConfig::new(&dir),
            )
            .unwrap();
            let store = recovered.store();
            let resume_from = recovered.epoch();
            for i in resume_from..total_batches {
                recovered.ingest(step_batch(i)).unwrap();
                store
                    .wait_for_epoch(i + 1, Duration::from_secs(60))
                    .unwrap();
            }
            let (session, _) = recovered.shutdown().unwrap();
            assert_eq!(
                session.epoch(),
                reference.epoch(),
                "crash_after={crash_after}: epochs diverged"
            );
            assert_eq!(
                session.parts().unwrap(),
                reference.parts().unwrap(),
                "crash_after={crash_after}: recovered partition is not bit-identical"
            );
            assert_eq!(
                session.graph().num_vertices(),
                reference.graph().num_vertices(),
                "crash_after={crash_after}: recovered topology diverged"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn recovery_falls_back_past_a_corrupted_newest_checkpoint() {
        let dir = temp_dir("ckpt-corrupt");
        let csr = ba_csr(500, 7);
        let serving = ServingSession::spawn_durable(
            2,
            csr,
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir).checkpoint_every(2),
        )
        .unwrap();
        let store = serving.store();
        for i in 0..4 {
            serving.ingest(step_batch(i)).unwrap();
            store
                .wait_for_epoch(i + 1, Duration::from_secs(60))
                .unwrap();
        }
        let (reference, _) = serving.shutdown().unwrap();

        // Corrupt the newest checkpoint on disk; recovery must fall back to an
        // older valid one and still replay to the identical state.
        let mut ckpts: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_prefix("ckpt-")
                    .and_then(|n| n.parse::<u64>().ok())
            })
            .collect();
        ckpts.sort_unstable();
        assert!(ckpts.len() >= 2, "test needs at least two checkpoints");
        let newest = dir.join(format!("ckpt-{}", ckpts.last().unwrap()));
        fs::write(&newest, b"garbage").unwrap();

        let recovered =
            ServingSession::recover(2, job(4), ServeConfig::default(), DurableConfig::new(&dir))
                .unwrap();
        assert_eq!(recovered.epoch(), reference.epoch());
        assert_eq!(
            recovered.store().current().parts,
            reference.parts().unwrap()
        );
        recovered.shutdown().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// A WAL that ends in a rejected batch ends where the live worker stopped: the
    /// worker skipped the repartition of a group it rejected whole, so recovery must
    /// neither run it nor append a second mark for the epoch.
    #[test]
    fn recovery_does_not_mark_a_wal_tail_of_rejected_batches() {
        let dir = temp_dir("rejected-tail");
        let csr = ba_csr(500, 7);
        let mut bad = UpdateBatch::new();
        bad.insert_edge(1, csr.neighbors(1)[0]); // re-inserting an edge is invalid
        let serving = ServingSession::spawn_durable(
            2,
            csr,
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir),
        )
        .unwrap();
        serving.ingest(step_batch(0)).unwrap();
        serving
            .store()
            .wait_for_epoch(1, Duration::from_secs(60))
            .unwrap();
        serving.ingest(bad).unwrap();
        let (reference, stats) = serving.shutdown().unwrap();
        assert_eq!(stats.batches_rejected, 1);

        let recovered = ServingSession::recover(
            2,
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(
            recovered.store().current().parts,
            reference.parts().unwrap()
        );
        recovered.shutdown().unwrap();
        let (_, _, _, records) = Journal::open(&DurableConfig::new(&dir)).unwrap();
        let marks: Vec<u64> = records
            .iter()
            .filter_map(|record| match record {
                WalRecord::EpochMark { epoch } => Some(*epoch),
                WalRecord::Batch(_) => None,
            })
            .collect();
        assert_eq!(records.len(), 3, "batch, mark, rejected batch");
        assert_eq!(marks, [1]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `base.meta` counting fewer vertices than `base.bel` names would rebuild a
    /// truncated graph (the CSR builder drops out-of-range endpoints): corruption.
    #[test]
    fn recovery_rejects_a_base_meta_that_disagrees_with_base_bel() {
        let dir = temp_dir("short-meta");
        let serving = ServingSession::spawn_durable(
            2,
            ba_csr(500, 7),
            job(4),
            ServeConfig::default(),
            DurableConfig::new(&dir),
        )
        .unwrap();
        serving.shutdown().unwrap();
        fs::write(dir.join("base.meta"), "400\n").unwrap();
        match ServingSession::recover(2, job(4), ServeConfig::default(), DurableConfig::new(&dir)) {
            Err(DurabilityError::Corrupt { detail }) => {
                assert!(detail.contains("base.meta counts 400"), "{detail}")
            }
            Err(e) => panic!("expected a corrupt base, got {e}"),
            Ok(_) => panic!("recovered a truncated base graph"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A durable spawn over a previous job's directory, torn temp files included,
    /// starts fresh: recovery reproduces the new job, not a mix with the old one.
    #[test]
    fn durable_spawn_over_a_used_directory_starts_fresh() {
        let dir = temp_dir("reused");
        let old = ServingSession::spawn_durable(
            2,
            ba_csr(500, 3),
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir).checkpoint_every(1),
        )
        .unwrap();
        for i in 0..3 {
            old.ingest(step_batch(i)).unwrap();
            old.store()
                .wait_for_epoch(i + 1, Duration::from_secs(60))
                .unwrap();
        }
        old.shutdown().unwrap();
        fs::write(dir.join("ckpt-9.tmp"), b"torn").unwrap();
        fs::write(dir.join("base.bel.partial"), b"torn").unwrap();

        let serving = ServingSession::spawn_durable(
            2,
            ba_csr(500, 7),
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir).checkpoint_every(2),
        )
        .unwrap();
        serving.ingest(step_batch(0)).unwrap();
        serving
            .store()
            .wait_for_epoch(1, Duration::from_secs(60))
            .unwrap();
        let (mut reference, _) = serving.shutdown().unwrap();
        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort_unstable();
        assert_eq!(files, ["base.bel", "base.meta", "ckpt-0", "serve.wal"]);

        let recovered = ServingSession::recover(
            2,
            job(4),
            epoch_per_batch_config(),
            DurableConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(recovered.epoch(), reference.epoch());
        assert_eq!(
            recovered.store().current().parts,
            reference.parts().unwrap()
        );
        let (mut session, _) = recovered.shutdown().unwrap();
        assert_eq!(
            session.csr().arcs().collect::<Vec<_>>(),
            reference.csr().arcs().collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_deadline_times_out_typed_instead_of_hanging() {
        let csr = ba_csr(300, 5);
        let config = ServeConfig {
            queue_capacity_ops: 4,
            ..Default::default()
        };
        let serving = ServingSession::spawn_with_config(1, csr, job(2), config).unwrap();
        let queue = serving.queue();
        // Saturate the queue faster than the worker drains; eventually a
        // deadline submission must fail typed rather than block forever.
        let mut saw_timeout = false;
        for i in 0..200 {
            let mut batch = UpdateBatch::new();
            batch.add_vertices(1).insert_edge(300 + i, 0);
            match queue.submit_deadline(batch, Duration::from_millis(1)) {
                Ok(()) => {}
                Err(IngestError::Timeout { waited_ms, .. }) => {
                    assert!(waited_ms >= 1);
                    saw_timeout = true;
                    break;
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
        // Even if the worker kept up (unlikely with capacity 4), the API still
        // returned promptly every time — but the common path sees the timeout.
        let _ = saw_timeout;
        serving.shutdown().unwrap();
    }

    #[test]
    fn rejected_batches_surface_in_stats_and_last_error() {
        let csr = ba_csr(300, 5);
        // Re-inserting an existing edge is deterministically invalid.
        let (u, v) = (1u64, csr.neighbors(1)[0]);
        let serving = ServingSession::spawn(1, csr, job(2)).unwrap();
        let mut bad = UpdateBatch::new();
        bad.insert_edge(u, v);
        serving.ingest(bad).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while serving.stats().batches_rejected == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (_, stats) = serving.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.epochs_published, 0);
    }

    /// Raw one-shot HTTP GET against the metrics endpoint, returning the body.
    fn scrape(addr: std::net::SocketAddr) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("endpoint reachable");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let body_at = response.find("\r\n\r\n").expect("complete HTTP response");
        response[body_at + 4..].to_string()
    }

    #[test]
    fn metrics_endpoint_survives_concurrent_scrapes_while_epochs_publish() {
        let csr = ba_csr(500, 7);
        let serving = ServingSession::spawn(2, csr, job(4)).unwrap();
        let endpoint = serving.serve_metrics("127.0.0.1:0").unwrap();
        let addr = endpoint.local_addr();

        // Scrapers hammer the endpoint while the writer publishes epochs. Every
        // response must be a complete, well-formed exposition: the serving
        // counters, the memory gauges (including RSS, sampled per scrape), and
        // no torn/empty bodies under scrape-vs-publish races.
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let body = scrape(addr);
                        assert!(
                            body.contains("serve_epochs_published"),
                            "scrape missing serving counters:\n{body}"
                        );
                        assert!(body.contains("process_rss_bytes"));
                        assert!(body.contains("mem_bytes{subsystem="));
                    }
                })
            })
            .collect();
        for i in 0..6u64 {
            let mut batch = UpdateBatch::new();
            batch
                .add_vertices(1)
                .insert_edge(500 + i, i)
                .insert_edge(500 + i, i + 1);
            serving.ingest(batch).unwrap();
        }
        serving
            .store()
            .wait_for_epoch(6, Duration::from_secs(600))
            .expect("worker publishes under scrape load");
        for s in scrapers {
            s.join().expect("scraper thread panicked");
        }
        // The final scrape reflects the published epochs and the byte gauges
        // the worker maintained while publishing.
        let body = scrape(addr);
        assert!(body.contains("mem_bytes{subsystem=\"epoch_store\"}"));
        assert!(body.contains("mem_bytes{subsystem=\"ingest_queue\"}"));
        endpoint.shutdown();
        serving.shutdown().unwrap();
    }
}
