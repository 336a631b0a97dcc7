//! The background repartition worker: drains the ingest queue, drives a repartition
//! engine off the serving path, and atomically publishes each new epoch.

use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use xtrapulp_dynamic::UpdateBatch;

use xtrapulp_obs as obs;

use crate::epoch::EpochStore;
use crate::queue::{BatchPolicy, Drained, IngestError, IngestQueue, QueuedBatch};
use crate::snapshot::PartitionSnapshot;
use crate::stats::{ServeLatencies, ServeStats, StatsCells};

/// Why the serving pipeline itself (as opposed to one batch or one repartition) is no
/// longer usable. Producer- and control-path code receives these as values; nothing in
/// the pipeline re-raises a worker panic into the calling thread.
///
/// The queue/worker pair is audited to keep panics contained: every
/// `std`-mutex/condvar acquisition recovers from poisoning with `into_inner` (the
/// guarded state is a plain queue or counter, always valid), the worker closes the
/// queue on *any* exit — including a panic — so blocked producers wake to
/// [`IngestError::Closed`](crate::IngestError::Closed) instead of sleeping forever,
/// and [`ServeHandle::shutdown`] reports a dead worker as
/// [`ServeError::WorkerPanicked`] instead of resuming the unwind in the caller — and
/// one the OS refused to start as [`ServeError::WorkerSpawn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The worker thread panicked mid-serve; the engine (and its live graph) is lost.
    /// The epoch store keeps serving the last published snapshot.
    WorkerPanicked {
        /// The panic payload, when it was a string (the common case).
        detail: String,
    },
    /// The OS refused to spawn the worker thread, so the pipeline never ran: the queue
    /// was closed at spawn and the engine is lost. The epoch store serves the initial
    /// snapshot.
    WorkerSpawn {
        /// The OS error, as [`ServeHandle::last_error`] recorded it.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WorkerPanicked { detail } => {
                write!(f, "serve worker thread panicked: {detail}")
            }
            ServeError::WorkerSpawn { detail } => {
                write!(f, "serve worker thread could not be spawned: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// What the worker drives: a stateful engine owning the live graph and the partitioner
/// state. `xtrapulp_api::ServingSession` implements it over a `DynamicSession`
/// (apply → the rank graphs patched by `DistGraph::apply_delta`; repartition →
/// warm-started run);
/// tests implement it with toy engines.
///
/// The engine runs on the worker thread, strictly single-threaded — all concurrency
/// lives in the queue in front of it and the epoch store behind it.
pub trait RepartitionEngine: Send + 'static {
    /// Why an apply or repartition failed.
    type Error: fmt::Display + Send;

    /// Validate and apply one update batch to the live graph. An `Err` means the batch
    /// was rejected and the graph is unchanged.
    fn apply(&mut self, batch: &UpdateBatch) -> Result<(), Self::Error>;

    /// Repartition the live graph and return the snapshot to publish. Its `epoch` must
    /// exceed every previously returned epoch (the epoch store enforces this).
    fn repartition(&mut self) -> Result<PartitionSnapshot, Self::Error>;
}

/// Configuration of one serving pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Total ops the ingest queue may hold before producers see backpressure.
    pub queue_capacity_ops: usize,
    /// When the worker stops draining and repartitions.
    pub policy: BatchPolicy,
    /// How long the worker waits for new batches before retrying a *pending* publish
    /// (a repartition that failed transiently after its batches were applied). Without
    /// the retry, quiescent traffic would leave the store serving a stale epoch until
    /// the next batch or shutdown.
    pub publish_retry: std::time::Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity_ops: 65_536,
            policy: BatchPolicy::default(),
            publish_retry: std::time::Duration::from_millis(100),
        }
    }
}

/// A running serving pipeline: the queue producers feed, the store readers consume,
/// and the worker thread in between. Dropping the handle without
/// [`shutdown`](ServeHandle::shutdown) closes the queue, so the worker drains what is
/// already accepted, publishes, and exits detached (the engine is lost); prefer an
/// explicit shutdown, which joins the worker and returns the engine.
pub struct ServeHandle<E: RepartitionEngine> {
    store: Arc<EpochStore>,
    queue: Arc<IngestQueue>,
    stats: Arc<StatsCells>,
    last_error: Arc<Mutex<Option<String>>>,
    /// `None` when the OS refused the thread at [`spawn`]; `Some` otherwise, until
    /// [`shutdown`](ServeHandle::shutdown) joins it.
    worker: Option<JoinHandle<E>>,
}

/// Closes the ingest queue when the worker exits — however it exits. Without this, an
/// engine panic would leave the queue open and producers blocked in
/// [`IngestQueue::submit`] asleep forever; with it they wake to a typed
/// [`IngestError::Closed`].
struct CloseQueueOnExit(Arc<IngestQueue>);

impl Drop for CloseQueueOnExit {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The worker is dying mid-serve: capture the flight recorder
            // before the process state degrades further. `dump` never panics.
            obs::flight::record(obs::FlightKind::Fault, "worker_panic", 0, 0);
            let _ = obs::flight::dump("worker-panic");
        }
        self.0.close();
    }
}

/// Spawn a serving pipeline around `engine`.
///
/// `initial` is the epoch the store opens with (normally the engine's cold epoch-0
/// partition, computed by the caller *before* spawning so readers never observe an
/// empty store). The worker thread then loops: drain a batch group → apply each batch
/// → repartition → publish, until the queue is closed and drained.
///
/// If the OS refuses the worker thread, the handle comes back with the queue already
/// closed (producers get [`IngestError::Closed`]), the error in
/// [`last_error`](ServeHandle::last_error), and [`ServeError::WorkerSpawn`] from
/// [`shutdown`](ServeHandle::shutdown).
pub fn spawn<E: RepartitionEngine>(
    mut engine: E,
    initial: PartitionSnapshot,
    config: ServeConfig,
) -> ServeHandle<E> {
    let store = EpochStore::new(initial);
    let queue = Arc::new(IngestQueue::new(config.queue_capacity_ops));
    let stats = Arc::new(StatsCells::default());
    let last_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));

    let spawned = {
        let store = Arc::clone(&store);
        let queue = Arc::clone(&queue);
        let stats = Arc::clone(&stats);
        let last_error = Arc::clone(&last_error);
        let policy = config.policy;
        let publish_retry = config.publish_retry;
        std::thread::Builder::new()
            .name("xtrapulp-serve-worker".to_string())
            .spawn(move || {
                let _close_on_exit = CloseQueueOnExit(Arc::clone(&queue));
                // Applied-but-unpublished state: set when a batch lands, cleared on a
                // successful publish. While set, the wait for the next group is
                // bounded so a pending publish is retried even under quiescent
                // traffic, and every cycle retries regardless of what its own group
                // applied.
                let mut dirty = false;
                // Enqueue instants of batches applied to the graph but not yet
                // reflected in a published epoch; drained on a successful publish
                // into the ingest-to-publish histogram (one sample per batch),
                // carried across failed repartitions so retried batches keep
                // accruing latency instead of being dropped from the distribution.
                let mut pending_enqueues: Vec<Instant> = Vec::new();
                loop {
                    let bound = dirty.then_some(publish_retry);
                    let drained = {
                        let _span = obs::span("serve_drain");
                        queue.drain_group_wait(&policy, bound)
                    };
                    obs::mem::set("ingest_queue", queue.approx_bytes());
                    match drained {
                        Drained::Group(group) => {
                            step(
                                &mut engine,
                                group,
                                &store,
                                &stats,
                                &last_error,
                                &mut dirty,
                                &mut pending_enqueues,
                            );
                        }
                        Drained::TimedOut => {
                            dirty = !repartition_and_publish(
                                &mut engine,
                                &store,
                                &stats,
                                &last_error,
                                Instant::now(),
                                &mut pending_enqueues,
                            );
                        }
                        Drained::Closed => break,
                    }
                }
                // Drain-then-stop must not exit with applied-but-unpublished state: if
                // the last cycle's repartition failed, retry once so the final graph
                // is published (or the failure is recorded a second time).
                if dirty {
                    repartition_and_publish(
                        &mut engine,
                        &store,
                        &stats,
                        &last_error,
                        Instant::now(),
                        &mut pending_enqueues,
                    );
                }
                engine
            })
    };

    ServeHandle {
        worker: worker_or_closed(spawned, &queue, &last_error),
        store,
        queue,
        stats,
        last_error,
    }
}

/// The worker's handle — or, when the OS refused the thread, `None` with `queue`
/// closed and the error recorded, so producers get [`IngestError::Closed`] rather than
/// filling a queue nobody drains.
fn worker_or_closed<E>(
    spawned: std::io::Result<JoinHandle<E>>,
    queue: &IngestQueue,
    last_error: &Mutex<Option<String>>,
) -> Option<JoinHandle<E>> {
    match spawned {
        Ok(worker) => Some(worker),
        Err(e) => {
            queue.close();
            *last_error.lock() = Some(format!("failed to spawn the serve worker thread: {e}"));
            None
        }
    }
}

/// One worker cycle: apply a drained group, repartition, publish. `dirty` carries
/// applied-but-unpublished state across cycles (a failed repartition leaves the graph
/// ahead of the published epoch; the next cycle must retry even if its own group
/// applies nothing).
fn step<E: RepartitionEngine>(
    engine: &mut E,
    group: Vec<QueuedBatch>,
    store: &EpochStore,
    stats: &StatsCells,
    last_error: &Mutex<Option<String>>,
    dirty: &mut bool,
    pending_enqueues: &mut Vec<Instant>,
) {
    let cycle_start = Instant::now();
    let apply_span = obs::span_with("serve_apply", group.len() as u64);
    let mut applied = 0usize;
    for qb in &group {
        match engine.apply(&qb.batch) {
            Ok(()) => {
                applied += 1;
                stats.add(&stats.batches_applied, 1);
                stats.add(&stats.ops_applied, qb.batch.len() as u64);
                pending_enqueues.push(qb.enqueued_at);
            }
            Err(e) => {
                stats.add(&stats.batches_rejected, 1);
                *last_error.lock() = Some(e.to_string());
            }
        }
    }
    drop(apply_span);
    if applied == 0 && !*dirty {
        // Every batch was rejected and nothing earlier is waiting to publish: the
        // graph matches the published epoch — skip the repartition entirely.
        return;
    }
    *dirty = !repartition_and_publish(
        engine,
        store,
        stats,
        last_error,
        cycle_start,
        pending_enqueues,
    );
}

/// Repartition and publish the engine's current graph, recording the latency
/// histograms. Returns whether a snapshot was published; on failure the previous
/// epoch keeps serving, the failure is counted and recorded, and `pending_enqueues`
/// is left intact so the batches' ingest-to-publish clocks keep running.
fn repartition_and_publish<E: RepartitionEngine>(
    engine: &mut E,
    store: &EpochStore,
    stats: &StatsCells,
    last_error: &Mutex<Option<String>>,
    cycle_start: Instant,
    pending_enqueues: &mut Vec<Instant>,
) -> bool {
    let repartition_span = obs::span("serve_repartition");
    let outcome = engine.repartition();
    drop(repartition_span);
    match outcome {
        Ok(snapshot) => {
            let _span = obs::span_with("serve_publish", snapshot.epoch);
            // All of this epoch's counters and histograms are recorded *before* the
            // publish: a consumer woken by `wait_for_epoch` must read stats that
            // already describe the epoch it waited for (the publish itself is a
            // pointer swap, negligible against the repartition just timed).
            stats.set(&stats.last_lp_sweeps, snapshot.lp_sweeps);
            stats.set(&stats.last_vertices_scored, snapshot.vertices_scored);
            stats.add(&stats.epochs_published, 1);
            stats.add(
                if snapshot.warm_start {
                    &stats.warm_epochs
                } else {
                    &stats.cold_epochs
                },
                1,
            );
            let publish_nanos = cycle_start.elapsed().as_nanos() as u64;
            stats.publish_nanos.record(publish_nanos);
            stats.add(&stats.total_publish_nanos, publish_nanos);
            // Every batch this epoch reflects gets its own end-to-end sample —
            // including batches applied in earlier cycles whose publish failed.
            for enqueued in pending_enqueues.drain(..) {
                stats
                    .ingest_to_publish_nanos
                    .record(enqueued.elapsed().as_nanos() as u64);
            }
            obs::flight::record(
                obs::FlightKind::EpochPublish,
                "epoch",
                snapshot.epoch,
                publish_nanos,
            );
            store.publish(snapshot);
            obs::mem::set("epoch_store", store.approx_bytes());
            true
        }
        Err(e) => {
            stats.add(&stats.repartition_failures, 1);
            *last_error.lock() = Some(e.to_string());
            false
        }
    }
}

impl<E: RepartitionEngine> ServeHandle<E> {
    /// The epoch store readers subscribe to. Clone the `Arc` per reader thread; every
    /// accessor on it is safe (and non-blocking) under concurrent publishing.
    pub fn store(&self) -> Arc<EpochStore> {
        Arc::clone(&self.store)
    }

    /// The ingest queue, for producers that want to share it across threads directly.
    pub fn queue(&self) -> Arc<IngestQueue> {
        Arc::clone(&self.queue)
    }

    /// Submit a batch without blocking (typed backpressure when full).
    pub fn try_ingest(&self, batch: UpdateBatch) -> Result<(), IngestError> {
        self.queue.try_submit(batch)
    }

    /// Submit a batch, blocking while the queue is full.
    pub fn ingest(&self, batch: UpdateBatch) -> Result<(), IngestError> {
        self.queue.submit(batch)
    }

    /// A point-in-time view of the serving counters (including live queue depth).
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot(
            self.queue.queued_ops() as u64,
            self.queue.queued_batches() as u64,
        )
    }

    /// A cheap `'static` closure snapshotting the pipeline's counters without
    /// borrowing the handle — what a metrics-exposition thread captures. The closure
    /// stays valid (returning final counters) after the worker exits.
    pub fn stats_fn(&self) -> impl Fn() -> ServeStats + Send + Sync + 'static {
        let stats = Arc::clone(&self.stats);
        let queue = Arc::clone(&self.queue);
        move || stats.snapshot(queue.queued_ops() as u64, queue.queued_batches() as u64)
    }

    /// The pipeline's latency distributions. Benches sample this per measurement
    /// window and subtract consecutive snapshots
    /// ([`HistogramSnapshot::delta_since`](xtrapulp_obs::HistogramSnapshot::delta_since))
    /// to report per-window percentiles.
    pub fn latencies(&self) -> ServeLatencies {
        ServeLatencies {
            publish_nanos: self.stats.publish_nanos.snapshot(),
            ingest_to_publish_nanos: self.stats.ingest_to_publish_nanos.snapshot(),
        }
    }

    /// The most recent apply/repartition failure, if any (rejected batches land here
    /// with their typed validation message).
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Drain-then-stop shutdown: close the queue to producers, let the worker apply
    /// and publish everything already queued, then join it — returning the engine
    /// (with its final graph and partition state) and the final counters.
    ///
    /// A worker that died mid-serve comes back as a typed
    /// [`ServeError::WorkerPanicked`] instead of re-raising the panic in the calling
    /// thread, so a crashed pipeline cannot cascade into its producers; one that never
    /// started, as [`ServeError::WorkerSpawn`].
    pub fn shutdown(mut self) -> Result<(E, ServeStats), ServeError> {
        self.queue.close();
        // `shutdown` takes `self` by value, so the handle is still here unless the
        // spawn was refused.
        let Some(worker) = self.worker.take() else {
            let detail = self.last_error().unwrap_or_default();
            return Err(ServeError::WorkerSpawn { detail });
        };
        let engine = worker.join().map_err(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            ServeError::WorkerPanicked { detail }
        })?;
        let stats = self.stats.snapshot(
            self.queue.queued_ops() as u64,
            self.queue.queued_batches() as u64,
        );
        Ok((engine, stats))
    }
}

impl<E: RepartitionEngine> Drop for ServeHandle<E> {
    fn drop(&mut self) {
        // Dropping without `shutdown`: close the queue so the (detached) worker
        // drains, publishes and exits instead of sleeping on the condvar forever —
        // and so producer threads blocked in `submit` wake to `IngestError::Closed`.
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::snapshot;
    use std::time::Duration;

    /// A toy engine over a virtual growing "graph": each applied batch appends its op
    /// count as new vertices (all in part 0); repartition publishes the next epoch.
    struct ToyEngine {
        epoch: u64,
        vertices: usize,
        reject_batches_of: Option<usize>,
        fail_repartitions: u64,
    }

    impl RepartitionEngine for ToyEngine {
        type Error = String;

        fn apply(&mut self, batch: &UpdateBatch) -> Result<(), String> {
            if self.reject_batches_of == Some(batch.len()) {
                return Err(format!("rejecting batches of {} ops", batch.len()));
            }
            self.vertices += batch.len();
            self.epoch += 1;
            Ok(())
        }

        fn repartition(&mut self) -> Result<PartitionSnapshot, String> {
            if self.fail_repartitions > 0 {
                self.fail_repartitions -= 1;
                return Err("transient repartition failure".to_string());
            }
            Ok(snapshot(self.epoch, vec![0; self.vertices], 1))
        }
    }

    fn batch(ops: usize) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        for i in 0..ops {
            b.insert_edge(i as u64, (i + 1) as u64);
        }
        b
    }

    #[test]
    fn worker_applies_groups_and_publishes_monotonic_epochs() {
        let engine = ToyEngine {
            epoch: 0,
            vertices: 4,
            reject_batches_of: None,
            fail_repartitions: 0,
        };
        let handle = spawn(engine, snapshot(0, vec![0; 4], 1), ServeConfig::default());
        let store = handle.store();
        for _ in 0..3 {
            handle.ingest(batch(2)).unwrap();
        }
        let seen = store
            .wait_for_epoch(1, Duration::from_secs(10))
            .expect("worker publishes");
        assert!(seen.epoch >= 1);
        let (engine, stats) = handle.shutdown().expect("worker exits cleanly");
        // Drain-then-stop: every batch applied, final state published.
        assert_eq!(engine.epoch, 3);
        assert_eq!(engine.vertices, 10);
        assert_eq!(stats.batches_applied, 3);
        assert_eq!(stats.ops_applied, 6);
        assert_eq!(stats.queue_depth_ops, 0);
        assert!(stats.epochs_published >= 1);
        assert_eq!(store.epoch(), 3);
        assert_eq!(store.current().num_vertices(), 10);
        assert!(stats.total_publish_seconds >= 0.0);
        assert!(stats.publish_seconds_p99 >= stats.publish_seconds_p50);
        assert!(stats.ingest_to_publish_seconds_p99 >= stats.ingest_to_publish_seconds_p50);
    }

    #[test]
    fn every_applied_batch_gets_an_ingest_to_publish_sample() {
        let engine = ToyEngine {
            epoch: 0,
            vertices: 1,
            reject_batches_of: Some(3),
            fail_repartitions: 0,
        };
        let handle = spawn(engine, snapshot(0, vec![0], 1), ServeConfig::default());
        for _ in 0..5 {
            handle.ingest(batch(2)).unwrap(); // applied
        }
        handle.ingest(batch(3)).unwrap(); // rejected: must NOT contribute a sample
                                          // The engine's epoch advances once per applied batch, so epoch 5 going live
                                          // means every applied batch's sample is already recorded (samples land
                                          // before the publish).
        handle
            .store()
            .wait_for_epoch(5, Duration::from_secs(10))
            .expect("all applied batches publish");
        let lat = handle.latencies();
        // The old gauge sampled one batch per group; the histogram records each
        // applied batch exactly once, however the worker grouped them.
        assert_eq!(lat.ingest_to_publish_nanos.count(), 5);
        assert!(lat.publish_nanos.count() >= 1);
        let (_, stats) = handle.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.batches_applied, 5);
        assert_eq!(stats.batches_rejected, 1);
        assert!(stats.ingest_to_publish_seconds_p50 > 0.0);
        assert!(stats.ingest_to_publish_seconds_p99 >= stats.ingest_to_publish_seconds_p50);
    }

    #[test]
    fn rejected_batches_are_counted_and_do_not_publish() {
        let engine = ToyEngine {
            epoch: 0,
            vertices: 1,
            reject_batches_of: Some(3),
            fail_repartitions: 0,
        };
        let handle = spawn(engine, snapshot(0, vec![0], 1), ServeConfig::default());
        handle.ingest(batch(3)).unwrap(); // rejected by the engine
        handle.ingest(batch(2)).unwrap(); // applied
        let store = handle.store();
        store
            .wait_for_epoch(1, Duration::from_secs(10))
            .expect("the good batch publishes");
        let (_, stats) = handle.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(store.epoch(), 1);
    }

    #[test]
    fn repartition_failures_keep_the_previous_epoch_serving() {
        let engine = ToyEngine {
            epoch: 0,
            vertices: 1,
            reject_batches_of: None,
            fail_repartitions: 1,
        };
        // A long retry interval keeps the quiescent retry out of this test (it has
        // its own: `pending_publish_is_retried_under_quiescent_traffic`).
        let config = ServeConfig {
            publish_retry: Duration::from_secs(3600),
            ..ServeConfig::default()
        };
        let handle = spawn(engine, snapshot(0, vec![0], 1), config);
        handle.ingest(batch(1)).unwrap();
        // Wait until the failure is recorded, then ingest a batch that succeeds.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.stats().repartition_failures == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.store().epoch(), 0, "failed epoch must not publish");
        assert_eq!(
            handle.last_error().as_deref(),
            Some("transient repartition failure")
        );
        handle.ingest(batch(1)).unwrap();
        let (_, stats) = handle.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.repartition_failures, 1);
        assert!(stats.epochs_published >= 1);
    }

    #[test]
    fn applied_but_unpublished_state_is_retried_even_by_rejected_groups() {
        // Cycle 1 applies a batch but its repartition fails; cycle 2's batch is
        // rejected by the engine. The dirty-state retry must still publish the
        // cycle-1 graph instead of leaving the store stale forever.
        let engine = ToyEngine {
            epoch: 0,
            vertices: 1,
            reject_batches_of: Some(3),
            fail_repartitions: 1,
        };
        // Long retry interval: this test exercises the rejected-group retry path, not
        // the quiescent timed retry.
        let config = ServeConfig {
            publish_retry: Duration::from_secs(3600),
            ..ServeConfig::default()
        };
        let handle = spawn(engine, snapshot(0, vec![0], 1), config);
        handle.ingest(batch(1)).unwrap(); // applied; repartition fails
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.stats().repartition_failures == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.store().epoch(), 0);
        handle.ingest(batch(3)).unwrap(); // rejected by the engine
        let store = handle.store();
        let published = store
            .wait_for_epoch(1, Duration::from_secs(10))
            .expect("the rejected group still retries the pending publish");
        assert_eq!(published.epoch, 1);
        let (_, stats) = handle.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.epochs_published, 1);
    }

    #[test]
    fn pending_publish_is_retried_under_quiescent_traffic() {
        // A transient repartition failure with no follow-up traffic: the bounded
        // drain wait must retry the pending publish on its own instead of leaving
        // readers on a stale epoch until shutdown.
        let engine = ToyEngine {
            epoch: 0,
            vertices: 1,
            reject_batches_of: None,
            fail_repartitions: 1,
        };
        let config = ServeConfig {
            publish_retry: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let handle = spawn(engine, snapshot(0, vec![0], 1), config);
        handle.ingest(batch(1)).unwrap();
        let published = handle
            .store()
            .wait_for_epoch(1, Duration::from_secs(10))
            .expect("the timed retry publishes without further ingest");
        assert_eq!(published.epoch, 1);
        let (_, stats) = handle.shutdown().expect("worker exits cleanly");
        assert_eq!(stats.repartition_failures, 1);
        assert_eq!(stats.epochs_published, 1);
    }

    /// An engine that panics while applying: the worker dies, but producers and the
    /// shutdown path must observe typed errors, not cascaded panics.
    #[derive(Debug)]
    struct PanickingEngine;

    impl RepartitionEngine for PanickingEngine {
        type Error = String;

        fn apply(&mut self, _batch: &UpdateBatch) -> Result<(), String> {
            panic!("engine bug");
        }

        fn repartition(&mut self) -> Result<PartitionSnapshot, String> {
            Ok(snapshot(1, vec![0], 1))
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error_not_cascade() {
        let handle = spawn(
            PanickingEngine,
            snapshot(0, vec![0], 1),
            ServeConfig::default(),
        );
        let queue = handle.queue();
        let store = handle.store();
        handle.ingest(batch(1)).unwrap();
        // The dying worker closes the queue, so producers wake to a typed error
        // instead of blocking (or panicking) forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !queue.is_closed() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(queue.submit(batch(1)), Err(IngestError::Closed));
        // Shutdown reports the panic as a value; the store still serves epoch 0.
        let err = handle.shutdown().expect_err("worker died");
        let ServeError::WorkerPanicked { detail } = err else {
            panic!("expected a worker panic, got {err}");
        };
        assert!(detail.contains("engine bug"), "{detail}");
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn dropping_the_handle_closes_the_queue_and_the_worker_drains() {
        let engine = ToyEngine {
            epoch: 0,
            vertices: 2,
            reject_batches_of: None,
            fail_repartitions: 0,
        };
        let handle = spawn(engine, snapshot(0, vec![0; 2], 1), ServeConfig::default());
        let store = handle.store();
        let queue = handle.queue();
        handle.ingest(batch(2)).unwrap();
        drop(handle);
        // The detached worker drains and publishes the queued batch...
        let published = store
            .wait_for_epoch(1, Duration::from_secs(10))
            .expect("dropped handle still drains the queue");
        assert_eq!(published.num_vertices(), 4);
        // ...and producers see a typed close instead of blocking forever.
        assert_eq!(queue.submit(batch(1)), Err(IngestError::Closed));
    }

    #[test]
    fn a_refused_worker_spawn_closes_the_queue_and_shuts_down_typed() {
        // The state `spawn` leaves when the OS refuses the worker thread.
        let queue = Arc::new(IngestQueue::new(ServeConfig::default().queue_capacity_ops));
        let last_error = Arc::new(Mutex::new(None));
        let refused = std::io::Error::other("thread limit reached");
        let worker: Option<JoinHandle<ToyEngine>> =
            worker_or_closed(Err(refused), &queue, &last_error);
        let handle = ServeHandle {
            store: EpochStore::new(snapshot(0, vec![0; 2], 1)),
            queue,
            stats: Arc::new(StatsCells::default()),
            last_error,
            worker,
        };
        assert_eq!(handle.ingest(batch(1)), Err(IngestError::Closed));
        assert_eq!(handle.try_ingest(batch(1)), Err(IngestError::Closed));
        let store = handle.store();
        match handle.shutdown() {
            Err(ServeError::WorkerSpawn { detail }) => {
                assert!(detail.contains("thread limit reached"), "{detail}")
            }
            Err(e) => panic!("expected a spawn error, got {e}"),
            Ok(_) => panic!("a handle without a worker shut down cleanly"),
        }
        assert_eq!(store.epoch(), 0);
    }
}
