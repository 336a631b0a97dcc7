//! The MVCC epoch store: `Arc`-published immutable snapshots with non-blocking reads.
//!
//! The store holds the latest [`PartitionSnapshot`] behind an
//! [`RwLock<Arc<_>>`](parking_lot::RwLock) — the offline stand-in for the `arc-swap`
//! publication pattern. A read is a shared lock acquisition plus an `Arc` clone
//! (readers never contend with each other, and a writer holds the lock only for the
//! duration of one pointer swap), so any number of threads can query `part_of`,
//! whole-part views and migration diffs while the background worker repartitions the
//! next epoch. The epoch counter itself is a plain atomic, so "has anything newer been
//! published?" is a wait-free load.
//!
//! Readers that want to *block* for a new epoch (tests, replay drivers) use
//! [`EpochStore::wait_for_epoch`], backed by a condvar the publisher signals.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use xtrapulp_graph::GraphDelta;

use crate::snapshot::{MigrationDiff, PartitionSnapshot};

/// How many published epochs' graph deltas the store retains for lagging consumers
/// by default (see [`EpochStore::with_delta_history`]).
pub const DEFAULT_DELTA_HISTORY: usize = 256;

/// One published epoch's graph-mutation record: the deltas that took the graph from
/// `from_epoch` to `to_epoch`. Entries form a contiguous chain, so a consumer holding
/// any published epoch can replay forward without refetching topology.
#[derive(Debug, Clone)]
struct DeltaLogEntry {
    from_epoch: u64,
    to_epoch: u64,
    deltas: Arc<[GraphDelta]>,
}

/// Walk the contiguous delta chain from published epoch `from` to published epoch
/// `to`. `None` when the chain is broken: `from` predates the retained history, or
/// either endpoint was never a published epoch.
fn chain_deltas(log: &VecDeque<DeltaLogEntry>, from: u64, to: u64) -> Option<Vec<GraphDelta>> {
    let mut out = Vec::new();
    let mut at = from;
    for entry in log.iter() {
        if at == to {
            break;
        }
        if entry.to_epoch <= from {
            continue;
        }
        if entry.from_epoch != at {
            return None;
        }
        out.extend(entry.deltas.iter().cloned());
        at = entry.to_epoch;
    }
    (at == to).then_some(out)
}

/// The single-writer, many-reader publication point for partition epochs.
#[derive(Debug)]
pub struct EpochStore {
    /// The latest snapshot. Swapped atomically (under a brief write lock) by the
    /// worker; cloned out (under a shared read lock) by readers.
    current: RwLock<Arc<PartitionSnapshot>>,
    /// The previous snapshot, kept so readers can ask for the latest migration diff
    /// without having retained the older epoch themselves.
    previous: RwLock<Option<Arc<PartitionSnapshot>>>,
    /// A bounded chain of per-publish graph deltas, so consumers that process epochs
    /// slower than the worker publishes them can still catch up incrementally.
    delta_log: RwLock<VecDeque<DeltaLogEntry>>,
    delta_history: usize,
    /// The latest published epoch, for wait-free staleness checks.
    epoch: AtomicU64,
    /// Publish notifications for blocking waiters.
    publish_mutex: StdMutex<u64>,
    publish_cond: Condvar,
}

impl EpochStore {
    /// Create a store seeded with the initial (epoch-0) snapshot, so readers always
    /// observe *some* fully-published partition. Retains
    /// [`DEFAULT_DELTA_HISTORY`] epochs of graph deltas for lagging consumers.
    pub fn new(initial: PartitionSnapshot) -> Arc<EpochStore> {
        EpochStore::with_delta_history(initial, DEFAULT_DELTA_HISTORY)
    }

    /// [`new`](EpochStore::new) with an explicit delta-history depth (minimum 1):
    /// how many published epochs a consumer may lag behind and still recover via
    /// [`deltas_between`](EpochStore::deltas_between).
    pub fn with_delta_history(initial: PartitionSnapshot, history: usize) -> Arc<EpochStore> {
        let epoch = initial.epoch;
        Arc::new(EpochStore {
            current: RwLock::new(Arc::new(initial)),
            previous: RwLock::new(None),
            delta_log: RwLock::new(VecDeque::new()),
            delta_history: history.max(1),
            epoch: AtomicU64::new(epoch),
            publish_mutex: StdMutex::new(epoch),
            publish_cond: Condvar::new(),
        })
    }

    /// The latest published epoch (wait-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) // ordering: pairs with the Release publish; epoch k implies snapshot k is visible
    }

    /// The latest published snapshot. Cheap: a shared lock and an `Arc` clone — the
    /// snapshot itself is never copied, and the returned handle stays valid (and
    /// immutable) however many epochs are published after it.
    pub fn current(&self) -> Arc<PartitionSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// The snapshot published immediately before the current one, if any.
    pub fn previous(&self) -> Option<Arc<PartitionSnapshot>> {
        self.previous.read().clone()
    }

    /// The migration diff from the previous to the current epoch, if two epochs have
    /// been published. (Arbitrary pairs: retain the `Arc`s and use
    /// [`PartitionSnapshot::diff_from`].)
    ///
    /// The two snapshots are read under the same lock order `publish` updates them in
    /// (`previous` first, then `current`), so the pair is always a consistent
    /// previous→current couple even when a publish races this call.
    pub fn latest_diff(&self) -> Option<MigrationDiff> {
        let previous = self.previous.read();
        let current = self.current.read();
        previous.as_ref().map(|p| current.diff_from(p))
    }

    /// Convenience: the current part of global vertex `v`.
    pub fn part_of(&self, v: xtrapulp_graph::GlobalId) -> Option<i32> {
        self.current().part_of(v)
    }

    /// Every graph delta published after epoch `from` up to epoch `to`, flattened into
    /// application order — what an epoch consumer replays against its topology to catch
    /// up. Both must be epochs that were published: `to` is the store's
    /// [`epoch`](EpochStore::epoch) to reach the current one, or the epoch of a snapshot
    /// the consumer pinned so it does not run ahead of it. `None` when either endpoint
    /// is outside the retained history or was never published; a consumer that lagged
    /// beyond the bounded history must then re-fetch the whole graph.
    pub fn deltas_between(&self, from: u64, to: u64) -> Option<Vec<GraphDelta>> {
        let log = self.delta_log.read();
        chain_deltas(&log, from, to)
    }

    /// Publish `snapshot` as the new current epoch and wake blocked waiters.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot.epoch` does not exceed the published epoch: epochs are
    /// strictly monotonic, and the store has exactly one writer (the worker).
    pub fn publish(&self, snapshot: PartitionSnapshot) -> Arc<PartitionSnapshot> {
        let published = Arc::new(snapshot);
        assert!(
            published.epoch > self.epoch(),
            "epoch {} published after epoch {}: the store requires strictly \
             monotonic epochs from its single writer",
            published.epoch,
            self.epoch()
        );
        {
            // Both slots are swapped inside one critical section (lock order:
            // `previous`, then `current`, then `delta_log` — the same order readers
            // acquire them in), so no reader can ever pair the new current with a
            // stale previous, and a reader that saw the new epoch counter always
            // finds its delta-log entry.
            let mut previous = self.previous.write();
            let mut current = self.current.write();
            let mut log = self.delta_log.write();
            log.push_back(DeltaLogEntry {
                from_epoch: current.epoch,
                to_epoch: published.epoch,
                // An Arc clone: the log shares the snapshot's delta slice.
                deltas: Arc::clone(&published.deltas),
            });
            while log.len() > self.delta_history {
                log.pop_front();
            }
            let displaced = std::mem::replace(&mut *current, Arc::clone(&published));
            *previous = Some(displaced);
            // The epoch counter is bumped while the write lock is still held, so a
            // reader that saw the new counter can never read the *older* snapshot.
            self.epoch.store(published.epoch, Ordering::Release); // ordering: Release-publishes the snapshot installed above
        }
        let mut latest = self
            .publish_mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *latest = published.epoch;
        self.publish_cond.notify_all();
        drop(latest);
        published
    }

    /// Approximate resident bytes of the store: the current and previous part
    /// vectors plus the retained delta history. Delta slices are shared
    /// (`Arc`) with the snapshots, so they are counted once, via the log.
    /// Feeds the `mem_bytes{subsystem="epoch_store"}` gauge.
    pub fn approx_bytes(&self) -> u64 {
        // Locks are taken sequentially (each dropped before the next), so this
        // can never deadlock against `publish`'s ordered multi-lock section.
        let current = self.current.read().num_vertices() as u64 * 4;
        let previous = self
            .previous
            .read()
            .as_ref()
            .map_or(0, |p| p.num_vertices() as u64 * 4);
        let log: u64 = self
            .delta_log
            .read()
            .iter()
            .map(|e| e.deltas.iter().map(|d| d.approx_bytes()).sum::<u64>() + 48)
            .sum();
        current + previous + log + 256
    }

    /// Block until an epoch `>= min_epoch` is published (or `timeout` elapses),
    /// returning the then-current snapshot — which may be newer than `min_epoch` if
    /// the worker published several epochs in between. `None` on timeout.
    pub fn wait_for_epoch(
        &self,
        min_epoch: u64,
        timeout: Duration,
    ) -> Option<Arc<PartitionSnapshot>> {
        let deadline = Instant::now() + timeout;
        let mut latest = self
            .publish_mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while *latest < min_epoch {
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (guard, wait) = self
                .publish_cond
                .wait_timeout(latest, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            latest = guard;
            if wait.timed_out() && *latest < min_epoch {
                return None;
            }
        }
        drop(latest);
        Some(self.current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::snapshot;

    #[test]
    fn publish_swaps_current_and_keeps_previous() {
        let store = EpochStore::new(snapshot(0, vec![0, 1], 2));
        assert_eq!(store.epoch(), 0);
        assert!(store.previous().is_none());
        assert!(store.latest_diff().is_none());

        let held = store.current();
        store.publish(snapshot(1, vec![1, 1], 2));
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.current().parts, vec![1, 1]);
        // The handle taken before the publish still reads the old epoch.
        assert_eq!(held.parts, vec![0, 1]);
        let diff = store.latest_diff().expect("two epochs published");
        assert_eq!(diff.moved, vec![0]);
        assert_eq!(store.part_of(0), Some(1));
    }

    #[test]
    #[should_panic(expected = "strictly monotonic")]
    fn non_monotonic_publish_panics() {
        let store = EpochStore::new(snapshot(3, vec![0], 1));
        store.publish(snapshot(3, vec![0], 1));
    }

    #[test]
    fn deltas_between_replays_the_contiguous_chain() {
        let delta = |base_n: u64| GraphDelta::new(base_n, 1, &[], &[]);
        let store = EpochStore::with_delta_history(snapshot(0, vec![0, 1], 2), 2);
        // Up to the current epoch, as a consumer catching up asks.
        let since = |from: u64| store.deltas_between(from, store.epoch());
        assert_eq!(since(0), Some(vec![]));

        let mut s1 = snapshot(2, vec![0, 1, 1], 2);
        s1.deltas = vec![delta(2)].into();
        store.publish(s1);
        let mut s2 = snapshot(5, vec![0, 1, 1, 0], 2);
        s2.deltas = vec![delta(3)].into();
        store.publish(s2);

        // From epoch 0: both publishes' deltas, in order.
        assert_eq!(since(0), Some(vec![delta(2), delta(3)]));
        // From the intermediate published epoch: just the tail.
        assert_eq!(since(2), Some(vec![delta(3)]));
        assert_eq!(since(5), Some(vec![]));
        // A never-published epoch cannot anchor the chain.
        assert!(since(3).is_none());

        // A third publish evicts the oldest entry (history = 2): epoch 0 is now
        // unrecoverable, epoch 2 onwards still replays.
        let mut s3 = snapshot(6, vec![0, 1, 1, 0, 1], 2);
        s3.deltas = vec![delta(4)].into();
        store.publish(s3);
        assert!(since(0).is_none());
        assert_eq!(since(2), Some(vec![delta(3), delta(4)]));
    }

    #[test]
    fn wait_for_epoch_blocks_until_published() {
        let store = EpochStore::new(snapshot(0, vec![0], 1));
        // Already satisfied: returns immediately.
        assert!(store.wait_for_epoch(0, Duration::from_millis(1)).is_some());
        // Not yet published: times out.
        assert!(store.wait_for_epoch(1, Duration::from_millis(10)).is_none());
        // Published from another thread: the waiter wakes.
        let store2 = Arc::clone(&store);
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            store2.publish(snapshot(1, vec![0], 1));
        });
        let got = store
            .wait_for_epoch(1, Duration::from_secs(5))
            .expect("publisher fires within the timeout");
        assert!(got.epoch >= 1);
        publisher.join().unwrap();
    }
}
