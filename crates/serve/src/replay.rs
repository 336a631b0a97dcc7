//! Replay recorded mutation traces through the ingest queue.
//!
//! An update log ([`xtrapulp_graph::io::read_update_log`]) is a flat, timestamped op
//! sequence; replay re-chunks it into [`UpdateBatch`]es and submits them with blocking
//! backpressure, so a recorded trace drives the whole serve pipeline — queue → worker →
//! dynamic subsystem → epoch store — exactly like live producers.
//!
//! Chunking splits, never merges, and keeps every chunk self-consistent: a chunk is
//! flushed when it reaches the op budget *or* when the incoming op touches an
//! undirected edge already touched in the chunk (batch validation rejects
//! insert/delete conflicts within one batch, and a recorded trace may legitimately
//! insert an edge and delete it again later).

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::Path;

use xtrapulp_dynamic::UpdateBatch;
use xtrapulp_graph::io::read_update_log;
use xtrapulp_graph::{GlobalId, TimedOp, UpdateOp};

use crate::queue::{IngestError, IngestQueue};

/// Why a replay stopped early.
#[derive(Debug)]
pub enum ReplayError {
    /// Reading the log failed.
    Io(io::Error),
    /// Submitting a chunk failed (the queue closed mid-replay; blocking submits never
    /// see `QueueFull`).
    Ingest(IngestError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "reading the update log failed: {e}"),
            ReplayError::Ingest(e) => write!(f, "submitting a replay chunk failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> ReplayError {
        ReplayError::Io(e)
    }
}

impl From<IngestError> for ReplayError {
    fn from(e: IngestError) -> ReplayError {
        ReplayError::Ingest(e)
    }
}

/// What a completed replay submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Ops submitted.
    pub ops: u64,
    /// Batches the ops were chunked into.
    pub batches: u64,
}

/// Chunk `ops` into self-consistent batches of at most `max_batch_ops` ops and submit
/// each with blocking backpressure.
pub fn replay_ops(
    queue: &IngestQueue,
    ops: impl IntoIterator<Item = TimedOp>,
    max_batch_ops: usize,
) -> Result<ReplayOutcome, IngestError> {
    let max_batch_ops = max_batch_ops.clamp(1, queue.capacity_ops());
    let mut outcome = ReplayOutcome { ops: 0, batches: 0 };
    let mut chunk = UpdateBatch::new();
    let mut touched: HashSet<(GlobalId, GlobalId)> = HashSet::new();
    let mut flush = |chunk: &mut UpdateBatch,
                     touched: &mut HashSet<(GlobalId, GlobalId)>|
     -> Result<(), IngestError> {
        if chunk.is_empty() {
            return Ok(());
        }
        outcome.ops += chunk.len() as u64;
        outcome.batches += 1;
        queue.submit(std::mem::take(chunk))?;
        touched.clear();
        Ok(())
    };
    for t in ops {
        let edge_key = match t.op {
            UpdateOp::InsertEdge(u, v) | UpdateOp::DeleteEdge(u, v) => Some((u.min(v), u.max(v))),
            UpdateOp::AddVertices(_) => None,
        };
        // Same undirected edge touched twice: the second touch starts a new chunk, so
        // each submitted batch stays valid under batch-level conflict checking.
        if let Some(key) = edge_key {
            if touched.contains(&key) {
                flush(&mut chunk, &mut touched)?;
            }
            touched.insert(key);
        }
        chunk.push(t.op);
        if chunk.len() >= max_batch_ops {
            flush(&mut chunk, &mut touched)?;
        }
    }
    flush(&mut chunk, &mut touched)?;
    Ok(outcome)
}

/// Read a `.ulog` update log from disk and replay it through `queue`.
pub fn replay_update_log(
    queue: &IngestQueue,
    path: &Path,
    max_batch_ops: usize,
) -> Result<ReplayOutcome, ReplayError> {
    let ops = read_update_log(path)?;
    Ok(replay_ops(queue, ops, max_batch_ops)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(ops: &[UpdateOp]) -> Vec<TimedOp> {
        ops.iter()
            .enumerate()
            .map(|(i, &op)| TimedOp {
                time: i as u64 + 1,
                op,
            })
            .collect()
    }

    #[test]
    fn replay_chunks_at_the_op_budget() {
        let queue = IngestQueue::new(1000);
        let ops = timed(&[
            UpdateOp::InsertEdge(0, 1),
            UpdateOp::InsertEdge(1, 2),
            UpdateOp::InsertEdge(2, 3),
            UpdateOp::InsertEdge(3, 4),
            UpdateOp::InsertEdge(4, 5),
        ]);
        let outcome = replay_ops(&queue, ops, 2).unwrap();
        assert_eq!(outcome.ops, 5);
        assert_eq!(outcome.batches, 3);
        assert_eq!(queue.queued_batches(), 3);
    }

    #[test]
    fn replay_splits_on_edge_conflicts() {
        let queue = IngestQueue::new(1000);
        // Insert {0,1}, then delete it later in the trace: one batch would be an
        // insert/delete conflict, so the delete must open a new chunk.
        let ops = timed(&[
            UpdateOp::InsertEdge(0, 1),
            UpdateOp::InsertEdge(2, 3),
            UpdateOp::DeleteEdge(1, 0),
        ]);
        let outcome = replay_ops(&queue, ops, 100).unwrap();
        assert_eq!(outcome.batches, 2);
        let policy = crate::queue::BatchPolicy {
            max_group_ops: 1,
            max_group_batches: 1,
        };
        let first = queue.drain_group(&policy).unwrap();
        assert_eq!(first[0].batch.len(), 2);
        let second = queue.drain_group(&policy).unwrap();
        assert_eq!(
            second[0].batch.ops(),
            &[UpdateOp::DeleteEdge(1, 0)],
            "the conflicting delete lands in its own batch"
        );
    }

    #[test]
    fn replay_update_log_reads_and_submits() {
        let mut path = std::env::temp_dir();
        path.push(format!("xtrapulp-serve-replay-{}.ulog", std::process::id()));
        let ops = timed(&[
            UpdateOp::AddVertices(2),
            UpdateOp::InsertEdge(0, 1),
            UpdateOp::InsertEdge(1, 2),
        ]);
        xtrapulp_graph::io::write_update_log(&path, &ops).unwrap();
        let queue = IngestQueue::new(100);
        let outcome = replay_update_log(&queue, &path, 10).unwrap();
        assert_eq!(outcome, ReplayOutcome { ops: 3, batches: 1 });
        assert_eq!(queue.queued_ops(), 3);
        std::fs::remove_file(&path).ok();
    }
}
