//! Direct timings of single primitives, taken by a traced run next to the workload
//! that leans on them: collectives on the workload's own transport, the epoch store
//! and ingest queue at the workload's sizes, and a disabled `obs` span site.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::StageBreakdown;
use xtrapulp_api::Session;
use xtrapulp_dynamic::UpdateBatch;
use xtrapulp_serve::{BatchPolicy, EpochStore, IngestQueue, PartitionSnapshot};

use crate::harness::NUM_PARTS;

/// Mean microseconds per collective on the session's ranks, as rank 0 saw them.
pub struct CommMicro {
    /// `allreduce_sum_u64` of 16 values.
    pub allreduce_us: f64,
    pub barrier_us: f64,
    /// `alltoallv` of 64 KiB to every peer.
    pub alltoallv_us: f64,
    /// `allgatherv` of 64 KiB from every rank.
    pub allgatherv_us: f64,
}

pub fn comm(session: &mut Session) -> CommMicro {
    const SMALL_CALLS: u32 = 200;
    const BULK_CALLS: u32 = 20;
    const BULK_ELEMS: usize = 64 * 1024 / 8;
    let mean_us = |calls: u32, start: Instant| start.elapsed().as_secs_f64() * 1e6 / calls as f64;
    session
        .execute(|ctx| {
            let nranks = ctx.nranks();
            ctx.barrier();
            let start = Instant::now();
            for _ in 0..SMALL_CALLS {
                ctx.barrier();
            }
            let barrier_us = mean_us(SMALL_CALLS, start);
            let start = Instant::now();
            for i in 0..SMALL_CALLS as u64 {
                black_box(ctx.allreduce_sum_u64(&[i; 16]));
            }
            let allreduce_us = mean_us(SMALL_CALLS, start);
            let start = Instant::now();
            for _ in 0..BULK_CALLS {
                black_box(ctx.alltoallv(vec![vec![7u64; BULK_ELEMS]; nranks]));
            }
            let alltoallv_us = mean_us(BULK_CALLS, start);
            let start = Instant::now();
            for _ in 0..BULK_CALLS {
                black_box(ctx.allgatherv(vec![7u64; BULK_ELEMS]));
            }
            let allgatherv_us = mean_us(BULK_CALLS, start);
            CommMicro {
                allreduce_us,
                barrier_us,
                alltoallv_us,
                allgatherv_us,
            }
        })
        .into_iter()
        .next()
        .expect("a session hosts at least one rank")
}

/// Nanoseconds per `xtrapulp_obs::span` site while the program's tracing is off —
/// what every instrumented call pays in an untraced run.
pub fn obs_span_disabled_ns() -> f64 {
    const SITES: u32 = 10_000_000;
    assert!(!xtrapulp_obs::trace::enabled());
    let start = Instant::now();
    for _ in 0..SITES {
        black_box(xtrapulp_obs::span("benchmark_probe"));
    }
    start.elapsed().as_secs_f64() * 1e9 / SITES as f64
}

/// Mean cost of the serving plane's primitives on a standalone store and queue.
pub struct ServeMicro {
    /// `EpochStore::publish` of a snapshot of `parts.len()` vertices.
    pub store_publish_us: f64,
    /// `IngestQueue::try_submit` of one batch (the clone a producer hands over
    /// included), the queue drained between calls.
    pub queue_submit_us: f64,
    /// `PartitionSnapshot::members` of one part.
    pub members_us: f64,
}

pub fn serve(parts: &[i32], quality: PartitionQuality, batch: &UpdateBatch) -> ServeMicro {
    const CALLS: u32 = 50;
    let snapshot = |epoch: u64| PartitionSnapshot {
        epoch,
        num_parts: NUM_PARTS,
        parts: parts.to_vec(),
        quality,
        warm_start: epoch > 0,
        lp_sweeps: 0,
        vertices_scored: 0,
        stages: StageBreakdown::default(),
        vertices_migrated: 0,
        deltas: Arc::new([]),
    };
    let store = EpochStore::new(snapshot(0));
    let mut publish_s = 0.0;
    for epoch in 1..=CALLS as u64 {
        let next = snapshot(epoch);
        let start = Instant::now();
        store.publish(next);
        publish_s += start.elapsed().as_secs_f64();
    }

    let queue = IngestQueue::new(batch.len().max(1));
    let policy = BatchPolicy::default();
    let mut submit_s = 0.0;
    for _ in 0..CALLS {
        let start = Instant::now();
        queue
            .try_submit(batch.clone())
            .expect("the drained queue has room for one batch");
        submit_s += start.elapsed().as_secs_f64();
        black_box(queue.drain_group(&policy));
    }

    let current = store.current();
    let start = Instant::now();
    for part in 0..NUM_PARTS as i32 {
        black_box(current.members(part));
    }
    let members_s = start.elapsed().as_secs_f64();

    ServeMicro {
        store_publish_us: publish_s * 1e6 / CALLS as f64,
        queue_submit_us: submit_s * 1e6 / CALLS as f64,
        members_us: members_s * 1e6 / NUM_PARTS as f64,
    }
}
