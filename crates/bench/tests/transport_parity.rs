//! In-proc vs TCP parity: every collective, and a full partition job, must
//! produce identical results whether ranks are threads of one process (typed
//! frames, no serialisation) or sockets over localhost (real byte streams).
//!
//! The TCP "processes" here are threads of the test binary, each owning its
//! own connected [`TcpTransport`] endpoint — the wire path is exactly the one
//! `xtrapulp-mp` exercises across real processes (see `mp_e2e.rs` for that).

use std::net::TcpListener;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use xtrapulp::PartitionParams;
use xtrapulp_api::{DynamicReport, DynamicSession, Method, PartitionJob, Session, UpdateBatch};
use xtrapulp_comm::{CommStatsSnapshot, RankCtx, Runtime, TcpConfig, TcpTransport, Transport};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{Csr, Distribution};

/// One TCP mesh at a time per test process, so rendezvous ports never collide.
fn mesh_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .expect("probe a free port")
}

/// Run `f` collectively over `nranks` TcpTransport endpoints (one thread per
/// rank, sockets over localhost) and return the results in rank order.
fn run_tcp<F, R>(nranks: usize, f: F) -> Vec<R>
where
    F: Fn(&RankCtx) -> R + Sync + Send + 'static,
    R: Send + 'static,
{
    let _guard = mesh_lock().lock().unwrap();
    let coordinator = format!("127.0.0.1:{}", free_port());
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let coordinator = coordinator.clone();
        let f = Arc::clone(&f);
        handles.push(std::thread::spawn(move || {
            let mut config = TcpConfig::new(coordinator, Some(rank), nranks);
            config.recv_timeout = Duration::from_secs(30);
            let transport = TcpTransport::connect(&config).expect("mesh connects");
            let mut runtime = Runtime::with_transport(Box::new(transport)).expect("valid rank");
            let mut out = runtime.execute(|ctx| f(ctx));
            assert_eq!(out.len(), 1, "one local rank per endpoint");
            out.pop().unwrap()
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread completes"))
        .collect()
}

/// Every total of a snapshot is the sum of its per-kind entries: calls, frames and
/// wire bytes (sent plus received).
fn assert_totals_match_breakdown(snap: &CommStatsSnapshot) {
    let p = &snap.per_collective;
    let kinds = [p.barrier, p.allreduce, p.alltoallv, p.allgather, p.gather];
    let calls: u64 = kinds.iter().map(|k| k.calls).sum();
    let frames: u64 = kinds.iter().map(|k| k.frames).sum();
    let wire: u64 = kinds.iter().map(|k| k.wire_bytes).sum();
    assert_eq!(snap.collectives, calls);
    assert_eq!(snap.frames_sent, frames);
    assert_eq!(snap.wire_bytes_sent + snap.wire_bytes_received, wire);
    assert_eq!(snap.barriers, p.barrier.calls);
    assert_eq!(snap.alltoallv_calls, p.alltoallv.calls);
    assert_eq!(snap.allreduce_calls, p.allreduce.calls);
}

/// Exercise every collective once and return everything observable, plus the job's
/// collective count and the frames its gather sent. Checks the snapshot's totals
/// against its per-kind entries on the way.
#[allow(clippy::type_complexity)]
fn exercise_all_collectives(
    ctx: &RankCtx,
) -> (
    Vec<(u64, i32)>,                  // allgatherv
    Option<Vec<u64>>,                 // gather at rank 0 (None elsewhere)
    Vec<Vec<u64>>,                    // alltoallv
    (Vec<Vec<(u32, i32)>>, Vec<i64>), // alltoallv_sum
    Vec<u64>,                         // allreduce sum
    Vec<f64>,                         // allreduce max f64
    u64,                              // scalar sum
    (u64, u64),                       // collectives, gather frames
) {
    let rank = ctx.rank() as u64;
    let n = ctx.nranks();
    ctx.barrier();
    let allgatherv: Vec<(u64, i32)> = ctx.allgatherv(
        (0..rank + 1)
            .map(|i| (rank * 100 + i, -(i as i32)))
            .collect(),
    );
    let gathered = ctx.gather(rank + 10);
    let alltoallv = ctx.alltoallv(
        (0..n as u64)
            .map(|d| (0..d + 1).map(|i| rank * 10_000 + d * 100 + i).collect())
            .collect(),
    );
    let tallied = ctx.alltoallv_sum(
        (0..n as u32)
            .map(|d| (0..d % 3).map(|i| (d * 7 + i, -(rank as i32))).collect())
            .collect(),
        &[rank as i64 - 2, 1, i64::MIN / 16],
    );
    let summed = ctx.allreduce_sum_u64(&[rank, 1, rank * 2]);
    let maxed = ctx.allreduce_max_f64(&[rank as f64 * 1.5, -(rank as f64)]);
    ctx.barrier();
    let scalar = ctx.allreduce_scalar_sum_u64(rank + 5);
    let snap = ctx.stats().snapshot();
    assert_totals_match_breakdown(&snap);
    let counts = (snap.collectives, snap.per_collective.gather.frames);
    (
        allgatherv, gathered, alltoallv, tallied, summed, maxed, scalar, counts,
    )
}

#[test]
fn every_collective_matches_inproc_at_1_2_and_8_ranks() {
    for nranks in [1usize, 2, 8] {
        let inproc = Runtime::new(nranks).execute(exercise_all_collectives);
        let tcp = run_tcp(nranks, exercise_all_collectives);
        assert_eq!(
            inproc, tcp,
            "collective results diverged between backends at {nranks} ranks"
        );
        let gather_frames: u64 = tcp.iter().map(|r| r.7 .1).sum();
        assert_eq!(gather_frames, nranks as u64 - 1, "{nranks} ranks");
        assert!(tcp.iter().all(|r| r.7 .0 == 9), "{nranks} ranks");
    }
}

/// Frames and wire bytes one rank sent in one collective, and what it received.
type Traffic = (u64, u64, Vec<Vec<u64>>);

/// What an `alltoallv` and an `alltoallv_sum` with an empty tally of the same buffers
/// send on one backend.
fn empty_tally_traffic(ctx: &RankCtx) -> [Traffic; 2] {
    let sends = || -> Vec<Vec<u64>> {
        (0..ctx.nranks() as u64)
            .map(|d| (0..(ctx.rank() as u64 + d) % 4).collect())
            .collect()
    };
    let stats = ctx.stats();
    let measure = |tallied: bool| {
        let (frames, wire) = (stats.frames_sent(), stats.wire_bytes_sent());
        let out = if tallied {
            let (out, sums) = ctx.alltoallv_sum(sends(), &[]);
            assert!(sums.is_empty());
            out
        } else {
            ctx.alltoallv(sends())
        };
        (
            stats.frames_sent() - frames,
            stats.wire_bytes_sent() - wire,
            out,
        )
    };
    [measure(false), measure(true)]
}

#[test]
fn an_empty_tally_sends_exactly_the_frames_of_alltoallv() {
    for nranks in [1usize, 2, 8] {
        let inproc = Runtime::new(nranks).execute(empty_tally_traffic);
        let tcp = run_tcp(nranks, empty_tally_traffic);
        for per_rank in inproc.iter().chain(&tcp) {
            assert_eq!(per_rank[0], per_rank[1], "{nranks} ranks");
        }
        let results = |runs: &[[Traffic; 2]]| -> Vec<Vec<Vec<u64>>> {
            runs.iter().map(|r| r[0].2.clone()).collect()
        };
        assert_eq!(results(&inproc), results(&tcp), "{nranks} ranks");
    }
}

/// What an epoch of a [`DynamicSession`] must agree on across backends.
fn epoch_fingerprint(report: DynamicReport) -> (Vec<i32>, u64, u64, u64) {
    (
        report.report.parts,
        report.lp_sweeps,
        report.vertices_scored,
        report.vertices_migrated,
    )
}

/// Wrap `session` in a [`DynamicSession`] and run cold → one batch of inserts, deletes
/// and an added vertex → warm, returning both epochs' fingerprints.
fn dynamic_epochs(
    session: Session,
    csr: &Csr,
    params: &PartitionParams,
) -> [(Vec<i32>, u64, u64, u64); 2] {
    let job = PartitionJob::new(Method::XtraPulp).with_params(*params);
    let mut dynamic = DynamicSession::new(session, csr.clone(), job).expect("valid job");
    let cold = dynamic.repartition().expect("cold epoch");
    assert!(!cold.warm_start);

    let n = csr.num_vertices() as u64;
    let mut batch = UpdateBatch::new();
    batch.add_vertices(1);
    for u in (0..n).step_by(37) {
        if let Some(&v) = csr.neighbors(u).first() {
            batch.delete_edge(u, v);
        }
        let fresh = (u + n / 2 + 1) % n;
        if fresh != u && !csr.neighbors(u).contains(&fresh) {
            batch.insert_edge(u, fresh);
        }
    }
    batch.insert_edge(n, 0).insert_edge(n, n / 3);
    dynamic.apply_updates(&batch).expect("valid batch");

    let warm = dynamic.repartition().expect("warm epoch");
    assert!(warm.warm_start);
    assert_eq!(warm.report.parts.len(), csr.num_vertices() + 1);
    [epoch_fingerprint(cold), epoch_fingerprint(warm)]
}

#[test]
fn partition_job_is_bit_identical_across_backends() {
    let nranks = 4;
    let csr = GraphConfig::new(
        GraphKind::Rmat {
            scale: 9,
            edge_factor: 8,
        },
        1234,
    )
    .generate()
    .to_csr();
    let params = PartitionParams {
        num_parts: 4,
        ..Default::default()
    };

    let mut inproc = Session::new(nranks).expect("in-process session");
    let reference = inproc.partition(&csr, &params).expect("in-process job");
    let reference_epochs = dynamic_epochs(inproc, &csr, &params);

    let csr = Arc::new(csr);
    let per_rank_parts = {
        let _guard = mesh_lock().lock().unwrap();
        let coordinator = format!("127.0.0.1:{}", free_port());
        let mut handles = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let coordinator = coordinator.clone();
            let csr = Arc::clone(&csr);
            handles.push(std::thread::spawn(move || {
                let config = TcpConfig::new(coordinator, Some(rank), nranks);
                let transport = TcpTransport::connect(&config).expect("mesh connects");
                let runtime = Runtime::with_transport(Box::new(transport)).expect("valid rank");
                let mut session = Session::with_runtime(runtime, Distribution::Block);
                assert!(session.is_distributed());
                let report = session.partition(&csr, &params).expect("distributed job");
                assert_eq!(report.nranks, nranks);
                // The same endpoint then serves a mutating graph: its one local rank's
                // graph is kept across the epochs and found by local position.
                (report.parts, dynamic_epochs(session, &csr, &params))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank completes"))
            .collect::<Vec<_>>()
    };

    for (rank, (parts, epochs)) in per_rank_parts.iter().enumerate() {
        assert_eq!(
            parts, &reference.parts,
            "rank {rank}'s gathered part vector differs from the in-process backend"
        );
        assert_eq!(
            epochs, &reference_epochs,
            "rank {rank}'s dynamic epochs (parts, sweeps, scored, migrated) differ from \
             the in-process backend"
        );
    }
}

#[test]
fn coordinator_assigns_free_ranks_to_auto_workers() {
    let _guard = mesh_lock().lock().unwrap();
    let nranks = 4;
    let coordinator = format!("127.0.0.1:{}", free_port());
    let mut handles = Vec::with_capacity(nranks);
    for i in 0..nranks {
        let coordinator = coordinator.clone();
        handles.push(std::thread::spawn(move || {
            // Only the coordinator claims its rank; everyone else takes
            // whatever is assigned.
            let requested = if i == 0 { Some(0) } else { None };
            let config = TcpConfig::new(coordinator, requested, nranks);
            let transport = TcpTransport::connect(&config).expect("mesh connects");
            let assigned = transport.rank();
            let mut runtime = Runtime::with_transport(Box::new(transport)).expect("valid rank");
            let seen: Vec<u64> = runtime
                .execute(|ctx| ctx.allgatherv(vec![ctx.rank() as u64]))
                .pop()
                .unwrap();
            (assigned, seen)
        }));
    }
    let results: Vec<(usize, Vec<u64>)> = handles
        .into_iter()
        .map(|h| h.join().expect("worker completes"))
        .collect();
    let mut assigned: Vec<usize> = results.iter().map(|(r, _)| *r).collect();
    assigned.sort_unstable();
    assert_eq!(assigned, vec![0, 1, 2, 3], "ranks must be a permutation");
    for (_, seen) in &results {
        assert_eq!(seen, &vec![0u64, 1, 2, 3], "allgatherv sees every rank");
    }
}

#[test]
fn zero_and_mismatched_rank_configs_fail_typed() {
    use xtrapulp_comm::CommError;
    assert_eq!(Runtime::try_new(0).err(), Some(CommError::ZeroRanks));
    // A transport claiming a rank beyond its nranks is rejected up front.
    let err = TcpTransport::connect(&TcpConfig::new("127.0.0.1:1", Some(3), 2))
        .err()
        .expect("out-of-range rank must not connect");
    assert_eq!(err.kind(), "handshake");
}
