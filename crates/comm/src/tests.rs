//! Unit tests for the rank-parallel runtime and its collectives.

use crate::transport::Transport as _;
use crate::{CommStatsSnapshot, Runtime};

#[test]
fn single_rank_runtime_runs() {
    let out = Runtime::new(1).execute(|ctx| {
        assert_eq!(ctx.rank(), 0);
        assert_eq!(ctx.nranks(), 1);
        assert!(ctx.is_root());
        42u32
    });
    assert_eq!(out, vec![42]);
}

#[test]
fn results_are_indexed_by_rank() {
    let out = Runtime::new(6).execute(|ctx| ctx.rank() * 10);
    assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
}

#[test]
#[should_panic(expected = "at least one rank")]
fn zero_ranks_panics() {
    Runtime::new(0).execute(|_ctx| ());
}

/// An in-process endpoint whose rank worker dies on start: `rank()` panics when
/// a rank worker thread asks, while the runtime's checks on the caller's thread
/// get their answer.
struct DiesOnStart(crate::InProcTransport);

impl crate::Transport for DiesOnStart {
    fn rank(&self) -> usize {
        let thread = std::thread::current();
        let on_worker = thread
            .name()
            .is_some_and(|n| n.starts_with("xtrapulp-rank-"));
        assert!(!on_worker, "injected: rank worker dies on start");
        self.0.rank()
    }
    fn nranks(&self) -> usize {
        self.0.nranks()
    }
    fn is_wire(&self) -> bool {
        self.0.is_wire()
    }
    fn backend(&self) -> &'static str {
        self.0.backend()
    }
    fn send(&self, dst: usize, frame: crate::Frame) -> Result<u64, crate::TransportError> {
        self.0.send(dst, frame)
    }
    fn recv(&self, src: usize) -> Result<crate::Frame, crate::TransportError> {
        self.0.recv(src)
    }
}

#[test]
fn a_rank_whose_worker_died_fails_jobs_typed_instead_of_hanging() {
    use crate::CommError;
    // Rank 0's worker dies on start; rank 1's runs every job it is given.
    let mut fabric = crate::InProcFabric::create(2).into_iter();
    let (dying, healthy) = (fabric.next().unwrap(), fabric.next().unwrap());
    let transports: Vec<Box<dyn crate::Transport>> =
        vec![Box::new(DiesOnStart(dying)), Box::new(healthy)];
    let mut rt = Runtime::from_transports(transports).unwrap();
    // The first job may reach the worker before it dies; later ones cannot.
    for _ in 0..3 {
        assert_eq!(
            rt.try_execute(|ctx| ctx.rank()).err(),
            Some(CommError::WorkerLost { rank: 0 })
        );
    }
    assert!(matches!(
        rt.try_execute_recoverable(|ctx| ctx.rank(), 2),
        Err(CommError::WorkerLost { rank: 0 })
    ));
    assert_eq!(rt.recover(), Err(CommError::WorkerLost { rank: 0 }));
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.execute(|ctx| ctx.rank())
    }))
    .expect_err("execute re-raises a lost rank");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains("rank 0"), "{message}");
    // Both workers have exited or exit on the closed job channel: the drop joins.
    drop(rt);
}

#[test]
fn barrier_completes() {
    let out = Runtime::new(4).execute(|ctx| {
        for _ in 0..10 {
            ctx.barrier();
        }
        ctx.stats().barriers()
    });
    assert!(out.iter().all(|&b| b == 10));
}

#[test]
fn allgatherv_concatenates_in_rank_order() {
    let out = Runtime::new(3).execute(|ctx| {
        // Rank r contributes r copies of its id.
        let mine = vec![ctx.rank() as u32; ctx.rank()];
        ctx.allgatherv(mine)
    });
    for v in out {
        assert_eq!(v, vec![1, 2, 2]);
    }
}

#[test]
fn gather_returns_only_on_root() {
    let out = Runtime::new(4).execute(|ctx| ctx.gather(ctx.rank() as u8 + 5));
    assert_eq!(out[0], Some(vec![5, 6, 7, 8]));
    assert!(out[1..].iter().all(Option::is_none));
}

#[test]
fn alltoallv_delivers_variable_buffers() {
    let out = Runtime::new(3).execute(|ctx| {
        // Rank s sends a buffer of length s+d to rank d, filled with s*100+d.
        let sends: Vec<Vec<u64>> = (0..3)
            .map(|d| vec![(ctx.rank() * 100 + d) as u64; ctx.rank() + d])
            .collect();
        ctx.alltoallv(sends)
    });
    for (d, received) in out.iter().enumerate() {
        for (s, buf) in received.iter().enumerate() {
            assert_eq!(buf.len(), s + d);
            assert!(buf.iter().all(|&x| x == (s * 100 + d) as u64));
        }
    }
}

#[test]
fn alltoallv_conserves_elements() {
    let out = Runtime::new(4).execute(|ctx| {
        let sends: Vec<Vec<u32>> = (0..4)
            .map(|d| vec![0u32; (ctx.rank() * 7 + d * 3) % 11])
            .collect();
        let sent: usize = sends.iter().map(Vec::len).sum();
        let received: usize = ctx.alltoallv(sends).iter().map(Vec::len).sum();
        (sent, received)
    });
    let total_sent: usize = out.iter().map(|(s, _)| s).sum();
    let total_received: usize = out.iter().map(|(_, r)| r).sum();
    assert_eq!(total_sent, total_received);
}

#[test]
fn allreduce_sum_and_max_and_min() {
    let out = Runtime::new(4).execute(|ctx| {
        let r = ctx.rank() as u64;
        let sum = ctx.allreduce_sum_u64(&[r, 1, 2 * r]);
        let max = ctx.allreduce_max_u64(&[r, 7]);
        let min = ctx.allreduce_min_u64(&[r + 1]);
        (sum, max, min)
    });
    for (sum, max, min) in out {
        assert_eq!(sum, vec![6, 4, 12]);
        assert_eq!(max, vec![3, 7]);
        assert_eq!(min, vec![1]);
    }
}

#[test]
fn allreduce_f64_sum() {
    let out = Runtime::new(3).execute(|ctx| ctx.allreduce_sum_f64(&[ctx.rank() as f64 * 0.5]));
    for v in out {
        assert!((v[0] - 1.5).abs() < 1e-12);
    }
}

#[test]
fn allreduce_with_is_rank_ordered() {
    // Use a non-commutative combine (string-ish concatenation encoded as digit append)
    // to verify the reduction applies contributions in rank order.
    let out = Runtime::new(4)
        .execute(|ctx| ctx.allreduce_with(&[ctx.rank() as u64 + 1], |a, c| *a = *a * 10 + *c));
    for v in out {
        assert_eq!(v, vec![1234]);
    }
}

/// A peer whose contribution has the wrong length is a frame this collective
/// cannot decode: every rank fails typed, naming the first rank that disagrees
/// with it, instead of panicking on an assertion.
#[test]
fn allreduce_reports_a_short_contribution_as_a_codec_error_naming_the_rank() {
    use crate::transport::{CodecError, TransportError};
    let named = Runtime::new(3).execute(|ctx| {
        // Rank 1 contributes one element where the others contribute two.
        let local = [7u64; 2];
        let local = &local[..if ctx.rank() == 1 { 1 } else { 2 }];
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.allreduce_sum_u64(local)
        }))
        .expect_err("mismatched lengths must fail the collective");
        match failed.downcast::<TransportError>().map(|e| *e) {
            Ok(TransportError::Codec {
                peer,
                source: CodecError::BadLength { expected, got },
            }) => (peer, expected, got),
            other => panic!("expected a codec error, got {other:?}"),
        }
    });
    assert_eq!(named, vec![(1, 16, 8), (0, 8, 16), (1, 16, 8)]);
}

#[test]
fn alltoallv_sum_delivers_buffers_and_sums_the_tally_in_one_round() {
    let out = Runtime::new(3).execute(|ctx| {
        let r = ctx.rank();
        let sends: Vec<Vec<(u32, i32)>> =
            (0..3).map(|d| vec![(r as u32, d as i32); r + d]).collect();
        let tally = [r as i64 - 1, i64::MAX / 4, -(r as i64) * 7];
        let before = ctx.stats().snapshot();
        let (received, sums) = ctx.alltoallv_sum(sends, &tally);
        let after = ctx.stats().snapshot();
        (received, sums, before, after)
    });
    for (d, (received, sums, before, after)) in out.iter().enumerate() {
        for (s, buf) in received.iter().enumerate() {
            assert_eq!(buf, &vec![(s as u32, d as i32); s + d]);
        }
        assert_eq!(sums, &vec![0, 3 * (i64::MAX / 4), -21]);
        // One alltoallv, no allreduce; the tally's 24 bytes count once each way.
        assert_eq!(after.collectives - before.collectives, 1);
        assert_eq!(after.alltoallv_calls - before.alltoallv_calls, 1);
        assert_eq!(after.allreduce_calls, before.allreduce_calls);
        let sent: usize = (0..3).map(|to| d + to).sum();
        let got: usize = (0..3).map(|from| from + d).sum();
        assert_eq!(after.bytes_sent - before.bytes_sent, (sent * 8 + 24) as u64);
        assert_eq!(
            after.bytes_received - before.bytes_received,
            (got * 8 + 24) as u64
        );
        // Two peer frames, each carrying the count prefix and the tally.
        assert_eq!(after.frames_sent - before.frames_sent, 2);
    }
}

#[test]
fn alltoallv_sum_with_an_empty_tally_is_alltoallv() {
    let out = Runtime::new(4).execute(|ctx| {
        let sends = |round: u64| -> Vec<Vec<u64>> {
            (0..4).map(|d| vec![round; (ctx.rank() + d) % 3]).collect()
        };
        let s0 = ctx.stats().snapshot();
        let plain = ctx.alltoallv(sends(1));
        let s1 = ctx.stats().snapshot();
        let (tallied, sums) = ctx.alltoallv_sum(sends(1), &[]);
        let s2 = ctx.stats().snapshot();
        assert!(sums.is_empty());
        assert_eq!(plain, tallied);
        let delta = |a: &crate::CommStatsSnapshot, b: &crate::CommStatsSnapshot| {
            (
                b.collectives - a.collectives,
                b.frames_sent - a.frames_sent,
                b.wire_bytes_sent - a.wire_bytes_sent,
                b.bytes_sent - a.bytes_sent,
            )
        };
        assert_eq!(delta(&s0, &s1), delta(&s1, &s2));
    });
    assert_eq!(out.len(), 4);
}

/// A peer whose tally has another length fails `alltoallv_sum` exactly as a short
/// allreduce contribution does.
#[test]
fn alltoallv_sum_reports_a_tally_length_mismatch_as_a_codec_error() {
    use crate::transport::{CodecError, TransportError};
    let named = Runtime::new(3).execute(|ctx| {
        let tally = [5i64; 2];
        let tally = &tally[..if ctx.rank() == 2 { 1 } else { 2 }];
        let sends = vec![vec![1u64]; 3];
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.alltoallv_sum(sends, tally)
        }))
        .expect_err("mismatched tallies must fail the collective");
        match failed.downcast::<TransportError>().map(|e| *e) {
            Ok(TransportError::Codec {
                peer,
                source: CodecError::BadLength { expected, got },
            }) => (peer, expected, got),
            other => panic!("expected a codec error, got {other:?}"),
        }
    });
    assert_eq!(named, vec![(2, 16, 8), (2, 16, 8), (0, 8, 16)]);
}

#[test]
fn scalar_allreduce_helpers() {
    let out = Runtime::new(4).execute(|ctx| {
        let s = ctx.allreduce_scalar_sum_u64(ctx.rank() as u64);
        let f = ctx.allreduce_max_f64(&[ctx.rank() as f64 / 2.0, -(ctx.rank() as f64)]);
        let i = ctx.allreduce_sum_i64(&[ctx.rank() as i64 - 2]);
        (s, f, i)
    });
    for (s, f, i) in out {
        assert_eq!(s, 6);
        assert_eq!(f, vec![1.5, 0.0]);
        assert_eq!(i, vec![-2]);
    }
}

#[test]
fn stats_count_traffic() {
    let out = Runtime::new(2).execute(|ctx| {
        let sends = vec![vec![1u64; 10], vec![2u64; 20]];
        let _ = ctx.alltoallv(sends);
        let _ = ctx.allreduce_sum_u64(&[1, 2, 3]);
        ctx.stats().snapshot()
    });
    for snap in &out {
        assert_eq!(snap.alltoallv_calls, 1);
        assert_eq!(snap.allreduce_calls, 1);
        // 30 u64 sent in the alltoallv plus 3 in the allreduce.
        assert_eq!(snap.bytes_sent, (30 + 3) * 8);
        assert!(snap.collectives >= 2);
    }
    // The alltoallv payload is conserved across ranks: everything sent is received.
    let sent: u64 = out.iter().map(|s| s.bytes_sent).sum();
    let recv: u64 = out.iter().map(|s| s.bytes_received).sum();
    // Allreduce and allgather-style collectives deliver each contribution to every rank,
    // so the aggregate received volume is at least the aggregate sent volume.
    assert!(recv >= sent);
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

/// One job issuing every collective kind on 1, 2 and 4 ranks: each result is right,
/// each snapshot total is the sum of its per-kind entries, and the gather sends
/// exactly one frame from every rank but rank 0.
#[test]
fn every_total_is_the_sum_of_its_per_kind_entries() {
    for nranks in [1usize, 2, 4] {
        let out = Runtime::new(nranks).execute(|ctx| {
            let r = ctx.rank() as u64;
            ctx.barrier();
            let gathered = ctx.gather(r * 3);
            let all = ctx.allgatherv(vec![r; ctx.rank() + 1]);
            let sends = (0..nranks as u64)
                .map(|d| vec![r + d; d as usize])
                .collect();
            let received = ctx.alltoallv(sends).concat();
            let sends = (0..nranks).map(|d| vec![r as u32; d % 2]).collect();
            let (_, sums) = ctx.alltoallv_sum(sends, &[1, r as i64]);
            let total = ctx.allreduce_scalar_sum_u64(r);
            let results = (gathered, all.len(), received, sums, total);
            (results, ctx.stats().snapshot())
        });
        let n = nranks as u64;
        let gather_frames: u64 = out
            .iter()
            .map(|(_, snap)| snap.per_collective.gather.frames)
            .sum();
        assert_eq!(gather_frames, n - 1, "{nranks} ranks");
        for (rank, (results, snap)) in out.into_iter().enumerate() {
            assert_totals_match_breakdown(&snap);
            assert_eq!(snap.collectives, 6, "{nranks} ranks");
            assert_eq!(snap.alltoallv_calls, 2, "{nranks} ranks");
            let (gathered, all, received, sums, total) = results;
            assert_eq!(
                gathered,
                (rank == 0).then(|| (0..n).map(|s| s * 3).collect())
            );
            assert_eq!(all, nranks * (nranks + 1) / 2);
            let want: Vec<u64> = (0..n).flat_map(|s| vec![s + rank as u64; rank]).collect();
            assert_eq!(received, want);
            assert_eq!(sums, vec![n as i64, (n * (n - 1) / 2) as i64]);
            assert_eq!(total, n * (n - 1) / 2);
        }
    }
}

#[test]
fn mixed_collective_sequences_are_consistent() {
    // Interleave every collective kind so a mismatched frame order would surface.
    let out = Runtime::new(4).execute(|ctx| {
        let mut checksum = 0u64;
        for round in 0..25u64 {
            let g = ctx.allgatherv(vec![ctx.rank() as u64 + round]);
            checksum += g.iter().sum::<u64>();
            let rooted = ctx.gather(round * ctx.rank() as u64);
            checksum += rooted.map_or(0, |all| all.iter().sum::<u64>());
            checksum = ctx.allreduce_scalar_sum_u64(checksum);
            let sends: Vec<Vec<u64>> = (0..4).map(|_d| vec![round; ctx.rank()]).collect();
            let recv = ctx.alltoallv(sends);
            checksum += recv.iter().map(|b| b.len() as u64).sum::<u64>();
            let red = ctx.allreduce_scalar_sum_u64(round + ctx.rank() as u64);
            checksum += red;
        }
        checksum
    });
    // All ranks must agree on every collective result, hence on the checksum.
    assert!(out.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn phase_timer_accumulates() {
    let mut pt = crate::PhaseTimer::new();
    pt.time("a", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    pt.time("a", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    pt.time("b", || ());
    assert!(pt.get("a").as_secs_f64() >= 0.003);
    assert!(pt.total() >= pt.get("a"));
    assert_eq!(pt.iter().count(), 2);
}

// ----------------------------------------------------------------------------
// Stall watchdog + flight recorder.
// ----------------------------------------------------------------------------

/// Wrap each rank of an in-process fabric in a [`FaultInjectTransport`]
/// built from `plan_for(rank)`.
fn fault_injected_runtime(nranks: usize, plan_for: impl Fn(usize) -> crate::FaultPlan) -> Runtime {
    let transports: Vec<Box<dyn crate::Transport>> = crate::InProcFabric::create(nranks)
        .into_iter()
        .map(|t| {
            let plan = plan_for(t.rank());
            Box::new(crate::FaultInjectTransport::new(Box::new(t), plan))
                as Box<dyn crate::Transport>
        })
        .collect();
    Runtime::from_transports(transports).unwrap()
}

#[test]
fn watchdog_trips_typed_on_an_injected_stall() {
    use std::time::Duration;
    // Rank 1 sleeps 400 ms before every operation; the deadline is 50 ms.
    let mut rt = fault_injected_runtime(2, |rank| {
        let plan = crate::FaultPlan::new(3);
        if rank == 1 {
            plan.delay_every(1, Duration::from_millis(400))
        } else {
            plan
        }
    });
    rt.set_watchdog_deadline(Some(Duration::from_millis(50)));
    let err = rt
        .try_execute(|ctx| ctx.allreduce_scalar_sum_u64(ctx.rank() as u64))
        .expect_err("an injected stall past the deadline must trip");
    match err {
        crate::CommError::Stalled {
            collective,
            rank,
            waited_ms,
            ..
        } => {
            assert_eq!(collective, "allreduce");
            assert!(rank < 2, "the tripping rank is one of the job's ranks");
            assert!(waited_ms >= 50, "waited {waited_ms} ms");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    // The trip dumped a post-mortem naming the stalled collective.
    let dump = xtrapulp_obs::flight::dump_path();
    let body = std::fs::read_to_string(&dump).expect("watchdog trip wrote a post-mortem");
    assert!(body.contains("\"reason\":\"watchdog\""), "{body}");
    assert!(body.contains("\"kind\":\"watchdog\""), "{body}");
    let _ = std::fs::remove_file(&dump);
    // The runtime survives: the watchdog unwound the job, not the workers.
    // Like any mid-collective failure, the abandoned collective's in-flight
    // frames must be flushed by a recovery before the next job.
    rt.set_watchdog_deadline(None);
    rt.recover().unwrap();
    let sums = rt.execute(|ctx| ctx.allreduce_scalar_sum_u64(1));
    assert_eq!(sums, vec![2, 2]);
}

#[test]
fn watchdog_does_not_trip_on_slow_but_progressing_ranks() {
    use std::time::Duration;
    // Every operation on every rank is delayed 20 ms — slow, but each op
    // completes well inside the 250 ms deadline, so progress never stops.
    let mut rt = fault_injected_runtime(2, |_| {
        crate::FaultPlan::new(5).delay_every(1, Duration::from_millis(20))
    });
    rt.set_watchdog_deadline(Some(Duration::from_millis(250)));
    let results = rt
        .try_execute(|ctx| {
            let mut acc = 0u64;
            for _ in 0..4 {
                acc = ctx.allreduce_scalar_sum_u64(ctx.rank() as u64 + 1);
            }
            acc
        })
        .expect("a slow-but-progressing job must not trip the watchdog");
    assert_eq!(results, vec![3, 3]);
}

#[test]
fn watchdog_disabled_by_default_and_per_job_sampling() {
    use std::time::Duration;
    let mut rt = Runtime::new(2);
    assert_eq!(rt.watchdog_deadline(), None);
    rt.set_watchdog_deadline(Some(Duration::from_secs(5)));
    assert_eq!(rt.watchdog_deadline(), Some(Duration::from_secs(5)));
    // A normal fast job under an armed watchdog completes untripped.
    let r = rt.try_execute(|ctx| ctx.allreduce_max_u64(&[ctx.rank() as u64])[0]);
    assert_eq!(r.unwrap(), vec![1, 1]);
}

#[test]
fn export_flight_merges_ranks_into_one_postmortem() {
    let dir = std::env::temp_dir().join(format!(
        "xtrapulp-flight-export-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("postmortem.json");
    let mut rt = Runtime::new(2);
    // Generate some collective traffic so the ring has events to merge.
    rt.execute(|ctx| ctx.allreduce_scalar_sum_u64(ctx.rank() as u64));
    let wrote = rt.export_flight(&path, "test-export").unwrap();
    assert!(wrote, "the process hosting rank 0 writes the file");
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("\"reason\":\"test-export\""));
    assert!(body.contains("\"kind\":\"collective_enter\""), "{body}");
    assert!(body.contains("\"name\":\"allreduce\""), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}
