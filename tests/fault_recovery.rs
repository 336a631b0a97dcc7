//! Cross-crate fault-tolerance tests: transport-level recovery through the
//! runtime's retry API, and crash-recovery of the durable serving session at
//! randomized kill points.
//!
//! The invariant under test everywhere: an injected fault either terminates
//! with a typed error or recovers to *bit-identical* state — never a hang,
//! never a panic escaping the pipeline, never a divergent partition.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xtrapulp::PartitionParams;
use xtrapulp_api::{Method, PartitionJob, ServingSession, Session};
use xtrapulp_comm::{
    CommError, ExecOutcome, FaultInjectTransport, FaultPlan, InProcFabric, Runtime, Transport,
};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::Csr;
use xtrapulp_serve::{BatchPolicy, DurableConfig, ServeConfig, ServeError, UpdateBatch};

fn ba_csr(n: u64, seed: u64) -> Csr {
    GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: n,
            edges_per_vertex: 4,
        },
        seed,
    )
    .generate()
    .to_csr()
}

fn job(parts: usize) -> PartitionJob {
    PartitionJob::new(Method::XtraPulp).with_params(PartitionParams {
        num_parts: parts,
        seed: 23,
        ..Default::default()
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtrapulp-fault-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build an `nranks` runtime whose rank `victim` is wrapped in a seeded fault
/// injector that kills its endpoint (sticky peer-death, in-process) at the
/// given transport frame.
fn faulty_runtime(nranks: usize, victim: usize, kill_at_frame: u64, seed: u64) -> Runtime {
    let transports: Vec<Box<dyn Transport>> =
        InProcFabric::create_with_recv_timeout(nranks, Duration::from_secs(2))
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                if rank == victim {
                    let plan = FaultPlan::new(seed).kill_at_frame(kill_at_frame);
                    Box::new(FaultInjectTransport::new(Box::new(t), plan)) as Box<dyn Transport>
                } else {
                    Box::new(t) as Box<dyn Transport>
                }
            })
            .collect();
    Runtime::from_transports(transports).unwrap()
}

/// A runtime with an armed one-shot kill recovers once and completes the job
/// with the same result a healthy runtime produces.
#[test]
fn runtime_recovers_from_an_injected_transport_death() {
    let csr = ba_csr(600, 11);
    let params = PartitionParams {
        num_parts: 4,
        seed: 23,
        ..Default::default()
    };
    let mut healthy = Session::new(3).unwrap();
    let reference = healthy.partition(&csr, &params).unwrap();

    for victim in [0usize, 2] {
        let runtime = faulty_runtime(3, victim, 40, 0xFA_u64 + victim as u64);
        let mut session = Session::with_runtime(runtime, xtrapulp_graph::Distribution::Block);
        // First attempt faults; the runtime recovers (clearing the injector's
        // sticky death) and the retry completes.
        let report = match session.submit(&job(4), &csr) {
            Ok(report) => report,
            Err(xtrapulp::PartitionError::Comm(_)) => {
                session.recover().expect("mesh recovery succeeds");
                session
                    .submit(&job(4), &csr)
                    .expect("retried job completes")
            }
            Err(e) => panic!("unexpected failure: {e}"),
        };
        assert_eq!(
            report.parts, reference.parts,
            "victim={victim}: recovered job must match the healthy run"
        );
    }
}

/// The typed recoverable-execution API: one armed kill → `Recovered` with one
/// recovery; exhausted attempts → `CommError::Aborted`, never a hang.
#[test]
fn try_execute_recoverable_reports_typed_outcomes() {
    // One-shot fault, one allowed recovery: the job completes as Recovered.
    // Frame 1: the victim's second transport op (2 ranks × 1 allreduce is only
    // a couple of ops, so the kill must land inside that narrow window).
    let mut runtime = faulty_runtime(2, 1, 1, 0xBEEF);
    let outcome = runtime
        .try_execute_recoverable(
            |ctx| {
                let sums = ctx.allreduce_sum_u64(&[ctx.rank() as u64 + 1]);
                sums[0]
            },
            1,
        )
        .expect("job recovers within the attempt budget");
    match outcome {
        ExecOutcome::Recovered {
            results,
            recoveries,
        } => {
            assert_eq!(results, vec![3, 3]);
            assert_eq!(recoveries, 1);
        }
        ExecOutcome::Completed(_) => panic!("the armed fault should have fired"),
    }

    // Zero allowed recoveries: the same fault aborts typed.
    // Frame 1: the victim's second transport op (2 ranks × 1 allreduce is only
    // a couple of ops, so the kill must land inside that narrow window).
    let mut runtime = faulty_runtime(2, 1, 1, 0xBEEF);
    let err = runtime
        .try_execute_recoverable(
            |ctx| {
                let sums = ctx.allreduce_sum_u64(&[ctx.rank() as u64 + 1]);
                sums[0]
            },
            0,
        )
        .expect_err("no attempts left means a typed abort");
    match err {
        CommError::Aborted { recoveries, .. } => assert_eq!(recoveries, 0),
        other => panic!("expected Aborted, got {other}"),
    }
}

/// Randomized kill points: crash the durable serving worker at WAL positions
/// drawn from a seeded RNG, recover, finish the workload, and require the
/// final graph and partition to be bit-identical to an uninterrupted run.
#[test]
fn durable_serving_survives_randomized_kill_points() {
    let total_batches = 5u64;
    let make_batch = |i: u64| {
        let mut batch = UpdateBatch::new();
        batch
            .add_vertices(1)
            .insert_edge(600 + i, (i * 11) % 500)
            .insert_edge(600 + i, (i * 17 + 3) % 500);
        batch
    };
    let config = || ServeConfig {
        policy: BatchPolicy {
            max_group_batches: 1,
            ..Default::default()
        },
        ..Default::default()
    };

    // Uninterrupted reference.
    let reference = {
        let dir = temp_dir("ref");
        let serving = ServingSession::spawn_durable(
            2,
            ba_csr(600, 11),
            job(4),
            config(),
            DurableConfig::new(&dir),
        )
        .unwrap();
        let store = serving.store();
        for i in 0..total_batches {
            serving.ingest(make_batch(i)).unwrap();
            store
                .wait_for_epoch(i + 1, Duration::from_secs(60))
                .unwrap();
        }
        let (session, _) = serving.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        session
    };

    // Epoch-per-batch appends 2 WAL records per epoch (batch + mark); any
    // point in [1, 2 * total_batches] is a valid mid-workload kill.
    let mut rng = SmallRng::seed_from_u64(0xD15A57E5);
    for round in 0..3 {
        let crash_after = rng.gen_range(1..2 * total_batches + 1);
        let dir = temp_dir(&format!("rand-{round}"));
        let serving = ServingSession::spawn_durable(
            2,
            ba_csr(600, 11),
            job(4),
            config(),
            DurableConfig::new(&dir)
                .checkpoint_every(2)
                .crash_after_wal_records(crash_after),
        )
        .unwrap();
        let store = serving.store();
        for i in 0..total_batches {
            if serving.ingest(make_batch(i)).is_err() {
                break;
            }
            if store
                .wait_for_epoch(i + 1, Duration::from_secs(10))
                .is_none()
            {
                break;
            }
        }
        match serving.shutdown() {
            Err(ServeError::WorkerPanicked { detail }) => {
                assert!(
                    detail.contains("injected durability crash"),
                    "round {round} (crash_after={crash_after}): {detail}"
                );
            }
            Err(e) => panic!("round {round}: expected a worker panic, got {e}"),
            Ok(_) => panic!("round {round}: worker survived crash_after={crash_after}"),
        }

        let recovered = ServingSession::recover(2, job(4), config(), DurableConfig::new(&dir))
            .unwrap_or_else(|e| panic!("round {round}: recovery failed: {e}"));
        let store = recovered.store();
        for i in recovered.epoch()..total_batches {
            recovered.ingest(make_batch(i)).unwrap();
            store
                .wait_for_epoch(i + 1, Duration::from_secs(60))
                .unwrap();
        }
        let (session, _) = recovered.shutdown().unwrap();
        assert_eq!(
            session.epoch(),
            reference.epoch(),
            "round {round} (crash_after={crash_after}): epochs diverged"
        );
        assert_eq!(
            session.parts().unwrap(),
            reference.parts().unwrap(),
            "round {round} (crash_after={crash_after}): partition not bit-identical"
        );
        assert_eq!(
            session.graph().num_vertices(),
            reference.graph().num_vertices(),
            "round {round} (crash_after={crash_after}): topology diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
