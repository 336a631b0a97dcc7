//! Integration tests of the `Session`/`PartitionJob` facade: runtime reuse must be
//! invisible in the results, the method registry must cover every partitioner, and
//! malformed requests must come back as typed errors without poisoning the session.

use xtrapulp_suite::core::{PartitionError, Partitioner};
use xtrapulp_suite::prelude::*;

fn test_graph(seed: u64) -> Csr {
    GraphConfig::new(
        GraphKind::WebCrawl {
            num_vertices: 1 << 11,
            avg_degree: 10,
            community_size: 128,
        },
        seed,
    )
    .generate()
    .to_csr()
}

#[test]
fn session_reuse_matches_one_shot_runs_across_three_jobs() {
    let nranks = 4;
    let graphs = [test_graph(1), test_graph(2), test_graph(3)];
    let params = [
        PartitionParams::with_parts(8),
        PartitionParams::with_parts(16),
        PartitionParams {
            num_parts: 4,
            seed: 99,
            ..Default::default()
        },
    ];

    // One persistent session for all jobs...
    let mut session = Session::new(nranks).expect("valid rank count");
    let session_results: Vec<Vec<i32>> = graphs
        .iter()
        .zip(&params)
        .map(|(csr, p)| session.partition(csr, p).expect("valid params").parts)
        .collect();
    assert_eq!(session.jobs_completed(), 3);

    // ...must produce byte-identical part vectors to fresh one-shot runs.
    let legacy = XtraPulpPartitioner::new(nranks);
    for ((csr, p), from_session) in graphs.iter().zip(&params).zip(&session_results) {
        let one_shot = legacy.try_partition(csr, p).unwrap();
        assert_eq!(&one_shot, from_session);
    }
}

#[test]
fn session_reports_carry_quality_timings_and_comm() {
    let csr = test_graph(7);
    let mut session = Session::new(3).expect("valid rank count");
    let report = session
        .partition(&csr, &PartitionParams::with_parts(8))
        .expect("valid params");
    assert_eq!(report.method, "XtraPuLP");
    assert_eq!(report.nranks, 3);
    assert_eq!(report.parts.len(), csr.num_vertices());
    assert_eq!(report.num_edges, csr.num_edges());
    assert!(report.quality.edge_cut_ratio <= 1.0);
    // The distributed job must have recorded its phases and moved bytes.
    assert!(report.timings.get("init") > std::time::Duration::ZERO);
    assert!(report.comm.bytes_sent > 0);
    assert!(report.comm.alltoallv_calls > 0);
    // And the report serialises to JSON for the perf trajectory.
    let json = report.to_json_summary();
    assert!(json.contains("\"method\":\"XtraPuLP\""), "{json}");
    assert!(json.contains("\"edge_cut\""), "{json}");
}

/// Serial PuLP and distributed XtraPuLP run one stage schedule, so a cold job and a
/// warm epoch of either report the same schedule phases.
#[test]
fn pulp_and_xtrapulp_report_the_same_schedule_phases() {
    const SCHEDULE: [&str; 5] = [
        "init",
        "warm_seed",
        "load_scan",
        "vertex_stage",
        "edge_stage",
    ];
    let phases = |report: &PartitionReport| -> Vec<&'static str> {
        let recorded: Vec<&str> = report.timings.iter().map(|(name, _)| name).collect();
        SCHEDULE
            .into_iter()
            .filter(|phase| recorded.contains(phase))
            .collect()
    };
    let csr = test_graph(23);
    let mut session = Session::new(2).expect("valid rank count");
    for method in [Method::Pulp, Method::XtraPulp] {
        let job = PartitionJob::new(method).with_parts(4);
        let cold = session.submit(&job, &csr).expect("valid job");
        assert_eq!(
            phases(&cold),
            ["init", "vertex_stage", "edge_stage"],
            "{method} cold"
        );

        let mut dynamic = DynamicSession::spawn(2, csr.clone(), job).expect("valid job");
        dynamic.repartition().expect("cold epoch");
        let new_vertex = csr.num_vertices() as u64;
        let mut batch = UpdateBatch::new();
        batch.add_vertices(1).insert_edge(new_vertex, 0);
        dynamic.apply_updates(&batch).expect("valid batch");
        let warm = dynamic.repartition().expect("warm epoch");
        assert!(warm.warm_start, "{method}");
        assert_eq!(
            phases(&warm.report),
            ["warm_seed", "load_scan", "vertex_stage"],
            "{method} warm"
        );
    }
}

#[test]
fn every_registry_method_runs_through_the_session() {
    let csr = test_graph(11);
    let mut session = Session::new(2).expect("valid rank count");
    for method in Method::all() {
        let job = PartitionJob::new(method).with_parts(4);
        let report = session.submit(&job, &csr).expect("valid job");
        assert_eq!(report.method, method.name());
        assert_eq!(report.parts.len(), csr.num_vertices(), "{method}");
        assert!(
            report.parts.iter().all(|&p| (0..4).contains(&p)),
            "{method} produced an out-of-range part"
        );
    }
    assert_eq!(session.jobs_completed(), Method::all().len() as u64);
}

#[test]
fn malformed_requests_are_errors_and_leave_the_session_healthy() {
    let csr = test_graph(13);
    let mut session = Session::new(2).expect("valid rank count");

    // Zero parts: typed error, no panic, nothing enters the runtime.
    let bad = PartitionJob::new(Method::XtraPulp).with_parts(0);
    assert_eq!(
        session.submit(&bad, &csr).unwrap_err(),
        PartitionError::InvalidNumParts { got: 0 }
    );

    // Negative imbalance through a serial method: same contract.
    let bad = PartitionJob::new(Method::MetisLike).with_params(PartitionParams {
        vertex_imbalance: -0.5,
        ..Default::default()
    });
    assert!(matches!(
        session.submit(&bad, &csr),
        Err(PartitionError::InvalidImbalance { .. })
    ));
    assert_eq!(session.jobs_completed(), 0);

    // The session is still healthy after rejected requests.
    let good = session
        .partition(&csr, &PartitionParams::with_parts(4))
        .expect("valid params");
    assert_eq!(good.parts.len(), csr.num_vertices());
}

#[test]
fn try_partition_never_panics_on_malformed_params() {
    let csr = test_graph(17);
    let bad_params = [
        PartitionParams {
            num_parts: 0,
            ..Default::default()
        },
        PartitionParams {
            vertex_imbalance: f64::NAN,
            ..Default::default()
        },
        PartitionParams {
            edge_imbalance: -1.0,
            ..Default::default()
        },
        PartitionParams {
            mult_x: -0.1,
            ..Default::default()
        },
    ];
    for method in Method::all() {
        let partitioner = method.build(2);
        for params in &bad_params {
            assert!(
                partitioner.try_partition(&csr, params).is_err(),
                "{method} accepted malformed params {params:?}"
            );
        }
    }
    // Zero ranks is a typed error on the distributed path, not a silent clamp.
    assert_eq!(
        XtraPulpPartitioner::new(0)
            .try_partition(&csr, &PartitionParams::with_parts(4))
            .unwrap_err(),
        PartitionError::InvalidRanks { got: 0 }
    );
}

#[test]
fn sessions_pipeline_partition_and_analytics_on_the_same_ranks() {
    // The facade's reuse story: partition a graph, then run a follow-up collective job
    // (here a degree sum, standing in for analytics) on the same rank threads.
    let csr = test_graph(19);
    let mut session = Session::new(3).expect("valid rank count");
    let report = session
        .partition(&csr, &PartitionParams::with_parts(3))
        .expect("valid params");
    let edges: Vec<(u64, u64)> = csr.edges().collect();
    let n = csr.num_vertices() as u64;
    let parts = report.parts.clone();
    let degree_sums = session.execute(|ctx| {
        let dist = Distribution::from_parts(&parts);
        let g = DistGraph::from_shared_edges(ctx, dist, n, &edges);
        ctx.allreduce_scalar_sum_u64(g.local_arcs())
    });
    assert!(degree_sums.iter().all(|&s| s == 2 * csr.num_edges()));
}
