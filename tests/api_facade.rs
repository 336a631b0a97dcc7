//! Integration tests of the `Session`/`PartitionJob` facade: runtime reuse must be
//! invisible in the results, the method registry must cover every partitioner, and
//! malformed requests must come back as typed errors without poisoning the session.

use xtrapulp_suite::core::{run_xtrapulp_job, GraphSource, PartitionError};
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

    // ...must produce byte-identical part vectors to one-shot jobs on fresh runtimes.
    for ((csr, p), from_session) in graphs.iter().zip(&params).zip(&session_results) {
        let source = GraphSource::Csr(csr, &Distribution::Block);
        let one_shot = run_xtrapulp_job(&mut Runtime::new(nranks), source, p, None, None).unwrap();
        assert_eq!(&one_shot.parts, from_session);
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
        (
            PartitionParams {
                num_parts: 0,
                ..Default::default()
            },
            PartitionError::InvalidNumParts { got: 0 },
        ),
        (
            PartitionParams {
                vertex_imbalance: f64::NAN,
                ..Default::default()
            },
            PartitionError::InvalidImbalance {
                which: "vertex_imbalance",
                got: "NaN".to_string(),
            },
        ),
        (
            PartitionParams {
                edge_imbalance: -1.0,
                ..Default::default()
            },
            PartitionError::InvalidImbalance {
                which: "edge_imbalance",
                got: "-1".to_string(),
            },
        ),
        (
            PartitionParams {
                mult_x: -0.1,
                ..Default::default()
            },
            PartitionError::InvalidMultiplier {
                which: "mult_x",
                got: "-0.1".to_string(),
            },
        ),
    ];
    let mut session = Session::new(2).expect("valid rank count");
    for method in Method::all() {
        for (params, error) in &bad_params {
            let job = PartitionJob::new(method).with_params(*params);
            assert_eq!(
                session.submit(&job, &csr).as_ref().err(),
                Some(error),
                "{method} on malformed params {params:?}"
            );
        }
    }
    assert_eq!(session.jobs_completed(), 0);
    // Zero ranks is a typed error on the distributed path, not a silent clamp.
    assert_eq!(
        Session::new(0).err(),
        Some(PartitionError::InvalidRanks { got: 0 })
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

/// FNV-1a over a part vector's little-endian bytes, as in `tests/partition_golden.rs`.
fn fnv1a(parts: &[i32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parts {
        for b in p.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one method is pinned on for one graph: the cold `Session::submit` partition on
/// 2 ranks (FNV-1a, edge cut), then the second `DynamicSession::repartition` after one
/// seeded churn batch (warm for the methods that support it, cold for the others).
type MethodRow = [u64; 4];

fn method_table() -> Vec<(String, MethodRow)> {
    let graphs = [
        (
            "rmat10",
            GraphConfig::new(
                GraphKind::Rmat {
                    scale: 10,
                    edge_factor: 8,
                },
                42,
            )
            .generate(),
        ),
        (
            "mesh32",
            GraphConfig::new(
                GraphKind::Grid2d {
                    width: 32,
                    height: 32,
                    diagonal: false,
                },
                42,
            )
            .generate(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, base) in &graphs {
        let csr = base.to_csr();
        let stream = xtrapulp_gen::updates::generate_stream(
            base,
            &xtrapulp_gen::updates::UpdateStreamConfig {
                kind: xtrapulp_gen::updates::StreamKind::RandomChurn {
                    ops_per_batch: (csr.num_edges() / 100) as usize,
                    delete_fraction: 0.5,
                },
                num_batches: 1,
                seed: 31,
            },
        );
        let batch = UpdateBatch::from_ops(stream.batch_ops(0));
        let mut session = Session::new(2).expect("valid rank count");
        for method in Method::all() {
            let job = PartitionJob::new(method).with_params(PartitionParams {
                num_parts: 8,
                seed: 5,
                ..Default::default()
            });
            let cold = session.submit(&job, &csr).expect("valid job");
            let mut dynamic = DynamicSession::spawn(2, csr.clone(), job).expect("valid job");
            dynamic.repartition().expect("first epoch");
            dynamic.apply_updates(&batch).expect("valid batch");
            let second = dynamic.repartition().expect("second epoch").report;
            rows.push((
                format!("{name}/{method}"),
                [
                    fnv1a(&cold.parts),
                    cold.quality.edge_cut,
                    fnv1a(&second.parts),
                    second.quality.edge_cut,
                ],
            ));
        }
    }
    rows
}

/// Every method's partitions through the facade, cold and after one churn batch, are
/// pinned: the serial and multilevel methods have no other bit-for-bit oracle.
#[test]
fn every_method_matches_its_recorded_partitions() {
    let measured = method_table();
    assert_eq!(measured.len(), METHOD_TABLE.len());
    for ((key, row), (want_key, want)) in measured.iter().zip(METHOD_TABLE) {
        assert_eq!(key, want_key);
        assert_eq!(row, want, "{key}");
    }
}

#[test]
#[ignore = "prints the table to paste over METHOD_TABLE after an intentional behaviour change"]
fn print_method_table() {
    println!("const METHOD_TABLE: &[(&str, MethodRow)] = &[");
    for (key, row) in method_table() {
        println!("    ({key:?}, {row:?}),");
    }
    println!("];");
}

#[rustfmt::skip]
const METHOD_TABLE: &[(&str, MethodRow)] = &[
    ("rmat10/XtraPuLP", [10910131161758467792, 4318, 4293693092888539477, 4307]),
    ("rmat10/PuLP", [9584214184835759381, 4999, 14664872440027515666, 4536]),
    ("rmat10/Random", [11452233154896633074, 5221, 11452233154896633074, 5223]),
    ("rmat10/VertexBlock", [8679368175584654117, 4824, 8679368175584654117, 4827]),
    ("rmat10/EdgeBlock", [8055852713916195729, 5341, 14242899921204661844, 5340]),
    ("rmat10/MetisLike", [6307023095250074773, 4163, 16928041263075821959, 4166]),
    ("rmat10/LpCoarsenKway", [15648321103527398279, 4026, 9536026419302133349, 4019]),
    ("mesh32/XtraPuLP", [4198028620007977092, 379, 12603192707040590675, 376]),
    ("mesh32/PuLP", [1591771841691918631, 447, 1591771841691918631, 450]),
    ("mesh32/Random", [11452233154896633074, 1740, 11452233154896633074, 1729]),
    ("mesh32/VertexBlock", [8679368175584654117, 224, 8679368175584654117, 224]),
    ("mesh32/EdgeBlock", [14740342752135385830, 230, 14740342752135385830, 231]),
    ("mesh32/MetisLike", [11611999363590617921, 155, 4353188374786663943, 157]),
    ("mesh32/LpCoarsenKway", [7702553927722702053, 211, 16619138848386976976, 212]),
];
