//! Cross-crate integration tests: generator -> distributed graph -> partitioner ->
//! metrics -> analytics / SpMV, exercising the public API the way the experiment
//! harnesses and examples do.

use xtrapulp_suite::core::metrics::{is_valid_partition, PartitionQuality};
use xtrapulp_suite::core::{baselines, try_pulp_partition};
use xtrapulp_suite::graph::{DistGraph, Distribution};
use xtrapulp_suite::prelude::*;
use xtrapulp_suite::spmv::{spmv_1d_with_partition, spmv_2d, Matrix2d};

fn crawl_graph(n: u64) -> xtrapulp_suite::gen::EdgeList {
    GraphConfig::new(
        GraphKind::WebCrawl {
            num_vertices: n,
            avg_degree: 12,
            community_size: 128,
        },
        77,
    )
    .generate()
}

/// XtraPuLP's part vector from a fresh `nranks`-rank session.
fn one_shot(nranks: usize, csr: &Csr, params: &PartitionParams) -> Vec<i32> {
    let mut session = Session::new(nranks).expect("valid rank count");
    session.partition(csr, params).expect("valid params").parts
}

#[test]
fn every_partitioner_produces_valid_partitions_on_every_graph_class() {
    let configs = [
        GraphKind::Rmat {
            scale: 11,
            edge_factor: 8,
        },
        GraphKind::BarabasiAlbert {
            num_vertices: 2048,
            edges_per_vertex: 6,
        },
        GraphKind::WebCrawl {
            num_vertices: 2048,
            avg_degree: 12,
            community_size: 128,
        },
        GraphKind::Grid3d {
            nx: 12,
            ny: 12,
            nz: 12,
            full: false,
        },
    ];
    let params = PartitionParams {
        num_parts: 8,
        seed: 5,
        ..Default::default()
    };
    // The whole registry, every graph class: all seven methods must produce valid
    // partitions through the typed request path.
    let mut session = Session::new(3).expect("valid rank count");
    for kind in configs {
        let csr = GraphConfig::new(kind, 3).generate().to_csr();
        for method in Method::all() {
            let job = PartitionJob::new(method).with_params(params);
            let report = session
                .submit(&job, &csr)
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert_eq!(report.parts.len(), csr.num_vertices(), "{method}");
            assert!(is_valid_partition(&report.parts, 8), "{method}");
            assert!(report.quality.edge_cut_ratio <= 1.0, "{method}");
        }
    }
}

#[test]
fn xtrapulp_quality_tracks_the_paper_pattern_across_classes() {
    // Crawl-like graphs partition with a small cut; RMAT-like graphs do not. The paper's
    // Fig. 4 / Table II rely on exactly this contrast.
    let params = PartitionParams {
        num_parts: 8,
        seed: 9,
        ..Default::default()
    };
    let crawl = crawl_graph(1 << 13).to_csr();
    let rmat = GraphConfig::new(
        GraphKind::Rmat {
            scale: 13,
            edge_factor: 12,
        },
        5,
    )
    .generate()
    .to_csr();
    let mut session = Session::new(4).expect("valid rank count");
    let q_crawl = session.partition(&crawl, &params).unwrap().quality;
    let q_rmat = session.partition(&rmat, &params).unwrap().quality;
    assert!(
        q_crawl.edge_cut_ratio < 0.4,
        "crawl cut {}",
        q_crawl.edge_cut_ratio
    );
    assert!(q_rmat.edge_cut_ratio > q_crawl.edge_cut_ratio);
    assert!(q_crawl.vertex_imbalance < 1.25);
    assert!(q_rmat.vertex_imbalance < 1.25);
}

#[test]
fn distributed_partition_runs_collectively_and_matches_metrics() {
    let el = crawl_graph(1 << 12);
    let out = Runtime::new(4).execute(|ctx| {
        let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, el.num_vertices, &el.edges);
        let params = PartitionParams {
            num_parts: 16,
            seed: 3,
            ..Default::default()
        };
        let result = xtrapulp_suite::core::try_xtrapulp_partition(ctx, &g, &params).unwrap();
        // Every rank must agree on the global quality numbers.
        (result.quality.edge_cut, result.quality.vertex_imbalance)
    });
    assert!(out.windows(2).all(|w| w[0].0 == w[1].0));
    assert!(out[0].1 < 1.5, "vertex imbalance {}", out[0].1);
}

#[test]
fn partition_improves_spmv_communication_over_random() {
    let el = crawl_graph(1 << 12);
    let csr = el.to_csr();
    let n = el.num_vertices;
    let edges: Vec<(u64, u64)> = csr.edges().collect();
    let nranks = 4;
    let params = PartitionParams::with_parts(nranks);
    let xtrapulp = one_shot(nranks, &csr, &params);
    let random = baselines::random_partition(n, nranks, 3);
    let comm = |parts: &Vec<i32>| {
        Runtime::new(nranks).execute(|ctx| {
            spmv_1d_with_partition(ctx, n, &edges, parts, 5)
                .expect("in-process ranks agree on the halo")
                .comm_bytes
        })[0]
    };
    assert!(comm(&xtrapulp) < comm(&random));
}

#[test]
fn spmv_2d_agrees_with_1d_under_a_partitioned_layout() {
    let el = crawl_graph(1 << 11);
    let csr = el.to_csr();
    let n = el.num_vertices;
    let edges: Vec<(u64, u64)> = csr.edges().collect();
    let nranks = 4;
    let params = PartitionParams::with_parts(nranks);
    let parts = one_shot(nranks, &csr, &params);
    let out = Runtime::new(nranks).execute(|ctx| {
        let r1 = spmv_1d_with_partition(ctx, n, &edges, &parts, 3)
            .expect("in-process ranks agree on the halo");
        let m = Matrix2d::build(ctx, n, &edges, &parts);
        let r2 = spmv_2d(ctx, &m, 3);
        (r1.checksum, r2.checksum)
    });
    for (a, b) in out {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn analytics_suite_runs_on_a_partitioned_graph() {
    let el = crawl_graph(1 << 11);
    let csr = el.to_csr();
    let nranks = 3;
    let params = PartitionParams::with_parts(nranks);
    let parts = one_shot(nranks, &csr, &params);
    let result = xtrapulp_suite::analytics::run_suite_with_partition(
        nranks,
        el.num_vertices,
        &el.edges,
        &parts,
        "XtraPuLP",
        0.0,
        4,
    );
    assert_eq!(result.analytics.len(), 6);
    let names: Vec<&str> = result.analytics.iter().map(|a| a.name).collect();
    assert_eq!(names, vec!["HC", "KC", "LP", "PR", "SCC", "WCC"]);
}

#[test]
fn quality_metrics_agree_between_serial_and_distributed_evaluation() {
    let el = crawl_graph(1 << 11);
    let csr = el.to_csr();
    let params = PartitionParams::with_parts(8);
    let parts = try_pulp_partition(&csr, &params).unwrap();
    let serial = PartitionQuality::evaluate(&csr, &parts, 8);
    let out = Runtime::new(3).execute(|ctx| {
        let g = DistGraph::from_shared_edges(ctx, Distribution::Block, el.num_vertices, &el.edges);
        let local: Vec<i32> = (0..g.n_total() as u32)
            .map(|v| parts[g.global_id(v) as usize])
            .collect();
        PartitionQuality::evaluate_dist(ctx, &g, &local, 8)
    });
    for q in out {
        assert_eq!(q.edge_cut, serial.edge_cut);
        assert!((q.edge_imbalance - serial.edge_imbalance).abs() < 1e-9);
    }
}
