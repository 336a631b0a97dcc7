//! End-to-end tests of the dynamic-graph subsystem through the public facade:
//! apply → repartition → report, warm-vs-cold parity, and determinism.

use xtrapulp_api::{DynamicSession, Method, PartitionJob, Session, UpdateBatch};
use xtrapulp_gen::updates::{generate_stream, StreamKind, UpdateStreamConfig};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_suite::core::sweep::refine_budget;
use xtrapulp_suite::core::{try_pulp_run, try_xtrapulp_partition};
use xtrapulp_suite::prelude::*;

fn social_base(n: u64) -> xtrapulp_gen::EdgeList {
    GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: n,
            edges_per_vertex: 8,
        },
        77,
    )
    .generate()
}

/// A graph class on which the cold partitioner converges *within* the configured
/// tolerance, so warm starts exercise the refine-only fast path (on heavily skewed
/// graphs the cold run itself often cannot meet the constraint, and warm runs fall back
/// to the full schedule — correct, but not the regime these tests assert).
fn mesh_base() -> xtrapulp_gen::EdgeList {
    GraphConfig::new(
        GraphKind::Grid2d {
            width: 64,
            height: 64,
            diagonal: false,
        },
        77,
    )
    .generate()
}

fn job(parts: usize) -> PartitionJob {
    PartitionJob::new(Method::XtraPulp).with_params(PartitionParams {
        num_parts: parts,
        seed: 29,
        ..Default::default()
    })
}

/// The acceptance parity check: a warm start from a trivial (empty-delta) update must
/// reproduce the from-scratch cut-quality envelope.
#[test]
fn warm_start_from_empty_delta_matches_cold_quality_envelope() {
    let base = mesh_base();
    let mut dynamic = DynamicSession::spawn(4, base.to_csr(), job(8)).unwrap();
    let cold = dynamic.repartition().unwrap();

    // Empty update batch: the graph is unchanged.
    let summary = dynamic.apply_updates(&UpdateBatch::new()).unwrap();
    assert_eq!(summary.edges_inserted + summary.edges_deleted, 0);
    let warm = dynamic.repartition().unwrap();

    assert!(warm.warm_start);
    assert!(warm.lp_sweeps < cold.lp_sweeps);
    assert!(
        warm.report.quality.edge_cut as f64 <= cold.report.quality.edge_cut as f64 * 1.05,
        "warm cut {} must stay within 5% of cold cut {}",
        warm.report.quality.edge_cut,
        cold.report.quality.edge_cut
    );
    let tolerance = 1.0 + dynamic.job().params.vertex_imbalance;
    assert!(
        warm.report.quality.vertex_imbalance <= tolerance.max(cold.report.quality.vertex_imbalance),
        "warm imbalance {} must respect the tolerance (cold was {})",
        warm.report.quality.vertex_imbalance,
        cold.report.quality.vertex_imbalance
    );
}

/// A ≤1% churn batch repartitions warm measurably faster than from scratch while keeping
/// quality — the bench acceptance criterion, asserted at test scale.
#[test]
fn small_churn_batches_keep_quality_under_warm_start() {
    let base = mesh_base();
    let m = base.to_csr().num_edges();
    let stream = generate_stream(
        &base,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: ((m as f64 * 0.01) as usize).max(2),
                delete_fraction: 0.5,
            },
            num_batches: 3,
            seed: 5,
        },
    );
    let mut dynamic = DynamicSession::spawn(4, base.to_csr(), job(8)).unwrap();
    let cold = dynamic.repartition().unwrap();
    let mut cold_session = Session::new(4).unwrap();

    for i in 0..stream.batches.len() {
        let batch = UpdateBatch::from_ops(stream.batch_ops(i));
        dynamic.apply_updates(&batch).unwrap();
        let warm = dynamic.repartition().unwrap();
        assert!(warm.warm_start);
        assert!(
            warm.lp_sweeps < cold.lp_sweeps,
            "epoch {}: warm {} sweeps vs cold {}",
            warm.epoch,
            warm.lp_sweeps,
            cold.lp_sweeps
        );

        // Compare against a from-scratch run on the identical mutated graph.
        let mutated = dynamic.csr();
        let scratch = cold_session.submit(dynamic.job(), &mutated).unwrap();
        assert!(
            warm.report.quality.edge_cut as f64 <= scratch.quality.edge_cut as f64 * 1.05,
            "epoch {}: warm cut {} vs scratch cut {}",
            warm.epoch,
            warm.report.quality.edge_cut,
            scratch.quality.edge_cut
        );
        let tolerance = 1.0 + dynamic.job().params.vertex_imbalance;
        assert!(
            warm.report.quality.vertex_imbalance
                <= tolerance.max(scratch.quality.vertex_imbalance) * 1.02,
            "epoch {}: warm imbalance {}",
            warm.epoch,
            warm.report.quality.vertex_imbalance
        );
        // Small churn must not relabel the whole graph.
        assert!(
            warm.vertices_migrated < dynamic.graph().num_vertices() as u64 / 4,
            "epoch {}: {} migrated",
            warm.epoch,
            warm.vertices_migrated
        );
    }
}

/// A warm epoch costs what its delta costs: over a 16-epoch chain of 0.5% churn on a
/// skewed graph, every epoch is a refine-only run that converges well inside its sweep
/// budget and scores a small multiple of the vertices the batch touched, both balance
/// targets hold throughout, and the cut has not drifted from what a cold run finds.
#[test]
fn warm_epochs_cost_what_their_deltas_touch() {
    let base = social_base(1 << 12);
    let m = base.to_csr().num_edges();
    let stream = generate_stream(
        &base,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: (m as f64 * 0.005) as usize,
                delete_fraction: 0.5,
            },
            num_batches: 16,
            seed: 11,
        },
    );
    for nranks in [1, 2, 4] {
        // Sixteen parts: the cold run meets both targets on all three rank counts, so
        // no epoch is locked out of the refine-only path from the start.
        let mut dynamic = DynamicSession::spawn(nranks, base.to_csr(), job(16)).unwrap();
        dynamic.repartition().unwrap();
        let params = dynamic.job().params;
        // What a refine-only run may spend before it is cut off unconverged.
        let sweep_cap = params.outer_iters as u64 * refine_budget(params.refine_iters);
        let mut warm = None;
        for i in 0..stream.batches.len() {
            let batch = UpdateBatch::from_ops(stream.batch_ops(i));
            let touched = dynamic.apply_updates(&batch).unwrap().vertices_touched;
            let report = dynamic.repartition().unwrap();
            let what = format!("{nranks} ranks, epoch {}", report.epoch);
            assert!(report.warm_start, "{what}");
            assert_eq!(
                report.stages.balance_sweeps + report.stages.churn_sweeps,
                0,
                "{what}"
            );
            assert!(
                report.lp_sweeps < sweep_cap,
                "{what}: {} sweeps",
                report.lp_sweeps
            );
            assert!(
                report.vertices_scored <= 4 * touched,
                "{what}: scored {} for {touched} touched",
                report.vertices_scored
            );
            let quality = report.report.quality;
            // The slack within which a warm seed counts as balanced.
            assert!(
                quality.vertex_imbalance <= (1.0 + params.vertex_imbalance) * 1.02,
                "{what}"
            );
            assert!(
                quality.edge_imbalance <= (1.0 + params.edge_imbalance) * 1.02,
                "{what}"
            );
            warm = Some(quality);
        }
        let mutated = dynamic.csr();
        let cold = Session::new(nranks)
            .unwrap()
            .submit(dynamic.job(), &mutated)
            .unwrap();
        let warm = warm.expect("sixteen epochs ran");
        assert!(
            warm.edge_cut as f64 <= cold.quality.edge_cut as f64 * 1.05,
            "{nranks} ranks: warm cut {} vs cold cut {}",
            warm.edge_cut,
            cold.quality.edge_cut
        );
    }
}

/// The whole pipeline — stream generation, batch application, warm repartitioning — is
/// deterministic for a fixed seed and rank count.
#[test]
fn dynamic_pipeline_is_deterministic() {
    let run = || {
        let base = social_base(1 << 11);
        let stream = generate_stream(
            &base,
            &UpdateStreamConfig {
                kind: StreamKind::PreferentialGrowth {
                    vertices_per_batch: 16,
                    edges_per_vertex: 6,
                },
                num_batches: 2,
                seed: 3,
            },
        );
        let mut dynamic = DynamicSession::spawn(3, base.to_csr(), job(4)).unwrap();
        dynamic.repartition().unwrap();
        let mut parts_per_epoch = Vec::new();
        for i in 0..stream.batches.len() {
            dynamic
                .apply_updates(&UpdateBatch::from_ops(stream.batch_ops(i)))
                .unwrap();
            parts_per_epoch.push(dynamic.repartition().unwrap().report.parts);
        }
        parts_per_epoch
    };
    assert_eq!(run(), run());
}

/// Growth batches route new vertices into real parts and keep the distributed per-rank
/// graphs consistent with the authoritative CSR across epochs.
#[test]
fn growth_stream_keeps_graph_and_partition_consistent() {
    let base = social_base(1 << 11);
    let stream = generate_stream(
        &base,
        &UpdateStreamConfig {
            kind: StreamKind::PreferentialGrowth {
                vertices_per_batch: 32,
                edges_per_vertex: 6,
            },
            num_batches: 3,
            seed: 17,
        },
    );
    let mut dynamic = DynamicSession::spawn(3, base.to_csr(), job(4)).unwrap();
    dynamic.repartition().unwrap();
    let mut expected_n = base.num_vertices;
    for i in 0..stream.batches.len() {
        let summary = dynamic
            .apply_updates(&UpdateBatch::from_ops(stream.batch_ops(i)))
            .unwrap();
        expected_n += summary.vertices_added;
        let report = dynamic.repartition().unwrap();
        assert_eq!(dynamic.graph().num_vertices() as u64, expected_n);
        assert_eq!(report.report.parts.len() as u64, expected_n);
        assert!(report.report.parts.iter().all(|&p| (0..4).contains(&p)));
        assert_eq!(report.epoch, (i + 1) as u64);
    }
}

/// Every method runs the same dynamic loop through the facade, and its cold epoch is
/// the job `Session::submit` runs: two callers, one path, down to the work counters the
/// kernels report when called directly.
#[test]
fn serial_methods_serve_the_dynamic_loop() {
    let nranks = 2;
    for method in Method::all() {
        let base = social_base(1 << 10);
        let csr = base.to_csr();
        let dyn_job = PartitionJob::new(method).with_params(PartitionParams {
            num_parts: 4,
            seed: 9,
            ..Default::default()
        });
        let mut dynamic = DynamicSession::spawn(nranks, csr.clone(), dyn_job.clone()).unwrap();
        let cold = dynamic.repartition().unwrap();
        let submitted = Session::new(nranks)
            .unwrap()
            .submit(&dyn_job, &csr)
            .unwrap();
        assert_eq!(cold.report.parts, submitted.parts, "{method}");
        assert_eq!(cold.report.quality, submitted.quality, "{method}");
        let kernel_work = match method {
            Method::XtraPulp => Runtime::new(nranks).execute(|ctx| {
                let graph = DistGraph::from_csr(ctx, Distribution::Block, &csr);
                let run = try_xtrapulp_partition(ctx, &graph, &dyn_job.params).unwrap();
                (run.lp_sweeps, run.vertices_scored)
            })[0],
            Method::Pulp => {
                let stats = try_pulp_run(&csr, &dyn_job.params, None).unwrap().stats;
                (stats.sweeps, stats.vertices_scored)
            }
            _ => (0, 0),
        };
        assert_eq!(
            (cold.lp_sweeps, cold.vertices_scored),
            kernel_work,
            "{method}"
        );

        let n = base.num_vertices;
        let mut batch = UpdateBatch::new();
        batch.add_vertices(1).insert_edge(n, 0).insert_edge(n, 1);
        dynamic.apply_updates(&batch).unwrap();
        let warm = dynamic.repartition().unwrap();
        assert_eq!(warm.warm_start, method.supports_warm_start(), "{method}");
        assert_eq!(warm.report.parts.len() as u64, n + 1, "{method}");
    }
}
