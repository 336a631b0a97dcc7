//! End-to-end tests of the frontier-driven sweep engine across the workspace: quality
//! against a recorded full-sweep baseline on the generator presets, delta-scoped warm
//! starts, the empty-frontier early exit on already-converged seeds, and an ignored
//! table of the work a cold job does at 1, 2 and 4 ranks.

use xtrapulp::metrics::{is_valid_partition, PartitionQuality};
use xtrapulp::{run_xtrapulp_job, try_pulp_run, GraphSource, PartitionParams};
use xtrapulp_api::{DynamicSession, Method, PartitionJob, UpdateBatch};
use xtrapulp_comm::Runtime;
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{Csr, Distribution};

fn preset(kind: GraphKind, seed: u64) -> Csr {
    GraphConfig::new(kind, seed).generate().to_csr()
}

/// One cold run's edge cut, vertex imbalance and vertices scored.
type Quality = (u64, f64, u64);

/// One cold run of XtraPuLP on `nranks` ranks, or of serial PuLP for `0`: its part
/// vector and quality.
fn cold_quality(csr: &Csr, nranks: usize, params: &PartitionParams) -> (Vec<i32>, Quality) {
    if nranks == 0 {
        let run = try_pulp_run(csr, params, None).unwrap();
        let q = PartitionQuality::evaluate(csr, &run.parts, params.num_parts);
        let quality = (q.edge_cut, q.vertex_imbalance, run.stats.vertices_scored);
        return (run.parts, quality);
    }
    let source = GraphSource::Csr(csr, &Distribution::Block);
    let job = run_xtrapulp_job(&mut Runtime::new(nranks), source, params, None, None).unwrap();
    let quality = (
        job.quality.edge_cut,
        job.quality.vertex_imbalance,
        job.vertices_scored,
    );
    (job.parts, quality)
}

/// Frontier sweeps against the full-sweep baseline in [`FULL_SWEEPS`]. Label
/// propagation is a randomised heuristic whose per-seed cuts are multi-modal on
/// community-structured graphs (full sweeps themselves swing by 2-3x across seeds on the
/// webcrawl preset), so the distributed cut is compared in geometric mean over each
/// graph's seeds: no more than 2% worse in aggregate. Serial runs on the small grid are
/// stable enough to hold per run: at most 1% (plus one edge) worse. Every run must
/// return a valid partition, meet the imbalance full sweeps reached or the target, and
/// score fewer vertices than they did.
#[test]
fn frontier_matches_full_sweep_quality_on_gen_presets() {
    let graphs = [
        (
            "webcrawl",
            GraphKind::WebCrawl {
                num_vertices: 4096,
                avg_degree: 12,
                community_size: 256,
            },
        ),
        (
            "grid2d",
            GraphKind::Grid2d {
                width: 64,
                height: 64,
                diagonal: false,
            },
        ),
        (
            "ba",
            GraphKind::BarabasiAlbert {
                num_vertices: 4096,
                edges_per_vertex: 8,
            },
        ),
        (
            "grid24",
            GraphKind::Grid2d {
                width: 24,
                height: 24,
                diagonal: false,
            },
        ),
    ];
    for (name, kind) in graphs {
        let csr = preset(kind, 7);
        let rows: Vec<_> = FULL_SWEEPS.iter().filter(|row| row.0 == name).collect();
        let mut log_ratio_sum = 0.0f64;
        for &&(_, nranks, seed, (full_cut, full_imbalance, full_scored)) in &rows {
            let params = PartitionParams {
                num_parts: if nranks == 0 { 4 } else { 8 },
                seed,
                ..Default::default()
            };
            let (parts, (cut, imbalance, scored)) = cold_quality(&csr, nranks, &params);
            assert!(
                is_valid_partition(&parts, params.num_parts),
                "{name}/{seed}"
            );
            log_ratio_sum += (cut.max(1) as f64 / full_cut.max(1) as f64).ln();
            let target = if nranks == 0 {
                assert!(
                    cut as f64 <= full_cut as f64 * 1.01 + 1.0,
                    "{name}/{seed}: frontier cut {cut} vs full cut {full_cut}"
                );
                // Serial rounding slack: one point over the target.
                1.0 + params.vertex_imbalance + 0.01
            } else {
                // Same slack the final-rebalance gate uses: within 2% of the fractional
                // target is rounding, not imbalance.
                (1.0 + params.vertex_imbalance) * 1.02
            };
            assert!(
                imbalance <= full_imbalance.max(target),
                "{name}/{seed}: frontier imbalance {imbalance} vs full {full_imbalance}"
            );
            assert!(
                scored < full_scored,
                "{name}/{seed}: frontier scored {scored}, full sweeps {full_scored}"
            );
        }
        let geomean_ratio = (log_ratio_sum / rows.len() as f64).exp();
        assert!(
            geomean_ratio <= 1.02,
            "{name}: geomean frontier/full cut ratio {geomean_ratio:.3} exceeds 1.02"
        );
    }
}

/// What the legacy full-sweep mode produced on the graphs of
/// [`frontier_matches_full_sweep_quality_on_gen_presets`] before it left the library,
/// per `(graph, ranks, seed)`: `(edge cut, vertex imbalance, vertices scored)`. `0`
/// ranks is serial PuLP into 4 parts, otherwise XtraPuLP into 8.
const FULL_SWEEPS: &[(&str, usize, u64, Quality)] = &[
    ("webcrawl", 2, 5, (6320, 1.0859375, 368640)),
    ("webcrawl", 2, 13, (7797, 1.1015625, 368640)),
    ("webcrawl", 2, 29, (9339, 1.103515625, 368640)),
    ("webcrawl", 2, 43, (6373, 1.099609375, 368640)),
    ("webcrawl", 2, 77, (8315, 1.09765625, 368640)),
    ("webcrawl", 2, 91, (7442, 1.1015625, 368640)),
    ("grid2d", 2, 5, (1485, 1.095703125, 368640)),
    ("grid2d", 2, 13, (1509, 1.080078125, 368640)),
    ("grid2d", 2, 29, (1599, 1.099609375, 368640)),
    ("grid2d", 2, 43, (1697, 1.09375, 368640)),
    ("grid2d", 2, 77, (1571, 1.078125, 368640)),
    ("grid2d", 2, 91, (1667, 1.08984375, 368640)),
    ("ba", 2, 5, (21803, 1.109375, 368640)),
    ("ba", 2, 13, (22185, 1.11328125, 368640)),
    ("ba", 2, 29, (21592, 1.10546875, 368640)),
    ("ba", 2, 43, (22310, 1.11328125, 368640)),
    ("ba", 2, 77, (22461, 1.115234375, 368640)),
    ("ba", 2, 91, (21888, 1.107421875, 368640)),
    ("grid24", 0, 5, (186, 1.0486111111111112, 35712)),
    ("grid24", 0, 17, (240, 1.0972222222222223, 32832)),
];

/// A warm start over an *empty* delta converges immediately: the touched set is empty,
/// so the frontier never fills, no sweeps run, and the partition is returned verbatim.
#[test]
fn converged_warm_start_exits_on_empty_frontier() {
    let csr = preset(
        GraphKind::Grid2d {
            width: 40,
            height: 40,
            diagonal: false,
        },
        5,
    );
    let job = PartitionJob::new(Method::XtraPulp).with_parts(4);
    let mut session = DynamicSession::spawn(2, csr, job).expect("valid job");
    let cold = session.repartition().expect("cold run");
    // Apply an empty batch: epoch advances, nothing touched.
    session
        .apply_updates(&UpdateBatch::new())
        .expect("empty batch is valid");
    let warm = session.repartition().expect("warm run");
    assert!(warm.warm_start);
    assert_eq!(
        warm.report.parts, cold.report.parts,
        "an empty delta must not move anything"
    );
    assert_eq!(warm.lp_sweeps, 0, "empty frontier: no sweeps at all");
    assert_eq!(warm.vertices_scored, 0);
    assert_eq!(warm.vertices_migrated, 0);
}

/// A small delta scopes the warm run to its neighbourhood: far fewer scored vertices
/// than the cold reference, with quality intact.
#[test]
fn touched_warm_start_scores_a_fraction_of_cold() {
    let csr = preset(
        GraphKind::BarabasiAlbert {
            num_vertices: 4096,
            edges_per_vertex: 6,
        },
        9,
    );
    let job = PartitionJob::new(Method::XtraPulp).with_parts(8);
    let mut session = DynamicSession::spawn(2, csr, job).expect("valid job");
    let cold = session.repartition().expect("cold run");
    assert!(cold.vertices_scored > 0);

    let mut batch = UpdateBatch::new();
    batch.add_vertices(2);
    batch
        .insert_edge(4096, 10)
        .insert_edge(4096, 11)
        .insert_edge(4097, 4096);
    session.apply_updates(&batch).expect("valid batch");
    let warm = session.repartition().expect("warm run");
    assert!(warm.warm_start);
    assert!(
        warm.vertices_scored * 5 <= warm.cold_vertices_scored,
        "touched warm run scored {} vertices, cold reference {}",
        warm.vertices_scored,
        warm.cold_vertices_scored
    );
    assert!(warm.report.quality.vertex_imbalance <= 1.13);
    assert!(is_valid_partition(&warm.report.parts, 8));
}

/// The work one cold XtraPuLP job does at 1, 2 and 4 in-process ranks on `cold_rmat`'s
/// four inputs (R-MAT scale 15, edge factor 16, seed `42·1000 + g`, 16 parts, `Block`):
/// sweeps, vertices scored and their split by stage, the transport traffic, and the
/// partition's quality. Nothing is asserted; it is the table a change to the stage
/// schedule reads to see whether more ranks still mean more work. Run with
/// `cargo test --release --test sweep_engine -- --ignored --nocapture print_work_parity_table`.
#[test]
#[ignore]
fn print_work_parity_table() {
    println!(
        "g ranks sweeps scored | refine sw/scored | balance sw/scored | churn sw/scored \
         | frames wire_bytes | cut_ratio v_imb e_imb"
    );
    for g in 0..4u64 {
        let seed = 42 * 1000 + g;
        let kind = GraphKind::Rmat {
            scale: 15,
            edge_factor: 16,
        };
        let csr = preset(kind, seed);
        let params = PartitionParams {
            num_parts: 16,
            seed,
            ..Default::default()
        };
        for nranks in [1, 2, 4] {
            let source = GraphSource::Csr(&csr, &Distribution::Block);
            let job =
                run_xtrapulp_job(&mut Runtime::new(nranks), source, &params, None, None).unwrap();
            let (s, q) = (job.stages, job.quality);
            println!(
                "{g} {nranks} {} {} | {} {} | {} {} | {} {} | {} {} | {:.5} {:.4} {:.4}",
                job.lp_sweeps,
                job.vertices_scored,
                s.refine_sweeps,
                s.refine_scored,
                s.balance_sweeps,
                s.balance_scored,
                s.churn_sweeps,
                s.churn_scored,
                job.comm.frames_sent,
                job.comm.wire_bytes_sent,
                q.edge_cut_ratio,
                q.vertex_imbalance,
                q.edge_imbalance,
            );
        }
    }
}
