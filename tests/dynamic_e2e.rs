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

/// FNV-1a over a part vector's little-endian bytes.
fn fnv1a(parts: &[i32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parts {
        for b in p.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one epoch of a [`DYNAMIC_TABLE`] chain is pinned on: the partition's FNV-1a,
/// `lp_sweeps`, `vertices_scored`, `vertices_migrated` and the edge cut.
type DynamicRow = [u64; 5];

/// What one epoch moves over the wire, summed over the ranks: the repartition's frames
/// and wire bytes, then the frames and wire bytes of applying the epoch's delta to the
/// ranks' `DistGraph`s (replayed beside the session, on a runtime of the same size).
type DynamicCommRow = [u64; 4];

const DYNAMIC_RANKS: [usize; 3] = [1, 2, 3];

/// The two graphs every chain runs on: a preferential-attachment graph and a grid.
fn dynamic_graphs() -> [(&'static str, xtrapulp_gen::EdgeList); 2] {
    let grid = GraphConfig::new(
        GraphKind::Grid2d {
            width: 32,
            height: 32,
            diagonal: false,
        },
        77,
    );
    [("ba", social_base(1 << 10)), ("grid", grid.generate())]
}

/// The epochs after the cold one: four ~0.5% churn batches of a seeded stream, a growth
/// batch of eight vertices (each tied to three old vertices and its predecessor) after
/// the second and an empty batch after the third.
fn dynamic_batches(base: &xtrapulp_gen::EdgeList) -> Vec<UpdateBatch> {
    let m = base.to_csr().num_edges();
    let stream = generate_stream(
        base,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: ((m as f64 * 0.005) as usize).max(2),
                delete_fraction: 0.5,
            },
            num_batches: 4,
            seed: 13,
        },
    );
    let mut churn = (0..4).map(|i| UpdateBatch::from_ops(stream.batch_ops(i)));
    let n = base.num_vertices;
    let mut growth = UpdateBatch::new();
    growth.add_vertices(8);
    for i in 0..8 {
        let v = n + i;
        for old in [i * 37 % n, (i * 101 + 5) % n, (i * 211 + 17) % n] {
            growth.insert_edge(v, old);
        }
        if i > 0 {
            growth.insert_edge(v, v - 1);
        }
    }
    let mut batches: Vec<UpdateBatch> = churn.by_ref().take(2).collect();
    batches.push(growth);
    batches.extend(churn.next());
    batches.push(UpdateBatch::new());
    batches.extend(churn);
    batches
}

/// Run one chain: the cold epoch, then every batch of [`dynamic_batches`], each applied
/// and repartitioned warm. Returns one row per epoch for each table.
fn dynamic_chain(
    base: &xtrapulp_gen::EdgeList,
    nranks: usize,
    dist: &Distribution,
) -> (Vec<DynamicRow>, Vec<DynamicCommRow>) {
    let csr = base.to_csr();
    let session = Session::with_distribution(nranks, dist.clone()).unwrap();
    let mut dynamic = DynamicSession::new(session, csr.clone(), job(8)).unwrap();
    let mut replay = Runtime::new(nranks);
    let mut graphs = replay.execute(|ctx| DistGraph::from_csr(ctx, dist.clone(), &csr));
    let row = |report: &DynamicReport| {
        [
            fnv1a(&report.report.parts),
            report.lp_sweeps,
            report.vertices_scored,
            report.vertices_migrated,
            report.report.quality.edge_cut,
        ]
    };
    let cold = dynamic.repartition().unwrap();
    let mut rows = vec![row(&cold)];
    let mut comm = vec![[
        cold.report.comm.frames_sent,
        cold.report.comm.wire_bytes_sent,
        0,
        0,
    ]];
    for batch in dynamic_batches(base) {
        let (_, delta) = dynamic.apply_updates_with_delta(&batch).unwrap();
        let applied = replay.execute(|ctx| {
            let graph = graphs.iter().find(|g| g.rank() == ctx.rank()).unwrap();
            let updated = graph.apply_delta(ctx, &delta);
            let stats = ctx.stats().snapshot();
            (updated, [stats.frames_sent, stats.wire_bytes_sent])
        });
        let (updated, apply_comm): (Vec<_>, Vec<_>) = applied.into_iter().unzip();
        graphs = updated;
        let report = dynamic.repartition().unwrap();
        assert!(report.warm_start);
        rows.push(row(&report));
        comm.push([
            report.report.comm.frames_sent,
            report.report.comm.wire_bytes_sent,
            apply_comm.iter().map(|c| c[0]).sum(),
            apply_comm.iter().map(|c| c[1]).sum(),
        ]);
    }
    (rows, comm)
}

/// Every chain of [`DYNAMIC_TABLE`], in table order: `(label, rows, comm rows)`.
fn dynamic_table() -> Vec<(String, Vec<DynamicRow>, Vec<DynamicCommRow>)> {
    let mut chains = Vec::new();
    for (name, base) in dynamic_graphs() {
        for nranks in DYNAMIC_RANKS {
            for (dist_name, dist) in [
                ("block", Distribution::Block),
                ("cyclic", Distribution::Cyclic),
                ("hashed", Distribution::Hashed),
            ] {
                let (rows, comm) = dynamic_chain(&base, nranks, &dist);
                chains.push((format!("{name}/r{nranks}/{dist_name}"), rows, comm));
            }
        }
    }
    chains
}

/// Regenerate [`DYNAMIC_TABLE`] and [`DYNAMIC_COMM_TABLE`]:
/// `cargo test --release --test dynamic_e2e -- --ignored --nocapture print_dynamic_table`
#[test]
#[ignore]
fn print_dynamic_table() {
    let mut comm_table = String::new();
    println!("#[rustfmt::skip]\nconst DYNAMIC_TABLE: &[(&str, DynamicRow)] = &[");
    for (label, rows, comm) in dynamic_table() {
        for (epoch, (row, comm)) in rows.iter().zip(&comm).enumerate() {
            println!("    (\"{label}/e{epoch}\", {row:?}),");
            comm_table += &format!("    (\"{label}/e{epoch}\", {comm:?}),\n");
        }
    }
    println!("];");
    println!(
        "#[rustfmt::skip]\nconst DYNAMIC_COMM_TABLE: &[(&str, DynamicCommRow)] = &[\n{comm_table}];"
    );
}

/// `DynamicSession` chains on two graphs × 1/2/3 ranks × `Block` / `Cyclic` / `Hashed`,
/// epoch by epoch, equal the committed tables: the partition and its work counters in
/// [`DYNAMIC_TABLE`], which a behaviour-preserving change to the graph, the exchange or
/// the session must leave alone, and the wire traffic in [`DYNAMIC_COMM_TABLE`], which
/// such a change may only move down.
#[test]
fn dynamic_chains_match_the_pinned_tables() {
    let mut pinned = DYNAMIC_TABLE.iter();
    let mut pinned_comm = DYNAMIC_COMM_TABLE.iter();
    for (label, rows, comm) in dynamic_table() {
        for (epoch, (row, comm)) in rows.iter().zip(&comm).enumerate() {
            let key = format!("{label}/e{epoch}");
            let (pinned_key, pinned_row) = pinned.next().expect("one row per epoch");
            assert_eq!(*pinned_key, key);
            assert_eq!(row, pinned_row, "{key} moved");
            let (comm_key, pinned_comm_row) = pinned_comm.next().expect("one comm row per epoch");
            assert_eq!(*comm_key, key);
            assert_eq!(comm, pinned_comm_row, "{key}: comm moved");
        }
    }
    assert!(pinned.next().is_none() && pinned_comm.next().is_none());
}

#[rustfmt::skip]
const DYNAMIC_TABLE: &[(&str, DynamicRow)] = &[
    ("ba/r1/block/e0", [3548060239864686144, 72, 34473, 0, 5430]),
    ("ba/r1/block/e1", [7769687485563759296, 3, 95, 2, 5426]),
    ("ba/r1/block/e2", [13154782882111161670, 2, 95, 2, 5431]),
    ("ba/r1/block/e3", [15503073782199694356, 1, 31, 0, 5449]),
    ("ba/r1/block/e4", [335976324770051604, 3, 179, 6, 5444]),
    ("ba/r1/block/e5", [335976324770051604, 0, 0, 0, 5444]),
    ("ba/r1/block/e6", [5857230124072705607, 2, 92, 2, 5447]),
    ("ba/r1/cyclic/e0", [3548060239864686144, 72, 34473, 0, 5430]),
    ("ba/r1/cyclic/e1", [7769687485563759296, 3, 95, 2, 5426]),
    ("ba/r1/cyclic/e2", [13154782882111161670, 2, 95, 2, 5431]),
    ("ba/r1/cyclic/e3", [15503073782199694356, 1, 31, 0, 5449]),
    ("ba/r1/cyclic/e4", [335976324770051604, 3, 179, 6, 5444]),
    ("ba/r1/cyclic/e5", [335976324770051604, 0, 0, 0, 5444]),
    ("ba/r1/cyclic/e6", [5857230124072705607, 2, 92, 2, 5447]),
    ("ba/r1/hashed/e0", [3548060239864686144, 72, 34473, 0, 5430]),
    ("ba/r1/hashed/e1", [7769687485563759296, 3, 95, 2, 5426]),
    ("ba/r1/hashed/e2", [13154782882111161670, 2, 95, 2, 5431]),
    ("ba/r1/hashed/e3", [15503073782199694356, 1, 31, 0, 5449]),
    ("ba/r1/hashed/e4", [335976324770051604, 3, 179, 6, 5444]),
    ("ba/r1/hashed/e5", [335976324770051604, 0, 0, 0, 5444]),
    ("ba/r1/hashed/e6", [5857230124072705607, 2, 92, 2, 5447]),
    ("ba/r2/block/e0", [15737601544944606835, 95, 38522, 0, 5387]),
    ("ba/r2/block/e1", [12906143768564900162, 2, 96, 2, 5385]),
    ("ba/r2/block/e2", [12097441315957822771, 2, 107, 3, 5392]),
    ("ba/r2/block/e3", [7660009289942861488, 1, 31, 0, 5410]),
    ("ba/r2/block/e4", [7660009289942861488, 1, 71, 0, 5413]),
    ("ba/r2/block/e5", [7660009289942861488, 0, 0, 0, 5413]),
    ("ba/r2/block/e6", [4942161551416332819, 2, 88, 1, 5418]),
    ("ba/r2/cyclic/e0", [12328050864603681027, 85, 38760, 0, 5374]),
    ("ba/r2/cyclic/e1", [10722097502566691824, 2, 97, 2, 5370]),
    ("ba/r2/cyclic/e2", [10722097502566691824, 1, 74, 0, 5381]),
    ("ba/r2/cyclic/e3", [7639673512655526423, 2, 37, 0, 5399]),
    ("ba/r2/cyclic/e4", [7639673512655526423, 1, 71, 0, 5399]),
    ("ba/r2/cyclic/e5", [7639673512655526423, 0, 0, 0, 5399]),
    ("ba/r2/cyclic/e6", [4815713436484630835, 7, 192, 9, 5389]),
    ("ba/r2/hashed/e0", [9955958879808176437, 94, 40510, 0, 5516]),
    ("ba/r2/hashed/e1", [11968836220492714678, 4, 156, 4, 5510]),
    ("ba/r2/hashed/e2", [3687630960508907008, 2, 114, 4, 5516]),
    ("ba/r2/hashed/e3", [7049911419922083622, 97, 42261, 882, 5415]),
    ("ba/r2/hashed/e4", [16338647954458611461, 3, 118, 5, 5412]),
    ("ba/r2/hashed/e5", [16338647954458611461, 0, 0, 0, 5412]),
    ("ba/r2/hashed/e6", [1487643059644666647, 5, 246, 12, 5405]),
    ("ba/r3/block/e0", [3944621117580952117, 77, 36563, 0, 5346]),
    ("ba/r3/block/e1", [13516909349900841237, 2, 92, 2, 5349]),
    ("ba/r3/block/e2", [7036418691159351047, 2, 99, 2, 5358]),
    ("ba/r3/block/e3", [5023630433828740066, 2, 37, 0, 5374]),
    ("ba/r3/block/e4", [3190303951057366675, 6, 171, 8, 5370]),
    ("ba/r3/block/e5", [3190303951057366675, 0, 0, 0, 5370]),
    ("ba/r3/block/e6", [3190303951057366675, 1, 75, 0, 5376]),
    ("ba/r3/cyclic/e0", [5377155491861676451, 96, 44446, 0, 5481]),
    ("ba/r3/cyclic/e1", [15713356640389337830, 3, 172, 9, 5472]),
    ("ba/r3/cyclic/e2", [10045557030466479808, 2, 91, 2, 5483]),
    ("ba/r3/cyclic/e3", [2456520111656615315, 87, 42097, 898, 5407]),
    ("ba/r3/cyclic/e4", [10953914900733683908, 2, 83, 1, 5409]),
    ("ba/r3/cyclic/e5", [10953914900733683908, 0, 0, 0, 5409]),
    ("ba/r3/cyclic/e6", [10953914900733683908, 1, 75, 0, 5409]),
    ("ba/r3/hashed/e0", [1685168914007574401, 96, 42061, 0, 5476]),
    ("ba/r3/hashed/e1", [2328292241892045731, 2, 89, 1, 5475]),
    ("ba/r3/hashed/e2", [17087512310166449076, 2, 97, 2, 5480]),
    ("ba/r3/hashed/e3", [4624346973124056546, 95, 43293, 911, 5656]),
    ("ba/r3/hashed/e4", [4428367720258560419, 10, 1575, 63, 5459]),
    ("ba/r3/hashed/e5", [4428367720258560419, 0, 0, 0, 5459]),
    ("ba/r3/hashed/e6", [4428367720258560419, 1, 75, 0, 5462]),
    ("grid/r1/block/e0", [2097103537304227825, 51, 22244, 0, 322]),
    ("grid/r1/block/e1", [2097103537304227825, 1, 18, 0, 323]),
    ("grid/r1/block/e2", [2097103537304227825, 1, 18, 0, 327]),
    ("grid/r1/block/e3", [2305651476734151009, 1, 31, 0, 342]),
    ("grid/r1/block/e4", [2305651476734151009, 1, 18, 0, 341]),
    ("grid/r1/block/e5", [2305651476734151009, 0, 0, 0, 341]),
    ("grid/r1/block/e6", [2305651476734151009, 1, 18, 0, 344]),
    ("grid/r1/cyclic/e0", [2097103537304227825, 51, 22244, 0, 322]),
    ("grid/r1/cyclic/e1", [2097103537304227825, 1, 18, 0, 323]),
    ("grid/r1/cyclic/e2", [2097103537304227825, 1, 18, 0, 327]),
    ("grid/r1/cyclic/e3", [2305651476734151009, 1, 31, 0, 342]),
    ("grid/r1/cyclic/e4", [2305651476734151009, 1, 18, 0, 341]),
    ("grid/r1/cyclic/e5", [2305651476734151009, 0, 0, 0, 341]),
    ("grid/r1/cyclic/e6", [2305651476734151009, 1, 18, 0, 344]),
    ("grid/r1/hashed/e0", [2097103537304227825, 51, 22244, 0, 322]),
    ("grid/r1/hashed/e1", [2097103537304227825, 1, 18, 0, 323]),
    ("grid/r1/hashed/e2", [2097103537304227825, 1, 18, 0, 327]),
    ("grid/r1/hashed/e3", [2305651476734151009, 1, 31, 0, 342]),
    ("grid/r1/hashed/e4", [2305651476734151009, 1, 18, 0, 341]),
    ("grid/r1/hashed/e5", [2305651476734151009, 0, 0, 0, 341]),
    ("grid/r1/hashed/e6", [2305651476734151009, 1, 18, 0, 344]),
    ("grid/r2/block/e0", [7393246233075246080, 77, 19761, 0, 473]),
    ("grid/r2/block/e1", [7393246233075246080, 1, 18, 0, 475]),
    ("grid/r2/block/e2", [7393246233075246080, 1, 18, 0, 476]),
    ("grid/r2/block/e3", [1715644437216788643, 2, 42, 1, 488]),
    ("grid/r2/block/e4", [13241855992031683121, 3, 33, 3, 486]),
    ("grid/r2/block/e5", [13241855992031683121, 0, 0, 0, 486]),
    ("grid/r2/block/e6", [16550140591874272326, 2, 22, 1, 488]),
    ("grid/r2/cyclic/e0", [5024083592787676423, 67, 24132, 0, 306]),
    ("grid/r2/cyclic/e1", [5024083592787676423, 1, 18, 0, 309]),
    ("grid/r2/cyclic/e2", [5024083592787676423, 1, 18, 0, 314]),
    ("grid/r2/cyclic/e3", [18075057999023755366, 3, 55, 1, 324]),
    ("grid/r2/cyclic/e4", [975638452702341492, 5, 45, 6, 313]),
    ("grid/r2/cyclic/e5", [975638452702341492, 0, 0, 0, 313]),
    ("grid/r2/cyclic/e6", [17208524018523110947, 3, 31, 3, 311]),
    ("grid/r2/hashed/e0", [6464765233855485319, 67, 26463, 0, 277]),
    ("grid/r2/hashed/e1", [6464765233855485319, 1, 18, 0, 280]),
    ("grid/r2/hashed/e2", [6464765233855485319, 1, 18, 0, 283]),
    ("grid/r2/hashed/e3", [3622932521193212645, 2, 43, 1, 298]),
    ("grid/r2/hashed/e4", [14124080186294456039, 2, 22, 1, 298]),
    ("grid/r2/hashed/e5", [14124080186294456039, 0, 0, 0, 298]),
    ("grid/r2/hashed/e6", [14124080186294456039, 1, 18, 0, 301]),
    ("grid/r3/block/e0", [8085208901251437781, 62, 21751, 0, 378]),
    ("grid/r3/block/e1", [8085208901251437781, 1, 18, 0, 381]),
    ("grid/r3/block/e2", [16032260194806405397, 3, 27, 2, 383]),
    ("grid/r3/block/e3", [10850834613236785828, 3, 47, 2, 396]),
    ("grid/r3/block/e4", [10850834613236785828, 1, 18, 0, 395]),
    ("grid/r3/block/e5", [10850834613236785828, 0, 0, 0, 395]),
    ("grid/r3/block/e6", [15000434675263900113, 3, 31, 3, 394]),
    ("grid/r3/cyclic/e0", [7630507118805553792, 91, 34768, 0, 226]),
    ("grid/r3/cyclic/e1", [7630507118805553792, 1, 18, 0, 229]),
    ("grid/r3/cyclic/e2", [7630507118805553792, 1, 18, 0, 233]),
    ("grid/r3/cyclic/e3", [15704781201603036278, 4, 69, 4, 239]),
    ("grid/r3/cyclic/e4", [17945650405914058674, 2, 22, 1, 237]),
    ("grid/r3/cyclic/e5", [17945650405914058674, 0, 0, 0, 237]),
    ("grid/r3/cyclic/e6", [1130827418465686802, 3, 28, 2, 238]),
    ("grid/r3/hashed/e0", [6412676961063735408, 67, 27149, 0, 258]),
    ("grid/r3/hashed/e1", [9200822126082475731, 2, 22, 1, 260]),
    ("grid/r3/hashed/e2", [7885325953454980196, 2, 22, 1, 264]),
    ("grid/r3/hashed/e3", [10613269676177390199, 2, 37, 1, 278]),
    ("grid/r3/hashed/e4", [3884583304105867509, 2, 22, 1, 277]),
    ("grid/r3/hashed/e5", [3884583304105867509, 0, 0, 0, 277]),
    ("grid/r3/hashed/e6", [3884583304105867509, 1, 18, 0, 277]),
];
#[rustfmt::skip]
const DYNAMIC_COMM_TABLE: &[(&str, DynamicCommRow)] = &[
    ("ba/r1/block/e0", [0, 0, 0, 0]),
    ("ba/r1/block/e1", [0, 0, 0, 0]),
    ("ba/r1/block/e2", [0, 0, 0, 0]),
    ("ba/r1/block/e3", [0, 0, 0, 0]),
    ("ba/r1/block/e4", [0, 0, 0, 0]),
    ("ba/r1/block/e5", [0, 0, 0, 0]),
    ("ba/r1/block/e6", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e0", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e1", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e2", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e3", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e4", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e5", [0, 0, 0, 0]),
    ("ba/r1/cyclic/e6", [0, 0, 0, 0]),
    ("ba/r1/hashed/e0", [0, 0, 0, 0]),
    ("ba/r1/hashed/e1", [0, 0, 0, 0]),
    ("ba/r1/hashed/e2", [0, 0, 0, 0]),
    ("ba/r1/hashed/e3", [0, 0, 0, 0]),
    ("ba/r1/hashed/e4", [0, 0, 0, 0]),
    ("ba/r1/hashed/e5", [0, 0, 0, 0]),
    ("ba/r1/hashed/e6", [0, 0, 0, 0]),
    ("ba/r2/block/e0", [256, 107896, 0, 0]),
    ("ba/r2/block/e1", [12, 1440, 4, 84]),
    ("ba/r2/block/e2", [12, 1448, 4, 48]),
    ("ba/r2/block/e3", [22, 1512, 8, 21072]),
    ("ba/r2/block/e4", [10, 984, 4, 72]),
    ("ba/r2/block/e5", [8, 544, 0, 0]),
    ("ba/r2/block/e6", [12, 1432, 4, 48]),
    ("ba/r2/cyclic/e0", [236, 114488, 0, 0]),
    ("ba/r2/cyclic/e1", [12, 1440, 4, 48]),
    ("ba/r2/cyclic/e2", [10, 984, 4, 48]),
    ("ba/r2/cyclic/e3", [24, 1960, 4, 240]),
    ("ba/r2/cyclic/e4", [10, 984, 4, 48]),
    ("ba/r2/cyclic/e5", [8, 544, 0, 0]),
    ("ba/r2/cyclic/e6", [22, 3696, 4, 48]),
    ("ba/r2/hashed/e0", [254, 116160, 0, 0]),
    ("ba/r2/hashed/e1", [16, 2360, 4, 48]),
    ("ba/r2/hashed/e2", [12, 1456, 4, 48]),
    ("ba/r2/hashed/e3", [248, 106960, 4, 240]),
    ("ba/r2/hashed/e4", [14, 1904, 4, 48]),
    ("ba/r2/hashed/e5", [8, 544, 0, 0]),
    ("ba/r2/hashed/e6", [18, 2840, 4, 48]),
    ("ba/r3/block/e0", [660, 232688, 0, 0]),
    ("ba/r3/block/e1", [36, 4304, 12, 144]),
    ("ba/r3/block/e2", [36, 4304, 12, 288]),
    ("ba/r3/block/e3", [72, 5792, 24, 40484]),
    ("ba/r3/block/e4", [60, 9664, 12, 204]),
    ("ba/r3/block/e5", [24, 1632, 0, 0]),
    ("ba/r3/block/e6", [30, 2952, 12, 168]),
    ("ba/r3/cyclic/e0", [774, 304280, 0, 0]),
    ("ba/r3/cyclic/e1", [42, 5736, 12, 144]),
    ("ba/r3/cyclic/e2", [36, 4304, 12, 180]),
    ("ba/r3/cyclic/e3", [684, 222208, 12, 528]),
    ("ba/r3/cyclic/e4", [36, 4288, 12, 144]),
    ("ba/r3/cyclic/e5", [24, 1632, 0, 0]),
    ("ba/r3/cyclic/e6", [30, 2952, 12, 168]),
    ("ba/r3/hashed/e0", [774, 288616, 0, 0]),
    ("ba/r3/hashed/e1", [36, 4288, 12, 144]),
    ("ba/r3/hashed/e2", [36, 4304, 12, 144]),
    ("ba/r3/hashed/e3", [852, 258944, 12, 552]),
    ("ba/r3/hashed/e4", [84, 16024, 12, 168]),
    ("ba/r3/hashed/e5", [24, 1632, 0, 0]),
    ("ba/r3/hashed/e6", [30, 2952, 12, 168]),
    ("grid/r1/block/e0", [0, 0, 0, 0]),
    ("grid/r1/block/e1", [0, 0, 0, 0]),
    ("grid/r1/block/e2", [0, 0, 0, 0]),
    ("grid/r1/block/e3", [0, 0, 0, 0]),
    ("grid/r1/block/e4", [0, 0, 0, 0]),
    ("grid/r1/block/e5", [0, 0, 0, 0]),
    ("grid/r1/block/e6", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e0", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e1", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e2", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e3", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e4", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e5", [0, 0, 0, 0]),
    ("grid/r1/cyclic/e6", [0, 0, 0, 0]),
    ("grid/r1/hashed/e0", [0, 0, 0, 0]),
    ("grid/r1/hashed/e1", [0, 0, 0, 0]),
    ("grid/r1/hashed/e2", [0, 0, 0, 0]),
    ("grid/r1/hashed/e3", [0, 0, 0, 0]),
    ("grid/r1/hashed/e4", [0, 0, 0, 0]),
    ("grid/r1/hashed/e5", [0, 0, 0, 0]),
    ("grid/r1/hashed/e6", [0, 0, 0, 0]),
    ("grid/r2/block/e0", [268, 40664, 0, 0]),
    ("grid/r2/block/e1", [10, 984, 4, 96]),
    ("grid/r2/block/e2", [10, 984, 4, 216]),
    ("grid/r2/block/e3", [24, 1968, 8, 2268]),
    ("grid/r2/block/e4", [14, 1864, 4, 96]),
    ("grid/r2/block/e5", [8, 544, 0, 0]),
    ("grid/r2/block/e6", [12, 1424, 4, 192]),
    ("grid/r2/cyclic/e0", [248, 56760, 0, 0]),
    ("grid/r2/cyclic/e1", [10, 984, 4, 84]),
    ("grid/r2/cyclic/e2", [10, 984, 4, 48]),
    ("grid/r2/cyclic/e3", [26, 2424, 4, 240]),
    ("grid/r2/cyclic/e4", [18, 2792, 4, 48]),
    ("grid/r2/cyclic/e5", [8, 544, 0, 0]),
    ("grid/r2/cyclic/e6", [14, 1888, 4, 48]),
    ("grid/r2/hashed/e0", [248, 57104, 0, 0]),
    ("grid/r2/hashed/e1", [10, 984, 4, 48]),
    ("grid/r2/hashed/e2", [10, 984, 4, 84]),
    ("grid/r2/hashed/e3", [24, 1968, 4, 288]),
    ("grid/r2/hashed/e4", [12, 1432, 4, 84]),
    ("grid/r2/hashed/e5", [8, 544, 0, 0]),
    ("grid/r2/hashed/e6", [10, 984, 4, 48]),
    ("grid/r3/block/e0", [714, 103072, 0, 0]),
    ("grid/r3/block/e1", [30, 2952, 12, 240]),
    ("grid/r3/block/e2", [42, 5592, 12, 384]),
    ("grid/r3/block/e3", [78, 7120, 24, 4044]),
    ("grid/r3/block/e4", [30, 2952, 12, 240]),
    ("grid/r3/block/e5", [24, 1632, 0, 0]),
    ("grid/r3/block/e6", [42, 5616, 12, 336]),
    ("grid/r3/cyclic/e0", [888, 156320, 0, 0]),
    ("grid/r3/cyclic/e1", [30, 2952, 12, 144]),
    ("grid/r3/cyclic/e2", [30, 2952, 12, 180]),
    ("grid/r3/cyclic/e3", [84, 8544, 12, 504]),
    ("grid/r3/cyclic/e4", [36, 4288, 12, 144]),
    ("grid/r3/cyclic/e5", [24, 1632, 0, 0]),
    ("grid/r3/cyclic/e6", [42, 5624, 12, 180]),
    ("grid/r3/hashed/e0", [744, 140688, 0, 0]),
    ("grid/r3/hashed/e1", [36, 4288, 12, 228]),
    ("grid/r3/hashed/e2", [36, 4280, 12, 180]),
    ("grid/r3/hashed/e3", [72, 5808, 12, 696]),
    ("grid/r3/hashed/e4", [36, 4288, 12, 252]),
    ("grid/r3/hashed/e5", [24, 1632, 0, 0]),
    ("grid/r3/hashed/e6", [30, 2952, 12, 252]),
];
