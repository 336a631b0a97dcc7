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
    ("ba/r1/block/e0", [8507732961628520069, 81, 43005, 0, 5442]),
    ("ba/r1/block/e1", [2683551213001874017, 2, 96, 2, 5439]),
    ("ba/r1/block/e2", [11862113937899462023, 3, 116, 4, 5443]),
    ("ba/r1/block/e3", [109924461626006500, 2, 37, 0, 5461]),
    ("ba/r1/block/e4", [1130088540685311392, 2, 107, 3, 5458]),
    ("ba/r1/block/e5", [1130088540685311392, 0, 0, 0, 5458]),
    ("ba/r1/block/e6", [15531733770491937538, 5, 210, 10, 5449]),
    ("ba/r1/cyclic/e0", [8507732961628520069, 81, 43005, 0, 5442]),
    ("ba/r1/cyclic/e1", [2683551213001874017, 2, 96, 2, 5439]),
    ("ba/r1/cyclic/e2", [11862113937899462023, 3, 116, 4, 5443]),
    ("ba/r1/cyclic/e3", [109924461626006500, 2, 37, 0, 5461]),
    ("ba/r1/cyclic/e4", [1130088540685311392, 2, 107, 3, 5458]),
    ("ba/r1/cyclic/e5", [1130088540685311392, 0, 0, 0, 5458]),
    ("ba/r1/cyclic/e6", [15531733770491937538, 5, 210, 10, 5449]),
    ("ba/r1/hashed/e0", [8507732961628520069, 81, 43005, 0, 5442]),
    ("ba/r1/hashed/e1", [2683551213001874017, 2, 96, 2, 5439]),
    ("ba/r1/hashed/e2", [11862113937899462023, 3, 116, 4, 5443]),
    ("ba/r1/hashed/e3", [109924461626006500, 2, 37, 0, 5461]),
    ("ba/r1/hashed/e4", [1130088540685311392, 2, 107, 3, 5458]),
    ("ba/r1/hashed/e5", [1130088540685311392, 0, 0, 0, 5458]),
    ("ba/r1/hashed/e6", [15531733770491937538, 5, 210, 10, 5449]),
    ("ba/r2/block/e0", [13802341709165014166, 116, 60270, 0, 5386]),
    ("ba/r2/block/e1", [9099173119332923543, 5, 188, 7, 5380]),
    ("ba/r2/block/e2", [9929568376784611287, 3, 98, 2, 5388]),
    ("ba/r2/block/e3", [11600478134636585571, 1, 31, 0, 5407]),
    ("ba/r2/block/e4", [15763521551316133686, 2, 80, 1, 5405]),
    ("ba/r2/block/e5", [15763521551316133686, 0, 0, 0, 5405]),
    ("ba/r2/block/e6", [7201989437896266691, 3, 133, 3, 5409]),
    ("ba/r2/cyclic/e0", [6444907987069600002, 112, 59997, 0, 5766]),
    ("ba/r2/cyclic/e1", [11416684251106932661, 9, 1789, 54, 5522]),
    ("ba/r2/cyclic/e2", [8735289466471499187, 109, 58557, 892, 5574]),
    ("ba/r2/cyclic/e3", [1898731923134025367, 116, 63599, 880, 6091]),
    ("ba/r2/cyclic/e4", [17896301484305903863, 103, 51823, 907, 5401]),
    ("ba/r2/cyclic/e5", [17896301484305903863, 0, 0, 0, 5401]),
    ("ba/r2/cyclic/e6", [237940242967077427, 2, 92, 1, 5407]),
    ("ba/r2/hashed/e0", [3704091510574182932, 112, 54386, 0, 5435]),
    ("ba/r2/hashed/e1", [9924726040936079940, 2, 129, 5, 5429]),
    ("ba/r2/hashed/e2", [14528413304092453655, 2, 86, 1, 5434]),
    ("ba/r2/hashed/e3", [517096887424160416, 2, 37, 0, 5452]),
    ("ba/r2/hashed/e4", [17316006981168516738, 2, 82, 1, 5450]),
    ("ba/r2/hashed/e5", [17316006981168516738, 0, 0, 0, 5450]),
    ("ba/r2/hashed/e6", [4024280995842122401, 4, 145, 6, 5445]),
    ("ba/r3/block/e0", [17986913671022137441, 84, 46644, 0, 6402]),
    ("ba/r3/block/e1", [5623910083180051792, 102, 50048, 871, 6275]),
    ("ba/r3/block/e2", [7275499787101188195, 100, 54503, 809, 6043]),
    ("ba/r3/block/e3", [14482689005632615730, 99, 54556, 870, 6335]),
    ("ba/r3/block/e4", [6246411276433712113, 106, 56206, 887, 5393]),
    ("ba/r3/block/e5", [6246411276433712113, 0, 0, 0, 5393]),
    ("ba/r3/block/e6", [6246411276433712113, 1, 75, 0, 5399]),
    ("ba/r3/cyclic/e0", [5414150743803517332, 99, 56069, 0, 6412]),
    ("ba/r3/cyclic/e1", [6925615619381183125, 109, 60667, 879, 6152]),
    ("ba/r3/cyclic/e2", [5872052243803069927, 103, 56047, 927, 6072]),
    ("ba/r3/cyclic/e3", [2891811358011437104, 112, 61503, 941, 6256]),
    ("ba/r3/cyclic/e4", [10564527552322091380, 98, 50782, 843, 6258]),
    ("ba/r3/cyclic/e5", [7002119720131825287, 111, 55626, 878, 6289]),
    ("ba/r3/cyclic/e6", [17975282083629164979, 107, 58137, 878, 6282]),
    ("ba/r3/hashed/e0", [7007094709077313266, 77, 45914, 0, 6395]),
    ("ba/r3/hashed/e1", [4041776803847616401, 99, 54411, 877, 6314]),
    ("ba/r3/hashed/e2", [13752217416206507990, 103, 54301, 676, 6404]),
    ("ba/r3/hashed/e3", [7483910988341700499, 109, 59195, 919, 6449]),
    ("ba/r3/hashed/e4", [10813566872069865701, 99, 54229, 880, 6286]),
    ("ba/r3/hashed/e5", [11897926518348772102, 112, 57152, 908, 6334]),
    ("ba/r3/hashed/e6", [14637128984323208978, 101, 57187, 936, 6342]),
    ("grid/r1/block/e0", [12391625405204636130, 60, 25131, 0, 380]),
    ("grid/r1/block/e1", [12391625405204636130, 1, 18, 0, 383]),
    ("grid/r1/block/e2", [12391625405204636130, 1, 18, 0, 388]),
    ("grid/r1/block/e3", [6804046822898598114, 1, 31, 0, 402]),
    ("grid/r1/block/e4", [9459775827510596369, 2, 22, 1, 402]),
    ("grid/r1/block/e5", [9459775827510596369, 0, 0, 0, 402]),
    ("grid/r1/block/e6", [9459775827510596369, 1, 18, 0, 405]),
    ("grid/r1/cyclic/e0", [12391625405204636130, 60, 25131, 0, 380]),
    ("grid/r1/cyclic/e1", [12391625405204636130, 1, 18, 0, 383]),
    ("grid/r1/cyclic/e2", [12391625405204636130, 1, 18, 0, 388]),
    ("grid/r1/cyclic/e3", [6804046822898598114, 1, 31, 0, 402]),
    ("grid/r1/cyclic/e4", [9459775827510596369, 2, 22, 1, 402]),
    ("grid/r1/cyclic/e5", [9459775827510596369, 0, 0, 0, 402]),
    ("grid/r1/cyclic/e6", [9459775827510596369, 1, 18, 0, 405]),
    ("grid/r1/hashed/e0", [12391625405204636130, 60, 25131, 0, 380]),
    ("grid/r1/hashed/e1", [12391625405204636130, 1, 18, 0, 383]),
    ("grid/r1/hashed/e2", [12391625405204636130, 1, 18, 0, 388]),
    ("grid/r1/hashed/e3", [6804046822898598114, 1, 31, 0, 402]),
    ("grid/r1/hashed/e4", [9459775827510596369, 2, 22, 1, 402]),
    ("grid/r1/hashed/e5", [9459775827510596369, 0, 0, 0, 402]),
    ("grid/r1/hashed/e6", [9459775827510596369, 1, 18, 0, 405]),
    ("grid/r2/block/e0", [4615639538572522854, 85, 37970, 0, 392]),
    ("grid/r2/block/e1", [11766493338925869505, 2, 22, 1, 394]),
    ("grid/r2/block/e2", [11766493338925869505, 1, 18, 0, 398]),
    ("grid/r2/block/e3", [16801680531174542755, 1, 31, 0, 415]),
    ("grid/r2/block/e4", [18074958461908310627, 3, 27, 2, 414]),
    ("grid/r2/block/e5", [18074958461908310627, 0, 0, 0, 414]),
    ("grid/r2/block/e6", [683470568335698279, 2, 22, 1, 416]),
    ("grid/r2/cyclic/e0", [860032130841735350, 75, 28747, 0, 406]),
    ("grid/r2/cyclic/e1", [860032130841735350, 1, 18, 0, 409]),
    ("grid/r2/cyclic/e2", [10236340450175666327, 5, 55, 8, 397]),
    ("grid/r2/cyclic/e3", [5786585976119565972, 1, 31, 0, 416]),
    ("grid/r2/cyclic/e4", [5786585976119565972, 1, 18, 0, 414]),
    ("grid/r2/cyclic/e5", [5786585976119565972, 0, 0, 0, 414]),
    ("grid/r2/cyclic/e6", [3497983237439284277, 3, 31, 3, 412]),
    ("grid/r2/hashed/e0", [5366756875388194083, 79, 41510, 0, 483]),
    ("grid/r2/hashed/e1", [5366756875388194083, 1, 18, 0, 484]),
    ("grid/r2/hashed/e2", [10725705652740611348, 2, 22, 1, 488]),
    ("grid/r2/hashed/e3", [1645478274087173796, 2, 43, 0, 504]),
    ("grid/r2/hashed/e4", [9219298513847741190, 2, 30, 3, 501]),
    ("grid/r2/hashed/e5", [9219298513847741190, 0, 0, 0, 501]),
    ("grid/r2/hashed/e6", [9219298513847741190, 1, 18, 0, 502]),
    ("grid/r3/block/e0", [13506139749747936355, 79, 33101, 0, 341]),
    ("grid/r3/block/e1", [5219047969838265792, 2, 22, 1, 344]),
    ("grid/r3/block/e2", [12284079215686360452, 2, 22, 1, 348]),
    ("grid/r3/block/e3", [17761147170234864178, 2, 37, 0, 367]),
    ("grid/r3/block/e4", [17761147170234864178, 1, 18, 0, 366]),
    ("grid/r3/block/e5", [17761147170234864178, 0, 0, 0, 366]),
    ("grid/r3/block/e6", [17761147170234864178, 1, 18, 0, 368]),
    ("grid/r3/cyclic/e0", [14403852763139266512, 56, 23812, 0, 185]),
    ("grid/r3/cyclic/e1", [14403852763139266512, 1, 18, 0, 188]),
    ("grid/r3/cyclic/e2", [14403852763139266512, 1, 18, 0, 192]),
    ("grid/r3/cyclic/e3", [6083270698992433558, 91, 13396, 99, 190]),
    ("grid/r3/cyclic/e4", [6083270698992433558, 1, 18, 0, 189]),
    ("grid/r3/cyclic/e5", [6083270698992433558, 0, 0, 0, 189]),
    ("grid/r3/cyclic/e6", [6083270698992433558, 1, 18, 0, 191]),
    ("grid/r3/hashed/e0", [14830625478802196033, 75, 34219, 0, 259]),
    ("grid/r3/hashed/e1", [14830625478802196033, 1, 18, 0, 261]),
    ("grid/r3/hashed/e2", [14830625478802196033, 1, 18, 0, 266]),
    ("grid/r3/hashed/e3", [13585754548351335810, 1, 31, 0, 286]),
    ("grid/r3/hashed/e4", [17731322867072956695, 2, 22, 1, 284]),
    ("grid/r3/hashed/e5", [17731322867072956695, 0, 0, 0, 284]),
    ("grid/r3/hashed/e6", [3454158114148210514, 3, 31, 3, 284]),
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
    ("ba/r2/block/e0", [298, 265784, 0, 0]),
    ("ba/r2/block/e1", [18, 2816, 4, 84]),
    ("ba/r2/block/e2", [14, 1880, 4, 48]),
    ("ba/r2/block/e3", [22, 1512, 8, 21072]),
    ("ba/r2/block/e4", [12, 1432, 4, 72]),
    ("ba/r2/block/e5", [8, 544, 0, 0]),
    ("ba/r2/block/e6", [14, 1896, 4, 48]),
    ("ba/r2/cyclic/e0", [294, 234536, 0, 0]),
    ("ba/r2/cyclic/e1", [26, 5032, 4, 48]),
    ("ba/r2/cyclic/e2", [264, 220088, 4, 48]),
    ("ba/r2/cyclic/e3", [288, 249128, 4, 240]),
    ("ba/r2/cyclic/e4", [246, 203032, 4, 48]),
    ("ba/r2/cyclic/e5", [8, 544, 0, 0]),
    ("ba/r2/cyclic/e6", [12, 1432, 4, 48]),
    ("ba/r2/hashed/e0", [290, 239560, 0, 0]),
    ("ba/r2/hashed/e1", [12, 1464, 4, 48]),
    ("ba/r2/hashed/e2", [12, 1432, 4, 48]),
    ("ba/r2/hashed/e3", [24, 1960, 4, 240]),
    ("ba/r2/hashed/e4", [12, 1432, 4, 48]),
    ("ba/r2/hashed/e5", [8, 544, 0, 0]),
    ("ba/r2/hashed/e6", [16, 2352, 4, 48]),
    ("ba/r3/block/e0", [702, 411968, 0, 0]),
    ("ba/r3/block/e1", [738, 357328, 12, 144]),
    ("ba/r3/block/e2", [732, 375960, 12, 288]),
    ("ba/r3/block/e3", [762, 446024, 24, 40484]),
    ("ba/r3/block/e4", [756, 406728, 12, 204]),
    ("ba/r3/block/e5", [24, 1632, 0, 0]),
    ("ba/r3/block/e6", [30, 2952, 12, 168]),
    ("ba/r3/cyclic/e0", [912, 501104, 0, 0]),
    ("ba/r3/cyclic/e1", [900, 523072, 12, 144]),
    ("ba/r3/cyclic/e2", [864, 478056, 12, 180]),
    ("ba/r3/cyclic/e3", [846, 477648, 12, 528]),
    ("ba/r3/cyclic/e4", [828, 423432, 12, 144]),
    ("ba/r3/cyclic/e5", [912, 504128, 0, 0]),
    ("ba/r3/cyclic/e6", [888, 490728, 12, 168]),
    ("ba/r3/hashed/e0", [660, 420296, 0, 0]),
    ("ba/r3/hashed/e1", [834, 404096, 12, 144]),
    ("ba/r3/hashed/e2", [864, 496056, 12, 144]),
    ("ba/r3/hashed/e3", [828, 465000, 12, 552]),
    ("ba/r3/hashed/e4", [834, 448360, 12, 168]),
    ("ba/r3/hashed/e5", [918, 518040, 0, 0]),
    ("ba/r3/hashed/e6", [852, 495224, 12, 168]),
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
    ("grid/r2/block/e0", [284, 45488, 0, 0]),
    ("grid/r2/block/e1", [12, 1424, 4, 96]),
    ("grid/r2/block/e2", [10, 984, 4, 216]),
    ("grid/r2/block/e3", [22, 1512, 8, 2268]),
    ("grid/r2/block/e4", [14, 1864, 4, 96]),
    ("grid/r2/block/e5", [8, 544, 0, 0]),
    ("grid/r2/block/e6", [12, 1424, 4, 192]),
    ("grid/r2/cyclic/e0", [264, 72936, 0, 0]),
    ("grid/r2/cyclic/e1", [10, 984, 4, 84]),
    ("grid/r2/cyclic/e2", [18, 2808, 4, 48]),
    ("grid/r2/cyclic/e3", [22, 1512, 4, 240]),
    ("grid/r2/cyclic/e4", [10, 984, 4, 48]),
    ("grid/r2/cyclic/e5", [8, 544, 0, 0]),
    ("grid/r2/cyclic/e6", [14, 1888, 4, 48]),
    ("grid/r2/hashed/e0", [272, 103760, 0, 0]),
    ("grid/r2/hashed/e1", [10, 984, 4, 48]),
    ("grid/r2/hashed/e2", [12, 1432, 4, 84]),
    ("grid/r2/hashed/e3", [24, 1968, 4, 288]),
    ("grid/r2/hashed/e4", [12, 1440, 4, 84]),
    ("grid/r2/hashed/e5", [8, 544, 0, 0]),
    ("grid/r2/hashed/e6", [10, 984, 4, 48]),
    ("grid/r3/block/e0", [816, 108064, 0, 0]),
    ("grid/r3/block/e1", [36, 4272, 12, 240]),
    ("grid/r3/block/e2", [36, 4280, 12, 384]),
    ("grid/r3/block/e3", [72, 5792, 24, 4044]),
    ("grid/r3/block/e4", [30, 2952, 12, 240]),
    ("grid/r3/block/e5", [24, 1632, 0, 0]),
    ("grid/r3/block/e6", [30, 2952, 12, 336]),
    ("grid/r3/cyclic/e0", [678, 137192, 0, 0]),
    ("grid/r3/cyclic/e1", [30, 2952, 12, 144]),
    ("grid/r3/cyclic/e2", [30, 2952, 12, 180]),
    ("grid/r3/cyclic/e3", [702, 108832, 12, 504]),
    ("grid/r3/cyclic/e4", [30, 2952, 12, 144]),
    ("grid/r3/cyclic/e5", [24, 1632, 0, 0]),
    ("grid/r3/cyclic/e6", [30, 2952, 12, 180]),
    ("grid/r3/hashed/e0", [792, 158688, 0, 0]),
    ("grid/r3/hashed/e1", [30, 2952, 12, 228]),
    ("grid/r3/hashed/e2", [30, 2952, 12, 180]),
    ("grid/r3/hashed/e3", [66, 4472, 12, 696]),
    ("grid/r3/hashed/e4", [36, 4280, 12, 252]),
    ("grid/r3/hashed/e5", [24, 1632, 0, 0]),
    ("grid/r3/hashed/e6", [42, 5624, 12, 252]),
];
