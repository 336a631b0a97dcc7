//! The table of experiments behind `experiments <name>|all [--json]`: one entry per table
//! or figure of the paper's evaluation, named as the one-file binaries they replace were.

use std::time::Instant;

use xtrapulp::{InitStrategy, PartitionParams};
use xtrapulp_analytics::run_suite_with_partition;
use xtrapulp_api::{DynamicSession, Method, PartitionJob, UpdateBatch};
use xtrapulp_gen::presets::all_presets;
use xtrapulp_gen::{
    generate_stream, GraphClass, GraphConfig, GraphKind, StreamKind, TableIPreset,
    UpdateStreamConfig,
};
use xtrapulp_graph::{GraphStats, HaloError};
use xtrapulp_spmv::{spmv_1d_with_partition, spmv_2d, Matrix2d};

use crate::{print_table, Harness};

/// What an experiment returns: harness parameters are trusted, so an error is a bug and
/// ends the run with its message.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// An experiment's body: prints its `--json` lines, then its table.
pub type Run = fn(&mut Harness) -> Outcome;

/// Every experiment as `(name on the command line, what it reproduces, body)`, in the
/// paper's order.
pub static EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("table1_graphs", "Table I", table1_graphs),
    ("table2_cluster1", "Table II", table2_cluster1),
    ("table3_spmv", "Table III", table3_spmv),
    ("fig1_strong_scaling", "Fig. 1", fig1_strong_scaling),
    ("fig2_weak_scaling", "Fig. 2", fig2_weak_scaling),
    ("fig3_speedup", "Fig. 3", fig3_speedup),
    ("fig4_quality", "Fig. 4", fig4_quality),
    ("fig5_scale_quality", "Fig. 5", fig5_scale_quality),
    ("fig6_single_objective", "Fig. 6", fig6_single_objective),
    ("fig7_xy_heatmap", "Fig. 7", fig7_xy_heatmap),
    ("fig8_analytics", "Fig. 8", fig8_analytics),
    ("trillion_scale", "§V-A.2 largest runs", trillion_scale),
    ("fig_dynamic", "beyond the paper: warm starts", fig_dynamic),
];

/// The entry of the experiment called `name`.
pub fn find(name: &str) -> Option<&'static (&'static str, &'static str, Run)> {
    EXPERIMENTS.iter().find(|e| e.0 == name)
}

/// The rank counts of the scaling studies (the paper's Cluster-1 uses 1–16 nodes).
const RANKS: [usize; 4] = [1, 2, 4, 8];

fn params(num_parts: usize, seed: u64) -> PartitionParams {
    PartitionParams {
        num_parts,
        seed,
        ..Default::default()
    }
}

/// The web-crawl generator standing in for WDC12 in Figs. 1 and 8.
fn wdc12_proxy(num_vertices: u64) -> GraphKind {
    GraphKind::WebCrawl {
        num_vertices,
        avg_degree: 16,
        community_size: 512,
    }
}

/// One of the paper's synthetic scaling families (`RMAT`, `RandER`, `RandHD`) at `n`
/// vertices and average degree `avg_degree`; R-MAT takes its `(scale, edge_factor)`.
fn synthetic(family: &str, n: u64, avg_degree: u64, rmat: (u32, u64)) -> GraphKind {
    match family {
        "RMAT" => GraphKind::Rmat {
            scale: rmat.0,
            edge_factor: rmat.1,
        },
        "RandER" => GraphKind::ErdosRenyi {
            num_vertices: n,
            avg_degree,
        },
        _ => GraphKind::RandHd {
            num_vertices: n,
            avg_degree,
        },
    }
}

/// Table I: statistics (n, m, average/max degree, approximate diameter) of every proxy
/// graph standing in for the paper's evaluation corpus.
fn table1_graphs(_: &mut Harness) -> Outcome {
    let mut rows = Vec::new();
    for preset in all_presets() {
        // The largest scaling presets are skipped to keep the run short.
        if preset.config.num_vertices() > (1 << 17) {
            continue;
        }
        let csr = preset.config.generate().to_csr();
        let s = GraphStats::compute(&csr, 10, 1);
        rows.push(format!(
            "{} | {:?} | {} | {} | {:.3} | {} | {}",
            preset.name,
            preset.class,
            s.num_vertices,
            s.num_edges,
            s.avg_degree,
            s.max_degree,
            s.approx_diameter
        ));
    }
    print_table(
        "Table I — proxy graph corpus statistics",
        "graph | class | n | m | d_avg | d_max | ~D",
        &rows,
    );
    Ok(())
}

/// Table II: partitioning time for 16 parts — XtraPuLP (8 ranks) vs PuLP vs the
/// METIS-like baseline (both serial) — across the four graph classes.
fn table2_cluster1(h: &mut Harness) -> Outcome {
    let graphs = [
        "lj",
        "orkut",
        "friendster",
        "wdc12-pay",
        "indochina",
        "uk-2002",
        "rmat_22",
        "rmat_24",
        "InternalMesh1",
        "nlpkkt160",
        "nlpkkt240",
    ];
    let params = params(16, 13);
    let mut rows = Vec::new();
    for name in graphs {
        let csr = h.proxy_graph(name)?;
        let (tx, report) = h.job(8, Method::XtraPulp, &csr, &params)?;
        let (tp, _) = h.job(8, Method::Pulp, &csr, &params)?;
        let (tm, _) = h.job(8, Method::MetisLike, &csr, &params)?;
        h.emit_report(name, &report);
        let class = TableIPreset::by_name(name).map_or(GraphClass::Synthetic, |p| p.class);
        rows.push(format!(
            "{name} | {class:?} | {tx:.3} | {tp:.3} | {tm:.3} | {:.3} | {:.3}",
            tp / tx,
            report.quality.edge_cut_ratio
        ));
    }
    print_table(
        "Table II — partitioning time (s) for 16 parts (XtraPuLP on 8 ranks, PuLP and MetisLike serial)",
        "graph | class | XtraPuLP | PuLP | MetisLike | speedup vs PuLP | XtraPuLP cut ratio",
        &rows,
    );
    Ok(())
}

/// Table III: time for 100 SpMV operations under 1-D and 2-D matrix distributions built
/// from Block / Random / MetisLike / XtraPuLP partitions, at several rank counts.
fn table3_spmv(h: &mut Harness) -> Outcome {
    let iterations = 100;
    let strategies = [
        Method::VertexBlock,
        Method::Random,
        Method::MetisLike,
        Method::XtraPulp,
    ];
    let mut rows = Vec::new();
    for name in ["lj", "orkut", "wdc12-pay", "rmat_24", "nlpkkt240"] {
        let csr = h.proxy_graph(name)?;
        let n = csr.num_vertices() as u64;
        let edges: Vec<(u64, u64)> = csr.edges().collect();
        for nranks in [4usize, 8, 16] {
            let mut row = format!("{name} | {nranks}");
            let mut rand_1d = 0.0;
            let mut xtra_2d = 0.0;
            for method in strategies {
                let parts = h.job(nranks, method, &csr, &params(nranks, 19))?.1.parts;
                let per_rank = h.session(nranks)?.execute(|ctx| {
                    let one_d = spmv_1d_with_partition(ctx, n, &edges, &parts, iterations)?;
                    let matrix = Matrix2d::build(ctx, n, &edges, &parts);
                    let two_d = spmv_2d(ctx, &matrix, iterations);
                    Ok::<_, HaloError>((one_d.seconds, two_d.seconds))
                });
                let (t1, t2) = per_rank.into_iter().next().ok_or("no rank reported")??;
                if method == Method::Random {
                    rand_1d = t1;
                }
                if method == Method::XtraPulp {
                    xtra_2d = t2;
                }
                row += &format!(" | {t1:.3}/{t2:.3}");
            }
            rows.push(format!("{row} | {:.3}", rand_1d / xtra_2d.max(1e-9)));
        }
    }
    print_table(
        &format!("Table III — time (s) for {iterations} SpMVs, formatted 1D/2D per strategy"),
        "graph | ranks | Block 1D/2D | Rand 1D/2D | PM 1D/2D | XtraPuLP 1D/2D | 2D-XtraPuLP speedup over 1D-Rand",
        &rows,
    );
    Ok(())
}

/// Fig. 1: strong scaling — partitioning time for fixed-size WDC12/RMAT/RandER/RandHD
/// proxies into 256 parts while the rank count grows. `--json` adds one line per
/// (graph, rank count) with the frontier engine's sweep accounting: seconds, sweeps,
/// vertices scored and scored vertices per second.
fn fig1_strong_scaling(h: &mut Harness) -> Outcome {
    let n = h.scaled(1 << 15);
    let rmat = ((n as f64).log2() as u32, 16);
    let mut rows = Vec::new();
    for name in ["WDC12", "RMAT", "RandER", "RandHD"] {
        let kind = match name {
            "WDC12" => wdc12_proxy(n),
            family => synthetic(family, n, 16, rmat),
        };
        let csr = GraphConfig::new(kind, 42).generate().to_csr();
        let mut row = name.to_string();
        let mut times = Vec::new();
        for nranks in RANKS {
            let (secs, lp_sweeps, vertices_scored) =
                h.partition_only(nranks, &csr, &params(256, 7))?;
            h.emit_line(
                "graph",
                name,
                &format!(
                    "\"nranks\":{nranks},\"seconds\":{secs},\"lp_sweeps\":{lp_sweeps},\
                     \"vertices_scored\":{vertices_scored},\"scored_per_sec\":{}",
                    vertices_scored as f64 / secs.max(1e-9)
                ),
            );
            row += &format!(" | {secs:.3}");
            times.push(secs);
        }
        rows.push(format!("{row} | {:.3}", times[0] / times[RANKS.len() - 1]));
    }
    print_table(
        "Fig. 1 — strong scaling: XtraPuLP time (s) computing 256 parts",
        "graph | 1 rank | 2 ranks | 4 ranks | 8 ranks | speedup 1->8",
        &rows,
    );
    Ok(())
}

/// Fig. 2: weak scaling — RMAT/RandER/RandHD graphs with a fixed number of vertices per
/// rank and average degree 16/32/64; the number of parts equals the number of ranks.
fn fig2_weak_scaling(h: &mut Harness) -> Outcome {
    let per_rank = h.scaled(1 << 13);
    let mut rows = Vec::new();
    for family in ["RMAT", "RandER", "RandHD"] {
        for avg_degree in [16u64, 32, 64] {
            let mut row = format!("{family} | {avg_degree}");
            for nranks in RANKS {
                let n = per_rank * nranks as u64;
                let rmat = ((n as f64).log2().ceil() as u32, avg_degree / 2);
                let csr = GraphConfig::new(synthetic(family, n, avg_degree, rmat), 9)
                    .generate()
                    .to_csr();
                let (secs, ..) = h.partition_only(nranks, &csr, &params(nranks.max(2), 3))?;
                row += &format!(" | {secs:.3}");
            }
            rows.push(row);
        }
    }
    print_table(
        "Fig. 2 — weak scaling: XtraPuLP time (s), parts = ranks, fixed vertices per rank",
        "family | d_avg | 1 rank | 2 ranks | 4 ranks | 8 ranks",
        &rows,
    );
    Ok(())
}

/// Fig. 3: XtraPuLP relative speedup on the six representative graphs when the rank
/// count grows from 1 to 8.
fn fig3_speedup(h: &mut Harness) -> Outcome {
    let mut rows = Vec::new();
    for preset in TableIPreset::representative_six() {
        let csr = h.proxy_graph(preset.name)?;
        let mut row = preset.name.to_string();
        let mut base = 0.0;
        for nranks in RANKS {
            let (secs, _) = h.job(nranks, Method::XtraPulp, &csr, &params(16, 3))?;
            if nranks == 1 {
                base = secs;
            }
            row += &format!(" | {:.3}", base / secs);
        }
        rows.push(row);
    }
    print_table(
        "Fig. 3 — relative speedup vs a single rank (16 parts)",
        "graph | 1 | 2 | 4 | 8",
        &rows,
    );
    Ok(())
}

/// Fig. 4: partition quality (edge cut ratio and scaled max cut ratio) versus the number
/// of parts, for XtraPuLP, PuLP and the METIS-like baseline, on the six representative
/// graphs.
fn fig4_quality(h: &mut Harness) -> Outcome {
    let mut rows = Vec::new();
    for preset in TableIPreset::representative_six() {
        let name = preset.name;
        let csr = h.proxy_graph(name)?;
        for p in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            for method in [Method::XtraPulp, Method::Pulp, Method::MetisLike] {
                let (_, report) = h.job(4, method, &csr, &params(p, 21))?;
                h.emit_report(name, &report);
                let q = report.quality;
                rows.push(format!(
                    "{name} | {p} | {method} | {:.3} | {:.3} | {:.3}",
                    q.edge_cut_ratio, q.scaled_max_cut_ratio, q.vertex_imbalance
                ));
            }
        }
    }
    print_table(
        "Fig. 4 — quality vs number of parts",
        "graph | parts | method | edge cut ratio | scaled max cut ratio | vertex imbalance",
        &rows,
    );
    Ok(())
}

/// Fig. 5: how partition quality varies with the rank count when computing 256 parts of
/// the WDC12 proxy (edge cut ratio, scaled max cut ratio, edge imbalance).
fn fig5_scale_quality(h: &mut Harness) -> Outcome {
    let csr = h.proxy_graph("wdc12-host")?;
    let mut rows = Vec::new();
    for nranks in [1usize, 2, 4, 8, 16] {
        let (_, report) = h.job(nranks, Method::XtraPulp, &csr, &params(256, 31))?;
        let q = report.quality;
        rows.push(format!(
            "{nranks} | {:.3} | {:.3} | {:.3}",
            q.edge_cut_ratio, q.scaled_max_cut_ratio, q.edge_imbalance
        ));
    }
    print_table(
        "Fig. 5 — WDC12 proxy, 256 parts: quality vs rank count",
        "ranks | edge cut ratio | scaled max cut ratio | max edge imbalance",
        &rows,
    );
    Ok(())
}

/// Fig. 6: the single-constraint single-objective comparison — XtraPuLP (edge-balance
/// stage disabled), PuLP, the METIS-like baseline and the KaHIP-like label-propagation
/// coarsening partitioner ([`Method::LpCoarsenKway`]), on lj / rmat_22 / uk-2002,
/// 2-256 parts: edge cut and time.
fn fig6_single_objective(h: &mut Harness) -> Outcome {
    let mut rows = Vec::new();
    for name in ["lj", "rmat_22", "uk-2002"] {
        let csr = h.proxy_graph(name)?;
        for p in [2usize, 8, 32, 128, 256] {
            // Single constraint, single objective: 3% imbalance, no edge-balance stage.
            let params = PartitionParams {
                vertex_imbalance: 0.03,
                edge_balance_stage: false,
                ..params(p, 17)
            };
            for method in Method::all_quality() {
                let (secs, report) = h.job(4, method, &csr, &params)?;
                h.emit_report(name, &report);
                let cut = report.quality.edge_cut_ratio;
                rows.push(format!("{name} | {p} | {method} | {cut:.3} | {secs:.3}"));
            }
        }
    }
    print_table(
        "Fig. 6 — single-objective comparison (3% imbalance)",
        "graph | parts | method | edge cut ratio | time (s)",
        &rows,
    );
    Ok(())
}

/// Fig. 7: the effect of the multiplier parameters X and Y on edge cut, max per-part
/// cut, vertex balance and edge balance (the paper sweeps X,Y in [0,4] over four graphs
/// and 2-128 parts; this sweeps a representative grid).
fn fig7_xy_heatmap(h: &mut Harness) -> Outcome {
    let values = [0.0f64, 0.25, 0.5, 1.0, 2.0, 4.0];
    let mut graphs = Vec::new();
    for name in ["lj", "uk-2002", "rmat_22", "nlpkkt160"] {
        graphs.push(h.proxy_graph(name)?);
    }
    let mut rows = Vec::new();
    for x in values {
        for y in values {
            let params = PartitionParams {
                mult_x: x,
                mult_y: y,
                ..params(16, 29)
            };
            let mut sums = [0.0f64; 4];
            for csr in &graphs {
                let q = h.job(4, Method::XtraPulp, csr, &params)?.1.quality;
                sums[0] += q.edge_cut_ratio;
                sums[1] += q.scaled_max_cut_ratio;
                sums[2] += q.vertex_imbalance;
                sums[3] += q.edge_imbalance;
            }
            let [cut, max_cut, vertex, edge] = sums.map(|sum| sum / graphs.len() as f64);
            rows.push(format!(
                "{x:.3} | {y:.3} | {cut:.3} | {max_cut:.3} | {vertex:.3} | {edge:.3}"
            ));
        }
    }
    print_table(
        "Fig. 7 — X/Y multiplier sweep (averages over lj, uk-2002, rmat_22, nlpkkt160; 16 parts, 4 ranks)",
        "X | Y | edge cut ratio | scaled max cut | vertex imbalance | edge imbalance",
        &rows,
    );
    Ok(())
}

/// Fig. 8: end-to-end execution time of six graph analytics (HC, KC, LP, PR, SCC, WCC)
/// on the WDC12 proxy under four placement strategies — EdgeBlock, Random, VertexBlock
/// and XtraPuLP (including its partitioning time).
fn fig8_analytics(h: &mut Harness) -> Outcome {
    let n = h.scaled(1 << 15);
    let el = GraphConfig::new(wdc12_proxy(n), 51).generate();
    let csr = el.to_csr();
    let nranks = 8;
    // As in the paper, XtraPuLP is initialised from the vertex-block placement and only
    // the balancing stages run; the naive strategies cost no partitioning time.
    let params = PartitionParams {
        init: InitStrategy::VertexBlock,
        ..params(nranks, 5)
    };
    let strategies = [
        Method::EdgeBlock,
        Method::Random,
        Method::VertexBlock,
        Method::XtraPulp,
    ];
    let mut rows = Vec::new();
    for method in strategies {
        let (secs, report) = h.job(nranks, method, &csr, &params)?;
        h.emit_report("wdc12-proxy", &report);
        let partition_seconds = if method == Method::XtraPulp {
            secs
        } else {
            0.0
        };
        let result = run_suite_with_partition(
            nranks,
            n,
            &el.edges,
            &report.parts,
            method.name(),
            partition_seconds,
            16,
        );
        let mut row = method.to_string();
        for a in &result.analytics {
            row += &format!(" | {} {:.2}s", a.name, a.seconds);
        }
        rows.push(format!(
            "{row} | {partition_seconds:.3} | {:.3}",
            result.total_seconds()
        ));
    }
    print_table(
        "Fig. 8 — analytics end-to-end time on the WDC12 proxy (8 ranks)",
        "strategy | HC | KC | LP | PR | SCC | WCC | partition (s) | total (s)",
        &rows,
    );
    Ok(())
}

/// §V-A.2 "Trillion-edge runs": the largest graphs that fit on this machine, partitioned
/// at the maximum rank count, reported like the paper's headline runs (RandER / RandHD /
/// RMAT at 2^34 vertices, 2^39-2^40 edges on 8192 nodes).
fn trillion_scale(h: &mut Harness) -> Outcome {
    let n = h.scaled(1 << 17);
    let nranks = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8)
        .min(16);
    let mut rows = Vec::new();
    for family in ["RandER", "RandHD", "RMAT"] {
        let rmat = ((n as f64).log2() as u32, 16);
        let el = GraphConfig::new(synthetic(family, n, 32, rmat), 11).generate();
        let (secs, ..) = h.partition_only(nranks, &el.to_csr(), &params(256, 5))?;
        let (n, m) = (el.num_vertices, el.edges.len());
        rows.push(format!("{family} | {n} | {m} | {nranks} | {secs:.3}"));
    }
    print_table(
        "§V-A.2 — largest-graph runs (paper: 2^34 vertices / 10^12 edges in 357-608 s on 8192 nodes)",
        "graph | n | edges generated | ranks | time (s)",
        &rows,
    );
    Ok(())
}

/// Dynamic-graph figure: warm-start repartitioning versus from-scratch across update
/// batch sizes, on 4 ranks.
///
/// For each churn level the same mutated graph is partitioned twice — warm (a
/// [`DynamicSession`] seeded from the previous epoch, short refinement schedule,
/// per-rank graphs evolved by delta) and cold (a from-scratch job) — and the table
/// reports the wall-clock speedup with the quality deltas (edge cut, imbalance) and the
/// migration/sweep accounting. A growth series does the same for a
/// preferential-attachment stream. `--json` adds one `DynamicReport` summary line per
/// warm epoch, with `lp_sweeps`, `vertices_scored` and their cold references.
fn fig_dynamic(h: &mut Harness) -> Outcome {
    let n = h.scaled(1 << 14);
    let base = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: n,
            edges_per_vertex: 8,
        },
        77,
    )
    .generate();
    let m = base.to_csr().num_edges();

    // Churn series: one batch per churn level, smallest first (≤1% is the acceptance
    // regime, 5% shows where warm-start advantage erodes).
    let mut series = Vec::new();
    for churn_pct in [0.1f64, 0.5, 1.0, 5.0] {
        let config = UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: ((m as f64 * churn_pct / 100.0) as usize).max(2),
                delete_fraction: 0.5,
            },
            num_batches: 1,
            seed: 11,
        };
        series.push((
            format!("churn {churn_pct}%"),
            generate_stream(&base, &config),
        ));
    }
    // Growth series: successive preferential-attachment batches on one session.
    let config = UpdateStreamConfig {
        kind: StreamKind::PreferentialGrowth {
            vertices_per_batch: (n / 200).max(8),
            edges_per_vertex: 8,
        },
        num_batches: 3,
        seed: 13,
    };
    series.push(("growth".to_string(), generate_stream(&base, &config)));

    const NRANKS: usize = 4;
    let params = params(16, 29);
    let mut rows = Vec::new();
    for (series, stream) in &series {
        let job = PartitionJob::new(Method::XtraPulp).with_params(params);
        let mut dynamic = DynamicSession::spawn(NRANKS, base.to_csr(), job)?;
        // Epoch 0: the cold reference partition the warm epochs start from.
        dynamic.repartition()?;

        for i in 0..stream.batches.len() {
            let batch = UpdateBatch::from_ops(stream.batch_ops(i));
            let added = dynamic.apply_updates(&batch)?.vertices_added;

            let timer = Instant::now();
            let warm = dynamic.repartition()?;
            let warm_secs = timer.elapsed().as_secs_f64();
            let fields = format!("\"report\":{}", warm.to_json_summary());
            h.emit_line("series", series, &fields);

            // From-scratch on the identical mutated graph.
            let mutated = dynamic.csr();
            let (cold_secs, cold) = h.job(NRANKS, Method::XtraPulp, &mutated, &params)?;

            let (warm_cut, cold_cut) = (warm.report.quality.edge_cut, cold.quality.edge_cut);
            let cut_delta_pct = if cold_cut == 0 {
                0.0
            } else {
                100.0 * (warm_cut as f64 - cold_cut as f64) / cold_cut as f64
            };
            let stages = warm.stages;
            rows.push(format!(
                "{series} | {} | {} | {added} | {cold_secs:.3} | {warm_secs:.3} | {:.3} | {}/{} | {}/{} | {}/{}/{} | {} | {cut_delta_pct:.3} | {:.3}",
                warm.epoch,
                batch.len(),
                cold_secs / warm_secs.max(1e-9),
                warm.lp_sweeps,
                warm.cold_lp_sweeps,
                warm.vertices_scored,
                warm.cold_vertices_scored,
                stages.refine_sweeps,
                stages.balance_sweeps,
                stages.churn_sweeps,
                warm.vertices_migrated,
                warm.report.quality.vertex_imbalance
            ));
        }
    }
    print_table(
        "Dynamic repartitioning — warm start vs from scratch",
        "series | epoch | batch ops | verts added | cold s | warm s | speedup | sweeps warm/cold | scored warm/cold | ref/bal/churn | migrated | cut delta % | imbalance",
        &rows,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique_and_resolve() {
        for &(name, ..) in EXPERIMENTS {
            let listed = EXPERIMENTS.iter().filter(|e| e.0 == name).count();
            assert_eq!(listed, 1, "{name} is listed {listed} times");
            assert!(find(name).is_some() && name != "all", "{name}");
        }
        assert!(find("fig9_nothing").is_none());
    }

    /// Every `experiments <name>` the README tells a reader to run exists, and the
    /// README's reproduction table covers the whole table here.
    #[test]
    fn readme_names_every_experiment_and_nothing_else() {
        let readme = include_str!("../../../README.md");
        // Both spellings a reader can paste: `experiments <name>` and `… -- <name>`.
        let mentioned: Vec<&str> = readme
            .split("`experiments ")
            .skip(1)
            .chain(readme.split("--bin experiments -- ").skip(1))
            .filter_map(|rest| {
                rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
            })
            .filter(|name| !name.is_empty() && *name != "all")
            .collect();
        for name in &mentioned {
            assert!(
                find(name).is_some(),
                "README mentions unknown experiment {name}"
            );
        }
        for (name, ..) in EXPERIMENTS {
            assert!(
                mentioned.contains(name),
                "README's reproduction table lacks {name}"
            );
        }
    }
}
