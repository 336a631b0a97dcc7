//! Measures what the frontier-driven sweep engine buys over the legacy full-sweep
//! schedule (`PartitionParams::sweep_mode`), on the serial PuLP engine where the sweep
//! loop is the entire cost:
//!
//! * `cold_full_*` vs `cold_frontier_*` — the same cold partition under both modes, on
//!   a community-structured webcrawl proxy (frontiers collapse; the headline case) and
//!   a hub-skewed Barabási–Albert proxy (the adversarial case: frontiers stay large).
//! * `warm_blind` vs `warm_touched` — a warm start without delta information
//!   (conservative whole-graph frontier seed) against one whose frontier is scoped to
//!   the delta-touched neighbourhood, which is where the `O(active work)` property
//!   shows: the touched run scores a few thousand vertices instead of the graph.
//!
//! The `perf_smoke` binary checks the same quantities against a recorded baseline in
//! CI; `fig_dynamic --json` and `fig1_strong_scaling --json` report them for the
//! distributed engine.

use criterion::{criterion_group, criterion_main, Criterion};
use xtrapulp::{try_pulp_run, PartitionParams, SweepMode};
use xtrapulp_bench::scaled;
use xtrapulp_gen::{GraphConfig, GraphKind};

fn bench_sweep(c: &mut Criterion) {
    let graphs = vec![
        (
            "webcrawl14",
            GraphConfig::new(
                GraphKind::WebCrawl {
                    num_vertices: scaled(1 << 14),
                    avg_degree: 16,
                    community_size: 512,
                },
                77,
            )
            .generate()
            .to_csr(),
        ),
        (
            "ba14",
            GraphConfig::new(
                GraphKind::BarabasiAlbert {
                    num_vertices: scaled(1 << 14),
                    edges_per_vertex: 8,
                },
                77,
            )
            .generate()
            .to_csr(),
        ),
    ];

    let mut group = c.benchmark_group("sweep_engine_16parts");
    group.sample_size(10);
    for (name, csr) in &graphs {
        for (label, mode) in [("full", SweepMode::Full), ("frontier", SweepMode::Frontier)] {
            let params = PartitionParams {
                num_parts: 16,
                seed: 29,
                sweep_mode: mode,
                ..Default::default()
            };
            group.bench_function(format!("cold_{label}_{name}"), |b| {
                b.iter(|| try_pulp_run(csr, &params, None).unwrap())
            });
        }
    }

    // Warm starts on the webcrawl proxy: blind (no delta info) vs touched-scoped.
    let (name, csr) = &graphs[0];
    let params = PartitionParams {
        num_parts: 16,
        seed: 29,
        ..Default::default()
    };
    let seed_parts = try_pulp_run(csr, &params, None)
        .expect("valid params")
        .parts;
    let touched: Vec<u64> = (0..32u64).collect();
    group.bench_function(format!("warm_blind_{name}"), |b| {
        b.iter(|| try_pulp_run(csr, &params, Some((&seed_parts, None))).unwrap())
    });
    group.bench_function(format!("warm_touched_{name}"), |b| {
        b.iter(|| try_pulp_run(csr, &params, Some((&seed_parts, Some(&touched)))).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
