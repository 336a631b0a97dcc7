//! Criterion micro-benchmarks of the substrate kernels: CSR construction, distributed
//! graph construction, BFS and the XtraPuLP initialisation.

use criterion::{criterion_group, criterion_main, Criterion};
use xtrapulp::{init::init_partition, PartitionParams};
use xtrapulp_comm::Runtime;
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{bfs::dist_bfs, csr_from_edges, DistGraph, Distribution};

fn bench_kernels(c: &mut Criterion) {
    let el = GraphConfig::new(
        GraphKind::Rmat {
            scale: 13,
            edge_factor: 8,
        },
        3,
    )
    .generate();
    let n = el.num_vertices;

    let mut group = c.benchmark_group("kernels_rmat13");
    group.sample_size(10);
    group.bench_function("csr_build", |b| b.iter(|| csr_from_edges(n, &el.edges)));
    group.bench_function("dist_graph_build_4ranks", |b| {
        b.iter(|| {
            Runtime::run(4, |ctx| {
                DistGraph::from_shared_edges(ctx, Distribution::Hashed, n, &el.edges).n_ghost()
            })
        })
    });
    group.bench_function("dist_bfs_4ranks", |b| {
        b.iter(|| {
            Runtime::run(4, |ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, n, &el.edges);
                dist_bfs(ctx, &g, 0).expect("ranks built one graph").reached
            })
        })
    });
    group.bench_function("xtrapulp_init_4ranks", |b| {
        b.iter(|| {
            Runtime::run(4, |ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, n, &el.edges);
                init_partition(ctx, &g, &PartitionParams::with_parts(16))
                    .expect("ranks built one graph")
                    .len()
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
