//! Criterion benchmark backing Table III: 1-D vs 2-D SpMV under random vs XtraPuLP
//! distributions.

use criterion::{criterion_group, criterion_main, Criterion};
use xtrapulp::{baselines, PartitionParams, Partitioner, XtraPulpPartitioner};
use xtrapulp_comm::Runtime;
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_spmv::{spmv_1d_with_partition, spmv_2d, Matrix2d};

fn bench_spmv(c: &mut Criterion) {
    let el = GraphConfig::new(
        GraphKind::Rmat {
            scale: 12,
            edge_factor: 16,
        },
        13,
    )
    .generate();
    let csr = el.to_csr();
    let n = el.num_vertices;
    let edges: Vec<(u64, u64)> = csr.edges().collect();
    let nranks = 4;
    let random = baselines::random_partition(n, nranks, 3);
    let params = PartitionParams {
        num_parts: nranks,
        seed: 3,
        ..Default::default()
    };
    let xtrapulp = XtraPulpPartitioner::new(nranks).partition(&csr, &params);

    let mut group = c.benchmark_group("spmv_rmat12_4ranks_10iters");
    group.sample_size(10);
    for (name, parts) in [("rand", &random), ("xtrapulp", &xtrapulp)] {
        group.bench_function(format!("1d_{name}"), |b| {
            b.iter(|| {
                Runtime::run(nranks, |ctx| {
                    spmv_1d_with_partition(ctx, n, &edges, parts, 10)
                        .expect("in-process ranks agree on the halo")
                })
            })
        });
        group.bench_function(format!("2d_{name}"), |b| {
            b.iter(|| {
                Runtime::run(nranks, |ctx| {
                    let m = Matrix2d::build(ctx, n, &edges, parts);
                    spmv_2d(ctx, &m, 10)
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
