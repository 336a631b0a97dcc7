//! Sparse matrix–vector multiplication with different matrix layouts (the Table III
//! scenario): 1-D and 2-D distributions built from block, random and XtraPuLP partitions.
//!
//! Run with: `cargo run --release --example spmv_layouts`

use xtrapulp_suite::core::baselines;
use xtrapulp_suite::prelude::*;
use xtrapulp_suite::spmv::{spmv_1d_with_partition, spmv_2d, Matrix2d};

fn main() {
    let el = GraphConfig::new(
        GraphKind::Rmat {
            scale: 13,
            edge_factor: 16,
        },
        5,
    )
    .generate();
    let csr = el.to_csr();
    let n = el.num_vertices;
    let edges: Vec<(u64, u64)> = csr.edges().collect();
    let nranks = 4;
    let iterations = 50;

    let params = PartitionParams::with_parts(nranks);
    let strategies: Vec<(&str, Vec<i32>)> = vec![
        ("Block", baselines::vertex_block_partition(n, nranks)),
        ("Random", baselines::random_partition(n, nranks, 3)),
        (
            "XtraPuLP",
            Session::new(nranks)
                .and_then(|mut session| session.partition(&csr, &params))
                .expect("valid parameters")
                .parts,
        ),
    ];

    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "strategy", "1D time (s)", "2D time (s)", "1D comm (MB)", "2D comm (MB)"
    );
    for (name, parts) in &strategies {
        let out = Runtime::new(nranks).execute(|ctx| {
            let r1 = spmv_1d_with_partition(ctx, n, &edges, parts, iterations)
                .expect("in-process ranks agree on the halo");
            let m = Matrix2d::build(ctx, n, &edges, parts);
            let r2 = spmv_2d(ctx, &m, iterations);
            (r1, r2)
        });
        let (r1, r2) = out[0];
        println!(
            "{name:<10} {:>12.3} {:>12.3} {:>14.2} {:>14.2}",
            r1.seconds,
            r2.seconds,
            r1.comm_bytes as f64 / 1e6,
            r2.comm_bytes as f64 / 1e6
        );
    }
}
