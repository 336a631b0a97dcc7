//! Table III: time for 100 SpMV operations under 1-D and 2-D matrix distributions built
//! from Block / Random / MetisLike / XtraPuLP partitions, at several rank counts. The
//! placement partitions are produced through the method registry on one session.

use xtrapulp::PartitionParams;
use xtrapulp_api::{Method, Session};
use xtrapulp_bench::{fmt, print_table, proxy_graph, time_job};
use xtrapulp_comm::Runtime;
use xtrapulp_spmv::{spmv_1d_with_partition, spmv_2d, Matrix2d};

fn main() {
    let graphs = ["lj", "orkut", "wdc12-pay", "rmat_24", "nlpkkt240"];
    let rank_counts = [4usize, 8, 16];
    let iterations = 100;
    let strategies = [
        Method::VertexBlock,
        Method::Random,
        Method::MetisLike,
        Method::XtraPulp,
    ];
    let mut rows = Vec::new();
    for name in graphs {
        let csr = proxy_graph(name);
        let n = csr.num_vertices() as u64;
        let edges: Vec<(u64, u64)> = csr.edges().collect();
        for &nranks in &rank_counts {
            let params = PartitionParams {
                num_parts: nranks,
                seed: 19,
                ..Default::default()
            };
            let mut session = Session::new(nranks).expect("valid rank count");
            let mut row = vec![name.to_string(), nranks.to_string()];
            let mut rand_1d = 0.0;
            let mut xtra_2d = 0.0;
            for method in strategies {
                let (_, report) = time_job(&mut session, method, &csr, &params);
                let parts = report.parts;
                let (t1, t2) = {
                    let out = Runtime::run(nranks, |ctx| {
                        let r1 = spmv_1d_with_partition(ctx, n, &edges, &parts, iterations)
                            .expect("in-process ranks agree on the halo");
                        let m = Matrix2d::build(ctx, n, &edges, &parts);
                        let r2 = spmv_2d(ctx, &m, iterations);
                        (r1.seconds, r2.seconds)
                    });
                    out[0]
                };
                if method == Method::Random {
                    rand_1d = t1;
                }
                if method == Method::XtraPulp {
                    xtra_2d = t2;
                }
                row.push(format!("{}/{}", fmt(t1), fmt(t2)));
            }
            row.push(fmt(rand_1d / xtra_2d.max(1e-9)));
            rows.push(row);
        }
    }
    print_table(
        &format!("Table III — time (s) for {iterations} SpMVs, formatted 1D/2D per strategy"),
        &[
            "graph",
            "ranks",
            "Block 1D/2D",
            "Rand 1D/2D",
            "PM 1D/2D",
            "XtraPuLP 1D/2D",
            "2D-XtraPuLP speedup over 1D-Rand",
        ],
        &rows,
    );
}
