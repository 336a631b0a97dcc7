//! Fig. 8: end-to-end execution time of six graph analytics (HC, KC, LP, PR, SCC, WCC)
//! on the WDC12 proxy under four placement strategies — EdgeBlock, Random, VertexBlock
//! and XtraPuLP (including its partitioning time) — all resolved through the method
//! registry and partitioned on one persistent session.

use xtrapulp::{InitStrategy, PartitionParams};
use xtrapulp_analytics::run_suite_with_partition;
use xtrapulp_api::{Method, Session};
use xtrapulp_bench::{emit_json, fmt, print_table, scaled, time_job};
use xtrapulp_gen::{GraphConfig, GraphKind};

fn main() {
    let n = scaled(1 << 15);
    let el = GraphConfig::new(
        GraphKind::WebCrawl {
            num_vertices: n,
            avg_degree: 16,
            community_size: 512,
        },
        51,
    )
    .generate();
    let csr = el.to_csr();
    let nranks = 8;
    let mut session = Session::new(nranks).expect("valid rank count");

    // As in the paper, XtraPuLP is initialised from the vertex-block placement and only
    // the balancing stages run; the naive strategies cost no partitioning time.
    let params = PartitionParams {
        num_parts: nranks,
        init: InitStrategy::VertexBlock,
        seed: 5,
        ..Default::default()
    };
    let strategies = [
        Method::EdgeBlock,
        Method::Random,
        Method::VertexBlock,
        Method::XtraPulp,
    ];
    let mut rows = Vec::new();
    for method in strategies {
        let (secs, report) = time_job(&mut session, method, &csr, &params);
        emit_json("fig8_analytics", "wdc12-proxy", &report);
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
        let mut row = vec![method.to_string()];
        for a in &result.analytics {
            row.push(format!("{} {:.2}s", a.name, a.seconds));
        }
        row.push(fmt(result.partition_seconds));
        row.push(fmt(result.total_seconds()));
        rows.push(row);
    }
    print_table(
        "Fig. 8 — analytics end-to-end time on the WDC12 proxy (8 ranks)",
        &[
            "strategy",
            "HC",
            "KC",
            "LP",
            "PR",
            "SCC",
            "WCC",
            "partition (s)",
            "total (s)",
        ],
        &rows,
    );
}
