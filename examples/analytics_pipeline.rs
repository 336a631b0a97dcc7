//! End-to-end analytics pipeline (the Fig. 8 scenario): partition a web-crawl proxy, then
//! run PageRank and connected components on the graph redistributed according to the
//! partition, comparing against a random placement.
//!
//! Run with: `cargo run --release --example analytics_pipeline`

use xtrapulp_suite::analytics::{pagerank, wcc};
use xtrapulp_suite::core::baselines;
use xtrapulp_suite::graph::{DistGraph, Distribution};
use xtrapulp_suite::prelude::*;

fn main() {
    let el = GraphConfig::new(
        GraphKind::WebCrawl {
            num_vertices: 1 << 14,
            avg_degree: 16,
            community_size: 256,
        },
        11,
    )
    .generate();
    let csr = el.to_csr();
    let nranks = 4;

    // Compute an XtraPuLP partition and a random placement.
    let params = PartitionParams::with_parts(nranks);
    let xtrapulp_parts = Session::new(nranks)
        .and_then(|mut session| session.partition(&csr, &params))
        .expect("valid parameters")
        .parts;
    let random_parts = baselines::random_partition(el.num_vertices, nranks, 3);

    for (name, parts) in [("XtraPuLP", &xtrapulp_parts), ("Random", &random_parts)] {
        let dist = Distribution::from_parts(parts);
        let results = Runtime::new(nranks).execute(|ctx| {
            let graph = DistGraph::from_shared_edges(ctx, dist.clone(), el.num_vertices, &el.edges);
            let t = std::time::Instant::now();
            let pr = pagerank(ctx, &graph, 20, 0.85).expect("in-process ranks agree on the halo");
            let labels = wcc(ctx, &graph).expect("in-process ranks agree on the halo");
            let seconds = t.elapsed().as_secs_f64();
            let bytes = ctx.stats().bytes_sent();
            let local_max_pr = pr.iter().cloned().fold(0.0f64, f64::max);
            // A component is counted at its representative (smallest id) vertex, on the
            // rank that owns it.
            let components = graph
                .owned_vertices()
                .filter(|&v| labels[v as usize] == graph.global_id(v))
                .count() as u64;
            (seconds, bytes, local_max_pr, components)
        });
        let max_secs = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
        let total_bytes: u64 = results.iter().map(|r| r.1).sum();
        let components: u64 = results.iter().map(|r| r.3).sum();
        println!(
            "{name:<9}: PageRank+WCC took {max_secs:.3}s, {:.1} MB exchanged, {components} components",
            total_bytes as f64 / 1e6
        );
    }
}
