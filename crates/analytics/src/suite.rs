//! The Fig. 8 end-to-end analytics harness: run the six analytics on a graph distributed
//! according to a chosen partitioning strategy and record per-analytic wall-clock time
//! and communication volume.

use std::time::Instant;

use xtrapulp_comm::{RankCtx, Runtime};
use xtrapulp_graph::{DistGraph, Distribution, GlobalId, HaloError};

use crate::algorithms::{
    harmonic_centrality, kcore_approx, label_propagation, largest_component, pagerank, wcc,
};
use crate::in_process;

/// Timing (and traffic) of one analytic under one partitioning strategy.
#[derive(Debug, Clone)]
pub struct AnalyticResult {
    /// Analytic name (HC, KC, LP, PR, SCC, WCC).
    pub name: &'static str,
    /// Wall-clock seconds (maximum over ranks).
    pub seconds: f64,
    /// Total bytes exchanged across all ranks while the analytic ran.
    pub comm_bytes: u64,
}

/// Results of running the whole suite under one strategy.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Strategy name (EdgeBlock, Random, VertBlock, XtraPuLP, ...).
    pub strategy: String,
    /// Seconds spent computing the partition itself (zero for the naive strategies).
    pub partition_seconds: f64,
    /// Per-analytic results, in a fixed order.
    pub analytics: Vec<AnalyticResult>,
}

impl SuiteResult {
    /// End-to-end time: partitioning plus every analytic.
    pub fn total_seconds(&self) -> f64 {
        self.partition_seconds + self.analytics.iter().map(|a| a.seconds).sum::<f64>()
    }
}

/// Run the six analytics of Fig. 8 on the given distributed graph. `hc_sources` bounds
/// the number of harmonic-centrality BFS sources (the paper uses 100 on WDC12; scale to
/// the graph at hand). Fails only when a halo exchange is rejected (a peer names a ghost
/// slot this rank does not have).
pub fn run_suite(
    ctx: &RankCtx,
    graph: &DistGraph,
    hc_sources: usize,
) -> Result<Vec<AnalyticResult>, HaloError> {
    let mut results = Vec::new();
    // HC: harmonic centrality of a sample of sources (paper: 100 vertices).
    let sources = hc_source_sample(graph.global_n(), hc_sources);
    timed(ctx, &mut results, "HC", || {
        harmonic_centrality(ctx, graph, &sources)
    })?;
    // KC: approximate k-core decomposition.
    timed(ctx, &mut results, "KC", || kcore_approx(ctx, graph, 30))?;
    // LP: label-propagation community detection.
    timed(ctx, &mut results, "LP", || {
        label_propagation(ctx, graph, 10)
    })?;
    // PR: PageRank.
    timed(ctx, &mut results, "PR", || pagerank(ctx, graph, 20, 0.85))?;
    // SCC: largest (strongly = weakly, undirected) connected component extraction.
    timed(ctx, &mut results, "SCC", || largest_component(ctx, graph))?;
    // WCC: weakly connected components.
    timed(ctx, &mut results, "WCC", || wcc(ctx, graph))?;
    Ok(results)
}

/// Run one analytic collectively and record its slowest rank's seconds and the payload
/// bytes every rank sent during it.
fn timed<T>(
    ctx: &RankCtx,
    results: &mut Vec<AnalyticResult>,
    name: &'static str,
    analytic: impl FnOnce() -> Result<T, HaloError>,
) -> Result<(), HaloError> {
    let before = ctx.stats().bytes_sent();
    let t = Instant::now(); // lint: nondeterministic-ok — wall-clock feeds the suite report only
    analytic()?;
    let seconds = ctx.allreduce_max_f64(&[t.elapsed().as_secs_f64()])[0];
    let comm_bytes = ctx.allreduce_scalar_sum_u64(ctx.stats().bytes_sent_since(before));
    results.push(AnalyticResult {
        name,
        seconds,
        comm_bytes,
    });
    Ok(())
}

/// The distinct harmonic-centrality BFS sources: up to `want` *unique* vertices,
/// deterministically strided through `0..global_n`.
///
/// The previous sampler mapped `i` to `(i * 977) % global_n` directly, which repeats
/// sources whenever `want >= global_n` or `gcd(977, global_n) > 1` (e.g. any graph whose
/// vertex count is a multiple of 977 collapses the whole sample to a few residues) —
/// skewing the HC timing with redundant BFS runs from the same vertex. The stride walk
/// below visits every residue of the coprime cycle first and tops up from the remaining
/// ids, so the sample is always `min(want, global_n)` distinct vertices.
fn hc_source_sample(global_n: u64, want: usize) -> Vec<GlobalId> {
    let n = global_n.max(1);
    let want = (want as u64).min(n) as usize;
    // Memory stays O(want), not O(global_n) — the sample is ~100 sources on
    // billion-vertex graphs. 977 is prime, so the stride walk's first
    // `n / gcd(977, n)` values are all distinct; beyond that it only repeats.
    let cycle = if n.is_multiple_of(977) { n / 977 } else { n };
    let mut seen = std::collections::HashSet::with_capacity(want);
    let mut sources = Vec::with_capacity(want);
    for i in 0..cycle {
        if sources.len() >= want {
            break;
        }
        let v = (i * 977) % n;
        if seen.insert(v) {
            sources.push(v);
        }
    }
    // gcd(977, n) > 1 leaves whole residue classes unvisited; fill from the front.
    for v in 0..n {
        if sources.len() >= want {
            break;
        }
        if seen.insert(v) {
            sources.push(v);
        }
    }
    sources
}

/// Build the graph with ownership given by `parts` (one rank per part) and run the suite.
/// `parts` must map every global vertex to a rank in `0..nranks`.
pub fn run_suite_with_partition(
    nranks: usize,
    global_n: u64,
    edges: &[(GlobalId, GlobalId)],
    parts: &[i32],
    strategy: &str,
    partition_seconds: f64,
    hc_sources: usize,
) -> SuiteResult {
    let dist = Distribution::from_parts(parts);
    let per_rank = Runtime::new(nranks).execute(|ctx| {
        let graph = DistGraph::from_shared_edges(ctx, dist.clone(), global_n, edges);
        in_process(run_suite(ctx, &graph, hc_sources))
    });
    // All ranks report identical (allreduced) numbers; take rank 0's.
    SuiteResult {
        strategy: strategy.to_string(),
        partition_seconds,
        analytics: per_rank.into_iter().next().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp::PartitionParams;
    use xtrapulp_api::{Method, PartitionJob, Session};
    use xtrapulp_gen::{GraphConfig, GraphKind};

    #[test]
    fn suite_runs_under_all_fig8_strategies() {
        let el = GraphConfig::new(
            GraphKind::WebCrawl {
                num_vertices: 1 << 10,
                avg_degree: 8,
                community_size: 64,
            },
            3,
        )
        .generate();
        let csr = el.to_csr();
        let nranks = 4;
        let n = el.num_vertices;

        // The Fig. 8 placement strategies, resolved through the registry and
        // partitioned on one session.
        let mut session = Session::new(nranks).expect("valid rank count");
        let params = PartitionParams {
            num_parts: nranks,
            seed: 5,
            ..Default::default()
        };
        let mut totals = Vec::new();
        for method in [
            Method::EdgeBlock,
            Method::Random,
            Method::VertexBlock,
            Method::XtraPulp,
        ] {
            let report = session
                .submit(&PartitionJob::new(method).with_params(params), &csr)
                .expect("valid job");
            let result = run_suite_with_partition(
                nranks,
                n,
                &el.edges,
                &report.parts,
                method.name(),
                0.0,
                4,
            );
            assert_eq!(result.analytics.len(), 6);
            assert!(result.analytics.iter().all(|a| a.seconds >= 0.0));
            totals.push((method, result));
        }
        // The XtraPuLP distribution should move fewer bytes than the random one for the
        // communication-bound analytics (PR + LP + WCC combined).
        let comm = |r: &SuiteResult| -> u64 {
            r.analytics
                .iter()
                .filter(|a| ["PR", "LP", "WCC"].contains(&a.name))
                .map(|a| a.comm_bytes)
                .sum()
        };
        let random_comm = comm(&totals[1].1);
        let xtrapulp_comm = comm(&totals[3].1);
        assert!(
            xtrapulp_comm < random_comm,
            "XtraPuLP distribution should cut communication: {xtrapulp_comm} vs {random_comm}"
        );
    }

    #[test]
    fn hc_sources_are_unique_even_under_pathological_vertex_counts() {
        // gcd(977, 977) = 977: the old sampler returned `hc_sources` copies of vertex 0.
        let s = hc_source_sample(977, 10);
        let unique: std::collections::BTreeSet<_> = s.iter().copied().collect();
        assert_eq!(s.len(), 10);
        assert_eq!(unique.len(), 10);

        // gcd(977, 1954) = 977: only two residues are reachable by the stride walk;
        // the top-up must still produce distinct sources.
        let s = hc_source_sample(1954, 8);
        assert_eq!(
            s.iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            8
        );

        // More sources requested than vertices exist: clamp, don't repeat.
        let s = hc_source_sample(5, 100);
        assert_eq!(s.len(), 5);
        assert_eq!(
            s.iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            5
        );
        for &v in &s {
            assert!(v < 5);
        }
    }

    #[test]
    fn comm_accounting_saturates_instead_of_wrapping() {
        // Counters reset between the `before` capture and the read: the delta must
        // clamp to zero, not panic (debug) or wrap to ~u64::MAX (release). The suite
        // records per-analytic traffic through this shared helper.
        let stats = xtrapulp_comm::CommStats::new();
        assert_eq!(stats.bytes_sent(), 0);
        assert_eq!(stats.bytes_sent_since(200), 0);
    }

    #[test]
    fn suite_result_totals_include_partitioning_time() {
        let r = SuiteResult {
            strategy: "X".into(),
            partition_seconds: 1.5,
            analytics: vec![AnalyticResult {
                name: "PR",
                seconds: 2.0,
                comm_bytes: 10,
            }],
        };
        assert!((r.total_seconds() - 3.5).abs() < 1e-12);
    }
}
