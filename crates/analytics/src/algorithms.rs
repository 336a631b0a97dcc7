//! The six distributed graph analytics used in the paper's end-to-end study (Fig. 8).
//!
//! All of them follow the same bulk-synchronous pattern as the partitioner itself: each
//! rank updates its owned vertices, then refreshes ghost values from their owners before
//! the next superstep. Their communication volume is therefore proportional to the number
//! of cut edges of the distribution the graph was built with — which is exactly why the
//! partitioning strategy matters for their end-to-end time. Each keeps its values in one
//! vector over the graph's local ids — owned first, ghosts after — so a neighbour loop
//! indexes it directly. PageRank and label propagation refresh the ghost tail with a full
//! push over the graph's halo plan ([`DistGraph::refresh_ghosts`]) every superstep; WCC
//! and k-core are the cold forms of the woken-sweep kernels in [`crate::incremental`],
//! which push only the boundary values that changed. Each fails with a [`HaloError`] only
//! when a peer names a ghost slot this rank does not have.

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::bfs::dist_bfs;
use xtrapulp_graph::{DistGraph, GlobalId, HaloError, LocalId};

use crate::incremental::{kcore_tighten, wcc_propagate};

/// Distributed PageRank (`PR` in Fig. 8) with uniform teleport; returns the PageRank of
/// every owned vertex.
///
/// A fixed number of power iterations, every vertex scored each time. A cold
/// [`pagerank_resume`](crate::incremental::pagerank_resume) with `tol = 0` returns the
/// same values, but every vertex stays active in every iteration there, so its wake
/// flags and changed-only pushes cost time and bytes without skipping any work.
pub fn pagerank(
    ctx: &RankCtx,
    graph: &DistGraph,
    iterations: usize,
    damping: f64,
) -> Result<Vec<f64>, HaloError> {
    let n_owned = graph.n_owned();
    let n = graph.global_n() as f64;
    let mut rank_owned = vec![1.0 / n; n_owned];
    // Contribution (rank / degree) of every local vertex: owned first, ghosts after.
    let mut contrib = vec![0.0; graph.n_total()];
    for _ in 0..iterations {
        for (v, contrib_v) in contrib[..n_owned].iter_mut().enumerate() {
            *contrib_v = match graph.degree_owned(v as LocalId) {
                0 => 0.0,
                d => rank_owned[v] / d as f64,
            };
        }
        graph.refresh_ghosts(ctx, &mut contrib)?;
        for (v, rank_v) in rank_owned.iter_mut().enumerate() {
            let mut sum = 0.0;
            for &u in graph.neighbors(v as LocalId) {
                sum += contrib[u as usize];
            }
            *rank_v = (1.0 - damping) / n + damping * sum;
        }
    }
    Ok(rank_owned)
}

/// Distributed weakly connected components (`WCC`): min-label propagation
/// ([`wcc_propagate`]) from every vertex's own global id. Returns the component id
/// (smallest global vertex id in the component) of every owned vertex.
pub fn wcc(ctx: &RankCtx, graph: &DistGraph) -> Result<Vec<u64>, HaloError> {
    let mut labels: Vec<u64> = (0..graph.n_owned())
        .map(|v| graph.global_id(v as LocalId))
        .collect();
    wcc_propagate(ctx, graph, &mut labels)?;
    Ok(labels)
}

/// "Strongly" connected component extraction (`SCC`): the paper treats all edges as
/// undirected, so the largest strongly connected component coincides with the largest
/// weakly connected one; this routine extracts it (returns whether each owned vertex
/// belongs to the largest component, plus its global size).
pub fn largest_component(ctx: &RankCtx, graph: &DistGraph) -> Result<(Vec<bool>, u64), HaloError> {
    let labels = wcc(ctx, graph)?;
    // Count label frequencies globally. Labels are global vertex ids; count locally into a
    // map, then reduce the top candidate by (count, label).
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &l in &labels {
        *counts.entry(l).or_insert(0) += 1;
    }
    // Find the globally most frequent label: allgather the local top candidates and their
    // counts, then locally combine (candidate sets are tiny).
    let local_pairs: Vec<(u64, u64)> = counts.iter().map(|(&l, &c)| (l, c)).collect();
    let all_pairs = ctx.allgatherv(local_pairs);
    let mut combined: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for (l, c) in all_pairs {
        *combined.entry(l).or_insert(0) += c;
    }
    let (&best_label, &best_size) = combined
        .iter()
        .max_by_key(|(&l, &c)| (c, std::cmp::Reverse(l)))
        .unwrap_or((&0, &0));
    let membership = labels.iter().map(|&l| l == best_label).collect();
    Ok((membership, best_size))
}

/// Distributed approximate k-core decomposition (`KC`): at most `max_rounds` rounds of
/// the h-index peeling ([`kcore_tighten`]) from the degrees, each round lowering every
/// vertex's bound to the largest `h` such that at least `h` neighbours have bound `≥ h`.
/// Returns an approximate coreness per owned vertex (the exact one once converged).
pub fn kcore_approx(
    ctx: &RankCtx,
    graph: &DistGraph,
    max_rounds: usize,
) -> Result<Vec<u64>, HaloError> {
    let mut core: Vec<u64> = (0..graph.n_owned())
        .map(|v| graph.degree_owned(v as LocalId))
        .collect();
    kcore_tighten(ctx, graph, &mut core, max_rounds)?;
    Ok(core)
}

/// Distributed label-propagation community detection (`LP`): each vertex adopts the most
/// frequent label among its neighbours for a fixed number of sweeps.
pub fn label_propagation(
    ctx: &RankCtx,
    graph: &DistGraph,
    sweeps: usize,
) -> Result<Vec<u64>, HaloError> {
    let n_owned = graph.n_owned();
    // One label per local vertex: owned first, ghosts after.
    let mut label: Vec<u64> = (0..graph.n_total())
        .map(|v| graph.global_id(v as LocalId))
        .collect();
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for _ in 0..sweeps {
        graph.refresh_ghosts(ctx, &mut label)?;
        let mut changed = 0u64;
        for v in 0..n_owned {
            counts.clear();
            for &u in graph.neighbors(v as LocalId) {
                *counts.entry(label[u as usize]).or_insert(0) += 1;
            }
            if let Some((&best, _)) = counts.iter().max_by_key(|(_, &c)| c) {
                if best != label[v] {
                    label[v] = best;
                    changed += 1;
                }
            }
        }
        if ctx.allreduce_scalar_sum_u64(changed) == 0 {
            break;
        }
    }
    label.truncate(n_owned);
    Ok(label)
}

/// Distributed harmonic centrality (`HC`) of `sources.len()` sampled vertices: for each
/// source, a BFS provides distances and the harmonic sum `Σ 1/d` is accumulated.
/// Returns one centrality value per source, identical on every rank.
pub fn harmonic_centrality(
    ctx: &RankCtx,
    graph: &DistGraph,
    sources: &[GlobalId],
) -> Result<Vec<f64>, HaloError> {
    let mut out = Vec::with_capacity(sources.len());
    for &s in sources {
        let bfs = dist_bfs(ctx, graph, s)?;
        let local_sum: f64 = bfs
            .levels
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1.0 / l as f64)
            .sum();
        let total = ctx.allreduce_sum_f64(&[local_sum])[0];
        out.push(total);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::{csr_from_edges, Distribution};

    /// Two triangles joined by a bridge, plus an isolated pair.
    fn test_edges() -> (u64, Vec<(u64, u64)>) {
        (
            8,
            vec![
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (6, 7),
            ],
        )
    }

    fn gather_owned_u64(out: Vec<Vec<(u64, u64)>>, n: usize) -> Vec<u64> {
        let mut global = vec![0u64; n];
        for pairs in out {
            for (g, v) in pairs {
                global[g as usize] = v;
            }
        }
        global
    }

    #[test]
    fn pagerank_sums_to_one_and_matches_serial_structure() {
        let (n, edges) = test_edges();
        let out = Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, n, &edges);
            let pr = pagerank(ctx, &g, 30, 0.85).unwrap();
            let local_sum: f64 = pr.iter().sum();
            ctx.allreduce_sum_f64(&[local_sum])[0]
        });
        for total in out {
            // Dangling (isolated) vertices leak a little mass; the total stays below 1 and
            // above the teleport floor.
            assert!(total > 0.5 && total <= 1.0 + 1e-9, "total {total}");
        }
    }

    #[test]
    fn pagerank_is_consistent_across_rank_counts() {
        let (n, edges) = test_edges();
        let reference = Runtime::new(1)
            .execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
                pagerank(ctx, &g, 20, 0.85).unwrap()
            })
            .pop()
            .unwrap();
        let out = Runtime::new(4).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let pr = pagerank(ctx, &g, 20, 0.85).unwrap();
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), pr[v]))
                .collect::<Vec<_>>()
        });
        let mut combined = vec![0.0; n as usize];
        for pairs in out {
            for (g, v) in pairs {
                combined[g as usize] = v;
            }
        }
        for (a, b) in reference.iter().zip(combined.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn wcc_finds_three_components() {
        let (n, edges) = test_edges();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let labels = wcc(ctx, &g).unwrap();
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), labels[v]))
                .collect::<Vec<_>>()
        });
        let labels = gather_owned_u64(out, n as usize);
        // Component of the two joined triangles is labelled 0; the isolated pair 6.
        assert_eq!(&labels[..6], &[0, 0, 0, 0, 0, 0]);
        assert_eq!(&labels[6..], &[6, 6]);
    }

    #[test]
    fn largest_component_is_the_joined_triangles() {
        let (n, edges) = test_edges();
        let out = Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, n, &edges);
            largest_component(ctx, &g).unwrap().1
        });
        assert!(out.iter().all(|&s| s == 6));
    }

    #[test]
    fn kcore_of_triangles_is_two() {
        let (n, edges) = test_edges();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let core = kcore_approx(ctx, &g, 20).unwrap();
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), core[v]))
                .collect::<Vec<_>>()
        });
        let core = gather_owned_u64(out, n as usize);
        // Triangle vertices have coreness 2; the isolated edge has coreness 1.
        assert_eq!(core[0], 2);
        assert_eq!(core[4], 2);
        assert_eq!(core[6], 1);
        assert_eq!(core[7], 1);
    }

    #[test]
    fn label_propagation_groups_triangles() {
        let (n, edges) = test_edges();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let labels = label_propagation(ctx, &g, 10).unwrap();
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), labels[v]))
                .collect::<Vec<_>>()
        });
        let labels = gather_owned_u64(out, n as usize);
        // Vertices within one triangle should share a label.
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[6], labels[7]);
    }

    #[test]
    fn harmonic_centrality_matches_hand_computation() {
        // Path 0-1-2: HC(1) = 1/1 + 1/1 = 2, HC(0) = 1/1 + 1/2 = 1.5.
        let edges = vec![(0u64, 1u64), (1, 2)];
        let csr = csr_from_edges(3, &edges);
        assert_eq!(csr.num_edges(), 2);
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 3, &edges);
            harmonic_centrality(ctx, &g, &[0, 1]).unwrap()
        });
        for hc in out {
            assert!((hc[0] - 1.5).abs() < 1e-12);
            assert!((hc[1] - 2.0).abs() < 1e-12);
        }
    }
}
