//! Serial and distributed breadth-first search.
//!
//! BFS is used in three places in the reproduction, mirroring the paper: the
//! graph-growing flavour of the XtraPuLP initialisation, the iterative-BFS diameter
//! estimate of Table I, and several of the analytics (harmonic centrality, weakly
//! connected components seeds).

use xtrapulp_comm::RankCtx;

use crate::{Csr, DistGraph, GlobalId, HaloError, LocalId};

/// Level returned for vertices not reachable from the BFS root.
pub const UNREACHED: i64 = -1;

/// Serial BFS over a [`Csr`] from `root`, returning the level of every vertex
/// (`UNREACHED` for unreachable vertices).
pub fn bfs_levels(csr: &Csr, root: GlobalId) -> Vec<i64> {
    let n = csr.num_vertices();
    let mut levels = vec![UNREACHED; n];
    if n == 0 {
        return levels;
    }
    assert!((root as usize) < n, "BFS root out of range");
    let mut frontier = vec![root];
    levels[root as usize] = 0;
    let mut level = 0i64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in csr.neighbors(u) {
                if levels[v as usize] == UNREACHED {
                    levels[v as usize] = level;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    levels
}

/// Result of a distributed BFS on one rank.
#[derive(Debug, Clone)]
pub struct DistBfs {
    /// BFS level of every owned vertex (`UNREACHED` if unreachable). Indexed by local id.
    pub levels: Vec<i64>,
    /// Number of supersteps executed (equals the eccentricity of the root + 1 for
    /// reachable graphs).
    pub supersteps: u64,
    /// Number of vertices reached globally (including the root).
    pub reached: u64,
}

/// Distributed level-synchronous BFS from the global vertex `root`, over the graph's
/// [`HaloPlan`](crate::HaloPlan).
///
/// Each superstep expands the local frontier through the owned adjacency, and the owner
/// of every frontier vertex pushes a reached flag to the ranks holding it as a ghost;
/// those expand it through the plan's ghost→owned transpose. One message per (boundary
/// vertex, holder rank) over the whole search, resolved by index on arrival — the same
/// exchange as XtraPuLP's `ExchangeUpdates`. A reached flag for a slot outside the ghost
/// range is a [`HaloError`].
pub fn dist_bfs(ctx: &RankCtx, graph: &DistGraph, root: GlobalId) -> Result<DistBfs, HaloError> {
    let halo = graph.halo();
    let mut levels = vec![UNREACHED; graph.n_owned()];
    let mut frontier: Vec<LocalId> = Vec::new();
    if let Some(lid) = graph.owned_local_id(root) {
        levels[lid as usize] = 0;
        frontier.push(lid);
    }
    let mut ghost_reached = vec![0u8; graph.n_ghost()];
    let mut level = 0i64;
    let mut supersteps = 0u64;
    let mut reached = ctx.allreduce_scalar_sum_u64(frontier.len() as u64);

    loop {
        let mut next: Vec<LocalId> = Vec::new();
        let mut reach = |v: LocalId| {
            if levels[v as usize] == UNREACHED {
                levels[v as usize] = level + 1;
                next.push(v);
            }
        };
        for &u in &frontier {
            for &v in graph.neighbors(u) {
                if graph.is_owned(v) {
                    reach(v);
                }
            }
        }
        halo.push(
            ctx,
            frontier.iter().map(|&u| (u, 1u8)),
            &[],
            &mut ghost_reached,
            |slot, _, _| {
                halo.owned_neighbors(slot)
                    .iter()
                    .copied()
                    .for_each(&mut reach)
            },
        )?;
        supersteps += 1;
        let newly = ctx.allreduce_scalar_sum_u64(next.len() as u64);
        reached += newly;
        if newly == 0 {
            break;
        }
        frontier = next;
        level += 1;
    }

    Ok(DistBfs {
        levels,
        supersteps,
        reached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{csr_from_edges, Distribution};
    use xtrapulp_comm::Runtime;

    fn path_edges(n: u64) -> Vec<(GlobalId, GlobalId)> {
        (0..n - 1).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn serial_bfs_on_path() {
        let csr = csr_from_edges(5, &path_edges(5));
        let levels = bfs_levels(&csr, 0);
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
        let levels = bfs_levels(&csr, 2);
        assert_eq!(levels, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn serial_bfs_unreachable_vertices() {
        let csr = csr_from_edges(4, &[(0, 1)]);
        let levels = bfs_levels(&csr, 0);
        assert_eq!(levels, vec![0, 1, UNREACHED, UNREACHED]);
    }

    #[test]
    fn serial_bfs_empty_graph() {
        let csr = csr_from_edges(0, &[]);
        assert!(bfs_levels(&csr, 0).is_empty());
    }

    #[test]
    fn distributed_bfs_matches_serial() {
        let n = 40u64;
        // A cycle plus a few chords.
        let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((0, 20));
        edges.push((5, 35));
        let csr = csr_from_edges(n, &edges);
        let serial = bfs_levels(&csr, 3);

        for nranks in [1usize, 2, 3, 5] {
            let per_rank = Runtime::new(nranks).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, n, &edges);
                let result = dist_bfs(ctx, &g, 3).unwrap();
                // Return (global_id, level) pairs for owned vertices.
                (0..g.n_owned() as LocalId)
                    .map(|v| (g.global_id(v), result.levels[v as usize]))
                    .collect::<Vec<_>>()
            });
            let mut combined = vec![UNREACHED; n as usize];
            for rank_levels in per_rank {
                for (g, l) in rank_levels {
                    combined[g as usize] = l;
                }
            }
            assert_eq!(combined, serial, "nranks={nranks}");
        }
    }

    #[test]
    fn distributed_bfs_counts_reached() {
        let edges = vec![(0u64, 1u64), (1, 2), (3, 4)];
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 5, &edges);
            dist_bfs(ctx, &g, 0).unwrap().reached
        });
        assert!(out.iter().all(|&r| r == 3));
    }

    #[test]
    fn distributed_bfs_root_not_present_everywhere() {
        // The root is owned by exactly one rank; others must still participate correctly.
        let edges = path_edges(10);
        let out = Runtime::new(4).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &edges);
            dist_bfs(ctx, &g, 9).unwrap().reached
        });
        assert!(out.iter().all(|&r| r == 10));
    }
}
