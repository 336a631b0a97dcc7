//! Partition initialisation strategies (Algorithm 2 of the paper).
//!
//! XtraPuLP's initialisation is a hybrid of unconstrained label propagation and
//! BFS-based graph growing: every rank draws the same `p` unique random root vertices
//! from the same gathered candidate list and seed, so no broadcast is needed; each root
//! seeds one part; in each bulk-synchronous round every unassigned vertex that sees at
//! least one assigned neighbour adopts a *random*
//! neighbouring part (randomising, rather than taking the majority label, gives more
//! balanced initial parts). Vertices still unassigned when growth stalls (disconnected
//! components) are assigned randomly. The paper credits this initialisation with a
//! substantial quality improvement on some graphs (e.g. wdc12-pay).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, GlobalId, LocalId, UNASSIGNED};

use crate::error::PartitionError;
use crate::exchange::{push_part_updates, refresh_ghost_parts, PartUpdate};
use crate::params::{InitStrategy, PartitionParams};

/// Produce the initial part assignment for this rank's owned + ghost vertices.
///
/// The returned vector has length `graph.n_total()` and every entry is a valid part id
/// (no `UNASSIGNED` values remain). The only failure is a corrupt boundary exchange. Must
/// be called collectively.
pub fn init_partition(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
) -> Result<Vec<i32>, PartitionError> {
    match params.init {
        InitStrategy::BfsGrow => bfs_grow_init(ctx, graph, params),
        InitStrategy::Random => random_init(ctx, graph, params),
        InitStrategy::VertexBlock => Ok(block_init(ctx, graph, params)),
    }
}

/// Uniform random initial assignment (each owned vertex gets an independent random part).
fn random_init(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
) -> Result<Vec<i32>, PartitionError> {
    let p = params.num_parts;
    let mut rng = SmallRng::seed_from_u64(params.seed ^ (ctx.rank() as u64).wrapping_mul(0x9E37));
    let mut parts = vec![UNASSIGNED; graph.n_total()];
    for part in parts.iter_mut().take(graph.n_owned()) {
        *part = rng.gen_range(0..p) as i32;
    }
    refresh_ghost_parts(ctx, graph, &mut parts)?;
    Ok(parts)
}

/// Contiguous block initial assignment by global vertex id.
fn block_init(_ctx: &RankCtx, graph: &DistGraph, params: &PartitionParams) -> Vec<i32> {
    let p = params.num_parts as u64;
    let n = graph.global_n().max(1);
    let part_of =
        |g: GlobalId| -> i32 { ((g as u128 * p as u128 / n as u128) as u64).min(p - 1) as i32 };
    let mut parts = vec![UNASSIGNED; graph.n_total()];
    for (v, part) in parts.iter_mut().enumerate() {
        *part = part_of(graph.global_id(v as LocalId));
    }
    parts
}

/// The paper's hybrid BFS-growing / label-propagation initialisation (Algorithm 2).
fn bfs_grow_init(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
) -> Result<Vec<i32>, PartitionError> {
    let p = params.num_parts;
    let n = graph.global_n();
    let rank = ctx.rank();

    // Every rank draws the same p unique random roots from the global vertex set: the
    // candidate list below is identical on every rank, and so are its sort and the
    // seeded shuffle, so the roots need no broadcast (the paper's rank 0 draws and
    // broadcasts them). Roots are preferentially drawn from non-isolated vertices: a
    // part seeded on a zero-degree vertex could never grow, which wastes a part and
    // burdens the balance stage. (The paper selects uniformly; at its scales isolated
    // vertices are a vanishing fraction, at ours they are not.)
    let mut roots: Vec<GlobalId> = {
        // Every rank contributes its owned non-isolated vertices; small graphs make this
        // cheap, and it keeps root selection independent of the rank count.
        let mine: Vec<GlobalId> = (0..graph.n_owned())
            .filter(|&v| graph.degree_owned(v as LocalId) > 0)
            .map(|v| graph.global_id(v as LocalId))
            .collect();
        ctx.allgatherv(mine)
    };
    if roots.is_empty() {
        roots = (0..n).collect();
    } else {
        roots.sort_unstable();
    }
    if p < roots.len() {
        roots.shuffle(&mut SmallRng::seed_from_u64(params.seed));
        roots.truncate(p);
    }

    let mut parts = vec![UNASSIGNED; graph.n_total()];
    let mut seed_updates: Vec<PartUpdate> = Vec::new();
    for (i, &root) in roots.iter().enumerate() {
        if let Some(lid) = graph.owned_local_id(root) {
            let part = (i % p) as i32;
            parts[lid as usize] = part;
            seed_updates.push((lid, part));
        }
    }
    push_part_updates(ctx, graph, &seed_updates, &[], &mut parts, None)?;

    let mut rng = SmallRng::seed_from_u64(
        params.seed ^ 0xDEAD_BEEF ^ (rank as u64).wrapping_mul(0x85EB_CA6B),
    );
    // Grow parts breadth-first until no rank makes progress. The number of rounds is
    // bounded by the graph diameter. Assignments made during a round become visible only
    // at the end of the round (level-synchronous growth): letting them cascade within the
    // sweep would allow a single part — typically the one containing a low-id hub — to
    // flood most of the graph in the very first round, producing the badly imbalanced
    // seeds the balance stage then struggles to repair.
    loop {
        let mut updates: Vec<PartUpdate> = Vec::new();
        let mut candidate_parts: Vec<i32> = Vec::new();
        for v in 0..graph.n_owned() {
            if parts[v] != UNASSIGNED {
                continue;
            }
            candidate_parts.clear();
            for &u in graph.neighbors(v as LocalId) {
                let pu = parts[u as usize];
                if pu != UNASSIGNED {
                    candidate_parts.push(pu);
                }
            }
            if let Some(&w) = candidate_parts.choose(&mut rng) {
                updates.push((v as LocalId, w));
            }
        }
        // Apply this round's assignments now that the scan is complete.
        for &(v, w) in &updates {
            parts[v as usize] = w;
        }
        let local_updates = updates.len() as u64;
        push_part_updates(ctx, graph, &updates, &[], &mut parts, None)?;
        let global_updates = ctx.allreduce_scalar_sum_u64(local_updates);
        if global_updates == 0 {
            break;
        }
    }

    // Any vertex still unassigned (isolated vertices, or components containing no root)
    // gets a uniform random part.
    let mut leftover_updates: Vec<PartUpdate> = Vec::new();
    for (v, part) in parts.iter_mut().enumerate().take(graph.n_owned()) {
        if *part == UNASSIGNED {
            let w = rng.gen_range(0..p) as i32;
            *part = w;
            leftover_updates.push((v as LocalId, w));
        }
    }
    push_part_updates(ctx, graph, &leftover_updates, &[], &mut parts, None)?;
    // Ghosts of vertices that were never pushed (e.g. assigned before their neighbourhood
    // was built) are refreshed wholesale to be safe.
    refresh_ghost_parts(ctx, graph, &mut parts)?;
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::is_valid_partition;
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::Distribution;

    fn init(ctx: &RankCtx, g: &DistGraph, params: &PartitionParams) -> Vec<i32> {
        init_partition(ctx, g, params).unwrap()
    }

    fn grid_edges(w: u64, h: u64) -> Vec<(GlobalId, GlobalId)> {
        let mut e = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let id = y * w + x;
                if x + 1 < w {
                    e.push((id, id + 1));
                }
                if y + 1 < h {
                    e.push((id, id + w));
                }
            }
        }
        e
    }

    fn check_strategy(strategy: InitStrategy, nranks: usize) {
        let n = 64u64;
        let edges = grid_edges(8, 8);
        let out = Runtime::new(nranks).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let params = PartitionParams {
                num_parts: 4,
                init: strategy,
                ..Default::default()
            };
            let parts = init(ctx, &g, &params);
            assert_eq!(parts.len(), g.n_total());
            assert!(
                is_valid_partition(&parts, 4),
                "{strategy:?} left invalid labels"
            );
            // Ghost labels must agree with the owners' labels.
            let mut refreshed = parts.clone();
            g.refresh_ghosts(ctx, &mut refreshed).unwrap();
            assert_eq!(parts, refreshed, "ghost out of sync");
            // Return global (id, part) pairs to check global coverage.
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), parts[v]))
                .collect::<Vec<_>>()
        });
        let mut global_parts = vec![-1i32; n as usize];
        for rank_pairs in out {
            for (g, p) in rank_pairs {
                global_parts[g as usize] = p;
            }
        }
        assert!(is_valid_partition(&global_parts, 4));
        // Every part should be non-empty for this size.
        for part in 0..4 {
            assert!(
                global_parts.contains(&part),
                "{strategy:?}: part {part} is empty"
            );
        }
    }

    #[test]
    fn bfs_grow_initialisation_is_valid() {
        check_strategy(InitStrategy::BfsGrow, 1);
        check_strategy(InitStrategy::BfsGrow, 3);
    }

    #[test]
    fn random_initialisation_is_valid() {
        check_strategy(InitStrategy::Random, 2);
    }

    #[test]
    fn block_initialisation_is_valid_and_contiguous() {
        check_strategy(InitStrategy::VertexBlock, 2);
        // Block init on a path graph should produce contiguous ranges.
        let edges: Vec<_> = (0..15u64).map(|i| (i, i + 1)).collect();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 16, &edges);
            let params = PartitionParams {
                num_parts: 4,
                init: InitStrategy::VertexBlock,
                ..Default::default()
            };
            let parts = init(ctx, &g, &params);
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), parts[v]))
                .collect::<Vec<_>>()
        });
        let mut global = vec![0i32; 16];
        for pairs in out {
            for (g, p) in pairs {
                global[g as usize] = p;
            }
        }
        assert_eq!(global, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn bfs_grow_assigns_disconnected_components() {
        // Two disconnected cliques and an isolated vertex: growth from roots cannot reach
        // everything, so the random fallback must kick in.
        let edges = vec![(0u64, 1u64), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)];
        Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 8, &edges);
            let params = PartitionParams {
                num_parts: 3,
                seed: 5,
                ..Default::default()
            };
            let parts = init(ctx, &g, &params);
            assert!(is_valid_partition(&parts[..g.n_owned()], 3));
        });
    }

    #[test]
    fn more_parts_than_vertices_is_handled() {
        let edges = vec![(0u64, 1u64), (1, 2)];
        Runtime::new(1).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 3, &edges);
            let params = PartitionParams {
                num_parts: 8,
                ..Default::default()
            };
            let parts = init(ctx, &g, &params);
            assert!(is_valid_partition(&parts, 8));
        });
    }

    #[test]
    fn initialisation_is_deterministic_for_fixed_seed() {
        let edges = grid_edges(6, 6);
        let run = || {
            Runtime::new(2).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 36, &edges);
                let params = PartitionParams {
                    num_parts: 4,
                    seed: 99,
                    ..Default::default()
                };
                init(ctx, &g, &params)
            })
        };
        assert_eq!(run(), run());
    }
}
