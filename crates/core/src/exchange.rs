//! The boundary update exchange (`ExchangeUpdates`, Algorithm 3 of the paper).
//!
//! After a rank reassigns some of its owned vertices, every rank that keeps a ghost copy
//! of those vertices must learn the new part labels before the next iteration. Which
//! ranks those are, and where each ghost copy sits in their label arrays, is the graph's
//! own [`HaloPlan`](xtrapulp_graph::HaloPlan) — resolved once, by the handshake that built
//! the graph, and shared with the analytics kernels, which keep PageRank contributions,
//! component labels and coreness bounds coherent through the same `push`. This module is
//! the partitioner's view of it: [`push_part_updates`] ships `(local id on the receiving
//! rank, new part)` — 8 wire bytes per ghost copy — marks the frontier around every ghost
//! whose label actually changed, and reports a rejected slot as
//! [`PartitionError::CorruptExchange`]. [`refresh_ghost_parts`] is the same exchange over
//! every owned vertex.
//!
//! The paper's iteration closes with `ExchangeUpdates` and then an `AllReduce` of the
//! part sizes. Here they are one round: the caller's tally (a sweep's part-load changes,
//! its move count and the frontier it leaves queued) rides in the same frames as the
//! labels and comes back summed over every rank.

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, LocalId};

use crate::error::PartitionError;
use crate::sweep::Frontier;

/// One part reassignment of an owned vertex.
pub type PartUpdate = (LocalId, i32);

/// Push the part labels of locally reassigned vertices to the ranks holding them as
/// ghosts, and apply the symmetric incoming updates to this rank's ghost entries in
/// `parts` (length `n_total`). With a `frontier`, every owned neighbour of a ghost whose
/// label actually changed is marked active for the next sweep — the distributed half of
/// "a vertex is enqueued when it or a neighbour changed part".
///
/// `tally` is summed over every rank in the same round; `&[]` sends a plain label push.
///
/// Returns the number of ghost updates received and the tally's sums. Must be called
/// collectively (one `Alltoallv`).
///
/// An incoming slot that is not a ghost local id is reported as
/// [`PartitionError::CorruptExchange`] and never stored; see
/// [`HaloPlan::push`](xtrapulp_graph::HaloPlan::push) for what that means for the job's
/// collective sequence.
pub fn push_part_updates(
    ctx: &RankCtx,
    graph: &DistGraph,
    updates: &[PartUpdate],
    tally: &[i64],
    parts: &mut [i32],
    mut frontier: Option<&mut Frontier>,
) -> Result<(u64, Vec<i64>), PartitionError> {
    let halo = graph.halo();
    let ghost_parts = &mut parts[graph.n_owned()..graph.n_total()];
    let pushed = halo.push(
        ctx,
        updates.iter().copied(),
        tally,
        ghost_parts,
        |ghost, previous, new| {
            if previous != new {
                if let Some(frontier) = frontier.as_deref_mut() {
                    for &v in halo.owned_neighbors(ghost) {
                        frontier.mark(v);
                    }
                }
            }
        },
    )?;
    Ok(pushed)
}

/// Synchronise all ghost part labels with their owners' (used after non-incremental
/// initialisation, where every label may have changed).
pub fn refresh_ghost_parts(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &mut [i32],
) -> Result<(), PartitionError> {
    Ok(graph.refresh_ghosts(ctx, &mut parts[..graph.n_total()])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::{Distribution, GlobalId};

    fn ring(n: u64) -> Vec<(GlobalId, GlobalId)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    /// The plan itself is checked against the global view in `xtrapulp_graph::halo`;
    /// this covers the partitioner's wrapper: labels land, and the frontier holds the
    /// owned neighbours of exactly the ghosts whose label changed.
    #[test]
    fn updates_reach_all_ghost_copies_and_mark_their_neighbours() {
        let edges = ring(12);
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 12, &edges);
            // Start with everything in part 0 everywhere.
            let mut parts = vec![0i32; g.n_total()];
            let mut frontier = Frontier::default();
            frontier.ensure(g.n_owned());
            // Every rank moves its first owned vertex to part (rank + 1) and re-announces
            // its last one's unchanged label.
            parts[0] = ctx.rank() as i32 + 1;
            let updates: Vec<PartUpdate> = vec![(0, parts[0]), (g.n_owned() as LocalId - 1, 0)];
            let tally = [1, ctx.rank() as i64];
            let (applied, sums) =
                push_part_updates(ctx, &g, &updates, &tally, &mut parts, Some(&mut frontier))
                    .unwrap();
            assert_eq!(applied, 2, "one update from each ring neighbour");
            assert_eq!(sums, [3, 3], "the tally is summed over the three ranks");
            // Every ghost label must now equal what its owner assigned: the owner's first
            // owned vertex got `owner_rank + 1`, all others stayed 0.
            let mut marked = Vec::new();
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                let owner = g.owner_of_local(lid);
                let owner_first_global: GlobalId = g
                    .distribution()
                    .owned_vertices(owner, 12, ctx.nranks())
                    .next()
                    .unwrap();
                let expected = if g.global_id(lid) == owner_first_global {
                    marked.extend(g.halo().owned_neighbors(slot));
                    owner as i32 + 1
                } else {
                    0
                };
                assert_eq!(parts[lid as usize], expected);
            }
            assert_eq!(frontier.queued(), marked);
        });
    }

    #[test]
    fn refresh_ghost_parts_pulls_owner_labels() {
        let edges = ring(10);
        Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &edges);
            let mut parts = vec![-1i32; g.n_total()];
            // Owners label their vertices with their global id.
            for (v, part) in parts.iter_mut().enumerate().take(g.n_owned()) {
                *part = g.global_id(v as LocalId) as i32;
            }
            refresh_ghost_parts(ctx, &g, &mut parts).unwrap();
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                assert_eq!(parts[lid as usize], g.global_id(lid) as i32);
            }
        });
    }
}
