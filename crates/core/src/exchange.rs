//! The boundary update exchange (`ExchangeUpdates`, Algorithm 3 of the paper).
//!
//! After a rank reassigns some of its owned vertices, every rank that keeps a ghost copy
//! of those vertices must learn the new part labels before the next iteration. A rank
//! `t` holds a ghost of vertex `v` exactly when `t` owns at least one neighbour of `v`.
//!
//! Which ranks those are, and where `v`'s ghost copy sits in each of their label arrays,
//! depends only on the graph — so it is resolved **once per job**, in [`HaloPlan::build`]:
//! one pass over the local adjacency finds every owned boundary vertex's destination
//! ranks (deduplicated, as Algorithm 3's `to_send` array does per update), the owner asks
//! each destination "what is your local id for these global ids?" with one `Alltoallv`,
//! and the holders answer with a second. The same pass builds the ghost→owned transpose
//! the frontier needs.
//!
//! What travels **per update** is then `(local id on the receiving rank, new part)` —
//! 8 wire bytes — built by copying the moved vertex's plan row, and applied on the
//! receiver by a bounds-checked indexed store. The sender never re-walks an adjacency
//! list and the receiver never hashes a global id: following the rule that the side that
//! fans in is the bottleneck, the lookup is done once by the many owners instead of on
//! every update by the one holder.

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, GlobalId, LocalId};

use crate::error::PartitionError;
use crate::sweep::Frontier;

/// One part reassignment of an owned vertex.
pub type PartUpdate = (LocalId, i32);

/// Reply to a plan request for a global id the asked rank holds no ghost copy of.
const NO_SLOT: LocalId = LocalId::MAX;

/// One rank's halo tables for a partitioning job, both in CSR shape:
///
/// * the **send plan**: for every owned vertex, the `(destination rank, local id of its
///   ghost copy on that rank)` pairs a part change must be shipped to (empty for
///   interior vertices);
/// * the **ghost→owned transpose**: for every ghost, the owned vertices adjacent to it.
///   The frontier-driven sweeps need it because an incoming ghost part change must
///   re-activate the owned neighbourhood of that ghost, and the local CSR only stores
///   adjacency for owned vertices.
///
/// Built once per partitioning run in `O(local arcs)` plus two `Alltoallv`s; costs 8
/// bytes per ghost copy and 4 per owned vertex on top of the transpose.
#[derive(Debug)]
pub struct HaloPlan {
    n_owned: usize,
    n_total: usize,
    send_offsets: Vec<u32>,
    send_targets: Vec<(u32, LocalId)>,
    ghost_offsets: Vec<u32>,
    ghost_owned: Vec<LocalId>,
}

impl HaloPlan {
    /// Build the tables for this rank's graph. Must be called collectively.
    ///
    /// Fails with [`PartitionError::CorruptExchange`] when the ranks disagree about the
    /// halo (a destination holds no ghost of a vertex its owner would push); the
    /// handshake itself always runs to completion first, so no rank is left behind in
    /// it.
    pub fn build(ctx: &RankCtx, graph: &DistGraph) -> Result<HaloPlan, PartitionError> {
        let _span = xtrapulp_obs::span("halo_plan");
        let n_owned = graph.n_owned();
        let n_ghost = graph.n_ghost();
        let nranks = ctx.nranks();

        // One adjacency pass: count the transpose rows and lay out the send plan's
        // destination ranks. `asked_for[t] == v` records that `v` already has `t` as a
        // destination, so each (vertex, rank) pair is requested once.
        let mut ghost_offsets = vec![0u32; n_ghost + 1];
        let mut send_offsets = Vec::with_capacity(n_owned + 1);
        send_offsets.push(0u32);
        let mut dests: Vec<u32> = Vec::new();
        let mut requests: Vec<Vec<GlobalId>> = vec![Vec::new(); nranks];
        let mut asked_for = vec![usize::MAX; nranks];
        for v in 0..n_owned {
            for &u in graph.neighbors(v as LocalId) {
                if u as usize >= n_owned {
                    ghost_offsets[u as usize - n_owned + 1] += 1;
                    let owner = graph.owner_of_local(u);
                    if asked_for[owner] != v {
                        asked_for[owner] = v;
                        dests.push(owner as u32);
                        requests[owner].push(graph.global_id(v as LocalId));
                    }
                }
            }
            send_offsets.push(dests.len() as u32);
        }

        // The handshake. A holder that does not know a requested vertex as a ghost still
        // answers (with `NO_SLOT`), so both collectives complete on every rank before
        // anyone reports the mismatch.
        let asked = ctx.alltoallv(requests);
        let mut stranger: Option<(usize, GlobalId)> = None;
        let replies: Vec<Vec<LocalId>> = asked
            .iter()
            .enumerate()
            .map(|(peer, ids)| {
                ids.iter()
                    .map(|&g| match graph.local_id(g) {
                        Some(lid) if !graph.is_owned(lid) => lid,
                        _ => {
                            stranger.get_or_insert((peer, g));
                            NO_SLOT
                        }
                    })
                    .collect()
            })
            .collect();
        let answered = ctx.alltoallv(replies);
        if let Some((peer, g)) = stranger {
            return Err(PartitionError::CorruptExchange {
                peer,
                detail: format!(
                    "asked for the ghost slot of vertex {g}, which is not a ghost here"
                ),
            });
        }

        // Replies come back in request order, which is the order `dests` was laid out in.
        let mut slots: Vec<_> = answered.iter().map(|buf| buf.iter()).collect();
        let mut send_targets = Vec::with_capacity(dests.len());
        for &dest in &dests {
            match slots[dest as usize].next() {
                Some(&slot) if slot != NO_SLOT => send_targets.push((dest, slot)),
                _ => {
                    return Err(PartitionError::CorruptExchange {
                        peer: dest as usize,
                        detail: "holds no ghost copy of a vertex adjacent to it".into(),
                    })
                }
            }
        }

        // Fill the transpose (second adjacency pass, as a counting sort needs).
        for i in 0..n_ghost {
            ghost_offsets[i + 1] += ghost_offsets[i];
        }
        let mut ghost_owned = vec![0 as LocalId; ghost_offsets[n_ghost] as usize];
        let mut cursor = ghost_offsets.clone();
        for v in 0..n_owned {
            for &u in graph.neighbors(v as LocalId) {
                if u as usize >= n_owned {
                    let slot = u as usize - n_owned;
                    ghost_owned[cursor[slot] as usize] = v as LocalId;
                    cursor[slot] += 1;
                }
            }
        }

        Ok(HaloPlan {
            n_owned,
            n_total: graph.n_total(),
            send_offsets,
            send_targets,
            ghost_offsets,
            ghost_owned,
        })
    }

    /// The owned vertices adjacent to ghost slot `slot` (i.e. local id
    /// `n_owned + slot`).
    pub fn owned_neighbors(&self, slot: usize) -> &[LocalId] {
        let start = self.ghost_offsets[slot] as usize;
        let end = self.ghost_offsets[slot + 1] as usize;
        &self.ghost_owned[start..end]
    }

    /// Where a part change of owned vertex `v` must go: one `(rank, local id of the
    /// ghost copy on that rank)` pair per rank owning a neighbour of `v`.
    fn targets(&self, v: LocalId) -> &[(u32, LocalId)] {
        let start = self.send_offsets[v as usize] as usize;
        let end = self.send_offsets[v as usize + 1] as usize;
        &self.send_targets[start..end]
    }
}

/// Push the part labels of locally reassigned vertices to the ranks holding them as
/// ghosts, and apply the symmetric incoming updates to this rank's ghost entries in
/// `parts` (length `n_total`). With a `frontier`, every owned neighbour of a ghost whose
/// label actually changed is marked active for the next sweep — the distributed half of
/// "a vertex is enqueued when it or a neighbour changed part".
///
/// Returns the number of ghost updates received. Must be called collectively.
///
/// An incoming slot that is not a ghost local id (`< n_owned` or `>= n_total`) is
/// reported as [`PartitionError::CorruptExchange`] and never stored. The collective has
/// completed on every rank by then, but the failing rank leaves the job's collective
/// sequence when it propagates the error, exactly like a rank lost to a transport
/// failure: its peers see a typed transport error on a byte-stream backend.
pub fn push_part_updates(
    ctx: &RankCtx,
    halo: &HaloPlan,
    updates: &[PartUpdate],
    parts: &mut [i32],
    mut frontier: Option<&mut Frontier>,
) -> Result<u64, PartitionError> {
    let mut sends: Vec<Vec<(LocalId, i32)>> = vec![Vec::new(); ctx.nranks()];
    for &(v, new_part) in updates {
        for &(dest, slot) in halo.targets(v) {
            sends[dest as usize].push((slot, new_part));
        }
    }

    let received = ctx.alltoallv(sends);
    let ghost_parts = &mut parts[halo.n_owned..halo.n_total];
    let mut applied = 0u64;
    for (peer, buf) in received.into_iter().enumerate() {
        for (slot, new_part) in buf {
            let ghost = (slot as usize).wrapping_sub(halo.n_owned);
            let Some(label) = ghost_parts.get_mut(ghost) else {
                return Err(PartitionError::CorruptExchange {
                    peer,
                    detail: format!(
                        "part update for local id {slot}, outside the ghost range {}..{}",
                        halo.n_owned, halo.n_total
                    ),
                });
            };
            if *label != new_part {
                *label = new_part;
                if let Some(frontier) = frontier.as_deref_mut() {
                    for &v in halo.owned_neighbors(ghost) {
                        frontier.mark(v);
                    }
                }
            }
            applied += 1;
        }
    }
    Ok(applied)
}

/// Synchronise all ghost part labels by pulling them from their owners (used after
/// non-incremental initialisation, where every label may have changed).
pub fn refresh_ghost_parts(ctx: &RankCtx, graph: &DistGraph, parts: &mut [i32]) {
    let owned = parts[..graph.n_owned()].to_vec();
    let ghosts = graph.ghost_values_i32(ctx, &owned);
    parts[graph.n_owned()..graph.n_total()].copy_from_slice(&ghosts);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::Distribution;

    fn ring(n: u64) -> Vec<(GlobalId, GlobalId)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    /// A seeded random graph with a hub (vertex 0, adjacent to everything but the last
    /// vertex, hence to every remote rank) and an isolated last vertex.
    fn hub_graph(seed: u64) -> (u64, Vec<(GlobalId, GlobalId)>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(24..48u64);
        let mut edges: Vec<_> = (1..n - 1).map(|v| (0, v)).collect();
        for _ in 0..2 * n {
            edges.push((rng.gen_range(1..n - 1), rng.gen_range(1..n - 1)));
        }
        (n, edges)
    }

    /// The oracle: for seeded random graphs × distributions × rank counts × random update
    /// batches, the plan names exactly the ranks owning a neighbour, every ghost label
    /// equals its owner's label after a push, and the frontier holds exactly the owned
    /// neighbours of the ghosts whose label actually changed.
    #[test]
    fn halo_plan_matches_the_global_view() {
        const LABELS: i32 = 5;
        for seed in 0..6u64 {
            let (n, edges) = hub_graph(seed);
            for dist in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::Hashed,
            ] {
                for nranks in 1..=4usize {
                    Runtime::run(nranks, |ctx| {
                        let g = DistGraph::from_shared_edges(ctx, dist.clone(), n, &edges);
                        let halo = HaloPlan::build(ctx, &g).unwrap();
                        let n_owned = g.n_owned();
                        let me = ctx.rank();

                        // The plan's destinations are the other ranks owning a neighbour.
                        for v in 0..n_owned as LocalId {
                            let gv = g.global_id(v);
                            let expected: BTreeSet<usize> = edges
                                .iter()
                                .filter(|&&(a, b)| a != b && (a == gv || b == gv))
                                .map(|&(a, b)| g.owner_of_global(if a == gv { b } else { a }))
                                .filter(|&r| r != me)
                                .collect();
                            let planned: Vec<usize> =
                                halo.targets(v).iter().map(|&(r, _)| r as usize).collect();
                            assert_eq!(planned.iter().copied().collect::<BTreeSet<_>>(), expected);
                            assert_eq!(planned.len(), expected.len(), "duplicate destination");
                            if gv == n - 1 {
                                assert!(planned.is_empty(), "isolated vertex has no halo");
                            }
                        }

                        // Every rank replays the same global label history.
                        let mut global: Vec<i32> =
                            (0..n).map(|v| (v % LABELS as u64) as i32).collect();
                        let mut parts: Vec<i32> = (0..g.n_total())
                            .map(|l| global[g.global_id(l as LocalId) as usize])
                            .collect();
                        let mut frontier = Frontier::default();
                        frontier.ensure(n_owned);
                        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
                        for round in 0..5 {
                            // Round 2 is an empty batch on every rank; the others redraw
                            // a third of the labels (sometimes to the value they had).
                            let mut updates: Vec<PartUpdate> = Vec::new();
                            for v in 0..n {
                                if round != 2 && rng.gen_range(0..3) == 0 {
                                    global[v as usize] = rng.gen_range(0..LABELS);
                                    if g.owner_of_global(v) == me {
                                        let lid = (0..n_owned as LocalId)
                                            .find(|&l| g.global_id(l) == v)
                                            .unwrap();
                                        parts[lid as usize] = global[v as usize];
                                        updates.push((lid, global[v as usize]));
                                    }
                                }
                            }
                            let before = parts.clone();
                            let applied = push_part_updates(
                                ctx,
                                &halo,
                                &updates,
                                &mut parts,
                                Some(&mut frontier),
                            )
                            .unwrap();
                            if round == 2 || nranks == 1 {
                                assert_eq!(applied, 0);
                            }
                            let mut expected_marks = BTreeSet::new();
                            for l in 0..g.n_total() {
                                assert_eq!(
                                    parts[l],
                                    global[g.global_id(l as LocalId) as usize],
                                    "label of local id {l} out of sync"
                                );
                            }
                            for v in 0..n_owned {
                                for &u in g.neighbors(v as LocalId) {
                                    if u as usize >= n_owned
                                        && before[u as usize] != parts[u as usize]
                                    {
                                        expected_marks.insert(v as LocalId);
                                    }
                                }
                            }
                            assert_eq!(
                                frontier.queued().iter().copied().collect::<BTreeSet<_>>(),
                                expected_marks
                            );
                            frontier.clear();
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn updates_reach_all_ghost_copies() {
        let edges = ring(12);
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 12, &edges);
            let halo = HaloPlan::build(ctx, &g).unwrap();
            // Start with everything in part 0 everywhere.
            let mut parts = vec![0i32; g.n_total()];
            // Every rank moves its first owned vertex to part (rank + 1).
            let updates: Vec<PartUpdate> = if g.n_owned() > 0 {
                parts[0] = ctx.rank() as i32 + 1;
                vec![(0, ctx.rank() as i32 + 1)]
            } else {
                vec![]
            };
            push_part_updates(ctx, &halo, &updates, &mut parts, None).unwrap();
            // Every ghost label must now equal what its owner assigned: the owner's first
            // owned vertex got `owner_rank + 1`, all others stayed 0.
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                let owner = g.owner_of_local(lid);
                let owner_first_global: GlobalId = g
                    .distribution()
                    .owned_vertices(owner, 12, ctx.nranks())
                    .next()
                    .unwrap();
                let expected = if g.global_id(lid) == owner_first_global {
                    owner as i32 + 1
                } else {
                    0
                };
                assert_eq!(parts[lid as usize], expected);
            }
        });
    }

    #[test]
    fn a_slot_outside_the_ghost_range_is_a_typed_error() {
        let edges = ring(8);
        for bad_slot in [0, LocalId::MAX - 1] {
            let out = Runtime::run(2, |ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 8, &edges);
                let mut halo = HaloPlan::build(ctx, &g).unwrap();
                // Rank 0's first boundary vertex claims an owned (or out-of-range) local
                // id on rank 1.
                let boundary = (0..g.n_owned() as LocalId)
                    .find(|&v| !halo.targets(v).is_empty())
                    .unwrap();
                if ctx.rank() == 0 {
                    let row = halo.send_offsets[boundary as usize] as usize;
                    halo.send_targets[row].1 = bad_slot;
                }
                let mut parts = vec![0i32; g.n_total()];
                let before = parts.clone();
                let pushed = push_part_updates(ctx, &halo, &[(boundary, 3)], &mut parts, None);
                if ctx.rank() == 1 {
                    assert_eq!(parts[..g.n_owned()], before[..g.n_owned()]);
                }
                pushed
            });
            assert_eq!(out[0], Ok(1));
            assert!(
                matches!(out[1], Err(PartitionError::CorruptExchange { peer: 0, .. })),
                "rank 1 got {:?}",
                out[1]
            );
        }
    }

    #[test]
    fn refresh_ghost_parts_pulls_owner_labels() {
        let edges = ring(10);
        Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &edges);
            let mut parts = vec![-1i32; g.n_total()];
            // Owners label their vertices with their global id.
            for (v, part) in parts.iter_mut().enumerate().take(g.n_owned()) {
                *part = g.global_id(v as LocalId) as i32;
            }
            refresh_ghost_parts(ctx, &g, &mut parts);
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                assert_eq!(parts[lid as usize], g.global_id(lid) as i32);
            }
        });
    }
}
