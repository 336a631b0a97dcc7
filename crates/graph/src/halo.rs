//! The halo plan: where every owned boundary vertex's ghost copies live, resolved once.
//!
//! A rank `t` holds a ghost of vertex `v` exactly when `t` owns at least one neighbour of
//! `v`. Which ranks those are, and where `v`'s ghost copy sits in each of their
//! per-vertex arrays, depends only on the graph — so it is resolved **once per graph**, in
//! [`HaloPlan::build`]: one pass over the local adjacency finds every owned boundary
//! vertex's destination ranks (deduplicated, as Algorithm 3's `to_send` array does per
//! update), the owner asks each destination "what is your local id for these global
//! ids?" with one `Alltoallv`, and the holders answer with a second. The same pass builds
//! the ghost→owned transpose.
//!
//! The kernels that update per-vertex state incrementally — the partitioner's part labels,
//! the warm PageRank contributions, component labels and coreness bounds, BFS reached
//! flags — then keep a ghost array coherent with one routine, [`HaloPlan::push`]: what
//! travels per update is `(local id on the receiving rank, value)`, built by copying the
//! changed vertex's plan row and applied on the receiver by a bounds-checked indexed
//! store. The sender never
//! re-walks an adjacency list and the receiver never hashes a global id: following the
//! rule that the side that fans in is the bottleneck, the lookup is done once by the many
//! owners instead of on every update by the one holder. A full refresh is the same call
//! over every owned vertex (interior vertices have empty plan rows).
//!
//! It is not the only ghost exchange in the workspace: callers that hold no plan — the
//! partitioner's one-off `refresh_ghost_parts` and the cold Fig. 8 suite's `pagerank`,
//! `wcc` and `kcore_approx` — still pull through the hash-resolved request/reply of
//! [`DistGraph::ghost_values_with`], which the tests below also use as the reference.

use xtrapulp_comm::{RankCtx, WireElem};

use crate::{DistGraph, GlobalId, LocalId};

/// Reply to a plan request for a global id the asked rank holds no ghost copy of.
const NO_SLOT: LocalId = LocalId::MAX;

/// A halo exchange delivered something this rank's graph cannot hold: the ranks disagree
/// about the halo, or a peer named a slot outside the ghost range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloError {
    /// The rank whose message was rejected.
    pub peer: usize,
    /// What was wrong with it.
    pub detail: String,
}

impl std::fmt::Display for HaloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt halo exchange with rank {}: {}",
            self.peer, self.detail
        )
    }
}

impl std::error::Error for HaloError {}

/// One rank's halo tables for a graph, both in CSR shape:
///
/// * the **send plan**: for every owned vertex, the `(destination rank, local id of its
///   ghost copy on that rank)` pairs a value change must be shipped to (empty for
///   interior vertices);
/// * the **ghost→owned transpose**: for every ghost, the owned vertices adjacent to it.
///   Frontier- and wake-driven kernels need it because an incoming ghost change must
///   re-activate the owned neighbourhood of that ghost, and the local CSR only stores
///   adjacency for owned vertices.
///
/// Built in `O(local arcs)` plus two `Alltoallv`s; costs 8 bytes per ghost copy and 4 per
/// owned vertex on top of the transpose.
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
    /// Fails when the ranks disagree about the halo (a destination holds no ghost of a
    /// vertex its owner would push); the handshake itself always runs to completion
    /// first, so no rank is left behind in it.
    pub fn build(ctx: &RankCtx, graph: &DistGraph) -> Result<HaloPlan, HaloError> {
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
            return Err(HaloError {
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
                    return Err(HaloError {
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

    /// Number of owned vertices of the graph the plan was built for.
    #[inline]
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Number of ghosts of the graph the plan was built for: the length of the ghost
    /// arrays [`push`](HaloPlan::push) keeps coherent.
    #[inline]
    pub fn n_ghost(&self) -> usize {
        self.n_total - self.n_owned
    }

    /// The owned vertices adjacent to ghost slot `slot` (i.e. local id
    /// `n_owned + slot`).
    #[inline]
    pub fn owned_neighbors(&self, slot: usize) -> &[LocalId] {
        let start = self.ghost_offsets[slot] as usize;
        let end = self.ghost_offsets[slot + 1] as usize;
        &self.ghost_owned[start..end]
    }

    /// Where a change of owned vertex `v` must go: one `(rank, local id of the ghost
    /// copy on that rank)` pair per rank owning a neighbour of `v`.
    #[inline]
    pub fn targets(&self, v: LocalId) -> &[(u32, LocalId)] {
        let start = self.send_offsets[v as usize] as usize;
        let end = self.send_offsets[v as usize + 1] as usize;
        &self.send_targets[start..end]
    }

    /// Push the new values of owned vertices to the ranks holding them as ghosts, and
    /// store the symmetric incoming updates in `ghost_values` (one entry per ghost slot).
    /// `on_update(slot, previous, new)` runs after each store, so a caller can react to
    /// the ghosts whose value actually changed — typically by waking
    /// [`owned_neighbors(slot)`](HaloPlan::owned_neighbors). Updates of interior vertices
    /// cost nothing, so a full refresh is a push over every owned vertex.
    ///
    /// Returns the number of ghost updates received. Must be called collectively (one
    /// `Alltoallv`).
    ///
    /// An incoming local id outside the ghost range is reported as a [`HaloError`] and
    /// never stored. The collective has completed on every rank by then, but the failing
    /// rank leaves the collective sequence when it propagates the error, exactly like a
    /// rank lost to a transport failure: its peers see a typed transport error on a
    /// byte-stream backend.
    pub fn push<T: WireElem>(
        &self,
        ctx: &RankCtx,
        updates: impl IntoIterator<Item = (LocalId, T)>,
        ghost_values: &mut [T],
        mut on_update: impl FnMut(usize, T, T),
    ) -> Result<u64, HaloError> {
        let mut sends: Vec<Vec<(LocalId, T)>> = vec![Vec::new(); ctx.nranks()];
        for (v, value) in updates {
            for &(dest, slot) in self.targets(v) {
                sends[dest as usize].push((slot, value));
            }
        }

        let received = ctx.alltoallv(sends);
        assert_eq!(ghost_values.len(), self.n_ghost(), "one value per ghost");
        let mut applied = 0u64;
        for (peer, buf) in received.into_iter().enumerate() {
            for (slot, value) in buf {
                let ghost = (slot as usize).wrapping_sub(self.n_owned);
                let Some(stored) = ghost_values.get_mut(ghost) else {
                    return Err(HaloError {
                        peer,
                        detail: format!(
                            "update for local id {slot}, outside the ghost range {}..{}",
                            self.n_owned, self.n_total
                        ),
                    });
                };
                let previous = std::mem::replace(stored, value);
                on_update(ghost, previous, value);
                applied += 1;
            }
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    use super::*;
    use crate::distribution::splitmix64;
    use crate::Distribution;
    use xtrapulp_comm::Runtime;

    /// A seeded draw stream (the graph crate has no `rand`).
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            splitmix64(self.0) % n
        }
    }

    fn ring(n: u64) -> Vec<(GlobalId, GlobalId)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    /// A seeded random graph with a hub (vertex 0, adjacent to everything but the last
    /// vertex, hence to every remote rank) and an isolated last vertex.
    fn hub_graph(seed: u64) -> (u64, Vec<(GlobalId, GlobalId)>) {
        let mut draws = Draws(seed << 32);
        let n = 24 + draws.below(24);
        let mut edges: Vec<_> = (1..n - 1).map(|v| (0, v)).collect();
        for _ in 0..2 * n {
            edges.push((1 + draws.below(n - 2), 1 + draws.below(n - 2)));
        }
        (n, edges)
    }

    /// The oracle for one payload type: for seeded random graphs × distributions × rank
    /// counts × random update batches, the plan names exactly the ranks owning a
    /// neighbour, a push over every owned vertex equals the pull-based
    /// `ghost_values_with`, every ghost value equals its owner's value after a push, and
    /// `on_update` reports exactly the ghosts whose value actually changed (checked
    /// through the transpose: the owned neighbours of those ghosts).
    fn oracle<T: WireElem + PartialEq + Debug>(value: fn(u64) -> T) {
        const VALUES: u64 = 5;
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
                        assert_eq!((halo.n_owned(), halo.n_ghost()), (n_owned, g.n_ghost()));

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

                        // Every rank replays the same global value history. The first
                        // push is the full refresh; it must equal the pull.
                        let mut global: Vec<T> = (0..n).map(|v| value(v % VALUES)).collect();
                        let owned = |global: &[T]| -> Vec<T> {
                            (0..n_owned)
                                .map(|l| global[g.global_id(l as LocalId) as usize])
                                .collect()
                        };
                        let mut ghosts = vec![value(VALUES); g.n_ghost()];
                        let refreshed = halo
                            .push(
                                ctx,
                                owned(&global)
                                    .into_iter()
                                    .enumerate()
                                    .map(|(v, x)| (v as LocalId, x)),
                                &mut ghosts,
                                |_, _, _| {},
                            )
                            .unwrap();
                        assert_eq!(refreshed, g.n_ghost() as u64);
                        let mine = owned(&global);
                        assert_eq!(ghosts, g.ghost_values_with(ctx, |v| mine[v as usize]));

                        let mut draws = Draws(seed ^ 0xA5A5);
                        for round in 0..5 {
                            // Round 2 is an empty batch on every rank; the others redraw
                            // a third of the values (sometimes to the value they had).
                            let mut updates: Vec<(LocalId, T)> = Vec::new();
                            for v in 0..n {
                                if round != 2 && draws.below(3) == 0 {
                                    global[v as usize] = value(draws.below(VALUES));
                                    if g.owner_of_global(v) == me {
                                        let lid = (0..n_owned as LocalId)
                                            .find(|&l| g.global_id(l) == v)
                                            .unwrap();
                                        updates.push((lid, global[v as usize]));
                                    }
                                }
                            }
                            let before = ghosts.clone();
                            let mut woken = BTreeSet::new();
                            let applied = halo
                                .push(ctx, updates, &mut ghosts, |slot, previous, new| {
                                    assert_eq!(previous, before[slot]);
                                    if previous != new {
                                        woken.extend(halo.owned_neighbors(slot));
                                    }
                                })
                                .unwrap();
                            if round == 2 || nranks == 1 {
                                assert_eq!(applied, 0);
                            }
                            for (slot, ghost) in ghosts.iter().enumerate() {
                                let lid = (n_owned + slot) as LocalId;
                                assert_eq!(
                                    *ghost,
                                    global[g.global_id(lid) as usize],
                                    "ghost slot {slot} out of sync"
                                );
                            }
                            let mut expected = BTreeSet::new();
                            for v in 0..n_owned {
                                for &u in g.neighbors(v as LocalId) {
                                    if u as usize >= n_owned
                                        && before[u as usize - n_owned]
                                            != ghosts[u as usize - n_owned]
                                    {
                                        expected.insert(v as LocalId);
                                    }
                                }
                            }
                            assert_eq!(woken, expected);
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn halo_plan_matches_the_global_view() {
        oracle::<i32>(|x| x as i32 - 1);
        oracle::<u64>(|x| x << 40);
        oracle::<f64>(|x| x as f64 / 3.0);
        oracle::<(f64, u8)>(|x| (x as f64 * 0.5, (x % 2) as u8));
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
                let mut ghosts = vec![0i32; g.n_ghost()];
                let pushed = halo.push(ctx, [(boundary, 3)], &mut ghosts, |_, _, _| {});
                if ctx.rank() == 1 {
                    assert!(ghosts.iter().all(|&x| x == 0), "nothing may be stored");
                }
                pushed
            });
            assert_eq!(out[0], Ok(1));
            assert!(
                matches!(out[1], Err(HaloError { peer: 0, .. })),
                "rank 1 got {:?}",
                out[1]
            );
        }
    }
}
