//! The halo plan: where every owned boundary vertex's ghost copies live, resolved once
//! per graph.
//!
//! A rank `t` holds a ghost of vertex `v` exactly when `t` owns at least one neighbour of
//! `v`. Which ranks those are, and where `v`'s ghost copy sits in each of their
//! per-vertex arrays, depends only on the graph — so the tables are a field of
//! [`DistGraph`], filled by the one handshake its construction performs anyway: each
//! holder *registers* its ghosts with their owners as `(global id, ghost local id)`, the
//! owner resolves the global id once — the lookup it needs to answer with the vertex's
//! degree — and records `(holder rank, ghost local id)` in that vertex's send row. One
//! request/reply `Alltoallv` pair yields the ghost degrees and the send plan, and since
//! every row entry *is* a holder's registration, owner and holder cannot disagree about
//! the halo. The ghost→owned transpose is laid out from the local adjacency in the same
//! step (`HaloPlan::new`). A stable [`apply_delta`](DistGraph::apply_delta) registers,
//! moves and retires only the ghosts its delta changes, and patches both tables with
//! them (`HaloPlan::patched`), copying the rows it leaves alone. [`DistGraph::halo`] is
//! the only way to get a plan.
//!
//! Every kernel that keeps per-vertex state coherent across ranks — the partitioner's
//! part labels, the warm PageRank contributions, component labels and coreness bounds,
//! BFS reached flags — does it with one routine, [`HaloPlan::push`] (or
//! [`HaloPlan::deliver`], the same exchange handing each update to the kernel instead of
//! storing it): what travels per update is `(local id on the receiving rank, value)`,
//! built by copying the changed vertex's plan row and applied on the receiver by a
//! bounds-checked indexed store. The sender never re-walks an adjacency list and the
//! receiver never hashes a global id: following the rule that the side that fans in is
//! the bottleneck, the lookup is done once by the many owners instead of on every update
//! by the one holder. The array a kernel keeps is one vector over `0..n_total`, owned
//! values first, and `push` is handed its ghost tail (`split_at_mut(n_owned)`), so the
//! kernel's neighbour loop indexes the vector by local id without telling owned from
//! ghost. A full refresh is the same call
//! over every owned vertex (interior vertices have empty plan rows), and that is all
//! [`DistGraph::refresh_ghosts`] — what the cold Fig. 8 kernels, SpMV and the partitioner's
//! `refresh_ghost_parts` use — is. There is no second exchange.

use xtrapulp_comm::{RankCtx, WireElem};

use crate::delta::patch_rows;
use crate::{DistGraph, LocalId};

/// A halo exchange delivered something this rank's graph cannot hold: a peer named a slot
/// outside the ghost range.
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
///   interior vertices), destinations ascending;
/// * the **ghost→owned transpose**: for every ghost, the owned vertices adjacent to it.
///   Frontier- and wake-driven kernels need it because an incoming ghost change must
///   re-activate the owned neighbourhood of that ghost, and the local CSR only stores
///   adjacency for owned vertices.
///
/// Costs 8 bytes per ghost copy and 4 per owned vertex on top of the transpose (4 bytes
/// per cross-rank arc and per ghost).
#[derive(Debug, Clone, Default)]
pub struct HaloPlan {
    n_owned: usize,
    n_total: usize,
    send_offsets: Vec<u32>,
    send_targets: Vec<(u32, LocalId)>,
    ghost_offsets: Vec<u32>,
    ghost_owned: Vec<LocalId>,
}

/// Group `(row, value)` pairs into CSR rows by a stable counting sort (`pairs` is walked
/// twice: once to size the rows, once to fill them).
fn rows<T: Copy + Default>(
    n_rows: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut offsets = vec![0u32; n_rows + 1];
    for (row, _) in pairs.clone() {
        offsets[row + 1] += 1;
    }
    for row in 0..n_rows {
        offsets[row + 1] += offsets[row];
    }
    let mut values = vec![T::default(); offsets[n_rows] as usize];
    let mut cursor = offsets.clone();
    for (row, value) in pairs {
        values[cursor[row] as usize] = value;
        cursor[row] += 1;
    }
    (offsets, values)
}

impl HaloPlan {
    /// Lay out the tables of `graph`, whose construction handshake delivered
    /// `registered[t]`: one `(owned vertex, local id of its ghost copy on rank t)` pair
    /// per ghost rank `t` holds of this rank's vertices. No communication happens here.
    pub(crate) fn new(graph: &DistGraph, registered: &[Vec<(LocalId, LocalId)>]) -> HaloPlan {
        let n_owned = graph.n_owned();
        let (send_offsets, send_targets) = rows(
            n_owned,
            registered.iter().enumerate().flat_map(|(holder, pairs)| {
                pairs
                    .iter()
                    .map(move |&(v, slot)| (v as usize, (holder as u32, slot)))
            }),
        );
        let (ghost_offsets, ghost_owned) = rows(
            graph.n_ghost(),
            (0..n_owned as LocalId).flat_map(|v| {
                let ghosts = graph.neighbors(v).iter().filter(|&&u| !graph.is_owned(u));
                ghosts.map(move |&u| (u as usize - n_owned, v))
            }),
        );
        HaloPlan {
            n_owned,
            n_total: graph.n_total(),
            send_offsets,
            send_targets,
            ghost_offsets,
            ghost_owned,
        }
    }

    /// The plan of the graph a stable delta turns this plan's graph into, patched: rows
    /// the delta leaves alone are copied in runs, the others are merged with their edits.
    ///
    /// * `n_owned`: the new owned count (a delta appends owned vertices, never moves one);
    /// * `holder_shift[t]`: how far rank `t`'s ghost local ids moved (by the vertices it
    ///   newly owns), applied to every send entry naming it;
    /// * `sends`: `(owned vertex, holder, Some(local id of its copy there))` to set the
    ///   holder's entry of the vertex's send row, `None` to drop it; sorted;
    /// * `n_ghost`: the new ghost count;
    /// * `relocated`: `(slot, old slot)` for every ghost slot whose transpose row starts
    ///   from another slot's old row (an old slot past the old ghosts: from an empty
    ///   row), sorted;
    /// * `edits`: `(slot, owned vertex, inserted)`, the arcs the delta adds to or drops
    ///   from each slot's row, sorted.
    ///
    /// No communication happens here.
    pub(crate) fn patched(
        &self,
        n_owned: usize,
        holder_shift: &[LocalId],
        sends: &[(LocalId, u32, Option<LocalId>)],
        n_ghost: usize,
        relocated: &[(u32, u32)],
        edits: &[(u32, LocalId, bool)],
    ) -> HaloPlan {
        let shift = |&(holder, lid): &(u32, LocalId)| (holder, lid + holder_shift[holder as usize]);
        let unshifted = holder_shift.iter().all(|&by| by == 0);
        let send_rows = sends
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0 as usize, run));
        let (send_offsets, send_targets) = patch_rows(
            (&self.send_offsets, &self.send_targets),
            (n_owned, self.send_targets.len() + sends.len()),
            send_rows,
            |run, out| {
                if unshifted {
                    out.extend_from_slice(run);
                } else {
                    out.extend(run.iter().map(shift));
                }
            },
            |v, run, out| {
                let old = if v < self.n_owned {
                    self.targets(v as LocalId)
                } else {
                    &[]
                };
                // One entry per holder, holders ascending on both sides.
                let mut run = run.iter().peekable();
                let set =
                    |&(_, holder, lid): &(LocalId, u32, Option<LocalId>)| Some((holder, lid?));
                for entry in old.iter().map(shift) {
                    while let Some(edit) = run.next_if(|edit| edit.1 < entry.0) {
                        out.extend(set(edit));
                    }
                    match run.next_if(|edit| edit.1 == entry.0) {
                        Some(edit) => out.extend(set(edit)),
                        None => out.push(entry),
                    }
                }
                out.extend(run.filter_map(set));
            },
        );

        let mut relocated = relocated.iter().peekable();
        let mut edit_rows = edits.chunk_by(|a, b| a.0 == b.0).peekable();
        let ghost_rows = std::iter::from_fn(|| {
            let slot = match (relocated.peek(), edit_rows.peek()) {
                (Some(r), Some(run)) => r.0.min(run[0].0),
                (Some(r), None) => r.0,
                (None, Some(run)) => run[0].0,
                (None, None) => return None,
            };
            let source = relocated.next_if(|r| r.0 == slot).map_or(slot, |r| r.1);
            let run = edit_rows.next_if(|run| run[0].0 == slot).unwrap_or(&[]);
            Some((slot as usize, (source as usize, run)))
        });
        let (ghost_offsets, ghost_owned) = patch_rows(
            (&self.ghost_offsets, &self.ghost_owned),
            (n_ghost, self.ghost_owned.len() + edits.len()),
            ghost_rows,
            |run, out| out.extend_from_slice(run),
            |_, (source, run), out| {
                let old = if source < self.n_total - self.n_owned {
                    self.owned_neighbors(source)
                } else {
                    &[]
                };
                // Owned neighbours ascend on both sides; an edit matching an old entry
                // drops it, any other inserts.
                let mut run = run.iter().peekable();
                for &v in old {
                    while let Some(edit) = run.next_if(|edit| edit.1 < v) {
                        out.push(edit.1);
                    }
                    if run.next_if(|edit| edit.1 == v).is_none() {
                        out.push(v);
                    }
                }
                out.extend(run.map(|edit| edit.1));
            },
        );
        HaloPlan {
            n_owned,
            n_total: n_owned + n_ghost,
            send_offsets,
            send_targets,
            ghost_offsets,
            ghost_owned,
        }
    }

    /// Approximate heap footprint of the tables in bytes.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let offsets = self.send_offsets.len() + self.ghost_offsets.len();
        (offsets * 4 + self.send_targets.len() * 8 + self.ghost_owned.len() * 4) as u64
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
    /// `tally` rides along: every rank's tally is summed in the same round (see
    /// [`RankCtx::alltoallv_sum`]), so a kernel that needs a global count after its
    /// push — moves made, vertices left active — pays no second round for it. Pass `&[]`
    /// for none; the frames are then exactly a plain `Alltoallv`'s.
    ///
    /// Returns the number of ghost updates received and the tally's sums. Must be called
    /// collectively (one `Alltoallv`).
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
        tally: &[i64],
        ghost_values: &mut [T],
        mut on_update: impl FnMut(usize, T, T),
    ) -> Result<(u64, Vec<i64>), HaloError> {
        assert_eq!(
            ghost_values.len(),
            self.n_total - self.n_owned,
            "one value per ghost"
        );
        self.deliver(ctx, updates, tally, |slot, value| {
            let previous = std::mem::replace(&mut ghost_values[slot], value);
            on_update(slot, previous, value);
        })
    }

    /// [`push`](HaloPlan::push) without a landing array: `on_receive(slot, value)` is handed
    /// each incoming update, its slot already checked against the ghost range, and keeps
    /// what it needs — for a kernel whose updates carry more than the one value per ghost it
    /// stores, or that reacts to an update without storing it. Same exchange, tally and
    /// errors as `push`.
    pub fn deliver<T: WireElem>(
        &self,
        ctx: &RankCtx,
        updates: impl IntoIterator<Item = (LocalId, T)>,
        tally: &[i64],
        mut on_receive: impl FnMut(usize, T),
    ) -> Result<(u64, Vec<i64>), HaloError> {
        let mut sends: Vec<Vec<(LocalId, T)>> = vec![Vec::new(); ctx.nranks()];
        for (v, value) in updates {
            for &(dest, slot) in self.targets(v) {
                sends[dest as usize].push((slot, value));
            }
        }

        let (received, sums) = ctx.alltoallv_sum(sends, tally);
        let n_ghost = self.n_total - self.n_owned;
        let mut applied = 0u64;
        for (peer, buf) in received.into_iter().enumerate() {
            for (slot, value) in buf {
                let ghost = (slot as usize).wrapping_sub(self.n_owned);
                if ghost >= n_ghost {
                    return Err(HaloError {
                        peer,
                        detail: format!(
                            "update for local id {slot}, outside the ghost range {}..{}",
                            self.n_owned, self.n_total
                        ),
                    });
                }
                on_receive(ghost, value);
                applied += 1;
            }
        }
        Ok((applied, sums))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    use super::*;
    use crate::distribution::splitmix64;
    use crate::{Distribution, GlobalId};
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

    /// The oracle's reference, independent of the plan: every holder asks its ghosts'
    /// owners for their values by global id, the owners hash the ids and answer in request
    /// order.
    fn pull_by_global_id<T: WireElem>(
        ctx: &RankCtx,
        g: &DistGraph,
        value_of: impl Fn(LocalId) -> T,
    ) -> Vec<T> {
        let mut requests: Vec<Vec<GlobalId>> = vec![Vec::new(); ctx.nranks()];
        let mut request_slots: Vec<Vec<usize>> = vec![Vec::new(); ctx.nranks()];
        for slot in 0..g.n_ghost() {
            let lid = (g.n_owned() + slot) as LocalId;
            requests[g.owner_of_local(lid)].push(g.global_id(lid));
            request_slots[g.owner_of_local(lid)].push(slot);
        }
        let replies: Vec<Vec<T>> = ctx
            .alltoallv(requests)
            .iter()
            .map(|ids| {
                ids.iter()
                    .map(|&id| value_of(g.owned_local_id(id).unwrap()))
                    .collect()
            })
            .collect();
        let mut out = vec![None; g.n_ghost()];
        for (owner, values) in ctx.alltoallv(replies).into_iter().enumerate() {
            for (&slot, value) in request_slots[owner].iter().zip(values) {
                out[slot] = Some(value);
            }
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    /// The oracle for one payload type: for seeded random graphs × distributions × rank
    /// counts × random update batches, the plan names exactly the ranks owning a
    /// neighbour, a push over every owned vertex — and `refresh_ghosts`, which is one into
    /// the tail of an owned++ghost vector, leaving its prefix alone — equals the pull by
    /// global id, every ghost value equals its owner's value after a push, and
    /// `on_update` reports exactly the ghosts whose value actually changed (checked
    /// through the transpose: the owned neighbours of those ghosts).
    fn oracle<T: WireElem + PartialEq + Debug + Default>(value: fn(u64) -> T) {
        const VALUES: u64 = 5;
        for seed in 0..6u64 {
            let (n, edges) = hub_graph(seed);
            for nranks in 1..=4usize {
                let thirds: Vec<i32> = (0..n).map(|v| (v / 3 % nranks as u64) as i32).collect();
                for dist in [
                    Distribution::Block,
                    Distribution::Cyclic,
                    Distribution::Hashed,
                    Distribution::from_parts(&thirds),
                ] {
                    Runtime::new(nranks).execute(|ctx| {
                        let g = DistGraph::from_shared_edges(ctx, dist.clone(), n, &edges);
                        let halo = g.halo();
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
                                &[],
                                &mut ghosts,
                                |_, _, _| {},
                            )
                            .unwrap();
                        assert_eq!(refreshed, (g.n_ghost() as u64, Vec::new()));
                        let mine = owned(&global);
                        assert_eq!(ghosts, pull_by_global_id(ctx, &g, |v| mine[v as usize]));
                        let mut all = mine.clone();
                        all.resize(g.n_total(), value(VALUES));
                        g.refresh_ghosts(ctx, &mut all).unwrap();
                        assert_eq!((&all[..n_owned], &all[n_owned..]), (&mine[..], &ghosts[..]));

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
                            // The tally is summed over every rank in the same round.
                            let tally = [updates.len() as i64, me as i64];
                            let (applied, sums) = halo
                                .push(ctx, updates, &tally, &mut ghosts, |slot, previous, new| {
                                    assert_eq!(previous, before[slot]);
                                    if previous != new {
                                        woken.extend(halo.owned_neighbors(slot));
                                    }
                                })
                                .unwrap();
                            if round == 2 || nranks == 1 {
                                assert_eq!(applied, 0);
                            }
                            let updated = ctx.allreduce_scalar_sum_u64(tally[0] as u64);
                            let ranks = (nranks * (nranks - 1) / 2) as i64;
                            assert_eq!(sums, [updated as i64, ranks]);
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
            let out = Runtime::new(2).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 8, &edges);
                let mut halo = g.halo().clone();
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
                let pushed = halo
                    .push(ctx, [(boundary, 3)], &[], &mut ghosts, |_, _, _| {})
                    .map(|(applied, _)| applied);
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
