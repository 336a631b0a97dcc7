//! The per-rank distributed graph: owned vertices, ghosts, and a local CSR.
//!
//! This is the reproduction of XtraPuLP's distributed one-dimensional CSR-like
//! representation. Each rank owns a subset of vertices (given by a [`Distribution`]) and
//! stores:
//!
//! * the adjacency of its owned vertices, with neighbours referenced by *local id*;
//! * a *ghost* table for the one-hop neighbourhood owned by other ranks (global id,
//!   owning rank, and global degree of each ghost);
//! * a hash map from each ghost's global id to its local id. An owned vertex needs no
//!   entry: owned global ids ascend with the local id under every [`Distribution`], so
//!   [`DistGraph::owned_local_id`] finds one by position (arithmetic for `Block` and
//!   `Cyclic`, a binary search otherwise). Flat arrays give the reverse direction;
//! * the [`HaloPlan`]: where each owned boundary vertex's ghost copies live on the other
//!   ranks, and which owned vertices border each ghost.
//!
//! Local ids are laid out as `[0, n_owned)` for owned vertices followed by
//! `[n_owned, n_owned + n_ghost)` for ghosts, so per-vertex state (part labels, PageRank
//! contributions, component labels, coreness bounds, SpMV's x) is one flat vector of
//! `n_total` entries and a kernel's neighbour loop reads `values[u]` whether `u` is owned
//! or a ghost — no branch per arc.
//!
//! A graph is built in one of three ways:
//!
//! 1. *From shared input* ([`DistGraph::from_shared_edges`], [`DistGraph::from_csr`]):
//!    every rank reads the same edge list or [`Csr`] and keeps the arcs whose source it
//!    owns.
//! 2. *By routing arcs* ([`DistGraph::from_local_edges`], [`DistGraph::redistribute`], and
//!    [`DistGraph::apply_delta`] when growth moves `Block` owners): every rank sends the
//!    arcs it holds to the owners of their sources in one `alltoallv`.
//! 3. *By a stable delta* ([`DistGraph::apply_delta`] otherwise): the old graph is
//!    patched. Owned local ids and surviving ghosts' slots are kept, and rows the delta
//!    does not name are copied.
//!
//! The first two end in one collective handshake (`finish`): every rank registers its
//! ghosts with their owners, and the owners resolve each by position, answer with the
//! ghosts' degrees and keep the registrations as their send plan (a registration for a
//! vertex the owner does not own is answered with degree 0 and left out of the plan). A
//! stable delta runs the same handshake for the ghosts it changes only: those it creates
//! or moves register, those it orphans retire, and the owners patch their send plans.
//! From then on the ghost tail of any such vector is kept coherent with
//! [`HaloPlan::push`], which is handed the tail; [`DistGraph::refresh_ghosts`] is a push
//! of the whole owned prefix. No other ghost exchange exists.

use std::collections::HashMap;

use xtrapulp_comm::{RankCtx, WireElem};

use crate::csr::{normalise_rows, place_rows};
use crate::{Csr, Distribution, GlobalId, HaloError, HaloPlan, LocalId};

/// A rank-local view of a globally distributed undirected graph.
#[derive(Debug, Clone)]
pub struct DistGraph {
    global_n: u64,
    global_m: u64,
    rank: usize,
    nranks: usize,
    dist: Distribution,
    /// Global id of each owned vertex; index is the local id.
    owned_global: Vec<GlobalId>,
    /// Global id of each ghost vertex; index is `local_id - n_owned`.
    ghost_global: Vec<GlobalId>,
    /// Owning rank of each ghost vertex.
    ghost_owner: Vec<u32>,
    /// Global degree of each ghost vertex.
    ghost_degree: Vec<u64>,
    /// Slot (`local_id - n_owned`) of each ghost vertex by global id (owned ids resolve
    /// by position).
    ghost_slot: HashMap<GlobalId, u32>,
    /// CSR offsets over owned vertices (length `n_owned + 1`).
    offsets: Vec<u64>,
    /// CSR adjacency in local ids (owned or ghost).
    adjacency: Vec<LocalId>,
    /// Where this rank's boundary vertices are ghosts, and what borders its own ghosts.
    halo: HaloPlan,
}

impl DistGraph {
    // --------------------------------------------------------------------------------
    // Construction
    // --------------------------------------------------------------------------------

    /// Build the local graph from a globally shared undirected edge list.
    ///
    /// Every rank scans the same `edges` slice and keeps the arcs whose source it owns.
    /// This is the cheapest construction path when the whole edge list fits in shared
    /// memory (which is always the case in this reproduction).
    pub fn from_shared_edges(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        edges: &[(GlobalId, GlobalId)],
    ) -> Self {
        let shell = Self::fresh_shell(ctx, dist, global_n);
        let arcs = edges
            .iter()
            .filter(|&&(u, v)| u != v && u < global_n && v < global_n)
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .filter_map(|(u, v)| Some((shell.owned_local_id(u)? as usize, v)));
        let rows = place_rows(shell.n_owned(), arcs);
        shell.with_rows(ctx, rows)
    }

    /// Build the local graph from a globally shared [`Csr`].
    pub fn from_csr(ctx: &RankCtx, dist: Distribution, csr: &Csr) -> Self {
        let shell = Self::fresh_shell(ctx, dist, csr.num_vertices() as u64);
        let arcs = shell.owned_global.iter().enumerate().flat_map(|(row, &u)| {
            let targets = csr.neighbors(u).iter().filter(move |&&v| v != u);
            targets.map(move |&v| (row, v))
        });
        let rows = place_rows(shell.n_owned(), arcs);
        shell.with_rows(ctx, rows)
    }

    /// Build the local graph when each rank holds an arbitrary chunk of the global edge
    /// list (e.g. each rank generated part of the graph). Edges are shuffled to the
    /// owners of both endpoints with an all-to-all exchange, mirroring how the original
    /// code ingests distributed graph files.
    pub fn from_local_edges(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        edges: Vec<(GlobalId, GlobalId)>,
    ) -> Self {
        let arcs = edges
            .into_iter()
            .filter(|&(u, v)| u != v && u < global_n && v < global_n)
            .flat_map(|(u, v)| [(u, v), (v, u)]);
        Self::route_arcs(ctx, dist, global_n, arcs)
    }

    /// Move this graph onto `dist`: every rank routes its owned rows, by global id, to
    /// their owners under `dist`, and the owners build from what they receive. The result
    /// equals [`from_csr`](DistGraph::from_csr)`(ctx, dist, csr)` over the same graph,
    /// accessor for accessor (ghost slots and halo plan included), but no rank ever holds
    /// more than its old and its new rows.
    ///
    /// `dist` must cover [`global_n`](DistGraph::global_n) vertices and be identical on
    /// every rank. Must be called collectively.
    pub fn redistribute(&self, ctx: &RankCtx, dist: Distribution) -> Self {
        Self::route_arcs(ctx, dist, self.global_n, self.owned_arcs())
    }

    /// The arc router behind every build from arcs a rank holds but need not own: each
    /// arc `(u, v)` goes to the owner of `u` under `dist`. The local bucket stays, the rest
    /// travel in one `alltoallv`, and every rank builds from the arcs it then owns.
    fn route_arcs(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        arcs: impl IntoIterator<Item = (GlobalId, GlobalId)>,
    ) -> Self {
        let nranks = ctx.nranks();
        let mut sends: Vec<Vec<(GlobalId, GlobalId)>> = vec![Vec::new(); nranks];
        for (u, v) in arcs {
            sends[dist.owner(u, global_n, nranks)].push((u, v));
        }
        let mut mine = std::mem::take(&mut sends[ctx.rank()]);
        for buf in ctx.alltoallv(sends) {
            mine.extend(buf);
        }
        let shell = Self::fresh_shell(ctx, dist, global_n);
        let arcs = mine.iter().filter_map(|&(u, v)| {
            let row = shell.owned_local_id(u);
            debug_assert!(row.is_some(), "arc source must be owned by this rank");
            Some((row? as usize, v))
        });
        let rows = place_rows(shell.n_owned(), arcs);
        drop(mine);
        shell.with_rows(ctx, rows)
    }

    /// The tail every build from arcs shares: `rows` are the targets (global ids) of the
    /// owned rows, placed by owned local row in any order within a row
    /// ([`place_rows`]). Each row is sorted and deduplicated, then one pass in row order
    /// resolves each target, a ghost taking the next slot the first time it is seen;
    /// ghost degrees and the halo plan are resolved collectively.
    fn with_rows(
        self,
        ctx: &RankCtx,
        (mut offsets, mut targets): (Vec<u64>, Vec<GlobalId>),
    ) -> Self {
        normalise_rows(&mut offsets, &mut targets);
        let mut ghosts = GhostTable::default();
        let n_owned = self.n_owned() as LocalId;
        let adjacency = targets
            .iter()
            .map(|&v| {
                self.owned_local_id(v)
                    .unwrap_or_else(|| n_owned + ghosts.slot(v))
            })
            .collect();
        DistGraph {
            ghost_global: ghosts.global,
            ghost_slot: ghosts.slots,
            offsets,
            adjacency,
            ..self
        }
        .finish(ctx)
    }

    /// The [`shell`](DistGraph::shell) of a build from scratch: this rank owns what `dist`
    /// gives it.
    fn fresh_shell(ctx: &RankCtx, dist: Distribution, global_n: u64) -> Self {
        let owned = dist.owned_vertices(ctx.rank(), global_n, ctx.nranks());
        Self::shell(ctx, dist, global_n, owned.collect())
    }

    /// A graph of `owned_global` and nothing else yet: what a builder resolves owned
    /// targets against (through [`owned_local_id`](DistGraph::owned_local_id)) before the
    /// adjacency and ghost table are moved in and `finish` resolves the rest.
    fn shell(ctx: &RankCtx, dist: Distribution, global_n: u64, owned: Vec<GlobalId>) -> Self {
        DistGraph {
            global_n,
            global_m: 0,
            rank: ctx.rank(),
            nranks: ctx.nranks(),
            dist,
            owned_global: owned,
            ghost_global: Vec::new(),
            ghost_owner: Vec::new(),
            ghost_degree: Vec::new(),
            ghost_slot: HashMap::new(),
            offsets: Vec::new(),
            adjacency: Vec::new(),
            halo: HaloPlan::default(),
        }
    }

    /// The shared tail of the builds from arcs, filling in everything that depends on the
    /// other ranks: the global edge count, the ghosts' owners and — the build's only
    /// handshake — their degrees and the halo plan. Each rank registers its ghosts with
    /// their owners as `(global id, ghost local id)`; an owner resolves the id, keeps
    /// `(holder, ghost local id)` as the vertex's send row and answers with the vertex's
    /// degree (the weighted balance phase weights neighbour counts by degree). An id the
    /// owner does not own — a peer that disagrees about the distribution — is answered
    /// with degree 0 and gets no send row, so the answers keep the registration order.
    fn finish(mut self, ctx: &RankCtx) -> Self {
        // Every arc's source is owned by exactly one rank, and each undirected edge
        // produces two arcs overall.
        self.global_m = ctx.allreduce_scalar_sum_u64(self.local_arcs()) / 2;
        self.ghost_owner = self
            .ghost_global
            .iter()
            .map(|&g| self.owner_of_global(g) as u32)
            .collect();
        let n_owned = self.n_owned();
        let mut registrations: Vec<Vec<(GlobalId, LocalId)>> = vec![Vec::new(); self.nranks];
        for (slot, (&g, &owner)) in self.ghost_global.iter().zip(&self.ghost_owner).enumerate() {
            registrations[owner as usize].push((g, (n_owned + slot) as LocalId));
        }
        let (registered, degrees): (Vec<Vec<_>>, Vec<Vec<_>>) = ctx
            .alltoallv(registrations)
            .iter()
            .map(|holder| {
                let mut rows = Vec::with_capacity(holder.len());
                let degrees: Vec<u64> = holder
                    .iter()
                    .map(|&(g, slot)| {
                        let Some(lid) = self.owned_local_id(g) else {
                            return 0;
                        };
                        rows.push((lid, slot));
                        self.degree_owned(lid)
                    })
                    .collect();
                (rows, degrees)
            })
            .unzip();
        // Degrees come back in registration order: per owner, ascending ghost slot. An
        // owner that answers short leaves the remaining degrees at zero.
        let answered = ctx.alltoallv(degrees);
        let mut answered: Vec<_> = answered.iter().map(|buf| buf.iter()).collect();
        self.ghost_degree = self
            .ghost_owner
            .iter()
            .map(|&owner| answered[owner as usize].next().copied().unwrap_or(0))
            .collect();
        self.halo = HaloPlan::new(&self, &registered);
        self.set_table_gauges();
        self
    }

    /// Report the ghost and halo tables' footprints to the memory gauges.
    fn set_table_gauges(&self) {
        xtrapulp_obs::mem::set(
            &format!("ghost_tables_rank{}", self.rank),
            self.ghost_bytes(),
        );
        xtrapulp_obs::mem::set(
            &format!("halo_tables_rank{}", self.rank),
            self.halo.approx_bytes(),
        );
    }

    // --------------------------------------------------------------------------------
    // Delta application
    // --------------------------------------------------------------------------------

    /// Apply a [`GraphDelta`](crate::delta::GraphDelta) collectively, producing the
    /// updated per-rank graph.
    ///
    /// When vertex ownership is stable under the delta (always for `Cyclic`, `Hashed`
    /// and `Explicit` distributions; for `Block` when no vertices are added), the graph is
    /// *patched* in one pass beside the delta's row cursor
    /// ([`GraphDelta::rows`](crate::delta::GraphDelta::rows)). Owned local ids are kept,
    /// and so is every surviving ghost's slot. Rows the delta does not name are copied as
    /// slices; rows it names are merged with their insert and delete arcs, bisecting for
    /// the neighbours the delta names. Only an *inserted* arc's target is looked up by
    /// global id: by position if it is owned, else in the ghost map, else it is a new
    /// ghost. A ghost that loses its last arc on this rank leaves the table; a new ghost
    /// takes its slot, or, if there is none, the table's last ghost moves into it, so the
    /// ghost set and count are a from-scratch build's, up to which slot each ghost holds
    /// (no result depends on that: rows ascend in global id and transposes in owned id).
    /// The ghost metadata and the [`HaloPlan`] are patched too. Every rank holds the
    /// whole delta, so a surviving ghost's degree moves by its net arc count in it, and
    /// only the ghosts the delta creates, moves or orphans travel to their owners: one
    /// `Alltoallv` whose tally also sums the arc change (hence `global_m`), answered by
    /// one more with the new ghosts' degrees and any degree the net count got wrong. An
    /// empty delta issues no collective.
    /// Growing a `Block` distribution shifts the ownership of existing vertices, so that
    /// case routes the surviving arcs to their new owners instead, as
    /// [`redistribute`](DistGraph::redistribute) does — still without touching the
    /// original edge list. Growing an `Explicit` distribution extends its ownership table
    /// by hashing the new tail vertices to ranks ([`Distribution::grown`]): existing
    /// owners are untouched, so the incremental path applies.
    ///
    /// Every rank must pass an identical delta. Must be called collectively.
    ///
    /// # Panics
    ///
    /// Panics if the delta's base vertex count does not match.
    pub fn apply_delta(&self, ctx: &RankCtx, delta: &crate::delta::GraphDelta) -> Self {
        assert_eq!(
            delta.base_n(),
            self.global_n,
            "delta was built against a graph with {} vertices, this graph has {}",
            delta.base_n(),
            self.global_n
        );
        let stable = match &self.dist {
            Distribution::Cyclic | Distribution::Hashed | Distribution::Explicit(_) => true,
            Distribution::Block => delta.added_vertices() == 0,
        };
        if stable {
            self.apply_delta_stable(ctx, delta)
        } else {
            self.apply_delta_migrating(ctx, delta)
        }
    }

    /// The patch for deltas that do not move any existing vertex between ranks: only what
    /// the delta names is looked at, and only the ghosts it creates, moves or orphans
    /// travel.
    fn apply_delta_stable(&self, ctx: &RankCtx, delta: &crate::delta::GraphDelta) -> Self {
        use crate::delta::{merge_row, patch_rows, Merged};
        if delta.is_empty() {
            // Every rank holds the same delta, so every rank skips the handshake.
            return self.clone();
        }
        let (rank, nranks, new_n) = (self.rank, self.nranks, delta.new_n());
        // Deterministic and prefix-stable, so existing owners are unchanged and every
        // rank agrees on the owners of the new tail (a no-op clone for the functional
        // distributions and for non-growing deltas).
        let dist = self.dist.grown(new_n, nranks);

        // Owned vertices: the old set is preserved (ownership is stable), new vertices
        // owned by this rank are appended, keeping owned local ids valid and sorted.
        let mut owned_global = self.owned_global.clone();
        owned_global
            .extend((self.global_n..new_n).filter(|&g| dist.owner(g, new_n, nranks) == rank));
        let shell = Self::shell(ctx, dist, new_n, owned_global);
        let (old_n_owned, n_owned) = (self.n_owned(), shell.n_owned());
        let old_n_ghost = self.n_ghost();
        // Every rank's ghost local ids move up by the vertices it newly owns.
        let mut holder_shift = vec![0 as LocalId; nranks];
        for g in self.global_n..new_n {
            holder_shift[shell.owner_of_global(g)] += 1;
        }

        // The rows. Untouched runs are copied, a ghost's local id moving with this rank's
        // shift; a named row is merged, its kept runs copied the same way. An inserted
        // ghost target keeps its old slot, and a ghost the old graph did not know takes a
        // provisional one past the old table. Every arc a ghost gains or loses is an edit
        // of its transpose row.
        let mut fresh = GhostTable::default();
        let mut edits: Vec<(u32, LocalId, bool)> = Vec::new();
        // Rows whose degree moved by other than their net arc count in the delta.
        let mut miscounted = Vec::new();
        let named = delta.rows().filter_map(|(gu, inserts, deletes)| {
            Some((shell.owned_local_id(gu)? as usize, (inserts, deletes)))
        });
        let (shift, first_ghost) = (holder_shift[rank], old_n_owned as LocalId);
        let copy = |run: &[LocalId], out: &mut Vec<LocalId>| {
            if shift == 0 {
                out.extend_from_slice(run);
            } else {
                out.extend(
                    run.iter()
                        .map(|&lv| lv + shift * LocalId::from(lv >= first_ghost)),
                );
            }
        };
        let (offsets, mut adjacency) = patch_rows(
            (&self.offsets, &self.adjacency),
            (n_owned, self.adjacency.len() + delta.insert_arcs().len()),
            named,
            copy,
            |lu, (inserts, deletes), out| {
                let old = if lu < old_n_owned {
                    self.neighbors(lu as LocalId)
                } else {
                    &[]
                };
                let (lu, start) = (lu as LocalId, out.len());
                let key = |lv| self.global_id(lv);
                merge_row(old, key, inserts, deletes, |merged| match merged {
                    Merged::Kept(run) => copy(run, out),
                    Merged::Dropped(lv) if !self.is_owned(lv) => {
                        edits.push((lv - old_n_owned as LocalId, lu, false));
                    }
                    Merged::Dropped(_) => {}
                    Merged::Inserted(gv) => {
                        let lv = shell.owned_local_id(gv).unwrap_or_else(|| {
                            let slot = match self.ghost_slot.get(&gv) {
                                Some(&slot) => slot,
                                None => (old_n_ghost as u32) + fresh.slot(gv),
                            };
                            edits.push((slot, lu, true));
                            n_owned as LocalId + slot
                        });
                        out.push(lv);
                    }
                });
                let net = inserts.len() as i64 - deletes.len() as i64;
                if (out.len() - start) as i64 - old.len() as i64 != net {
                    miscounted.push(lu);
                }
            },
        );

        // An old ghost none of whose arcs survives retires. Fresh ghosts refill the
        // lowest retired slots (the first ones seen are appended instead when there are
        // more fresh ghosts than holes); a hole left over takes the table's last ghost.
        edits.sort_unstable();
        let retired: Vec<u32> = edits
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|run| (run[0].0 as usize) < old_n_ghost)
            .filter(|run| {
                let gained = run.iter().filter(|edit| edit.2).count();
                let dropped = run.len() - gained;
                self.halo.owned_neighbors(run[0].0 as usize).len() + gained == dropped
            })
            .map(|run| run[0].0)
            .collect();
        let n_fresh = fresh.global.len();
        let n_ghost = old_n_ghost + n_fresh - retired.len();
        let appended = n_fresh.saturating_sub(retired.len());
        let mut holes = retired.iter().copied();
        // `(from, to)`: a provisional or old slot, and the slot it takes.
        let mut relocations: Vec<(u32, u32)> = (appended..n_fresh)
            .zip(holes.by_ref())
            .map(|(k, hole)| ((old_n_ghost + k) as u32, hole))
            .collect();
        let survivors = (n_ghost..old_n_ghost).rev().map(|slot| slot as u32);
        let tail = survivors.filter(|slot| retired.binary_search(slot).is_err());
        relocations.extend(
            holes
                .take_while(|&hole| (hole as usize) < n_ghost)
                .zip(tail)
                .map(|(hole, from)| (from, hole)),
        );

        // The ghost table, fresh ghosts at their provisional slots, then relocated. A
        // surviving ghost's degree moves by its net arc count in the delta, which every
        // rank holds; an owner whose vertex's row did not change by that much corrects
        // it below, and relocated ones are answered anew.
        let mut ghost_global = with_room(&self.ghost_global, n_fresh);
        let mut ghost_owner = with_room(&self.ghost_owner, n_fresh);
        let mut ghost_degree = with_room(&self.ghost_degree, n_fresh);
        let mut ghost_slot = self.ghost_slot.clone();
        let same_source = |a: &(GlobalId, _), b: &(GlobalId, _)| a.0 == b.0;
        let inserts = delta.insert_arcs().chunk_by(same_source);
        let deletes = delta.delete_arcs().chunk_by(same_source);
        let inserted = inserts.map(|run| (run[0].0, run.len() as i64));
        let deleted = deletes.map(|run| (run[0].0, -(run.len() as i64)));
        for (g, net) in inserted.chain(deleted) {
            if shell.owner_of_global(g) == rank {
                continue;
            }
            if let Some(&slot) = self.ghost_slot.get(&g) {
                let degree = &mut ghost_degree[slot as usize];
                *degree = degree.wrapping_add_signed(net);
            }
        }
        for &slot in &retired {
            ghost_slot.remove(&self.ghost_global[slot as usize]);
        }
        for (k, &g) in fresh.global.iter().enumerate() {
            ghost_global.push(g);
            ghost_owner.push(shell.owner_of_global(g) as u32);
            ghost_degree.push(0);
            ghost_slot.insert(g, (old_n_ghost + k) as u32);
        }
        for &(from, to) in &relocations {
            let (from, to) = (from as usize, to as usize);
            ghost_global[to] = ghost_global[from];
            ghost_owner[to] = ghost_owner[from];
            ghost_degree[to] = ghost_degree[from];
            ghost_slot.insert(ghost_global[to], to as u32);
        }

        // The handshake, one round to the owners: each new ghost (its slot now) and each
        // relocated one is *set* as `(global id, local id)`, each retired one dropped
        // (`RETIRED`). The tally sums the arc change, hence `global_m`.
        let mut sends: Vec<Vec<(GlobalId, LocalId)>> = vec![Vec::new(); nranks];
        for &slot in &retired {
            let slot = slot as usize;
            sends[self.ghost_owner[slot] as usize].push((self.ghost_global[slot], RETIRED));
        }
        let set =
            (old_n_ghost..old_n_ghost + appended).chain(relocations.iter().map(|r| r.1 as usize));
        for slot in set {
            sends[ghost_owner[slot] as usize]
                .push((ghost_global[slot], (n_owned + slot) as LocalId));
        }
        let arc_change = adjacency.len() as i64 - self.adjacency.len() as i64;
        let (received, arcs) = ctx.alltoallv_sum(sends, &[arc_change]);
        let global_m = self.global_m.wrapping_add_signed(arcs[0] / 2);

        // Owners patch their send rows and answer each set with the vertex's degree (0,
        // and no send entry, for a vertex they do not own).
        let new_degree = |lv: usize| offsets[lv + 1] - offsets[lv];
        let mut send_edits = Vec::new();
        let mut answers: Vec<Vec<(LocalId, u64)>> = vec![Vec::new(); nranks];
        for (holder, items) in received.iter().enumerate() {
            for &(g, lid) in items {
                let owned = shell.owned_local_id(g);
                if lid != RETIRED {
                    answers[holder].push((lid, owned.map_or(0, |v| new_degree(v as usize))));
                }
                if let Some(v) = owned {
                    send_edits.push((v, holder as u32, (lid != RETIRED).then_some(lid)));
                }
            }
        }
        send_edits.sort_unstable();
        // Transpose edits by final slot; a retired ghost's are dropped with it.
        let mut by_from = relocations.clone();
        by_from.sort_unstable();
        let mut edits: Vec<(u32, LocalId, bool)> = edits
            .into_iter()
            .filter(|edit| retired.binary_search(&edit.0).is_err())
            .map(|(slot, lu, gained)| {
                let to = by_from.binary_search_by_key(&slot, |r| r.0);
                (to.map_or(slot, |i| by_from[i].1), lu, gained)
            })
            .collect();
        edits.sort_unstable();
        let mut relocated: Vec<(u32, u32)> =
            relocations.iter().map(|&(from, to)| (to, from)).collect();
        relocated.sort_unstable();
        let halo = self.halo.patched(
            n_owned,
            &holder_shift,
            &send_edits,
            n_ghost,
            &relocated,
            &edits,
        );

        // A relocated ghost's arcs still name its provisional or old slot: its transpose
        // row says which rows hold one, and the row, ascending in global id, where.
        let global_of = |lv: LocalId| match (lv as usize).checked_sub(n_owned) {
            Some(slot) => ghost_global[slot],
            None => shell.owned_global[lv as usize],
        };
        for &(to, from) in &relocated {
            let g = ghost_global[to as usize];
            for &lu in halo.owned_neighbors(to as usize) {
                let (start, end) = (offsets[lu as usize], offsets[lu as usize + 1]);
                let row = &mut adjacency[start as usize..end as usize];
                let at = row.partition_point(|&lv| global_of(lv) < g);
                debug_assert_eq!(
                    row[at],
                    n_owned as LocalId + from,
                    "relocated arc out of place"
                );
                row[at] = n_owned as LocalId + to;
            }
        }
        ghost_global.truncate(n_ghost);
        ghost_owner.truncate(n_ghost);
        ghost_degree.truncate(n_ghost);

        // The answers, one round back: owners also correct what the delta's net arc
        // count got wrong (an insert of an edge that existed, a delete of one that did
        // not), for every holder left in the vertex's row.
        for v in miscounted {
            for &(holder, lid) in halo.targets(v) {
                answers[holder as usize].push((lid, new_degree(v as usize)));
            }
        }
        for (lid, degree) in ctx.alltoallv(answers).into_iter().flatten() {
            let slot = (lid as usize).wrapping_sub(n_owned);
            if let Some(stored) = ghost_degree.get_mut(slot) {
                *stored = degree;
            }
        }
        let graph = DistGraph {
            global_m,
            ghost_global,
            ghost_owner,
            ghost_degree,
            ghost_slot,
            offsets,
            adjacency,
            halo,
            ..shell
        };
        graph.set_table_gauges();
        graph
    }

    /// Migration rebuild for deltas that shift existing-vertex ownership (growing a
    /// `Block` distribution): surviving arcs are routed to their owners in the grown graph.
    /// Every rank holds the whole delta, so each keeps only the insertion arcs it owns,
    /// and those stay in the local bucket.
    fn apply_delta_migrating(&self, ctx: &RankCtx, delta: &crate::delta::GraphDelta) -> Self {
        let new_n = delta.new_n();
        let kept = self.owned_arcs().filter(|&(u, v)| !delta.is_deleted(u, v));
        let inserted = delta
            .insert_arcs()
            .iter()
            .copied()
            .filter(|&(u, _)| self.dist.owner(u, new_n, self.nranks) == self.rank);
        Self::route_arcs(ctx, self.dist.clone(), new_n, kept.chain(inserted))
    }

    // --------------------------------------------------------------------------------
    // Sizes and identity
    // --------------------------------------------------------------------------------

    /// Number of vertices owned by this rank.
    pub fn n_owned(&self) -> usize {
        self.owned_global.len()
    }

    /// Number of ghost vertices (neighbours owned by other ranks).
    pub fn n_ghost(&self) -> usize {
        self.ghost_global.len()
    }

    /// Owned plus ghost vertices: the length required for per-vertex state vectors.
    pub fn n_total(&self) -> usize {
        self.n_owned() + self.n_ghost()
    }

    /// Number of vertices in the global graph.
    pub fn global_n(&self) -> u64 {
        self.global_n
    }

    /// Number of undirected edges in the global graph.
    pub fn global_m(&self) -> u64 {
        self.global_m
    }

    /// Number of directed arcs stored on this rank (the local workload measure the edge
    /// balance phase equalises).
    pub fn local_arcs(&self) -> u64 {
        self.adjacency.len() as u64
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks the graph is distributed over.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The ownership function used to distribute the graph.
    pub fn distribution(&self) -> Distribution {
        self.dist.clone()
    }

    /// Approximate heap footprint of this rank's ghost tables in bytes: the ghost
    /// global-id, owner and degree arrays plus the ghost map, which holds nothing else
    /// (keyed entries at ~24 bytes each with hash-table overhead).
    pub fn ghost_bytes(&self) -> u64 {
        let n_ghost = self.ghost_global.len() as u64;
        n_ghost * (8 + 4 + 8) + n_ghost * 24
    }

    // --------------------------------------------------------------------------------
    // Topology accessors
    // --------------------------------------------------------------------------------

    /// Neighbours (as local ids) of an owned vertex.
    pub fn neighbors(&self, v: LocalId) -> &[LocalId] {
        debug_assert!(
            (v as usize) < self.n_owned(),
            "neighbors() requires an owned vertex"
        );
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.adjacency[start..end]
    }

    /// Degree of an owned vertex.
    pub fn degree_owned(&self, v: LocalId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Degree of any local vertex: the local degree for owned vertices, the global degree
    /// (fetched from the owner at construction time) for ghosts.
    pub fn degree(&self, v: LocalId) -> u64 {
        let v = v as usize;
        if v < self.n_owned() {
            self.degree_owned(v as LocalId)
        } else {
            self.ghost_degree[v - self.n_owned()]
        }
    }

    /// Is this local id an owned vertex (as opposed to a ghost)?
    pub fn is_owned(&self, v: LocalId) -> bool {
        (v as usize) < self.n_owned()
    }

    /// Global id of a local vertex (owned or ghost).
    pub fn global_id(&self, v: LocalId) -> GlobalId {
        let v = v as usize;
        if v < self.n_owned() {
            self.owned_global[v]
        } else {
            self.ghost_global[v - self.n_owned()]
        }
    }

    /// Local id of a global vertex if it is known to this rank (owned or ghost).
    pub fn local_id(&self, g: GlobalId) -> Option<LocalId> {
        self.owned_local_id(g)
            .or_else(|| Some(self.n_owned() as LocalId + self.ghost_slot.get(&g)?))
    }

    /// Local id of a global vertex this rank owns; `None` for a ghost, for any other
    /// vertex owned elsewhere and for `g >= global_n`. Owned global ids ascend with the
    /// local id under every [`Distribution`], so the answer is the position of `g` among
    /// them: arithmetic for `Block` and `Cyclic`, a binary search otherwise.
    pub fn owned_local_id(&self, g: GlobalId) -> Option<LocalId> {
        if g >= self.global_n {
            return None;
        }
        let at = match self.dist {
            Distribution::Block => g.checked_sub(*self.owned_global.first()?)?,
            Distribution::Cyclic => {
                let nranks = self.nranks as u64;
                (g % nranks == self.rank as u64).then_some(g / nranks)?
            }
            Distribution::Hashed | Distribution::Explicit(_) => {
                self.owned_global.binary_search(&g).ok()? as u64
            }
        };
        (at < self.n_owned() as u64).then_some(at as LocalId)
    }

    /// The rank that owns a local vertex.
    pub fn owner_of_local(&self, v: LocalId) -> usize {
        let v = v as usize;
        if v < self.n_owned() {
            self.rank
        } else {
            self.ghost_owner[v - self.n_owned()] as usize
        }
    }

    /// The rank that owns a global vertex.
    pub fn owner_of_global(&self, g: GlobalId) -> usize {
        self.dist.owner(g, self.global_n, self.nranks)
    }

    /// Iterate over owned vertices as local ids.
    pub fn owned_vertices(&self) -> impl Iterator<Item = LocalId> + '_ {
        0..self.n_owned() as LocalId
    }

    /// Global ids of this rank's ghosts, indexed by `local_id - n_owned()`.
    pub fn ghost_globals(&self) -> &[GlobalId] {
        &self.ghost_global
    }

    /// This rank's arcs `(u, v)` by global id, row after row, each row ascending in `v`:
    /// the row export [`Csr::from_rows`] assembles a whole graph from.
    pub fn owned_arcs(&self) -> impl Iterator<Item = (GlobalId, GlobalId)> + Clone + '_ {
        (0..self.n_owned() as LocalId).flat_map(move |u| {
            let gu = self.global_id(u);
            self.neighbors(u)
                .iter()
                .map(move |&v| (gu, self.global_id(v)))
        })
    }

    // --------------------------------------------------------------------------------
    // Ghost exchange
    // --------------------------------------------------------------------------------

    /// The graph's halo plan: the send rows and ghost→owned transpose every ghost array of
    /// this graph is kept coherent through.
    #[inline]
    pub fn halo(&self) -> &HaloPlan {
        &self.halo
    }

    /// Make `values` — one entry per local vertex, owned first, ghosts after — coherent:
    /// the owned prefix is left as it is and every ghost entry becomes its owner's value,
    /// by a [`push`](HaloPlan::push) over every owned vertex into the tail. A kernel then
    /// reads `values[u]` for any neighbour `u` without asking which side of `n_owned()`
    /// it lies on. Must be called collectively (one `Alltoallv`).
    pub fn refresh_ghosts<T: WireElem>(
        &self,
        ctx: &RankCtx,
        values: &mut [T],
    ) -> Result<(), HaloError> {
        assert_eq!(values.len(), self.n_total(), "one value per local vertex");
        let (owned, ghosts) = values.split_at_mut(self.n_owned());
        let updates = owned.iter().enumerate().map(|(v, &x)| (v as LocalId, x));
        self.halo.push(ctx, updates, &[], ghosts, |_, _, _| {})?;
        Ok(())
    }
}

/// A copy of `old` with room for `extra` more entries, so that pushing them cannot
/// double the capacity the graph then keeps.
fn with_room<T: Copy>(old: &[T], extra: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(old.len() + extra);
    copy.extend_from_slice(old);
    copy
}

/// The local id a holder registers for a ghost it no longer holds.
const RETIRED: LocalId = LocalId::MAX;

/// A ghost table being filled: each ghost takes the next slot the first time a builder
/// meets it, and its entry in the graph's ghost map at the same time.
#[derive(Default)]
struct GhostTable {
    global: Vec<GlobalId>,
    slots: HashMap<GlobalId, u32>,
}

impl GhostTable {
    /// Slot of ghost `g`, handing it the next one if it has none yet.
    #[inline]
    fn slot(&mut self, g: GlobalId) -> u32 {
        *self.slots.entry(g).or_insert_with(|| {
            self.global.push(g);
            self.global.len() as u32 - 1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_from_edges;
    use xtrapulp_comm::Runtime;

    /// A small graph used across tests: two triangles joined by one bridge edge.
    ///   0-1-2-0   3-4-5-3   2-3 bridge
    fn two_triangles() -> Vec<(GlobalId, GlobalId)> {
        vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    }

    #[test]
    fn single_rank_holds_whole_graph() {
        let edges = two_triangles();
        let out = Runtime::new(1).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            (g.n_owned(), g.n_ghost(), g.global_m(), g.local_arcs())
        });
        assert_eq!(out[0], (6, 0, 7, 14));
    }

    #[test]
    fn multi_rank_block_distribution_builds_ghosts() {
        let edges = two_triangles();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            assert_eq!(g.global_n(), 6);
            assert_eq!(g.global_m(), 7);
            assert_eq!(g.n_owned(), 3);
            // Rank 0 owns {0,1,2}; vertex 2's neighbour 3 is a ghost. Symmetrically for rank 1.
            assert_eq!(g.n_ghost(), 1);
            let ghost_global = g.ghost_globals()[0];
            let expected_ghost = if ctx.rank() == 0 { 3 } else { 2 };
            assert_eq!(ghost_global, expected_ghost);
            // Ghost degree equals the global degree of the bridge endpoint (3).
            assert_eq!(g.degree(g.n_owned() as LocalId), 3);
            g.local_arcs()
        });
        assert_eq!(out.iter().sum::<u64>(), 14);
    }

    #[test]
    fn from_csr_and_from_shared_edges_agree() {
        let edges = two_triangles();
        let csr = csr_from_edges(6, &edges);
        let out = Runtime::new(3).execute(|ctx| {
            let a = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 6, &edges);
            let b = DistGraph::from_csr(ctx, Distribution::Cyclic, &csr);
            assert_eq!(a.n_owned(), b.n_owned());
            assert_eq!(a.n_ghost(), b.n_ghost());
            assert_eq!(a.local_arcs(), b.local_arcs());
            for v in 0..a.n_owned() as LocalId {
                let mut na: Vec<GlobalId> =
                    a.neighbors(v).iter().map(|&u| a.global_id(u)).collect();
                let mut nb: Vec<GlobalId> =
                    b.neighbors(v).iter().map(|&u| b.global_id(u)).collect();
                na.sort_unstable();
                nb.sort_unstable();
                assert_eq!(na, nb);
            }
            true
        });
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn from_local_edges_shuffles_to_owners() {
        let edges = two_triangles();
        let out = Runtime::new(3).execute(|ctx| {
            // Each rank starts with a disjoint slice of the edge list.
            let chunk: Vec<_> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % ctx.nranks() == ctx.rank())
                .map(|(_, &e)| e)
                .collect();
            let g = DistGraph::from_local_edges(ctx, Distribution::Block, 6, chunk);
            let h = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            assert_eq!(g.local_arcs(), h.local_arcs());
            assert_eq!(g.n_ghost(), h.n_ghost());
            g.global_m()
        });
        assert!(out.iter().all(|&m| m == 7));
    }

    #[test]
    fn duplicate_and_self_loop_edges_are_cleaned() {
        let mut edges = two_triangles();
        edges.push((0, 1));
        edges.push((1, 0));
        edges.push((4, 4));
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            g.global_m()
        });
        assert!(out.iter().all(|&m| m == 7));
    }

    #[test]
    fn global_local_id_round_trip() {
        let edges = two_triangles();
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, 6, &edges);
            for v in 0..g.n_total() as LocalId {
                let gid = g.global_id(v);
                assert_eq!(g.local_id(gid), Some(v));
            }
            for v in g.owned_vertices() {
                assert!(g.is_owned(v));
                assert_eq!(g.owner_of_local(v), ctx.rank());
                assert_eq!(g.owner_of_global(g.global_id(v)), ctx.rank());
            }
            for ghost_slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + ghost_slot) as LocalId;
                assert!(!g.is_owned(lid));
                assert_ne!(g.owner_of_local(lid), ctx.rank());
            }
        });
    }

    #[test]
    fn ghost_degrees_match_global_degrees() {
        let edges = two_triangles();
        let csr = csr_from_edges(6, &edges);
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 6, &edges);
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                assert_eq!(g.degree(lid), csr.degree(g.global_id(lid)));
            }
        });
    }

    #[test]
    fn refresh_ghosts_fills_the_tail_with_owner_values() {
        let edges = two_triangles();
        for nranks in 1..=4usize {
            // An explicit placement unlike the three functional ones: (0, 0, 1, 1, ...).
            let halves: Vec<i32> = (0..6).map(|v| (v / 2 % nranks) as i32).collect();
            for dist in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::Hashed,
                Distribution::from_parts(&halves),
            ] {
                Runtime::new(nranks).execute(|ctx| {
                    let g = DistGraph::from_shared_edges(ctx, dist.clone(), 6, &edges);
                    // Every vertex's value is 1000 + its global id; ghosts start stale.
                    let mut values: Vec<u64> = (0..g.n_total() as LocalId)
                        .map(|v| {
                            if g.is_owned(v) {
                                1000 + g.global_id(v)
                            } else {
                                7
                            }
                        })
                        .collect();
                    let owned = values[..g.n_owned()].to_vec();
                    g.refresh_ghosts(ctx, &mut values).unwrap();
                    assert_eq!(values[..g.n_owned()], owned, "owned prefix untouched");
                    for (v, &value) in values.iter().enumerate().skip(g.n_owned()) {
                        assert_eq!(value, 1000 + g.global_id(v as LocalId));
                    }
                });
            }
        }
    }

    #[test]
    fn refresh_ghosts_rejects_a_slot_outside_the_ghost_range() {
        let edges = two_triangles();
        for bad_slot in [0, LocalId::MAX - 1] {
            let out = Runtime::new(2).execute(|ctx| {
                let mut g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
                if ctx.rank() == 0 {
                    // The bridge endpoint (local id 2) claims an owned (or out-of-range)
                    // local id on rank 1.
                    g.halo = HaloPlan::new(&g, &[vec![], vec![(2, bad_slot)]]);
                }
                let mut values = vec![ctx.rank() as i32; g.n_total()];
                let refreshed = g.refresh_ghosts(ctx, &mut values);
                if ctx.rank() == 1 {
                    assert!(values.iter().all(|&x| x == 1), "nothing may be stored");
                }
                refreshed
            });
            assert_eq!(out[0], Ok(()));
            assert!(
                matches!(out[1], Err(HaloError { peer: 0, .. })),
                "rank 1 got {:?}",
                out[1]
            );
        }
    }

    #[test]
    fn a_registration_for_a_vertex_the_owner_does_not_own_is_answered_with_degree_zero() {
        // The ranks disagree about the owner of vertex 3: rank 0 says rank 1, rank 1 says
        // rank 0, so each holds it as a ghost and registers it with a peer that does not
        // own it.
        let csr = csr_from_edges(6, &two_triangles());
        Runtime::new(2).execute(|ctx| {
            let owners: &[i32] = if ctx.rank() == 0 {
                &[0, 0, 0, 1, 1, 1]
            } else {
                &[0, 0, 0, 0, 1, 1]
            };
            let g = DistGraph::from_csr(ctx, Distribution::from_parts(owners), &csr);
            assert_eq!(g.owned_local_id(3), None);
            let ghost = g.local_id(3).expect("vertex 3 is a ghost on both ranks");
            assert!(!g.is_owned(ghost));
            assert_eq!(g.degree(ghost), 0);
            for v in g.owned_vertices() {
                assert!(
                    g.halo().targets(v).is_empty(),
                    "no send row may name vertex 3's ghost"
                );
            }
        });
    }

    /// Assert that `updated` is structurally identical to a from-scratch build of the
    /// post-delta edge list: same ownership, ghosts, degrees, per-vertex adjacency and
    /// halo plan.
    fn assert_same_graph(a: &DistGraph, b: &DistGraph) {
        assert_eq!(a.global_n(), b.global_n());
        assert_eq!(a.global_m(), b.global_m());
        assert_eq!(a.n_owned(), b.n_owned());
        assert_eq!(a.n_ghost(), b.n_ghost());
        assert_eq!(a.local_arcs(), b.local_arcs());
        for v in 0..a.n_total() as LocalId {
            assert_eq!(a.global_id(v), b.global_id(v));
            assert_eq!(a.degree(v), b.degree(v));
        }
        for v in 0..a.n_owned() as LocalId {
            let na: Vec<GlobalId> = a.neighbors(v).iter().map(|&u| a.global_id(u)).collect();
            let nb: Vec<GlobalId> = b.neighbors(v).iter().map(|&u| b.global_id(u)).collect();
            assert_eq!(na, nb);
        }
        for v in 0..a.n_total() as LocalId {
            assert_eq!(a.local_id(a.global_id(v)), Some(v));
        }
        for v in 0..a.n_owned() as LocalId {
            assert_eq!(a.halo().targets(v), b.halo().targets(v));
        }
        for slot in 0..a.n_ghost() {
            assert_eq!(
                a.halo().owned_neighbors(slot),
                b.halo().owned_neighbors(slot)
            );
        }
    }

    /// Assert that `a` is `b` up to which slot each ghost holds, comparing by global id:
    /// ghost set, ids both ways, degrees, owners, rows, send destinations and transposes
    /// under the slot permutation; then, across ranks, that every send target names a
    /// ghost of its vertex and every ghost is named once, and that a refresh of global
    /// ids lands each ghost's own id. Must be called collectively.
    fn assert_equivalent_graph(ctx: &RankCtx, a: &DistGraph, b: &DistGraph) {
        assert_eq!(
            (a.global_n(), a.global_m(), a.n_owned(), a.n_ghost()),
            (b.global_n(), b.global_m(), b.n_owned(), b.n_ghost())
        );
        let set = |g: &DistGraph| -> Vec<GlobalId> {
            let mut ghosts = g.ghost_globals().to_vec();
            ghosts.sort_unstable();
            ghosts
        };
        assert_eq!(set(a), set(b));
        for g in 0..=a.global_n() {
            assert_eq!(a.local_id(g).is_some(), b.local_id(g).is_some());
        }
        for v in 0..a.n_total() as LocalId {
            let g = a.global_id(v);
            assert_eq!(a.local_id(g), Some(v));
            let w = b.local_id(g).unwrap();
            assert_eq!(a.degree(v), b.degree(w));
            assert_eq!(a.owner_of_local(v), b.owner_of_local(w));
        }
        let by_global = |g: &DistGraph, row: &[LocalId]| -> Vec<GlobalId> {
            row.iter().map(|&u| g.global_id(u)).collect()
        };
        for v in a.owned_vertices() {
            assert_eq!(by_global(a, a.neighbors(v)), by_global(b, b.neighbors(v)));
            let holders =
                |g: &DistGraph| -> Vec<u32> { g.halo().targets(v).iter().map(|t| t.0).collect() };
            assert_eq!(holders(a), holders(b));
        }
        for (slot, &g) in a.ghost_globals().iter().enumerate() {
            let other = b.ghost_slot[&g] as usize;
            assert_eq!(
                a.halo().owned_neighbors(slot),
                b.halo().owned_neighbors(other)
            );
        }
        let mut claims: Vec<Vec<(LocalId, GlobalId)>> = vec![Vec::new(); ctx.nranks()];
        for v in a.owned_vertices() {
            for &(holder, lid) in a.halo().targets(v) {
                claims[holder as usize].push((lid, a.global_id(v)));
            }
        }
        let mut named = vec![0u32; a.n_ghost()];
        for (lid, g) in ctx.alltoallv(claims).into_iter().flatten() {
            assert!(!a.is_owned(lid));
            assert_eq!(a.global_id(lid), g);
            named[lid as usize - a.n_owned()] += 1;
        }
        assert!(named.iter().all(|&n| n == 1), "ghosts named {named:?}");
        let mut ids: Vec<GlobalId> = a.owned_global.clone();
        ids.resize(a.n_total(), GlobalId::MAX);
        a.refresh_ghosts(ctx, &mut ids).unwrap();
        assert_eq!(ids[a.n_owned()..], a.ghost_global[..]);
    }

    #[test]
    fn apply_delta_stable_matches_from_scratch() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        // Delete the bridge, insert a new bridge and grow by one vertex hooked to both
        // triangles. Cyclic/Hashed ownership is stable under growth.
        let delta = GraphDelta::new(6, 1, &[(1, 4), (6, 0), (6, 5)], &[(2, 3)]);
        let mut new_edges: Vec<_> = edges.iter().copied().filter(|&e| e != (2, 3)).collect();
        new_edges.extend([(1, 4), (6, 0), (6, 5)]);
        for dist in [Distribution::Cyclic, Distribution::Hashed] {
            for nranks in [1usize, 3] {
                Runtime::new(nranks).execute(|ctx| {
                    let g = DistGraph::from_shared_edges(ctx, dist.clone(), 6, &edges);
                    let updated = g.apply_delta(ctx, &delta);
                    let scratch = DistGraph::from_shared_edges(ctx, dist.clone(), 7, &new_edges);
                    assert_equivalent_graph(ctx, &updated, &scratch);
                });
            }
        }
    }

    #[test]
    fn apply_delta_explicit_growth_hashes_tail_to_owners() {
        use crate::delta::GraphDelta;
        use crate::distribution::splitmix64;
        let edges = two_triangles();
        let nranks = 3usize;
        // Explicit ownership (vertex v owned by rank v % 3), then grow by 2 vertices.
        let owners: Vec<i32> = (0..6).map(|v| (v % nranks as u64) as i32).collect();
        let dist = Distribution::from_parts(&owners);
        let delta = GraphDelta::new(6, 2, &[(6, 0), (7, 6), (7, 3)], &[(2, 3)]);
        let mut new_edges: Vec<_> = edges.iter().copied().filter(|&e| e != (2, 3)).collect();
        new_edges.extend([(6, 0), (7, 6), (7, 3)]);
        Runtime::new(nranks).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, dist.clone(), 6, &edges);
            let updated = g.apply_delta(ctx, &delta);
            // Existing vertices keep their owners; the tail is hashed.
            assert_eq!(updated.global_n(), 8);
            for v in 0..6u64 {
                assert_eq!(updated.owner_of_global(v), (v % nranks as u64) as usize);
            }
            for v in 6..8u64 {
                assert_eq!(
                    updated.owner_of_global(v),
                    (splitmix64(v) % nranks as u64) as usize
                );
            }
            // The incremental rebuild matches a from-scratch build over the grown table.
            let grown = dist.grown(8, ctx.nranks());
            let scratch = DistGraph::from_shared_edges(ctx, grown, 8, &new_edges);
            assert_equivalent_graph(ctx, &updated, &scratch);
        });
    }

    #[test]
    fn apply_delta_block_growth_migrates_ownership() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        // Growing a block distribution remaps existing vertices; the migration path must
        // still reproduce the from-scratch build exactly.
        let delta = GraphDelta::new(6, 4, &[(6, 0), (7, 8), (9, 3)], &[(0, 1)]);
        let mut new_edges: Vec<_> = edges.iter().copied().filter(|&e| e != (0, 1)).collect();
        new_edges.extend([(6, 0), (7, 8), (9, 3)]);
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            let updated = g.apply_delta(ctx, &delta);
            let scratch = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &new_edges);
            assert_same_graph(&updated, &scratch);
        });
    }

    #[test]
    fn apply_delta_deletions_drop_orphaned_ghosts() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            assert_eq!(g.n_ghost(), 1); // the bridge endpoint
            let updated = g.apply_delta(ctx, &GraphDelta::new(6, 0, &[], &[(2, 3)]));
            assert_eq!(
                updated.n_ghost(),
                0,
                "deleting the bridge orphans the ghost"
            );
            assert_eq!(updated.global_m(), 6);
            // The stale ghost id must no longer resolve.
            let stale = if ctx.rank() == 0 { 3 } else { 2 };
            assert_eq!(updated.local_id(stale), None);
        });
    }

    #[test]
    fn apply_delta_empty_delta_is_identity() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            let updated = g.apply_delta(ctx, &GraphDelta::new(6, 0, &[], &[]));
            assert_same_graph(&updated, &g);
        });
    }

    #[test]
    fn the_handshake_carries_only_the_ghosts_a_delta_creates_or_orphans() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        Runtime::new(2).execute(|ctx| {
            let sent = || {
                let stats = ctx.stats().snapshot();
                (stats.collectives, stats.bytes_sent)
            };
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            // An empty delta: no rank communicates.
            let before = sent();
            let same = g.apply_delta(ctx, &GraphDelta::new(6, 0, &[], &[]));
            assert_eq!(sent(), before, "an empty delta issues no collective");
            assert_equivalent_graph(ctx, &same, &g);

            // Three deletions, one of them at the bridge endpoint 2: no ghost is created
            // or orphaned, so the round to the owners carries the arc tally and nothing
            // else, nothing is answered, and rank 1 moves its ghost's degree by the
            // delta's net arc count.
            let before = sent();
            let delta = GraphDelta::new(6, 0, &[], &[(0, 1), (4, 5), (1, 2)]);
            let updated = g.apply_delta(ctx, &delta);
            let after = sent();
            assert_eq!(
                after.0 - before.0,
                2,
                "a round to the owners and their answers"
            );
            assert_eq!(
                after.1 - before.1,
                8,
                "no registration item, only the tally"
            );
            let left: Vec<_> = edges
                .iter()
                .copied()
                .filter(|&(u, v)| !delta.is_deleted(u, v))
                .collect();
            let scratch = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &left);
            assert_equivalent_graph(ctx, &updated, &scratch);
            assert_eq!(updated.global_m(), 4);

            // A second bridge creates a ghost on each rank: one registration each way,
            // each answered with the vertex's degree.
            let before = sent();
            let bridged = updated.apply_delta(ctx, &GraphDelta::new(6, 0, &[(0, 4)], &[]));
            let after = sent();
            assert_eq!(
                after.0 - before.0,
                2,
                "a round to the owners and their answers"
            );
            assert_eq!(
                after.1 - before.1,
                8 + 12 + 12,
                "one registration, one answer"
            );
            let mut more = left.clone();
            more.push((0, 4));
            let scratch = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &more);
            assert_equivalent_graph(ctx, &bridged, &scratch);
        });
    }

    #[test]
    fn apply_delta_chains_across_epochs() {
        use crate::delta::GraphDelta;
        // Apply two successive deltas and compare against one from-scratch build.
        let edges = two_triangles();
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 6, &edges);
            let g1 = g.apply_delta(ctx, &GraphDelta::new(6, 1, &[(6, 2), (6, 3)], &[]));
            let g2 = g1.apply_delta(ctx, &GraphDelta::new(7, 0, &[(0, 4)], &[(6, 2)]));
            let mut final_edges = edges.clone();
            final_edges.extend([(6, 3), (0, 4)]);
            let scratch = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 7, &final_edges);
            assert_equivalent_graph(ctx, &g2, &scratch);
        });
    }

    #[test]
    fn empty_rank_is_tolerated() {
        // More ranks than vertices: some ranks own nothing.
        let edges = vec![(0u64, 1u64)];
        let out = Runtime::new(4).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 2, &edges);
            (g.n_owned(), g.global_m())
        });
        let total_owned: usize = out.iter().map(|(n, _)| n).sum();
        assert_eq!(total_owned, 2);
        assert!(out.iter().all(|&(_, m)| m == 1));
    }
}
