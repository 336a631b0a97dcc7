//! Warm (delta-aware) variants of the analytics kernels.
//!
//! The suite in [`crate::suite`] computes every analytic from scratch on each call — its
//! WCC and k-core are the cold forms of the kernels below — which is the right baseline
//! for the paper's Fig. 8 comparison but wasteful in a serving setting where the graph
//! mutates by small deltas: after a ≤1% churn epoch, the previous PageRank vector is
//! already within a hair of the new fixed point, the previous component labels are
//! correct everywhere no deletion split a component, and the previous coreness values
//! are still valid upper bounds. The kernels here exploit exactly that:
//!
//! * [`pagerank_resume`] — resume power iteration from the previous rank vector and
//!   score only an *active region* seeded from the delta-touched vertices, expanding
//!   it along edges wherever a scored vertex's outgoing contribution still changes
//!   by more than a threshold derived from the convergence tolerance. A cold run is
//!   the same loop with every vertex active.
//! * [`wcc_repair`] — repair the previous component labels: insertions are handled by
//!   the seeded min-label propagation itself (labels merge downhill), deletions by a
//!   connectivity re-check that resets exactly the components a deletion actually split:
//!   one multi-source search from every deleted-edge endpoint, which stops as soon as
//!   every affected component is decided — all its endpoints met (intact), or a region
//!   holding only some of them ran out of frontier (split). The propagation's first sweep
//!   visits only the touched and reset vertices, since the carried labels are a fixed
//!   point everywhere else.
//! * [`kcore_tighten`] — run the h-index peeling `x ← min(x, H(x))` from any pointwise
//!   *upper bound* of the true coreness: the degrees for a cold run
//!   ([`kcore_approx`](crate::algorithms::kcore_approx)), and for a warm one the
//!   previous epoch's values, bumped by the most inserted arcs any one vertex received
//!   and capped by the new degree. It converges to the exact coreness from any such
//!   bound, so warm and cold runs agree exactly — warm ones just start much closer.
//!
//! # Exchange and wake rule
//!
//! Every kernel works on the graph's own [`HaloPlan`](xtrapulp_graph::HaloPlan) — the one
//! the partitioner uses, resolved when the graph was built — and keeps its values
//! (contributions, labels, bounds) in one array over the graph's local ids for the whole
//! call, owned vertices first and ghosts after, as the partitioner keeps its part labels.
//! A neighbour loop reads `values[u]` and a mark loop sets `flag[u]` (the flag arrays are
//! as long; a ghost's flag is never read) for any neighbour `u`: nothing per arc asks
//! whether `u` is owned. A full-boundary push ([`DistGraph::refresh_ghosts`]) fills the
//! ghost tail, and after each iteration only the boundary values that *changed* travel,
//! as `(local id on the holder, value)`, stored by index into that tail
//! (`split_at_mut(n_owned)` hands `push` the tail and the kernel the owned prefix).
//! No global id is shipped or hashed inside an iteration; what a remote change
//! re-activates is found on the holder, one message per (vertex, holder rank) instead of
//! one per cross-rank arc.
//!
//! PageRank's updates carry a wake flag beside the contribution, and
//! [`HaloPlan::deliver`](xtrapulp_graph::HaloPlan::deliver) hands each one to the kernel,
//! which lands the contribution in the ghost tail and records the wake in one of two ways,
//! chosen per rank and per iteration from the arcs of the vertices that woke:
//!
//! * *push* (sparse iterations): a waking vertex marks its neighbours as active, and the
//!   holder of a waking ghost marks that ghost's owned neighbours through the plan's
//!   ghost→owned transpose. The next sweep scores the marked vertices only.
//! * *pull* (dense iterations, where the wakers hold at least 1/8 of the rank's arcs):
//!   a waking vertex, owned or ghost, only sets its own flag in a 1-byte-per-local-id
//!   array. The next sweep reads every vertex's neighbours' flags while it sums their
//!   contributions, and keeps the new value only if a neighbour woke.
//!
//! Both score exactly the vertices with a waking neighbour, in the same order with the
//! same sums, so the ranks and work counters do not depend on the mode; pull mode only
//! saves the marking passes — one write per arc of every waker, and a transpose walk per
//! waking ghost — in the iterations that score (nearly) every vertex anyway.
//!
//! Component sweeps and coreness rounds after the first visit only *woken* vertices, in
//! the full sweep's ascending in-place order, so iterates, counters and round counts are
//! the full sweep's. `v` is woken when a neighbour's value (owned or ghost) *crosses* its
//! own — falls from `≥ x[v]` to `< x[v]`. No other drop can lower `min(x[v], F(v))`,
//! whether `F` is the neighbours' minimum or their h-index (at least `x[v]` of them stay
//! at or above `x[v]`). Waking on every neighbour change does not pay on skewed graphs: a
//! hundred changes wake thousands of vertices through the hubs. The same argument lets a
//! warm component repair start its first sweep from the vertices whose own value or
//! neighbourhood the epoch changed, instead of from every vertex: anywhere else the
//! carried labels already hold `x[v] ≤` every neighbour's, so the full first sweep would
//! leave `v` alone unless a crossing wakes it. Each sweep's global count of lowered
//! values rides on its push's tally, so a sweep is one collective.
//!
//! All kernels are collectives: every rank of the runtime must call them with the same
//! arguments (seed sets and deleted-edge lists are replicated, as they come from the
//! replicated [`GraphDelta`](xtrapulp_graph::GraphDelta) stream). They fail with a
//! [`HaloError`] only when a peer names a ghost slot this rank does not have.

use std::collections::{BTreeMap, BTreeSet};

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, GlobalId, HaloError, LocalId};

/// A PageRank sweep whose waking vertices hold at least `1 / DENSE_WAKES` of the rank's
/// arcs is *dense*: marking their neighbourhoods would cost a fair share of a whole
/// sweep, and the next sweep scores most vertices anyway, so its wakes are kept as flags
/// for that sweep to pull instead.
const DENSE_WAKES: u64 = 8;

/// Work accounting of one [`pagerank_resume`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PagerankWork {
    /// Power-iteration supersteps executed.
    pub iterations: u64,
    /// Active vertices scored, summed over iterations and ranks — the real unit of
    /// PageRank work (a cold run scores `global_n` per iteration).
    pub vertices_scored: u64,
    /// Whether the global L1 residual fell below the tolerance (as opposed to the
    /// iteration cap stopping the run).
    pub converged: bool,
}

/// Resume distributed PageRank from `ranks` (the owned values of this rank, one per
/// owned vertex), scoring only the active region.
///
/// `seeds = None` runs cold: every vertex active every iteration, stopping when the
/// global L1 residual drops below `tol`. `seeds = Some(touched)` (global ids,
/// replicated) activates the touched vertices and their one-hop neighbourhoods; a
/// scored vertex re-activates its neighbours (remote ones through a flag on its
/// contribution update) only while its *outgoing contribution* still changes
/// materially, so the active region grows exactly as far as the delta's influence
/// actually reaches and collapses as the perturbation damps out. Warm runs both score
/// fewer vertices per iteration and converge in fewer iterations (they start near the
/// fixed point); the savings grow with graph size, since the influence ball of a small
/// delta stops covering the whole graph.
#[allow(clippy::too_many_arguments)]
pub fn pagerank_resume(
    ctx: &RankCtx,
    graph: &DistGraph,
    ranks: &mut [f64],
    seeds: Option<&[GlobalId]>,
    damping: f64,
    tol: f64,
    max_iters: usize,
) -> Result<PagerankWork, HaloError> {
    let halo = graph.halo();
    let n_owned = graph.n_owned();
    assert_eq!(ranks.len(), n_owned, "one rank value per owned vertex");
    let n = graph.global_n().max(1) as f64;
    // Per-*edge* activation threshold: a scored vertex re-activates its neighbours
    // only when the change of its outgoing contribution (`damping * delta / degree`)
    // exceeds it — raw rank deltas dilute through high-degree vertices, so hubs stop
    // flooding the active region the way a raw-delta rule makes them. Suppressed
    // notifications are what bounds the error (each frozen vertex misses at most
    // `degree * eps` of input), so the threshold scales with the arc count; the
    // `sqrt` softening reflects that real suppressed sums sit far below the
    // worst-case bound — the parity tests pin the actual accuracy.
    let activate_eps = tol / (graph.global_m().max(1) as f64).sqrt();

    // The vertices a push-mode sweep scores (see the module docs for the two modes). Flags
    // cover every local id, so marking a neighbourhood needs no owned/ghost test; a ghost's
    // flag is never read, and the sweep clears each owned flag it reads.
    let mut active = vec![false; graph.n_total()];
    match seeds {
        None => active.fill(true),
        Some(seeds) => {
            // The seed list is replicated, so every rank marks its own share of each
            // seed's closed neighbourhood without an exchange: a seed it owns with its
            // neighbours, and the owned neighbours of a seed it holds as a ghost.
            for &g in seeds {
                let Some(l) = graph.local_id(g) else {
                    continue;
                };
                let around = if graph.is_owned(l) {
                    active[l as usize] = true;
                    graph.neighbors(l)
                } else {
                    halo.owned_neighbors(l as usize - n_owned)
                };
                for &u in around {
                    active[u as usize] = true;
                }
            }
        }
    }

    let contribution = |v: usize, rank: f64| match graph.degree_owned(v as LocalId) {
        0 => 0.0,
        d => rank / d as f64,
    };
    // The contribution of every local vertex: owned first, ghosts after.
    let mut contrib: Vec<f64> = (0..n_owned).map(|v| contribution(v, ranks[v])).collect();
    contrib.resize(graph.n_total(), 0.0);
    // The wakers of the last iteration, when it was dense: owned flags set after the
    // sweep, ghost flags by the exchange.
    let mut woke = vec![false; graph.n_total()];
    // Whether the next sweep reads `woke` (pull) instead of `active` (push).
    let mut pull = false;
    // What travels is (contribution, whether the update wakes the ghost's neighbours):
    // the contribution lands in `contrib`'s ghost tail, and a wake either marks the
    // ghost's owned neighbours through the transpose (push) or sets its flag (pull).
    let exchange = |moved: &[_], contrib: &mut [f64], marks: &mut [bool], pull: bool| {
        let updates = moved.iter().copied();
        halo.deliver(ctx, updates, &[], |slot, (fresh, wakes)| {
            contrib[n_owned + slot] = fresh;
            if wakes != 0 {
                if pull {
                    marks[n_owned + slot] = true;
                } else {
                    for &u in halo.owned_neighbors(slot) {
                        marks[u as usize] = true;
                    }
                }
            }
        })
    };
    // What a push ships: first the whole boundary, then the scored vertices whose
    // contribution changed or that wake.
    let owned = contrib[..n_owned].iter();
    let mut moved: Vec<_> = (0..).zip(owned.map(|&c| (c, 0))).collect();
    exchange(&moved, &mut contrib, &mut active, false)?;
    // This iteration's scored vertices, and whether each wakes its neighbours.
    let mut scored: Vec<(LocalId, bool)> = Vec::new();

    let mut work = PagerankWork::default();
    for _ in 0..max_iters {
        scored.clear();
        let mut residual = 0.0f64;
        let mut waking_arcs = 0u64;
        for v in 0..n_owned {
            let around = graph.neighbors(v as LocalId);
            let mut sum = 0.0;
            if pull {
                // Scored only if a neighbour woke; the flags are read with the sum.
                let mut woken = false;
                for &u in around {
                    sum += contrib[u as usize];
                    woken |= woke[u as usize];
                }
                if !woken {
                    continue;
                }
            } else {
                if !std::mem::take(&mut active[v]) {
                    continue;
                }
                for &u in around {
                    sum += contrib[u as usize];
                }
            }
            let next_v = (1.0 - damping) / n + damping * sum;
            let delta = (next_v - ranks[v]).abs();
            ranks[v] = next_v;
            residual += delta;
            // A vertex goes (and stays) active only when a neighbour announces a
            // material input change: with unchanged inputs its next update would be a
            // no-op, so there is no self-reactivation.
            let degree = graph.degree_owned(v as LocalId);
            let wakes = damping * delta / degree.max(1) as f64 > activate_eps;
            waking_arcs += if wakes { degree } else { 0 };
            scored.push((v as LocalId, wakes));
        }
        // The sweep read last iteration's contributions and wakes throughout; only now
        // do the scored vertices' contributions move and their wakes get recorded — as
        // flags after a dense sweep, as neighbourhood marks after a sparse one. What
        // changed (or wakes) goes to the holders.
        if pull {
            woke.fill(false);
        }
        pull = waking_arcs * DENSE_WAKES >= graph.local_arcs();
        moved.clear();
        for &(v, wakes) in &scored {
            if wakes {
                if pull {
                    woke[v as usize] = true;
                } else {
                    for &u in graph.neighbors(v) {
                        active[u as usize] = true;
                    }
                }
            }
            let fresh = contribution(v as usize, ranks[v as usize]);
            let stale = std::mem::replace(&mut contrib[v as usize], fresh);
            if wakes || fresh != stale {
                moved.push((v, (fresh, wakes as u8)));
            }
        }
        let marks = if pull { &mut woke } else { &mut active };
        exchange(&moved, &mut contrib, marks, pull)?;
        let reduced = ctx.allreduce_sum_f64(&[residual, scored.len() as f64]);
        work.iterations += 1;
        work.vertices_scored += reduced[1] as u64;
        if reduced[0] < tol {
            work.converged = true;
            break;
        }
    }
    Ok(work)
}

/// Work accounting of one [`wcc_repair`] (or cold [`wcc_propagate`]) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WccWork {
    /// Min-label propagation sweeps executed.
    pub sweeps: u64,
    /// Components whose deleted edges forced a connectivity check (the affected ones).
    pub components_checked: u64,
    /// Vertices whose label was reset because a deletion actually split their
    /// component (summed over ranks).
    pub reset_vertices: u64,
}

/// The monotone in-place iteration `x[v] ← min(x[v], lower(x of v's neighbours, x[v]))`
/// both [`wcc_propagate`] and [`kcore_tighten`] are, run for at most `max_sweeps` sweeps or
/// to the fixed point; returns the sweep count. The first sweep visits the owned vertices
/// `woken` flags (one flag per local id), every one for a cold start; later sweeps visit
/// only the vertices a crossing woke (see the module docs for the rule and why it is
/// exact).
fn tighten(
    ctx: &RankCtx,
    graph: &DistGraph,
    x: &mut [u64],
    mut woken: Vec<bool>,
    max_sweeps: usize,
    mut lower: impl FnMut(&[u64], u64) -> u64,
) -> Result<u64, HaloError> {
    let halo = graph.halo();
    let n_owned = graph.n_owned();
    assert_eq!(x.len(), n_owned, "one value per owned vertex");
    assert_eq!(woken.len(), graph.n_total(), "one flag per local vertex");
    // The value of every local vertex: owned first, ghosts after.
    let mut values = x.to_vec();
    values.resize(graph.n_total(), 0);
    graph.refresh_ghosts(ctx, &mut values)?;
    let crossed = |previous: u64, new: u64, theirs: u64| previous >= theirs && new < theirs;
    // A flag set on a vertex the sweep has yet to reach is consumed by this sweep, as a
    // full sweep would see the lowered value; one set behind it waits for the next. A
    // ghost's flag is set like any neighbour's and never read.
    let mut lowered: Vec<LocalId> = Vec::new();
    let mut neigh: Vec<u64> = Vec::new();
    let mut sweeps = 0u64;
    for _ in 0..max_sweeps {
        lowered.clear();
        for v in 0..n_owned {
            if !std::mem::take(&mut woken[v]) {
                continue;
            }
            let around = graph.neighbors(v as LocalId);
            neigh.clear();
            neigh.extend(around.iter().map(|&u| values[u as usize]));
            let new = lower(&neigh, values[v]);
            if new < values[v] {
                let previous = std::mem::replace(&mut values[v], new);
                lowered.push(v as LocalId);
                for &u in around {
                    woken[u as usize] |= crossed(previous, new, values[u as usize]);
                }
            }
        }
        // The global count of lowered values rides on the push's tally.
        let (owned, ghosts) = values.split_at_mut(n_owned);
        let updates = lowered.iter().map(|&v| (v, owned[v as usize]));
        let tally = [lowered.len() as i64];
        let (_, lowered_globally) =
            halo.push(ctx, updates, &tally, ghosts, |slot, previous, new| {
                for &u in halo.owned_neighbors(slot) {
                    woken[u as usize] |= crossed(previous, new, owned[u as usize]);
                }
            })?;
        sweeps += 1;
        if lowered_globally[0] == 0 {
            break;
        }
    }
    x.copy_from_slice(&values[..n_owned]);
    Ok(sweeps)
}

/// Min-label propagation seeded from `labels` (owned values), run to a fixed point.
/// Seeded with each vertex's own global id it is the cold
/// [`wcc`](crate::algorithms::wcc); with the previous epoch's labels it converges in a
/// couple of sweeps after a small delta. Returns the sweep count.
pub fn wcc_propagate(
    ctx: &RankCtx,
    graph: &DistGraph,
    labels: &mut [u64],
) -> Result<u64, HaloError> {
    let woken = vec![true; graph.n_total()];
    tighten(ctx, graph, labels, woken, usize::MAX, min_label)
}

/// The lower bound of min-label propagation: the least label around `v`, `v`'s own
/// included.
fn min_label(neigh: &[u64], mine: u64) -> u64 {
    neigh.iter().copied().fold(mine, u64::min)
}

/// Repair the previous epoch's component labels after a delta, then propagate to a
/// fixed point.
///
/// `labels` must be the previous epoch's fixed point carried over (new vertices labelled
/// with their own ids), `touched` (replicated, global ids) must hold every endpoint of an
/// inserted edge and every added vertex — the delta's touched vertices are such a set —
/// and `deleted_edges` are the undirected `(min, max)` edges the epoch deleted
/// (replicated).
///
/// Insertions need no preparation — seeded propagation merges labels on its own. For
/// deletions, each previously-existing deleted edge has endpoints in the same old
/// component (its old label). An *affected* component is intact exactly when all its
/// deleted-edge endpoints are still connected (any region a deletion disconnects must
/// border a deleted edge), and then its labels stand; otherwise its labels are reset to
/// the vertices' own ids and recomputed by the propagation phase. One early-exit search
/// from every such endpoint decides all affected components at once (`split_components`).
/// Deleted edges whose endpoints carried *different* old labels were inserted within the
/// same epoch (never part of the previously-labelled graph) and cannot split an old
/// component, so they are skipped.
///
/// Only the touched and reset vertices can break the carried fixed point (a deletion
/// never lowers a neighbour minimum), so the propagation's first sweep starts from them
/// alone; the crossing rule wakes the rest, and the sweeps are the full sweeps'.
pub fn wcc_repair(
    ctx: &RankCtx,
    graph: &DistGraph,
    labels: &mut [u64],
    touched: &[GlobalId],
    deleted_edges: &[(GlobalId, GlobalId)],
) -> Result<WccWork, HaloError> {
    let n_owned = graph.n_owned();
    assert_eq!(labels.len(), n_owned, "one label per owned vertex");
    let mut work = WccWork::default();
    let mut woken = vec![false; graph.n_total()];
    for l in touched.iter().filter_map(|&g| graph.owned_local_id(g)) {
        woken[l as usize] = true;
    }

    if !deleted_edges.is_empty() {
        // Old labels of every deleted-edge endpoint, replicated via allgather (the
        // endpoint set is tiny compared to the graph). Each rank sends its own endpoints'
        // labels in ascending id order, and every rank knows whose they are.
        let mut endpoints: Vec<GlobalId> =
            deleted_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        endpoints.sort_unstable_by_key(|&g| (graph.owner_of_global(g), g));
        endpoints.dedup();
        let local_labels: Vec<u64> = endpoints
            .iter()
            .filter_map(|&g| Some(labels[graph.owned_local_id(g)? as usize]))
            .collect();
        let gathered = ctx.allgatherv(local_labels);
        debug_assert_eq!(gathered.len(), endpoints.len(), "one owner per endpoint");
        let label_of: BTreeMap<GlobalId, u64> = endpoints.into_iter().zip(gathered).collect();

        // Group endpoints by affected old component; BTree order keeps every rank's
        // numbering of the search's groups identical.
        let mut affected: BTreeMap<u64, BTreeSet<GlobalId>> = BTreeMap::new();
        for &(u, v) in deleted_edges {
            match (label_of.get(&u), label_of.get(&v)) {
                (Some(&lu), Some(&lv)) if lu == lv => {
                    let set = affected.entry(lu).or_default();
                    set.insert(u);
                    set.insert(v);
                }
                _ => {} // same-epoch inserted edge: cannot split an old component
            }
        }

        work.components_checked = affected.len() as u64;
        let split = split_components(ctx, graph, &affected)?;
        if !split.is_empty() {
            let mut reset_here = 0u64;
            for (v, label) in labels.iter_mut().enumerate() {
                if split.contains(label) {
                    *label = graph.global_id(v as LocalId);
                    woken[v] = true;
                    reset_here += 1;
                }
            }
            work.reset_vertices = ctx.allreduce_scalar_sum_u64(reset_here);
        }
    }

    work.sweeps = tighten(ctx, graph, labels, woken, usize::MAX, min_label)?;
    Ok(work)
}

/// A group of [`split_components`]' search no vertex belongs to yet.
const UNSEEN: u32 = u32::MAX;

/// A union-find over the search's groups whose root is always the class's least member, so
/// the classes *and* their names depend only on the set of unions, not on their order.
struct Groups(Vec<u32>);

impl Groups {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            let up = self.0[self.0[x as usize] as usize];
            self.0[x as usize] = up;
            x = up;
        }
        x
    }

    /// Merge the classes of `a` and `b`; whether they were apart.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (a, b) = (self.find(a), self.find(b));
        self.0[a.max(b) as usize] = a.min(b);
        a != b
    }
}

/// Which of the `affected` components (old label → the endpoints of its deleted edges,
/// replicated) the deletions split, decided by one multi-source search over the new graph
/// that stops as soon as every component is decided.
///
/// Every endpoint starts a group of its own, and each superstep expands every group's
/// frontier by one level: through the owned adjacency, and through the ghost→owned
/// transpose on the holders of the frontier's boundary vertices. A vertex reached by a
/// second group joins the two in a union-find, which every rank replicates by allgathering
/// the superstep's joins in rank order; the same allgather carries each rank's *live*
/// classes, those with a vertex in the next frontier. A class that is not live has no
/// unreached neighbour left, so it is a whole component of the new graph. A component is
/// then intact once all its endpoints share a class, and split once a class holding some
/// but not all of them is not live — the same answer one BFS per component from one of
/// its endpoints gives, after as many levels as the endpoints take to meet instead of the
/// component's eccentricity. Must be called collectively.
fn split_components(
    ctx: &RankCtx,
    graph: &DistGraph,
    affected: &BTreeMap<u64, BTreeSet<GlobalId>>,
) -> Result<BTreeSet<u64>, HaloError> {
    let halo = graph.halo();
    // Which group reached each owned vertex; the frontier with its groups.
    let mut group = vec![UNSEEN; graph.n_owned()];
    let mut frontier: Vec<(LocalId, u32)> = Vec::new();
    // The undecided components, each with its endpoints' groups.
    let mut undecided: Vec<(u64, Vec<u32>)> = Vec::new();
    let mut sources = 0u32;
    for (&component, endpoints) in affected {
        let mut ids = Vec::with_capacity(endpoints.len());
        for &g in endpoints {
            if let Some(l) = graph.owned_local_id(g) {
                group[l as usize] = sources;
                frontier.push((l, sources));
            }
            ids.push(sources);
            sources += 1;
        }
        undecided.push((component, ids));
    }
    let mut classes = Groups((0..sources).collect());
    // Indexed by class root: whether the class still has a frontier.
    let mut live = vec![true; sources as usize];
    let mut split = BTreeSet::new();

    loop {
        undecided.retain(|(component, ids)| {
            let roots: BTreeSet<u32> = ids.iter().map(|&id| classes.find(id)).collect();
            if roots.len() == 1 {
                return false;
            }
            if roots.iter().any(|&root| !live[root as usize]) {
                split.insert(*component);
                return false;
            }
            true
        });
        if undecided.is_empty() {
            return Ok(split);
        }

        // This rank's joins, deduplicated against the replicated classes and its own.
        let mut mine = Groups(classes.0.clone());
        let mut joins: Vec<(u32, u32)> = Vec::new();
        let mut next: Vec<(LocalId, u32)> = Vec::new();
        let mut reach = |u: LocalId, id: u32| {
            let seen = group[u as usize];
            if seen == UNSEEN {
                group[u as usize] = id;
                next.push((u, id));
            } else if mine.union(seen, id) {
                joins.push((seen, id));
            }
        };
        for &(v, id) in &frontier {
            for &u in graph.neighbors(v) {
                if graph.is_owned(u) {
                    reach(u, id);
                }
            }
        }
        halo.deliver(ctx, frontier.iter().copied(), &[], |slot, id| {
            for &u in halo.owned_neighbors(slot) {
                reach(u, id);
            }
        })?;

        // What every rank learns: the joins, then one `(root, root)` per live class.
        let mut marked = vec![false; sources as usize];
        for &(_, id) in &next {
            let root = mine.find(id);
            if !std::mem::replace(&mut marked[root as usize], true) {
                joins.push((root, root));
            }
        }
        // Every rank numbers the groups alike from the replicated `affected`, so every id
        // a peer sends is below `sources`.
        let learned = ctx.allgatherv(joins);
        for &(a, b) in &learned {
            classes.union(a, b);
        }
        live.fill(false);
        for &(a, b) in &learned {
            if a == b {
                let root = classes.find(a);
                live[root as usize] = true;
            }
        }
        frontier = next;
    }
}

/// `min(cap, H)`, where `H` is the h-index of `values` (the largest `h` such that at least
/// `h` values are `≥ h`), by counting instead of sorting: `O(len)` with `counts` as
/// scratch. `H` never exceeds the number of values, so neither does the scratch.
fn capped_h_index(values: &[u64], cap: u64, counts: &mut Vec<u32>) -> u64 {
    let cap = cap.min(values.len() as u64);
    counts.clear();
    counts.resize(cap as usize + 1, 0);
    for value in values {
        counts[(*value).min(cap) as usize] += 1;
    }
    let mut at_least = 0u64;
    for h in (1..=cap).rev() {
        at_least += counts[h as usize] as u64;
        if at_least >= h {
            return h;
        }
    }
    0
}

/// Tighten `core` — any pointwise *upper bound* of the true coreness of the owned
/// vertices — down to the exact coreness with the monotone h-index iteration
/// `x ← min(x, H(x))`, returning the number of rounds to the fixed point. Cold runs
/// seed with the degrees; warm runs seed with the previous epoch's coreness bumped by
/// the most inserted arcs any one vertex received over the epoch (no coreness rises by
/// more) and capped by the new degree.
pub fn kcore_tighten(
    ctx: &RankCtx,
    graph: &DistGraph,
    core: &mut [u64],
    max_rounds: usize,
) -> Result<u64, HaloError> {
    let mut counts = Vec::new();
    let woken = vec![true; graph.n_total()];
    tighten(ctx, graph, core, woken, max_rounds, |neigh, mine| {
        capped_h_index(neigh, mine, &mut counts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{pagerank, wcc};
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::bfs::{bfs_levels, UNREACHED};
    use xtrapulp_graph::distribution::splitmix64;
    use xtrapulp_graph::{Distribution, GraphDelta};

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

    fn gather<T: Copy + Default>(out: Vec<Vec<(u64, T)>>, n: usize) -> Vec<T> {
        let mut global = vec![T::default(); n];
        for pairs in out {
            for (g, v) in pairs {
                global[g as usize] = v;
            }
        }
        global
    }

    #[test]
    fn cold_pagerank_resume_matches_fixed_iteration_pagerank() {
        let (n, edges) = test_edges();
        for nranks in [1usize, 3] {
            let out = Runtime::new(nranks).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
                let mut ranks = vec![1.0 / n as f64; g.n_owned()];
                let work = pagerank_resume(ctx, &g, &mut ranks, None, 0.85, 1e-12, 500).unwrap();
                assert!(work.converged);
                let reference = pagerank(ctx, &g, 120, 0.85).unwrap();
                for (a, b) in ranks.iter().zip(reference.iter()) {
                    assert!((a - b).abs() < 1e-9, "{a} vs {b}");
                }
                work.iterations
            });
            assert!(out.iter().all(|&it| it > 0));
        }
    }

    #[test]
    fn warm_pagerank_tracks_an_edge_insertion_cheaply() {
        let (n, edges) = test_edges();
        let mut new_edges = edges.clone();
        new_edges.push((5, 6)); // connect the isolated pair to a triangle
        let delta = GraphDelta::new(n, 0, &[(5, 6)], &[]);
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let mut ranks = vec![1.0 / n as f64; g.n_owned()];
            pagerank_resume(ctx, &g, &mut ranks, None, 0.85, 1e-12, 500).unwrap();

            let g2 = g.apply_delta(ctx, &delta);
            let seeds = delta.touched_including_added();
            let warm =
                pagerank_resume(ctx, &g2, &mut ranks, Some(&seeds), 0.85, 1e-12, 500).unwrap();
            // Reference: cold solve on the mutated graph.
            let mut cold_ranks = vec![1.0 / n as f64; g2.n_owned()];
            let cold = pagerank_resume(ctx, &g2, &mut cold_ranks, None, 0.85, 1e-12, 500).unwrap();
            for (a, b) in ranks.iter().zip(cold_ranks.iter()) {
                assert!((a - b).abs() < 1e-7, "warm {a} vs cold {b}");
            }
            (warm.vertices_scored, cold.vertices_scored)
        });
        for (warm_scored, cold_scored) in out {
            assert!(
                warm_scored < cold_scored,
                "warm resume should score fewer vertices: {warm_scored} vs {cold_scored}"
            );
        }
    }

    #[test]
    fn wcc_repair_handles_merges_and_splits_exactly() {
        let (n, edges) = test_edges();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let mut labels: Vec<u64> = (0..g.n_owned())
                .map(|v| g.global_id(v as LocalId))
                .collect();
            wcc_propagate(ctx, &g, &mut labels).unwrap();

            // Delete the bridge 2-3 (splits {0..5}) and insert 5-6 (merges {3,4,5}
            // with {6,7}); both in one delta.
            let delta = GraphDelta::new(n, 0, &[(5, 6)], &[(2, 3)]);
            let g2 = g.apply_delta(ctx, &delta);
            let deleted: Vec<_> = delta.deleted_edges().collect();
            let touched = delta.touched_including_added();
            let work = wcc_repair(ctx, &g2, &mut labels, &touched, &deleted).unwrap();
            assert!(work.components_checked >= 1);
            assert!(work.reset_vertices > 0, "the bridge deletion splits");

            let mut fresh = wcc(ctx, &g2).unwrap();
            let repaired: Vec<(u64, u64)> = (0..g2.n_owned())
                .map(|v| (g2.global_id(v as LocalId), labels[v]))
                .collect();
            let fresh_pairs: Vec<(u64, u64)> = (0..g2.n_owned())
                .map(|v| (g2.global_id(v as LocalId), fresh.remove(0)))
                .collect();
            assert_eq!(
                repaired, fresh_pairs,
                "repair must match a cold WCC exactly"
            );
            repaired
        });
        let labels = gather(out, n as usize);
        assert_eq!(&labels[..3], &[0, 0, 0]);
        assert_eq!(&labels[3..], &[3, 3, 3, 3, 3]);
    }

    #[test]
    fn intact_components_are_not_reset() {
        // Delete one edge of a triangle: the component stays connected, so the connectivity
        // check must leave every label alone.
        let (n, edges) = test_edges();
        let out = Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, n, &edges);
            let mut labels: Vec<u64> = (0..g.n_owned())
                .map(|v| g.global_id(v as LocalId))
                .collect();
            wcc_propagate(ctx, &g, &mut labels).unwrap();
            let delta = GraphDelta::new(n, 0, &[], &[(0, 1)]);
            let g2 = g.apply_delta(ctx, &delta);
            let deleted: Vec<_> = delta.deleted_edges().collect();
            let touched = delta.touched_including_added();
            let work = wcc_repair(ctx, &g2, &mut labels, &touched, &deleted).unwrap();
            (work.components_checked, work.reset_vertices)
        });
        for (checked, reset) in out {
            assert_eq!(checked, 1);
            assert_eq!(reset, 0);
        }
    }

    #[test]
    fn kcore_tighten_from_bounds_matches_cold_peeling() {
        let (n, edges) = test_edges();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let mut cold: Vec<u64> = (0..g.n_owned())
                .map(|v| g.degree_owned(v as LocalId))
                .collect();
            let cold_rounds = kcore_tighten(ctx, &g, &mut cold, 100).unwrap();

            // A loose-but-valid upper bound (degree + 3) must land on the same values.
            let mut loose: Vec<u64> = (0..g.n_owned())
                .map(|v| g.degree_owned(v as LocalId) + 3)
                .collect();
            kcore_tighten(ctx, &g, &mut loose, 100).unwrap();
            assert_eq!(cold, loose);

            // A warm seed (the answer itself) converges in one verification round.
            let mut warm = cold.clone();
            let warm_rounds = kcore_tighten(ctx, &g, &mut warm, 100).unwrap();
            assert_eq!(warm, cold);
            assert!(warm_rounds <= cold_rounds);
            (0..g.n_owned())
                .map(|v| (g.global_id(v as LocalId), cold[v]))
                .collect::<Vec<_>>()
        });
        let core = gather(out, n as usize);
        assert_eq!(core, vec![2, 2, 2, 2, 2, 2, 1, 1]);
    }

    /// One round of the h-index iteration the plain way: pull every ghost bound, visit
    /// every vertex in order, update in place. Returns how many bounds fell.
    fn naive_kcore_round(ctx: &RankCtx, g: &DistGraph, core: &mut [u64]) -> u64 {
        let mut all = core.to_vec();
        all.resize(g.n_total(), 0);
        g.refresh_ghosts(ctx, &mut all).unwrap();
        let ghost_core = &all[g.n_owned()..];
        let mut changed = 0;
        for v in 0..g.n_owned() {
            let mut neigh: Vec<u64> = g
                .neighbors(v as LocalId)
                .iter()
                .map(|&u| match (u as usize).checked_sub(g.n_owned()) {
                    None => core[u as usize],
                    Some(slot) => ghost_core[slot],
                })
                .collect();
            neigh.sort_unstable_by(|a, b| b.cmp(a));
            let h = neigh
                .iter()
                .zip(1u64..)
                .take_while(|&(&c, i)| c >= i)
                .count() as u64;
            if h < core[v] {
                core[v] = h;
                changed += 1;
            }
        }
        ctx.allreduce_scalar_sum_u64(changed)
    }

    /// On seeded hub graphs (one vertex adjacent to almost everything, so a plain "a
    /// neighbour changed" rule would wake the whole graph every round), the
    /// crossing-driven rounds produce the naive full re-sweep's iterate after every
    /// round, from cold (degree) and from loose warm seeds, on 1–4 ranks.
    #[test]
    fn crossing_driven_coreness_rounds_match_a_full_resweep_iterate_by_iterate() {
        for seed in 0..4u64 {
            let mut draw = seed << 32;
            let mut below = |n: u64| {
                draw += 1;
                splitmix64(draw) % n
            };
            let n = 40 + below(40);
            let mut edges: Vec<(u64, u64)> = (1..n - 1).map(|v| (0, v)).collect();
            for _ in 0..3 * n {
                edges.push((1 + below(n - 2), 1 + below(n - 2)));
            }
            let slack = below(4);
            for dist in [Distribution::Block, Distribution::Hashed] {
                for nranks in 1..=4usize {
                    Runtime::new(nranks).execute(|ctx| {
                        let g = DistGraph::from_shared_edges(ctx, dist.clone(), n, &edges);
                        let seed_bounds: Vec<u64> = (0..g.n_owned())
                            .map(|v| g.degree_owned(v as LocalId) + slack)
                            .collect();
                        let mut reference = seed_bounds.clone();
                        for rounds in 1.. {
                            let changed = naive_kcore_round(ctx, &g, &mut reference);
                            let mut core = seed_bounds.clone();
                            let ran = kcore_tighten(ctx, &g, &mut core, rounds).unwrap();
                            assert_eq!(ran, rounds as u64);
                            assert_eq!(core, reference, "iterate {rounds} diverged");
                            if changed == 0 {
                                // The fixed point: an unbounded run stops right here.
                                let mut core = seed_bounds.clone();
                                let ran = kcore_tighten(ctx, &g, &mut core, usize::MAX);
                                assert_eq!((ran, core), (Ok(rounds as u64), reference));
                                break;
                            }
                        }
                    });
                }
            }
        }
    }

    /// A seeded graph of several components: random trees (every edge a bridge) with a
    /// few chords, pendants hung off them, and isolated vertices.
    fn forest_with_chords(seed: u64) -> (u64, Vec<(u64, u64)>) {
        let mut draw = seed << 32;
        let mut below = |n: u64| {
            draw += 1;
            splitmix64(draw) % n
        };
        let mut edges = Vec::new();
        let mut n = 0u64;
        for _ in 0..2 + below(4) {
            let start = n;
            let size = 2 + below(14);
            for v in start + 1..start + size {
                edges.push((start + below(v - start), v));
            }
            for _ in 0..below(size / 2 + 1) {
                edges.push((start + below(size), start + below(size)));
            }
            n += size;
            for _ in 0..below(3) {
                edges.push((start + below(size), n));
                n += 1;
            }
        }
        (n + below(3), edges)
    }

    /// A delta against `forest_with_chords(seed)`: deletions of existing edges (bridges,
    /// pendant edges and chords alike), insertions within and across components, grown
    /// vertices with edges, and an edge both inserted and deleted.
    fn forest_delta(seed: u64, n: u64, edges: &[(u64, u64)]) -> GraphDelta {
        let mut draw = (seed << 32) ^ 0xdead;
        let mut below = |n: u64| {
            draw += 1;
            splitmix64(draw) % n
        };
        let added = below(3);
        let new_n = n + added;
        let mut deletes: Vec<_> = (0..1 + below(5))
            .map(|_| edges[below(edges.len() as u64) as usize])
            .collect();
        let mut inserts: Vec<_> = (0..below(5))
            .map(|_| (below(new_n), below(new_n)))
            .collect();
        inserts.extend((n..new_n).map(|v| (v, below(n))));
        let both = (below(new_n), below(new_n));
        inserts.push(both);
        deletes.push(both);
        GraphDelta::new(n, added, &inserts, &deletes)
    }

    /// Component labels (least id in the component) of a serial graph.
    fn serial_labels(csr: &xtrapulp_graph::Csr) -> Vec<u64> {
        let n = csr.num_vertices();
        let mut labels = vec![u64::MAX; n];
        for root in 0..n {
            if labels[root] == u64::MAX {
                for (v, level) in bfs_levels(csr, root as u64).into_iter().enumerate() {
                    if level != UNREACHED {
                        labels[v] = root as u64;
                    }
                }
            }
        }
        labels
    }

    /// The deletion check as one BFS per affected component, serially: for every old
    /// component with a deleted edge between two of its vertices, a BFS over the new
    /// graph from its least endpoint; a component with an unreached endpoint is split and
    /// all its vertices are reset. Returns `(components_checked, reset_vertices)` and the
    /// labels after the resets.
    fn reference_deletion_check(
        old: &[u64],
        new: &xtrapulp_graph::Csr,
        deleted: &[(u64, u64)],
    ) -> (u64, u64, Vec<u64>) {
        let mut affected: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for &(u, v) in deleted {
            if old[u as usize] == old[v as usize] {
                affected.entry(old[u as usize]).or_default().extend([u, v]);
            }
        }
        let mut labels = old.to_vec();
        let mut reset = 0;
        for (&component, endpoints) in &affected {
            let root = *endpoints.first().unwrap();
            let levels = bfs_levels(new, root);
            if endpoints.iter().any(|&e| levels[e as usize] == UNREACHED) {
                for (v, label) in labels.iter_mut().enumerate() {
                    if old[v] == component {
                        *label = v as u64;
                        reset += 1;
                    }
                }
            }
        }
        (affected.len() as u64, reset, labels)
    }

    /// The early-exit deletion check and the seeded first sweep against the one-BFS-per-
    /// component rule and full sweeps: on seeded forests with chords, pendants and
    /// isolated vertices under churn that deletes bridges, inserts across components and
    /// grows the graph, at 1–4 ranks under every distribution, `wcc_repair` resets what
    /// the serial reference resets, checks as many components, runs as many sweeps as a
    /// full propagation from the reference's reset labels, and lands on the cold labels.
    #[test]
    fn deletion_check_matches_one_bfs_per_component() {
        let mut splits = 0;
        for seed in 0..24u64 {
            let (n, edges) = forest_with_chords(seed);
            let delta = forest_delta(seed, n, &edges);
            let base = xtrapulp_graph::csr_from_edges(n, &edges);
            let new = base.apply_delta(&delta);
            let old: Vec<u64> = serial_labels(&base)
                .into_iter()
                .chain(n..delta.new_n())
                .collect();
            let deleted: Vec<_> = delta.deleted_edges().collect();
            let (checked, reset, after_reset) = reference_deletion_check(&old, &new, &deleted);
            splits += (reset > 0) as u32;
            let cold = serial_labels(&new);
            let touched = delta.touched_including_added();
            for dist in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::Hashed,
            ] {
                for nranks in 1..=4usize {
                    let out = Runtime::new(nranks).execute(|ctx| {
                        let g = DistGraph::from_shared_edges(ctx, dist.clone(), n, &edges);
                        let g2 = g.apply_delta(ctx, &delta);
                        let global = |v: usize| g2.global_id(v as LocalId) as usize;
                        let mut labels: Vec<u64> =
                            (0..g2.n_owned()).map(|v| old[global(v)]).collect();
                        let work = wcc_repair(ctx, &g2, &mut labels, &touched, &deleted);
                        let mut full: Vec<u64> =
                            (0..g2.n_owned()).map(|v| after_reset[global(v)]).collect();
                        let full_sweeps = wcc_propagate(ctx, &g2, &mut full).unwrap();
                        assert_eq!(labels, full, "seed {seed}: seeded and full sweeps differ");
                        let labels = (0..g2.n_owned()).map(|v| (global(v) as u64, labels[v]));
                        (work.unwrap(), full_sweeps, labels.collect::<Vec<_>>())
                    });
                    let context = format!("seed {seed}, {dist:?}, {nranks} ranks");
                    for (work, full_sweeps, _) in &out {
                        assert_eq!(work.components_checked, checked, "{context}");
                        assert_eq!(work.reset_vertices, reset, "{context}");
                        assert_eq!(work.sweeps, *full_sweeps, "{context}");
                    }
                    let labels = gather(out.into_iter().map(|r| r.2).collect(), cold.len());
                    assert_eq!(labels, cold, "{context}");
                }
            }
        }
        assert!(splits >= 6, "the seeds split only {splits} times");
    }

    /// The parent form of [`pagerank_resume`]'s wakes: every waking vertex marks its
    /// neighbours, and the holder of a waking ghost marks that ghost's owned neighbours
    /// through the transpose, on every iteration.
    fn pagerank_push_reference(
        ctx: &RankCtx,
        graph: &DistGraph,
        ranks: &mut [f64],
        seeds: Option<&[GlobalId]>,
        damping: f64,
        tol: f64,
    ) -> PagerankWork {
        let halo = graph.halo();
        let n_owned = graph.n_owned();
        let n = graph.global_n().max(1) as f64;
        let activate_eps = tol / (graph.global_m().max(1) as f64).sqrt();
        let mut active = vec![seeds.is_none(); graph.n_total()];
        for &g in seeds.unwrap_or(&[]) {
            let Some(l) = graph.local_id(g) else { continue };
            let around = if graph.is_owned(l) {
                active[l as usize] = true;
                graph.neighbors(l)
            } else {
                halo.owned_neighbors(l as usize - n_owned)
            };
            for &u in around {
                active[u as usize] = true;
            }
        }
        let mut next_active = vec![false; graph.n_total()];
        let contribution = |v: usize, rank: f64| match graph.degree_owned(v as LocalId) {
            0 => 0.0,
            d => rank / d as f64,
        };
        let mut contrib: Vec<f64> = (0..n_owned).map(|v| contribution(v, ranks[v])).collect();
        contrib.resize(graph.n_total(), 0.0);
        let mut landed = vec![(0.0, 0u8); graph.n_ghost()];
        let mut exchange = |moved: &[_], contrib: &mut [f64], next_active: &mut [bool]| {
            let updates = moved.iter().copied();
            halo.push(ctx, updates, &[], &mut landed, |slot, _, (fresh, wakes)| {
                contrib[n_owned + slot] = fresh;
                if wakes != 0 {
                    for &u in halo.owned_neighbors(slot) {
                        next_active[u as usize] = true;
                    }
                }
            })
            .unwrap();
        };
        let mut moved: Vec<_> = (0..)
            .zip(contrib[..n_owned].iter().map(|&c| (c, 0)))
            .collect();
        exchange(&moved, &mut contrib, &mut next_active);
        let mut work = PagerankWork::default();
        for _ in 0..400 {
            let mut scored = Vec::new();
            let mut residual = 0.0f64;
            for v in 0..n_owned {
                if !active[v] {
                    continue;
                }
                let mut sum = 0.0;
                for &u in graph.neighbors(v as LocalId) {
                    sum += contrib[u as usize];
                }
                let next_v = (1.0 - damping) / n + damping * sum;
                let delta = (next_v - ranks[v]).abs();
                ranks[v] = next_v;
                residual += delta;
                let degree = graph.degree_owned(v as LocalId).max(1) as f64;
                let wakes = damping * delta / degree > activate_eps;
                if wakes {
                    for &u in graph.neighbors(v as LocalId) {
                        next_active[u as usize] = true;
                    }
                }
                scored.push((v as LocalId, wakes));
            }
            moved.clear();
            for &(v, wakes) in &scored {
                let fresh = contribution(v as usize, ranks[v as usize]);
                let stale = std::mem::replace(&mut contrib[v as usize], fresh);
                if wakes || fresh != stale {
                    moved.push((v, (fresh, wakes as u8)));
                }
            }
            exchange(&moved, &mut contrib, &mut next_active);
            std::mem::swap(&mut active, &mut next_active);
            next_active.fill(false);
            let reduced = ctx.allreduce_sum_f64(&[residual, scored.len() as f64]);
            work.iterations += 1;
            work.vertices_scored += reduced[1] as u64;
            if reduced[0] < tol {
                work.converged = true;
                break;
            }
        }
        work
    }

    /// Pull-mode wakes change nothing: on a grid, where a warm run's activity stays
    /// sparse, and on hub graphs, where it turns dense at once, cold and warm runs at 1–4
    /// ranks under every distribution give the push-marking reference's ranks and work
    /// bit for bit.
    #[test]
    fn pull_mode_wakes_match_push_marking_bit_for_bit() {
        let side = 40u64;
        let mut grid = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    grid.push((v, v + 1));
                }
                if r + 1 < side {
                    grid.push((v, v + side));
                }
            }
        }
        // At a loose tolerance a grid's warm activity stays within a few hops of the delta.
        let grid_delta = (vec![(0, 1)], vec![(5, 6 + side)]);
        let mut graphs = vec![("grid", side * side, grid, grid_delta, 1e-6)];
        for seed in 0..3u64 {
            let mut draw = seed << 32;
            let mut below = |n: u64| {
                draw += 1;
                splitmix64(draw) % n
            };
            let n = 300 + below(200);
            let mut edges: Vec<(u64, u64)> = (1..n).map(|v| (below(3), v)).collect();
            for _ in 0..2 * n {
                edges.push((3 + below(n - 3), 3 + below(n - 3)));
            }
            let deletes = vec![edges[5], edges[n as usize + 7]];
            let inserts = vec![(0, 1), (below(n), below(n))];
            graphs.push(("hubs", n, edges, (deletes, inserts), 1e-10));
        }
        let mut dense = 0;
        let mut sparse = 0;
        for (name, n, edges, (deletes, inserts), tol) in &graphs {
            let delta = GraphDelta::new(*n, 0, inserts, deletes);
            let seeds = delta.touched_including_added();
            for dist in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::Hashed,
            ] {
                for nranks in 1..=4usize {
                    let out = Runtime::new(nranks).execute(|ctx| {
                        let g = DistGraph::from_shared_edges(ctx, dist.clone(), *n, edges);
                        let mut ranks = vec![1.0 / *n as f64; g.n_owned()];
                        let mut reference = ranks.clone();
                        let cold = pagerank_resume(ctx, &g, &mut ranks, None, 0.85, *tol, 400);
                        let cold_reference =
                            pagerank_push_reference(ctx, &g, &mut reference, None, 0.85, *tol);
                        let g2 = g.apply_delta(ctx, &delta);
                        let seeds = Some(&seeds[..]);
                        let warm = pagerank_resume(ctx, &g2, &mut ranks, seeds, 0.85, *tol, 400);
                        let warm_reference =
                            pagerank_push_reference(ctx, &g2, &mut reference, seeds, 0.85, *tol);
                        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&ranks), bits(&reference), "{name} {dist:?} {nranks}");
                        (cold.unwrap(), cold_reference, warm.unwrap(), warm_reference)
                    });
                    for (cold, cold_reference, warm, warm_reference) in out {
                        assert_eq!(cold, cold_reference, "{name} {dist:?} {nranks} cold");
                        assert_eq!(warm, warm_reference, "{name} {dist:?} {nranks} warm");
                        let per_iteration = warm.vertices_scored / warm.iterations.max(1);
                        dense += (per_iteration * 2 > *n) as u32;
                        sparse += (per_iteration * 8 < *n) as u32;
                    }
                }
            }
        }
        assert!(
            dense > 0 && sparse > 0,
            "{dense} dense and {sparse} sparse warm runs"
        );
    }
}
