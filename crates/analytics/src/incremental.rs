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
//!   connectivity re-check (one distributed BFS per affected component, from an
//!   endpoint of a deleted edge) that resets exactly the components a deletion
//!   actually split.
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
//! PageRank's updates carry a wake flag beside the contribution, so its pushes land in a
//! ghost-sized array of pairs and the callback moves the contribution into the tail. No
//! global id is shipped or hashed inside an iteration; what a remote change re-activates is
//! found through the plan's ghost→owned transpose on the holder, one message per (vertex,
//! holder rank) instead of one per cross-rank arc.
//!
//! Component sweeps and coreness rounds after the first visit only *woken* vertices, in
//! the full sweep's ascending in-place order, so iterates, counters and round counts are
//! the full sweep's. `v` is woken when a neighbour's value (owned or ghost) *crosses* its
//! own — falls from `≥ x[v]` to `< x[v]`. No other drop can lower `min(x[v], F(v))`,
//! whether `F` is the neighbours' minimum or their h-index (at least `x[v]` of them stay
//! at or above `x[v]`). Waking on every neighbour change does not pay on skewed graphs: a
//! hundred changes wake thousands of vertices through the hubs.
//!
//! All kernels are collectives: every rank of the runtime must call them with the same
//! arguments (seed sets and deleted-edge lists are replicated, as they come from the
//! replicated [`GraphDelta`](xtrapulp_graph::GraphDelta) stream). They fail with a
//! [`HaloError`] only when a peer names a ghost slot this rank does not have.

use std::collections::{BTreeMap, BTreeSet};

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::bfs::{dist_bfs, UNREACHED};
use xtrapulp_graph::{DistGraph, GlobalId, HaloError, LocalId};

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

    // Flags cover every local id, so marking a neighbourhood needs no owned/ghost test; a
    // ghost's flag is never read.
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
    let mut next_active = vec![false; graph.n_total()];

    let contribution = |v: usize, rank: f64| match graph.degree_owned(v as LocalId) {
        0 => 0.0,
        d => rank / d as f64,
    };
    // The contribution of every local vertex: owned first, ghosts after.
    let mut contrib: Vec<f64> = (0..n_owned).map(|v| contribution(v, ranks[v])).collect();
    contrib.resize(graph.n_total(), 0.0);
    // What travels is (contribution, whether the update wakes the ghost's neighbours);
    // `push` lands it here, and the contribution goes on into `contrib`'s ghost tail.
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
    };
    // What a push ships: first the whole boundary, then the scored vertices whose
    // contribution changed or that wake.
    let owned = contrib[..n_owned].iter();
    let mut moved: Vec<_> = (0..).zip(owned.map(|&c| (c, 0))).collect();
    exchange(&moved, &mut contrib, &mut next_active)?;
    // This iteration's scored vertices, and whether each wakes its neighbours.
    let mut scored: Vec<(LocalId, bool)> = Vec::new();

    let mut work = PagerankWork::default();
    for _ in 0..max_iters {
        scored.clear();
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
            // A vertex goes (and stays) active only when a neighbour announces a
            // material input change: with unchanged inputs its next update would be a
            // no-op, so there is no self-reactivation.
            let degree = graph.degree_owned(v as LocalId).max(1) as f64;
            let wakes = damping * delta / degree > activate_eps;
            if wakes {
                for &u in graph.neighbors(v as LocalId) {
                    next_active[u as usize] = true;
                }
            }
            scored.push((v as LocalId, wakes));
        }
        // The sweep read last iteration's contributions throughout; only now do the
        // scored vertices' move. What changed (or wakes) goes to the holders, which mark
        // the owned neighbours of a waking ghost through the transpose.
        moved.clear();
        for &(v, wakes) in &scored {
            let fresh = contribution(v as usize, ranks[v as usize]);
            let stale = std::mem::replace(&mut contrib[v as usize], fresh);
            if wakes || fresh != stale {
                moved.push((v, (fresh, wakes as u8)));
            }
        }
        exchange(&moved, &mut contrib, &mut next_active)?;
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
    Ok(work)
}

/// Work accounting of one [`wcc_repair`] (or cold [`wcc_propagate`]) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WccWork {
    /// Min-label propagation sweeps executed.
    pub sweeps: u64,
    /// Components whose deleted edges forced a distributed BFS connectivity check.
    pub components_checked: u64,
    /// Vertices whose label was reset because a deletion actually split their
    /// component (summed over ranks).
    pub reset_vertices: u64,
}

/// The monotone in-place iteration `x[v] ← min(x[v], lower(x of v's neighbours, x[v]))`
/// both [`wcc_propagate`] and [`kcore_tighten`] are, run for at most `max_sweeps` sweeps or
/// to the fixed point; returns the sweep count. Sweeps after the first visit only woken
/// vertices (see the module docs for the crossing rule and why it is exact).
fn tighten(
    ctx: &RankCtx,
    graph: &DistGraph,
    x: &mut [u64],
    max_sweeps: usize,
    mut lower: impl FnMut(&[u64], u64) -> u64,
) -> Result<u64, HaloError> {
    let halo = graph.halo();
    let n_owned = graph.n_owned();
    assert_eq!(x.len(), n_owned, "one value per owned vertex");
    // The value of every local vertex: owned first, ghosts after.
    let mut values = x.to_vec();
    values.resize(graph.n_total(), 0);
    graph.refresh_ghosts(ctx, &mut values)?;
    let crossed = |previous: u64, new: u64, theirs: u64| previous >= theirs && new < theirs;
    // A flag set on a vertex the sweep has yet to reach is consumed by this sweep, as a
    // full sweep would see the lowered value; one set behind it waits for the next. A
    // ghost's flag is set like any neighbour's and never read.
    let mut woken = vec![true; graph.n_total()];
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
        let (owned, ghosts) = values.split_at_mut(n_owned);
        let updates = lowered.iter().map(|&v| (v, owned[v as usize]));
        halo.push(ctx, updates, &[], ghosts, |slot, previous, new| {
            for &u in halo.owned_neighbors(slot) {
                woken[u as usize] |= crossed(previous, new, owned[u as usize]);
            }
        })?;
        sweeps += 1;
        if ctx.allreduce_scalar_sum_u64(lowered.len() as u64) == 0 {
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
    tighten(ctx, graph, labels, usize::MAX, |neigh, mine| {
        neigh.iter().copied().fold(mine, u64::min)
    })
}

/// Repair the previous epoch's component labels after a delta, then propagate to a
/// fixed point.
///
/// `deleted_edges` are the undirected `(min, max)` edges the epoch deleted (replicated
/// on every rank). Insertions need no preparation — seeded propagation merges labels
/// on its own. For deletions, each previously-existing deleted edge has endpoints in
/// the same old component (its old label); for every such *affected* component one
/// distributed BFS from a deleted-edge endpoint checks whether every deleted-edge
/// endpoint of that component is still reachable. If yes, the component is provably
/// intact (any region a deletion disconnects must border a deleted edge) and its
/// labels stand; if not, the component's labels are reset to the vertices' own ids and
/// recomputed by the propagation phase. Deleted edges whose endpoints carried
/// *different* old labels were inserted within the same epoch (never part of the
/// previously-labelled graph) and cannot split an old component, so they are skipped.
pub fn wcc_repair(
    ctx: &RankCtx,
    graph: &DistGraph,
    labels: &mut [u64],
    deleted_edges: &[(GlobalId, GlobalId)],
) -> Result<WccWork, HaloError> {
    let n_owned = graph.n_owned();
    assert_eq!(labels.len(), n_owned, "one label per owned vertex");
    let mut work = WccWork::default();

    if !deleted_edges.is_empty() {
        // Old labels of every deleted-edge endpoint, replicated via allgather (the
        // endpoint set is tiny compared to the graph).
        let mut endpoints: Vec<GlobalId> =
            deleted_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let local_pairs: Vec<(GlobalId, u64)> = endpoints
            .iter()
            .filter_map(|&g| {
                let l = graph.owned_local_id(g)?;
                Some((g, labels[l as usize]))
            })
            .collect();
        let label_of: BTreeMap<GlobalId, u64> = ctx.allgatherv(local_pairs).into_iter().collect();

        // Group endpoints by affected old component; BTree order keeps every rank's
        // iteration (and therefore the BFS collective schedule) identical.
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

        for (component, endpoints) in affected {
            let Some(&root) = endpoints.first() else {
                continue;
            };
            work.components_checked += 1;
            let bfs = dist_bfs(ctx, graph, root)?;
            let unreached_here: u64 = endpoints
                .iter()
                .filter_map(|&g| graph.owned_local_id(g))
                .filter(|&l| bfs.levels[l as usize] == UNREACHED)
                .count() as u64;
            let split = ctx.allreduce_scalar_sum_u64(unreached_here) > 0;
            let mut reset_here = 0u64;
            if split {
                for (v, label) in labels.iter_mut().enumerate() {
                    if *label == component {
                        *label = graph.global_id(v as LocalId);
                        reset_here += 1;
                    }
                }
            }
            work.reset_vertices += ctx.allreduce_scalar_sum_u64(reset_here);
        }
    }

    work.sweeps = wcc_propagate(ctx, graph, labels)?;
    Ok(work)
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
    tighten(ctx, graph, core, max_rounds, |neigh, mine| {
        capped_h_index(neigh, mine, &mut counts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{pagerank, wcc};
    use xtrapulp_comm::Runtime;
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
            let work = wcc_repair(ctx, &g2, &mut labels, &deleted).unwrap();
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
        // Delete one edge of a triangle: the component stays connected, so the BFS
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
            let work = wcc_repair(ctx, &g2, &mut labels, &deleted).unwrap();
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
}
