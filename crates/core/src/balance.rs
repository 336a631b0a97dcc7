//! The vertex balancing and refinement phases (Algorithms 4 and 5 of the paper).
//!
//! **Balancing** runs weighted label propagation: the attractiveness of part `i` to a
//! vertex is the (degree-weighted) number of its neighbours in `i`, scaled by the weight
//! `Wv(i) = max(Imb_v / (Sv(i) + mult * Cv(i)) - 1, 0)` which is large for underweight
//! parts and zero for parts at or above the target size. **Refinement** is a constrained
//! label propagation / FM-style pass that greedily reduces the cut while never letting a
//! part grow past the current maximum.
//!
//! The distributed-memory subtlety is the dynamic multiplier `mult`: because every rank
//! reassigns vertices using part sizes that are only refreshed at the end of the
//! iteration, an underweight part would receive a flood of vertices from *every* rank at
//! once and overshoot wildly. Each rank therefore bounds its own contribution by charging
//! `mult × (its local change)` against the global size estimate, with `mult` ramping
//! linearly from `nprocs·Y` (each rank may claim ~1/Y of the remaining headroom early on)
//! to `nprocs·X` (each rank claims exactly its share at the end).
//!
//! Both phases run on the shared sweep engine in [`crate::sweep`]: refinement is
//! frontier-driven (a vertex is rescored only when it or a neighbour — including a
//! ghost, via [`push_part_updates`] — changed part), the intra-rank proposal
//! phase is thread-parallel with deterministic two-phase chunk application, and
//! balancing follows the fixed-point perturbation policy (skip while refinement is
//! active, one churn sweep at a refinement fixed point, the full schedule while the
//! constraint is unmet).

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, LocalId};

use crate::error::PartitionError;
use crate::exchange::{push_part_updates, HaloPlan, PartUpdate};
use crate::params::PartitionParams;
use crate::sweep::{
    refine_budget, RefineConvergence, ScoreScratch, StageKind, SweepMode, SweepStage,
    SweepWorkspace, BALANCE_CHUNK, NO_MOVE, SWEEP_CHUNK,
};

/// Mutable per-stage counters shared by the balancing phases: the running total iteration
/// counter that drives the multiplier schedule.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCounter {
    /// Number of balance/refine iterations performed so far in the current stage.
    pub iter_tot: usize,
}

/// Global part sizes in vertices, computed collectively.
pub fn global_vertex_counts(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &[i32],
    num_parts: usize,
) -> Vec<i64> {
    let mut local = vec![0i64; num_parts];
    for v in 0..graph.n_owned() {
        local[parts[v] as usize] += 1;
    }
    ctx.allreduce_sum_i64(&local)
}

/// Global part sizes in arcs (vertex degree sums), computed collectively.
pub fn global_arc_counts(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &[i32],
    num_parts: usize,
) -> Vec<i64> {
    let mut local = vec![0i64; num_parts];
    for v in 0..graph.n_owned() {
        local[parts[v] as usize] += graph.degree_owned(v as LocalId) as i64;
    }
    ctx.allreduce_sum_i64(&local)
}

/// Global per-part cut arc counts (arcs whose source lies in the part and whose endpoint
/// is in a different part), computed collectively.
pub fn global_cut_counts(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &[i32],
    num_parts: usize,
) -> Vec<i64> {
    let mut local = vec![0i64; num_parts];
    for v in 0..graph.n_owned() {
        let pv = parts[v];
        for &u in graph.neighbors(v as LocalId) {
            if parts[u as usize] != pv {
                local[pv as usize] += 1;
            }
        }
    }
    ctx.allreduce_sum_i64(&local)
}

/// Enqueue-neighbours closure over a rank's local graph: only owned neighbours are
/// marked (ghost re-activation travels through [`push_part_updates`] on the
/// owning side).
pub(crate) fn dist_neighbors(graph: &DistGraph) -> impl Fn(u32, &mut dyn FnMut(u32)) + '_ {
    let n_owned = graph.n_owned();
    move |v, mark| {
        for &u in graph.neighbors(v as LocalId) {
            if (u as usize) < n_owned {
                mark(u);
            }
        }
    }
}

/// Count `v`'s neighbours in part `x` and in `target` under the current labels.
#[inline]
fn recount_two(graph: &DistGraph, v: u32, parts: &[i32], x: usize, target: usize) -> (f64, f64) {
    let mut s_x = 0.0f64;
    let mut s_t = 0.0f64;
    for &u in graph.neighbors(v as LocalId) {
        let pu = parts[u as usize] as usize;
        if pu == x {
            s_x += 1.0;
        } else if pu == target {
            s_t += 1.0;
        }
    }
    (s_x, s_t)
}

/// One distributed vertex-balancing sweep: weighted label propagation towards
/// underweight parts, with the spill fallback for vertices label propagation cannot
/// reach.
struct DistVertexBalance<'a> {
    graph: &'a DistGraph,
    size_v: &'a [i64],
    change_v: &'a mut [i64],
    weights: &'a mut [f64],
    imb_v: f64,
    max_v: f64,
    mult: f64,
    spill_mult: f64,
}

impl DistVertexBalance<'_> {
    #[inline]
    fn weight_of(&self, i: usize) -> f64 {
        let denom = (self.size_v[i] as f64 + self.mult * self.change_v[i] as f64).max(1.0);
        (self.imb_v / denom - 1.0).max(0.0)
    }

    #[inline]
    fn estimate(&self, i: usize) -> f64 {
        self.size_v[i] as f64 + self.mult * self.change_v[i] as f64
    }

    #[inline]
    fn spill_estimate(&self, i: usize) -> f64 {
        self.size_v[i] as f64 + self.spill_mult * self.change_v[i] as f64
    }
}

impl SweepStage for DistVertexBalance<'_> {
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        scratch.clear();
        for &u in self.graph.neighbors(v as LocalId) {
            let pu = parts[u as usize] as usize;
            scratch.add(pu, self.graph.degree(u) as f64);
        }
        // Pick the best-scoring admissible part; ties keep the current part.
        let mut best_part = x;
        let mut best_score = 0.0f64;
        for &i in scratch.touched() {
            if self.estimate(i) + 1.0 > self.max_v {
                continue;
            }
            let score = scratch.get(i) * self.weights[i];
            if score > best_score || (score == best_score && i == x) {
                best_score = score;
                best_part = i;
            }
        }
        if best_part == x || best_score <= 0.0 {
            // Spill move: label propagation alone cannot drain a part whose remaining
            // vertices have no neighbours in an underweight part (isolated vertices
            // and deep-interior vertices). If the current part is over the target,
            // move the vertex to the globally most underweight part directly. This
            // preferentially relocates zero-degree vertices (whose move is free) and
            // is what lets the balance constraint be met on graphs with many tiny
            // components. Spill moves are invisible to the other ranks until the end
            // of the iteration, and every rank picks the same most-underweight target,
            // so they are charged at the full rank count to avoid collective
            // overshoot of that one part.
            if self.estimate(x) > self.imb_v {
                let p = self.size_v.len();
                let spill_target = (0..p)
                    .min_by(|&a, &b| {
                        self.spill_estimate(a)
                            .partial_cmp(&self.spill_estimate(b))
                            .unwrap()
                    })
                    .unwrap_or(x);
                if spill_target != x && self.spill_estimate(spill_target) + 1.0 <= self.imb_v {
                    return spill_target as i32;
                }
            }
            return NO_MOVE;
        }
        best_part as i32
    }

    fn apply(&mut self, v: u32, target: usize, parts: &[i32]) -> bool {
        let x = parts[v as usize] as usize;
        if self.estimate(target) + 1.0 > self.max_v {
            return false;
        }
        // A proposal is either a weighted label-propagation move (needs an attractive,
        // still-underweight target with a neighbour in it) or a spill (needs the
        // current part still over target and the destination under it at the
        // conservative charge).
        let (_, s_t) = recount_two(self.graph, v, parts, x, target);
        let normal = self.weights[target] > 0.0 && s_t > 0.0;
        if !normal {
            let over = self.estimate(x) > self.imb_v;
            if !(over && self.spill_estimate(target) + 1.0 <= self.imb_v) {
                return false;
            }
        }
        self.change_v[x] -= 1;
        self.change_v[target] += 1;
        self.weights[x] = self.weight_of(x);
        self.weights[target] = self.weight_of(target);
        true
    }
}

/// One pass of the vertex balancing phase (Algorithm 4): up to `params.balance_iters`
/// label-propagation iterations weighted towards underweight parts, under the
/// fixed-point perturbation policy in frontier mode. Must be called collectively.
#[allow(clippy::too_many_arguments)]
pub fn vertex_balance(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &mut [i32],
    params: &PartitionParams,
    counter: &mut StageCounter,
    ws: &mut SweepWorkspace,
    halo: &HaloPlan,
) -> Result<(), PartitionError> {
    let p = params.num_parts;
    let nranks = ctx.nranks();
    let n_owned = graph.n_owned();
    let frontier_mode = params.sweep_mode == SweepMode::Frontier;
    let imb_v = params.target_max_vertices(graph.global_n());
    let mut size_v = global_vertex_counts(ctx, graph, parts, p);

    // The stage exists to meet the vertex-balance constraint; once it holds (a global
    // fact, so every rank takes the same branch), its churn is pure perturbation —
    // useful exactly when refinement has converged (globally empty frontier), where one
    // churn sweep lets the next refinement round escape its local optimum.
    let balanced = size_v.iter().all(|&s| (s as f64) <= imb_v);
    let sweep_cap = if frontier_mode && balanced {
        let global_active = ctx.allreduce_scalar_sum_u64(ws.engine.frontier.active_len() as u64);
        if global_active > 0 {
            0
        } else {
            1
        }
    } else {
        params.balance_iters
    };

    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    // A balance pass on an already-balanced partition only perturbs; book it as churn
    // (a global fact, so every rank books identically).
    engine.set_stage(if balanced {
        StageKind::Churn
    } else {
        StageKind::Balance
    });
    let mut updates: Vec<PartUpdate> = Vec::new();
    for _ in 0..sweep_cap {
        let max_v = size_v.iter().map(|&s| s as f64).fold(imb_v, f64::max);
        // A capped churn sweep has no follow-up sweeps to correct collective
        // overshoot, so it charges changes at the conservative end-of-schedule rate.
        let mult = if sweep_cap == 1 {
            params
                .multiplier(nranks, counter.iter_tot)
                .max(nranks as f64)
        } else {
            params.multiplier(nranks, counter.iter_tot)
        };
        counters.reset_changes();
        for (w, &s) in counters.weight_a.iter_mut().zip(&size_v) {
            let denom = (s as f64).max(1.0);
            *w = (imb_v / denom - 1.0).max(0.0);
        }
        let mut stage = DistVertexBalance {
            graph,
            size_v: &size_v,
            change_v: &mut counters.change_v,
            weights: &mut counters.weight_a,
            imb_v,
            max_v,
            mult,
            spill_mult: mult.max(nranks as f64),
        };
        updates.clear();
        engine.sweep(
            n_owned,
            parts,
            false,
            BALANCE_CHUNK,
            &mut stage,
            dist_neighbors(graph),
            |v, part| updates.push((v, part)),
        );

        push_part_updates(ctx, halo, &updates, parts, Some(&mut engine.frontier))?;
        let mut all = Vec::with_capacity(p + 1);
        all.extend_from_slice(&counters.change_v);
        all.push(updates.len() as i64);
        let global = ctx.allreduce_sum_i64(&all);
        for i in 0..p {
            size_v[i] += global[i];
        }
        counter.iter_tot += 1;
        // A globally move-free balance sweep leaves sizes (hence weights and
        // admissibility) untouched, so every remaining sweep of this pass would be
        // identical: skip them. Gated on frontier mode so `Full` stays the faithful
        // legacy baseline.
        if frontier_mode && global[p] == 0 {
            break;
        }
    }
    Ok(())
}

/// One distributed constrained-refinement sweep (Algorithm 5).
struct DistVertexRefine<'a> {
    graph: &'a DistGraph,
    size_v: &'a [i64],
    change_v: &'a mut [i64],
    max_v: f64,
    guard_mult: f64,
}

impl DistVertexRefine<'_> {
    #[inline]
    fn estimate(&self, i: usize) -> f64 {
        self.size_v[i] as f64 + self.guard_mult * self.change_v[i] as f64
    }
}

impl SweepStage for DistVertexRefine<'_> {
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        scratch.clear();
        for &u in self.graph.neighbors(v as LocalId) {
            scratch.add(parts[u as usize] as usize, 1.0);
        }
        let own_score = scratch.get(x);
        let mut best_part = x;
        let mut best_score = own_score;
        for &i in scratch.touched() {
            if i == x || self.estimate(i) + 1.0 > self.max_v {
                continue;
            }
            let score = scratch.get(i);
            if score > best_score {
                best_score = score;
                best_part = i;
            }
        }
        if best_part != x {
            best_part as i32
        } else {
            NO_MOVE
        }
    }

    fn apply(&mut self, v: u32, target: usize, parts: &[i32]) -> bool {
        let x = parts[v as usize] as usize;
        if self.estimate(target) + 1.0 > self.max_v {
            return false;
        }
        let (s_x, s_t) = recount_two(self.graph, v, parts, x, target);
        if s_t <= s_x {
            return false;
        }
        self.change_v[x] -= 1;
        self.change_v[target] += 1;
        true
    }
}

/// One pass of the vertex refinement phase (Algorithm 5): constrained label-propagation
/// iterations that greedily minimise the edge cut without letting any part exceed the
/// current maximum size (or the imbalance target, whichever is larger). Frontier-driven
/// with the [`RefineConvergence`] protocol; must be called collectively.
#[allow(clippy::too_many_arguments)]
pub fn vertex_refine(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &mut [i32],
    params: &PartitionParams,
    counter: &mut StageCounter,
    ws: &mut SweepWorkspace,
    halo: &HaloPlan,
    convergence: RefineConvergence,
) -> Result<(), PartitionError> {
    let p = params.num_parts;
    let nranks = ctx.nranks();
    let n_owned = graph.n_owned();
    let frontier_mode = params.sweep_mode == SweepMode::Frontier;
    let imb_v = params.target_max_vertices(graph.global_n());
    // A globally-converged frontier-only pass does no work at all — skip the counter
    // collectives too. The check is on a global number, so every rank returns (or
    // proceeds) together.
    if frontier_mode && convergence == RefineConvergence::FrontierOnly {
        let global_active = ctx.allreduce_scalar_sum_u64(ws.engine.frontier.active_len() as u64);
        if global_active == 0 {
            return Ok(());
        }
    }
    let mut size_v = global_vertex_counts(ctx, graph, parts, p);

    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    engine.set_stage(StageKind::Refine);
    // A pass inheriting a large global frontier opens with one full sweep: it costs
    // barely more than the frontier sweep it replaces and restores the legacy
    // schedule's per-round global coverage. The decision is made on global numbers, so
    // every rank clears (or keeps) its frontier together.
    if frontier_mode && convergence == RefineConvergence::Polish {
        let global_active = ctx.allreduce_scalar_sum_u64(engine.frontier.active_len() as u64);
        if global_active > graph.global_n() / 8 {
            engine.frontier.clear();
        }
    }

    let budget = refine_budget(params.refine_iters, params.sweep_mode);
    let mut updates: Vec<PartUpdate> = Vec::new();
    for _ in 0..budget {
        let use_frontier = if frontier_mode {
            let global_active = ctx.allreduce_scalar_sum_u64(engine.frontier.active_len() as u64);
            if global_active == 0 && convergence == RefineConvergence::FrontierOnly {
                break;
            }
            global_active > 0
        } else {
            false
        };

        let max_v = size_v.iter().map(|&s| s as f64).fold(imb_v, f64::max);
        let mult = params.multiplier(nranks, counter.iter_tot);
        // Refinement must never push a part above the current maximum, even when every
        // rank funnels vertices into the same popular part within one stale iteration,
        // so admissibility is checked with the full rank count (each rank claims at
        // most its 1/nranks share of the remaining headroom).
        let guard_mult = mult.max(nranks as f64);
        counters.reset_changes();
        let mut stage = DistVertexRefine {
            graph,
            size_v: &size_v,
            change_v: &mut counters.change_v,
            max_v,
            guard_mult,
        };
        updates.clear();
        engine.sweep(
            n_owned,
            parts,
            use_frontier,
            SWEEP_CHUNK,
            &mut stage,
            dist_neighbors(graph),
            |v, part| updates.push((v, part)),
        );

        push_part_updates(ctx, halo, &updates, parts, Some(&mut engine.frontier))?;
        let mut all = Vec::with_capacity(p + 1);
        all.extend_from_slice(&counters.change_v);
        all.push(updates.len() as i64);
        let global = ctx.allreduce_sum_i64(&all);
        for i in 0..p {
            size_v[i] += global[i];
        }
        counter.iter_tot += 1;
        // Global fixed point: a move-free full sweep ends the pass in frontier mode
        // (the legacy schedule always ran its full budget); a move-free frontier sweep
        // ends it only without polish.
        if frontier_mode
            && global[p] == 0
            && (!use_frontier || convergence == RefineConvergence::FrontierOnly)
        {
            break;
        }
    }
    Ok(())
}

/// Explicit final rebalance pass, the distributed analogue of the multilevel drivers'
/// `rebalance` (PR 1): after the stage schedule, drain any part still above the vertex
/// target by moving its boundary vertices to the admissible part keeping the most
/// adjacent edges (the globally lightest part as the interior-vertex fallback).
///
/// Weighted label propagation converges to the target on most inputs, but on small
/// skewed graphs (BA hubs, small-world shortcut clusters) the attraction weights can
/// stall above it — this pass closes exactly that gap, so cold runs meet the 1.1
/// imbalance target and warm starts are not locked out of the refine-only fast path.
/// Per-rank moves are throttled to their `1/nranks` share of each part's excess and
/// destinations are charged at the full rank count, so no collective overshoot is
/// possible. A no-op when the constraint already holds; must be called collectively.
pub fn final_rebalance(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &mut [i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
    halo: &HaloPlan,
) -> Result<(), PartitionError> {
    let p = params.num_parts;
    let nranks = ctx.nranks();
    let n_owned = graph.n_owned();
    let imb_v = params.target_max_vertices(graph.global_n());
    let imb_e = params.target_max_arcs(2 * graph.global_m());
    let mut size_v = global_vertex_counts(ctx, graph, parts, p);
    let mut size_e = global_arc_counts(ctx, graph, parts, p);
    let mut scratch = ScoreScratch::new(p);

    // Rounding-level overshoot (a converged run routinely lands within a couple of
    // percent of the fractional target) is noise, not imbalance — and draining it
    // would trade edge balance for nothing. The pass engages only beyond the same
    // slack the warm-start eligibility check uses, then drains to the exact target.
    if size_v
        .iter()
        .all(|&s| (s as f64) <= imb_v * crate::pulp::WARM_BALANCE_SLACK)
    {
        return Ok(());
    }

    let max_rounds = 4 * params.balance_iters.max(1);
    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    for _ in 0..max_rounds {
        // Global state, so every rank takes the same branch.
        if size_v.iter().all(|&s| (s as f64) <= imb_v) {
            break;
        }
        counters.reset_changes();
        let change_v = &mut counters.change_v;
        let change_e = &mut counters.change_e;
        // This rank may move at most its share of each part's excess per round.
        let mut quota: Vec<i64> = size_v
            .iter()
            .map(|&s| (((s as f64 - imb_v).max(0.0)) / nranks as f64).ceil() as i64)
            .collect();
        let admissible = |i: usize, change_v: &[i64]| -> bool {
            size_v[i] as f64 + nranks as f64 * change_v[i] as f64 + 1.0 <= imb_v
        };
        // Destinations are preferred while they keep the *edge* constraint too —
        // fixing the vertex balance must not push a part's arc load past its target
        // and lock warm starts out of the refine-only fast path — but the edge cap is
        // soft: with no arc-admissible destination the vertex constraint wins.
        let arc_room = |i: usize, change_e: &[i64], deg: f64| -> bool {
            size_e[i] as f64 + nranks as f64 * change_e[i] as f64 + deg <= imb_e
        };
        let mut updates: Vec<PartUpdate> = Vec::new();
        for v in 0..n_owned {
            let x = parts[v] as usize;
            if quota[x] <= 0 {
                continue;
            }
            let deg = graph.degree_owned(v as LocalId) as f64;
            scratch.clear();
            for &u in graph.neighbors(v as LocalId) {
                scratch.add(parts[u as usize] as usize, 1.0);
            }
            // Cut-aware first choice: the admissible neighbouring part retaining the
            // most adjacent arcs, preferring parts with arc headroom.
            let pick = |require_arc_room: bool, change_v: &[i64], change_e: &[i64]| {
                let mut best: Option<usize> = None;
                let mut best_score = 0.0f64;
                for &i in scratch.touched() {
                    if i == x
                        || !admissible(i, change_v)
                        || (require_arc_room && !arc_room(i, change_e, deg))
                    {
                        continue;
                    }
                    if best.is_none() || scratch.get(i) > best_score {
                        best = Some(i);
                        best_score = scratch.get(i);
                    }
                }
                best.or_else(|| {
                    (0..p)
                        .filter(|&i| {
                            i != x
                                && admissible(i, change_v)
                                && (!require_arc_room || arc_room(i, change_e, deg))
                        })
                        .min_by_key(|&i| (size_v[i] + nranks as i64 * change_v[i], i))
                })
            };
            let best = pick(true, change_v, change_e).or_else(|| pick(false, change_v, change_e));
            if let Some(target) = best {
                quota[x] -= 1;
                change_v[x] -= 1;
                change_v[target] += 1;
                change_e[x] -= deg as i64;
                change_e[target] += deg as i64;
                parts[v] = target as i32;
                updates.push((v as LocalId, target as i32));
            }
        }
        push_part_updates(ctx, halo, &updates, parts, Some(&mut engine.frontier))?;
        let mut all = Vec::with_capacity(2 * p + 1);
        all.extend_from_slice(change_v);
        all.extend_from_slice(change_e);
        all.push(updates.len() as i64);
        let global = ctx.allreduce_sum_i64(&all);
        for i in 0..p {
            size_v[i] += global[i];
            size_e[i] += global[p + i];
        }
        if global[2 * p] == 0 {
            // No rank can move anything else (e.g. every admissible destination is
            // full); leave the partition as balanced as it can get.
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_partition;
    use crate::metrics::{is_valid_partition, PartitionQuality};
    use crate::params::InitStrategy;
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::Distribution;

    fn grid_edges(w: u64, h: u64) -> Vec<(u64, u64)> {
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

    fn stage_env(
        ctx: &RankCtx,
        graph: &DistGraph,
        params: &PartitionParams,
    ) -> (SweepWorkspace, HaloPlan) {
        let mut ws = SweepWorkspace::new(params.sweep_threads);
        ws.begin_run(graph.n_owned(), params.num_parts);
        ws.engine.frontier.seed_all(graph.n_owned());
        (ws, HaloPlan::build(ctx, graph).unwrap())
    }

    #[test]
    fn balance_improves_vertex_imbalance() {
        let edges = grid_edges(16, 16);
        let n = 256u64;
        let out = Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let params = PartitionParams {
                num_parts: 4,
                seed: 3,
                ..Default::default()
            };
            let (mut ws, halo) = stage_env(ctx, &g, &params);
            let mut parts = init_partition(ctx, &g, &halo, &params).unwrap();
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            let mut counter = StageCounter::default();
            for _ in 0..params.outer_iters {
                vertex_balance(ctx, &g, &mut parts, &params, &mut counter, &mut ws, &halo).unwrap();
                vertex_refine(
                    ctx,
                    &g,
                    &mut parts,
                    &params,
                    &mut counter,
                    &mut ws,
                    &halo,
                    RefineConvergence::Polish,
                )
                .unwrap();
            }
            final_rebalance(ctx, &g, &mut parts, &params, &mut ws, &halo).unwrap();
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            assert!(is_valid_partition(&parts, 4));
            (before, after)
        });
        let (before, after) = out[0];
        // The BFS-grow initialisation can be arbitrarily imbalanced; after balancing
        // plus the explicit final rebalance the constraint (10% slack plus rounding on
        // a 64-vertex-per-part grid) must be met, not merely approached.
        assert!(
            after.vertex_imbalance <= before.vertex_imbalance.max(1.2),
            "balance phase made imbalance worse: {} -> {}",
            before.vertex_imbalance,
            after.vertex_imbalance
        );
        assert!(
            after.vertex_imbalance <= 1.12,
            "vertex imbalance still {} after balancing + rebalance",
            after.vertex_imbalance
        );
    }

    #[test]
    fn refine_does_not_break_validity_and_keeps_cut_reasonable() {
        let edges = grid_edges(12, 12);
        let n = 144u64;
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, n, &edges);
            let params = PartitionParams {
                num_parts: 4,
                init: InitStrategy::Random,
                seed: 7,
                ..Default::default()
            };
            let (mut ws, halo) = stage_env(ctx, &g, &params);
            let mut parts = init_partition(ctx, &g, &halo, &params).unwrap();
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            let mut counter = StageCounter::default();
            vertex_refine(
                ctx,
                &g,
                &mut parts,
                &params,
                &mut counter,
                &mut ws,
                &halo,
                RefineConvergence::Polish,
            )
            .unwrap();
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            assert!(is_valid_partition(&parts, 4));
            // Random initialisation cuts nearly everything; refinement must improve it.
            assert!(
                after.edge_cut <= before.edge_cut,
                "refinement increased the cut: {} -> {}",
                before.edge_cut,
                after.edge_cut
            );
        });
    }

    #[test]
    fn full_mode_counters_advance_with_iterations() {
        let edges = grid_edges(8, 8);
        Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 64, &edges);
            let params = PartitionParams {
                num_parts: 2,
                sweep_mode: SweepMode::Full,
                ..PartitionParams::with_parts(2)
            };
            let (mut ws, halo) = stage_env(ctx, &g, &params);
            let mut parts = init_partition(ctx, &g, &halo, &params).unwrap();
            let mut counter = StageCounter::default();
            vertex_balance(ctx, &g, &mut parts, &params, &mut counter, &mut ws, &halo).unwrap();
            assert_eq!(counter.iter_tot, params.balance_iters);
            vertex_refine(
                ctx,
                &g,
                &mut parts,
                &params,
                &mut counter,
                &mut ws,
                &halo,
                RefineConvergence::Polish,
            )
            .unwrap();
            assert_eq!(counter.iter_tot, params.balance_iters + params.refine_iters);
        });
    }

    #[test]
    fn global_count_helpers_sum_to_totals() {
        let edges = grid_edges(10, 10);
        Runtime::run(4, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, 100, &edges);
            let params = PartitionParams {
                num_parts: 5,
                init: InitStrategy::VertexBlock,
                ..Default::default()
            };
            let halo = HaloPlan::build(ctx, &g).unwrap();
            let parts = init_partition(ctx, &g, &halo, &params).unwrap();
            let verts = global_vertex_counts(ctx, &g, &parts, 5);
            let arcs = global_arc_counts(ctx, &g, &parts, 5);
            let cuts = global_cut_counts(ctx, &g, &parts, 5);
            assert_eq!(verts.iter().sum::<i64>(), 100);
            assert_eq!(arcs.iter().sum::<i64>() as u64, 2 * g.global_m());
            assert!(cuts.iter().sum::<i64>() >= 0);
        });
    }
}
