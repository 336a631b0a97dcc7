//! The edge balancing and refinement phases (§III-E of the paper).
//!
//! After the vertex stage, XtraPuLP-MM balances the number of edges per part while
//! keeping the vertex constraint, and minimises both the global cut and the maximum
//! per-part cut. The vertex weighting `Wv` is replaced by an edge weight `We` and a cut
//! weight `Wc`, combined as `counts(i) * (Re*We(i) + Rc*Wc(i))`. The schedule of `Re` and
//! `Rc` first biases towards edge balance (growing `Re` while the edge constraint is
//! unmet) and then towards cut balance (growing `Rc` afterwards).
//!
//! As in the paper, per-iteration part-size changes are tracked in vertices (`Cv`), arcs
//! (`Ce`) and cut arcs (`Cc`), throttled by the same dynamic multiplier, and exchanged
//! with an allreduce at the end of every iteration.
//!
//! Implementation note: the paper does not give the exact functional form of `We`, `Wc`,
//! `Re` and `Rc`; we use the same reciprocal-headroom form as `Wv` and a simple
//! monotone schedule (documented in DESIGN.md), which reproduces the qualitative
//! behaviour: the edge-balance constraint is met first, then the max per-part cut is
//! reduced and evened out.
//!
//! Both phases run on the shared sweep engine (see [`crate::sweep`] and the structurally
//! identical vertex stage in [`crate::balance`]): frontier-driven refinement, two-phase
//! deterministic chunk application, and the fixed-point perturbation policy for the
//! balance pass.

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, LocalId};

use crate::balance::{
    dist_neighbors, global_arc_counts, global_cut_counts, global_vertex_counts, StageCounter,
};
use crate::error::PartitionError;
use crate::exchange::{push_part_updates, HaloPlan, PartUpdate};
use crate::params::PartitionParams;
use crate::sweep::{
    refine_budget, RefineConvergence, ScoreScratch, StageKind, SweepMode, SweepStage,
    SweepWorkspace, BALANCE_CHUNK, NO_MOVE, SWEEP_CHUNK,
};

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

/// Shared mutable state of one edge-stage sweep: the three global size arrays, their
/// local per-iteration changes and the two weight tables.
struct EdgeStageState<'a> {
    size_v: &'a [i64],
    size_e: &'a [i64],
    size_c: &'a [i64],
    change_v: &'a mut [i64],
    change_e: &'a mut [i64],
    change_c: &'a mut [i64],
    w_e: &'a mut [f64],
    w_c: &'a mut [f64],
}

impl EdgeStageState<'_> {
    #[inline]
    fn est_v(&self, i: usize, mult: f64) -> f64 {
        self.size_v[i] as f64 + mult * self.change_v[i] as f64
    }

    #[inline]
    fn est_e(&self, i: usize, mult: f64) -> f64 {
        self.size_e[i] as f64 + mult * self.change_e[i] as f64
    }

    #[inline]
    fn est_c(&self, i: usize, mult: f64) -> f64 {
        self.size_c[i] as f64 + mult * self.change_c[i] as f64
    }
}

/// One distributed edge-balancing sweep: weighted label propagation driven by edge- and
/// cut-balance weights.
struct DistEdgeBalance<'a> {
    graph: &'a DistGraph,
    state: EdgeStageState<'a>,
    imb_e: f64,
    max_v: f64,
    max_e: f64,
    max_c: f64,
    mult: f64,
    r_e: f64,
    r_c: f64,
}

impl DistEdgeBalance<'_> {
    #[inline]
    fn weight_e_of(&self, i: usize) -> f64 {
        let denom = self.state.est_e(i, self.mult).max(1.0);
        (self.imb_e / denom - 1.0).max(0.0)
    }

    #[inline]
    fn weight_c_of(&self, i: usize) -> f64 {
        let denom = self.state.est_c(i, self.mult).max(1.0);
        (self.max_c / denom - 1.0).max(0.0)
    }

    /// Commit the counter updates of a move of `v` (degree `deg`) from `x` to `w`.
    fn commit(&mut self, x: usize, w: usize, deg: f64, cut_from_x: i64, cut_from_w: i64) {
        self.state.change_v[x] -= 1;
        self.state.change_v[w] += 1;
        self.state.change_e[x] -= deg as i64;
        self.state.change_e[w] += deg as i64;
        self.state.change_c[x] -= cut_from_x;
        self.state.change_c[w] += cut_from_w;
        self.state.w_e[x] = self.weight_e_of(x);
        self.state.w_e[w] = self.weight_e_of(w);
        self.state.w_c[x] = self.weight_c_of(x);
        self.state.w_c[w] = self.weight_c_of(w);
    }
}

impl SweepStage for DistEdgeBalance<'_> {
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        let deg = self.graph.degree_owned(v as LocalId) as f64;
        scratch.clear();
        for &u in self.graph.neighbors(v as LocalId) {
            scratch.add(parts[u as usize] as usize, 1.0);
        }
        let mut best_part = x;
        let mut best_score = 0.0f64;
        for &i in scratch.touched() {
            if i == x {
                continue;
            }
            // Constraints: respect the vertex target and never exceed the current
            // maximum edge load.
            if self.state.est_v(i, self.mult) + 1.0 > self.max_v {
                continue;
            }
            if self.state.est_e(i, self.mult) + deg > self.max_e {
                continue;
            }
            let score =
                scratch.get(i) * (self.r_e * self.state.w_e[i] + self.r_c * self.state.w_c[i]);
            if score > best_score {
                best_score = score;
                best_part = i;
            }
        }
        if best_part != x && best_score > 0.0 {
            best_part as i32
        } else {
            NO_MOVE
        }
    }

    fn apply(&mut self, v: u32, target: usize, parts: &[i32]) -> bool {
        let x = parts[v as usize] as usize;
        let deg = self.graph.degree_owned(v as LocalId) as f64;
        if self.state.est_v(target, self.mult) + 1.0 > self.max_v
            || self.state.est_e(target, self.mult) + deg > self.max_e
            || self.r_e * self.state.w_e[target] + self.r_c * self.state.w_c[target] <= 0.0
        {
            return false;
        }
        let (s_x, s_t) = recount_two(self.graph, v, parts, x, target);
        if s_t <= 0.0 {
            return false;
        }
        let cut_from_x = deg as i64 - s_x as i64;
        let cut_from_t = deg as i64 - s_t as i64;
        self.commit(x, target, deg, cut_from_x, cut_from_t);
        true
    }
}

/// One pass of the edge balancing phase: weighted label-propagation iterations driven
/// by edge- and cut-balance weights, under the fixed-point perturbation policy in
/// frontier mode. Must be called collectively.
#[allow(clippy::too_many_arguments)]
pub fn edge_balance(
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
    let imb_e = params.target_max_arcs(2 * graph.global_m());

    let mut size_v = global_vertex_counts(ctx, graph, parts, p);
    let mut size_e = global_arc_counts(ctx, graph, parts, p);
    let mut size_c = global_cut_counts(ctx, graph, parts, p);

    // Fixed-point perturbation policy against the edge target, mirroring the vertex
    // stage, plus stall detection: when the target is unreachable (hub-dominated
    // skew), pass after pass of balance churn costs full sweeps without improving the
    // maximum arc load — detect the lack of progress and stop paying for it. All
    // decisions are on global numbers, so every rank takes the same branch.
    let cur_max_e = size_e.iter().map(|&s| s as f64).fold(0.0, f64::max);
    let edge_balanced = size_e.iter().all(|&s| (s as f64) <= imb_e);
    if frontier_mode && !edge_balanced {
        if let Some(prev) = ws.edge_balance_last_max {
            if cur_max_e >= prev * 0.99 {
                ws.edge_balance_stalled = true;
            }
        }
        ws.edge_balance_last_max = Some(cur_max_e);
    }
    let sweep_cap = if frontier_mode && ws.edge_balance_stalled {
        // The target is out of reach; keep a single churn sweep per pass — its
        // perturbation still feeds the refinement rounds — but stop paying for the
        // remaining schedule.
        1
    } else if frontier_mode && edge_balanced {
        let global_active = ctx.allreduce_scalar_sum_u64(ws.engine.frontier.active_len() as u64);
        if global_active > 0 {
            0
        } else {
            1
        }
    } else {
        params.balance_iters
    };

    // Bias schedule: emphasise edge balance until the constraint is met, then shift the
    // emphasis to the cut-balance objective.
    let mut r_e = 1.0f64;
    let mut r_c = 1.0f64;

    // Balanced or stalled-at-unreachable passes only perturb; book them as churn (all
    // inputs are global numbers, so every rank books identically).
    let churn = edge_balanced || ws.edge_balance_stalled;
    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    engine.set_stage(if churn {
        StageKind::Churn
    } else {
        StageKind::Balance
    });
    let mut updates: Vec<PartUpdate> = Vec::new();
    for _ in 0..sweep_cap {
        let max_v = size_v.iter().map(|&s| s as f64).fold(imb_v, f64::max);
        let max_e = size_e.iter().map(|&s| s as f64).fold(imb_e, f64::max);
        let max_c = size_c.iter().map(|&s| s as f64).fold(1.0, f64::max);
        let edge_balanced = size_e.iter().all(|&s| (s as f64) <= imb_e);
        if edge_balanced {
            r_c += 1.0;
        } else {
            r_e += 1.0;
        }
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
        for i in 0..p {
            counters.weight_a[i] = {
                let denom = (size_e[i] as f64).max(1.0);
                (imb_e / denom - 1.0).max(0.0)
            };
            counters.weight_b[i] = {
                let denom = (size_c[i] as f64).max(1.0);
                (max_c / denom - 1.0).max(0.0)
            };
        }
        let mut stage = DistEdgeBalance {
            graph,
            state: EdgeStageState {
                size_v: &size_v,
                size_e: &size_e,
                size_c: &size_c,
                change_v: &mut counters.change_v,
                change_e: &mut counters.change_e,
                change_c: &mut counters.change_c,
                w_e: &mut counters.weight_a,
                w_c: &mut counters.weight_b,
            },
            imb_e,
            max_v,
            max_e,
            max_c,
            mult,
            r_e,
            r_c,
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
        let mut all = Vec::with_capacity(3 * p + 1);
        all.extend_from_slice(&counters.change_v);
        all.extend_from_slice(&counters.change_e);
        all.extend_from_slice(&counters.change_c);
        all.push(updates.len() as i64);
        let global = ctx.allreduce_sum_i64(&all);
        for i in 0..p {
            size_v[i] += global[i];
            size_e[i] += global[p + i];
            size_c[i] += global[2 * p + i];
            size_c[i] = size_c[i].max(0);
        }
        counter.iter_tot += 1;
        if frontier_mode && global[3 * p] == 0 {
            break;
        }
    }
    Ok(())
}

/// One distributed edge-stage refinement sweep: constrained label propagation that
/// reduces the cut while never increasing the maximum vertex, edge or cut load of any
/// part.
struct DistEdgeRefine<'a> {
    graph: &'a DistGraph,
    state: EdgeStageState<'a>,
    max_v: f64,
    max_e: f64,
    max_c: f64,
    guard_mult: f64,
}

impl SweepStage for DistEdgeRefine<'_> {
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        let deg = self.graph.degree_owned(v as LocalId) as f64;
        scratch.clear();
        for &u in self.graph.neighbors(v as LocalId) {
            scratch.add(parts[u as usize] as usize, 1.0);
        }
        let own_score = scratch.get(x);
        let mut best_part = x;
        let mut best_score = own_score;
        for &i in scratch.touched() {
            if i == x {
                continue;
            }
            let cut_into_i = deg - scratch.get(i);
            if self.state.est_v(i, self.guard_mult) + 1.0 > self.max_v {
                continue;
            }
            if self.state.est_e(i, self.guard_mult) + deg > self.max_e {
                continue;
            }
            if self.state.est_c(i, self.guard_mult) + cut_into_i > self.max_c {
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
        let deg = self.graph.degree_owned(v as LocalId) as f64;
        let (s_x, s_t) = recount_two(self.graph, v, parts, x, target);
        if s_t <= s_x
            || self.state.est_v(target, self.guard_mult) + 1.0 > self.max_v
            || self.state.est_e(target, self.guard_mult) + deg > self.max_e
            || self.state.est_c(target, self.guard_mult) + (deg - s_t) > self.max_c
        {
            return false;
        }
        let cut_from_x = deg as i64 - s_x as i64;
        let cut_from_t = deg as i64 - s_t as i64;
        self.state.change_v[x] -= 1;
        self.state.change_v[target] += 1;
        self.state.change_e[x] -= deg as i64;
        self.state.change_e[target] += deg as i64;
        self.state.change_c[x] -= cut_from_x;
        self.state.change_c[target] += cut_from_t;
        true
    }
}

/// One pass of the edge-stage refinement: constrained label propagation that reduces the
/// cut while never increasing the maximum vertex, edge or cut load of any part.
/// Frontier-driven with the [`RefineConvergence`] protocol; must be called collectively.
#[allow(clippy::too_many_arguments)]
pub fn edge_refine(
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
    let imb_e = params.target_max_arcs(2 * graph.global_m());
    // A globally-converged frontier-only pass does no work at all — skip the counter
    // collectives (each an O(n) or O(m) local scan) too. Global check: every rank
    // returns or proceeds together.
    if frontier_mode && convergence == RefineConvergence::FrontierOnly {
        let global_active = ctx.allreduce_scalar_sum_u64(ws.engine.frontier.active_len() as u64);
        if global_active == 0 {
            return Ok(());
        }
    }

    let mut size_v = global_vertex_counts(ctx, graph, parts, p);
    let mut size_e = global_arc_counts(ctx, graph, parts, p);
    let mut size_c = global_cut_counts(ctx, graph, parts, p);

    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    engine.set_stage(StageKind::Refine);
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
        let max_e = size_e.iter().map(|&s| s as f64).fold(imb_e, f64::max);
        let max_c = size_c.iter().map(|&s| s as f64).fold(1.0, f64::max);
        let mult = params.multiplier(nranks, counter.iter_tot);
        // As in vertex refinement, admissibility is guarded with the full rank count so
        // the per-part maxima cannot be exceeded by concurrent ranks within one stale
        // iteration.
        let guard_mult = mult.max(nranks as f64);

        counters.reset_changes();
        let mut stage = DistEdgeRefine {
            graph,
            state: EdgeStageState {
                size_v: &size_v,
                size_e: &size_e,
                size_c: &size_c,
                change_v: &mut counters.change_v,
                change_e: &mut counters.change_e,
                change_c: &mut counters.change_c,
                w_e: &mut counters.weight_a,
                w_c: &mut counters.weight_b,
            },
            max_v,
            max_e,
            max_c,
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
        let mut all = Vec::with_capacity(3 * p + 1);
        all.extend_from_slice(&counters.change_v);
        all.extend_from_slice(&counters.change_e);
        all.extend_from_slice(&counters.change_c);
        all.push(updates.len() as i64);
        let global = ctx.allreduce_sum_i64(&all);
        for i in 0..p {
            size_v[i] += global[i];
            size_e[i] += global[p + i];
            size_c[i] += global[2 * p + i];
            size_c[i] = size_c[i].max(0);
        }
        counter.iter_tot += 1;
        if frontier_mode
            && global[3 * p] == 0
            && (!use_frontier || convergence == RefineConvergence::FrontierOnly)
        {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{vertex_balance, vertex_refine};
    use crate::init::init_partition;
    use crate::metrics::{is_valid_partition, PartitionQuality};
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::Distribution;

    /// A skewed graph: a hub star glued to a grid, so vertex balance and edge balance
    /// pull in different directions.
    fn skewed_edges() -> (u64, Vec<(u64, u64)>) {
        let mut edges = Vec::new();
        // Star: vertex 0 connected to 1..=40.
        for i in 1..=40u64 {
            edges.push((0, i));
        }
        // Grid of 10x10 on vertices 41..141.
        let base = 41u64;
        for y in 0..10u64 {
            for x in 0..10u64 {
                let id = base + y * 10 + x;
                if x + 1 < 10 {
                    edges.push((id, id + 1));
                }
                if y + 1 < 10 {
                    edges.push((id, id + 10));
                }
            }
        }
        // Glue the star to the grid.
        edges.push((1, base));
        (141, edges)
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
    fn edge_stage_improves_edge_balance_without_breaking_vertex_constraint() {
        let (n, edges) = skewed_edges();
        let out = Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let params = PartitionParams {
                num_parts: 4,
                seed: 11,
                ..Default::default()
            };
            let (mut ws, halo) = stage_env(ctx, &g, &params);
            let mut parts = init_partition(ctx, &g, &halo, &params).unwrap();
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
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            let mut counter = StageCounter::default();
            for _ in 0..params.outer_iters {
                edge_balance(ctx, &g, &mut parts, &params, &mut counter, &mut ws, &halo).unwrap();
                edge_refine(
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
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            assert!(is_valid_partition(&parts, 4));
            (before, after)
        });
        let (before, after) = out[0];
        // The edge stage should not blow up the vertex balance, and should improve (or at
        // least not substantially worsen) the edge balance.
        assert!(
            after.vertex_imbalance < 1.6,
            "vertex imbalance {}",
            after.vertex_imbalance
        );
        assert!(
            after.edge_imbalance <= before.edge_imbalance * 1.25 + 0.1,
            "edge imbalance regressed: {} -> {}",
            before.edge_imbalance,
            after.edge_imbalance
        );
    }

    #[test]
    fn edge_refine_does_not_increase_cut_substantially() {
        let (n, edges) = skewed_edges();
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, n, &edges);
            let params = PartitionParams {
                num_parts: 3,
                seed: 5,
                ..Default::default()
            };
            let (mut ws, halo) = stage_env(ctx, &g, &params);
            let mut parts = init_partition(ctx, &g, &halo, &params).unwrap();
            let mut counter = StageCounter::default();
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
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 3);
            let mut counter = StageCounter::default();
            edge_refine(
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
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 3);
            assert!(
                after.edge_cut <= before.edge_cut + before.edge_cut / 4 + 2,
                "edge refine increased cut too much: {} -> {}",
                before.edge_cut,
                after.edge_cut
            );
        });
    }

    #[test]
    fn full_mode_stage_counters_advance() {
        let (n, edges) = skewed_edges();
        Runtime::run(1, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let params = PartitionParams {
                sweep_mode: SweepMode::Full,
                ..PartitionParams::with_parts(2)
            };
            let (mut ws, halo) = stage_env(ctx, &g, &params);
            let mut parts = init_partition(ctx, &g, &halo, &params).unwrap();
            let mut counter = StageCounter::default();
            edge_balance(ctx, &g, &mut parts, &params, &mut counter, &mut ws, &halo).unwrap();
            edge_refine(
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
}
