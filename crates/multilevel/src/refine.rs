//! Boundary refinement for the multilevel baselines: a greedy, weight-constrained
//! Fiduccia–Mattheyses-style pass applied after every uncoarsening step.
//!
//! Both passes run on the shared sweep engine from the core crate
//! ([`xtrapulp::sweep`]): refinement sweeps are frontier-driven (after the first sweep
//! of a level, only vertices whose neighbourhood changed are rescored) with two-phase
//! chunk application, and all per-part weight/gain buffers are borrowed from the
//! [`SweepWorkspace`] the driver threads through the V-cycle instead of being allocated
//! per invocation.

use xtrapulp::sweep::{ScoreScratch, SweepStage, SweepWorkspace, NO_MOVE};

use crate::weighted::WeightedGraph;

/// Enqueue-neighbours closure over a weighted graph for the sweep engine's frontier.
fn wg_neighbors(graph: &WeightedGraph) -> impl Fn(u32, &mut dyn FnMut(u32)) + '_ {
    move |v, mark| {
        for (u, _) in graph.neighbors(v as u64) {
            mark(u as u32);
        }
    }
}

/// One greedy boundary-refinement sweep: move a vertex to the neighbouring part with
/// the largest positive weighted cut gain, provided the destination stays below
/// `max_part_weight`.
struct MlRefine<'a> {
    graph: &'a WeightedGraph,
    part_weights: &'a mut [i64],
    max_part_weight: u64,
}

impl SweepStage for MlRefine<'_> {
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        scratch.clear();
        for (u, w) in self.graph.neighbors(v as u64) {
            scratch.add(parts[u as usize] as usize, w as f64);
        }
        let own = scratch.get(x);
        let vw = self.graph.vertex_weights[v as usize] as i64;
        let mut best = x;
        let mut best_gain = own;
        for &i in scratch.touched() {
            if i == x || self.part_weights[i] + vw > self.max_part_weight as i64 {
                continue;
            }
            if scratch.get(i) > best_gain {
                best_gain = scratch.get(i);
                best = i;
            }
        }
        if best != x {
            best as i32
        } else {
            NO_MOVE
        }
    }

    fn apply(&mut self, v: u32, target: usize, parts: &[i32]) -> bool {
        let x = parts[v as usize] as usize;
        let vw = self.graph.vertex_weights[v as usize] as i64;
        if self.part_weights[target] + vw > self.max_part_weight as i64 {
            return false;
        }
        // The move must still strictly improve the weighted gain under the live labels
        // (earlier applications in this chunk may have changed the neighbourhood).
        let mut own = 0i64;
        let mut tgt = 0i64;
        for (u, w) in self.graph.neighbors(v as u64) {
            let pu = parts[u as usize] as usize;
            if pu == x {
                own += w as i64;
            } else if pu == target {
                tgt += w as i64;
            }
        }
        if tgt <= own {
            return false;
        }
        self.part_weights[x] -= vw;
        self.part_weights[target] += vw;
        true
    }
}

/// Run up to `sweeps` passes of greedy boundary refinement on the shared sweep engine.
/// A vertex moves to the neighbouring part with the largest positive cut gain, provided
/// the destination part stays below `max_part_weight`. The first sweep covers every
/// vertex (projection from the coarser level changed everything); later sweeps are
/// frontier-driven and the pass stops at a move-free sweep.
pub fn greedy_refine(
    graph: &WeightedGraph,
    parts: &mut [i32],
    num_parts: usize,
    max_part_weight: u64,
    sweeps: usize,
    ws: &mut SweepWorkspace,
) {
    let n = graph.num_vertices();
    if n == 0 || num_parts <= 1 {
        return;
    }
    ws.begin_run(n, num_parts);
    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    counters.size.clear();
    counters.size.extend(
        graph
            .part_weights(parts, num_parts)
            .iter()
            .map(|&w| w as i64),
    );
    for sweep in 0..sweeps.max(1) {
        let use_frontier = sweep > 0;
        if use_frontier && engine.frontier.active_len() == 0 {
            break;
        }
        let mut stage = MlRefine {
            graph,
            part_weights: &mut counters.size,
            max_part_weight,
        };
        let moves = engine.sweep(
            n,
            parts,
            use_frontier,
            &mut stage,
            wg_neighbors(graph),
            |_, _| {},
        );
        if moves == 0 {
            break;
        }
    }
}

/// Force every part under `max_part_weight` by evicting vertices from overweight parts.
///
/// [`greedy_refine`] only makes cut-improving moves, so it preserves whatever imbalance
/// the initial partition (or a projection from a coarser level) handed it — greedy
/// growing's last part, for example, absorbs every leftover vertex. Real multilevel
/// partitioners therefore alternate refinement with an explicit balancing pass; this is
/// that pass. Boundary vertices of overweight parts move to the feasible neighbouring
/// part losing the least cut weight (falling back to the globally lightest part for
/// interior vertices), until no part exceeds the bound or a sweep makes no progress.
/// Scratch and weight buffers are borrowed from the workspace.
pub fn rebalance(
    graph: &WeightedGraph,
    parts: &mut [i32],
    num_parts: usize,
    max_part_weight: u64,
    ws: &mut SweepWorkspace,
) {
    let n = graph.num_vertices();
    if n == 0 || num_parts <= 1 {
        return;
    }
    ws.begin_run(n, num_parts);
    let SweepWorkspace {
        engine, counters, ..
    } = ws;
    counters.size.clear();
    counters.size.extend(
        graph
            .part_weights(parts, num_parts)
            .iter()
            .map(|&w| w as i64),
    );
    let part_weights = &mut counters.size;
    let gain = engine.scratch();
    loop {
        if part_weights.iter().all(|&w| w <= max_part_weight as i64) {
            return;
        }
        let mut moved = 0usize;
        for v in 0..n as u64 {
            let x = parts[v as usize] as usize;
            if part_weights[x] <= max_part_weight as i64 {
                continue;
            }
            let vw = graph.vertex_weights[v as usize] as i64;
            gain.clear();
            for (u, w) in graph.neighbors(v) {
                gain.add(parts[u as usize] as usize, w as f64);
            }
            // Best feasible destination among neighbouring parts: the one keeping the
            // most adjacent edge weight (i.e. losing the least cut).
            let mut best: Option<usize> = None;
            let mut best_gain = 0.0f64;
            for &i in gain.touched() {
                if i == x || part_weights[i] + vw > max_part_weight as i64 {
                    continue;
                }
                if best.is_none() || gain.get(i) > best_gain {
                    best = Some(i);
                    best_gain = gain.get(i);
                }
            }
            // Interior vertex (or all neighbour parts full): lightest feasible part.
            let best = best.or_else(|| {
                (0..num_parts)
                    .filter(|&i| i != x && part_weights[i] + vw <= max_part_weight as i64)
                    .min_by_key(|&i| part_weights[i])
            });
            if let Some(dst) = best {
                part_weights[x] -= vw;
                part_weights[dst] += vw;
                parts[v as usize] = dst as i32;
                moved += 1;
            }
        }
        if moved == 0 {
            // No feasible move exists (e.g. one vertex heavier than the bound);
            // leave the partition as balanced as it can get.
            return;
        }
    }
}

/// Project a coarse-level partition back onto the fine level: every fine vertex takes the
/// part of the coarse vertex it was contracted into.
pub fn project(fine_to_coarse: &[u64], coarse_parts: &[i32]) -> Vec<i32> {
    fine_to_coarse
        .iter()
        .map(|&c| coarse_parts[c as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_graph::csr_from_edges;

    fn ws() -> SweepWorkspace {
        SweepWorkspace::default()
    }

    #[test]
    fn refinement_reduces_the_cut_of_a_bad_partition() {
        // A path 0..20 with an alternating (worst-case) partition.
        let edges: Vec<_> = (0..19u64).map(|i| (i, i + 1)).collect();
        let g = WeightedGraph::from_csr(&csr_from_edges(20, &edges));
        let mut parts: Vec<i32> = (0..20).map(|v| v % 2).collect();
        let before = g.weighted_cut(&parts);
        greedy_refine(&g, &mut parts, 2, 12, 10, &mut ws());
        let after = g.weighted_cut(&parts);
        assert!(after < before, "{before} -> {after}");
        // Balance constraint respected.
        let weights = g.part_weights(&parts, 2);
        assert!(weights.iter().all(|&w| w <= 12), "{weights:?}");
    }

    #[test]
    fn refinement_is_a_no_op_on_an_optimal_partition() {
        let edges: Vec<_> = (0..9u64).map(|i| (i, i + 1)).collect();
        let g = WeightedGraph::from_csr(&csr_from_edges(10, &edges));
        let mut parts = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        greedy_refine(&g, &mut parts, 2, 6, 5, &mut ws());
        assert_eq!(g.weighted_cut(&parts), 1);
    }

    #[test]
    fn projection_maps_coarse_parts_to_fine_vertices() {
        let fine_to_coarse = vec![0, 0, 1, 1, 2];
        let coarse_parts = vec![5, 6, 7];
        assert_eq!(project(&fine_to_coarse, &coarse_parts), vec![5, 5, 6, 6, 7]);
    }

    #[test]
    fn refinement_handles_single_part_gracefully() {
        let edges: Vec<_> = (0..5u64).map(|i| (i, i + 1)).collect();
        let g = WeightedGraph::from_csr(&csr_from_edges(6, &edges));
        let mut parts = vec![0; 6];
        greedy_refine(&g, &mut parts, 1, 100, 3, &mut ws());
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn rebalance_drains_overweight_parts() {
        let edges: Vec<_> = (0..15u64).map(|i| (i, i + 1)).collect();
        let g = WeightedGraph::from_csr(&csr_from_edges(16, &edges));
        let mut parts = vec![0i32; 16]; // everything in part 0
        rebalance(&g, &mut parts, 2, 9, &mut ws());
        let weights = g.part_weights(&parts, 2);
        assert!(weights.iter().all(|&w| w <= 9), "{weights:?}");
    }
}
