//! Initial partitioning of the coarsest graph.
//!
//! Once coarsening has shrunk the graph to a few hundred (weighted) vertices, a direct
//! k-way partition is computed with greedy graph growing: parts are grown one at a time
//! from a pseudo-peripheral seed, always absorbing the boundary vertex with the largest
//! connection to the growing part, until the part reaches its share of the total vertex
//! weight.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::weighted::WeightedGraph;

/// Greedy graph-growing k-way initial partition.
pub fn greedy_growing(graph: &WeightedGraph, num_parts: usize, seed: u64) -> Vec<i32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    if num_parts <= 1 {
        return vec![0; n];
    }
    let total_weight = graph.total_vertex_weight();
    let target = (total_weight as f64 / num_parts as f64).ceil();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut parts = vec![-1i32; n];
    let mut assigned_weight = 0u64;

    for part in 0..num_parts as i32 {
        // The final part absorbs every remaining vertex.
        if part as usize == num_parts - 1 {
            for slot in parts.iter_mut() {
                if *slot == -1 {
                    *slot = part;
                }
            }
            break;
        }
        // Seed with an unassigned vertex (random probe, falling back to a scan).
        let mut seed_vertex = None;
        for _ in 0..32 {
            let v = rng.gen_range(0..n);
            if parts[v] == -1 {
                seed_vertex = Some(v as u64);
                break;
            }
        }
        let seed_vertex =
            match seed_vertex.or_else(|| (0..n as u64).find(|&v| parts[v as usize] == -1)) {
                Some(v) => v,
                None => break,
            };

        let mut part_weight = 0u64;
        // connection[v] = total edge weight from v into the growing part.
        let mut connection = vec![0u64; n];
        let mut in_frontier = vec![false; n];
        let mut frontier: Vec<u64> = vec![seed_vertex];
        in_frontier[seed_vertex as usize] = true;

        while (part_weight as f64) < target {
            // Pick the frontier vertex with maximum connection to the part (the seed has
            // connection 0 and is picked first).
            let Some((idx, &v)) = frontier
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| connection[v as usize])
            else {
                break;
            };
            frontier.swap_remove(idx);
            if parts[v as usize] != -1 {
                continue;
            }
            parts[v as usize] = part;
            part_weight += graph.vertex_weights[v as usize];
            assigned_weight += graph.vertex_weights[v as usize];
            for (u, w) in graph.neighbors(v) {
                if parts[u as usize] == -1 {
                    connection[u as usize] += w;
                    if !in_frontier[u as usize] {
                        in_frontier[u as usize] = true;
                        frontier.push(u);
                    }
                }
            }
        }
    }
    // Safety net: any still-unassigned vertex joins the lightest part.
    let mut weights = graph.part_weights(
        &parts.iter().map(|&p| p.max(0)).collect::<Vec<_>>(),
        num_parts,
    );
    for (v, slot) in parts.iter_mut().enumerate() {
        if *slot == -1 {
            let lightest = (0..num_parts).min_by_key(|&i| weights[i]).unwrap_or(0);
            *slot = lightest as i32;
            weights[lightest] += graph.vertex_weights[v];
        }
    }
    let _ = assigned_weight;
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_graph::csr_from_edges;

    fn grid(w: u64, h: u64) -> WeightedGraph {
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
        WeightedGraph::from_csr(&csr_from_edges(w * h, &e))
    }

    #[test]
    fn growing_produces_valid_balanced_parts() {
        let g = grid(12, 12);
        let parts = greedy_growing(&g, 4, 3);
        assert_eq!(parts.len(), 144);
        assert!(parts.iter().all(|&p| (0..4).contains(&p)));
        let weights = g.part_weights(&parts, 4);
        let max = *weights.iter().max().unwrap() as f64;
        assert!(max / 36.0 < 1.5, "weights {weights:?}");
    }

    #[test]
    fn growing_respects_connectivity_for_two_parts() {
        let g = grid(10, 10);
        let parts = greedy_growing(&g, 2, 1);
        let cut = g.weighted_cut(&parts);
        // A greedy bisection of a 10x10 grid should cut far fewer edges than random
        // (random expectation is half of 180 edges).
        assert!(cut < 60, "cut {cut}");
    }

    #[test]
    fn single_part_and_empty_graph() {
        let g = grid(3, 3);
        assert!(greedy_growing(&g, 1, 0).iter().all(|&p| p == 0));
        let empty = WeightedGraph::from_csr(&csr_from_edges(0, &[]));
        assert!(greedy_growing(&empty, 4, 0).is_empty());
    }

    #[test]
    fn weighted_vertices_are_balanced_by_weight() {
        // Two heavy vertices and many light ones.
        let csr = csr_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut g = WeightedGraph::from_csr(&csr);
        g.vertex_weights = vec![10, 1, 1, 1, 1, 10];
        let parts = greedy_growing(&g, 2, 5);
        let weights = g.part_weights(&parts, 2);
        assert!(weights.iter().all(|&w| w <= 16), "{weights:?}");
    }
}
