//! Weighted graphs for the multilevel baselines.
//!
//! Coarsening merges vertices, so every level below the input carries vertex weights
//! (how many original vertices a coarse vertex represents) and edge weights (how many
//! original edges a coarse edge represents). The multilevel partitioners (the METIS-like
//! and KaHIP-like baselines) work exclusively on this representation; the input [`Csr`]
//! is converted to a unit-weighted instance at level 0.

use xtrapulp_graph::Csr;

/// A vertex- and edge-weighted undirected graph in CSR form.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// CSR offsets (length `n + 1`).
    pub offsets: Vec<u64>,
    /// Neighbour ids.
    pub adjacency: Vec<u64>,
    /// Weight of each adjacency entry (same length as `adjacency`).
    pub edge_weights: Vec<u64>,
    /// Weight of each vertex (length `n`).
    pub vertex_weights: Vec<u64>,
}

impl WeightedGraph {
    /// Convert an unweighted [`Csr`] into a unit-weighted instance.
    pub fn from_csr(csr: &Csr) -> Self {
        WeightedGraph {
            offsets: csr.offsets().to_vec(),
            adjacency: csr.adjacency().to_vec(),
            edge_weights: vec![1; csr.adjacency().len()],
            vertex_weights: vec![1; csr.num_vertices()],
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Total vertex weight (equals the number of original vertices at every level).
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weights.iter().sum()
    }

    /// Neighbours of `v` with their edge weights.
    pub fn neighbors(&self, v: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        self.adjacency[start..end]
            .iter()
            .copied()
            .zip(self.edge_weights[start..end].iter().copied())
    }

    /// Number of adjacency entries (2x the undirected edge count).
    pub fn num_arcs(&self) -> usize {
        self.adjacency.len()
    }

    /// Build a weighted graph from an arc list with weights, merging parallel arcs.
    /// `arcs` holds `(u, v, w)` entries; both directions must be present.
    pub fn from_weighted_arcs(
        num_vertices: usize,
        mut arcs: Vec<(u64, u64, u64)>,
        vertex_weights: Vec<u64>,
    ) -> Self {
        assert_eq!(vertex_weights.len(), num_vertices);
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        // Merge parallel arcs by summing weights.
        let mut merged: Vec<(u64, u64, u64)> = Vec::with_capacity(arcs.len());
        for (u, v, w) in arcs {
            if let Some(last) = merged.last_mut() {
                if last.0 == u && last.1 == v {
                    last.2 += w;
                    continue;
                }
            }
            merged.push((u, v, w));
        }
        let mut offsets = vec![0u64; num_vertices + 1];
        for &(u, _, _) in &merged {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let adjacency: Vec<u64> = merged.iter().map(|&(_, v, _)| v).collect();
        let edge_weights: Vec<u64> = merged.iter().map(|&(_, _, w)| w).collect();
        WeightedGraph {
            offsets,
            adjacency,
            edge_weights,
            vertex_weights,
        }
    }

    /// Weighted edge cut of a partition (each cut edge counted once, by weight).
    pub fn weighted_cut(&self, parts: &[i32]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.num_vertices() as u64 {
            for (u, w) in self.neighbors(v) {
                if parts[v as usize] != parts[u as usize] && v < u {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Vertex weight per part.
    pub fn part_weights(&self, parts: &[i32], num_parts: usize) -> Vec<u64> {
        let mut weights = vec![0u64; num_parts];
        for v in 0..self.num_vertices() {
            weights[parts[v] as usize] += self.vertex_weights[v];
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_graph::csr_from_edges;

    #[test]
    fn from_csr_has_unit_weights() {
        let csr = csr_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g = WeightedGraph::from_csr(&csr);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.total_vertex_weight(), 4);
        assert_eq!(g.neighbors(1).map(|(_, w)| w).sum::<u64>(), 2);
        assert_eq!(g.num_arcs(), 6);
    }

    #[test]
    fn weighted_arc_merging() {
        let arcs = vec![(0, 1, 2), (1, 0, 2), (0, 1, 3), (1, 0, 3)];
        let g = WeightedGraph::from_weighted_arcs(2, arcs, vec![5, 7]);
        assert_eq!(g.neighbors(0).map(|(_, w)| w).sum::<u64>(), 5);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 5)]);
        assert_eq!(g.total_vertex_weight(), 12);
    }

    #[test]
    fn cut_and_part_weights() {
        let csr = csr_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g = WeightedGraph::from_csr(&csr);
        let parts = vec![0, 0, 1, 1];
        assert_eq!(g.weighted_cut(&parts), 1);
        assert_eq!(g.part_weights(&parts, 2), vec![2, 2]);
    }
}
