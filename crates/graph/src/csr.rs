//! In-memory compressed sparse row graph and its builder.

use serde::{Deserialize, Serialize};

use crate::GlobalId;

/// An undirected graph in compressed sparse row form.
///
/// Vertices are `0..num_vertices()`. The adjacency of vertex `v` is the slice
/// `adjacency[offsets[v]..offsets[v+1]]`. Every undirected edge `{u, v}` is stored twice
/// (once per endpoint), matching the paper's convention of treating all edges as
/// undirected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u64>,
    adjacency: Vec<GlobalId>,
}

impl Csr {
    /// Build a CSR directly from pre-validated offsets and adjacency arrays.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotonically non-decreasing, do not start at zero,
    /// or do not end at `adjacency.len()`.
    pub fn from_parts(offsets: Vec<u64>, adjacency: Vec<GlobalId>) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least one entry"
        );
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert!(
            offsets.last().copied() == Some(adjacency.len() as u64),
            "offsets must end at the adjacency length"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() as u64 - 1;
        assert!(
            adjacency.iter().all(|&u| u < n),
            "adjacency refers to a vertex outside 0..n"
        );
        Csr { offsets, adjacency }
    }

    /// Assemble the `n`-vertex graph whose arcs are `rows`, in which each vertex's arcs
    /// `(u, v)` come ascending in `v`; rows may come in any order. The owned rows of
    /// every rank's [`DistGraph`](crate::DistGraph)
    /// ([`DistGraph::owned_arcs`](crate::DistGraph::owned_arcs)), chained in any rank
    /// order, are such a stream, and so are sorted arcs. Two passes: one counts degrees,
    /// one places arcs. Every arc must lie in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if an arc's source is outside `0..n`; debug builds also check its target.
    pub fn from_rows(n: u64, rows: impl Iterator<Item = (GlobalId, GlobalId)> + Clone) -> Csr {
        let (offsets, adjacency) = place_rows(
            n as usize,
            rows.map(|(u, v)| {
                debug_assert!(v < n, "arc target {v} is outside 0..{n}");
                (u as usize, v)
            }),
        );
        Csr { offsets, adjacency }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (half the number of stored directed arcs).
    pub fn num_edges(&self) -> u64 {
        self.adjacency.len() as u64 / 2
    }

    /// Number of stored directed arcs (twice the undirected edge count).
    pub fn num_arcs(&self) -> u64 {
        self.adjacency.len() as u64
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: GlobalId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbours of vertex `v`.
    pub fn neighbors(&self, v: GlobalId) -> &[GlobalId] {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.adjacency[start..end]
    }

    /// The raw offset array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw adjacency array.
    pub fn adjacency(&self) -> &[GlobalId] {
        &self.adjacency
    }

    /// Iterate over all directed arcs `(u, v)`; each undirected edge appears twice.
    pub fn arcs(&self) -> impl Iterator<Item = (GlobalId, GlobalId)> + '_ {
        (0..self.num_vertices() as u64)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterate over each undirected edge exactly once (as `(u, v)` with `u <= v`).
    pub fn edges(&self) -> impl Iterator<Item = (GlobalId, GlobalId)> + '_ {
        self.arcs().filter(|&(u, v)| u <= v)
    }

    /// Maximum vertex degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> u64 {
        (0..self.num_vertices() as u64)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average vertex degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adjacency.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Apply a [`GraphDelta`](crate::delta::GraphDelta), producing the updated graph.
    ///
    /// One pass beside the delta's row cursor
    /// ([`GraphDelta::rows`](crate::delta::GraphDelta::rows)): every run of rows the delta
    /// does not name is *copied* — its adjacency with one `extend_from_slice`, its offsets
    /// rebased by a constant — and only the rows it names are *merged* with their sorted
    /// insert and delete arcs, bisecting for each neighbour the delta names. Nothing is
    /// hashed or re-sorted, so the cost is a copy of the `2m` arcs and `n` offsets plus a
    /// bisection per named arc.
    /// Inserting an edge that already exists and deleting one that does not are both
    /// no-ops, matching the forgiving [`csr_from_edges`] semantics.
    ///
    /// # Panics
    ///
    /// Panics if the delta was normalised against a different vertex count.
    pub fn apply_delta(&self, delta: &crate::delta::GraphDelta) -> Csr {
        use crate::delta::{merge_row, patch_rows, Merged};
        assert_eq!(
            delta.base_n(),
            self.num_vertices() as u64,
            "delta was built against a graph with {} vertices, this graph has {}",
            delta.base_n(),
            self.num_vertices()
        );
        let rows = delta.rows().map(|(u, ins, del)| (u as usize, (ins, del)));
        let (offsets, adjacency) = patch_rows(
            (&self.offsets, &self.adjacency),
            (
                delta.new_n() as usize,
                self.adjacency.len() + delta.insert_arcs().len(),
            ),
            rows,
            |run, adjacency| adjacency.extend_from_slice(run),
            |u, (inserts, deletes), adjacency| {
                let old = if u < self.num_vertices() {
                    self.neighbors(u as GlobalId)
                } else {
                    &[]
                };
                merge_row(
                    old,
                    |v| v,
                    inserts,
                    deletes,
                    |merged| match merged {
                        Merged::Kept(run) => adjacency.extend_from_slice(run),
                        Merged::Inserted(v) => adjacency.push(v),
                        Merged::Dropped(_) => {}
                    },
                );
            },
        );
        Csr { offsets, adjacency }
    }
}

/// Build a CSR from a plain undirected edge list over `n` vertices, with no global sort:
/// the arcs are symmetrised on the fly and placed by source row, then each row is
/// normalised on its own. The list may be as messy as real edge lists are — duplicate
/// edges, self loops, both directions present, endpoints out of range — and the graph
/// is always simple and symmetric, which is what the partitioning algorithms assume.
pub fn csr_from_edges(n: u64, edges: &[(GlobalId, GlobalId)]) -> Csr {
    let arcs = edges
        .iter()
        .filter(move |&&(u, v)| u < n && v < n && u != v)
        .flat_map(|&(u, v)| [(u, v), (v, u)]);
    let mut csr = Csr::from_rows(n, arcs);
    normalise_rows(&mut csr.offsets, &mut csr.adjacency);
    csr
}

/// Counting placement of `arcs` keyed by row in `0..rows`: row `r`'s targets end up in
/// `adjacency[offsets[r]..offsets[r + 1]]`, in stream order. Two passes over `arcs`: one
/// counts, one places. A row outside `0..rows` panics.
pub(crate) fn place_rows(
    rows: usize,
    arcs: impl Iterator<Item = (usize, GlobalId)> + Clone,
) -> (Vec<u64>, Vec<GlobalId>) {
    // `for_each` rather than `for`: a `flat_map`ped stream then runs as nested loops.
    let mut offsets = vec![0u64; rows + 1];
    arcs.clone().for_each(|(r, _)| offsets[r + 1] += 1);
    for r in 0..rows {
        offsets[r + 1] += offsets[r];
    }
    let mut next = offsets[..rows].to_vec();
    let mut adjacency = vec![0; offsets[rows] as usize];
    arcs.for_each(|(r, v)| {
        adjacency[next[r] as usize] = v;
        next[r] += 1;
    });
    (offsets, adjacency)
}

/// Sort every row of a placed adjacency ascending and drop repeated targets within it,
/// compacting the rows to the front in place and rewriting `offsets` to match. The
/// adjacency ends at its exact length and capacity.
pub(crate) fn normalise_rows(offsets: &mut [u64], adjacency: &mut Vec<GlobalId>) {
    let mut kept = 0usize;
    let mut start = 0usize;
    for row_end in offsets.iter_mut().skip(1) {
        let end = *row_end as usize;
        adjacency[start..end].sort_unstable();
        let row_start = kept;
        for i in start..end {
            let v = adjacency[i];
            if kept == row_start || adjacency[kept - 1] != v {
                adjacency[kept] = v;
                kept += 1;
            }
        }
        *row_end = kept as u64;
        start = end;
    }
    adjacency.truncate(kept);
    adjacency.shrink_to_fit();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u64) -> Csr {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        csr_from_edges(n, &edges)
    }

    #[test]
    fn empty_graph() {
        let g = csr_from_edges(5, &[]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = csr_from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn path_graph_structure() {
        let g = path_graph(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn duplicate_and_reverse_edges_are_merged() {
        let g = csr_from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = csr_from_edges(3, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn out_of_range_edges_are_dropped() {
        let g = csr_from_edges(3, &[(0, 1), (0, 7), (9, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn arcs_and_edges_iterators_agree() {
        let g = csr_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        assert_eq!(g.arcs().count() as u64, g.num_arcs());
        assert_eq!(g.edges().count() as u64, g.num_edges());
        for (u, v) in g.edges() {
            assert!(u <= v);
            assert!(g.neighbors(u).contains(&v));
            assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn from_parts_round_trip() {
        let g = path_graph(4);
        let g2 = Csr::from_parts(g.offsets().to_vec(), g.adjacency().to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_parts_rejects_bad_offsets() {
        Csr::from_parts(vec![0, 3, 2, 4], vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn from_parts_rejects_bad_adjacency() {
        Csr::from_parts(vec![0, 1], vec![7]);
    }

    #[test]
    fn apply_delta_matches_rebuild_from_scratch() {
        use crate::delta::GraphDelta;
        let g = csr_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        // Delete two edges, insert two (one to a new vertex), grow by two vertices.
        let delta = GraphDelta::new(6, 2, &[(0, 3), (6, 1)], &[(1, 2), (4, 5)]);
        let updated = g.apply_delta(&delta);
        let expected = csr_from_edges(8, &[(0, 1), (2, 3), (3, 4), (5, 0), (0, 3), (6, 1)]);
        assert_eq!(updated, expected);
        assert_eq!(updated.num_vertices(), 8);
        assert_eq!(updated.degree(7), 0); // second added vertex is isolated
    }

    #[test]
    fn apply_delta_is_forgiving_about_duplicates_and_missing_edges() {
        use crate::delta::GraphDelta;
        let g = path_graph(4);
        // Insert an existing edge, delete a non-existent one: both are no-ops.
        let delta = GraphDelta::new(4, 0, &[(0, 1)], &[(0, 3)]);
        assert_eq!(g.apply_delta(&delta), g);
    }

    #[test]
    fn empty_delta_is_identity() {
        use crate::delta::GraphDelta;
        let g = path_graph(5);
        assert_eq!(g.apply_delta(&GraphDelta::new(5, 0, &[], &[])), g);
    }

    #[test]
    #[should_panic(expected = "delta was built against")]
    fn apply_delta_rejects_mismatched_base() {
        use crate::delta::GraphDelta;
        path_graph(5).apply_delta(&GraphDelta::new(4, 0, &[], &[]));
    }

    /// The builder's contract spelled out the slow way: every in-range edge that is not
    /// a self loop in both directions, sorted globally, duplicates removed.
    fn reference_build(n: u64, edges: &[(GlobalId, GlobalId)]) -> Csr {
        let mut arcs = Vec::new();
        for &(u, v) in edges {
            if u >= n || v >= n || u == v {
                continue;
            }
            arcs.push((u, v));
            arcs.push((v, u));
        }
        arcs.sort_unstable();
        arcs.dedup();
        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        Csr::from_parts(offsets, arcs.iter().map(|&(_, v)| v).collect())
    }

    #[test]
    fn build_matches_a_reference_sort_and_dedup() {
        let mut state = 0u64;
        let mut draw = |bound: u64| {
            state += 1;
            crate::distribution::splitmix64(state) % bound.max(1)
        };
        for case in 0..300 {
            // Case 0 has no vertices; small n and few edges leave vertices isolated.
            let n = if case == 0 { 0 } else { draw(40) };
            let mut edges: Vec<(GlobalId, GlobalId)> = Vec::new();
            for _ in 0..draw(120) {
                // Endpoints reach up to n + 2, so some are out of range.
                let u = draw(n + 3);
                let edge = match (draw(5), edges.last().copied()) {
                    (0, _) => (u, u),
                    (1, Some(e)) => e,
                    (2, Some((a, b))) => (b, a),
                    _ => (u, draw(n + 3)),
                };
                edges.push(edge);
            }
            let built = csr_from_edges(n, &edges);
            assert_eq!(built, reference_build(n, &edges), "case {case}");
            assert_eq!(built.adjacency.capacity(), built.adjacency.len());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside 0..3")]
    fn from_rows_rejects_an_out_of_range_target() {
        Csr::from_rows(3, [(0, 1), (1, 3)].into_iter());
    }

    #[test]
    fn star_graph_degrees() {
        let edges: Vec<_> = (1..10).map(|i| (0, i)).collect();
        let g = csr_from_edges(10, &edges);
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.max_degree(), 9);
        for v in 1..10 {
            assert_eq!(g.degree(v), 1);
            assert_eq!(g.neighbors(v), &[0]);
        }
    }
}
