//! Partition quality metrics.
//!
//! The paper evaluates partitions with two architecture-independent metrics: the **edge
//! cut ratio** (cut edges divided by total edges) and the **scaled max cut ratio** (the
//! largest per-part cut divided by the average number of edges per part), plus the vertex
//! and edge balance constraints. §V-B additionally aggregates results across a test suite
//! with geometric-mean "performance ratios". This module computes all of them, both from
//! a global [`Csr`] + part vector and collectively from a [`DistGraph`], and every one
//! of them from a partition's [`PartCounts`]: each part's vertices, arcs and cut arcs.
//! One counter serves both evaluations, and the partitioner's passes too:
//! `pass::count_loads` counts those loads over the vertices a graph owns, and the
//! distributed evaluation sums them over the ranks. A caller that keeps a partition
//! across graph mutations keeps its counts beside it instead of counting again: a
//! delta's arcs patch them ([`PartCounts::apply_delta`]), and a warm job handed them
//! patches them by the labels it changes and returns the result's
//! ([`JobOutcome::counts`](crate::JobOutcome::counts)).

use serde::{Deserialize, Serialize};
use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{Csr, DistGraph, GraphDelta, UNASSIGNED};

use crate::pass::count_loads;

/// Quality summary of one partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionQuality {
    /// Number of parts.
    pub num_parts: usize,
    /// Number of cut (inter-part) undirected edges.
    pub edge_cut: u64,
    /// `edge_cut / total_edges`; the paper's primary quality metric (lower is better).
    pub edge_cut_ratio: f64,
    /// Largest number of cut edges incident to any single part.
    pub max_part_cut: u64,
    /// `max_part_cut / (m / p)`; the paper's second objective (lower is better).
    pub scaled_max_cut_ratio: f64,
    /// `max_k |V(k)| / (n / p)`; 1.0 is perfect balance, the constraint allows
    /// `1 + vertex_imbalance`.
    pub vertex_imbalance: f64,
    /// `max_k degree_sum(k) / (2m / p)`; the edge-balance constraint measure.
    pub edge_imbalance: f64,
}

impl PartitionQuality {
    /// Evaluate a partition of an in-memory graph. `parts[v]` must be a valid part id in
    /// `0..num_parts` for every vertex.
    pub fn evaluate(csr: &Csr, parts: &[i32], num_parts: usize) -> PartitionQuality {
        assert_eq!(
            parts.len(),
            csr.num_vertices(),
            "one part id per vertex required"
        );
        assert!(num_parts >= 1);
        for (v, &pv) in parts.iter().enumerate() {
            assert!(
                pv >= 0 && (pv as usize) < num_parts,
                "vertex {v} has invalid part {pv}"
            );
        }
        let (n, m) = (csr.num_vertices() as u64, csr.num_edges());
        PartCounts::of(csr, parts, num_parts).quality(n, m)
    }

    /// Evaluate a partition of a distributed graph collectively. `parts` covers owned +
    /// ghost vertices of this rank; every rank receives the same (global) result.
    pub fn evaluate_dist(
        ctx: &RankCtx,
        graph: &DistGraph,
        parts: &[i32],
        num_parts: usize,
    ) -> PartitionQuality {
        assert!(parts.len() >= graph.n_total());
        assert!(is_valid_partition(&parts[..graph.n_owned()], num_parts));
        let counts = PartCounts::of_dist(ctx, graph, parts, num_parts).0;
        counts.quality(graph.global_n(), graph.global_m())
    }
}

/// A partition's exact counts, in one vector: the cut arcs first — each cut edge is two,
/// one from each endpoint's part — then the vertices, arcs and cut arcs of each part, one
/// `num_parts`-long block each (a part's cut arcs are the cut edges incident to it). An
/// unassigned vertex ([`UNASSIGNED`]) counts in no part, and an arc to one is cut.
///
/// [`PartitionQuality`] is a function of them and the graph's size
/// ([`quality`](PartCounts::quality)). A caller that keeps a partition across graph
/// mutations keeps its counts beside it: [`apply_delta`](PartCounts::apply_delta) books
/// a delta, and [`run_xtrapulp_job`](crate::run_xtrapulp_job) takes a warm seed's and
/// returns the result's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartCounts(Vec<i64>);

impl PartCounts {
    /// The counts of `parts` over the whole graph `csr`.
    pub fn of(csr: &Csr, parts: &[i32], num_parts: usize) -> PartCounts {
        let mut loads = vec![0i64; 3 * num_parts];
        count_loads(csr, parts, num_parts, 3, &mut loads);
        PartCounts::from_loads(&loads)
    }

    /// The counts of a distributed partition — the three load blocks summed over the
    /// ranks in one allreduce — and the arcs this rank read counting them. `parts`
    /// covers owned + ghost vertices of this rank. Must be called collectively.
    pub(crate) fn of_dist(
        ctx: &RankCtx,
        graph: &DistGraph,
        parts: &[i32],
        num_parts: usize,
    ) -> (PartCounts, u64) {
        let mut loads = vec![0i64; 3 * num_parts];
        let arcs = count_loads(graph, parts, num_parts, 3, &mut loads);
        (PartCounts::from_loads(&ctx.allreduce_sum_i64(&loads)), arcs)
    }

    /// The counts whose three load blocks are `loads`; the cut is the cut block's sum.
    pub(crate) fn from_loads(loads: &[i64]) -> PartCounts {
        let cut_arcs = loads[2 * loads.len() / 3..].iter().sum::<i64>();
        PartCounts(
            std::iter::once(cut_arcs)
                .chain(loads.iter().copied())
                .collect(),
        )
    }

    /// The three load blocks: vertices, arcs and cut arcs, `num_parts` slots each.
    pub(crate) fn loads(&self) -> &[i64] {
        &self.0[1..]
    }

    /// The counts with `patch`, a change in the same layout, added slot by slot.
    pub(crate) fn patched(&self, patch: &PartCounts) -> PartCounts {
        PartCounts(self.0.iter().zip(&patch.0).map(|(c, d)| c + d).collect())
    }

    /// The part count the counts are blocked by.
    pub fn num_parts(&self) -> usize {
        self.0.len() / 3
    }

    /// The quality of these counts' partition of a graph of `n` vertices and `m` edges.
    pub fn quality(&self, n: u64, m: u64) -> PartitionQuality {
        let num_parts = self.num_parts();
        let counts = &self.0;
        let cut = counts[0] as u64 / 2;
        // The largest count of block `load`: 0 vertices, 1 arcs, 2 cut arcs.
        let max = |load: usize| {
            let block = &counts[1 + load * num_parts..][..num_parts];
            block.iter().copied().max().unwrap_or(0) as u64
        };
        let p = num_parts as f64;
        let max_part_cut = max(2);
        let avg_edges_per_part = (m as f64 / p).max(1.0);
        let avg_vertices_per_part = (n as f64 / p).max(1.0);
        let avg_arcs_per_part = (2.0 * m as f64 / p).max(1.0);
        PartitionQuality {
            num_parts,
            edge_cut: cut,
            edge_cut_ratio: if m == 0 { 0.0 } else { cut as f64 / m as f64 },
            max_part_cut,
            scaled_max_cut_ratio: max_part_cut as f64 / avg_edges_per_part,
            vertex_imbalance: max(0) as f64 / avg_vertices_per_part,
            edge_imbalance: max(1) as f64 / avg_arcs_per_part,
        }
    }

    /// Book `delta` into the counts of `parts`, the labels the graph's vertices keep
    /// across it (indexed by global id; a vertex past its end, like one the delta adds,
    /// is unassigned). Each inserted arc adds to its source part's arcs, and to its cut
    /// arcs when the target's label differs; each deleted arc takes the same away. A
    /// delta's deletions must name edges the graph has and its insertions edges it
    /// lacks, as `xtrapulp-api`'s `DynamicSession` checks before applying one.
    pub fn apply_delta(&mut self, parts: &[i32], delta: &GraphDelta) {
        let p = self.num_parts();
        let part = |v: u64| parts.get(v as usize).copied().unwrap_or(UNASSIGNED);
        let arcs = delta.insert_arcs().iter().map(|&arc| (arc, 1));
        for ((u, v), sign) in arcs.chain(delta.delete_arcs().iter().map(|&arc| (arc, -1))) {
            let pu = part(u);
            if pu == UNASSIGNED {
                continue;
            }
            self.0[1 + p + pu as usize] += sign;
            if part(v) != pu {
                self.0[1 + 2 * p + pu as usize] += sign;
                self.0[0] += sign;
            }
        }
    }
}

/// Check that a part vector is a valid assignment into `0..num_parts`.
pub fn is_valid_partition(parts: &[i32], num_parts: usize) -> bool {
    parts.iter().all(|&p| p >= 0 && (p as usize) < num_parts)
}

/// Geometric mean of a slice of positive values (used for the paper's "performance
/// ratio" aggregation). Returns 1.0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// The paper's performance-ratio aggregation: for each test, each method's metric is
/// divided by the best (smallest) metric achieved on that test; the ratios are then
/// combined with a geometric mean per method. A value of 1.0 means the method was best on
/// every test.
///
/// `results[test][method]` holds the metric of `method` on `test`. Tests where a method
/// has no result (`None`, e.g. ParMETIS running out of memory) are skipped for that
/// method.
pub fn performance_ratios(results: &[Vec<Option<f64>>], num_methods: usize) -> Vec<f64> {
    let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); num_methods];
    for test in results {
        assert_eq!(test.len(), num_methods);
        let best = test.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            continue;
        }
        for (m, value) in test.iter().enumerate() {
            if let Some(v) = value {
                // Guard against zero cuts: ratio of equal zeros is 1.
                let ratio = if best <= 0.0 {
                    if *v <= 0.0 {
                        1.0
                    } else {
                        // Any positive value against a zero best: use the value itself +1
                        // to keep the ratio finite but penalising.
                        1.0 + *v
                    }
                } else {
                    v / best
                };
                per_method[m].push(ratio);
            }
        }
    }
    per_method.iter().map(|r| geometric_mean(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_graph::{csr_from_edges, LocalId};

    /// Two triangles joined by a bridge; the natural 2-partition cuts one edge.
    fn two_triangles() -> Csr {
        csr_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    }

    #[test]
    fn perfect_two_way_cut() {
        let csr = two_triangles();
        let parts = vec![0, 0, 0, 1, 1, 1];
        let q = PartitionQuality::evaluate(&csr, &parts, 2);
        assert_eq!(q.edge_cut, 1);
        assert!((q.edge_cut_ratio - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(q.max_part_cut, 1);
        assert!((q.vertex_imbalance - 1.0).abs() < 1e-12);
        // Each part has 7 arcs (degree sum); average is 7 -> imbalance 1.0.
        assert!((q.edge_imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_part_has_zero_cut() {
        let csr = two_triangles();
        let parts = vec![0; 6];
        let q = PartitionQuality::evaluate(&csr, &parts, 1);
        assert_eq!(q.edge_cut, 0);
        assert_eq!(q.edge_cut_ratio, 0.0);
        assert_eq!(q.max_part_cut, 0);
    }

    #[test]
    fn fully_scattered_partition_cuts_everything() {
        let csr = two_triangles();
        let parts = vec![0, 1, 2, 3, 4, 5];
        let q = PartitionQuality::evaluate(&csr, &parts, 6);
        assert_eq!(q.edge_cut, 7);
        assert!((q.edge_cut_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalanced_partition_is_detected() {
        let csr = two_triangles();
        let parts = vec![0, 0, 0, 0, 0, 1];
        let q = PartitionQuality::evaluate(&csr, &parts, 2);
        assert!((q.vertex_imbalance - 5.0 / 3.0).abs() < 1e-12);
        assert!(q.edge_imbalance > 1.5);
    }

    #[test]
    #[should_panic(expected = "invalid part")]
    fn out_of_range_part_panics() {
        let csr = two_triangles();
        let parts = vec![0, 0, 0, 1, 1, 7];
        PartitionQuality::evaluate(&csr, &parts, 2);
    }

    #[test]
    fn distributed_and_serial_evaluation_agree() {
        use xtrapulp_comm::Runtime;
        use xtrapulp_graph::Distribution;
        let edges = vec![(0u64, 1u64), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
        let csr = csr_from_edges(6, &edges);
        let global_parts = vec![0, 0, 1, 1, 0, 1];
        let serial = PartitionQuality::evaluate(&csr, &global_parts, 2);
        let out = Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 6, &edges);
            let parts: Vec<i32> = (0..g.n_total() as LocalId)
                .map(|v| global_parts[g.global_id(v) as usize])
                .collect();
            PartitionQuality::evaluate_dist(ctx, &g, &parts, 2)
        });
        for q in out {
            assert_eq!(q.edge_cut, serial.edge_cut);
            assert!((q.edge_cut_ratio - serial.edge_cut_ratio).abs() < 1e-12);
            assert_eq!(q.max_part_cut, serial.max_part_cut);
            assert!((q.vertex_imbalance - serial.vertex_imbalance).abs() < 1e-12);
            assert!((q.edge_imbalance - serial.edge_imbalance).abs() < 1e-12);
        }
    }

    #[test]
    fn counts_book_a_delta_as_a_recount_would() {
        use xtrapulp_graph::GraphDelta;
        let csr = two_triangles();
        let mut parts = vec![0, 0, 1, 1, 1, 0];
        let mut counts = PartCounts::of(&csr, &parts, 2);
        assert_eq!(
            counts.quality(6, 7),
            PartitionQuality::evaluate(&csr, &parts, 2)
        );
        // Drop the bridge and an in-part edge, add one across and a vertex joined to 0.
        let delta = GraphDelta::new(6, 1, &[(0, 3), (6, 0)], &[(2, 3), (3, 4)]);
        parts.push(UNASSIGNED);
        counts.apply_delta(&parts, &delta);
        let grown = csr.apply_delta(&delta);
        assert_eq!(counts, PartCounts::of(&grown, &parts, 2));
        // The new vertex counts nowhere, and its arc from vertex 0 is cut.
        assert_eq!(counts.loads()[..2].iter().sum::<i64>(), 6);
    }

    #[test]
    fn partition_validity_check() {
        assert!(is_valid_partition(&[0, 1, 2], 3));
        assert!(!is_valid_partition(&[0, -1, 2], 3));
        assert!(!is_valid_partition(&[0, 3], 3));
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn performance_ratio_aggregation() {
        // Two tests, two methods. Method 0 is best on both.
        let results = vec![vec![Some(10.0), Some(20.0)], vec![Some(5.0), Some(5.0)]];
        let ratios = performance_ratios(&results, 2);
        assert!((ratios[0] - 1.0).abs() < 1e-12);
        assert!((ratios[1] - (2.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn performance_ratio_skips_missing_results() {
        let results = vec![vec![Some(10.0), None], vec![Some(4.0), Some(8.0)]];
        let ratios = performance_ratios(&results, 2);
        assert!((ratios[0] - 1.0).abs() < 1e-12);
        assert!((ratios[1] - 2.0).abs() < 1e-12);
    }
}
