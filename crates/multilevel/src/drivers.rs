//! The multilevel partitioner drivers.
//!
//! * [`metis_like`] — heavy-edge-matching coarsening + greedy-growing initial
//!   partition + boundary refinement at every level. This is the same algorithmic family
//!   as ParMETIS, which the paper uses as its traditional-partitioner baseline
//!   (Table II, Figs. 4 and 6); like ParMETIS it excels on meshes and struggles (or runs
//!   out of memory) on highly skewed graphs.
//! * [`lp_coarsen_kway`] — size-constrained label-propagation clustering as the
//!   coarsening step, as in the Meyerhenke-Sanders-Schulz partitioner the paper compares
//!   against in Fig. 6 (single constraint, single objective).

use xtrapulp::{
    greedy_seed_unassigned, validate_warm_start, PartitionError, PartitionParams, SweepWorkspace,
};
use xtrapulp_graph::Csr;

use crate::coarsen::{contract, heavy_edge_matching, label_prop_clustering, Coarsening};
use crate::initial::greedy_growing;
use crate::refine::{greedy_refine, project, rebalance};
use crate::weighted::WeightedGraph;

/// Which coarsening scheme a multilevel run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoarseningScheme {
    HeavyEdgeMatching,
    LabelPropClustering,
}

/// Shared multilevel machinery.
fn multilevel_partition(
    csr: &Csr,
    params: &PartitionParams,
    scheme: CoarseningScheme,
    refine_sweeps: usize,
) -> Vec<i32> {
    let coarsest_target = (params.num_parts * 30).max(200);
    // Every level finer than the coarsest, with the coarsening that contracted it.
    let mut levels: Vec<(WeightedGraph, Coarsening)> = Vec::new();
    let mut current = WeightedGraph::from_csr(csr);
    let total_weight = current.total_vertex_weight();
    let max_part_weight = ((1.0 + params.vertex_imbalance) * total_weight as f64
        / params.num_parts as f64)
        .ceil() as u64;

    // Coarsening loop: stop when the graph is small enough or shrinkage stalls.
    let mut level_seed = params.seed;
    while current.num_vertices() > coarsest_target {
        let coarsening = match scheme {
            CoarseningScheme::HeavyEdgeMatching => heavy_edge_matching(&current, level_seed),
            CoarseningScheme::LabelPropClustering => {
                // Cluster size is capped well below the part size so the initial
                // partition retains freedom.
                let cap = (max_part_weight / 8).max(2);
                label_prop_clustering(&current, cap, 3, level_seed)
            }
        };
        // Guard against stalls (e.g. star graphs where matching can only pair the hub
        // with one leaf per level): stop coarsening and partition the current level.
        if coarsening.num_coarse as f64 > current.num_vertices() as f64 * 0.95 {
            break;
        }
        let coarse = contract(&current, &coarsening);
        levels.push((current, coarsening));
        current = coarse;
        level_seed = level_seed.wrapping_add(1);
    }

    // Initial partition of the coarsest level. One sweep workspace serves the whole
    // V-cycle (and both passes per level), so no level allocates its own frontier,
    // weight or gain buffers.
    let mut ws = SweepWorkspace::default();
    let mut parts = greedy_growing(&current, params.num_parts, params.seed ^ 0xC0A53);
    rebalance(
        &current,
        &mut parts,
        params.num_parts,
        max_part_weight,
        &mut ws,
    );
    greedy_refine(
        &current,
        &mut parts,
        params.num_parts,
        max_part_weight,
        refine_sweeps,
        &mut ws,
    );

    // Uncoarsen: project the partition up one level at a time, restore balance (the
    // coarse level's vertex granularity can overshoot the bound), and refine.
    for (fine_graph, coarsening) in levels.iter().rev() {
        parts = project(&coarsening.fine_to_coarse, &parts);
        rebalance(
            fine_graph,
            &mut parts,
            params.num_parts,
            max_part_weight,
            &mut ws,
        );
        greedy_refine(
            fine_graph,
            &mut parts,
            params.num_parts,
            max_part_weight,
            refine_sweeps,
            &mut ws,
        );
    }
    parts
}

/// Warm-start path shared by both multilevel drivers: no V-cycle at all. The previous
/// part vector already encodes the multilevel structure, so repartitioning after a small
/// mutation only needs the finest-level machinery — greedy assignment of unassigned
/// (new) vertices, a rebalance pass and boundary refinement.
fn multilevel_partition_from(
    csr: &Csr,
    params: &PartitionParams,
    initial: &[i32],
    refine_sweeps: usize,
) -> Vec<i32> {
    let mut parts = initial.to_vec();
    greedy_seed_unassigned(csr, &mut parts, params.num_parts);
    let graph = WeightedGraph::from_csr(csr);
    let max_part_weight = ((1.0 + params.vertex_imbalance) * graph.total_vertex_weight() as f64
        / params.num_parts as f64)
        .ceil() as u64;
    let mut ws = SweepWorkspace::default();
    rebalance(
        &graph,
        &mut parts,
        params.num_parts,
        max_part_weight,
        &mut ws,
    );
    greedy_refine(
        &graph,
        &mut parts,
        params.num_parts,
        max_part_weight,
        refine_sweeps,
        &mut ws,
    );
    parts
}

/// Refinement sweeps per level of [`metis_like`].
const METIS_LIKE_REFINE_SWEEPS: usize = 4;

/// Refinement sweeps per level of [`lp_coarsen_kway`]: the original invests more work in
/// refinement than METIS does, trading time for quality.
const LP_COARSEN_KWAY_REFINE_SWEEPS: usize = 6;

/// METIS-family multilevel k-way partitioning (the ParMETIS stand-in): a full V-cycle
/// cold, or with `warm` (one previous part or [`UNASSIGNED`](xtrapulp_graph::UNASSIGNED)
/// per vertex) the refine-only pass over the finest level.
///
/// Returns `Err` on malformed parameters or a malformed warm-start vector; never panics
/// on bad input.
pub fn metis_like(
    csr: &Csr,
    params: &PartitionParams,
    warm: Option<&[i32]>,
) -> Result<Vec<i32>, PartitionError> {
    run(
        csr,
        params,
        warm,
        CoarseningScheme::HeavyEdgeMatching,
        METIS_LIKE_REFINE_SWEEPS,
    )
}

/// KaHIP-style multilevel partitioning with size-constrained label-propagation
/// coarsening (the Meyerhenke et al. stand-in for the Fig. 6 single-objective
/// comparison), cold or warm-started like [`metis_like`].
pub fn lp_coarsen_kway(
    csr: &Csr,
    params: &PartitionParams,
    warm: Option<&[i32]>,
) -> Result<Vec<i32>, PartitionError> {
    run(
        csr,
        params,
        warm,
        CoarseningScheme::LabelPropClustering,
        LP_COARSEN_KWAY_REFINE_SWEEPS,
    )
}

/// Validate the request, then run the V-cycle or, warm-started, the finest-level pass;
/// an empty graph or a single part needs neither.
fn run(
    csr: &Csr,
    params: &PartitionParams,
    warm: Option<&[i32]>,
    scheme: CoarseningScheme,
    refine_sweeps: usize,
) -> Result<Vec<i32>, PartitionError> {
    params.validate()?;
    let n = csr.num_vertices();
    if let Some(initial) = warm {
        validate_warm_start(n, params.num_parts, initial)?;
    }
    if n == 0 || params.num_parts <= 1 {
        return Ok(vec![0; n]);
    }
    Ok(match warm {
        None => multilevel_partition(csr, params, scheme, refine_sweeps),
        Some(initial) => multilevel_partition_from(csr, params, initial, refine_sweeps),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp::baselines::random_partition;
    use xtrapulp::metrics::{is_valid_partition, PartitionQuality};
    use xtrapulp_graph::csr_from_edges;

    fn grid_csr(w: u64, h: u64) -> Csr {
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
        csr_from_edges(w * h, &e)
    }

    #[test]
    fn metis_like_partitions_a_grid_well() {
        let csr = grid_csr(32, 32);
        let params = PartitionParams {
            num_parts: 8,
            seed: 3,
            ..Default::default()
        };
        let parts = metis_like(&csr, &params, None).unwrap();
        let q = PartitionQuality::evaluate(&csr, &parts, 8);
        assert!(is_valid_partition(&parts, 8));
        assert!(
            q.vertex_imbalance <= 1.15,
            "imbalance {}",
            q.vertex_imbalance
        );
        // A 32x32 grid cut 8 ways: a good partitioner cuts a small fraction of the 1984
        // edges; random would cut ~87%.
        assert!(q.edge_cut_ratio < 0.25, "cut ratio {}", q.edge_cut_ratio);
    }

    #[test]
    fn lp_coarsen_partitions_a_grid_well() {
        let csr = grid_csr(32, 32);
        let params = PartitionParams {
            num_parts: 4,
            seed: 9,
            ..Default::default()
        };
        let parts = lp_coarsen_kway(&csr, &params, None).unwrap();
        let q = PartitionQuality::evaluate(&csr, &parts, 4);
        assert!(is_valid_partition(&parts, 4));
        assert!(
            q.vertex_imbalance <= 1.25,
            "imbalance {}",
            q.vertex_imbalance
        );
        assert!(q.edge_cut_ratio < 0.2, "cut ratio {}", q.edge_cut_ratio);
    }

    #[test]
    fn multilevel_beats_random_on_small_world_graphs() {
        // Even on a small-world graph (where cuts are intrinsically high), multilevel
        // methods should beat random assignment.
        let el = xtrapulp_gen::GraphConfig::new(
            xtrapulp_gen::GraphKind::SmallWorld {
                num_vertices: 2000,
                k: 4,
                rewire_probability: 0.1,
            },
            7,
        )
        .generate();
        let csr = el.to_csr();
        let params = PartitionParams {
            num_parts: 8,
            seed: 1,
            ..Default::default()
        };
        let multilevel = metis_like(&csr, &params, None).unwrap();
        let q_ml = PartitionQuality::evaluate(&csr, &multilevel, 8);
        let random = random_partition(csr.num_vertices() as u64, 8, params.seed);
        let q_rand = PartitionQuality::evaluate(&csr, &random, 8);
        assert!(q_ml.edge_cut < q_rand.edge_cut);
        assert!(q_ml.vertex_imbalance < 1.2);
    }

    #[test]
    fn handles_tiny_graphs_and_single_part() {
        let csr = grid_csr(3, 3);
        let params = PartitionParams::with_parts(2);
        let parts = metis_like(&csr, &params, None).unwrap();
        assert!(is_valid_partition(&parts, 2));
        let parts = metis_like(&csr, &PartitionParams::with_parts(1), None).unwrap();
        assert!(parts.iter().all(|&p| p == 0));
        let empty = csr_from_edges(0, &[]);
        assert!(metis_like(&empty, &params, None).unwrap().is_empty());
    }

    #[test]
    fn warm_start_refines_without_a_v_cycle() {
        let csr = grid_csr(24, 24);
        let params = PartitionParams {
            num_parts: 4,
            seed: 6,
            ..Default::default()
        };
        type Driver =
            fn(&Csr, &PartitionParams, Option<&[i32]>) -> Result<Vec<i32>, PartitionError>;
        for (name, driver) in [
            ("MetisLike", metis_like as Driver),
            ("LpCoarsenKway", lp_coarsen_kway),
        ] {
            let cold = driver(&csr, &params, None).unwrap();
            let cold_q = PartitionQuality::evaluate(&csr, &cold, 4);
            // Unassign a small patch (simulating new vertices) and warm-start.
            let mut initial = cold.clone();
            for part in initial.iter_mut().take(12) {
                *part = xtrapulp_graph::UNASSIGNED;
            }
            let warm = driver(&csr, &params, Some(&initial)).unwrap();
            assert!(is_valid_partition(&warm, 4), "{name}");
            let warm_q = PartitionQuality::evaluate(&csr, &warm, 4);
            assert!(
                warm_q.edge_cut as f64 <= cold_q.edge_cut as f64 * 1.10,
                "{name}: warm cut {} vs cold {}",
                warm_q.edge_cut,
                cold_q.edge_cut
            );
            assert!(warm_q.vertex_imbalance <= 1.15, "{name}");
            // Bad warm vectors are typed errors.
            assert!(driver(&csr, &params, Some(&[0; 3])).is_err());
        }
    }

    #[test]
    fn multilevel_results_are_deterministic() {
        let csr = grid_csr(16, 16);
        let params = PartitionParams {
            num_parts: 4,
            seed: 42,
            ..Default::default()
        };
        let metis = || metis_like(&csr, &params, None).unwrap();
        assert_eq!(metis(), metis());
        let lp = || lp_coarsen_kway(&csr, &params, None).unwrap();
        assert_eq!(lp(), lp());
    }

    #[test]
    fn star_graph_does_not_stall_coarsening() {
        // A star cannot be matched effectively; the stall guard must terminate coarsening.
        let edges: Vec<_> = (1..500u64).map(|i| (0, i)).collect();
        let csr = csr_from_edges(500, &edges);
        let params = PartitionParams {
            num_parts: 4,
            seed: 2,
            ..Default::default()
        };
        let parts = metis_like(&csr, &params, None).unwrap();
        assert!(is_valid_partition(&parts, 4));
    }
}
