//! The shared-memory PuLP baseline (Slota, Madduri, Rajamanickam, IEEE BigData 2014).
//!
//! PuLP is the prior system XtraPuLP extends: a single-node, multi-constraint,
//! multi-objective partitioner built from weighted label propagation. The paper's
//! Cluster-1 comparisons (Table II, Figs. 3–4 and 6) all report PuLP numbers, so the
//! reproduction ships a faithful shared-memory implementation: the same three stages as
//! XtraPuLP, but with part sizes updated synchronously after every move (there is no
//! distributed staleness, hence no dynamic multiplier).
//!
//! The stage schedule itself, warm starts included, is XtraPuLP's: one driver
//! (`pass::run_schedule`) runs both, over a serial and a distributed backend, and the
//! refinement and edge-balance kernels are XtraPuLP's too. The synchronous part sizes
//! are the one thing they see differently: the serial backend's `Live` load view,
//! against the distributed backend's stale one. Only vertex balance keeps a kernel of
//! its own, without XtraPuLP's spill move.
//!
//! All four stages run on the shared sweep engine in [`crate::sweep`]: refinement
//! sweeps are frontier-driven (only vertices whose neighbourhood changed since the last
//! sweep are rescored) and run in two-phase chunks — proposals against the chunk-start
//! labels, then ordered application with a recheck — on the calling thread.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xtrapulp_comm::PhaseTimer;
use xtrapulp_graph::{Csr, GlobalId, UNASSIGNED};

use crate::error::PartitionError;
use crate::params::{InitStrategy, PartitionParams};
use crate::partitioner::validate_warm_start;
use crate::pass::{run_schedule, Serial, WarmStart};
use crate::sweep::{SweepStats, SweepWorkspace};

/// Run the PuLP-MM algorithm on an in-memory graph, rejecting malformed parameters with
/// a typed error.
pub fn try_pulp_partition(csr: &Csr, params: &PartitionParams) -> Result<Vec<i32>, PartitionError> {
    try_pulp_run(csr, params, None).map(|run| run.parts)
}

/// Run the PuLP-MM algorithm warm-started from a previous part vector, e.g. the result
/// of the last epoch on a graph that has since mutated.
///
/// `initial[v]` is the seed part of vertex `v`, or [`UNASSIGNED`] (`-1`) for vertices
/// that have no prior assignment (newly added ones); those are assigned greedily to the
/// majority part among their already-assigned neighbours (least-loaded part as the tie
/// break and fallback). No touched set is passed, so every vertex starts active; the
/// rest of the warm policy is [`try_pulp_run`]'s.
pub fn try_pulp_partition_from(
    csr: &Csr,
    params: &PartitionParams,
    initial: &[i32],
) -> Result<Vec<i32>, PartitionError> {
    try_pulp_run(csr, params, Some((initial, None))).map(|run| run.parts)
}

/// What one serial PuLP run produced.
#[derive(Debug, Clone)]
pub struct PulpRun {
    /// One part id per vertex.
    pub parts: Vec<i32>,
    /// The engine's work counters (sweeps, vertices scored, moves, per-stage split).
    pub stats: SweepStats,
    /// Per-phase wall-clock under the names distributed runs put in
    /// `PartitionResult::timings`: the schedule's phases (`init` or `warm_seed` and
    /// `load_scan`, `vertex_stage`, `edge_stage`) and the per-stage sweep time
    /// (`sweep_refine`/`sweep_balance`/`sweep_churn`).
    pub timings: PhaseTimer,
}

/// A warm start for [`try_pulp_run`] and for the distributed
/// [`run_xtrapulp_job`](crate::run_xtrapulp_job): the global seed part vector (see
/// [`try_pulp_partition_from`]) and, when known, the vertices the mutation delta
/// touched (endpoints of inserted/deleted edges, added vertices).
pub type PulpWarmStart<'a> = (&'a [i32], Option<&'a [GlobalId]>);

/// The full-accounting entry point: run PuLP-MM cold (`warm == None`) or warm-started,
/// and report the part vector together with the work counters and phase timings.
///
/// The stage schedule is XtraPuLP's, written once in `pass::run_schedule`, whose
/// documentation is the single statement of the warm policy: when a warm seed falls
/// back to the cold schedule, how the touched set and the newly labelled vertices scope
/// the frontier, and how many rounds run. Refinement sweeps stop early on convergence,
/// so the statistics are measurements, not a schedule.
pub fn try_pulp_run(
    csr: &Csr,
    params: &PartitionParams,
    warm: Option<PulpWarmStart<'_>>,
) -> Result<PulpRun, PartitionError> {
    params.validate()?;
    if let Some((initial, _)) = warm {
        validate_warm_start(csr.num_vertices(), params.num_parts, initial)?;
    }
    let n = csr.num_vertices();
    let mut timings = PhaseTimer::new();
    if n == 0 || params.num_parts == 1 {
        return Ok(PulpRun {
            parts: vec![0; n],
            stats: SweepStats::default(),
            timings,
        });
    }
    let mut ws = SweepWorkspace::default();
    let warm = warm.map(|(seed, touched)| WarmStart {
        seed,
        touched,
        counts: None,
        complete: !seed.contains(&UNASSIGNED),
    });
    // PuLP's callers evaluate the partition themselves, so the seed's counts go unused.
    let (parts, _) = run_schedule(&mut Serial(csr), params, warm, &mut timings, &mut ws)?;
    Ok(PulpRun {
        parts,
        stats: ws.engine.stats,
        timings,
    })
}

/// PuLP's initialisation, the serial [`init_partition`](crate::init::init_partition).
pub(crate) fn init(csr: &Csr, params: &PartitionParams) -> Vec<i32> {
    let n = csr.num_vertices() as u64;
    let p = params.num_parts;
    let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x50_4C_50);
    match params.init {
        InitStrategy::Random => (0..n).map(|_| rng.gen_range(0..p) as i32).collect(),
        InitStrategy::VertexBlock => (0..n)
            .map(|v| ((v as u128 * p as u128 / n.max(1) as u128) as u64).min(p as u64 - 1) as i32)
            .collect(),
        InitStrategy::BfsGrow => {
            let mut parts = vec![UNASSIGNED; n as usize];
            // Select p unique roots.
            let mut roots: Vec<GlobalId> = if (p as u64) >= n {
                (0..n).collect()
            } else {
                let mut all: Vec<GlobalId> = (0..n).collect();
                all.shuffle(&mut rng);
                all.truncate(p);
                all
            };
            roots.sort_unstable();
            for (i, &r) in roots.iter().enumerate() {
                parts[r as usize] = (i % p) as i32;
            }
            // Grow parts outward, adopting a random neighbouring part.
            let mut frontier: Vec<GlobalId> = roots;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &v in &frontier {
                    let pv = parts[v as usize];
                    for &u in csr.neighbors(v) {
                        if parts[u as usize] == UNASSIGNED {
                            parts[u as usize] = pv;
                            next.push(u);
                        }
                    }
                }
                next.shuffle(&mut rng);
                frontier = next;
            }
            // Random fallback for untouched vertices.
            for part in parts.iter_mut() {
                if *part == UNASSIGNED {
                    *part = rng.gen_range(0..p) as i32;
                }
            }
            parts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::random_partition;
    use crate::metrics::{is_valid_partition, PartitionQuality};
    use crate::partitioner::{run_xtrapulp_job, GraphSource};
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::{csr_from_edges, Distribution};

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
    fn pulp_produces_balanced_low_cut_partitions_on_a_grid() {
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let parts = try_pulp_partition(&csr, &params).unwrap();
        let q = PartitionQuality::evaluate(&csr, &parts, params.num_parts);
        assert!(is_valid_partition(&parts, 4));
        assert!(
            q.vertex_imbalance <= 1.25,
            "vertex imbalance {}",
            q.vertex_imbalance
        );
        assert!(
            q.edge_cut_ratio < 0.4,
            "edge cut ratio {}",
            q.edge_cut_ratio
        );
    }

    #[test]
    fn pulp_beats_random_on_cut() {
        let csr = grid_csr(16, 16);
        let params = PartitionParams {
            num_parts: 8,
            seed: 5,
            ..Default::default()
        };
        let pulp = try_pulp_partition(&csr, &params).unwrap();
        let q_pulp = PartitionQuality::evaluate(&csr, &pulp, 8);
        let random = random_partition(256, 8, params.seed);
        let q_rand = PartitionQuality::evaluate(&csr, &random, 8);
        assert!(q_pulp.edge_cut < q_rand.edge_cut / 2);
    }

    #[test]
    fn single_part_and_empty_graph_edge_cases() {
        let csr = grid_csr(4, 4);
        let parts = try_pulp_partition(&csr, &PartitionParams::with_parts(1)).unwrap();
        assert!(parts.iter().all(|&p| p == 0));
        let empty = csr_from_edges(0, &[]);
        assert!(try_pulp_partition(&empty, &PartitionParams::with_parts(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn all_init_strategies_produce_valid_partitions() {
        let csr = grid_csr(10, 10);
        for init in [
            InitStrategy::BfsGrow,
            InitStrategy::Random,
            InitStrategy::VertexBlock,
        ] {
            let params = PartitionParams {
                num_parts: 5,
                init,
                seed: 9,
                ..Default::default()
            };
            let parts = try_pulp_partition(&csr, &params).unwrap();
            assert!(is_valid_partition(&parts, 5), "{init:?}");
            let q = PartitionQuality::evaluate(&csr, &parts, 5);
            assert!(q.vertex_imbalance < 1.4, "{init:?}: {}", q.vertex_imbalance);
        }
    }

    #[test]
    fn pulp_is_deterministic() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            seed: 123,
            ..Default::default()
        };
        assert_eq!(
            try_pulp_partition(&csr, &params).unwrap(),
            try_pulp_partition(&csr, &params).unwrap()
        );
    }

    #[test]
    fn warm_start_from_own_result_preserves_quality_with_fewer_sweeps() {
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let cold_run = try_pulp_run(&csr, &params, None).unwrap();
        let (cold, cold_sweeps) = (cold_run.parts, cold_run.stats.sweeps);
        let cold_q = PartitionQuality::evaluate(&csr, &cold, 4);
        let warm_run = try_pulp_run(&csr, &params, Some((&cold, None))).unwrap();
        let (warm, warm_sweeps) = (warm_run.parts, warm_run.stats.sweeps);
        let warm_q = PartitionQuality::evaluate(&csr, &warm, 4);
        assert!(is_valid_partition(&warm, 4));
        assert!(
            warm_sweeps < cold_sweeps,
            "warm {warm_sweeps} sweeps should be fewer than cold {cold_sweeps}"
        );
        // Refining an already-good partition must not blow up the cut or the balance.
        assert!(
            warm_q.edge_cut as f64 <= cold_q.edge_cut as f64 * 1.05,
            "warm cut {} vs cold cut {}",
            warm_q.edge_cut,
            cold_q.edge_cut
        );
        assert!(warm_q.vertex_imbalance <= 1.25);
    }

    #[test]
    fn touched_warm_start_scores_only_the_delta_region() {
        let csr = grid_csr(30, 30);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let cold = try_pulp_partition(&csr, &params).unwrap();
        // Warm start with an explicit (tiny) touched set versus no information at all.
        let blind = try_pulp_run(&csr, &params, Some((&cold, None)))
            .unwrap()
            .stats;
        let touched: Vec<u64> = vec![0, 1, 30];
        let PulpRun {
            parts: warm,
            stats: scoped,
            ..
        } = try_pulp_run(&csr, &params, Some((&cold, Some(&touched)))).unwrap();
        assert!(is_valid_partition(&warm, 4));
        assert!(
            scoped.vertices_scored * 5 <= blind.vertices_scored.max(1),
            "touched-seeded warm run scored {} vertices, blind warm run {}",
            scoped.vertices_scored,
            blind.vertices_scored
        );
    }

    #[test]
    fn converged_warm_start_exits_on_an_empty_frontier() {
        // Warm-starting from an already-converged partition with an empty touched set
        // must do (almost) no work: the frontier never fills, so no sweep runs.
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let cold = try_pulp_partition(&csr, &params).unwrap();
        let PulpRun {
            parts: warm, stats, ..
        } = try_pulp_run(&csr, &params, Some((&cold, Some(&[])))).unwrap();
        assert_eq!(warm, cold, "an empty delta must not move anything");
        assert_eq!(stats.sweeps, 0, "no touched vertices, no sweeps");
        assert_eq!(stats.vertices_scored, 0);
    }

    /// A blind warm start (no touched set) rescores every vertex, whether or not the seed
    /// also carries a vertex that arrived unassigned, exactly as a 1-rank XtraPuLP run of
    /// the same schedule does.
    #[test]
    fn blind_warm_start_with_a_new_vertex_rescores_every_vertex() {
        let grid = grid_csr(30, 30);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let mut seed = try_pulp_partition(&grid, &params).unwrap();
        // Drop every 7th edge, add 40 chords and one new vertex hanging off vertex 450.
        let mut edges: Vec<(u64, u64)> = grid
            .edges()
            .enumerate()
            .filter(|(i, _)| i % 7 != 0)
            .map(|(_, e)| e)
            .collect();
        edges.extend((0..40u64).map(|i| ((i * 97) % 900, (i * 211 + 450) % 900)));
        edges.push((900, 450));
        seed.push(UNASSIGNED);
        let csr = csr_from_edges(901, &edges);

        let serial = try_pulp_run(&csr, &params, Some((&seed, None))).unwrap();
        let cut = PartitionQuality::evaluate(&csr, &serial.parts, 4).edge_cut;
        let mut runtime = Runtime::new(1);
        let source = GraphSource::Csr(&csr, &Distribution::Block);
        let one_rank = run_xtrapulp_job(&mut runtime, source, &params, Some((&seed, None)), None);
        let one_rank = one_rank.unwrap();
        assert!(
            serial.stats.vertices_scored >= 900,
            "a blind warm start scored {} of 901 vertices",
            serial.stats.vertices_scored
        );
        assert!(
            cut <= one_rank.quality.edge_cut,
            "serial cut {cut} vs 1-rank cut {}",
            one_rank.quality.edge_cut
        );
    }

    #[test]
    fn warm_start_assigns_unassigned_vertices_greedily() {
        let csr = grid_csr(8, 8);
        let params = PartitionParams {
            num_parts: 2,
            warm_outer_iters: 0, // seed-only: isolates the greedy assignment
            seed: 1,
            ..Default::default()
        };
        // Left half part 0, right half part 1, two unassigned interior vertices.
        let mut initial: Vec<i32> = (0..64).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect();
        initial[9] = UNASSIGNED; // column 1: all neighbours in part 0
        initial[14] = UNASSIGNED; // column 6: all neighbours in part 1
        let parts = try_pulp_partition_from(&csr, &params, &initial).unwrap();
        assert_eq!(parts[9], 0, "majority of assigned neighbours is part 0");
        assert_eq!(parts[14], 1, "majority of assigned neighbours is part 1");
        // Everything already assigned stays put under a seed-only schedule.
        for v in 0..64 {
            if initial[v] != UNASSIGNED {
                assert_eq!(parts[v], initial[v]);
            }
        }
    }

    #[test]
    fn warm_start_rejects_bad_vectors() {
        let csr = grid_csr(4, 4);
        let params = PartitionParams::with_parts(2);
        assert!(matches!(
            try_pulp_partition_from(&csr, &params, &[0; 3]),
            Err(crate::error::PartitionError::InvalidWarmStart { .. })
        ));
        let mut bad = vec![0i32; 16];
        bad[7] = 5; // out of range for 2 parts
        assert!(matches!(
            try_pulp_partition_from(&csr, &params, &bad),
            Err(crate::error::PartitionError::InvalidWarmStart { .. })
        ));
    }

    #[test]
    fn warm_start_is_deterministic() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            seed: 11,
            ..Default::default()
        };
        let mut initial = try_pulp_partition(&csr, &params).unwrap();
        initial[5] = UNASSIGNED;
        initial[77] = UNASSIGNED;
        let a = try_pulp_partition_from(&csr, &params, &initial).unwrap();
        let b = try_pulp_partition_from(&csr, &params, &initial).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_objective_mode_skips_edge_stage() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            edge_balance_stage: false,
            seed: 3,
            ..Default::default()
        };
        let parts = try_pulp_partition(&csr, &params).unwrap();
        let q = PartitionQuality::evaluate(&csr, &parts, params.num_parts);
        assert!(is_valid_partition(&parts, 4));
        assert!(q.vertex_imbalance <= 1.25);
    }
}
