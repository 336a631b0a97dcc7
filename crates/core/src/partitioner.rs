//! The distributed XtraPuLP entry points and job (the stage schedule of Algorithm 1 is
//! `pass::run_schedule`, shared with PuLP), and the warm-start checks and seeding the
//! serial methods share.

use xtrapulp_comm::{CommStatsSnapshot, PhaseTimer, RankCtx, Runtime};
use xtrapulp_graph::distribution::splitmix64;
use xtrapulp_graph::{Csr, DistGraph, Distribution, LocalId, UNASSIGNED};

use crate::error::PartitionError;
use crate::exchange::{push_part_updates, PartUpdate};
use crate::metrics::{is_valid_partition, PartCounts, PartitionQuality};
use crate::params::PartitionParams;
use crate::pass::{run_schedule, Backend, Dist, Seeded, WarmStart};
use crate::pulp::PulpWarmStart;
use crate::sweep::{Frontier, StageBreakdown, SweepWorkspace};

/// The outcome of one distributed XtraPuLP run on one rank.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Part labels for this rank's owned + ghost vertices (indexed by local id).
    pub parts: Vec<i32>,
    /// Global quality metrics (identical on every rank).
    pub quality: PartitionQuality,
    /// The exact global counts `quality` is computed from (identical on every rank).
    pub counts: PartCounts,
    /// Wall-clock time per phase on this rank.
    pub timings: PhaseTimer,
    /// Number of label-propagation sweeps executed across all stages (identical on every
    /// rank); warm starts run far fewer than from-scratch runs.
    pub lp_sweeps: u64,
    /// Number of vertices scored across all sweeps and ranks (identical on every rank):
    /// the real unit of label-propagation work, which the frontier-driven engine
    /// shrinks — `n · sweeps` for full sweeps, the sum of active-set sizes otherwise.
    pub vertices_scored: u64,
    /// The sweep/scored work split per schedule stage (refine / balance / churn),
    /// globally reduced so every rank reports the same breakdown: scored counts are
    /// summed over ranks, sweep counts are the per-rank maximum (a rank whose local
    /// frontier emptied skips — and does not count — the sweep).
    pub stages: StageBreakdown,
    /// Arcs read counting part loads and the result's counts, summed over the ranks
    /// (identical on every rank): a full count reads every arc, a patch only the rows
    /// of the vertices whose label changed.
    pub arcs_counted: u64,
}

/// Run the full multi-constraint multi-objective XtraPuLP algorithm (Algorithm 1)
/// collectively on an already-distributed graph, rejecting malformed parameters with a
/// typed error.
///
/// Validation is deterministic, so every rank of a collective call returns the same
/// `Err` and no rank enters a collective the others skipped. The one mid-run failure is
/// [`PartitionError::CorruptExchange`]: a boundary exchange delivered something this
/// rank cannot apply, and the rank reporting it has left the collective sequence.
pub fn try_xtrapulp_partition(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
) -> Result<PartitionResult, PartitionError> {
    params.validate()?;
    partition_on_rank(ctx, graph, params, None)
}

/// Run the stage schedule on this rank — cold, or from `warm`, whose seed covers this
/// rank's owned and ghost vertices — then count the partition and reduce the work
/// counters so every rank reports the same. A refine-only warm run that knew its seed's
/// counts patches them by the vertices whose label changed; any other run counts every
/// arc once. Must be called collectively.
fn partition_on_rank(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
    warm: Option<WarmStart<'_>>,
) -> Result<PartitionResult, PartitionError> {
    let mut timings = PhaseTimer::new();
    let mut ws = SweepWorkspace::default();
    let mut dist = Dist::new(ctx, graph);
    let (parts, seeded) = run_schedule(&mut dist, params, warm, &mut timings, &mut ws)?;
    assert!(is_valid_partition(
        &parts[..graph.n_owned()],
        params.num_parts
    ));

    let arcs = &mut ws.engine.stats.arcs_counted;
    let counts = timings.time("metrics", || match seeded {
        Some(Seeded { labels, counts }) => dist.patch_counts(&counts, &labels, &parts, arcs),
        None => {
            let (counts, read) = PartCounts::of_dist(ctx, graph, &parts, params.num_parts);
            *arcs += read;
            counts
        }
    });
    let quality = counts.quality(graph.global_n(), graph.global_m());

    // Per-stage telemetry: scored counts sum over ranks (each rank scored its own
    // vertices; the job's total is their sum, and the arcs counted ride in the same
    // reduction), sweep counts take the per-rank maximum (a rank whose local frontier
    // emptied skips — and does not count — the sweep).
    let local = ws.engine.stats.stages;
    let sums = ctx.allreduce_sum_u64(&[
        local.refine_scored,
        local.balance_scored,
        local.churn_scored,
        ws.engine.stats.arcs_counted,
    ]);
    let maxs = ctx.allreduce_max_u64(&[
        local.refine_sweeps,
        local.balance_sweeps,
        local.churn_sweeps,
    ]);
    let stages = StageBreakdown {
        refine_sweeps: maxs[0],
        refine_scored: sums[0],
        balance_sweeps: maxs[1],
        balance_scored: sums[1],
        churn_sweeps: maxs[2],
        churn_scored: sums[2],
    };

    Ok(PartitionResult {
        parts,
        quality,
        counts,
        timings,
        lp_sweeps: dist.lp_sweeps,
        vertices_scored: sums[..3].iter().sum(),
        stages,
        arcs_counted: sums[3],
    })
}

/// Label every [`UNASSIGNED`] vertex of the previous epoch's labels `initial`, this
/// rank's view of the global seed (owned vertices, then ghosts): unassigned vertices
/// adopt the majority part of their assigned neighbours in level-synchronous rounds
/// (ties towards the lowest part id), and vertices with no assigned neighbour at all
/// (new isolated vertices or whole new components) fall back to a deterministic hash of
/// their global id. Must be called collectively.
pub(crate) fn warm_seed(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
    initial: &[i32],
    frontier: &mut Frontier,
) -> Result<Vec<i32>, PartitionError> {
    let p = params.num_parts;
    let n_owned = graph.n_owned();
    let mut parts = initial[..graph.n_total()].to_vec();

    // Every vertex assigned here counts as delta-touched: it and its neighbourhood
    // seed the warm refinement frontier (cross-rank neighbours are reached through the
    // marking exchange).
    let mark_assigned = |frontier: &mut Frontier, v: LocalId| {
        frontier.mark(v);
        for &u in graph.neighbors(v) {
            if (u as usize) < n_owned {
                frontier.mark(u);
            }
        }
    };

    let mut scores = vec![0u64; p];
    loop {
        let mut updates: Vec<PartUpdate> = Vec::new();
        for v in 0..n_owned {
            if parts[v] != UNASSIGNED {
                continue;
            }
            for s in scores.iter_mut() {
                *s = 0;
            }
            let mut any = false;
            for &u in graph.neighbors(v as LocalId) {
                let pu = parts[u as usize];
                if pu != UNASSIGNED {
                    scores[pu as usize] += 1;
                    any = true;
                }
            }
            if any {
                let best = (0..p)
                    .max_by_key(|&i| (scores[i], std::cmp::Reverse(i)))
                    .unwrap_or(0);
                updates.push((v as LocalId, best as i32));
            }
        }
        // Level-synchronous: this round's adoptions become visible together.
        for &(v, w) in &updates {
            parts[v as usize] = w;
            mark_assigned(frontier, v);
        }
        push_part_updates(ctx, graph, &updates, &[], &mut parts, Some(&mut *frontier))?;
        if ctx.allreduce_scalar_sum_u64(updates.len() as u64) == 0 {
            break;
        }
    }

    let mut leftovers: Vec<PartUpdate> = Vec::new();
    for (v, part) in parts.iter_mut().enumerate().take(n_owned) {
        if *part == UNASSIGNED {
            let w = (splitmix64(graph.global_id(v as LocalId) ^ params.seed) % p as u64) as i32;
            *part = w;
            leftovers.push((v as LocalId, w));
        }
    }
    for &(v, _) in &leftovers {
        mark_assigned(frontier, v);
    }
    push_part_updates(
        ctx,
        graph,
        &leftovers,
        &[],
        &mut parts,
        Some(&mut *frontier),
    )?;
    Ok(parts)
}

/// Check a warm-start part vector: one entry per vertex, each either [`UNASSIGNED`]
/// (`-1`) or a valid part id. Shared by every warm-start-capable method.
pub fn validate_warm_start(
    n: usize,
    num_parts: usize,
    initial: &[i32],
) -> Result<(), PartitionError> {
    if initial.len() != n {
        return Err(PartitionError::InvalidWarmStart {
            detail: format!("expected one entry per vertex ({n}), got {}", initial.len()),
        });
    }
    for (v, &x) in initial.iter().enumerate() {
        if x != UNASSIGNED && (x < 0 || x as usize >= num_parts) {
            return Err(PartitionError::InvalidWarmStart {
                detail: format!(
                    "vertex {v} has part {x}, expected -1 (unassigned) or 0..{num_parts}"
                ),
            });
        }
    }
    Ok(())
}

/// Greedily assign every [`UNASSIGNED`] vertex of a serial part vector: majority part
/// among already-assigned neighbours, with the smaller part winning ties, and the
/// globally least-loaded part as the fallback for vertices with no assigned neighbour.
/// Deterministic; earlier assignments in the sweep are visible to later vertices, so one
/// ascending pass suffices even for chains of new vertices.
pub fn greedy_seed_unassigned(csr: &Csr, parts: &mut [i32], num_parts: usize) {
    let mut size_v = vec![0i64; num_parts];
    for &x in parts.iter() {
        if x != UNASSIGNED {
            size_v[x as usize] += 1;
        }
    }
    let mut scores = vec![0u64; num_parts];
    for v in 0..csr.num_vertices() as u64 {
        if parts[v as usize] != UNASSIGNED {
            continue;
        }
        for s in scores.iter_mut() {
            *s = 0;
        }
        let mut any = false;
        for &u in csr.neighbors(v) {
            let pu = parts[u as usize];
            if pu != UNASSIGNED {
                scores[pu as usize] += 1;
                any = true;
            }
        }
        let best = if any {
            (0..num_parts)
                .max_by_key(|&i| {
                    (
                        scores[i],
                        std::cmp::Reverse(size_v[i]),
                        std::cmp::Reverse(i),
                    )
                })
                .unwrap_or(0)
        } else {
            (0..num_parts).min_by_key(|&i| (size_v[i], i)).unwrap_or(0)
        };
        parts[v as usize] = best as i32;
        size_v[best] += 1;
    }
}

/// Stitch per-rank `(global id, part)` pairs into one dense part vector, verifying that
/// every vertex was claimed by some rank and every claim is a valid `(vertex, part)`
/// pair for this graph and part count. A coverage gap surfaces as
/// [`PartitionError::IncompleteGather`] and a nonsensical pair (vertex id out of range,
/// part negative or `>= num_parts`) as [`PartitionError::CorruptGather`] — in release
/// builds too, since this guards against rank bugs, not caller mistakes.
pub fn assemble_gathered_parts(
    n: usize,
    num_parts: usize,
    per_rank: Vec<Vec<(u64, i32)>>,
) -> Result<Vec<i32>, PartitionError> {
    const UNCLAIMED: i32 = -1;
    let mut parts = vec![UNCLAIMED; n];
    let mut assigned: u64 = 0;
    for rank_pairs in per_rank {
        for (g, p) in rank_pairs {
            if g >= n as u64 || p < 0 || p as usize >= num_parts {
                return Err(PartitionError::CorruptGather { vertex: g, part: p });
            }
            if parts[g as usize] == UNCLAIMED {
                assigned += 1;
            }
            parts[g as usize] = p;
        }
    }
    if assigned < n as u64 {
        return Err(PartitionError::IncompleteGather {
            missing: n as u64 - assigned,
        });
    }
    Ok(parts)
}

/// Where [`run_xtrapulp_job`] finds its distributed graph.
#[derive(Debug, Clone, Copy)]
pub enum GraphSource<'a> {
    /// An in-memory graph, distributed over the runtime's ranks *inside* the job, so
    /// the outcome's `comm` counts the distribution handshake with everything else.
    Csr(&'a Csr, &'a Distribution),
    /// Graphs the caller built earlier and keeps alive across jobs (evolving them with
    /// [`DistGraph::apply_delta`]): one per rank the runtime hosts, each found by the
    /// rank that built it ([`DistGraph::rank`]), not by its index.
    Ranks(&'a [DistGraph]),
}

/// What one partitioning job produced, whichever method ran it and wherever it ran.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// One part id per vertex, indexed by global vertex id.
    pub parts: Vec<i32>,
    /// The paper's quality metrics for `parts`.
    pub quality: PartitionQuality,
    /// The exact counts `quality` is computed from, for a distributed job: what a caller
    /// keeping `parts` across graph mutations keeps beside them and hands to the next
    /// warm job. `None` from the serial methods, which take no counts.
    pub counts: Option<PartCounts>,
    /// Per-phase wall-clock, the maximum over the ranks this process hosts.
    pub timings: PhaseTimer,
    /// Communication counters summed over those ranks (zero for serial methods).
    pub comm: CommStatsSnapshot,
    /// Label-propagation sweeps executed (0 for methods that run none).
    pub lp_sweeps: u64,
    /// Vertices scored across all sweeps and ranks.
    pub vertices_scored: u64,
    /// The sweep/scored split per schedule stage.
    pub stages: StageBreakdown,
    /// Arcs read counting part loads and the result's counts, over all ranks.
    pub arcs_counted: u64,
}

/// One distributed XtraPuLP job, start to finish (Algorithm 1 as a caller sees it):
/// distribute the graph or take the caller's, initialise or take `warm` — a global seed
/// vector, one entry per vertex, each a part or [`UNASSIGNED`] for a vertex to be
/// labelled (one added since the seed was computed), and optionally the global ids the
/// mutation delta since then touched (endpoints of inserted and deleted edges, added
/// vertices; every rank reads the same) — run the stage schedule (`pass::run_schedule`
/// states the warm policy), count the result, gather the labels, assemble the global
/// part vector. Malformed `params` or `warm` are rejected before anything runs; a
/// rank-local failure is returned, not unwound.
///
/// `counts`, read only with `warm`, are the exact [`PartCounts`] of the seed's labels
/// over the graph (a caller that keeps a partition keeps them beside it: see
/// [`JobOutcome::counts`] and [`PartCounts::apply_delta`]). Handed them, a warm job
/// counts no arc its labels leave alone: the load scan patches them by the vertices the
/// seeding labels, and a refine-only run patches the result's counts from the seed's by
/// the vertices that moved. Without them a warm job counts every arc once, in the load
/// scan, and patches from there. They are trusted: counts that are not the seed's make
/// the job report a quality its partition does not have.
///
/// The contract callers (session reuse, crash recovery by replay) rely on:
///
/// * **Deterministic.** `parts`, `quality`, `counts` and the work counters are a pure
///   function of the graph, `params`, `warm` and the runtime's rank count — not of the
///   transport, the thread schedule, earlier jobs, or whether `counts` were handed in.
///   `timings` are wall-clock; `comm` also depends on how many of the ranks this process
///   hosts.
/// * **One dispatch.** Everything runs inside a single [`Runtime::try_execute`], so a
///   transport fault surfaces as [`PartitionError::Comm`] and the job can be retried
///   whole.
/// * **Collectives, in order, on every rank:** the [`DistGraph::from_csr`] handshake
///   (`Csr` source only); the stage schedule's exchanges and allreduces (a warm start
///   reads its ghosts' seed labels from the global vector, which was validated before
///   the dispatch, so no rank needs to ask the others, and a seed that labels every
///   vertex has no labelling rounds to run); the count and work-counter allreduces;
///   then, iff [`Runtime::is_distributed`], one `allgatherv` of the `(global id, part)`
///   pairs so every process assembles the whole vector.
pub fn run_xtrapulp_job(
    runtime: &mut Runtime,
    source: GraphSource<'_>,
    params: &PartitionParams,
    warm: Option<PulpWarmStart<'_>>,
    counts: Option<&PartCounts>,
) -> Result<JobOutcome, PartitionError> {
    params.validate()?;
    let n = match source {
        GraphSource::Csr(csr, _) => csr.num_vertices(),
        // A rank without a graph would leave the others waiting in a collective.
        GraphSource::Ranks(graphs) if graphs.len() != runtime.local_ranks().len() => {
            return Err(PartitionError::InvalidRanks { got: graphs.len() });
        }
        GraphSource::Ranks(graphs) => graphs[0].global_n() as usize,
    };
    // Validated once, globally: every rank's view is read from this vector, so no rank
    // can disagree inside a collective — and every rank knows whether it is complete.
    let complete = match warm {
        Some((initial, _)) => {
            validate_warm_start(n, params.num_parts, initial)?;
            if counts.is_some_and(|counts| counts.num_parts() != params.num_parts) {
                return Err(PartitionError::InvalidWarmStart {
                    detail: format!("carried counts are not of {} parts", params.num_parts),
                });
            }
            !initial.contains(&UNASSIGNED)
        }
        None => false,
    };
    let distributed = runtime.is_distributed();
    let per_rank = runtime.try_execute(|ctx| -> Result<_, PartitionError> {
        let built;
        let graph = match source {
            GraphSource::Csr(csr, dist) => {
                // An Explicit ownership table may be shorter than a graph that has
                // since grown; the tail vertices are hashed to ranks.
                built = DistGraph::from_csr(ctx, dist.grown(n as u64, ctx.nranks()), csr);
                &built
            }
            GraphSource::Ranks(graphs) => graphs
                .iter()
                .find(|graph| graph.rank() == ctx.rank())
                .ok_or(PartitionError::InvalidRanks { got: graphs.len() })?,
        };
        let local: Vec<i32>;
        let warm = match warm {
            None => None,
            Some((initial, touched)) => {
                local = (0..graph.n_total())
                    .map(|v| initial[graph.global_id(v as LocalId) as usize])
                    .collect();
                Some(WarmStart {
                    seed: &local,
                    touched,
                    counts,
                    complete,
                })
            }
        };
        let result = partition_on_rank(ctx, graph, params, warm)?;
        let mut pairs: Vec<(u64, i32)> = (0..graph.n_owned())
            .map(|v| (graph.global_id(v as LocalId), result.parts[v]))
            .collect();
        if distributed {
            pairs = ctx.allgatherv(pairs);
        }
        let outcome = JobOutcome {
            parts: Vec::new(),
            quality: result.quality,
            counts: Some(result.counts),
            timings: result.timings,
            comm: ctx.stats().snapshot(),
            lp_sweeps: result.lp_sweeps,
            vertices_scored: result.vertices_scored,
            stages: result.stages,
            arcs_counted: result.arcs_counted,
        };
        Ok((pairs, outcome))
    })?;

    let per_rank = per_rank.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (mut pairs, outcomes): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
    if distributed {
        // Every hosted rank already gathered the full pair set; one copy is enough.
        pairs.truncate(1);
    }
    // Quality, the counts and the work counters are allreduced inside the job, so
    // every rank reports the same values; the first rank's are kept.
    let merge = |mut all: JobOutcome, rank: JobOutcome| {
        all.timings.merge_max(&rank.timings);
        all.comm = all.comm.merged(rank.comm);
        all
    };
    let mut outcome =
        (outcomes.into_iter().reduce(merge)).ok_or(PartitionError::InvalidRanks { got: 0 })?;
    outcome.parts = assemble_gathered_parts(n, params.num_parts, pairs)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::metrics::is_valid_partition;
    use xtrapulp_graph::csr_from_edges;

    /// One XtraPuLP job on a fresh runtime of `nranks` in-process ranks, cold or
    /// warm-started from a global seed vector.
    fn one_shot(
        nranks: usize,
        distribution: &Distribution,
        csr: &Csr,
        params: &PartitionParams,
        warm: Option<&[i32]>,
    ) -> Result<JobOutcome, PartitionError> {
        let source = GraphSource::Csr(csr, distribution);
        let warm = warm.map(|seed| (seed, None));
        run_xtrapulp_job(&mut Runtime::new(nranks), source, params, warm, None)
    }

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
    fn distributed_partition_meets_constraints_on_a_grid() {
        let csr = grid_csr(20, 20);
        let edges: Vec<_> = csr.edges().collect();
        let out = Runtime::new(4).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 400, &edges);
            let params = PartitionParams {
                num_parts: 8,
                seed: 17,
                ..Default::default()
            };
            let res = try_xtrapulp_partition(ctx, &g, &params).unwrap();
            assert!(is_valid_partition(&res.parts, 8));
            res.quality
        });
        let q = out[0];
        assert!(
            q.vertex_imbalance <= 1.30,
            "vertex imbalance {}",
            q.vertex_imbalance
        );
        // A 20x20 grid split 8 ways should cut well under half the edges.
        assert!(
            q.edge_cut_ratio < 0.5,
            "edge cut ratio {}",
            q.edge_cut_ratio
        );
        // Every rank reports identical quality.
        for qq in &out {
            assert_eq!(qq.edge_cut, q.edge_cut);
        }
    }

    #[test]
    fn one_shot_job_produces_a_full_partition() {
        let csr = grid_csr(16, 16);
        let params = PartitionParams {
            num_parts: 4,
            seed: 3,
            ..Default::default()
        };
        let JobOutcome { parts, quality, .. } =
            one_shot(3, &Distribution::Block, &csr, &params, None).unwrap();
        assert_eq!(parts.len(), 256);
        assert!(is_valid_partition(&parts, 4));
        assert!(quality.vertex_imbalance <= 1.35);
        assert!(quality.edge_cut_ratio < 0.6);
    }

    #[test]
    fn single_rank_single_part_is_trivial() {
        let csr = grid_csr(4, 4);
        let params = PartitionParams {
            num_parts: 1,
            ..Default::default()
        };
        let parts = one_shot(1, &Distribution::Block, &csr, &params, None)
            .unwrap()
            .parts;
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn empty_graph_returns_empty_partition() {
        // No shortcut: the job runs its schedule over nothing, whatever the layout.
        let csr = csr_from_edges(0, &[]);
        for nranks in [1, 3] {
            for distribution in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::Hashed,
                Distribution::from_parts(&[]),
            ] {
                for init in [
                    crate::InitStrategy::BfsGrow,
                    crate::InitStrategy::Random,
                    crate::InitStrategy::VertexBlock,
                ] {
                    let params = PartitionParams {
                        num_parts: 4,
                        init,
                        ..Default::default()
                    };
                    let run = |warm| one_shot(nranks, &distribution, &csr, &params, warm);
                    assert!(run(None).unwrap().parts.is_empty());
                    assert!(run(Some(&[])).unwrap().parts.is_empty());
                }
            }
        }
    }

    #[test]
    fn baseline_partitioners_are_valid() {
        let csr = grid_csr(10, 10);
        for (name, parts) in [
            ("Random", baselines::random_partition(100, 5, 0)),
            ("VertexBlock", baselines::vertex_block_partition(100, 5)),
            ("EdgeBlock", baselines::edge_block_partition(&csr, 5)),
        ] {
            assert_eq!(parts.len(), 100, "{name}");
            assert!(is_valid_partition(&parts, 5), "{name}");
        }
    }

    #[test]
    fn xtrapulp_beats_random_on_cut_quality() {
        let csr = grid_csr(16, 16);
        let params = PartitionParams {
            num_parts: 4,
            seed: 23,
            ..Default::default()
        };
        let q_x = one_shot(2, &Distribution::Block, &csr, &params, None)
            .unwrap()
            .quality;
        let random = baselines::random_partition(256, 4, params.seed);
        let q_r = PartitionQuality::evaluate(&csr, &random, 4);
        assert!(
            q_x.edge_cut < q_r.edge_cut / 2,
            "XtraPuLP cut {} should be far below random cut {}",
            q_x.edge_cut,
            q_r.edge_cut
        );
    }

    #[test]
    fn timings_cover_all_phases() {
        let csr = grid_csr(8, 8);
        let edges: Vec<_> = csr.edges().collect();
        Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 64, &edges);
            let res = try_xtrapulp_partition(ctx, &g, &PartitionParams::with_parts(2)).unwrap();
            let phases: Vec<&str> = res.timings.iter().map(|(name, _)| name).collect();
            assert!(phases.contains(&"init"));
            assert!(phases.contains(&"vertex_stage"));
            assert!(phases.contains(&"edge_stage"));
        });
    }

    #[test]
    fn gather_assembly_rejects_gaps_and_corrupt_pairs() {
        // Full coverage assembles cleanly, later ranks win duplicates.
        let parts = assemble_gathered_parts(3, 4, vec![vec![(0, 1), (1, 2)], vec![(2, 0), (0, 2)]])
            .expect("full coverage");
        assert_eq!(parts, vec![2, 2, 0]);
        // A vertex no rank claimed is an IncompleteGather, not silently part 0.
        assert_eq!(
            assemble_gathered_parts(3, 4, vec![vec![(0, 1), (2, 1)]]),
            Err(PartitionError::IncompleteGather { missing: 1 })
        );
        // Negative parts and out-of-range vertex ids are corrupt, in release builds too.
        assert_eq!(
            assemble_gathered_parts(2, 4, vec![vec![(0, 0), (1, -1)]]),
            Err(PartitionError::CorruptGather {
                vertex: 1,
                part: -1
            })
        );
        assert_eq!(
            assemble_gathered_parts(2, 4, vec![vec![(0, 0), (5, 1)]]),
            Err(PartitionError::CorruptGather { vertex: 5, part: 1 })
        );
        // So is a part label at or above num_parts, which would otherwise surface as a
        // panic inside quality evaluation.
        assert_eq!(
            assemble_gathered_parts(2, 4, vec![vec![(0, 0), (1, 4)]]),
            Err(PartitionError::CorruptGather { vertex: 1, part: 4 })
        );
    }

    #[test]
    fn distributed_warm_start_matches_quality_with_fewer_sweeps() {
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 17,
            ..Default::default()
        };
        let run = |warm| one_shot(3, &Distribution::Block, &csr, &params, warm).unwrap();
        let cold = run(None);
        let warm = run(Some(&cold.parts));
        assert!(is_valid_partition(&warm.parts, 4));
        assert!(
            warm.lp_sweeps < cold.lp_sweeps,
            "warm {} should be fewer than cold {}",
            warm.lp_sweeps,
            cold.lp_sweeps
        );
        let (cold_q, warm_q) = (cold.quality, warm.quality);
        assert!(
            warm_q.edge_cut as f64 <= cold_q.edge_cut as f64 * 1.05,
            "warm cut {} vs cold {}",
            warm_q.edge_cut,
            cold_q.edge_cut
        );
        assert!(
            warm_q.vertex_imbalance <= 1.30,
            "warm imbalance {} (cold {})",
            warm_q.vertex_imbalance,
            cold_q.vertex_imbalance
        );
    }

    #[test]
    fn distributed_warm_start_fills_unassigned_and_is_rank_invariant() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            warm_outer_iters: 0, // seed-only: the outcome is the greedy assignment
            // Wide tolerances keep the lopsided seed inside the refine-only regime; a
            // balance-violating seed would trigger the full-schedule fallback, which is
            // legitimately rank-dependent.
            vertex_imbalance: 1.0,
            edge_imbalance: 1.0,
            seed: 23,
            ..Default::default()
        };
        // Block partition by rows, with one unassigned band in the middle.
        let initial: Vec<i32> = (0..144)
            .map(|v| match v / 36 {
                1 => UNASSIGNED,
                q => q,
            })
            .collect();
        let run = |nranks: usize| {
            let warm = Some(&initial[..]);
            one_shot(nranks, &Distribution::Block, &csr, &params, warm)
                .unwrap()
                .parts
        };
        let one = run(1);
        let three = run(3);
        assert!(is_valid_partition(&one, 4));
        assert_eq!(
            one, three,
            "warm seeding must be invariant to the rank count"
        );
        // Already-assigned vertices keep their seed part under a seed-only schedule.
        for v in 0..144 {
            if initial[v] != UNASSIGNED {
                assert_eq!(one[v], initial[v]);
            }
        }
    }

    #[test]
    fn distributed_warm_start_rejects_bad_seeds_and_counts_before_dispatch() {
        let csr = grid_csr(8, 8);
        let params = PartitionParams::with_parts(4);
        let mut runtime = Runtime::new(2);
        let graphs = runtime.execute(|ctx| DistGraph::from_csr(ctx, Distribution::Block, &csr));
        let source = GraphSource::Ranks(&graphs);
        let cold = run_xtrapulp_job(&mut runtime, source, &params, None, None).unwrap();
        // Only rank 1's share of the seed is malformed; the whole vector is checked
        // before any rank starts, so no rank is left waiting in a collective.
        let mut bad = cold.parts.clone();
        bad[60] = 99;
        let bad_seed = run_xtrapulp_job(&mut runtime, source, &params, Some((&bad, None)), None);
        assert!(matches!(
            bad_seed,
            Err(PartitionError::InvalidWarmStart { .. })
        ));
        // Counts blocked by another part count are no counts of this seed.
        let other = PartitionParams::with_parts(2);
        let two = run_xtrapulp_job(&mut runtime, source, &other, None, None).unwrap();
        let warm = Some((&cold.parts[..], None));
        let bad_counts = run_xtrapulp_job(&mut runtime, source, &params, warm, two.counts.as_ref());
        assert!(matches!(
            bad_counts,
            Err(PartitionError::InvalidWarmStart { .. })
        ));
        // The runtime is still healthy.
        assert!(
            run_xtrapulp_job(&mut runtime, source, &params, warm, cold.counts.as_ref()).is_ok()
        );
    }

    #[test]
    fn carried_counts_change_nothing_but_the_arcs_counted() {
        let csr = grid_csr(16, 16);
        for (nranks, edge_balance_stage) in [(1, true), (2, true), (3, false)] {
            let params = PartitionParams {
                num_parts: 4,
                seed: 3,
                edge_balance_stage,
                ..Default::default()
            };
            let mut runtime = Runtime::new(nranks);
            let graphs =
                runtime.execute(|ctx| DistGraph::from_csr(ctx, Distribution::Cyclic, &csr));
            let source = GraphSource::Ranks(&graphs);
            let cold = run_xtrapulp_job(&mut runtime, source, &params, None, None).unwrap();
            let cold_counts = cold.counts.clone().unwrap();
            assert_eq!(cold_counts, PartCounts::of(&csr, &cold.parts, 4));
            assert_eq!(
                cold.arcs_counted % csr.num_arcs(),
                0,
                "cold runs count whole"
            );
            // Relabel a few vertices and drop one, as a small delta would.
            let mut seed = cold.parts.clone();
            for v in (0..256).step_by(41) {
                seed[v] = (seed[v] + 1) % 4;
            }
            seed[100] = UNASSIGNED;
            let touched: Vec<u64> = (0..256).step_by(41).chain([100]).collect();
            let counts = PartCounts::of(&csr, &seed, 4);
            let warm = Some((&seed[..], Some(&touched[..])));
            let blind = run_xtrapulp_job(&mut runtime, source, &params, warm, None).unwrap();
            let carried =
                run_xtrapulp_job(&mut runtime, source, &params, warm, Some(&counts)).unwrap();
            assert_eq!(carried.parts, blind.parts, "{nranks} ranks");
            assert_eq!(carried.quality, blind.quality);
            assert_eq!(carried.counts, blind.counts);
            assert_eq!(
                carried.counts,
                Some(PartCounts::of(&csr, &carried.parts, 4))
            );
            assert_eq!(
                (carried.lp_sweeps, carried.vertices_scored),
                (blind.lp_sweeps, blind.vertices_scored)
            );
            assert!(
                carried.arcs_counted < blind.arcs_counted,
                "{nranks} ranks: carried {} vs measured {}",
                carried.arcs_counted,
                blind.arcs_counted
            );
        }
    }

    #[test]
    fn one_shot_warm_start_produces_a_full_partition() {
        let csr = grid_csr(16, 16);
        let params = PartitionParams {
            num_parts: 4,
            seed: 3,
            ..Default::default()
        };
        let run = |warm| one_shot(2, &Distribution::Block, &csr, &params, warm);
        let cold = run(None).unwrap().parts;
        let warm = run(Some(&cold)).expect("valid warm start").parts;
        assert_eq!(warm.len(), 256);
        assert!(is_valid_partition(&warm, 4));
    }

    #[test]
    fn greedy_seed_and_validation_helpers() {
        let csr = grid_csr(4, 4);
        // Fully unassigned: the fallback spreads vertices over the least-loaded parts.
        let mut parts = vec![UNASSIGNED; 16];
        greedy_seed_unassigned(&csr, &mut parts, 4);
        assert!(is_valid_partition(&parts, 4));
        // Validation accepts -1 entries and rejects out-of-range ones.
        assert!(validate_warm_start(16, 4, &parts).is_ok());
        assert!(validate_warm_start(16, 4, &[UNASSIGNED; 16]).is_ok());
        assert!(validate_warm_start(15, 4, &parts).is_err());
        let mut bad = parts.clone();
        bad[0] = 4;
        assert!(validate_warm_start(16, 4, &bad).is_err());
        bad[0] = -2;
        assert!(validate_warm_start(16, 4, &bad).is_err());
    }

    #[test]
    fn results_are_deterministic_for_fixed_seed_and_ranks() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            seed: 77,
            ..Default::default()
        };
        let run = || one_shot(2, &Distribution::Block, &csr, &params, None).unwrap();
        assert_eq!(run().parts, run().parts);
    }
}
