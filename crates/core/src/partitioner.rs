//! The distributed XtraPuLP entry points and job (the stage schedule of Algorithm 1 is
//! `pass::run_schedule`, shared with PuLP), and the warm-start checks and seeding the
//! serial methods share.

use xtrapulp_comm::{CommStatsSnapshot, PhaseTimer, RankCtx, Runtime};
use xtrapulp_graph::distribution::splitmix64;
use xtrapulp_graph::{Csr, DistGraph, Distribution, GlobalId, LocalId, UNASSIGNED};

use crate::error::PartitionError;
use crate::exchange::{push_part_updates, refresh_ghost_parts, PartUpdate};
use crate::metrics::PartitionQuality;
use crate::params::PartitionParams;
use crate::pass::{run_schedule, Dist};
use crate::pulp::PulpWarmStart;
use crate::sweep::{Frontier, StageBreakdown, SweepWorkspace};

/// The outcome of one distributed XtraPuLP run on one rank.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Part labels for this rank's owned + ghost vertices (indexed by local id).
    pub parts: Vec<i32>,
    /// Global quality metrics (identical on every rank).
    pub quality: PartitionQuality,
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

/// Run the full multi-constraint multi-objective XtraPuLP algorithm *warm-started* from
/// a previous part assignment, collectively on an already-distributed graph.
///
/// `initial_owned[v]` is the seed part of this rank's owned vertex `v` (local id), or
/// [`UNASSIGNED`] (`-1`) for vertices with no prior assignment — newly added vertices
/// after a graph mutation. Unassigned vertices adopt the majority part of their assigned
/// neighbours in level-synchronous rounds (deterministic across rank counts).
///
/// `touched` is the *touched set* of the mutation delta separating this epoch from the
/// seed: the global ids whose adjacency changed (endpoints of inserted/deleted edges)
/// and of added vertices; every rank must pass the same slice. What the run then does —
/// the cold-schedule fallback, how the touched set and the newly labelled vertices scope
/// the frontier, the round counts — is the crate's one stage schedule,
/// `pass::run_schedule`, whose documentation is the single statement of the warm
/// policy. Cross-rank swaps are settled by the engine (see
/// [`SweepEngine::settle_swaps`](crate::sweep::SweepEngine::settle_swaps)), so a
/// delta-scoped run ends when its frontier empties.
///
/// Warm-start validation is collective-safe: every rank validates its own slice and the
/// violation counts are summed, so all ranks agree on the outcome and no rank enters a
/// collective the others skipped.
pub fn try_xtrapulp_partition_from_touched(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
    initial_owned: &[i32],
    touched: Option<&[GlobalId]>,
) -> Result<PartitionResult, PartitionError> {
    params.validate()?;
    let local_error = validate_warm_start(graph.n_owned(), params.num_parts, initial_owned).err();
    let global_violations = ctx.allreduce_scalar_sum_u64(local_error.is_some() as u64);
    if global_violations > 0 {
        return Err(
            local_error.unwrap_or_else(|| PartitionError::InvalidWarmStart {
                detail: format!("{global_violations} rank(s) received an invalid warm-start slice"),
            }),
        );
    }
    partition_on_rank(ctx, graph, params, Some((initial_owned, touched)))
}

/// Run the stage schedule on this rank, then evaluate the partition and reduce the work
/// counters so every rank reports the same. Must be called collectively.
fn partition_on_rank(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
    warm: Option<PulpWarmStart<'_>>,
) -> Result<PartitionResult, PartitionError> {
    let mut timings = PhaseTimer::new();
    let mut ws = SweepWorkspace::colocated(params.sweep_threads, ctx.colocated_ranks());
    let mut dist = Dist::new(ctx, graph);
    let parts = run_schedule(&mut dist, params, warm, &mut timings, &mut ws)?;

    let quality = timings.time("metrics", || {
        PartitionQuality::evaluate_dist(ctx, graph, &parts, params.num_parts)
    });

    // Per-stage telemetry: scored counts sum over ranks (each rank scored its own
    // vertices; the job's total rides in the same reduction), sweep counts take the
    // per-rank maximum (a rank whose local frontier emptied skips — and does not count —
    // the sweep).
    let local = ws.engine.stats.stages;
    let sums = ctx.allreduce_sum_u64(&[
        local.refine_scored,
        local.balance_scored,
        local.churn_scored,
        ws.engine.stats.vertices_scored,
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
        timings,
        lp_sweeps: dist.lp_sweeps,
        vertices_scored: sums[3],
        stages,
    })
}

/// Extend the previous epoch's owned part labels to a full (owned + ghost) assignment:
/// ghosts are pulled from their owners, unassigned vertices adopt the majority part of
/// their assigned neighbours in level-synchronous rounds (ties towards the lowest part
/// id), and vertices with no assigned neighbour at all (new isolated vertices or whole
/// new components) fall back to a deterministic hash of their global id. Must be called
/// collectively.
pub(crate) fn warm_seed(
    ctx: &RankCtx,
    graph: &DistGraph,
    params: &PartitionParams,
    initial_owned: &[i32],
    frontier: &mut Frontier,
) -> Result<Vec<i32>, PartitionError> {
    let p = params.num_parts;
    let n_owned = graph.n_owned();
    let mut parts = vec![UNASSIGNED; graph.n_total()];
    parts[..n_owned].copy_from_slice(initial_owned);
    refresh_ghost_parts(ctx, graph, &mut parts)?;

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
}

/// One distributed XtraPuLP job, start to finish (Algorithm 1 as a caller sees it):
/// distribute the graph or take the caller's, initialise or take `warm` — a global seed
/// vector and optionally the delta-touched ids, see
/// [`try_xtrapulp_partition_from_touched`] — run the stage schedule (`pass::run_schedule`
/// states the warm policy), gather the labels, assemble the global part vector.
/// Malformed `params` or `warm` are rejected before anything runs; a rank-local failure
/// is returned, not unwound.
///
/// The contract callers (session reuse, crash recovery by replay) rely on:
///
/// * **Deterministic.** `parts`, `quality` and the work counters are a pure function of
///   the graph, `params`, `warm` and the runtime's rank count — not of the transport,
///   the thread schedule or earlier jobs. `timings` are wall-clock; `comm` also depends
///   on how many of the ranks this process hosts.
/// * **One dispatch.** Everything runs inside a single [`Runtime::try_execute`], so a
///   transport fault surfaces as [`PartitionError::Comm`] and the job can be retried
///   whole.
/// * **Collectives, in order, on every rank:** the [`DistGraph::from_csr`] handshake
///   (`Csr` source only); for a warm start the seed's ghost pull (the whole vector was
///   validated before the dispatch, so no rank needs to ask the others); the stage
///   schedule's exchanges and allreduces; the quality and work-counter allreduces; then,
///   iff [`Runtime::is_distributed`], one `allgatherv` of the `(global id, part)` pairs
///   so every process assembles the whole vector.
pub fn run_xtrapulp_job(
    runtime: &mut Runtime,
    source: GraphSource<'_>,
    params: &PartitionParams,
    warm: Option<PulpWarmStart<'_>>,
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
    if let Some((initial, _)) = warm {
        // Validated once, globally: every rank's slice is a sub-view of this vector, so
        // no rank can disagree inside a collective.
        validate_warm_start(n, params.num_parts, initial)?;
    }
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
        let owned: Vec<i32>;
        let warm = match warm {
            None => None,
            Some((initial, touched)) => {
                owned = (0..graph.n_owned())
                    .map(|v| initial[graph.global_id(v as LocalId) as usize])
                    .collect();
                Some((&owned[..], touched))
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
            timings: result.timings,
            comm: ctx.stats().snapshot(),
            lp_sweeps: result.lp_sweeps,
            vertices_scored: result.vertices_scored,
            stages: result.stages,
        };
        Ok((pairs, outcome))
    })?;

    let per_rank = per_rank.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (mut pairs, outcomes): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
    if distributed {
        // Every hosted rank already gathered the full pair set; one copy is enough.
        pairs.truncate(1);
    }
    // Quality and the work counters are allreduced inside the job, so every rank
    // reports the same values; the first rank's are kept.
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
        run_xtrapulp_job(&mut Runtime::new(nranks), source, params, warm)
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
        let edges: Vec<_> = csr.edges().collect();
        let params = PartitionParams {
            num_parts: 4,
            seed: 17,
            ..Default::default()
        };
        let out = Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 400, &edges);
            let cold = try_xtrapulp_partition(ctx, &g, &params).unwrap();
            let warm = try_xtrapulp_partition_from_touched(
                ctx,
                &g,
                &params,
                &cold.parts[..g.n_owned()],
                None,
            )
            .expect("valid warm start");
            assert!(is_valid_partition(&warm.parts, 4));
            (cold.quality, cold.lp_sweeps, warm.quality, warm.lp_sweeps)
        });
        let (cold_q, cold_sweeps, warm_q, warm_sweeps) = out[0];
        assert!(
            warm_sweeps < cold_sweeps,
            "warm {warm_sweeps} should be fewer than cold {cold_sweeps}"
        );
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
        let edges: Vec<_> = csr.edges().collect();
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
            let per_rank = Runtime::new(nranks).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 144, &edges);
                let initial_owned: Vec<i32> = (0..g.n_owned())
                    .map(|v| initial[g.global_id(v as LocalId) as usize])
                    .collect();
                let res =
                    try_xtrapulp_partition_from_touched(ctx, &g, &params, &initial_owned, None)
                        .unwrap();
                (0..g.n_owned())
                    .map(|v| (g.global_id(v as LocalId), res.parts[v]))
                    .collect::<Vec<_>>()
            });
            assemble_gathered_parts(144, 4, per_rank).unwrap()
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
    fn distributed_warm_start_rejects_bad_slices_collectively() {
        let csr = grid_csr(8, 8);
        let edges: Vec<_> = csr.edges().collect();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 64, &edges);
            let params = PartitionParams::with_parts(4);
            // Only rank 1's slice is malformed; every rank must still agree on Err.
            let initial = if ctx.rank() == 1 {
                vec![99i32; g.n_owned()]
            } else {
                vec![0i32; g.n_owned()]
            };
            try_xtrapulp_partition_from_touched(ctx, &g, &params, &initial, None).is_err()
        });
        assert!(out.iter().all(|&e| e), "every rank must report the error");
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
