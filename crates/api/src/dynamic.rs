//! The dynamic partitioning session: apply updates, repartition warm, report.

use serde::Serialize;
use xtrapulp::metrics::{PartCounts, PartitionQuality};
use xtrapulp::sweep::StageBreakdown;
use xtrapulp::{validate_warm_start, PartitionError};
use xtrapulp_comm::RankCtx;
use xtrapulp_dynamic::{GraphDelta, UpdateBatch, UpdateError};
use xtrapulp_graph::{Csr, DistGraph, GlobalId, UNASSIGNED};

use crate::report::PartitionReport;
use crate::session::{PartitionJob, Session};

/// What one applied batch did to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSummary {
    /// The epoch the graph is at after the batch (epoch 0 is the initial graph).
    pub epoch: u64,
    /// Vertices appended by the batch.
    pub vertices_added: u64,
    /// Undirected edges inserted.
    pub edges_inserted: u64,
    /// Undirected edges deleted.
    pub edges_deleted: u64,
    /// Pre-existing vertices incident to an inserted or deleted edge — the set a
    /// warm-started repartition revisits.
    pub vertices_touched: u64,
}

/// The outcome of one repartitioning epoch: a full [`PartitionReport`] extended with the
/// dynamic-subsystem accounting — which epoch it belongs to, whether it was
/// warm-started, how many previously-assigned vertices changed part, and the
/// warm-vs-cold label-propagation sweep counts that explain the speedup.
#[derive(Debug, Clone, Serialize)]
pub struct DynamicReport {
    /// The underlying partitioning report (part vector, quality, timings, comm).
    pub report: PartitionReport,
    /// The graph epoch this partition corresponds to (number of update batches applied).
    pub epoch: u64,
    /// Whether this run was warm-started from the previous epoch's partition.
    pub warm_start: bool,
    /// Previously-assigned vertices whose part changed relative to the last epoch
    /// (newly added vertices are excluded — they had no part to migrate from).
    pub vertices_migrated: u64,
    /// Label-propagation sweeps this run executed (0 for non-LP methods).
    pub lp_sweeps: u64,
    /// Sweeps of the most recent from-scratch run, the warm-vs-cold reference.
    pub cold_lp_sweeps: u64,
    /// Vertices the label-propagation engine scored in this run — the real unit of
    /// sweep work. Warm starts seeded from the delta's touched neighbourhood score a
    /// small fraction of what a cold run does.
    pub vertices_scored: u64,
    /// Scored vertices of the most recent from-scratch run, the warm-vs-cold
    /// reference for sweep throughput.
    pub cold_vertices_scored: u64,
    /// The run's sweep/scored work split per schedule stage (refine / balance /
    /// churn), so trajectories can attribute where label-propagation effort went.
    pub stages: StageBreakdown,
    /// Arcs the run read counting part loads and its result's quality, over all ranks.
    /// A warm XtraPuLP epoch handed the carried counts reads only the rows of the
    /// vertices it labels or moves.
    pub arcs_counted: u64,
}

/// [`DynamicReport`] minus the part vector, for result streams.
#[derive(Debug, Clone, Serialize)]
struct DynamicSummary {
    method: String,
    epoch: u64,
    warm_start: bool,
    vertices_migrated: u64,
    lp_sweeps: u64,
    cold_lp_sweeps: u64,
    vertices_scored: u64,
    cold_vertices_scored: u64,
    stages: StageBreakdown,
    arcs_counted: u64,
    num_vertices: u64,
    num_edges: u64,
    quality: PartitionQuality,
    total_seconds: f64,
}

impl DynamicReport {
    /// Serialise the full report (including the part vector) to JSON. Infallible by
    /// construction: every field is numbers, strings and their containers, and the
    /// writer appends to an in-memory `String`.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Serialise everything except the part vector to JSON.
    pub fn to_json_summary(&self) -> String {
        let summary = DynamicSummary {
            method: self.report.method.clone(),
            epoch: self.epoch,
            warm_start: self.warm_start,
            vertices_migrated: self.vertices_migrated,
            lp_sweeps: self.lp_sweeps,
            cold_lp_sweeps: self.cold_lp_sweeps,
            vertices_scored: self.vertices_scored,
            cold_vertices_scored: self.cold_vertices_scored,
            stages: self.stages,
            arcs_counted: self.arcs_counted,
            num_vertices: self.report.num_vertices,
            num_edges: self.report.num_edges,
            quality: self.report.quality,
            total_seconds: self.report.total_seconds(),
        };
        serde::json::to_string(&summary)
    }
}

/// A partitioning session over a *mutating* graph.
///
/// `DynamicSession` owns a [`Session`] (and through it the persistent rank runtime), one
/// [`DistGraph`] per rank the session hosts, an epoch counter and the partition of the
/// latest epoch. The rank graphs are the only topology, for every method: each rank
/// holds its owned rows and a ghost table, and no rank holds the whole graph. A [`Csr`]
/// is assembled from them only on demand ([`csr`](DynamicSession::csr)): by a serial
/// method at each repartition, or by a caller. The serving loop is `apply_updates` →
/// `repartition` → [`DynamicReport`]:
///
/// * [`apply_updates`](DynamicSession::apply_updates) validates a batch and applies it
///   in one dispatch: every rank checks the edges whose source it owns, one allreduce
///   agrees on the verdict, and every rank evolves its graph with
///   [`DistGraph::apply_delta`].
/// * [`repartition`](DynamicSession::repartition) runs the session's job: from scratch
///   on the first call (and for methods without warm-start support), warm-started from
///   the previous epoch's part vector afterwards — new vertices are assigned greedily
///   and only a short refinement schedule runs, which is what makes repartitioning after
///   a small mutation much cheaper than a cold run.
///
/// Beside the partition the session keeps its exact [`PartCounts`] (each part's
/// vertices, arcs and cut arcs, which the reported quality is computed from), as the
/// last XtraPuLP job returned them. Every applied batch patches them by its arcs, and
/// the next warm job patches them by the vertices it labels or moves, so a warm epoch
/// never counts the whole graph: its cost follows the batch, not the graph.
///
/// A rejected batch or malformed job leaves the session (and its graph) untouched.
///
/// Works the same over a multi-process [`Session::with_runtime`]: every process wraps
/// its session, feeds it the same batches in the same order, and gets identical reports
/// (an epoch's job is the one [`Session::submit`] runs, over the kept graphs). No
/// process needs the whole graph, to validate a batch or otherwise.
pub struct DynamicSession {
    session: Session,
    job: PartitionJob,
    /// One graph per rank the session hosts, evolved by every update batch.
    graphs: Vec<DistGraph>,
    /// Number of update batches applied so far.
    epoch: u64,
    /// Latest partition, kept at graph length (`UNASSIGNED` for vertices added since).
    parts: Option<Vec<i32>>,
    /// Global ids touched by the update batches applied since the last repartition
    /// (edge endpoints and added vertices), deduplicated; seeds the warm run's
    /// refinement frontier. `None` until the first partition exists.
    touched: Option<Vec<GlobalId>>,
    /// The exact counts of `parts` over the live graph, when the job that computed them
    /// returned them (an XtraPuLP job does); patched by every applied batch and handed
    /// to the next warm job.
    counts: Option<PartCounts>,
    cold_lp_sweeps: u64,
    cold_vertices_scored: u64,
}

/// The size of a [`DynamicSession`]'s live graph, read off its rank graphs.
#[derive(Debug, Clone, Copy)]
pub struct LiveGraph<'a>(&'a DistGraph);

impl LiveGraph<'_> {
    /// Current vertex count.
    pub fn num_vertices(&self) -> usize {
        self.0.global_n() as usize
    }

    /// Current undirected edge count.
    pub fn num_edges(&self) -> u64 {
        self.0.global_m()
    }
}

impl DynamicSession {
    /// Wrap a session and an initial graph, which is distributed over the session's
    /// ranks and then dropped. The first [`repartition`] is a cold run.
    ///
    /// [`repartition`]: DynamicSession::repartition
    pub fn new(session: Session, csr: Csr, job: PartitionJob) -> Result<Self, PartitionError> {
        DynamicSession::over(session, &csr, job)
    }

    /// Convenience: spawn a fresh `nranks`-rank session around the graph.
    pub fn spawn(nranks: usize, csr: Csr, job: PartitionJob) -> Result<Self, PartitionError> {
        DynamicSession::new(Session::new(nranks)?, csr, job)
    }

    /// [`new`](DynamicSession::new) for a caller that keeps its graph.
    pub(crate) fn over(
        mut session: Session,
        csr: &Csr,
        job: PartitionJob,
    ) -> Result<Self, PartitionError> {
        job.params.validate()?;
        Ok(DynamicSession {
            graphs: session.build_rank_graphs(csr),
            session,
            job,
            epoch: 0,
            parts: None,
            touched: None,
            counts: None,
            cold_lp_sweeps: 0,
            cold_vertices_scored: 0,
        })
    }

    /// The live graph's size.
    pub fn graph(&self) -> LiveGraph<'_> {
        LiveGraph(&self.graphs[0])
    }

    /// Assemble the live graph as one [`Csr`], in one dispatch: every rank exports its
    /// owned rows, gathered with one `allgatherv` when some ranks live in other
    /// processes. A collective in a multi-process session.
    pub fn csr(&mut self) -> Csr {
        let distributed = self.session.is_distributed();
        let rows = self.session.execute(|ctx| {
            let own: Vec<_> = rank_graph(&self.graphs, ctx).owned_arcs().collect();
            if distributed {
                ctx.allgatherv(own)
            } else {
                own
            }
        });
        // A distributed session's hosted ranks each gathered every row; one is enough.
        let copies = if distributed { 1 } else { rows.len() };
        let rows = rows.iter().take(copies).flatten().copied();
        Csr::from_rows(self.graphs[0].global_n(), rows)
    }

    /// Number of update batches applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The job every [`repartition`](DynamicSession::repartition) runs.
    pub fn job(&self) -> &PartitionJob {
        &self.job
    }

    /// The latest epoch's partition, if one has been computed. Entries for vertices
    /// added since the last repartition are [`UNASSIGNED`].
    pub fn parts(&self) -> Option<&[i32]> {
        self.parts.as_deref()
    }

    /// The wrapped session, e.g. to run analytics jobs on the same ranks.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Install `parts` as the session's current partition without running a job —
    /// the crash-recovery path, seeding a replayed topology from a durable
    /// checkpoint taken at exactly this graph state. The next
    /// [`repartition`](DynamicSession::repartition) warm-starts from it with an
    /// empty touched set, as if the partition had been computed in-session, except that
    /// no counts come with it: that job counts the graph once, and carries its result's
    /// counts on from there.
    pub(crate) fn seed_partition(&mut self, parts: Vec<i32>) -> Result<(), PartitionError> {
        let n = self.graph().num_vertices();
        validate_warm_start(n, self.job.params.num_parts, &parts)?;
        self.parts = Some(parts);
        self.touched = Some(Vec::new());
        self.counts = None;
        Ok(())
    }

    /// Validate one update batch against the live topology and apply it: the per-rank
    /// graphs evolve via [`DistGraph::apply_delta`], the carried part vector is
    /// extended with [`UNASSIGNED`] entries for new vertices, and the carried counts
    /// book the batch's arcs under the carried labels ([`PartCounts::apply_delta`]). A
    /// rejected batch changes nothing.
    pub fn apply_updates(&mut self, batch: &UpdateBatch) -> Result<UpdateSummary, UpdateError> {
        self.apply_updates_with_delta(batch).map(|(s, _)| s)
    }

    /// [`apply_updates`](DynamicSession::apply_updates), additionally returning the
    /// normalised [`GraphDelta`] that was applied — the record an epoch consumer
    /// (incremental analytics, SpMV layouts) needs to update its own replicas without
    /// re-deriving the batch's net effect.
    pub fn apply_updates_with_delta(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(UpdateSummary, GraphDelta), UpdateError> {
        let base_n = self.graphs[0].global_n();
        let delta = batch.compile(base_n)?;
        // Growth under an Explicit ownership table is handled in the graph layer:
        // `DistGraph::apply_delta` extends the table by hashing the new tail vertices to
        // ranks, so no method/distribution combination rejects a valid batch.
        let applied = self.session.execute(|ctx| {
            let graph = rank_graph(&self.graphs, ctx);
            check_edges(ctx, graph, &delta).map(|()| graph.apply_delta(ctx, &delta))
        });
        // Every rank reached the same verdict, so either all applied or none did.
        self.graphs = applied.into_iter().collect::<Result<_, _>>()?;
        self.epoch += 1;
        if let Some(parts) = self.parts.as_mut() {
            parts.resize(delta.new_n() as usize, UNASSIGNED);
            if let Some(counts) = self.counts.as_mut() {
                counts.apply_delta(parts, &delta);
            }
        }
        if let Some(touched) = self.touched.as_mut() {
            touched.extend(delta.touched_including_added());
            touched.sort_unstable();
            touched.dedup();
        }
        let summary = UpdateSummary {
            epoch: self.epoch,
            vertices_added: delta.added_vertices(),
            edges_inserted: delta.num_insert_edges(),
            edges_deleted: delta.num_delete_edges(),
            vertices_touched: delta.touched_vertices().partition_point(|&v| v < base_n) as u64,
        };
        Ok((summary, delta))
    }

    /// Partition the current epoch's graph and report.
    ///
    /// Runs warm-started from the previous partition whenever one exists and the
    /// session's method supports it ([`crate::Method::supports_warm_start`]); otherwise
    /// from scratch. A warm XtraPuLP run also takes the carried counts, so the epoch
    /// reads only the rows its batches and moves touch (see
    /// [`run_xtrapulp_job`](xtrapulp::run_xtrapulp_job)); after a crash recovery installed
    /// the partition, the first one counts the graph once. The
    /// report's `vertices_migrated`, `lp_sweeps`/`cold_lp_sweeps` and `arcs_counted`
    /// fields quantify the incremental behaviour.
    pub fn repartition(&mut self) -> Result<DynamicReport, PartitionError> {
        // A serial method runs on the whole graph, assembled for this run only.
        let csr = (!self.job.method.is_distributed()).then(|| self.csr());
        let warm_start = self.job.method.supports_warm_start() && self.parts.is_some();
        // The touched set accumulated since the last repartition scopes the warm run's
        // refinement frontier; it is consumed (and reset) by this run.
        let touched = self.touched.take().filter(|_| warm_start);
        let warm_seed = self.parts.as_deref().filter(|_| warm_start);
        let warm = warm_seed.map(|seed| (seed, touched.as_deref()));
        let counts = self.counts.as_ref().filter(|_| warm_start);
        let mut outcome = match &csr {
            Some(csr) => self.session.run_job(&self.job, csr, warm),
            None => self
                .session
                .run_on_ranks(&self.graphs, &self.job.params, warm, counts),
        }?;
        let (lp_sweeps, vertices_scored, stages, arcs_counted) = (
            outcome.lp_sweeps,
            outcome.vertices_scored,
            outcome.stages,
            outcome.arcs_counted,
        );
        let counts = outcome.counts.take();
        let (n, m) = (self.graph().num_vertices(), self.graph().num_edges());
        let report = self.session.report(&self.job, n, m, outcome);

        if !warm_start {
            self.cold_lp_sweeps = lp_sweeps;
            self.cold_vertices_scored = vertices_scored;
        }
        let vertices_migrated = match &self.parts {
            Some(previous) => previous
                .iter()
                .zip(&report.parts)
                .filter(|&(&old, &new)| old != UNASSIGNED && old != new)
                .count() as u64,
            None => 0,
        };
        self.parts = Some(report.parts.clone());
        self.counts = counts;
        // From here on the partition matches the live graph exactly: the next warm run
        // only needs to look at whatever future batches touch.
        self.touched = Some(Vec::new());
        Ok(DynamicReport {
            report,
            epoch: self.epoch,
            warm_start,
            vertices_migrated,
            lp_sweeps,
            cold_lp_sweeps: self.cold_lp_sweeps,
            vertices_scored,
            cold_vertices_scored: self.cold_vertices_scored,
            stages,
            arcs_counted,
        })
    }
}

/// The graph `ctx`'s rank holds: `graphs` has one for every rank this process hosts,
/// built by the session's own runtime.
fn rank_graph<'g>(graphs: &'g [DistGraph], ctx: &RankCtx) -> &'g DistGraph {
    let mine = graphs.iter().find(|graph| graph.rank() == ctx.rank());
    // lint: panic-ok — `DynamicSession::over` built a graph on every hosted rank
    mine.expect("the session built a graph for every rank it hosts")
}

/// Check `delta`'s named edges against the live topology with one allreduce, so every
/// rank returns the same verdict: the first insert of an existing edge in
/// [`insert_arcs`](GraphDelta::insert_arcs) order, else the first delete of a missing
/// one in [`delete_arcs`](GraphDelta::delete_arcs) order. Each rank answers for the
/// `u < v` arcs whose source it owns (rows ascend in global id, so by a binary search);
/// every rank alike answers for an arc reaching past the old graph, which no edge
/// reaches yet.
fn check_edges(ctx: &RankCtx, graph: &DistGraph, delta: &GraphDelta) -> Result<(), UpdateError> {
    let exists = |u, v| {
        if v >= graph.global_n() {
            return Some(false);
        }
        let row = graph.neighbors(graph.owned_local_id(u)?);
        let at = row.binary_search_by_key(&v, |&w| graph.global_id(w));
        Some(at.is_ok())
    };
    let first = |arcs: &[(GlobalId, GlobalId)], existing| {
        let offends = |&(u, v): &(GlobalId, GlobalId)| u < v && exists(u, v) == Some(existing);
        arcs.iter().position(offends).map_or(u64::MAX, |i| i as u64)
    };
    let (inserts, deletes) = (delta.insert_arcs(), delta.delete_arcs());
    let found = ctx.allreduce_min_u64(&[first(inserts, true), first(deletes, false)]);
    // An index of `u64::MAX` (nothing found) misses every arc.
    let arc = |arcs: &[(GlobalId, GlobalId)], i: u64| arcs.get(i as usize).copied();
    match (arc(inserts, found[0]), arc(deletes, found[1])) {
        (Some((u, v)), _) => Err(UpdateError::EdgeAlreadyExists { u, v }),
        (None, Some((u, v))) => Err(UpdateError::MissingEdge { u, v }),
        (None, None) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use xtrapulp::PartitionParams;
    use xtrapulp_gen::{GraphConfig, GraphKind};
    use xtrapulp_graph::{csr_from_edges, Distribution};

    fn ba_csr(n: u64, seed: u64) -> Csr {
        GraphConfig::new(
            GraphKind::BarabasiAlbert {
                num_vertices: n,
                edges_per_vertex: 5,
            },
            seed,
        )
        .generate()
        .to_csr()
    }

    fn job(method: Method, parts: usize) -> PartitionJob {
        PartitionJob::new(method).with_params(PartitionParams {
            num_parts: parts,
            seed: 13,
            ..Default::default()
        })
    }

    #[test]
    fn apply_repartition_loop_over_distributed_method() {
        // A mesh keeps part identity stable across epochs, which makes the migration
        // accounting assertable; skewed graphs churn labels intrinsically.
        let csr = GraphConfig::new(
            GraphKind::Grid2d {
                width: 20,
                height: 40,
                diagonal: false,
            },
            5,
        )
        .generate()
        .to_csr();
        let mut dyn_session =
            DynamicSession::spawn(3, csr.clone(), job(Method::XtraPulp, 4)).unwrap();

        // Epoch 0: cold run.
        let cold = dyn_session.repartition().unwrap();
        assert_eq!(cold.epoch, 0);
        assert!(!cold.warm_start);
        assert_eq!(cold.vertices_migrated, 0);
        assert!(cold.lp_sweeps > 0);
        assert_eq!(cold.report.parts.len(), 800);

        // Mutate: add two vertices with a few edges, drop one edge.
        let mut batch = UpdateBatch::new();
        batch.add_vertices(2);
        batch
            .insert_edge(800, 0)
            .insert_edge(800, 1)
            .insert_edge(801, 800);
        let (u, v) = {
            let u = 5u64;
            let v = csr.neighbors(u)[0];
            (u, v)
        };
        batch.delete_edge(u, v);
        let summary = dyn_session.apply_updates(&batch).unwrap();
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.vertices_added, 2);
        assert_eq!(dyn_session.graph().num_vertices(), 802);

        // Epoch 1: warm run — fewer sweeps, same quality ballpark, few migrations.
        let warm = dyn_session.repartition().unwrap();
        assert_eq!(warm.epoch, 1);
        assert!(warm.warm_start);
        assert_eq!(warm.report.parts.len(), 802);
        assert!(
            warm.lp_sweeps < warm.cold_lp_sweeps,
            "warm {} vs cold {}",
            warm.lp_sweeps,
            warm.cold_lp_sweeps
        );
        assert!(
            warm.vertices_migrated < 800 / 2,
            "a tiny delta should not migrate most of the graph ({})",
            warm.vertices_migrated
        );
        assert!(warm.report.quality.vertex_imbalance <= 1.30);
        // Both epochs count towards the wrapped session's lifetime job counter.
        assert_eq!(dyn_session.session_mut().jobs_completed(), 2);
    }

    #[test]
    fn serial_methods_warm_start_through_the_same_facade() {
        for method in [Method::Pulp, Method::MetisLike] {
            let csr = ba_csr(600, 8);
            let mut dyn_session = DynamicSession::spawn(1, csr, job(method, 4)).unwrap();
            let cold = dyn_session.repartition().unwrap();
            assert!(!cold.warm_start, "{method}");

            let mut batch = UpdateBatch::new();
            batch
                .add_vertices(1)
                .insert_edge(600, 3)
                .insert_edge(600, 7);
            dyn_session.apply_updates(&batch).unwrap();
            let warm = dyn_session.repartition().unwrap();
            assert!(warm.warm_start, "{method}");
            assert_eq!(warm.report.parts.len(), 601, "{method}");
            assert_ne!(warm.report.parts[600], UNASSIGNED, "{method}");
            if method == Method::Pulp {
                assert!(warm.lp_sweeps < warm.cold_lp_sweeps, "{method}");
                // The serial path surfaces the per-stage sweep wall-clock in the
                // report's timings, like the distributed path does.
                assert!(
                    warm.report.timings.get("sweep_refine") > std::time::Duration::ZERO,
                    "serial warm PuLP runs must report sweep_refine time"
                );
            }
        }
    }

    #[test]
    fn methods_without_warm_support_repartition_cold_every_time() {
        let csr = ba_csr(300, 2);
        let mut dyn_session = DynamicSession::spawn(1, csr, job(Method::Random, 4)).unwrap();
        dyn_session.repartition().unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_vertices(1).insert_edge(300, 0);
        dyn_session.apply_updates(&batch).unwrap();
        let second = dyn_session.repartition().unwrap();
        assert!(!second.warm_start);
        assert_eq!(second.report.parts.len(), 301);
    }

    #[test]
    fn rejected_batches_leave_the_session_intact() {
        let csr = ba_csr(300, 4);
        let neighbour = csr.neighbors(0)[0];
        let stranger = (1..300).find(|v| !csr.neighbors(0).contains(v)).unwrap();
        let mut dyn_session =
            DynamicSession::spawn(2, csr.clone(), job(Method::XtraPulp, 4)).unwrap();
        dyn_session.repartition().unwrap();
        let mut missing = UpdateBatch::new();
        missing.delete_edge(stranger, 0);
        let mut existing = UpdateBatch::new();
        existing.insert_edge(neighbour, 0);
        let rejections = [
            (missing, UpdateError::MissingEdge { u: 0, v: stranger }),
            (
                existing,
                UpdateError::EdgeAlreadyExists { u: 0, v: neighbour },
            ),
        ];
        for (bad, error) in rejections {
            assert_eq!(dyn_session.apply_updates(&bad), Err(error));
            assert_eq!(dyn_session.epoch(), 0);
            assert_eq!(dyn_session.csr(), csr);
        }
        // The session still serves jobs afterwards.
        let report = dyn_session.repartition().unwrap();
        assert_eq!(report.report.parts.len(), 300);
    }

    #[test]
    fn a_summary_counts_the_batch_and_its_touched_vertices() {
        let csr = csr_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let mut dyn_session = DynamicSession::spawn(2, csr, job(Method::Pulp, 2)).unwrap();
        let mut batch = UpdateBatch::new();
        batch.delete_edge(2, 3).add_vertices(1).insert_edge(6, 0);
        let summary = dyn_session.apply_updates(&batch).unwrap();
        // Touched pre-existing vertices: 2 and 3 (deleted edge) and 0 (new edge); vertex
        // 6 is new, not "touched".
        let expected = UpdateSummary {
            epoch: 1,
            vertices_added: 1,
            edges_inserted: 1,
            edges_deleted: 1,
            vertices_touched: 3,
        };
        assert_eq!(summary, expected);
        assert_eq!(dyn_session.graph().num_vertices(), 7);
        assert_eq!(dyn_session.graph().num_edges(), 7);
        assert_eq!(dyn_session.csr().neighbors(6), &[0]);
    }

    #[test]
    fn explicit_distribution_growth_hashes_tail_vertices_to_owners() {
        // Growing a graph distributed with an explicit ownership table used to be
        // rejected (the table had no owners for the new vertices); the graph layer now
        // hashes the tail to ranks, so the serving loop keeps working across growth.
        let csr = ba_csr(120, 3);
        let owners: Vec<i32> = (0..120).map(|v| v % 2).collect();
        let session = Session::with_distribution(2, Distribution::from_parts(&owners)).unwrap();
        let mut dyn_session = DynamicSession::new(session, csr, job(Method::XtraPulp, 2)).unwrap();
        dyn_session.repartition().unwrap();

        let mut batch = UpdateBatch::new();
        batch
            .add_vertices(2)
            .insert_edge(120, 0)
            .insert_edge(121, 120);
        let summary = dyn_session.apply_updates(&batch).unwrap();
        assert_eq!(summary.epoch, 1);
        assert_eq!(dyn_session.graph().num_vertices(), 122);
        let warm = dyn_session.repartition().unwrap();
        assert!(warm.warm_start);
        assert_eq!(warm.report.parts.len(), 122);
        assert_ne!(warm.report.parts[120], UNASSIGNED);
        assert_ne!(warm.report.parts[121], UNASSIGNED);
        // Growth before the rank graphs are first built goes through the same hashing
        // path in `Session::build_rank_graphs`.
        let csr2 = ba_csr(120, 5);
        let owners2: Vec<i32> = (0..120).map(|v| v % 2).collect();
        let session2 = Session::with_distribution(2, Distribution::from_parts(&owners2)).unwrap();
        let mut fresh = DynamicSession::new(session2, csr2, job(Method::XtraPulp, 2)).unwrap();
        let mut grow_first = UpdateBatch::new();
        grow_first.add_vertices(1).insert_edge(120, 1);
        fresh.apply_updates(&grow_first).unwrap();
        assert_eq!(fresh.repartition().unwrap().report.parts.len(), 121);
    }

    /// A batch of `deletes` existing edges and `inserts` absent ones, picked
    /// deterministically from the live graph `csr` by `salt`.
    fn edit_batch(csr: &Csr, salt: u64, inserts: u64, deletes: u64) -> UpdateBatch {
        let n = csr.num_vertices() as u64;
        let mut batch = UpdateBatch::new();
        let mut deleted = Vec::new();
        for k in 0..deletes {
            let u = (k * 97 + salt * 13) % n;
            let row = csr.neighbors(u);
            if let Some(&v) = row.get(k as usize % row.len().max(1)) {
                if !deleted.contains(&(u.min(v), u.max(v))) {
                    deleted.push((u.min(v), u.max(v)));
                    batch.delete_edge(u, v);
                }
            }
        }
        for k in 0..inserts {
            let (u, v) = ((k * 131 + salt * 7) % n, (k * 211 + salt * 17 + 1) % n);
            if u != v && !csr.neighbors(u).contains(&v) {
                batch.insert_edge(u, v);
            }
        }
        batch
    }

    /// `session`'s carried counts, when it has any, equal a count of its part vector
    /// (unassigned entries included) over the live graph from scratch.
    fn assert_carried_counts_exact(session: &mut DynamicSession, what: &str) {
        let csr = session.csr();
        let p = session.job.params.num_parts;
        if let (Some(counts), Some(parts)) = (&session.counts, &session.parts) {
            assert_eq!(*counts, PartCounts::of(&csr, parts, p), "{what}");
        }
    }

    /// The quality of `parts` over the session's rank graphs, by `evaluate_dist`.
    fn evaluate_dist(session: &mut DynamicSession, parts: &[i32]) -> PartitionQuality {
        let p = session.job.params.num_parts;
        let graphs = &session.graphs;
        let per_rank = session.session.execute(|ctx| {
            let graph = rank_graph(graphs, ctx);
            let local: Vec<i32> = (0..graph.n_total() as u32)
                .map(|v| parts[graph.global_id(v) as usize])
                .collect();
            PartitionQuality::evaluate_dist(ctx, graph, &local, p)
        });
        per_rank[0]
    }

    /// The oracle of the carried counts: at every epoch of churn, deletion-heavy and
    /// growth batches — with one growth batch big enough that its seed falls back to the
    /// cold schedule, and a partition installed by `seed_partition` — the counts the
    /// session carries equal a count from scratch, and the reported quality equals
    /// `evaluate_dist` of the reported parts, over every distribution and 1–4 ranks. A
    /// warm epoch that took carried counts reads fewer arcs than one count of the graph.
    #[test]
    fn carried_counts_equal_a_count_from_scratch_at_every_epoch() {
        let base = ba_csr(400, 21);
        for nranks in 1..=4 {
            let owners: Vec<i32> = (0..400).map(|v| v * 7 % 5 % nranks).collect();
            for dist in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::Hashed,
                Distribution::from_parts(&owners),
            ] {
                let label = format!("{nranks} ranks, {dist:?}");
                let session = Session::with_distribution(nranks as usize, dist).unwrap();
                let job = job(Method::XtraPulp, 6);
                let mut dyn_session = DynamicSession::new(session, base.clone(), job).unwrap();
                let mut fallbacks = 0;
                for epoch in 0..9u64 {
                    let live = dyn_session.csr();
                    let n = live.num_vertices() as u64;
                    let mut batch = match epoch {
                        // Growth: 40 vertices, every one hanging off vertex 0, which
                        // puts them all in one part.
                        3 => {
                            let mut batch = UpdateBatch::new();
                            batch.add_vertices(40);
                            for v in n..n + 40 {
                                batch.insert_edge(v, 0);
                            }
                            batch
                        }
                        // Deletion-heavy.
                        2 | 6 => edit_batch(&live, epoch, 2, 30),
                        // Growth spread over the graph, new vertices joined to each other.
                        4 => {
                            let mut batch = edit_batch(&live, epoch, 4, 4);
                            batch.add_vertices(6);
                            for v in n..n + 6 {
                                batch.insert_edge(v, v * 31 % n).insert_edge(v, v * 17 % n);
                            }
                            batch.insert_edge(n, n + 1);
                            batch
                        }
                        // Churn.
                        _ => edit_batch(&live, epoch, 12, 12),
                    };
                    if epoch == 0 {
                        batch = UpdateBatch::new();
                    }
                    if epoch == 7 {
                        // A recovered session: the partition comes without counts.
                        let parts = dyn_session.parts().unwrap().to_vec();
                        dyn_session.seed_partition(parts).unwrap();
                    }
                    if epoch > 0 {
                        dyn_session.apply_updates(&batch).unwrap();
                    }
                    let what = format!("{label}, epoch {epoch}");
                    assert_carried_counts_exact(&mut dyn_session, &format!("{what}, applied"));
                    let carried = dyn_session.counts.is_some();
                    let report = dyn_session.repartition().unwrap();
                    assert_carried_counts_exact(&mut dyn_session, &format!("{what}, job"));
                    assert!(dyn_session.counts.is_some(), "{what}");
                    let quality = evaluate_dist(&mut dyn_session, &report.report.parts);
                    assert_eq!(report.report.quality, quality, "{what}");
                    let fell_back = report.stages.balance_sweeps > 0;
                    fallbacks += u64::from(report.warm_start && fell_back);
                    let arcs = dyn_session.csr().num_arcs();
                    if carried && !fell_back {
                        assert!(
                            report.arcs_counted < arcs,
                            "{what}: {}",
                            report.arcs_counted
                        );
                    }
                }
                assert!(fallbacks > 0, "{label}: no warm seed fell back");
            }
        }
    }

    #[test]
    fn dynamic_report_serialises_with_the_dynamic_fields() {
        let csr = ba_csr(200, 6);
        let mut dyn_session = DynamicSession::spawn(1, csr, job(Method::Pulp, 2)).unwrap();
        let report = dyn_session.repartition().unwrap();
        let json = report.to_json();
        for key in ["\"epoch\":0", "\"warm_start\":false", "\"lp_sweeps\":"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let summary = report.to_json_summary();
        assert!(!summary.contains("\"parts\""));
        assert!(summary.contains("\"vertices_migrated\""));
    }
}
