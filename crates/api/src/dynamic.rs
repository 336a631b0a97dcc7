//! The dynamic partitioning session: apply updates, repartition warm, report.

use serde::Serialize;
use xtrapulp::metrics::PartitionQuality;
use xtrapulp::sweep::StageBreakdown;
use xtrapulp::{validate_warm_start, PartitionError};
use xtrapulp_dynamic::{
    seed_from_previous, DynamicGraph, GraphDelta, UpdateBatch, UpdateError, UpdateSummary,
};
use xtrapulp_graph::{Csr, DistGraph, GlobalId, UNASSIGNED};

use crate::report::PartitionReport;
use crate::session::{PartitionJob, Session};

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
/// `DynamicSession` owns a [`Session`] (and through it the persistent rank runtime), the
/// authoritative [`DynamicGraph`], and the partition of the latest epoch. The serving
/// loop is `apply_updates` → `repartition` → [`DynamicReport`]:
///
/// * [`apply_updates`](DynamicSession::apply_updates) validates a batch against the live
///   topology and applies it incrementally — including to the per-rank
///   [`DistGraph`]s, which are kept alive across epochs and evolved with
///   [`DistGraph::apply_delta`] instead of being redistributed from the CSR each time.
/// * [`repartition`](DynamicSession::repartition) runs the session's job: from scratch
///   on the first call (and for methods without warm-start support), warm-started from
///   the previous epoch's part vector afterwards — new vertices are assigned greedily
///   and only a short refinement schedule runs, which is what makes repartitioning after
///   a small mutation much cheaper than a cold run.
///
/// A rejected batch or malformed job leaves the session (and its graph) untouched.
///
/// Works the same over a multi-process [`Session::with_runtime`]: every process wraps
/// its session, feeds it the same batches in the same order, and gets identical reports
/// (an epoch's job is the one [`Session::submit`] runs, over the kept graphs).
pub struct DynamicSession {
    session: Session,
    job: PartitionJob,
    graph: DynamicGraph,
    /// Latest partition, kept at graph length (`UNASSIGNED` for vertices added since).
    parts: Option<Vec<i32>>,
    /// Global ids touched by the update batches applied since the last repartition
    /// (edge endpoints and added vertices), deduplicated; seeds the warm run's
    /// refinement frontier. `None` until the first partition exists.
    touched: Option<Vec<GlobalId>>,
    cold_lp_sweeps: u64,
    cold_vertices_scored: u64,
    /// One distributed graph per rank the session hosts, built lazily for distributed
    /// methods and evolved incrementally on every update batch.
    rank_graphs: Option<Vec<DistGraph>>,
}

impl DynamicSession {
    /// Wrap a session and an initial graph. The first [`repartition`] is a cold run.
    ///
    /// [`repartition`]: DynamicSession::repartition
    pub fn new(session: Session, csr: Csr, job: PartitionJob) -> Result<Self, PartitionError> {
        job.params.validate()?;
        Ok(DynamicSession {
            session,
            job,
            graph: DynamicGraph::new(csr),
            parts: None,
            touched: None,
            cold_lp_sweeps: 0,
            cold_vertices_scored: 0,
            rank_graphs: None,
        })
    }

    /// Convenience: spawn a fresh `nranks`-rank session around the graph.
    pub fn spawn(nranks: usize, csr: Csr, job: PartitionJob) -> Result<Self, PartitionError> {
        DynamicSession::new(Session::new(nranks)?, csr, job)
    }

    /// The live graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of update batches applied so far.
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
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

    /// Tear the dynamic layer down, returning the inner session.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Install `parts` as the session's current partition without running a job —
    /// the crash-recovery path, seeding a replayed topology from a durable
    /// checkpoint taken at exactly this graph state. The next
    /// [`repartition`](DynamicSession::repartition) warm-starts from it with an
    /// empty touched set, as if the partition had been computed in-session.
    pub(crate) fn seed_partition(&mut self, parts: Vec<i32>) -> Result<(), PartitionError> {
        validate_warm_start(self.graph.num_vertices(), self.job.params.num_parts, &parts)?;
        self.parts = Some(parts);
        self.touched = Some(Vec::new());
        Ok(())
    }

    /// Validate one update batch against the live topology and apply it: the CSR is
    /// rebuilt incrementally, the per-rank distributed graphs (when built) evolve via
    /// [`DistGraph::apply_delta`], and the carried part vector is extended with
    /// [`UNASSIGNED`] entries for new vertices. A rejected batch changes nothing.
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
        let delta = self.graph.validate(batch)?;
        // Growth under an Explicit ownership table is handled in the graph layer:
        // `DistGraph::apply_delta` (and the from-CSR build paths) extend the table by
        // hashing the new tail vertices to ranks, so no method/distribution combination
        // rejects a valid batch.
        if let Some(graphs) = self.rank_graphs.take() {
            // As in the job, a rank finds the graph it built (`graphs` holds only the
            // ranks this process hosts); were one missing, the next repartition rebuilds.
            let updated = self.session.execute(|ctx| {
                let graph = graphs.iter().find(|graph| graph.rank() == ctx.rank())?;
                Some(graph.apply_delta(ctx, &delta))
            });
            self.rank_graphs = updated.into_iter().collect();
        }
        let summary = self.graph.apply_validated(&delta);
        if let Some(parts) = self.parts.take() {
            self.parts = Some(seed_from_previous(&parts, &delta));
        }
        if let Some(touched) = self.touched.as_mut() {
            touched.extend(delta.touched_including_added());
            touched.sort_unstable();
            touched.dedup();
        }
        Ok((summary, delta))
    }

    /// Partition the current epoch's graph and report.
    ///
    /// Runs warm-started from the previous partition whenever one exists and the
    /// session's method supports it ([`crate::Method::supports_warm_start`]); otherwise
    /// from scratch. The report's `vertices_migrated` and `lp_sweeps`/`cold_lp_sweeps` fields
    /// quantify the incremental behaviour.
    pub fn repartition(&mut self) -> Result<DynamicReport, PartitionError> {
        let warm_start = self.job.method.supports_warm_start() && self.parts.is_some();
        // The touched set accumulated since the last repartition scopes the warm run's
        // refinement frontier; it is consumed (and reset) by this run.
        let touched = self.touched.take().filter(|_| warm_start);
        let warm_seed = self.parts.as_deref().filter(|_| warm_start);
        if self.job.method.is_distributed() && self.rank_graphs.is_none() {
            self.rank_graphs = Some(self.session.build_rank_graphs(self.graph.csr()));
        }
        let outcome = self.session.run_job(
            &self.job,
            self.graph.csr(),
            self.rank_graphs.as_deref(),
            warm_seed.map(|seed| (seed, touched.as_deref())),
        )?;
        let (lp_sweeps, vertices_scored, stages) =
            (outcome.lp_sweeps, outcome.vertices_scored, outcome.stages);
        let report = self.session.report(&self.job, self.graph.csr(), outcome);

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
        // From here on the partition matches the live graph exactly: the next warm run
        // only needs to look at whatever future batches touch.
        self.touched = Some(Vec::new());
        Ok(DynamicReport {
            report,
            epoch: self.graph.epoch(),
            warm_start,
            vertices_migrated,
            lp_sweeps,
            cold_lp_sweeps: self.cold_lp_sweeps,
            vertices_scored,
            cold_vertices_scored: self.cold_vertices_scored,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use xtrapulp::PartitionParams;
    use xtrapulp_gen::{GraphConfig, GraphKind};
    use xtrapulp_graph::Distribution;

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
        let mut dyn_session = DynamicSession::spawn(2, csr, job(Method::XtraPulp, 4)).unwrap();
        dyn_session.repartition().unwrap();
        let mut bad = UpdateBatch::new();
        bad.delete_edge(0, 299); // almost surely not an edge
        if dyn_session.graph().csr().neighbors(0).contains(&299) {
            return; // pathological seed; nothing to test
        }
        assert!(dyn_session.apply_updates(&bad).is_err());
        assert_eq!(dyn_session.epoch(), 0);
        // The session still serves jobs afterwards.
        let report = dyn_session.repartition().unwrap();
        assert_eq!(report.report.parts.len(), 300);
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
