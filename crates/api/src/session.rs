//! The persistent partitioning session.

use std::path::Path;

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::partitioner::assemble_gathered_parts;
use xtrapulp::{
    try_xtrapulp_partition, try_xtrapulp_partition_from_touched, validate_warm_start,
    PartitionError, PartitionParams, StageBreakdown,
};
use xtrapulp_comm::{CommStatsSnapshot, PhaseTimer, RankCtx, Runtime};
use xtrapulp_graph::{Csr, DistGraph, Distribution, GlobalId, LocalId};

use crate::method::Method;
use crate::report::PartitionReport;

/// A description of one partitioning request: which method to run and with which
/// parameters. The graph travels separately (by reference) so one job description can be
/// replayed across many graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionJob {
    /// The method to run.
    pub method: Method,
    /// Algorithm parameters (validated on submission, not construction).
    pub params: PartitionParams,
}

impl PartitionJob {
    /// A job running `method` with the paper-default parameters.
    pub fn new(method: Method) -> Self {
        PartitionJob {
            method,
            params: PartitionParams::default(),
        }
    }

    /// Replace the parameters.
    pub fn with_params(mut self, params: PartitionParams) -> Self {
        self.params = params;
        self
    }

    /// Replace the part count, keeping other parameters.
    pub fn with_parts(mut self, num_parts: usize) -> Self {
        self.params.num_parts = num_parts;
        self
    }
}

/// A persistent partitioning session owning a reusable rank [`Runtime`].
///
/// Constructing a session spawns its rank threads once; every subsequent
/// [`submit`](Session::submit) reuses them, so a service partitioning many graphs — or a
/// pipeline partitioning a graph and then running analytics over it — pays thread
/// spawn/teardown once instead of per call (the repo benchmark's `api.session_spawn_s`
/// and `api.job_overhead_s` measure both sides of that trade).
///
/// All request validation happens *before* a job enters the runtime, so a malformed
/// request returns a typed [`PartitionError`] and leaves the session healthy for the
/// next job. Results are deterministic: a session job produces byte-identical part
/// vectors to the legacy one-shot path for the same graph, parameters and rank count.
pub struct Session {
    runtime: Runtime,
    distribution: Distribution,
    jobs_completed: u64,
}

impl Session {
    /// Spawn a session with `nranks` rank threads and a block vertex distribution.
    pub fn new(nranks: usize) -> Result<Session, PartitionError> {
        Session::with_distribution(nranks, Distribution::Block)
    }

    /// Spawn a session with `nranks` rank threads and the given vertex distribution for
    /// distributed jobs.
    pub fn with_distribution(
        nranks: usize,
        distribution: Distribution,
    ) -> Result<Session, PartitionError> {
        if nranks == 0 {
            return Err(PartitionError::InvalidRanks { got: 0 });
        }
        let runtime = Runtime::try_new(nranks).map_err(PartitionError::Comm)?;
        Ok(Session {
            runtime,
            distribution,
            jobs_completed: 0,
        })
    }

    /// Build a session over an already-constructed runtime — notably one made
    /// with [`Runtime::with_transport`], where this process hosts one rank of
    /// a multi-process job. Distributed jobs then gather the full part vector
    /// collectively, so every participating process returns an identical
    /// report.
    pub fn with_runtime(runtime: Runtime, distribution: Distribution) -> Session {
        Session {
            runtime,
            distribution,
            jobs_completed: 0,
        }
    }

    /// True when some of this session's ranks live in other processes.
    pub fn is_distributed(&self) -> bool {
        self.runtime.is_distributed()
    }

    /// Number of ranks this session runs distributed jobs on.
    pub fn nranks(&self) -> usize {
        self.runtime.nranks()
    }

    /// The vertex distribution this session uses for distributed jobs.
    pub fn distribution(&self) -> &Distribution {
        &self.distribution
    }

    /// Jobs successfully completed over the session's lifetime.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Record a job that completed outside [`submit`](Session::submit) (the dynamic
    /// session runs warm jobs directly on the runtime), keeping
    /// [`jobs_completed`](Session::jobs_completed) accurate.
    pub(crate) fn note_job_completed(&mut self) {
        self.jobs_completed += 1;
    }

    /// Partition `csr` with XtraPuLP on the session's ranks — the common case of
    /// [`submit`](Session::submit).
    pub fn partition(
        &mut self,
        csr: &Csr,
        params: &PartitionParams,
    ) -> Result<PartitionReport, PartitionError> {
        self.submit(
            &PartitionJob::new(Method::XtraPulp).with_params(*params),
            csr,
        )
    }

    /// Run one partitioning job and return its report.
    ///
    /// Distributed methods run collectively on the session's persistent ranks; serial
    /// methods run inline on the calling thread. Either way the report carries the part
    /// vector, quality metrics, per-phase timings and communication counters.
    pub fn submit(
        &mut self,
        job: &PartitionJob,
        csr: &Csr,
    ) -> Result<PartitionReport, PartitionError> {
        job.params.validate()?;
        let report = if job.method.is_distributed() {
            self.run_distributed(job, csr)?
        } else {
            self.run_serial(job, csr)?
        };
        self.jobs_completed += 1;
        Ok(report)
    }

    /// Gather every rank's trace buffers (across all participating processes) and
    /// write one merged chrome://tracing JSON file at `path`, on rank 0's timeline.
    ///
    /// A collective: in a multi-process job every process must call it at the same
    /// point. Returns `true` on the process that wrote the file (the one hosting
    /// rank 0) and `false` on processes that only contributed their buffers.
    /// Tracing is suspended for the duration of the gather so the export's own
    /// collectives do not pollute the trace.
    pub fn export_trace(&mut self, path: &Path) -> Result<bool, PartitionError> {
        self.runtime
            .export_trace(path)
            .map_err(PartitionError::Comm)
    }

    /// Gather every rank's flight-recorder ring (across all participating
    /// processes) and write one merged post-mortem JSON file at `path`, tagged
    /// with `reason`. A collective, like [`export_trace`](Session::export_trace);
    /// the stall watchdog is suspended for the duration of the gather, so a
    /// post-stall export completes even over the transport that just stalled.
    /// Returns `true` on the process that wrote the file.
    pub fn export_flight(&mut self, path: &Path, reason: &str) -> Result<bool, PartitionError> {
        self.runtime
            .export_flight(path, reason)
            .map_err(PartitionError::Comm)
    }

    /// Arm (or with `None` disarm) the per-collective stall watchdog on this
    /// session's runtime: a rank whose current collective makes no transport
    /// progress for `deadline` trips with a typed
    /// [`CommError::Stalled`](xtrapulp_comm::CommError) and an automatic
    /// flight-recorder dump. Sampled per job; disabled by default.
    pub fn set_watchdog_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.runtime.set_watchdog_deadline(deadline);
    }

    /// Recover the session's runtime after a distributed job failed on a
    /// transport fault: every local rank runs its transport's recovery
    /// protocol (for TCP, tear down the mesh, re-rendezvous with the
    /// coordinator — waiting for a respawned replacement of any dead rank —
    /// and reconnect). On success the next [`submit`](Session::submit) runs on
    /// a fresh mesh; because jobs are deterministic, the retried job produces
    /// the identical report the faulted one would have.
    pub fn recover(&mut self) -> Result<(), PartitionError> {
        self.runtime.recover().map_err(PartitionError::Comm)
    }

    /// Run an arbitrary collective job on the session's ranks (for example analytics
    /// over a graph the session just partitioned). Delegates to [`Runtime::execute`].
    pub fn execute<F, R>(&mut self, f: F) -> Vec<R>
    where
        F: Fn(&RankCtx) -> R + Sync,
        R: Send + 'static,
    {
        self.runtime.execute(f)
    }

    fn run_distributed(
        &mut self,
        job: &PartitionJob,
        csr: &Csr,
    ) -> Result<PartitionReport, PartitionError> {
        let n = csr.num_vertices();
        if n == 0 {
            return Ok(self.empty_report(job, csr));
        }
        // An Explicit ownership table may be shorter than a graph that has since grown;
        // hash the tail vertices to ranks (a no-op for the functional distributions).
        let dist = self.distribution.grown(n as u64, self.nranks());
        let params = job.params;
        // When ranks span processes, each process holds only its own slice of
        // the part vector; an in-job allgather gives every process the whole
        // vector, keeping reports identical across the job.
        let distributed = self.runtime.is_distributed();
        type RankOut = (
            Vec<(u64, i32)>,
            PartitionQuality,
            PhaseTimer,
            CommStatsSnapshot,
        );
        let per_rank: Vec<RankOut> = self.runtime.try_execute(|ctx| {
            let graph = DistGraph::from_csr(ctx, dist.clone(), csr);
            let result = try_xtrapulp_partition(ctx, &graph, &params)
                .expect("params are validated before the job enters the runtime");
            let pairs: Vec<(u64, i32)> = (0..graph.n_owned())
                .map(|v| (graph.global_id(v as LocalId), result.parts[v]))
                .collect();
            let pairs = if distributed {
                ctx.allgatherv(pairs)
            } else {
                pairs
            };
            (
                pairs,
                result.quality,
                result.timings,
                ctx.stats().snapshot(),
            )
        })?;

        let mut quality = None;
        let mut timings = PhaseTimer::new();
        let mut comm = CommStatsSnapshot::default();
        let mut pairs = Vec::with_capacity(per_rank.len());
        for (rank_pairs, rank_quality, rank_timings, rank_comm) in per_rank {
            // Quality is allreduced inside the job, so every rank reports the same
            // global value; keep rank 0's.
            quality.get_or_insert(rank_quality);
            timings.merge_max(&rank_timings);
            comm = comm.merged(rank_comm);
            // In distributed mode every local rank already gathered the full
            // pair set; keep one copy to avoid duplicate assignments.
            if !distributed || pairs.is_empty() {
                pairs.push(rank_pairs);
            }
        }
        let parts = assemble_gathered_parts(n, job.params.num_parts, pairs)?;
        Ok(PartitionReport {
            method: job.method.name().to_string(),
            num_parts: job.params.num_parts,
            nranks: self.nranks(),
            num_vertices: csr.num_vertices() as u64,
            num_edges: csr.num_edges(),
            parts,
            quality: quality.expect("at least one rank ran the job"),
            timings,
            comm,
            trace_path: None,
        })
    }

    /// Build one [`DistGraph`] per rank from `csr` on the session's persistent ranks.
    /// The result is indexed by rank and can be carried across jobs (and evolved with
    /// [`DistGraph::apply_delta`]) by the dynamic-session layer.
    pub(crate) fn build_rank_graphs(&mut self, csr: &Csr) -> Vec<DistGraph> {
        // As in `run_distributed`: a graph grown past an Explicit table's length gets
        // its tail vertices hashed to ranks.
        let dist = self
            .distribution
            .grown(csr.num_vertices() as u64, self.nranks());
        self.runtime
            .execute(|ctx| DistGraph::from_csr(ctx, dist.clone(), csr))
    }

    /// Run one distributed partitioning job over pre-built per-rank graphs, cold or —
    /// when `initial` (a full global part vector, `-1` marking unassigned vertices) is
    /// given — warm-started. `touched` (the delta-touched global ids, identical on
    /// every rank) scopes a warm run's refinement frontier to the mutated
    /// neighbourhood. Returns the report plus the label-propagation sweep and
    /// scored-vertex counts the run executed. Used by the dynamic-session layer, which
    /// keeps the rank graphs alive across epochs instead of redistributing the CSR per
    /// job.
    pub(crate) fn run_on_rank_graphs(
        &mut self,
        job: &PartitionJob,
        graphs: &[DistGraph],
        initial: Option<&[i32]>,
        touched: Option<&[GlobalId]>,
        num_edges: u64,
    ) -> Result<(PartitionReport, u64, u64, StageBreakdown), PartitionError> {
        job.params.validate()?;
        assert_eq!(graphs.len(), self.nranks(), "one graph per rank required");
        let n = graphs[0].global_n() as usize;
        if let Some(initial) = initial {
            // Validated once, globally, before entering the runtime: every rank's slice
            // is a sub-view of this vector, so no rank can disagree inside a collective.
            validate_warm_start(n, job.params.num_parts, initial)?;
        }
        let params = job.params;
        type RankOut = (
            Vec<(u64, i32)>,
            PartitionQuality,
            PhaseTimer,
            CommStatsSnapshot,
            (u64, u64, StageBreakdown),
        );
        let per_rank: Vec<RankOut> = self.runtime.execute(|ctx| {
            let graph = &graphs[ctx.rank()];
            let result = match initial {
                Some(initial) => {
                    let owned: Vec<i32> = (0..graph.n_owned())
                        .map(|v| initial[graph.global_id(v as LocalId) as usize])
                        .collect();
                    try_xtrapulp_partition_from_touched(ctx, graph, &params, &owned, touched)
                        .expect("warm start is validated before the job enters the runtime")
                }
                None => try_xtrapulp_partition(ctx, graph, &params)
                    .expect("params are validated before the job enters the runtime"),
            };
            let pairs = (0..graph.n_owned())
                .map(|v| (graph.global_id(v as LocalId), result.parts[v]))
                .collect();
            (
                pairs,
                result.quality,
                result.timings,
                ctx.stats().snapshot(),
                (result.lp_sweeps, result.vertices_scored, result.stages),
            )
        });

        let mut quality = None;
        let mut timings = PhaseTimer::new();
        let mut comm = CommStatsSnapshot::default();
        let mut pairs = Vec::with_capacity(per_rank.len());
        let mut lp_sweeps = 0u64;
        let mut vertices_scored = 0u64;
        let mut stages = StageBreakdown::default();
        for (rank_pairs, rank_quality, rank_timings, rank_comm, rank_stats) in per_rank {
            quality.get_or_insert(rank_quality);
            timings.merge_max(&rank_timings);
            comm = comm.merged(rank_comm);
            // These counters are allreduced inside the job, so every rank reports the
            // same global value; keep the first rank's.
            lp_sweeps = lp_sweeps.max(rank_stats.0);
            vertices_scored = vertices_scored.max(rank_stats.1);
            stages = rank_stats.2;
            pairs.push(rank_pairs);
        }
        let parts = assemble_gathered_parts(n, job.params.num_parts, pairs)?;
        self.jobs_completed += 1;
        Ok((
            PartitionReport {
                method: job.method.name().to_string(),
                num_parts: job.params.num_parts,
                nranks: self.nranks(),
                num_vertices: n as u64,
                num_edges,
                parts,
                quality: quality.expect("at least one rank ran the job"),
                timings,
                comm,
                trace_path: None,
            },
            lp_sweeps,
            vertices_scored,
            stages,
        ))
    }

    fn run_serial(
        &mut self,
        job: &PartitionJob,
        csr: &Csr,
    ) -> Result<PartitionReport, PartitionError> {
        let partitioner = job.method.build(self.nranks());
        let mut timings = PhaseTimer::new();
        let parts = timings.time("partition", || partitioner.try_partition(csr, &job.params))?;
        let quality = timings.time("metrics", || {
            PartitionQuality::evaluate(csr, &parts, job.params.num_parts)
        });
        Ok(PartitionReport {
            method: job.method.name().to_string(),
            num_parts: job.params.num_parts,
            nranks: 1,
            num_vertices: csr.num_vertices() as u64,
            num_edges: csr.num_edges(),
            parts,
            quality,
            timings,
            comm: CommStatsSnapshot::default(),
            trace_path: None,
        })
    }

    fn empty_report(&self, job: &PartitionJob, csr: &Csr) -> PartitionReport {
        PartitionReport {
            method: job.method.name().to_string(),
            num_parts: job.params.num_parts,
            nranks: self.nranks(),
            num_vertices: 0,
            num_edges: csr.num_edges(),
            parts: Vec::new(),
            quality: PartitionQuality::evaluate(csr, &[], job.params.num_parts),
            timings: PhaseTimer::new(),
            comm: CommStatsSnapshot::default(),
            trace_path: None,
        }
    }
}
