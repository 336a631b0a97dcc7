//! The persistent partitioning session.

use std::path::Path;

use xtrapulp::baselines::{edge_block_partition, random_partition, vertex_block_partition};
use xtrapulp::metrics::{PartCounts, PartitionQuality};
use xtrapulp::{
    run_xtrapulp_job, try_pulp_run, GraphSource, JobOutcome, PartitionError, PartitionParams,
    PulpWarmStart, SweepStats,
};
use xtrapulp_comm::{CommStatsSnapshot, PhaseTimer, RankCtx, Runtime};
use xtrapulp_graph::{Csr, DistGraph, Distribution};
use xtrapulp_multilevel::{lp_coarsen_kway, metis_like};

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
/// next job. Results are deterministic: a distributed job is [`run_xtrapulp_job`] on the
/// session's runtime, byte-identical to the same call on a fresh [`Runtime`] or to any
/// other session, in one process or many, for the same graph, parameters and rank count.
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
        Ok(Session::with_runtime(runtime, distribution))
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
        let outcome = self.run_job(job, csr, None)?;
        Ok(self.report(job, csr.num_vertices(), csr.num_edges(), outcome))
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

    /// Run `job` on `csr`, cold or — when `warm` carries the previous part vector —
    /// warm-started, and count it. This is the one dispatch on [`Method`]: XtraPuLP runs
    /// [`run_xtrapulp_job`] on the session's ranks, distributing `csr` inside the job;
    /// every other method calls its function inline on this thread, and a method
    /// without warm-start support ignores the seed.
    pub(crate) fn run_job(
        &mut self,
        job: &PartitionJob,
        csr: &Csr,
        warm: Option<PulpWarmStart<'_>>,
    ) -> Result<JobOutcome, PartitionError> {
        let params = &job.params;
        params.validate()?;
        let initial = warm.map(|(initial, _)| initial);
        let (n, k) = (csr.num_vertices() as u64, params.num_parts);
        let outcome = match job.method {
            Method::XtraPulp => {
                let source = GraphSource::Csr(csr, &self.distribution);
                run_xtrapulp_job(&mut self.runtime, source, params, warm, None)?
            }
            Method::Pulp => run_serial(csr, k, |timings, stats| {
                let run = try_pulp_run(csr, params, warm)?;
                *timings = run.timings;
                *stats = run.stats;
                Ok(run.parts)
            })?,
            Method::MetisLike => run_serial(csr, k, |_, _| metis_like(csr, params, initial))?,
            Method::LpCoarsenKway => {
                run_serial(csr, k, |_, _| lp_coarsen_kway(csr, params, initial))?
            }
            Method::Random => run_serial(csr, k, |_, _| Ok(random_partition(n, k, params.seed)))?,
            Method::VertexBlock => run_serial(csr, k, |_, _| Ok(vertex_block_partition(n, k)))?,
            Method::EdgeBlock => run_serial(csr, k, |_, _| Ok(edge_block_partition(csr, k)))?,
        };
        self.jobs_completed += 1;
        Ok(outcome)
    }

    /// Run XtraPuLP with `params` over `graphs`, per-rank graphs the caller keeps alive
    /// across jobs (see [`build_rank_graphs`](Session::build_rank_graphs)), cold or
    /// warm-started like [`run_job`](Session::run_job) — a warm start with the seed's
    /// `counts` when the caller carries them — and count it.
    pub(crate) fn run_on_ranks(
        &mut self,
        graphs: &[DistGraph],
        params: &PartitionParams,
        warm: Option<PulpWarmStart<'_>>,
        counts: Option<&PartCounts>,
    ) -> Result<JobOutcome, PartitionError> {
        let source = GraphSource::Ranks(graphs);
        let outcome = run_xtrapulp_job(&mut self.runtime, source, params, warm, counts)?;
        self.jobs_completed += 1;
        Ok(outcome)
    }

    /// The report of a job this session ran on a graph of `num_vertices` vertices and
    /// `num_edges` edges.
    pub(crate) fn report(
        &self,
        job: &PartitionJob,
        num_vertices: usize,
        num_edges: u64,
        outcome: JobOutcome,
    ) -> PartitionReport {
        let nranks = if job.method.is_distributed() {
            self.nranks()
        } else {
            1
        };
        PartitionReport {
            method: job.method.name().to_string(),
            num_parts: job.params.num_parts,
            nranks,
            num_vertices: num_vertices as u64,
            num_edges,
            parts: outcome.parts,
            quality: outcome.quality,
            timings: outcome.timings,
            comm: outcome.comm,
            trace_path: None,
        }
    }

    /// Build one [`DistGraph`] per hosted rank from `csr` on the session's persistent
    /// ranks. The result can be carried across jobs (and evolved with
    /// [`DistGraph::apply_delta`]) by the dynamic-session layer.
    pub(crate) fn build_rank_graphs(&mut self, csr: &Csr) -> Vec<DistGraph> {
        // A graph grown past an Explicit table's length gets its tail vertices hashed
        // to ranks (a no-op for the functional distributions).
        let dist = self
            .distribution
            .grown(csr.num_vertices() as u64, self.nranks());
        self.runtime
            .execute(|ctx| DistGraph::from_csr(ctx, dist.clone(), csr))
    }
}

/// Run a serial method's `partition` inline and evaluate its parts. `partition` may
/// hand back the phase timings and sweep counters of its run (PuLP's schedule phases,
/// under the names distributed runs use); the multilevel and naive methods report none,
/// and 0 sweeps. The evaluation reads every arc once, on top of any the run counted.
fn run_serial(
    csr: &Csr,
    num_parts: usize,
    partition: impl FnOnce(&mut PhaseTimer, &mut SweepStats) -> Result<Vec<i32>, PartitionError>,
) -> Result<JobOutcome, PartitionError> {
    let (mut run_timings, mut stats) = (PhaseTimer::new(), SweepStats::default());
    let mut timings = PhaseTimer::new();
    let parts = timings.time("partition", || partition(&mut run_timings, &mut stats))?;
    timings.merge_max(&run_timings);
    let quality = timings.time("metrics", || {
        PartitionQuality::evaluate(csr, &parts, num_parts)
    });
    Ok(JobOutcome {
        parts,
        quality,
        timings,
        comm: CommStatsSnapshot::default(),
        counts: None,
        lp_sweeps: stats.sweeps,
        vertices_scored: stats.vertices_scored,
        stages: stats.stages,
        arcs_counted: stats.arcs_counted + csr.num_arcs(),
    })
}
