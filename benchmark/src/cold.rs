//! `cold_rmat` and `cold_tcp`: from-scratch partition jobs over a small corpus of
//! R-MAT graphs, on four in-process ranks or on a four-rank TCP mesh over loopback.
//!
//! One thread (the caller) generates the load. The ranks live behind worker threads:
//! one worker owning a 4-rank in-process `Session`, or four workers each owning one
//! TCP endpoint. A job is broadcast to every worker and timed on worker 0 (which
//! hosts rank 0), so both backends run through the same loop.

use std::net::TcpListener;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::partitioner::assemble_gathered_parts;
use xtrapulp::{try_xtrapulp_partition, PartitionParams};
use xtrapulp_api::{Method, PartitionJob, PartitionReport, Session};
use xtrapulp_comm::{CommStatsSnapshot, PhaseTimer, Runtime, TcpConfig, TcpTransport};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{Csr, DistGraph, Distribution, LocalId};

use crate::harness::{
    cpu_seconds, estimate, hash_parts, parts_valid, quantile, setup_repeated, timed, timed_reps,
    Config, Metrics, Outcome, Rep, StealWatch, Workload, MIN_REPS_PER_INPUT, NUM_PARTS,
};
use crate::{micro, trace};

const NRANKS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    InProc,
    Tcp,
}

/// What distinguishes the two cold workloads.
struct Spec {
    backend: Backend,
    /// log2 of each graph's vertex count (edge factor 16).
    scale: u32,
    /// Graphs in the corpus. Several graphs per run, because one R-MAT draw's edge
    /// imbalance moves ±4% with the seed and its job time ±5%; the corpus mean
    /// moves half as much.
    graphs: usize,
}

fn spec(cfg: &Config) -> Spec {
    let backend = match cfg.workload {
        Workload::ColdRmat => Backend::InProc,
        _ => Backend::Tcp,
    };
    if cfg.quick {
        return Spec {
            backend,
            scale: 10,
            graphs: 2,
        };
    }
    match backend {
        // ~442k edges, ~1 s a job: sweep scoring in `core` dominates.
        Backend::InProc => Spec {
            backend,
            scale: 15,
            graphs: 4,
        },
        // ~102k edges: the same ~4.6k frames a job as scale 15 over an eighth of
        // the compute, so the transport's per-frame cost shows.
        Backend::Tcp => Spec {
            backend,
            scale: 13,
            graphs: 4,
        },
    }
}

/// The run's inputs: graph `g` is generated and partitioned with seed `seed·1000+g`.
struct Corpus {
    graphs: Vec<Csr>,
    params: Vec<PartitionParams>,
}

impl Corpus {
    fn generate(cfg: &Config, spec: &Spec) -> Corpus {
        let mut graphs = Vec::new();
        let mut params = Vec::new();
        for g in 0..spec.graphs as u64 {
            let seed = cfg.seed.wrapping_mul(1000).wrapping_add(g);
            let kind = GraphKind::Rmat {
                scale: spec.scale,
                edge_factor: 16,
            };
            let edges = {
                let _span = trace::span("gen.generate");
                GraphConfig::new(kind, seed).generate()
            };
            let _span = trace::span("graph.csr_build");
            graphs.push(edges.to_csr());
            params.push(PartitionParams {
                num_parts: NUM_PARTS,
                seed,
                ..Default::default()
            });
        }
        Corpus { graphs, params }
    }
}

enum Cmd {
    /// The product path: `Session::partition` on graph `usize`.
    Partition(usize),
    /// The same job through each layer's public functions, spans around each call.
    Layered {
        graph: usize,
        parent: u32,
    },
    /// `Session::submit` of `Method::Random`: the facade without any sweeps.
    RandomJob(usize),
    CommMicro,
    Stop,
}

enum Reply {
    Job {
        wall_s: f64,
        report: Box<PartitionReport>,
    },
    Layered(Box<Layered>),
    CommMicro(micro::CommMicro),
}

/// What the layered job learned that `PartitionReport` does not carry.
struct Layered {
    wall_s: f64,
    parts: Vec<i32>,
    quality: PartitionQuality,
    /// Per-phase wall time, max over this worker's ranks.
    timings: PhaseTimer,
    /// Summed over this worker's ranks.
    comm: CommStatsSnapshot,
    lp_sweeps: u64,
    vertices_scored: u64,
    /// Summed over this worker's ranks.
    ghost_bytes: u64,
    /// Max over this worker's ranks.
    dist_build_s: f64,
}

struct Worker {
    tx: Sender<Cmd>,
    rx: Receiver<Reply>,
    thread: Option<JoinHandle<()>>,
}

/// The ranks, behind their worker threads.
struct Mesh {
    workers: Vec<Worker>,
}

impl Mesh {
    /// Spawn the workers and wait until every session is up (for TCP: until the
    /// full mesh is connected).
    fn start(backend: Backend, corpus: &Arc<Corpus>) -> Mesh {
        let nworkers = match backend {
            Backend::InProc => 1,
            Backend::Tcp => NRANKS,
        };
        let coordinator = format!("127.0.0.1:{}", free_port());
        let mut ready = Vec::new();
        let mut workers = Vec::new();
        for index in 0..nworkers {
            let (cmd_tx, cmd_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let (ready_tx, ready_rx) = channel();
            let corpus = Arc::clone(corpus);
            let coordinator = coordinator.clone();
            let thread = std::thread::spawn(move || {
                let session = match backend {
                    Backend::InProc => Session::new(NRANKS).expect("four ranks is valid"),
                    Backend::Tcp => {
                        let mut config = TcpConfig::new(coordinator, Some(index), NRANKS);
                        // Well under the driver's 180 s limit: a wedged mesh must
                        // fail the run, not hang it.
                        config.recv_timeout = Duration::from_secs(30);
                        let transport =
                            TcpTransport::connect(&config).expect("loopback mesh connects");
                        let runtime = Runtime::with_transport(Box::new(transport))
                            .expect("the rank is in range");
                        Session::with_runtime(runtime, Distribution::Block)
                    }
                };
                ready_tx.send(()).expect("the mesh waits for its workers");
                serve_commands(session, &corpus, index == 0, &cmd_rx, &reply_tx);
            });
            ready.push(ready_rx);
            workers.push(Worker {
                tx: cmd_tx,
                rx: reply_rx,
                thread: Some(thread),
            });
        }
        for ready_rx in ready {
            ready_rx.recv().expect("a worker failed to start");
        }
        Mesh { workers }
    }

    /// Broadcast `cmd` to every worker and collect their replies, worker 0 first.
    fn call(&self, cmd: impl Fn() -> Cmd) -> Vec<Reply> {
        for worker in &self.workers {
            worker.tx.send(cmd()).expect("a worker died");
        }
        self.workers
            .iter()
            .map(|w| w.rx.recv().expect("a worker died mid-job"))
            .collect()
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for worker in &self.workers {
            // A worker that already died has dropped its receiver; nothing to stop.
            let _ = worker.tx.send(Cmd::Stop);
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                // A worker's panic already failed the run through its channel.
                let _ = thread.join();
            }
        }
    }
}

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .map(|addr| addr.port())
        .expect("loopback has a free port")
}

fn serve_commands(
    mut session: Session,
    corpus: &Corpus,
    primary: bool,
    commands: &Receiver<Cmd>,
    replies: &Sender<Reply>,
) {
    while let Ok(cmd) = commands.recv() {
        let reply = match cmd {
            Cmd::Partition(g) => {
                let (report, wall_s) =
                    timed(|| session.partition(&corpus.graphs[g], &corpus.params[g]));
                Reply::Job {
                    wall_s,
                    report: Box::new(report.expect("the corpus params are valid")),
                }
            }
            Cmd::RandomJob(g) => {
                let job = PartitionJob::new(Method::Random).with_params(corpus.params[g]);
                let (report, wall_s) = timed(|| session.submit(&job, &corpus.graphs[g]));
                Reply::Job {
                    wall_s,
                    report: Box::new(report.expect("the corpus params are valid")),
                }
            }
            Cmd::Layered { graph, parent } => Reply::Layered(Box::new(layered_job(
                &mut session,
                &corpus.graphs[graph],
                &corpus.params[graph],
                primary.then_some(parent),
            ))),
            Cmd::CommMicro => Reply::CommMicro(micro::comm(&mut session)),
            Cmd::Stop => return,
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

/// `Session::partition` taken apart: the benchmark calls `DistGraph::from_csr`,
/// `try_xtrapulp_partition`, the gather and `assemble_gathered_parts` itself, so it
/// can put a span around each. Only rank 0 records (`parent` is `None` elsewhere),
/// which keeps each repetition's span tree a single lineage.
fn layered_job(
    session: &mut Session,
    csr: &Csr,
    params: &PartitionParams,
    parent: Option<u32>,
) -> Layered {
    let start = Instant::now();
    let execute = parent.map(|p| trace::span_under("api.execute", p));
    let execute_id = execute.as_ref().map(trace::Span::id);
    let distributed = session.is_distributed();
    let per_rank = session.execute(|ctx| {
        let record = execute_id.filter(|_| ctx.rank() == 0);
        let span = |name| record.map(|id| trace::span_under(name, id));
        let (graph, dist_build_s) = {
            let _span = span("graph.dist_build");
            timed(|| DistGraph::from_csr(ctx, Distribution::Block, csr))
        };
        let result = {
            let _span = span("core.partition");
            try_xtrapulp_partition(ctx, &graph, params).expect("the corpus params are valid")
        };
        let _span = span("comm.gather_parts");
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
            (result.lp_sweeps, result.vertices_scored),
            (graph.ghost_bytes(), dist_build_s),
        )
    });
    drop(execute);

    let _span = parent.map(|p| trace::span_under("api.assemble", p));
    let mut timings = PhaseTimer::new();
    let mut comm = CommStatsSnapshot::default();
    let mut ghost_bytes = 0;
    let mut dist_build_s = 0.0f64;
    let mut pairs = Vec::new();
    let (quality, work) = (per_rank[0].1, per_rank[0].4);
    for (rank_pairs, _, rank_timings, rank_comm, _, (rank_ghosts, rank_build_s)) in per_rank {
        timings.merge_max(&rank_timings);
        comm = comm.merged(rank_comm);
        ghost_bytes += rank_ghosts;
        dist_build_s = dist_build_s.max(rank_build_s);
        // A distributed rank already gathered every pair; one copy is enough.
        if !distributed || pairs.is_empty() {
            pairs.push(rank_pairs);
        }
    }
    let parts = assemble_gathered_parts(csr.num_vertices(), params.num_parts, pairs)
        .expect("every vertex is owned by exactly one rank");
    Layered {
        wall_s: start.elapsed().as_secs_f64(),
        parts,
        quality,
        timings,
        comm,
        lp_sweeps: work.0,
        vertices_scored: work.1,
        ghost_bytes,
        dist_build_s,
    }
}

struct State {
    corpus: Arc<Corpus>,
    mesh: Mesh,
}

fn setup(cfg: &Config, spec: &Spec) -> State {
    let corpus = Arc::new(Corpus::generate(cfg, spec));
    let _span = trace::span(match spec.backend {
        Backend::InProc => "api.session_spawn",
        Backend::Tcp => "comm.mesh_connect",
    });
    let mesh = Mesh::start(spec.backend, &corpus);
    State { corpus, mesh }
}

/// Checks every job's output and remembers what the quality metrics need.
struct Checker {
    /// Hash of the first partition seen per graph; every later one must match.
    reference: Vec<Option<u64>>,
    quality: Vec<Option<PartitionQuality>>,
    failed: u64,
}

impl Checker {
    fn new(graphs: usize) -> Checker {
        Checker {
            reference: vec![None; graphs],
            quality: vec![None; graphs],
            failed: 0,
        }
    }

    /// One job's outputs, one part vector per worker: each valid, all identical,
    /// and equal to the graph's earlier partitions.
    fn job(&mut self, corpus: &Corpus, g: usize, outputs: &[(&[i32], PartitionQuality)]) {
        let n = corpus.graphs[g].num_vertices();
        let hash = hash_parts(outputs[0].0);
        let ok = outputs.iter().all(|(parts, quality)| {
            parts_valid(parts, n, quality.vertex_imbalance) && hash_parts(parts) == hash
        }) && *self.reference[g].get_or_insert(hash) == hash;
        if !ok {
            self.failed += 1;
        }
        self.quality[g] = Some(outputs[0].1);
    }

    fn replies(&mut self, corpus: &Corpus, g: usize, replies: &[Reply]) {
        let mut outputs = Vec::new();
        for reply in replies {
            match reply {
                Reply::Job { report, .. } => {
                    outputs.push((report.parts.as_slice(), report.quality))
                }
                Reply::Layered(out) => outputs.push((out.parts.as_slice(), out.quality)),
                Reply::CommMicro(_) => unreachable!("micro timings are not jobs"),
            }
        }
        self.job(corpus, g, &outputs);
    }

    /// Corpus means of the cut ratio and of max(vertex, edge imbalance).
    fn quality_means(&self) -> (f64, f64) {
        let seen: Vec<&PartitionQuality> = self.quality.iter().flatten().collect();
        let mean = |f: fn(&PartitionQuality) -> f64| {
            seen.iter().map(|q| f(q)).sum::<f64>() / seen.len() as f64
        };
        (
            mean(|q| q.edge_cut_ratio),
            mean(|q| q.vertex_imbalance.max(q.edge_imbalance)),
        )
    }
}

/// Fold every worker's layered output into worker 0's: counters sum over ranks,
/// times take the slowest rank.
fn fold_layered(replies: Vec<Reply>) -> Layered {
    let mut outputs = replies.into_iter().map(|reply| match reply {
        Reply::Layered(out) => *out,
        _ => unreachable!("a layered command gets a layered reply"),
    });
    let mut folded = outputs.next().expect("the mesh has a worker");
    for other in outputs {
        folded.comm = folded.comm.merged(other.comm);
        folded.ghost_bytes += other.ghost_bytes;
        folded.dist_build_s = folded.dist_build_s.max(other.dist_build_s);
        folded.timings.merge_max(&other.timings);
    }
    folded
}

fn wall_of(reply: &Reply) -> f64 {
    match reply {
        Reply::Job { wall_s, .. } => *wall_s,
        Reply::Layered(out) => out.wall_s,
        Reply::CommMicro(_) => unreachable!("micro timings are not jobs"),
    }
}

/// One timed job on graph `g`: worker 0's wall time is the job's latency.
fn job_rep(state: &State, checker: &mut Checker, g: usize, cmd: impl Fn() -> Cmd) -> Rep {
    let (cpu_before, watch) = (cpu_seconds(), StealWatch::start());
    let replies = state.mesh.call(cmd);
    let (cpu_s, stolen_s) = (cpu_seconds() - cpu_before, watch.stolen_s());
    checker.replies(&state.corpus, g, &replies);
    let wall_s = wall_of(&replies[0]);
    Rep {
        input: g,
        wall_s,
        latency_s: wall_s,
        cpu_s,
        ops: 1,
        work: state.corpus.graphs[g].num_edges() as f64,
        stolen_s,
    }
}

/// The same job on a fresh in-process session: the TCP partitions must be
/// bit-identical to it. Returns the job's wall time.
fn inproc_reference(state: &State, checker: &mut Checker, g: usize) -> f64 {
    let mut session = Session::new(NRANKS).expect("four ranks is valid");
    let (report, wall_s) =
        timed(|| session.partition(&state.corpus.graphs[g], &state.corpus.params[g]));
    let report = report.expect("the corpus params are valid");
    checker.job(&state.corpus, g, &[(&report.parts, report.quality)]);
    wall_s
}

pub fn run(cfg: &Config) -> Outcome {
    let spec = spec(cfg);
    if cfg.trace {
        return run_traced(cfg, &spec);
    }
    let (state, setup_s) = setup_repeated(|| setup(cfg, &spec));
    let mut checker = Checker::new(spec.graphs);
    // One untimed warm-up job: first-touch page faults and lazy initialisation.
    job_rep(&state, &mut checker, 0, || Cmd::Partition(0));

    let window = timed_reps(cfg.window(1.0), spec.graphs, |g, _| {
        job_rep(&state, &mut checker, g, || Cmd::Partition(g))
    });
    let mut attempted = 1 + window.reps.len() as u64;
    if spec.backend == Backend::Tcp {
        for g in 0..spec.graphs {
            inproc_reference(&state, &mut checker, g);
            attempted += 1;
        }
    }

    let est = estimate(&window.reps);
    let (cut, imbalance) = checker.quality_means();
    let mut metrics = Metrics::new(false);
    metrics.set("latency_s", est.latency_s);
    metrics.set("throughput_per_s", est.throughput_per_s);
    metrics.set("cpu_s_per_op", est.cpu_s_per_op);
    metrics.set("edge_cut_ratio", cut);
    metrics.set("max_imbalance", imbalance);
    metrics.set("peak_heap_mb", window.peak_heap_mb);
    metrics.set("setup_s", setup_s);
    Outcome {
        metrics,
        attempted,
        failed: checker.failed,
    }
}

fn run_traced(cfg: &Config, spec: &Spec) -> Outcome {
    trace::set_enabled(true);
    let state = setup(cfg, spec);
    let mut checker = Checker::new(spec.graphs);
    let mut metrics = Metrics::new(true);
    job_rep(&state, &mut checker, 0, || Cmd::Partition(0));

    // Untraced and traced repetitions of the same jobs; their ratio is what the
    // layered call path and its spans cost.
    let plain = timed_reps(cfg.window(0.25), spec.graphs, |g, _| {
        job_rep(&state, &mut checker, g, || Cmd::Partition(g))
    })
    .reps;
    let mut layered: Vec<Layered> = Vec::new();
    let traced = timed_reps(cfg.window(0.25), spec.graphs, |g, index| {
        trace::set_repetition(index as u32);
        let root = trace::span(trace::ROOT);
        let (cpu_before, watch) = (cpu_seconds(), StealWatch::start());
        let replies = state.mesh.call(|| Cmd::Layered {
            graph: g,
            parent: root.id(),
        });
        drop(root);
        let (cpu_s, stolen_s) = (cpu_seconds() - cpu_before, watch.stolen_s());
        checker.replies(&state.corpus, g, &replies);
        let out = fold_layered(replies);
        let rep = Rep {
            input: g,
            wall_s: out.wall_s,
            latency_s: out.wall_s,
            cpu_s,
            ops: 1,
            work: state.corpus.graphs[g].num_edges() as f64,
            stolen_s,
        };
        layered.push(out);
        rep
    })
    .reps;
    let mut attempted = 1 + (plain.len() + traced.len()) as u64;
    let plain_est = estimate(&plain);
    metrics.set(
        "trace.overhead_ratio",
        estimate(&traced).latency_s / plain_est.latency_s,
    );
    metrics.set_rep_spread(&plain);

    // Counters come from graph 0's job (they repeat exactly); layer times are the
    // means over every traced job.
    let first = &layered[0];
    let mean =
        |f: &dyn Fn(&Layered) -> f64| layered.iter().map(f).sum::<f64>() / layered.len() as f64;
    let phase = |name: &'static str| mean(&|l: &Layered| l.timings.get(name).as_secs_f64());
    metrics.set("graph.dist_build_s", mean(&|l| l.dist_build_s));
    metrics.set("graph.ghost_bytes", first.ghost_bytes as f64);
    metrics.set("core.init_s", phase("init"));
    metrics.set("core.vertex_stage_s", phase("vertex_stage"));
    metrics.set("core.edge_stage_s", phase("edge_stage"));
    metrics.set("core.rebalance_s", phase("rebalance"));
    metrics.set("core.metrics_s", phase("metrics"));
    metrics.set("core.sweep_refine_s", phase("sweep_refine"));
    metrics.set("core.sweep_balance_s", phase("sweep_balance"));
    metrics.set("core.sweep_churn_s", phase("sweep_churn"));
    metrics.set("core.lp_sweeps", first.lp_sweeps as f64);
    metrics.set("core.vertices_scored", first.vertices_scored as f64);
    metrics.set(
        "core.scored_per_s",
        mean(&|l| l.vertices_scored as f64 / l.wall_s),
    );
    metrics.set("comm.frames_sent", first.comm.frames_sent as f64);
    metrics.set("comm.collectives", first.comm.collectives as f64);
    metrics.set("comm.allreduce_calls", first.comm.allreduce_calls as f64);
    metrics.set(
        "comm.allreduce_frames",
        first.comm.per_collective.allreduce.frames as f64,
    );
    metrics.set("comm.barriers", first.comm.barriers as f64);
    metrics.set("comm.wire_bytes_sent", first.comm.wire_bytes_sent as f64);
    metrics.set("comm.alltoallv_calls", first.comm.alltoallv_calls as f64);
    metrics.set(
        "comm.alltoallv_wire_bytes",
        first.comm.per_collective.alltoallv.wire_bytes as f64,
    );

    // The q25 time of graph 0's plain jobs is the reference the single-graph
    // comparisons below divide by.
    let graph0: Vec<f64> = plain
        .iter()
        .filter(|r| r.input == 0)
        .map(|r| r.wall_s)
        .collect();
    let graph0_s = quantile(&graph0, 0.25);

    // The same job with the program's own trace rings recording.
    xtrapulp_obs::trace::set_enabled(true);
    let obs_on = timed_reps(cfg.window(0.1), 1, |_, _| {
        job_rep(&state, &mut checker, 0, || Cmd::Partition(0))
    })
    .reps;
    xtrapulp_obs::trace::set_enabled(false);
    drop(xtrapulp_obs::trace::drain());
    attempted += obs_on.len() as u64;
    metrics.set(
        "obs.enabled_overhead_ratio",
        estimate(&obs_on).latency_s / graph0_s,
    );
    metrics.set("obs.span_disabled_ns", micro::obs_span_disabled_ns());

    // Single-thread baseline: the same job on one rank.
    let serial_s = {
        let mut session = Session::new(1).expect("one rank is valid");
        let (csr, params) = (&state.corpus.graphs[0], &state.corpus.params[0]);
        let runs: Vec<f64> = (0..MIN_REPS_PER_INPUT)
            .map(|_| timed(|| session.partition(csr, params).expect("valid job")).1)
            .collect();
        quantile(&runs, 0.0)
    };
    metrics.set("core.serial_s", serial_s);
    metrics.set("core.speedup_vs_serial", serial_s / graph0_s);

    let overheads: Vec<f64> = (0..5)
        .map(|_| wall_of(&state.mesh.call(|| Cmd::RandomJob(0))[0]))
        .collect();
    metrics.set("api.job_overhead_s", quantile(&overheads, 0.5));
    let evals: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| PartitionQuality::evaluate(&state.corpus.graphs[0], &first.parts, NUM_PARTS)).1
        })
        .collect();
    metrics.set("core.quality_eval_s", quantile(&evals, 0.0));

    let Some(Reply::CommMicro(comm)) = state.mesh.call(|| Cmd::CommMicro).into_iter().next() else {
        unreachable!("a micro command gets a micro reply")
    };
    metrics.set("comm.allreduce_us", comm.allreduce_us);
    metrics.set("comm.barrier_us", comm.barrier_us);
    metrics.set("comm.alltoallv_us", comm.alltoallv_us);
    metrics.set("comm.allgatherv_us", comm.allgatherv_us);

    if spec.backend == Backend::Tcp {
        let inproc: Vec<f64> = (0..MIN_REPS_PER_INPUT.max(3))
            .map(|_| inproc_reference(&state, &mut checker, 0))
            .collect();
        attempted += inproc.len() as u64;
        metrics.set(
            "comm.tcp_over_inproc_ratio",
            graph0_s / quantile(&inproc, 0.25),
        );
    }

    let summary = trace::finish();
    metrics.set("gen.generate_s", summary.total_s("gen.generate"));
    metrics.set("graph.csr_build_s", summary.total_s("graph.csr_build"));
    metrics.set("api.session_spawn_s", summary.total_s("api.session_spawn"));
    metrics.set("comm.mesh_connect_s", summary.total_s("comm.mesh_connect"));
    metrics.set("trace.coverage_ratio", summary.coverage_ratio());
    crate::write_trace(cfg, &summary, &metrics);
    Outcome {
        metrics,
        attempted,
        failed: checker.failed,
    }
}
