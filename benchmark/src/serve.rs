//! `serve_churn`: a closed-loop producer saturating a two-rank serving session with
//! churn batches while it reads the epoch store between submits.
//!
//! A repetition is a lap: a fresh `ServingSession` over the same base graph ingests
//! the same batches from one blocking producer (it waits only on backpressure), and
//! the lap ends when the last batch's epoch is published. The worker takes one batch
//! per epoch, so the served trajectory is a pure function of the inputs and the
//! final partition can be checked against a lock-step `DynamicSession` replay.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::PartitionParams;
use xtrapulp_api::{DynamicReport, DynamicSession, Method, PartitionJob, ServingSession};
use xtrapulp_comm::Runtime;
use xtrapulp_dynamic::UpdateBatch;
use xtrapulp_gen::{generate_stream, GraphConfig, GraphKind, StreamKind, UpdateStreamConfig};
use xtrapulp_graph::distribution::splitmix64;
use xtrapulp_graph::{Csr, DistGraph, Distribution, GraphDelta};
use xtrapulp_serve::{
    BatchPolicy, EpochStore, IngestQueue, PartitionSnapshot, RepartitionEngine, ServeConfig,
    ServeLatencies, ServeStats,
};

use crate::harness::{
    cpu_seconds, estimate, hash_parts, parts_valid, quantile, setup_repeated, timed, timed_reps,
    Config, Metrics, Outcome, Rep, StealWatch, NUM_PARTS,
};
use crate::{micro, trace};

const NRANKS: usize = 2;
/// Share of the base graph's edges each batch mutates (half deletes, half inserts).
const CHURN: f64 = 0.005;
/// Batches the ingest queue holds before the producer blocks.
const QUEUE_BATCHES: usize = 4;

struct Sizes {
    /// log2 of each base graph's vertex count (Barabási–Albert, 8 edges a vertex:
    /// skewed like the paper's social graphs, and its partitions meet both balance
    /// targets, so warm epochs stay on the warm path).
    scale: u32,
    /// Base graphs (each with its own stream) the laps rotate over: how soon a
    /// stream's warm sweeps converge moves one input's lap time ±20% with the seed.
    inputs: usize,
    /// Sixteen and not eight: a lap's fresh session costs as much as eight batches,
    /// and over ten seeds on a busy host the longer lap's estimates spread half as
    /// far (18% against 43%, alternating runs).
    batches_per_lap: usize,
    lookups_per_burst: u64,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.quick {
        Sizes {
            scale: 10,
            inputs: 2,
            batches_per_lap: 4,
            lookups_per_burst: 1_000,
        }
    } else {
        Sizes {
            scale: 15,
            inputs: 4,
            batches_per_lap: 16,
            lookups_per_burst: 20_000,
        }
    }
}

/// The base graph and churn stream shared with `analytics_churn`.
pub struct ChurnInputs {
    pub base: Csr,
    pub batches: Vec<UpdateBatch>,
    pub job: PartitionJob,
}

impl ChurnInputs {
    pub fn generate(seed: u64, scale: u32, churn: f64, num_batches: usize) -> ChurnInputs {
        let kind = GraphKind::BarabasiAlbert {
            num_vertices: 1 << scale,
            edges_per_vertex: 8,
        };
        let edges = {
            let _span = trace::span("gen.generate");
            GraphConfig::new(kind, seed).generate()
        };
        let base = {
            let _span = trace::span("graph.csr_build");
            edges.to_csr()
        };
        let stream = {
            let _span = trace::span("gen.stream");
            generate_stream(
                &edges,
                &UpdateStreamConfig {
                    kind: StreamKind::RandomChurn {
                        ops_per_batch: ((base.num_edges() as f64 * churn) as usize).max(8),
                        delete_fraction: 0.5,
                    },
                    num_batches,
                    seed,
                },
            )
        };
        let batches = (0..num_batches)
            .map(|i| UpdateBatch::from_ops(stream.batch_ops(i)))
            .collect();
        let job = PartitionJob::new(Method::XtraPulp).with_params(PartitionParams {
            num_parts: NUM_PARTS,
            seed,
            ..Default::default()
        });
        ChurnInputs { base, batches, job }
    }

    /// The batches compiled against the growing vertex count, in order.
    pub fn deltas(&self) -> Vec<GraphDelta> {
        let mut n = self.base.num_vertices() as u64;
        self.batches
            .iter()
            .map(|batch| {
                let delta = batch.compile(n).expect("the generated stream is valid");
                n = delta.new_n();
                delta
            })
            .collect()
    }
}

struct State {
    /// Input `g` is generated with seed `seed·1000+g`.
    corpus: Vec<ChurnInputs>,
    config: ServeConfig,
    lookups_per_burst: u64,
    /// The session set-up spawned on input 0 (cold epoch 0 included); the warm-up
    /// lap uses it.
    first: Option<ServingSession>,
}

fn setup(cfg: &Config, sizes: &Sizes) -> State {
    let corpus: Vec<ChurnInputs> = (0..sizes.inputs as u64)
        .map(|g| {
            let seed = cfg.seed.wrapping_mul(1000).wrapping_add(g);
            ChurnInputs::generate(seed, sizes.scale, CHURN, sizes.batches_per_lap)
        })
        .collect();
    let batch_ops = corpus
        .iter()
        .flat_map(|inputs| inputs.batches.iter().map(UpdateBatch::len))
        .max()
        .unwrap_or(1);
    let config = ServeConfig {
        queue_capacity_ops: QUEUE_BATCHES * batch_ops,
        // One batch per epoch: grouping would make the epoch sequence depend on
        // how the producer and the worker happen to interleave.
        policy: BatchPolicy {
            max_group_ops: batch_ops,
            max_group_batches: 1,
        },
        ..ServeConfig::default()
    };
    let mut state = State {
        corpus,
        config,
        lookups_per_burst: sizes.lookups_per_burst,
        first: None,
    };
    state.first = Some(state.spawn(0));
    state
}

impl Drop for State {
    fn drop(&mut self) {
        // A set-up whose session was never used (the repeated set-ups that only
        // time `setup_s`): stop its worker and rank threads before moving on.
        if let Some(serving) = self.first.take() {
            let _ = serving.shutdown();
        }
    }
}

impl State {
    fn spawn(&self, g: usize) -> ServingSession {
        let _span = trace::span("api.session_spawn");
        ServingSession::spawn_with_config(
            NRANKS,
            self.corpus[g].base.clone(),
            self.corpus[g].job.clone(),
            self.config,
        )
        .expect("the serving job is valid")
    }

    fn batches_per_lap(&self) -> u64 {
        self.corpus[0].batches.len() as u64
    }
}

/// What the producer saw while driving one lap.
struct Drive {
    lap_s: f64,
    cpu_s: f64,
    stolen_s: f64,
    /// Seconds the producer spent inside `submit` (backpressure).
    blocked_s: f64,
    /// Mean nanoseconds per `EpochStore::part_of` in the read bursts.
    part_of_ns: f64,
    published: bool,
}

/// Submit every batch of input `g`, reading the store after each submit, then wait
/// for the last batch's epoch.
fn drive(state: &State, g: usize, queue: &IngestQueue, store: &EpochStore) -> Drive {
    let inputs = &state.corpus[g];
    let n = inputs.base.num_vertices() as u64;
    let (cpu_before, watch) = (cpu_seconds(), StealWatch::start());
    let start = Instant::now();
    let mut blocked_s = 0.0;
    let mut read_s = 0.0;
    let mut vertex = inputs.job.params.seed;
    let mut checksum = 0i64;
    let mut accepted = true;
    for batch in &inputs.batches {
        let batch = batch.clone();
        let (submitted, submit_s) = {
            let _span = trace::span("serve.submit");
            timed(|| queue.submit(batch))
        };
        accepted &= submitted.is_ok();
        blocked_s += submit_s;
        let _span = trace::span("serve.read_burst");
        let burst = Instant::now();
        for _ in 0..state.lookups_per_burst {
            vertex = splitmix64(vertex);
            checksum += store.part_of(vertex % n).unwrap_or(-1) as i64;
        }
        read_s += burst.elapsed().as_secs_f64();
    }
    std::hint::black_box(checksum);
    let published = {
        let _span = trace::span("serve.wait_publish");
        store
            .wait_for_epoch(inputs.batches.len() as u64, Duration::from_secs(60))
            .is_some()
    };
    let lookups = state.lookups_per_burst * inputs.batches.len() as u64;
    Drive {
        lap_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu_before,
        stolen_s: watch.stolen_s(),
        blocked_s,
        part_of_ns: read_s * 1e9 / lookups as f64,
        published: accepted && published,
    }
}

/// Everything one lap produced, for the estimator, the checks and the traced run.
struct Lap {
    input: usize,
    drive: Drive,
    latencies: ServeLatencies,
    stats: ServeStats,
    store_bytes: u64,
    /// Quality of the last published epoch.
    quality: PartitionQuality,
    /// Hash of the session's final partition, and whether it is a valid one.
    parts_hash: u64,
    parts_valid: bool,
    /// Edges in the session's live graph after the lap.
    num_edges: u64,
}

impl Lap {
    /// Close a driven lap: keep the pipeline's counters and what the checks need of
    /// the (shut down) session's final state.
    fn close(
        input: usize,
        drive: Drive,
        latencies: ServeLatencies,
        store: &EpochStore,
        session: &DynamicSession,
        stats: ServeStats,
    ) -> Lap {
        let quality = store.current().quality;
        let parts = session.parts().unwrap_or(&[]);
        Lap {
            input,
            drive,
            latencies,
            stats,
            store_bytes: store.approx_bytes(),
            quality,
            parts_hash: hash_parts(parts),
            parts_valid: parts_valid(
                parts,
                session.graph().num_vertices(),
                quality.vertex_imbalance,
            ),
            num_edges: session.graph().num_edges(),
        }
    }

    fn rep(&self, state: &State) -> Rep {
        let batches = &state.corpus[self.input].batches;
        Rep {
            input: self.input,
            wall_s: self.drive.lap_s,
            // One sample per applied batch; the mean is exact where the
            // histogram's percentiles are bucketed.
            latency_s: self.latencies.ingest_to_publish_nanos.mean() * 1e-9,
            cpu_s: self.drive.cpu_s,
            ops: batches.len() as u64,
            work: batches.iter().map(|b| b.len() as f64).sum(),
            stolen_s: self.drive.stolen_s,
        }
    }
}

/// One lap of input `g` on the product path, `ServingSession`.
fn lap(state: &State, g: usize, serving: ServingSession) -> Lap {
    let (queue, store) = (serving.queue(), serving.store());
    let drive = drive(state, g, &queue, &store);
    let latencies = serving.latencies();
    let (session, stats) = serving.shutdown().expect("the serve worker exits cleanly");
    Lap::close(g, drive, latencies, &store, &session, stats)
}

/// The serving engine with spans around its calls into the dynamic layer: what
/// `ServingSession` wraps, minus durability, assembled from public pieces.
struct SpannedEngine {
    session: DynamicSession,
    pending: Vec<GraphDelta>,
    /// The lap's root span, which the worker thread's spans hang under.
    parent: Arc<AtomicU32>,
}

impl RepartitionEngine for SpannedEngine {
    type Error = String;

    fn apply(&mut self, batch: &UpdateBatch) -> Result<(), String> {
        let _span = trace::span_under("dynamic.apply", self.parent.load(Ordering::SeqCst));
        let (_, delta) = self
            .session
            .apply_updates_with_delta(batch)
            .map_err(|e| e.to_string())?;
        self.pending.push(delta);
        Ok(())
    }

    fn repartition(&mut self) -> Result<PartitionSnapshot, String> {
        let _span = trace::span_under("dynamic.repartition", self.parent.load(Ordering::SeqCst));
        let report = self.session.repartition().map_err(|e| e.to_string())?;
        Ok(snapshot_of(report, std::mem::take(&mut self.pending)))
    }
}

fn snapshot_of(report: DynamicReport, deltas: Vec<GraphDelta>) -> PartitionSnapshot {
    PartitionSnapshot {
        epoch: report.epoch,
        num_parts: report.report.num_parts,
        quality: report.report.quality,
        warm_start: report.warm_start,
        lp_sweeps: report.lp_sweeps,
        vertices_scored: report.vertices_scored,
        stages: report.stages,
        vertices_migrated: report.vertices_migrated,
        parts: report.report.parts,
        deltas: deltas.into(),
    }
}

/// One lap of input `g` through `xtrapulp_serve::spawn` around a [`SpannedEngine`].
fn spanned_lap(state: &State, g: usize, index: u32) -> Lap {
    let inputs = &state.corpus[g];
    let parent = Arc::new(AtomicU32::new(0));
    let mut session = {
        let _span = trace::span("api.session_spawn");
        DynamicSession::spawn(NRANKS, inputs.base.clone(), inputs.job.clone())
            .expect("the serving job is valid")
    };
    let cold = session.repartition().expect("the serving job is valid");
    let handle = xtrapulp_serve::spawn(
        SpannedEngine {
            session,
            pending: Vec::new(),
            parent: Arc::clone(&parent),
        },
        snapshot_of(cold, Vec::new()),
        state.config,
    );
    trace::set_repetition(index);
    let root = trace::span(trace::ROOT);
    parent.store(root.id(), Ordering::SeqCst);
    let (queue, store) = (handle.queue(), handle.store());
    let drive = drive(state, g, &queue, &store);
    drop(root);
    let latencies = handle.latencies();
    let (engine, stats) = handle.shutdown().expect("the serve worker exits cleanly");
    Lap::close(g, drive, latencies, &store, &engine.session, stats)
}

/// The lock-step reference: an input's batches applied and repartitioned one at a
/// time on a `DynamicSession`, no queue, no worker thread.
struct Lockstep {
    parts: Vec<i32>,
    quality: PartitionQuality,
    num_edges: u64,
    compile_s: f64,
    apply_s: f64,
    repartition_s: f64,
    warm_lp_sweeps: u64,
    warm_vertices_scored: u64,
    /// Warm attempts whose seed broke a balance target and ran the cold schedule.
    warm_fallback_epochs: u64,
    vertices_migrated: u64,
}

fn lockstep(inputs: &ChurnInputs) -> Lockstep {
    let mut session = DynamicSession::spawn(NRANKS, inputs.base.clone(), inputs.job.clone())
        .expect("the serving job is valid");
    let mut report = session.repartition().expect("the serving job is valid");
    let mut out = Lockstep {
        parts: Vec::new(),
        quality: report.report.quality,
        num_edges: 0,
        compile_s: 0.0,
        apply_s: 0.0,
        repartition_s: 0.0,
        warm_lp_sweeps: 0,
        warm_vertices_scored: 0,
        warm_fallback_epochs: 0,
        vertices_migrated: 0,
    };
    for batch in &inputs.batches {
        let n = session.graph().num_vertices() as u64;
        out.compile_s += timed(|| batch.compile(n)).1;
        let (applied, apply_s) = timed(|| session.apply_updates(batch));
        applied.expect("the generated stream is valid");
        out.apply_s += apply_s;
        let (next, repartition_s) = timed(|| session.repartition());
        report = next.expect("the serving job is valid");
        out.repartition_s += repartition_s;
        out.warm_lp_sweeps += report.lp_sweeps;
        out.warm_vertices_scored += report.vertices_scored;
        out.warm_fallback_epochs += (report.warm_start && report.stages.balance_sweeps > 0) as u64;
        out.vertices_migrated += report.vertices_migrated;
    }
    out.num_edges = session.graph().num_edges();
    out.quality = report.report.quality;
    out.parts = report.report.parts;
    out
}

/// The base graph pushed through every delta with `Csr::apply_delta` alone; returns
/// the final graph and the seconds the calls took.
fn replay_csr(inputs: &ChurnInputs) -> (Csr, f64) {
    let mut csr = inputs.base.clone();
    let mut seconds = 0.0;
    for delta in inputs.deltas() {
        let (next, s) = timed(|| csr.apply_delta(&delta));
        csr = next;
        seconds += s;
    }
    (csr, seconds)
}

/// Check every lap: nothing rejected, every batch applied and published as its own
/// epoch, the served graph's edge count equal to a plain `Csr::apply_delta` replay,
/// the final partition valid and bit-identical to the input's other laps — and, on
/// input 0, to the lock-step replay, whose own edge count must equal the plain
/// replay's. Returns `(attempted, failed)` in batches (the lock-step replay counts as
/// a lap), and input 0's lock-step pass for the traced run.
fn check(state: &State, laps: &[Lap]) -> (u64, u64, Lockstep) {
    let batches = state.batches_per_lap();
    let reference = lockstep(&state.corpus[0]);
    let replay_edges: Vec<u64> = state
        .corpus
        .iter()
        .map(|inputs| replay_csr(inputs).0.num_edges())
        .collect();
    let expected_hash = |input: usize| match input {
        0 => hash_parts(&reference.parts),
        _ => laps
            .iter()
            .find(|lap| lap.input == input)
            .map_or(0, |lap| lap.parts_hash),
    };
    let bad = laps
        .iter()
        .filter(|lap| {
            !(lap.drive.published
                && lap.stats.batches_rejected == 0
                && lap.stats.repartition_failures == 0
                && lap.stats.batches_applied == batches
                && lap.stats.epochs_published == batches
                && lap.num_edges == replay_edges[lap.input]
                && lap.parts_valid
                && lap.parts_hash == expected_hash(lap.input))
        })
        .count() as u64
        + (reference.num_edges != replay_edges[0]) as u64;
    ((laps.len() as u64 + 1) * batches, bad * batches, reference)
}

/// Means over the laps' last published epochs of the cut ratio and of
/// max(vertex, edge imbalance).
fn quality_means(laps: &[Lap]) -> (f64, f64) {
    let mean = |f: fn(&PartitionQuality) -> f64| {
        laps.iter().map(|l| f(&l.quality)).sum::<f64>() / laps.len() as f64
    };
    (
        mean(|q| q.edge_cut_ratio),
        mean(|q| q.vertex_imbalance.max(q.edge_imbalance)),
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let sizes = sizes(cfg);
    if cfg.trace {
        return run_traced(cfg, &sizes);
    }
    let (mut state, setup_s) = setup_repeated(|| setup(cfg, &sizes));
    // The warm-up lap runs on the session set-up spawned.
    let first = state.first.take().expect("set-up spawns a session");
    let warm_up = lap(&state, 0, first);
    let mut laps = Vec::new();
    let window = timed_reps(cfg.window(1.0), sizes.inputs, |g, _| {
        let lap = lap(&state, g, state.spawn(g));
        let rep = lap.rep(&state);
        laps.push(lap);
        rep
    });

    let est = estimate(&window.reps);
    // The first round of laps covers every input once, and an input's served
    // trajectory is the same in every lap.
    let (cut, imbalance) = quality_means(&laps[..sizes.inputs]);
    laps.push(warm_up);
    let (attempted, failed, _) = check(&state, &laps);
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
        failed,
    }
}

fn run_traced(cfg: &Config, sizes: &Sizes) -> Outcome {
    trace::set_enabled(true);
    let mut state = setup(cfg, sizes);
    let mut metrics = Metrics::new(true);
    let first = state.first.take().expect("set-up spawns a session");
    let warm_up = lap(&state, 0, first);

    // Untraced laps, then the same laps through the spanned engine; their ratio is
    // what the spans cost.
    let mut served = Vec::new();
    let plain = timed_reps(cfg.window(0.3), sizes.inputs, |g, _| {
        let lap = lap(&state, g, state.spawn(g));
        let rep = lap.rep(&state);
        served.push(lap);
        rep
    })
    .reps;
    let mut spanned = Vec::new();
    let traced = timed_reps(cfg.window(0.3), sizes.inputs, |g, index| {
        let lap = spanned_lap(&state, g, index as u32);
        let rep = lap.rep(&state);
        spanned.push(lap);
        rep
    })
    .reps;
    metrics.set(
        "trace.overhead_ratio",
        estimate(&traced).latency_s / estimate(&plain).latency_s,
    );
    metrics.set_rep_spread(&plain);

    // Serving-plane numbers: medians over the untraced laps.
    let over = |f: &dyn Fn(&Lap) -> f64| quantile(&served.iter().map(f).collect::<Vec<f64>>(), 0.5);
    let publish_p50 = over(&|l: &Lap| l.stats.publish_seconds_p50);
    let i2p_p50 = over(&|l: &Lap| l.stats.ingest_to_publish_seconds_p50);
    metrics.set("serve.publish_p50_s", publish_p50);
    metrics.set(
        "serve.publish_p99_s",
        over(&|l: &Lap| l.stats.publish_seconds_p99),
    );
    metrics.set("serve.i2p_p50_s", i2p_p50);
    metrics.set(
        "serve.i2p_p99_s",
        over(&|l: &Lap| l.stats.ingest_to_publish_seconds_p99),
    );
    metrics.set("serve.queue_wait_s", (i2p_p50 - publish_p50).max(0.0));
    metrics.set("serve.submit_blocked_s", over(&|l: &Lap| l.drive.blocked_s));
    metrics.set(
        "serve.group_batches_mean",
        over(&|l: &Lap| l.stats.batches_applied as f64 / l.stats.epochs_published.max(1) as f64),
    );
    metrics.set(
        "serve.epochs_published",
        over(&|l: &Lap| l.stats.epochs_published as f64),
    );
    metrics.set(
        "serve.batches_rejected",
        over(&|l: &Lap| l.stats.batches_rejected as f64),
    );
    metrics.set("serve.store_bytes", over(&|l: &Lap| l.store_bytes as f64));
    metrics.set("serve.part_of_ns", over(&|l: &Lap| l.drive.part_of_ns));

    // The layers under the serving plane, called directly on input 0's batches.
    let inputs = &state.corpus[0];
    metrics.set("graph.csr_apply_delta_s", replay_csr(inputs).1);
    metrics.set(
        "graph.dist_apply_delta_s",
        dist_apply_delta_s(&inputs.base, &inputs.deltas(), NRANKS),
    );
    let laps: Vec<Lap> = served.into_iter().chain(spanned).chain([warm_up]).collect();
    let (attempted, failed, reference) = check(&state, &laps);
    metrics.set("dynamic.compile_s", reference.compile_s);
    metrics.set("dynamic.apply_s", reference.apply_s);
    metrics.set("dynamic.repartition_s", reference.repartition_s);
    metrics.set("core.warm_lp_sweeps", reference.warm_lp_sweeps as f64);
    metrics.set(
        "core.warm_vertices_scored",
        reference.warm_vertices_scored as f64,
    );
    metrics.set(
        "core.warm_fallback_epochs",
        reference.warm_fallback_epochs as f64,
    );
    metrics.set("core.vertices_migrated", reference.vertices_migrated as f64);
    let primitives = micro::serve(&reference.parts, reference.quality, &inputs.batches[0]);
    metrics.set("serve.store_publish_us", primitives.store_publish_us);
    metrics.set("serve.queue_submit_us", primitives.queue_submit_us);
    metrics.set("serve.members_us", primitives.members_us);
    metrics.set("obs.span_disabled_ns", micro::obs_span_disabled_ns());

    let summary = trace::finish();
    metrics.set("gen.generate_s", summary.total_s("gen.generate"));
    metrics.set("gen.stream_s", summary.total_s("gen.stream"));
    metrics.set("graph.csr_build_s", summary.total_s("graph.csr_build"));
    metrics.set("api.session_spawn_s", summary.mean_s("api.session_spawn"));
    metrics.set("trace.coverage_ratio", summary.coverage_ratio());
    crate::write_trace(cfg, &summary, &metrics);
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

/// Seconds to push per-rank `DistGraph`s (block-distributed over `nranks`) through
/// every delta with `DistGraph::apply_delta`, slowest rank per delta.
pub fn dist_apply_delta_s(base: &Csr, deltas: &[GraphDelta], nranks: usize) -> f64 {
    let mut runtime = Runtime::new(nranks);
    let mut graphs = runtime.execute(|ctx| DistGraph::from_csr(ctx, Distribution::Block, base));
    let mut seconds = 0.0;
    for delta in deltas {
        let stepped = runtime.execute(|ctx| timed(|| graphs[ctx.rank()].apply_delta(ctx, delta)));
        seconds += stepped.iter().map(|(_, s)| *s).fold(0.0, f64::max);
        graphs = stepped.into_iter().map(|(graph, _)| graph).collect();
    }
    seconds
}
