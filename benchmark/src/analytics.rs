//! `analytics_churn`: the incremental analytics consumer (PageRank, components,
//! coreness) ingesting low-churn epochs under a partition fixed in set-up.
//!
//! A repetition is a lap: a fresh two-rank `AnalyticsConsumer` ingests the same
//! precompiled deltas in lock step. The partitioner, the dynamic layer and the
//! serving plane are bypassed, so a change to any of them must not move this
//! workload.

use std::time::Instant;

use xtrapulp::metrics::PartitionQuality;
use xtrapulp_analytics::{AnalyticsConsumer, EpochReport, WarmPolicy};
use xtrapulp_api::Session;
use xtrapulp_graph::GraphDelta;

use crate::harness::{
    cpu_seconds, estimate, parts_valid, quantile, setup_repeated, timed, timed_reps, Config,
    Metrics, Outcome, Rep, StealWatch,
};
use crate::serve::{dist_apply_delta_s, ChurnInputs};
use crate::{micro, trace};

const NRANKS: usize = 2;
/// Share of the base graph's edges each epoch mutates: ~3% of the vertices are
/// touched, under `WarmPolicy::default()`'s 5% cold-fallback threshold. Ten times
/// less and an epoch's cost swings 2x with what its few deletions happen to hit.
const CHURN: f64 = 0.002;

struct Sizes {
    scale: u32,
    epochs_per_lap: usize,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.quick {
        Sizes {
            scale: 10,
            epochs_per_lap: 3,
        }
    } else {
        // Twelve epochs: a lap's fresh consumer (its cold state) costs as much as
        // three, and the epochs are what is measured.
        Sizes {
            scale: 15,
            epochs_per_lap: 12,
        }
    }
}

struct State {
    inputs: ChurnInputs,
    deltas: Vec<GraphDelta>,
    /// The published partition every epoch rides in on.
    parts: Vec<i32>,
    quality: PartitionQuality,
    /// The consumer set-up built (cold state included); the warm-up lap uses it.
    first: Option<AnalyticsConsumer>,
}

fn setup(cfg: &Config, sizes: &Sizes) -> State {
    let inputs = ChurnInputs::generate(cfg.seed, sizes.scale, CHURN, sizes.epochs_per_lap);
    let deltas = inputs.deltas();
    let report = {
        let mut session = {
            let _span = trace::span("api.session_spawn");
            Session::new(NRANKS).expect("two ranks is valid")
        };
        session
            .submit(&inputs.job, &inputs.base)
            .expect("the partition job is valid")
    };
    let mut state = State {
        inputs,
        deltas,
        parts: report.parts,
        quality: report.quality,
        first: None,
    };
    state.first = Some(state.consumer());
    state
}

impl State {
    fn consumer(&self) -> AnalyticsConsumer {
        let _span = trace::span("analytics.cold_state");
        AnalyticsConsumer::new(
            NRANKS,
            self.inputs.base.clone(),
            &self.parts,
            WarmPolicy::default(),
        )
    }

    /// One lap: every delta ingested as its own epoch. Epoch `i` is the same work in
    /// every lap, so the epochs are repetitions of input `i`: many times the samples a
    /// lap would give the estimator, each that much less likely to be disturbed.
    fn lap(&self, consumer: &mut AnalyticsConsumer) -> (Vec<Rep>, Vec<EpochReport>) {
        self.deltas
            .iter()
            .enumerate()
            .map(|(i, delta)| {
                let (cpu_before, watch) = (cpu_seconds(), StealWatch::start());
                let _span = trace::span("analytics.ingest_epoch");
                let (report, wall_s) = timed(|| {
                    consumer.ingest_epoch(i as u64 + 1, std::slice::from_ref(delta), &self.parts)
                });
                let rep = Rep {
                    input: i,
                    wall_s,
                    latency_s: wall_s,
                    cpu_s: cpu_seconds() - cpu_before,
                    ops: 1,
                    work: self.inputs.base.num_vertices() as f64,
                    stolen_s: watch.stolen_s(),
                };
                (rep, report)
            })
            .unzip()
    }

    /// Failures among the final analytics of `consumer`, which ingested every delta:
    /// PageRank within 1e-6 of a cold recompute on the final graph, components and
    /// coreness exactly equal to it.
    fn final_state_failures(&self, consumer: &mut AnalyticsConsumer) -> u64 {
        let mut cold = AnalyticsConsumer::new(
            NRANKS,
            consumer.csr().clone(),
            &self.parts,
            WarmPolicy::default(),
        );
        let pagerank_ok = consumer
            .pagerank_global()
            .iter()
            .zip(cold.pagerank_global())
            .all(|(warm, cold)| (warm - cold).abs() <= 1e-6);
        let wcc_ok = consumer.wcc_global() == cold.wcc_global();
        let coreness_ok = consumer.coreness_global() == cold.coreness_global();
        [pagerank_ok, wcc_ok, coreness_ok]
            .iter()
            .filter(|ok| !**ok)
            .count() as u64
    }
}

/// A lap's epochs as one repetition.
fn whole_lap(epochs: &[Rep]) -> Rep {
    let sum = |f: fn(&Rep) -> f64| epochs.iter().map(f).sum::<f64>();
    let wall_s = sum(|r| r.wall_s);
    Rep {
        input: 0,
        wall_s,
        latency_s: wall_s / epochs.len() as f64,
        cpu_s: sum(|r| r.cpu_s),
        ops: epochs.len() as u64,
        work: sum(|r| r.work),
        stolen_s: sum(|r| r.stolen_s),
    }
}

/// Final-state checks per run (PageRank, components, coreness).
const FINAL_CHECKS: u64 = 3;

/// Epochs whose PageRank did not converge, plus one if the fixed partition is not
/// a valid one.
fn epoch_failures(state: &State, reports: &[EpochReport]) -> u64 {
    let unconverged = reports.iter().filter(|r| !r.pagerank_converged).count() as u64;
    let partition_bad = !parts_valid(
        &state.parts,
        state.inputs.base.num_vertices(),
        state.quality.vertex_imbalance,
    );
    unconverged + partition_bad as u64
}

pub fn run(cfg: &Config) -> Outcome {
    let sizes = sizes(cfg);
    if cfg.trace {
        return run_traced(cfg, &sizes);
    }
    let (mut state, setup_s) = setup_repeated(|| setup(cfg, &sizes));
    let mut consumer = state.first.take().expect("set-up builds a consumer");
    let mut reports = state.lap(&mut consumer).1;
    let mut epochs = Vec::new();
    let window = timed_reps(cfg.window(1.0), 1, |_, _| {
        consumer = state.consumer();
        let (lap_epochs, lap_reports) = state.lap(&mut consumer);
        reports.extend(lap_reports);
        let lap = whole_lap(&lap_epochs);
        epochs.extend(lap_epochs);
        lap
    });
    let failed = epoch_failures(&state, &reports) + state.final_state_failures(&mut consumer);

    let est = estimate(&epochs);
    let mut metrics = Metrics::new(false);
    metrics.set("latency_s", est.latency_s);
    metrics.set("throughput_per_s", est.throughput_per_s);
    metrics.set("cpu_s_per_op", est.cpu_s_per_op);
    metrics.set("edge_cut_ratio", state.quality.edge_cut_ratio);
    metrics.set(
        "max_imbalance",
        state
            .quality
            .vertex_imbalance
            .max(state.quality.edge_imbalance),
    );
    metrics.set("peak_heap_mb", window.peak_heap_mb);
    metrics.set("setup_s", setup_s);
    Outcome {
        metrics,
        attempted: reports.len() as u64 + FINAL_CHECKS,
        failed,
    }
}

fn run_traced(cfg: &Config, sizes: &Sizes) -> Outcome {
    trace::set_enabled(true);
    let mut state = setup(cfg, sizes);
    let mut metrics = Metrics::new(true);
    let mut consumer = state.first.take().expect("set-up builds a consumer");
    let mut reports = state.lap(&mut consumer).1;

    let plain = timed_reps(cfg.window(0.35), 1, |_, _| {
        consumer = state.consumer();
        let (epochs, lap_reports) = state.lap(&mut consumer);
        reports.extend(lap_reports);
        whole_lap(&epochs)
    })
    .reps;
    // The traced laps: the same calls under a root span per lap.
    let mut traced_laps: Vec<Vec<EpochReport>> = Vec::new();
    let traced = timed_reps(cfg.window(0.35), 1, |_, index| {
        consumer = state.consumer();
        trace::set_repetition(index as u32);
        let _root = trace::span(trace::ROOT);
        let (epochs, lap_reports) = state.lap(&mut consumer);
        traced_laps.push(lap_reports);
        whole_lap(&epochs)
    })
    .reps;
    metrics.set(
        "trace.overhead_ratio",
        estimate(&traced).latency_s / estimate(&plain).latency_s,
    );
    metrics.set_rep_spread(&plain);

    // Counters are one lap's totals (they repeat exactly); the epoch time is the
    // median over every traced epoch.
    let lap = &traced_laps[0];
    let total = |f: fn(&EpochReport) -> u64| lap.iter().map(f).sum::<u64>() as f64;
    let epoch_seconds: Vec<f64> = traced_laps.iter().flatten().map(|r| r.seconds).collect();
    metrics.set("analytics.epoch_s", quantile(&epoch_seconds, 0.5));
    metrics.set(
        "analytics.pagerank_iterations",
        total(|r| r.pagerank_iterations),
    );
    metrics.set(
        "analytics.pagerank_vertices_scored",
        total(|r| r.pagerank_vertices_scored),
    );
    metrics.set("analytics.wcc_sweeps", total(|r| r.wcc_sweeps));
    metrics.set("analytics.kcore_rounds", total(|r| r.kcore_rounds));
    metrics.set("analytics.comm_bytes", total(|r| r.comm_bytes));
    let warm: Vec<&EpochReport> = lap.iter().filter(|r| r.warm).collect();
    metrics.set(
        "analytics.warm_epoch_ratio",
        warm.len() as f64 / lap.len() as f64,
    );
    let cold_scored = consumer.cold_reference().pagerank_vertices_scored;
    if !warm.is_empty() && cold_scored > 0 {
        let warm_scored =
            warm.iter().map(|r| r.pagerank_vertices_scored).sum::<u64>() as f64 / warm.len() as f64;
        metrics.set(
            "analytics.scored_warm_over_cold",
            warm_scored / cold_scored as f64,
        );
    }

    // The graph layer's delta application, called directly on the lap's deltas.
    let mut csr = state.inputs.base.clone();
    let csr_apply = Instant::now();
    for delta in &state.deltas {
        csr = csr.apply_delta(delta);
    }
    metrics.set("graph.csr_apply_delta_s", csr_apply.elapsed().as_secs_f64());
    metrics.set(
        "graph.dist_apply_delta_s",
        dist_apply_delta_s(&state.inputs.base, &state.deltas, NRANKS),
    );
    metrics.set("obs.span_disabled_ns", micro::obs_span_disabled_ns());

    reports.extend(traced_laps.into_iter().flatten());
    let failed = epoch_failures(&state, &reports) + state.final_state_failures(&mut consumer);

    let summary = trace::finish();
    metrics.set("gen.generate_s", summary.total_s("gen.generate"));
    metrics.set("gen.stream_s", summary.total_s("gen.stream"));
    metrics.set("graph.csr_build_s", summary.total_s("graph.csr_build"));
    metrics.set("api.session_spawn_s", summary.total_s("api.session_spawn"));
    metrics.set(
        "analytics.cold_state_s",
        summary.mean_s("analytics.cold_state"),
    );
    metrics.set("trace.coverage_ratio", summary.coverage_ratio());
    crate::write_trace(cfg, &summary, &metrics);
    Outcome {
        metrics,
        attempted: reports.len() as u64 + FINAL_CHECKS,
        failed,
    }
}
