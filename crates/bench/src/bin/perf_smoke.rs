//! CI perf smoke gate for the sweep engine and the warm analytics kernels: runs the quick
//! preset cold plus a touched-scoped warm start, a 2-rank dynamic session over four
//! epochs of 0.5% churn, and a 2-rank analytics consumer over a fixed 4-epoch churn
//! stream, and fails — exit code 1 — if any of the deterministic work counters (sweeps,
//! scored vertices, loopback frames; the warm epochs' scored vertices, sweeps, delta
//! apply bytes and arcs counted; warm PageRank scored vertices, coreness rounds, analytics bytes
//! exchanged) differs from the checked-in baseline (`crates/bench/perf_baseline.json`);
//! wall time is printed for context but never gates, since CI machines vary.
//!
//! The counters repeat bit-for-bit on every machine, so the gate is equality: a
//! refactor that adds one sweep or one frame trips it, in either direction. A change
//! that moves them on purpose regenerates the baseline in the same PR with
//! `cargo run --release -p xtrapulp-bench --bin perf_smoke -- --write-baseline`.

use std::time::Instant;

use xtrapulp::{try_pulp_run, PartitionParams};
use xtrapulp_analytics::{AnalyticsConsumer, WarmPolicy};
use xtrapulp_api::{DynamicSession, Method, PartitionJob, UpdateBatch};
use xtrapulp_bench::json::Flat;
use xtrapulp_comm::Runtime;
use xtrapulp_gen::updates::{generate_stream, StreamKind, UpdateStreamConfig};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{Csr, DistGraph, Distribution, GraphDelta};

const BASELINE_PATH: &str = "crates/bench/perf_baseline.json";

/// A 2-rank analytics consumer over four epochs of seeded churn on a small
/// preferential-attachment graph: `[PageRank vertices scored, coreness rounds, bytes
/// exchanged]`, summed over the epochs (all of which run warm).
fn measure_analytics() -> [u64; 3] {
    let edges = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: 2048,
            edges_per_vertex: 4,
        },
        7,
    )
    .generate();
    let stream = generate_stream(
        &edges,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: 8,
                delete_fraction: 0.5,
            },
            num_batches: 4,
            seed: 3,
        },
    );
    let mut csr = edges.to_csr();
    let parts = xtrapulp::baselines::vertex_block_partition(edges.num_vertices, 4);
    let mut consumer = AnalyticsConsumer::new(2, csr.clone(), &parts, WarmPolicy::default());
    let mut totals = [0u64; 3];
    for epoch in 0..stream.batches.len() {
        let delta = GraphDelta::from_ops(csr.num_vertices() as u64, stream.batch_ops(epoch));
        csr = csr.apply_delta(&delta);
        let report = consumer.ingest_epoch(epoch as u64 + 1, &[delta], &parts);
        assert!(report.warm, "0.4% churn must run warm");
        totals[0] += report.pagerank_vertices_scored;
        totals[1] += report.kcore_rounds;
        totals[2] += report.comm_bytes;
    }
    totals
}

/// Four warm epochs of a 2-rank [`DynamicSession`] at 0.5% churn on a 4096-vertex
/// preferential-attachment graph: `[vertices scored, sweeps, apply wire bytes, arcs
/// counted]` summed over the epochs. What a warm epoch scores is a small multiple of
/// what its batch touched (~160 vertices here), so this pins the O(churn) cost of
/// distributed repartitioning. The wire bytes are what the epochs' `DistGraph::apply_delta`
/// calls send, summed over the ranks: the session's deltas, replayed on two ranks of
/// their own (`apply_updates` reports no traffic), so they pin a handshake that carries
/// only the ghosts a delta creates or orphans. The arcs counted are what the epochs'
/// load and quality counts read: the rows of the vertices they label or move, with the
/// session's carried counts, where counting the graph reads all 2m arcs.
fn measure_warm_churn() -> [u64; 4] {
    let edges = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: 4096,
            edges_per_vertex: 8,
        },
        77,
    )
    .generate();
    let csr = edges.to_csr();
    let stream = generate_stream(
        &edges,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: (csr.num_edges() as f64 * 0.005) as usize,
                delete_fraction: 0.5,
            },
            num_batches: 4,
            seed: 11,
        },
    );
    let job = PartitionJob::new(Method::XtraPulp).with_params(quick_preset().1);
    let mut replay = Runtime::new(2);
    let mut graphs = replay.execute(|ctx| DistGraph::from_csr(ctx, Distribution::Block, &csr));
    let mut session = DynamicSession::spawn(2, csr, job).expect("valid job");
    session.repartition().expect("cold epoch");
    let mut totals = [0u64; 4];
    for epoch in 0..stream.batches.len() {
        let batch = UpdateBatch::from_ops(stream.batch_ops(epoch));
        let (_, delta) = session
            .apply_updates_with_delta(&batch)
            .expect("valid batch");
        let applied = replay.execute(|ctx| {
            let updated = graphs[ctx.rank()].apply_delta(ctx, &delta);
            (updated, ctx.stats().snapshot().wire_bytes_sent)
        });
        totals[2] += applied.iter().map(|(_, bytes)| bytes).sum::<u64>();
        graphs = applied.into_iter().map(|(graph, _)| graph).collect();
        let report = session.repartition().expect("warm epoch");
        assert!(report.warm_start, "epochs after the first run warm");
        totals[0] += report.vertices_scored;
        totals[1] += report.lp_sweeps;
        totals[3] += report.arcs_counted;
    }
    totals
}

/// The quick preset every section partitions: a 4096-vertex web-crawl proxy into 8 parts.
fn quick_preset() -> (Csr, PartitionParams) {
    let csr = GraphConfig::new(
        GraphKind::WebCrawl {
            num_vertices: 4096,
            avg_degree: 16,
            community_size: 256,
        },
        77,
    )
    .generate()
    .to_csr();
    let params = PartitionParams {
        num_parts: 8,
        seed: 29,
        ..Default::default()
    };
    (csr, params)
}

/// Every measured quantity under its `perf_baseline.json` name, in file order. The two
/// `*_seconds` are wall times, printed for context; the rest are deterministic counters.
fn measure() -> Vec<(&'static str, f64)> {
    let (csr, frontier) = quick_preset();

    // Warm-up run so the first timed sample is not paying page faults.
    let mut cold = try_pulp_run(&csr, &frontier, None).unwrap();
    // Median of three for the timed quantity.
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        cold = try_pulp_run(&csr, &frontier, None).unwrap();
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = cold.stats;

    let touched: Vec<u64> = (0..16u64).collect();
    let warm_stats = try_pulp_run(&csr, &frontier, Some((&cold.parts, Some(&touched))))
        .unwrap()
        .stats;

    // Distributed loopback: the same graph through the 4-rank in-process
    // transport, so collective traffic pays the full Transport-trait
    // indirection. Wall time is informational; the frame count is
    // deterministic and gates (a regression here means a collective started
    // sending more frames than it should).
    let mut session = xtrapulp_api::Session::new(4).expect("loopback session");
    let _ = session.partition(&csr, &frontier).unwrap(); // warm-up
    let mut dist_times = Vec::new();
    let mut dist_frames = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let report = session.partition(&csr, &frontier).unwrap();
        dist_times.push(t.elapsed().as_secs_f64());
        dist_frames = report.comm.frames_sent;
    }
    dist_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let [warm_churn_scored, warm_churn_sweeps, warm_churn_apply_bytes, warm_churn_arcs_counted] =
        measure_warm_churn();
    let [analytics_warm_scored, analytics_kcore_rounds, analytics_comm_bytes] = measure_analytics();

    vec![
        ("cold_frontier_seconds", times[1]),
        ("cold_frontier_scored", stats.vertices_scored as f64),
        ("cold_frontier_sweeps", stats.sweeps as f64),
        ("warm_touched_scored", warm_stats.vertices_scored as f64),
        ("dist_loopback_seconds", dist_times[1]),
        ("dist_loopback_frames", dist_frames as f64),
        ("warm_churn_scored", warm_churn_scored as f64),
        ("warm_churn_sweeps", warm_churn_sweeps as f64),
        ("warm_churn_apply_bytes", warm_churn_apply_bytes as f64),
        ("warm_churn_arcs_counted", warm_churn_arcs_counted as f64),
        ("analytics_warm_scored", analytics_warm_scored as f64),
        ("analytics_kcore_rounds", analytics_kcore_rounds as f64),
        ("analytics_comm_bytes", analytics_comm_bytes as f64),
    ]
}

fn main() {
    let write = std::env::args().any(|a| a == "--write-baseline");
    let measured = measure();

    if write {
        let fields: Vec<String> = measured
            .iter()
            .map(|(name, value)| format!("  \"{name}\": {value}"))
            .collect();
        let json = format!("{{\n{}\n}}\n", fields.join(",\n"));
        std::fs::write(BASELINE_PATH, json).expect("write baseline");
        println!("perf_smoke: baseline written to {BASELINE_PATH}");
        return;
    }

    let baseline = match std::fs::read_to_string(BASELINE_PATH)
        .or_else(|_| std::fs::read_to_string(format!("../../{BASELINE_PATH}")))
        .map_err(|e| e.to_string())
        .and_then(|text| Flat::parse(&text))
    {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("perf_smoke: no usable baseline at {BASELINE_PATH} ({e}); run with --write-baseline");
            std::process::exit(1);
        }
    };

    let mut failed = false;
    for (name, current) in measured {
        match baseline.num(name) {
            // Wall time is logged for context but does not gate: CI machines vary, the
            // engine's deterministic work counters do not.
            Some(base) if name.ends_with("_seconds") => println!(
                "perf_smoke: {name}: {current} vs baseline {base} ({:.2}x) [informational]",
                current / base.max(1e-9)
            ),
            Some(base) if base == current => {
                println!("perf_smoke: {name}: {current} == baseline ok");
            }
            Some(base) => {
                println!("perf_smoke: {name}: {current} vs baseline {base} CHANGED");
                failed = true;
            }
            None => {
                eprintln!("perf_smoke: baseline missing field {name} (measured {current})");
                failed = true;
            }
        }
    }

    if !tracing_overhead_gate() {
        failed = true;
    }

    if failed {
        eprintln!(
            "perf_smoke: FAILED against {BASELINE_PATH}. The work counters are deterministic, \
             so a difference is a behaviour change; if it is intended, regenerate the baseline \
             in the same PR with --write-baseline and say why it moved."
        );
        std::process::exit(1);
    }
    println!("perf_smoke: every work counter equals the baseline");
}

/// Observability overhead gate, two parts:
///
/// * **disabled hot path** — a span guard with tracing off must cost one relaxed
///   atomic load and nothing else. 1M create/drop cycles gate on a generous
///   absolute bound (`DISABLED_SPAN_NS_BOUND` ns/op, ~10x the expected cost),
///   a tripwire for anyone adding work before the enabled check.
/// * **enabled A/B** — the cold frontier partition run in interleaved
///   disabled/enabled pairs (interleaving cancels machine drift). Fails when the
///   tracing-disabled runs regress more than 2% plus the measured same-mode
///   noise against the enabled runs' median — i.e. when instrumentation costs
///   anything measurable with tracing off. The enabled-mode overhead is printed
///   for the README's numbers but does not gate (it is allowed to cost a few
///   percent; it is opt-in).
fn tracing_overhead_gate() -> bool {
    const DISABLED_SPAN_NS_BOUND: f64 = 25.0;
    const SPAN_ITERS: u32 = 1_000_000;
    const AB_PAIRS: usize = 5;
    const DISABLED_REGRESSION_GATE: f64 = 0.02;

    let mut ok = true;
    xtrapulp_obs::set_enabled(false);
    let t = Instant::now();
    for i in 0..SPAN_ITERS {
        let _span = xtrapulp_obs::span_with("perf_smoke_disabled", i as u64);
    }
    let ns_per_op = t.elapsed().as_nanos() as f64 / SPAN_ITERS as f64;
    let verdict = if ns_per_op > DISABLED_SPAN_NS_BOUND {
        ok = false;
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "perf_smoke: tracing_disabled_span_ns: {ns_per_op:.2} (bound {DISABLED_SPAN_NS_BOUND}) {verdict}"
    );

    let (csr, params) = quick_preset();
    let _ = try_pulp_run(&csr, &params, None).unwrap(); // warm-up
    let mut disabled = Vec::with_capacity(AB_PAIRS);
    let mut enabled = Vec::with_capacity(AB_PAIRS);
    for _ in 0..AB_PAIRS {
        xtrapulp_obs::set_enabled(false);
        let t = Instant::now();
        let _ = try_pulp_run(&csr, &params, None).unwrap();
        disabled.push(t.elapsed().as_secs_f64());

        xtrapulp_obs::set_enabled(true);
        let t = Instant::now();
        let _ = try_pulp_run(&csr, &params, None).unwrap();
        enabled.push(t.elapsed().as_secs_f64());
        // Throw away the accumulated events so the rings never skew later pairs.
        let _ = xtrapulp_obs::trace::drain();
    }
    xtrapulp_obs::set_enabled(false);
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    // Same-mode spread estimates this machine's run-to-run noise; the gate
    // allows 2% plus that, so a quiet machine gates tight and a noisy CI runner
    // does not flake.
    let noise = (disabled.iter().cloned().fold(f64::MIN, f64::max)
        / disabled.iter().cloned().fold(f64::MAX, f64::min))
        - 1.0;
    let med_disabled = median(&mut disabled);
    let med_enabled = median(&mut enabled);
    let disabled_regression = med_disabled / med_enabled - 1.0;
    let enabled_overhead = med_enabled / med_disabled - 1.0;
    let allowed = DISABLED_REGRESSION_GATE + noise;
    let verdict = if disabled_regression > allowed {
        ok = false;
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "perf_smoke: tracing_disabled_regression: {:.2}% vs enabled median (allowed {:.2}% = 2% + {:.2}% noise) {verdict}",
        disabled_regression * 100.0,
        allowed * 100.0,
        noise * 100.0
    );
    println!(
        "perf_smoke: tracing_enabled_overhead: {:.2}% (informational; tracing is opt-in)",
        enabled_overhead * 100.0
    );
    ok
}
