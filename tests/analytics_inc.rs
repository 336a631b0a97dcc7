//! Incremental analytics: parity with from-scratch recomputation under randomized
//! churn, across rank counts, through both the direct consumer API and the full
//! serving pipeline — plus the empty-delta fast path and the redistribution fallback.
//!
//! The references are independent *serial* implementations over the evolving `Csr`,
//! so a bug shared by the warm and cold distributed kernels cannot hide.

use std::time::Duration;

use xtrapulp::PartitionParams;
use xtrapulp_analytics::{AnalyticsConsumer, WarmPolicy};
use xtrapulp_api::{Method, PartitionJob, ServeConfig, ServingSession, UpdateBatch};
use xtrapulp_gen::updates::{generate_stream, StreamKind, UpdateStreamConfig};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{Csr, GraphDelta};
use xtrapulp_serve::DurableConfig;

fn ba_graph(n: u64, seed: u64) -> (Csr, xtrapulp_gen::EdgeList) {
    let el = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: n,
            edges_per_vertex: 4,
        },
        seed,
    )
    .generate();
    (el.to_csr(), el)
}

fn block_parts(n: u64, parts: usize) -> Vec<i32> {
    xtrapulp::baselines::vertex_block_partition(n, parts)
}

// ---------------------------------------------------------------------------------
// Serial references
// ---------------------------------------------------------------------------------

fn serial_pagerank(csr: &Csr, damping: f64, tol: f64) -> Vec<f64> {
    let n = csr.num_vertices();
    let nf = n.max(1) as f64;
    let mut x = vec![1.0 / nf; n];
    for _ in 0..10_000 {
        let mut next = vec![(1.0 - damping) / nf; n];
        for (v, &x_v) in x.iter().enumerate() {
            let d = csr.degree(v as u64);
            if d == 0 {
                continue;
            }
            let share = damping * x_v / d as f64;
            for &u in csr.neighbors(v as u64) {
                next[u as usize] += share;
            }
        }
        let residual: f64 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
        x = next;
        if residual < tol {
            break;
        }
    }
    x
}

fn serial_wcc(csr: &Csr) -> Vec<u64> {
    let n = csr.num_vertices();
    let mut label = vec![u64::MAX; n];
    for root in 0..n {
        if label[root] != u64::MAX {
            continue;
        }
        label[root] = root as u64;
        let mut stack = vec![root as u64];
        while let Some(v) = stack.pop() {
            for &u in csr.neighbors(v) {
                if label[u as usize] == u64::MAX {
                    label[u as usize] = root as u64;
                    stack.push(u);
                }
            }
        }
    }
    label
}

/// Exact coreness by textbook peeling — repeatedly remove the minimum-degree vertex;
/// a vertex's coreness is the peak minimum degree seen up to its removal. Independent
/// of the h-index operator the distributed kernels use.
fn serial_coreness(csr: &Csr) -> Vec<u64> {
    let n = csr.num_vertices();
    let mut degree: Vec<u64> = (0..n).map(|v| csr.degree(v as u64)).collect();
    let mut core = vec![0u64; n];
    let mut removed = vec![false; n];
    let mut k = 0u64;
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| degree[v])
            .expect("one vertex per round");
        removed[v] = true;
        k = k.max(degree[v]);
        core[v] = k;
        for &u in csr.neighbors(v as u64) {
            let u = u as usize;
            if !removed[u] {
                degree[u] -= 1;
            }
        }
    }
    core
}

fn assert_epoch_parity(consumer: &mut AnalyticsConsumer, csr: &Csr, context: &str) {
    let pr = consumer.pagerank_global();
    let pr_ref = serial_pagerank(csr, 0.85, 1e-12);
    for (v, (a, b)) in pr.iter().zip(pr_ref.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-6,
            "{context}: PageRank diverged at vertex {v}: {a} vs {b}"
        );
    }
    assert_eq!(consumer.wcc_global(), serial_wcc(csr), "{context}: WCC");
    assert_eq!(
        consumer.coreness_global(),
        serial_coreness(csr),
        "{context}: coreness"
    );
}

// ---------------------------------------------------------------------------------
// Direct consumer driving
// ---------------------------------------------------------------------------------

#[test]
fn incremental_matches_from_scratch_across_rank_counts_under_churn() {
    let n = 600u64;
    let (csr0, el) = ba_graph(n, 7);
    let stream = generate_stream(
        &el,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: 6,
                delete_fraction: 0.4,
            },
            num_batches: 12,
            seed: 3,
        },
    );
    let parts = block_parts(n, 4);

    for nranks in [1usize, 2, 8] {
        let mut consumer =
            AnalyticsConsumer::new(nranks, csr0.clone(), &parts, WarmPolicy::default());
        let mut csr = csr0.clone();
        assert_epoch_parity(&mut consumer, &csr, &format!("nranks={nranks} epoch=0"));

        let mut warm_epochs = 0u64;
        let mut warm_scored = 0u64;
        let mut warm_iterations = 0u64;
        let mut warm_wcc_sweeps = 0u64;
        let mut warm_kcore_rounds = 0u64;
        for (i, _) in stream.batches.iter().enumerate() {
            let delta = GraphDelta::from_ops(csr.num_vertices() as u64, stream.batch_ops(i));
            csr = csr.apply_delta(&delta);
            let report = consumer.ingest_epoch((i + 1) as u64, &[delta], &parts);
            if report.warm {
                warm_epochs += 1;
                warm_scored += report.pagerank_vertices_scored;
                warm_iterations += report.pagerank_iterations;
                warm_wcc_sweeps += report.wcc_sweeps;
                warm_kcore_rounds += report.kcore_rounds;
            }
            assert!(report.pagerank_converged, "nranks={nranks} epoch={}", i + 1);
            assert_epoch_parity(
                &mut consumer,
                &csr,
                &format!("nranks={nranks} epoch={}", i + 1),
            );
        }
        // ≤1% churn epochs must run warm and do measurably less work per analytic
        // than the consumer's own from-scratch reference: fewer PageRank iterations
        // *and* scored vertices, fewer propagation sweeps, fewer tightening rounds.
        assert!(
            warm_epochs >= 10,
            "nranks={nranks}: only {warm_epochs}/12 epochs ran warm"
        );
        let cold = consumer.cold_reference();
        let scored_avg = warm_scored / warm_epochs;
        assert!(
            scored_avg * 10 < cold.pagerank_vertices_scored * 9,
            "nranks={nranks}: warm epochs average {scored_avg} scored vertices vs a \
             cold reference of {}",
            cold.pagerank_vertices_scored
        );
        assert!(
            warm_iterations / warm_epochs < cold.pagerank_iterations,
            "nranks={nranks}: warm avg {} iterations vs cold {}",
            warm_iterations / warm_epochs,
            cold.pagerank_iterations
        );
        assert!(
            warm_wcc_sweeps / warm_epochs <= cold.wcc_sweeps / 2,
            "nranks={nranks}: warm avg {} WCC sweeps vs cold {}",
            warm_wcc_sweeps / warm_epochs,
            cold.wcc_sweeps
        );
        // Warm coreness is exact but not yet cheaper in *rounds*: the sound insert-rise
        // envelope relaxes every bound by the most arcs one vertex received, so on small
        // dense-core graphs warm tightening takes about as many rounds as cold
        // (deletion-only epochs converge in 1-2). A round is an exchange step, not a
        // sweep: after the first, only vertices a neighbour's bound crossed are
        // revisited. Fewer rounds is ROADMAP direction 4 (subcore-scoped seeding);
        // guard against regressions beyond today's count.
        assert!(
            warm_kcore_rounds / warm_epochs <= cold.kcore_rounds + 3,
            "nranks={nranks}: warm avg {} k-core rounds vs cold {}",
            warm_kcore_rounds / warm_epochs,
            cold.kcore_rounds
        );
    }
}

#[test]
fn empty_delta_epoch_is_a_no_op() {
    let (csr, _) = ba_graph(300, 11);
    let parts = block_parts(300, 3);
    let mut consumer = AnalyticsConsumer::new(2, csr.clone(), &parts, WarmPolicy::default());
    let before_pr = consumer.pagerank_global();

    let report = consumer.ingest_epoch(1, &[], &parts);
    assert!(report.warm);
    assert!(!report.redistributed);
    assert_eq!(report.churn_fraction, 0.0);
    assert_eq!(report.pagerank_iterations, 0);
    assert_eq!(report.pagerank_vertices_scored, 0);
    assert_eq!(report.wcc_sweeps, 0);
    assert_eq!(report.kcore_rounds, 0);
    assert_eq!(report.comm_bytes, 0);
    assert_eq!(consumer.epoch(), 1);
    assert_eq!(consumer.pagerank_global(), before_pr);
}

#[test]
fn heavy_migration_triggers_redistribution_and_stays_correct() {
    let n = 400u64;
    let (csr0, _) = ba_graph(n, 5);
    let parts = block_parts(n, 4);
    let mut consumer = AnalyticsConsumer::new(4, csr0.clone(), &parts, WarmPolicy::default());

    // Publish a partition that moves every vertex one part over (100% migration) and
    // a small topology delta alongside.
    let rotated: Vec<i32> = parts.iter().map(|&p| (p + 1) % 4).collect();
    let delta = GraphDelta::new(n, 0, &[(0, n - 1)], &[]);
    let csr = csr0.apply_delta(&delta);
    let report = consumer.ingest_epoch(1, &[delta], &rotated);
    assert!(
        report.redistributed,
        "100% migration must rebuild the replica"
    );
    assert!(!report.warm);
    assert!(report.moved_fraction > 0.9);
    assert_epoch_parity(&mut consumer, &csr, "after redistribution");

    // The next small epoch against the same placement runs warm again.
    let delta2 = GraphDelta::new(n, 0, &[(1, n - 2)], &[]);
    let csr = csr.apply_delta(&delta2);
    let report = consumer.ingest_epoch(2, &[delta2], &rotated);
    assert!(report.warm, "placement is aligned again: {report:?}");
    assert_epoch_parity(&mut consumer, &csr, "after post-redistribution epoch");
}

#[test]
fn heavy_migration_with_growth_redistributes_across_rank_counts() {
    let n = 400u64;
    let (csr0, _) = ba_graph(n, 5);
    let parts = block_parts(n, 4);
    // The epoch grows the graph by three vertices, deletes an edge and publishes a
    // partition that moves every vertex one part over: the rank graphs apply the delta,
    // then move their rows to the new owners. One rank has nowhere to move them to.
    let gone = (5, csr0.neighbors(5)[0]);
    let delta = GraphDelta::new(n, 3, &[(n, 0), (n + 1, n), (n + 2, 7), (1, n - 2)], &[gone]);
    let rotated: Vec<i32> = block_parts(n + 3, 4).iter().map(|&p| (p + 1) % 4).collect();
    let csr = csr0.apply_delta(&delta);
    let delta2 = GraphDelta::new(n + 3, 0, &[(2, n + 1)], &[]);
    let csr2 = csr.apply_delta(&delta2);
    for nranks in [1usize, 2, 4] {
        let mut consumer =
            AnalyticsConsumer::new(nranks, csr0.clone(), &parts, WarmPolicy::default());
        let report = consumer.ingest_epoch(1, std::slice::from_ref(&delta), &rotated);
        assert_eq!(
            report.redistributed,
            nranks > 1,
            "nranks={nranks}: {report:?}"
        );
        assert_eq!(report.warm, nranks == 1, "nranks={nranks}: {report:?}");
        assert_eq!(consumer.csr(), csr, "nranks={nranks}");
        let context = format!("nranks={nranks} after redistribution with growth");
        assert_epoch_parity(&mut consumer, &csr, &context);

        let report = consumer.ingest_epoch(2, std::slice::from_ref(&delta2), &rotated);
        assert!(
            report.warm && !report.redistributed,
            "nranks={nranks}: {report:?}"
        );
        assert_eq!(consumer.csr(), csr2, "nranks={nranks}");
        let context = format!("nranks={nranks} after the warm epoch that follows");
        assert_epoch_parity(&mut consumer, &csr2, &context);
    }
}

#[test]
fn heavy_churn_falls_back_to_cold_recomputation() {
    let n = 300u64;
    let (csr0, _) = ba_graph(n, 9);
    let parts = block_parts(n, 2);
    let mut consumer = AnalyticsConsumer::new(2, csr0.clone(), &parts, WarmPolicy::default());

    // Touch well over 5% of the graph in one epoch.
    let inserts: Vec<(u64, u64)> = (0..40).map(|i| (i as u64, (i as u64 + 150) % n)).collect();
    let delta = GraphDelta::new(n, 0, &inserts, &[]);
    let csr = csr0.apply_delta(&delta);
    let report = consumer.ingest_epoch(1, &[delta], &parts);
    assert!(
        !report.warm,
        "churn {:.3} must run cold",
        report.churn_fraction
    );
    assert!(!report.redistributed);
    assert_epoch_parity(&mut consumer, &csr, "after cold fallback");
}

// ---------------------------------------------------------------------------------
// The warm coreness seed: old coreness + the most arcs one vertex received
// ---------------------------------------------------------------------------------

/// Four hundred vertices of coreness ≤ 2 but for one clique: a ring (0..360), a path
/// (360..380), a 6-clique (380..386) and fourteen isolated vertices (386..400).
fn low_core_base() -> Csr {
    let mut edges: Vec<(u64, u64)> = (0..360).map(|v| (v, (v + 1) % 360)).collect();
    edges.extend((360..379).map(|v| (v, v + 1)));
    edges.extend((380..386).flat_map(|u| (u + 1..386).map(move |v| (u, v))));
    xtrapulp_graph::csr_from_edges(400, &edges)
}

/// Ingest `deltas` as *one* warm epoch over [`low_core_base`] on 1, 2 and 4 ranks
/// (vertex `v` on rank `v % nranks`, so the lifted vertices straddle ranks). The seed is a
/// bound the tightening can only lower, so one that is too small for some vertex leaves
/// it below the serial peeling's coreness, which lifts every vertex of `lifted` to `to`.
fn assert_warm_coreness_is_exact(deltas: &[GraphDelta], lifted: std::ops::Range<u64>, to: u64) {
    let base = low_core_base();
    let parts: Vec<i32> = (0..400).map(|v| v % 4).collect();
    let csr = deltas.iter().fold(base.clone(), |g, d| g.apply_delta(d));
    let expected = serial_coreness(&csr);
    assert!(lifted.clone().all(|v| expected[v as usize] == to));
    for nranks in [1usize, 2, 4] {
        let mut consumer =
            AnalyticsConsumer::new(nranks, base.clone(), &parts, WarmPolicy::default());
        let report = consumer.ingest_epoch(1, deltas, &parts);
        assert!(report.warm, "nranks={nranks}: {report:?}");
        assert_eq!(consumer.coreness_global(), expected, "nranks={nranks}");
    }
}

#[test]
fn warm_coreness_follows_a_clique_inserted_among_low_degree_vertices() {
    // Two isolated vertices, the path's two ends and two ring vertices become a 6-clique:
    // each receives five arcs and the isolated ones rise by all five, 0 to 5.
    let members = [386u64, 387, 360, 379, 0, 100];
    let clique: Vec<(u64, u64)> = (0..6)
        .flat_map(|i| (i + 1..6).map(move |j| (members[i], members[j])))
        .collect();
    let delta = GraphDelta::new(400, 0, &clique, &[]);
    assert_warm_coreness_is_exact(&[delta], 386..388, 5);
}

#[test]
fn warm_coreness_follows_a_star_onto_one_hub() {
    // An isolated hub joins the 6-clique: it receives six arcs and rises 0 to 6, every
    // leaf one arc and rises 5 to 6. A bound taken from the leaves would pin the hub at 1.
    let star: Vec<(u64, u64)> = (380..386).map(|leaf| (388, leaf)).collect();
    let delta = GraphDelta::new(400, 0, &star, &[]);
    assert_warm_coreness_is_exact(&[delta], 380..386, 6);
}

#[test]
fn warm_coreness_sums_a_vertex_arcs_over_the_deltas_of_one_epoch() {
    // A 6-clique over isolated vertices, arriving as its five perfect matchings: three in
    // the epoch's first delta, two in its second. No delta gives a vertex more than three
    // arcs; the epoch gives each five, and each rises 0 to 5.
    let matching = |r: u64| {
        [
            (5, r),
            ((r + 1) % 5, (r + 4) % 5),
            ((r + 2) % 5, (r + 3) % 5),
        ]
        .map(|(a, b)| (390 + a, 390 + b))
    };
    let first: Vec<(u64, u64)> = (0..3).flat_map(matching).collect();
    let second: Vec<(u64, u64)> = (3..5).flat_map(matching).collect();
    let deltas = [
        GraphDelta::new(400, 0, &first, &[]),
        GraphDelta::new(400, 0, &second, &[]),
    ];
    assert_warm_coreness_is_exact(&deltas, 390..396, 5);
}

// ---------------------------------------------------------------------------------
// Full pipeline: ServingSession -> EpochStore -> AnalyticsSubscriber
// ---------------------------------------------------------------------------------

#[test]
fn subscriber_tracks_a_live_serving_session() {
    let n = 500u64;
    let (csr, el) = ba_graph(n, 13);
    let job = PartitionJob::new(Method::XtraPulp).with_params(PartitionParams {
        num_parts: 4,
        seed: 17,
        ..Default::default()
    });
    let serving = ServingSession::spawn(2, csr, job).expect("valid job");
    let mut subscriber = serving.subscribe_analytics(WarmPolicy::default());

    // Stream mixed growth batches through the normal ingest path.
    let stream = generate_stream(
        &el,
        &UpdateStreamConfig {
            kind: StreamKind::PreferentialGrowth {
                vertices_per_batch: 2,
                edges_per_vertex: 3,
            },
            num_batches: 6,
            seed: 23,
        },
    );
    for i in 0..stream.batches.len() {
        let batch = UpdateBatch::from_ops(stream.batch_ops(i));
        serving.ingest(batch).expect("queue open");
    }

    // Drain-then-stop publishes everything queued; then the subscriber catches up on
    // whatever epochs it has not ingested yet.
    let (mut session, stats) = serving.shutdown().expect("worker exits cleanly");
    assert_eq!(stats.batches_applied, 6);
    let store_epoch = session.epoch();
    let mut reports = Vec::new();
    while subscriber.held_epoch() < store_epoch {
        match subscriber.poll(Duration::from_secs(60)) {
            Ok(Some(report)) => reports.push(report),
            Ok(None) => panic!("store has epoch {store_epoch}, poll timed out"),
            Err(e) => panic!("subscriber lagged: {e}"),
        }
    }
    assert!(!reports.is_empty());

    // The consumer's replica must match the authoritative live graph arc-for-arc...
    let consumer = subscriber.consumer_mut();
    let live = &session.csr();
    assert_eq!(consumer.csr().num_vertices(), live.num_vertices());
    assert_eq!(
        consumer.csr().arcs().collect::<Vec<_>>(),
        live.arcs().collect::<Vec<_>>(),
        "replica topology diverged from the live graph"
    );
    // ...and its analytics must match from-scratch references on that final graph.
    assert_epoch_parity(consumer, live, "after live serving session");
}

/// The same through a session [`ServingSession::recover`] returned: its consumers
/// bootstrap from the replayed graph and partition, not from the spawned graph.
#[test]
fn subscriber_tracks_a_recovered_serving_session() {
    let (csr, el) = ba_graph(500, 13);
    let job = || {
        PartitionJob::new(Method::XtraPulp).with_params(PartitionParams {
            num_parts: 4,
            seed: 17,
            ..Default::default()
        })
    };
    let dir = std::env::temp_dir().join(format!(
        "xtrapulp-analytics-recovered-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let stream = generate_stream(
        &el,
        &UpdateStreamConfig {
            kind: StreamKind::PreferentialGrowth {
                vertices_per_batch: 2,
                edges_per_vertex: 3,
            },
            num_batches: 6,
            seed: 23,
        },
    );
    let batch = |i: usize| UpdateBatch::from_ops(stream.batch_ops(i));

    // A durable session ingests the first half, then stops; recovery replays it.
    let config = ServeConfig::default();
    let serving = ServingSession::spawn_durable(2, csr, job(), config, DurableConfig::new(&dir))
        .expect("valid job");
    for i in 0..3 {
        serving.ingest(batch(i)).expect("queue open");
    }
    serving.shutdown().expect("worker exits cleanly");
    let recovered = ServingSession::recover(2, job(), config, DurableConfig::new(&dir))
        .expect("recovery succeeds");
    assert_eq!(recovered.epoch(), 3);
    let mut subscriber = recovered.subscribe_analytics(WarmPolicy::default());
    for i in 3..stream.batches.len() {
        recovered.ingest(batch(i)).expect("queue open");
    }
    let (mut session, _) = recovered.shutdown().expect("worker exits cleanly");
    let store_epoch = session.epoch();
    while subscriber.held_epoch() < store_epoch {
        match subscriber.poll(Duration::from_secs(60)) {
            Ok(Some(_)) => {}
            Ok(None) => panic!("store has epoch {store_epoch}, poll timed out"),
            Err(e) => panic!("subscriber lagged: {e}"),
        }
    }

    let consumer = subscriber.consumer_mut();
    let live = &session.csr();
    assert_eq!(
        consumer.csr().arcs().collect::<Vec<_>>(),
        live.arcs().collect::<Vec<_>>(),
        "replica topology diverged from the live graph"
    );
    assert_epoch_parity(consumer, live, "after a recovered serving session");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Golden oracle: work counters and results of the warm kernels, pinned per epoch
// ---------------------------------------------------------------------------------

/// What one ingested epoch is pinned on: whether it ran warm, `pagerank_iterations`,
/// `pagerank_vertices_scored`, `wcc_sweeps`, `wcc_components_checked`,
/// `wcc_reset_vertices`, `kcore_rounds`, then an FNV-1a hash of the PageRank bit
/// patterns, the component labels and the coreness of every vertex. Epoch 0 is the
/// consumer's cold start (its counters come from `cold_reference`).
type GoldenRow = [u64; 8];

const GOLDEN_EPOCHS: usize = 12;
const GOLDEN_RANKS: [usize; 3] = [1, 2, 4];

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn state_hash(consumer: &mut AnalyticsConsumer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in consumer.pagerank_global() {
        fnv1a(&mut h, x.to_bits());
    }
    for x in consumer.wcc_global() {
        fnv1a(&mut h, x);
    }
    for x in consumer.coreness_global() {
        fnv1a(&mut h, x);
    }
    h
}

/// The two seeded base graphs of the oracle.
fn golden_graphs() -> Vec<(&'static str, xtrapulp_gen::EdgeList)> {
    let ba = GraphKind::BarabasiAlbert {
        num_vertices: 600,
        edges_per_vertex: 4,
    };
    let rmat = GraphKind::Rmat {
        scale: 9,
        edge_factor: 8,
    };
    vec![
        ("ba", GraphConfig::new(ba, 7).generate()),
        ("rmat", GraphConfig::new(rmat, 5).generate()),
    ]
}

/// Twelve epochs over a base graph of `n` vertices: seeded random churn (inserts and
/// deletes) throughout; epoch 5 also grows the graph by three vertices, the last of
/// them a pendant hanging off vertex 3; epoch 9 also deletes the pendant's only edge,
/// which splits it off the giant component (a BFS check and a label reset).
fn golden_deltas(el: &xtrapulp_gen::EdgeList) -> Vec<GraphDelta> {
    let n = el.num_vertices;
    let stream = generate_stream(
        el,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: 6,
                delete_fraction: 0.4,
            },
            num_batches: GOLDEN_EPOCHS,
            seed: 3,
        },
    );
    let mut base_n = n;
    (0..GOLDEN_EPOCHS)
        .map(|i| {
            use xtrapulp_graph::UpdateOp::{AddVertices, DeleteEdge, InsertEdge};
            let mut ops: Vec<_> = stream.batch_ops(i).collect();
            match i + 1 {
                5 => ops.extend([
                    AddVertices(3),
                    InsertEdge(n, 0),
                    InsertEdge(n, 17),
                    InsertEdge(n + 1, n),
                    InsertEdge(n + 2, 3),
                ]),
                9 => ops.push(DeleteEdge(n + 2, 3)),
                _ => {}
            }
            let delta = GraphDelta::from_ops(base_n, ops);
            base_n = delta.new_n();
            delta
        })
        .collect()
}

/// One (graph, rank count) run: the thirteen golden rows and the bytes each of the
/// twelve ingested epochs exchanged.
fn golden_run(el: &xtrapulp_gen::EdgeList, nranks: usize) -> (Vec<GoldenRow>, Vec<u64>) {
    let csr = el.to_csr();
    let parts = block_parts(csr.num_vertices() as u64, 4);
    let mut consumer = AnalyticsConsumer::new(nranks, csr, &parts, WarmPolicy::default());
    let cold = consumer.cold_reference();
    let mut rows = vec![[
        0,
        cold.pagerank_iterations,
        cold.pagerank_vertices_scored,
        cold.wcc_sweeps,
        0,
        0,
        cold.kcore_rounds,
        state_hash(&mut consumer),
    ]];
    let mut comm_bytes = Vec::new();
    for (i, delta) in golden_deltas(el).into_iter().enumerate() {
        let r = consumer.ingest_epoch(i as u64 + 1, &[delta], &parts);
        rows.push([
            r.warm as u64,
            r.pagerank_iterations,
            r.pagerank_vertices_scored,
            r.wcc_sweeps,
            r.wcc_components_checked,
            r.wcc_reset_vertices,
            r.kcore_rounds,
            state_hash(&mut consumer),
        ]);
        comm_bytes.push(r.comm_bytes);
    }
    (rows, comm_bytes)
}

/// Regenerate [`GOLDEN`] and [`GOLDEN_COMM_BYTES`] after an *intentional* change:
/// `cargo test --release --test analytics_inc -- --ignored --nocapture print_analytics_golden_table`
#[test]
#[ignore]
fn print_analytics_golden_table() {
    let mut comm = String::new();
    println!("const GOLDEN: &[(&str, GoldenRow)] = &[");
    for (name, el) in golden_graphs() {
        for nranks in GOLDEN_RANKS {
            let (rows, comm_bytes) = golden_run(&el, nranks);
            for (epoch, row) in rows.iter().enumerate() {
                let [a, b, c, d, e, f, g, h] = row;
                println!(
                    "    (\"{name}/r{nranks}/e{epoch}\", [{a}, {b}, {c}, {d}, {e}, {f}, {g}, {h:#018x}]),"
                );
            }
            comm += &format!("    (\"{name}/r{nranks}\", {comm_bytes:?}),\n");
        }
    }
    println!("];");
    println!("const GOLDEN_COMM_BYTES: &[(&str, [u64; GOLDEN_EPOCHS])] = &[\n{comm}];");
}

/// The warm kernels' work counters and results, epoch by epoch, equal the committed
/// table: a change to the exchange, the active set, a sweep order or a wake rule that
/// is meant to be behaviour-preserving must leave every [`GOLDEN`] row alone.
/// [`GOLDEN_COMM_BYTES`] is pinned apart from it because it is the one column such a
/// change may move — and only down.
#[test]
fn warm_kernels_match_the_golden_table() {
    let mut golden = GOLDEN.iter();
    let mut golden_comm = GOLDEN_COMM_BYTES.iter();
    for (name, el) in golden_graphs() {
        for nranks in GOLDEN_RANKS {
            let (rows, comm_bytes) = golden_run(&el, nranks);
            for (epoch, row) in rows.iter().enumerate() {
                let (label, pinned) = golden.next().expect("one golden row per epoch");
                assert_eq!(*label, format!("{name}/r{nranks}/e{epoch}"));
                assert_eq!(row, pinned, "{label} moved");
            }
            let (label, pinned) = golden_comm.next().expect("one comm row per run");
            assert_eq!(*label, format!("{name}/r{nranks}"));
            assert_eq!(comm_bytes[..], pinned[..], "{label}: comm_bytes moved");
        }
    }
    assert!(golden.next().is_none() && golden_comm.next().is_none());
}

const GOLDEN: &[(&str, GoldenRow)] = &[
    ("ba/r1/e0", [0, 27, 14975, 2, 0, 0, 13, 0xc5d8425b1d5e66e8]),
    ("ba/r1/e1", [1, 20, 10236, 1, 1, 0, 17, 0x5f338235554418b8]),
    ("ba/r1/e2", [1, 20, 10342, 1, 1, 0, 16, 0x75cffe7f01d2a49d]),
    ("ba/r1/e3", [1, 21, 10777, 1, 1, 0, 16, 0xcd57d81de721be05]),
    ("ba/r1/e4", [1, 21, 10418, 1, 1, 0, 12, 0x612d6ef054ed0f52]),
    ("ba/r1/e5", [1, 24, 11992, 2, 1, 0, 10, 0xf05ce5dc01141c3a]),
    ("ba/r1/e6", [1, 21, 10601, 1, 1, 0, 12, 0x44e2f9aca670760d]),
    ("ba/r1/e7", [1, 20, 9993, 1, 0, 0, 10, 0xba403e0b06bff340]),
    ("ba/r1/e8", [1, 20, 10037, 1, 0, 0, 11, 0xbe18bfb1b51fea11]),
    ("ba/r1/e9", [1, 48, 27839, 2, 1, 603, 9, 0x6e4ef2b61aec008f]),
    ("ba/r1/e10", [1, 21, 10364, 1, 1, 0, 11, 0xf01878fab3d8eedf]),
    ("ba/r1/e11", [1, 21, 10406, 1, 1, 0, 11, 0x680bc4e9854aabd1]),
    ("ba/r1/e12", [1, 21, 10300, 1, 1, 0, 11, 0x8b767c1eb459f6df]),
    ("ba/r2/e0", [0, 27, 14975, 3, 0, 0, 13, 0xc5d8425b1d5e66e8]),
    ("ba/r2/e1", [1, 20, 10236, 1, 1, 0, 18, 0x5f338235554418b8]),
    ("ba/r2/e2", [1, 20, 10342, 1, 1, 0, 18, 0x75cffe7f01d2a49d]),
    ("ba/r2/e3", [1, 21, 10777, 1, 1, 0, 18, 0xcd57d81de721be05]),
    ("ba/r2/e4", [1, 21, 10418, 1, 1, 0, 15, 0x612d6ef054ed0f52]),
    ("ba/r2/e5", [1, 24, 11992, 2, 1, 0, 12, 0xf05ce5dc01141c3a]),
    ("ba/r2/e6", [1, 21, 10601, 1, 1, 0, 14, 0x44e2f9aca670760d]),
    ("ba/r2/e7", [1, 20, 9993, 1, 0, 0, 11, 0xba403e0b06bff340]),
    ("ba/r2/e8", [1, 20, 10037, 1, 0, 0, 14, 0xbe18bfb1b51fea11]),
    (
        "ba/r2/e9",
        [1, 48, 27839, 3, 1, 603, 12, 0x6e4ef2b61aec008f],
    ),
    ("ba/r2/e10", [1, 21, 10364, 1, 1, 0, 16, 0xf01878fab3d8eedf]),
    ("ba/r2/e11", [1, 21, 10406, 1, 1, 0, 15, 0x680bc4e9854aabd1]),
    ("ba/r2/e12", [1, 21, 10300, 1, 1, 0, 15, 0x8b767c1eb459f6df]),
    ("ba/r4/e0", [0, 27, 14975, 4, 0, 0, 13, 0xc5d8425b1d5e66e8]),
    ("ba/r4/e1", [1, 20, 10236, 1, 1, 0, 20, 0x5f338235554418b8]),
    ("ba/r4/e2", [1, 20, 10342, 1, 1, 0, 19, 0x75cffe7f01d2a49d]),
    ("ba/r4/e3", [1, 21, 10777, 1, 1, 0, 19, 0xcd57d81de721be05]),
    ("ba/r4/e4", [1, 21, 10418, 1, 1, 0, 17, 0x612d6ef054ed0f52]),
    ("ba/r4/e5", [1, 24, 11992, 3, 1, 0, 12, 0xf05ce5dc01141c3a]),
    ("ba/r4/e6", [1, 21, 10601, 1, 1, 0, 15, 0x44e2f9aca670760d]),
    ("ba/r4/e7", [1, 20, 9993, 1, 0, 0, 12, 0xba403e0b06bff340]),
    ("ba/r4/e8", [1, 20, 10037, 1, 0, 0, 15, 0xbe18bfb1b51fea11]),
    (
        "ba/r4/e9",
        [1, 48, 27839, 4, 1, 603, 12, 0x6e4ef2b61aec008f],
    ),
    ("ba/r4/e10", [1, 21, 10364, 1, 1, 0, 16, 0xf01878fab3d8eedf]),
    ("ba/r4/e11", [1, 21, 10406, 1, 1, 0, 15, 0x680bc4e9854aabd1]),
    ("ba/r4/e12", [1, 21, 10300, 1, 1, 0, 15, 0x8b767c1eb459f6df]),
    ("rmat/r1/e0", [0, 21, 7740, 3, 0, 0, 6, 0xc81728c990460737]),
    ("rmat/r1/e1", [1, 49, 20150, 2, 1, 0, 5, 0xbf0bc06aabaf6c51]),
    ("rmat/r1/e2", [1, 16, 4950, 1, 1, 0, 5, 0x9dacbf3933a3c71b]),
    (
        "rmat/r1/e3",
        [1, 33, 13331, 3, 1, 426, 5, 0xcf097454dd2095a7],
    ),
    ("rmat/r1/e4", [1, 49, 20207, 2, 1, 0, 5, 0x111b41c2f755cb5d]),
    ("rmat/r1/e5", [1, 23, 7835, 2, 1, 0, 6, 0x16ba9f04b1508ff9]),
    ("rmat/r1/e6", [1, 82, 20569, 2, 1, 0, 5, 0x3db8b83aab8b5f80]),
    ("rmat/r1/e7", [1, 53, 22121, 2, 0, 0, 5, 0x9d6990d69d28d881]),
    ("rmat/r1/e8", [1, 49, 20493, 2, 0, 0, 5, 0x5460f8f836bc5d69]),
    (
        "rmat/r1/e9",
        [1, 50, 20963, 3, 1, 434, 5, 0xdcd4f61c75a599b8],
    ),
    ("rmat/r1/e10", [1, 17, 5419, 1, 1, 0, 5, 0x9b344fc47c1f0fa4]),
    (
        "rmat/r1/e11",
        [1, 49, 20635, 2, 1, 0, 5, 0x60fec28f47a567fb],
    ),
    (
        "rmat/r1/e12",
        [1, 49, 20635, 2, 1, 0, 5, 0xe06ea69d300d4396],
    ),
    ("rmat/r2/e0", [0, 21, 7740, 4, 0, 0, 7, 0xc81728c990460737]),
    ("rmat/r2/e1", [1, 49, 20150, 2, 1, 0, 5, 0xbf0bc06aabaf6c51]),
    ("rmat/r2/e2", [1, 16, 4950, 1, 1, 0, 5, 0x9dacbf3933a3c71b]),
    (
        "rmat/r2/e3",
        [1, 33, 13331, 4, 1, 426, 5, 0xcf097454dd2095a7],
    ),
    ("rmat/r2/e4", [1, 49, 20207, 2, 1, 0, 5, 0x111b41c2f755cb5d]),
    ("rmat/r2/e5", [1, 23, 7835, 3, 1, 0, 6, 0x16ba9f04b1508ff9]),
    ("rmat/r2/e6", [1, 82, 20569, 2, 1, 0, 5, 0x3db8b83aab8b5f80]),
    ("rmat/r2/e7", [1, 53, 22121, 2, 0, 0, 5, 0x9d6990d69d28d881]),
    ("rmat/r2/e8", [1, 49, 20493, 2, 0, 0, 5, 0x5460f8f836bc5d69]),
    (
        "rmat/r2/e9",
        [1, 50, 20963, 4, 1, 434, 5, 0xdcd4f61c75a599b8],
    ),
    ("rmat/r2/e10", [1, 17, 5419, 1, 1, 0, 5, 0x9b344fc47c1f0fa4]),
    (
        "rmat/r2/e11",
        [1, 49, 20635, 2, 1, 0, 5, 0x60fec28f47a567fb],
    ),
    (
        "rmat/r2/e12",
        [1, 49, 20635, 2, 1, 0, 5, 0xe06ea69d300d4396],
    ),
    ("rmat/r4/e0", [0, 21, 7740, 4, 0, 0, 7, 0xc81728c990460737]),
    ("rmat/r4/e1", [1, 49, 20150, 2, 1, 0, 5, 0xbf0bc06aabaf6c51]),
    ("rmat/r4/e2", [1, 16, 4950, 1, 1, 0, 5, 0x9dacbf3933a3c71b]),
    (
        "rmat/r4/e3",
        [1, 33, 13331, 4, 1, 426, 5, 0xcf097454dd2095a7],
    ),
    ("rmat/r4/e4", [1, 49, 20207, 2, 1, 0, 5, 0x111b41c2f755cb5d]),
    ("rmat/r4/e5", [1, 23, 7835, 3, 1, 0, 6, 0x16ba9f04b1508ff9]),
    ("rmat/r4/e6", [1, 82, 20569, 2, 1, 0, 5, 0x3db8b83aab8b5f80]),
    ("rmat/r4/e7", [1, 53, 22121, 2, 0, 0, 5, 0x9d6990d69d28d881]),
    ("rmat/r4/e8", [1, 49, 20493, 2, 0, 0, 5, 0x5460f8f836bc5d69]),
    (
        "rmat/r4/e9",
        [1, 50, 20963, 4, 1, 434, 5, 0xdcd4f61c75a599b8],
    ),
    ("rmat/r4/e10", [1, 17, 5419, 1, 1, 0, 5, 0x9b344fc47c1f0fa4]),
    (
        "rmat/r4/e11",
        [1, 49, 20635, 2, 1, 0, 5, 0x60fec28f47a567fb],
    ),
    (
        "rmat/r4/e12",
        [1, 49, 20635, 2, 1, 0, 5, 0xe06ea69d300d4396],
    ),
];
const GOLDEN_COMM_BYTES: &[(&str, [u64; GOLDEN_EPOCHS])] = &[
    (
        "ba/r1",
        [520, 608, 608, 480, 568, 560, 416, 424, 928, 528, 600, 488],
    ),
    (
        "ba/r2",
        [
            151695, 153843, 158041, 152376, 176721, 157067, 148012, 148718, 374510, 153019, 154443,
            152066,
        ],
    ),
    (
        "ba/r4",
        [
            355771, 360220, 370508, 357459, 415423, 368613, 347535, 349921, 884149, 360609, 364057,
            358479,
        ],
    ),
    (
        "rmat/r1",
        [880, 440, 728, 880, 504, 1472, 912, 848, 936, 424, 976, 912],
    ),
    (
        "rmat/r2",
        [
            244152, 73123, 172956, 245564, 107957, 248865, 267396, 249069, 260057, 79345, 252493,
            253565,
        ],
    ),
    (
        "rmat/r4",
        [
            544720, 166208, 386640, 550311, 245940, 556824, 598052, 557610, 581186, 180156, 561365,
            565828,
        ],
    ),
];
