//! The incremental analytics consumer: a read-side subscriber of the serving
//! pipeline's epoch stream.
//!
//! [`AnalyticsConsumer`] owns its own rank runtime, one [`DistGraph`] per rank (the
//! consumer's only copy of the topology: no rank holds the whole graph) and the warm
//! state of three analytics — PageRank, connected components and coreness. Instead of
//! redistributing the graph and recomputing from scratch every epoch, it ingests each
//! epoch's [`GraphDelta`] stream (and the published partition
//! it rode in on) and repairs its state with the kernels in [`crate::incremental`],
//! falling back to a cold recomputation only when the [`WarmPolicy`] says the epoch's
//! churn is too large for the repair to pay off — the same warm/cold self-stabilising
//! shape `xtrapulp_api::DynamicSession` uses for the partition itself.
//!
//! [`AnalyticsSubscriber`] binds a consumer to an
//! [`EpochStore`]: each [`poll`](AnalyticsSubscriber::poll)
//! blocks for the next published epoch ([`wait_for_epoch`]), fetches the delta chain
//! from the store's bounded history ([`deltas_between`]) and feeds the consumer — the
//! read-side analogue of RFP-style remote fetching, where consumers pull exactly the
//! state that changed instead of the producer redistributing everything.
//!
//! [`wait_for_epoch`]: xtrapulp_serve::EpochStore::wait_for_epoch
//! [`deltas_between`]: xtrapulp_serve::EpochStore::deltas_between

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use xtrapulp_comm::Runtime;
use xtrapulp_graph::{Csr, DistGraph, Distribution, GlobalId, GraphDelta, LocalId};
use xtrapulp_serve::EpochStore;

use crate::in_process;
use crate::incremental::{
    kcore_tighten, pagerank_resume, wcc_propagate, wcc_repair, PagerankWork, WccWork,
};

/// When the consumer repairs warm state and when it recomputes from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmPolicy {
    /// Fall back to a cold recomputation when an epoch touches more than this
    /// fraction of the graph's vertices (insert/delete endpoints plus additions).
    pub max_churn_fraction: f64,
    /// Move the rank graphs onto the *published* partition (each rank sends its rows to
    /// their new owners) and recompute cold once more than this fraction of vertices has
    /// migrated away from the placement the rank graphs were built with — the consumer's
    /// answer to an accumulating [`MigrationDiff`](xtrapulp_serve::MigrationDiff).
    pub redistribute_moved_fraction: f64,
    /// PageRank damping factor.
    pub damping: f64,
    /// PageRank convergence tolerance (global L1 residual).
    pub tolerance: f64,
    /// PageRank iteration cap per epoch.
    pub max_iterations: usize,
}

impl Default for WarmPolicy {
    fn default() -> Self {
        WarmPolicy {
            max_churn_fraction: 0.05,
            redistribute_moved_fraction: 0.25,
            damping: 0.85,
            tolerance: 1e-9,
            max_iterations: 400,
        }
    }
}

/// What one ingested epoch cost the consumer — the incremental-vs-cold evidence the
/// bench and the acceptance tests assert on.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// The graph epoch this report describes.
    pub epoch: u64,
    /// Whether the warm (repair) path ran, as opposed to a cold recomputation.
    pub warm: bool,
    /// Whether the rank graphs were moved onto the published partition.
    pub redistributed: bool,
    /// Fraction of vertices the epoch's deltas touched.
    pub churn_fraction: f64,
    /// Fraction of vertices whose published part differs from the rank graphs' placement.
    pub moved_fraction: f64,
    /// PageRank supersteps this epoch.
    pub pagerank_iterations: u64,
    /// Active vertices PageRank scored (summed over iterations and ranks).
    pub pagerank_vertices_scored: u64,
    /// Whether PageRank reached its residual tolerance.
    pub pagerank_converged: bool,
    /// Min-label propagation sweeps this epoch.
    pub wcc_sweeps: u64,
    /// Components a deletion forced a BFS connectivity check for.
    pub wcc_components_checked: u64,
    /// Labels reset because a deletion split their component.
    pub wcc_reset_vertices: u64,
    /// h-index tightening rounds this epoch.
    pub kcore_rounds: u64,
    /// Wall-clock seconds to ingest the epoch (apply deltas + update every analytic).
    pub seconds: f64,
    /// Bytes exchanged between ranks while ingesting the epoch: the deltas' apply, the
    /// analytics, and on a redistributing epoch the rows moved to their new owners.
    pub comm_bytes: u64,
}

impl EpochReport {
    /// One JSON object per epoch, for machine-readable bench output.
    /// Infallible by construction: every field is a plain number or bool and the
    /// writer appends to an in-memory `String`.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    fn no_op(epoch: u64, moved_fraction: f64, seconds: f64) -> EpochReport {
        EpochReport {
            epoch,
            warm: true,
            redistributed: false,
            churn_fraction: 0.0,
            moved_fraction,
            pagerank_iterations: 0,
            pagerank_vertices_scored: 0,
            pagerank_converged: true,
            wcc_sweeps: 0,
            wcc_components_checked: 0,
            wcc_reset_vertices: 0,
            kcore_rounds: 0,
            seconds,
            comm_bytes: 0,
        }
    }
}

/// What the most recent from-scratch recomputation cost — the warm-vs-cold reference
/// the bench and acceptance tests compare [`EpochReport`] work counters against.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ColdWork {
    /// PageRank supersteps of the cold run.
    pub pagerank_iterations: u64,
    /// Vertices the cold PageRank scored (every vertex, every iteration).
    pub pagerank_vertices_scored: u64,
    /// Min-label propagation sweeps of the cold run.
    pub wcc_sweeps: u64,
    /// h-index tightening rounds of the cold run (seeded from degrees).
    pub kcore_rounds: u64,
}

/// One rank's graph and warm state; lives on the consumer, handed into the rank
/// closure by reference each epoch.
struct RankState {
    graph: DistGraph,
    pagerank: Vec<f64>,
    labels: Vec<u64>,
    core: Vec<u64>,
}

/// What one rank did for an epoch (or the cold start). The kernels reduce their counters
/// globally, so every rank holds the same ones; `bytes` is the rank's own until summed.
#[derive(Clone, Copy, Default)]
struct Work {
    pagerank: PagerankWork,
    wcc: WccWork,
    kcore_rounds: u64,
    bytes: u64,
}

impl Work {
    fn cold(&self) -> ColdWork {
        ColdWork {
            pagerank_iterations: self.pagerank.iterations,
            pagerank_vertices_scored: self.pagerank.vertices_scored,
            wcc_sweeps: self.wcc.sweeps,
            kcore_rounds: self.kcore_rounds,
        }
    }
}

/// Split the ranks' results into their states and the job's work: rank 0's counters and
/// every rank's bytes.
fn fold_ranks(per_rank: Vec<(RankState, Work)>) -> (Vec<RankState>, Work) {
    let mut work = per_rank.first().map(|(_, w)| *w).unwrap_or_default();
    work.bytes = per_rank.iter().map(|(_, w)| w.bytes).sum();
    (per_rank.into_iter().map(|(state, _)| state).collect(), work)
}

/// The delta-aware analytics consumer. See the module docs for the design.
pub struct AnalyticsConsumer {
    runtime: Runtime,
    nranks: usize,
    /// One per rank, in rank order.
    states: Vec<RankState>,
    /// The distribution the rank graphs were built with (grown alongside the graph).
    dist: Distribution,
    policy: WarmPolicy,
    epoch: u64,
    /// Work of the most recent cold recomputation (epoch 0, a churn fallback or a
    /// redistribution) — the reference warm epochs are measured against.
    cold: ColdWork,
}

/// Map a published part id to the rank that owns its vertices in the consumer (parts may
/// outnumber the consumer's ranks).
fn part_to_rank(part: i32, nranks: usize) -> i32 {
    part.max(0) % nranks as i32
}

/// The consumer's placement of a published partition over `nranks` ranks.
fn placement(parts: &[i32], nranks: usize) -> Distribution {
    let ranks: Vec<i32> = parts.iter().map(|&p| part_to_rank(p, nranks)).collect();
    Distribution::from_parts(&ranks)
}

impl AnalyticsConsumer {
    /// Build a consumer with its own `nranks`-rank runtime, distribute `csr` over it by
    /// `parts` (the published partition) and compute the initial (cold) analytics state.
    /// `csr` is dropped once the rank graphs are built.
    pub fn new(nranks: usize, csr: Csr, parts: &[i32], policy: WarmPolicy) -> AnalyticsConsumer {
        assert!(nranks > 0, "an analytics consumer needs at least one rank");
        let dist = placement(parts, nranks);
        let mut runtime = Runtime::new(nranks);
        let per_rank = runtime
            .execute(|ctx| cold_state(ctx, DistGraph::from_csr(ctx, dist.clone(), &csr), &policy));
        let (states, work) = fold_ranks(per_rank);
        AnalyticsConsumer {
            runtime,
            nranks,
            states,
            dist,
            policy,
            epoch: 0,
            cold: work.cold(),
        }
    }

    /// The work of the most recent from-scratch recomputation — the reference warm
    /// epochs are measured against.
    pub fn cold_reference(&self) -> ColdWork {
        self.cold
    }

    /// The epoch the consumer's state corresponds to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-anchor the consumer to `epoch` without touching its state — for binding a
    /// freshly built consumer to a store whose initial published epoch is not 0.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The consumer's current topology, assembled from the rank graphs' owned rows.
    pub fn csr(&self) -> Csr {
        let rows = self.states.iter().flat_map(|st| st.graph.owned_arcs());
        Csr::from_rows(self.global_n(), rows)
    }

    /// The warm/cold policy in force.
    pub fn policy(&self) -> &WarmPolicy {
        &self.policy
    }

    /// Ingest one published epoch: `deltas` are the graph mutations since the epoch
    /// the consumer currently holds (in application order), `parts` the published
    /// partition of the new epoch. Repairs the analytics state warm when the policy
    /// allows, recomputes cold otherwise, and reports the work either way.
    pub fn ingest_epoch(
        &mut self,
        epoch: u64,
        deltas: &[GraphDelta],
        parts: &[i32],
    ) -> EpochReport {
        let _span = xtrapulp_obs::span_with("analytics_epoch", epoch);
        // lint: nondeterministic-ok — wall-clock feeds EpochReport timing
        // telemetry only; kernel results never depend on it.
        let start = Instant::now();
        let new_n = deltas.last().map_or(self.global_n(), |d| d.new_n());

        // Grow the distribution over the new tail first (the same hashing
        // `DistGraph::apply_delta` uses), so ownership queries below cover new ids.
        self.dist = self.dist.grown(new_n, self.nranks);

        // Accumulated migration between the rank graphs' placement and the published
        // partition (the consumer-side view of the epoch stream's MigrationDiff).
        let moved = (0..new_n.min(parts.len() as u64))
            .filter(|&v| {
                self.dist.owner(v, new_n, self.nranks) as i32
                    != part_to_rank(parts[v as usize], self.nranks)
            })
            .count();
        let moved_fraction = moved as f64 / new_n.max(1) as f64;
        let redistribute = moved_fraction > self.policy.redistribute_moved_fraction;

        if deltas.is_empty() && !redistribute {
            // Empty-delta fast path: the topology is unchanged, so every analytic is
            // still exact — a below-threshold placement drift costs nothing either.
            self.epoch = epoch;
            return EpochReport::no_op(epoch, moved_fraction, start.elapsed().as_secs_f64());
        }

        let mut touched: Vec<GlobalId> = deltas
            .iter()
            .flat_map(|d| d.touched_including_added())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let churn_fraction = touched.len() as f64 / new_n.max(1) as f64;
        let warm = !redistribute && churn_fraction <= self.policy.max_churn_fraction;
        // Past the threshold the rank graphs move onto the published partition, which
        // restores analytics locality; warm state does not survive the reshuffle.
        let target = redistribute.then(|| placement(parts, self.nranks).grown(new_n, self.nranks));

        let mut deleted: Vec<_> = deltas.iter().flat_map(|d| d.deleted_edges()).collect();
        deleted.sort_unstable();
        deleted.dedup();
        // How far a coreness can rise (see `remap_state`): the most inserted arcs any
        // one vertex receives over the epoch's deltas.
        let mut received: BTreeMap<GlobalId, u64> = BTreeMap::new();
        for &(u, _) in deltas.iter().flat_map(|d| d.insert_arcs()) {
            *received.entry(u).or_default() += 1;
        }
        let inserted_bound = received.into_values().max().unwrap_or(0);

        let per_rank = self.runtime.execute(|ctx| {
            let bytes_before = ctx.stats().bytes_sent();
            let old = &self.states[ctx.rank()];
            // A delta or a redistribution always runs here (the fast path took the
            // rest), so the old graph is never cloned.
            let mut graph = Cow::Borrowed(&old.graph);
            for delta in deltas {
                graph = Cow::Owned(graph.apply_delta(ctx, delta));
            }
            if let Some(dist) = &target {
                graph = Cow::Owned(graph.redistribute(ctx, dist.clone()));
            }
            let graph = graph.into_owned();
            let (state, mut work) = if warm {
                let mut state = remap_state(old, graph, inserted_bound);
                let RankState {
                    graph,
                    pagerank,
                    labels,
                    core,
                } = &mut state;
                let work = Work {
                    pagerank: in_process(pagerank_resume(
                        ctx,
                        graph,
                        pagerank,
                        Some(&touched),
                        self.policy.damping,
                        self.policy.tolerance,
                        self.policy.max_iterations,
                    )),
                    wcc: in_process(wcc_repair(ctx, graph, labels, &deleted)),
                    kcore_rounds: in_process(kcore_tighten(ctx, graph, core, usize::MAX)),
                    bytes: 0,
                };
                (state, work)
            } else {
                cold_state(ctx, graph, &self.policy)
            };
            work.bytes = ctx.stats().bytes_sent_since(bytes_before);
            (state, work)
        });

        let (states, work) = fold_ranks(per_rank);
        self.states = states;
        if let Some(dist) = target {
            self.dist = dist;
        }
        self.epoch = epoch;
        if !warm {
            self.cold = work.cold();
        }
        xtrapulp_obs::registry::histogram("analytics_epoch_nanos").record_duration(start.elapsed());
        EpochReport {
            warm,
            redistributed: redistribute,
            churn_fraction,
            pagerank_iterations: work.pagerank.iterations,
            pagerank_vertices_scored: work.pagerank.vertices_scored,
            pagerank_converged: work.pagerank.converged,
            wcc_sweeps: work.wcc.sweeps,
            wcc_components_checked: work.wcc.components_checked,
            wcc_reset_vertices: work.wcc.reset_vertices,
            kcore_rounds: work.kcore_rounds,
            comm_bytes: work.bytes,
            ..EpochReport::no_op(epoch, moved_fraction, start.elapsed().as_secs_f64())
        }
    }

    /// The PageRank of every vertex, gathered to a global vector (identical on every
    /// call until the next ingested epoch).
    pub fn pagerank_global(&mut self) -> Vec<f64> {
        self.gather(|st, v| st.pagerank[v])
    }

    /// The component label (smallest global id in the component) of every vertex.
    pub fn wcc_global(&mut self) -> Vec<u64> {
        self.gather(|st, v| st.labels[v])
    }

    /// The exact coreness of every vertex.
    pub fn coreness_global(&mut self) -> Vec<u64> {
        self.gather(|st, v| st.core[v])
    }

    fn global_n(&self) -> u64 {
        self.states[0].graph.global_n()
    }

    /// `value(state, v)` of every owned vertex `v` of every rank, by global id.
    fn gather<T: Copy + Default>(&self, value: impl Fn(&RankState, usize) -> T) -> Vec<T> {
        let mut out = vec![T::default(); self.global_n() as usize];
        for st in &self.states {
            for v in 0..st.graph.n_owned() {
                out[st.graph.global_id(v as LocalId) as usize] = value(st, v);
            }
        }
        out
    }
}

/// Cold recomputation of every analytic on `graph`; also the epoch-0 initialiser.
fn cold_state(
    ctx: &xtrapulp_comm::RankCtx,
    graph: DistGraph,
    policy: &WarmPolicy,
) -> (RankState, Work) {
    let n_owned = graph.n_owned();
    let uniform = 1.0 / graph.global_n().max(1) as f64;
    let mut pagerank = vec![uniform; n_owned];
    let pr = in_process(pagerank_resume(
        ctx,
        &graph,
        &mut pagerank,
        None,
        policy.damping,
        policy.tolerance,
        policy.max_iterations,
    ));
    let mut labels: Vec<u64> = (0..n_owned)
        .map(|v| graph.global_id(v as LocalId))
        .collect();
    let sweeps = in_process(wcc_propagate(ctx, &graph, &mut labels));
    let mut core: Vec<u64> = (0..n_owned)
        .map(|v| graph.degree_owned(v as LocalId))
        .collect();
    let rounds = in_process(kcore_tighten(ctx, &graph, &mut core, usize::MAX));
    let work = Work {
        pagerank: pr,
        wcc: WccWork {
            sweeps,
            ..WccWork::default()
        },
        kcore_rounds: rounds,
        bytes: 0,
    };
    let state = RankState {
        graph,
        pagerank,
        labels,
        core,
    };
    (state, work)
}

/// Carry one rank's warm state over to the delta-evolved `graph`: PageRank values are
/// rescaled by the vertex-count ratio (the teleport term's exact response to growth),
/// labels and coreness bounds are copied, and new vertices get their cold seeds (uniform
/// rank, own-id label, degree bound).
///
/// `inserted_bound` widens the old coreness into an upper bound of the new one: it is
/// `d_max`, the largest number of inserted arcs any one vertex receives over the epoch's
/// deltas. No coreness rises by more. Deletions only lower a coreness, so take the old
/// graph plus every inserted edge, let `c'(v) = t` there and `T = {u : c'(u) ≥ t}`, whose
/// induced subgraph has minimum degree `≥ t`. Taking the inserted edges out again costs a
/// vertex at most `d_max` neighbours, so in the old graph the subgraph on `T` has minimum
/// degree `≥ t − d_max` (a vertex added this epoch has inserted edges only, so it is in
/// `T` only when `t ≤ d_max`, and then there is nothing to show): `c_old(v) ≥ c'(v) −
/// d_max`. The epoch's inserted-*edge* count is a bound too, but hundreds wide on a
/// low-churn epoch: every seed is then the degree and the first round a cold one.
///
/// The consumer places vertices with an explicit distribution, under which
/// [`DistGraph::apply_delta`] keeps every owned local id and appends the new vertices, so
/// the carry-over is a prefix copy.
fn remap_state(old: &RankState, graph: DistGraph, inserted_bound: u64) -> RankState {
    let n_owned = graph.n_owned();
    let old_n_owned = old.graph.n_owned();
    debug_assert!(
        old_n_owned <= n_owned
            && (0..old_n_owned as LocalId).all(|v| graph.global_id(v) == old.graph.global_id(v)),
        "a stable apply_delta keeps owned local ids"
    );
    let scale = old.graph.global_n().max(1) as f64 / graph.global_n().max(1) as f64;
    let uniform = 1.0 / graph.global_n().max(1) as f64;
    let mut pagerank = vec![uniform; n_owned];
    let mut labels = vec![0u64; n_owned];
    let mut core = vec![0u64; n_owned];
    for v in 0..n_owned {
        let degree = graph.degree_owned(v as LocalId);
        if v < old_n_owned {
            pagerank[v] = old.pagerank[v] * scale;
            labels[v] = old.labels[v];
            core[v] = (old.core[v] + inserted_bound).min(degree);
        } else {
            labels[v] = graph.global_id(v as LocalId);
            core[v] = degree;
        }
    }
    RankState {
        graph,
        pagerank,
        labels,
        core,
    }
}

/// Why a subscriber could not ingest the next epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriberError {
    /// The consumer lagged beyond the store's bounded delta history; the chain back
    /// to its held epoch has been evicted and only a full rebuild can recover.
    Lagged {
        /// The epoch the consumer holds.
        held: u64,
        /// The store's current epoch.
        current: u64,
    },
}

impl std::fmt::Display for SubscriberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscriberError::Lagged { held, current } => write!(
                f,
                "analytics consumer lagged beyond the store's delta history \
                 (holds epoch {held}, store is at {current}); rebuild required"
            ),
        }
    }
}

impl std::error::Error for SubscriberError {}

/// An [`AnalyticsConsumer`] bound to an [`EpochStore`]: poll to block for the next
/// published epoch and ingest it.
pub struct AnalyticsSubscriber {
    store: Arc<EpochStore>,
    consumer: AnalyticsConsumer,
    held: u64,
}

impl AnalyticsSubscriber {
    /// Bind `consumer` (whose state must correspond to an epoch the store has
    /// published — normally the epoch-0 graph the pipeline was spawned with) to the
    /// store.
    pub fn new(store: Arc<EpochStore>, consumer: AnalyticsConsumer) -> AnalyticsSubscriber {
        let held = consumer.epoch();
        AnalyticsSubscriber {
            store,
            consumer,
            held,
        }
    }

    /// Block up to `timeout` for an epoch newer than the held one, ingest every delta
    /// between them, and return the epoch's report — or `Ok(None)` if nothing newer
    /// was published within the timeout.
    pub fn poll(&mut self, timeout: Duration) -> Result<Option<EpochReport>, SubscriberError> {
        let Some(snapshot) = self.store.wait_for_epoch(self.held + 1, timeout) else {
            return Ok(None);
        };
        // Pin the chain to the snapshot actually held: epochs published after the
        // wait returned are ingested by the next poll, against *their* partitions.
        let deltas = self.store.deltas_between(self.held, snapshot.epoch).ok_or(
            SubscriberError::Lagged {
                held: self.held,
                current: snapshot.epoch,
            },
        )?;
        let report = self
            .consumer
            .ingest_epoch(snapshot.epoch, &deltas, &snapshot.parts);
        self.held = snapshot.epoch;
        Ok(Some(report))
    }

    /// The epoch the subscriber has ingested up to.
    pub fn held_epoch(&self) -> u64 {
        self.held
    }

    /// The wrapped consumer (e.g. to gather global analytics vectors).
    pub fn consumer_mut(&mut self) -> &mut AnalyticsConsumer {
        &mut self.consumer
    }

    /// Unbind, returning the consumer.
    pub fn into_consumer(self) -> AnalyticsConsumer {
        self.consumer
    }
}
