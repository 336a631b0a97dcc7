//! The balance and refinement passes (Algorithms 4 and 5, §III-E), written once.
//!
//! The paper presents XtraPuLP as one weighted label-propagation skeleton whose edge
//! stage is "the vertex stage with `Wv` replaced by `We`/`Wc`", and PuLP as the same
//! skeleton with synchronous part sizes. This module is that skeleton: one
//! [`balance_pass`] and one [`refine_pass`], parameterised by an [`Objective`] (which
//! per-part loads a pass tracks and caps) and a crate-private [`Backend`] (how those
//! loads are kept current), both driven by one stage schedule, [`run_schedule`]. The
//! schedule policy — whether a warm seed falls back to the cold schedule, how far the
//! frontier reaches, how many rounds a stage runs, when a pass is skipped, capped or
//! booked as churn, how a refinement pass converges — lives here and nowhere else.
//!
//! The sweep kernels are written once as well. [`Refine`] and [`EdgeBalance`] read and
//! book part loads through a [`Loads`] view, and the two backends differ only in the
//! view a sweep opens — [`Live`] or [`Stale`] — and in how a sweep closes (the
//! distributed exchange; nothing serially). Vertex balance is the one kernel each
//! backend writes for itself: the distributed one spills vertices label propagation
//! cannot reach and breaks a score tie toward the vertex's own part, and giving PuLP
//! either would change its partitions.
//!
//! **Balancing** is weighted label propagation: the attractiveness of part `i` to a
//! vertex is the number of its neighbours in `i` scaled by a weight that is large for
//! underweight parts and zero for parts at or above the target. **Refinement** is a
//! constrained label-propagation pass that greedily reduces the cut while never letting
//! a part grow past the current maximum of any tracked load. Both run on the sweep
//! engine in [`crate::sweep`]: refinement is frontier-driven (a vertex is rescored only
//! when it or a neighbour — including a ghost, via [`push_part_updates`] — changed
//! part) and runs in two-phase chunks (proposals against the chunk-start labels, then
//! ordered application with a recheck), and balancing follows the fixed-point
//! perturbation policy (skip while refinement is active, one churn sweep at a
//! refinement fixed point, the full schedule while the constraint is unmet). Balance
//! kernels are [`SweepStep`]s: they score, recheck and book one vertex at a time
//! against the live loads, reading its neighbourhood once.
//!
//! | | vertex objective | edge objective |
//! |---|---|---|
//! | loads tracked | vertices `Sv` | vertices `Sv`, arcs `Se`, cut arcs `Sc` |
//! | balance weight | `Wv`, neighbours counted by degree | `count · (Re·We + Rc·Wc)` |
//! | refinement caps | `max Sv` | `max Sv`, `max Se`, `max Sc` |
//! | kernels | [`Refine`]; balance per backend | [`Refine`], [`EdgeBalance`] |
//! | **serial backend** ([`Serial`]) | [`Live`] loads: every move is booked at once, a move-free sweep is seen locally | same |
//! | **distributed backend** ([`Dist`]) | [`Stale`] loads: the sizes of the last exchange plus `mult ×` this rank's changes since, and a sweep is one round — boundary labels ship with [`push_part_updates`], and its frames carry every rank's changes, move count and queue length, summed in the same round, so the sizes are current and nobody asks again whether anything is active; balance also *spills* unreachable vertices of an overweight part | same, without the spill |
//!
//! The staleness is the distributed subtlety: every rank reassigns vertices using sizes
//! refreshed only at the end of the sweep, so an underweight part would receive a flood
//! from *every* rank at once and overshoot. Each rank therefore bounds its contribution
//! by charging `mult × (its local change)`, with `mult` the paper's multiplier ramping
//! from `nranks·Y` to `nranks·X` over the stage (see [`PartitionParams::multiplier`]) but
//! never below `nranks`, in every sweep: charged at less, every rank fills the same
//! underweight part, and a balance pass swings its largest part over and under the
//! target sweep after sweep. Two more rules are the distributed backend's alone
//! ([`Backend::STALE`]): a balance pass that started over its target stops after the
//! first sweep that leaves no part over it, and every refinement pass, cold polish
//! passes included, settles the swaps of boundary pairs that see each other's labels one
//! sweep late ([`SweepEngine::settle_swaps`]). Live loads see every move at once, so
//! serial PuLP keeps the papers' schedule.
//!
//! The paper does not give the functional form of `We`, `Wc`, `Re` and `Rc`. All three
//! weights here use the reciprocal-headroom form `max(target / load − 1, 0)` of `Wv`
//! (`Wc`'s target is the current maximum cut load), and the bias schedule is monotone:
//! every sweep adds one to `Re` while the edge constraint is unmet and to `Rc` once it
//! holds. That reproduces the qualitative behaviour: edge balance is met first, then
//! the maximum per-part cut is reduced and evened out. The distributed backend ends an
//! unbalanced pass at the sweep that meets the edge constraint, so it raises `Rc` only
//! in the churn sweeps of passes that start balanced.

use xtrapulp_comm::{PhaseTimer, RankCtx};
use xtrapulp_graph::{Csr, DistGraph, GlobalId, LocalId, UNASSIGNED};

use crate::error::PartitionError;
use crate::exchange::{push_part_updates, PartUpdate};
use crate::init::init_partition;
use crate::metrics::PartCounts;
use crate::params::PartitionParams;
use crate::partitioner::{greedy_seed_unassigned, warm_seed};
use crate::pulp::init;
use crate::sweep::{
    refine_budget, Frontier, PartCounters, RefineConvergence, ScoreScratch, StageKind, SweepEngine,
    SweepStage, SweepStep, SweepWorkspace, NO_MOVE,
};

// The per-part loads the passes track, each named by its block in the packed
// [`PartCounters`] buffers; a pass tracks the first one, two or three of them.
/// Vertices in the part.
const V: usize = 0;
/// Arcs (vertex degree sums) in the part.
const E: usize = 1;
/// Arcs whose source lies in the part and whose endpoint does not.
const C: usize = 2;

/// Which stage of Algorithm 1 a pass belongs to: the constraint it balances and the
/// loads it tracks and caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Objective {
    /// Stage 1: balance vertices, track `Sv` only.
    Vertex,
    /// Stage 2: balance arcs and cut arcs under the vertex constraint, track all three.
    Edge,
}

impl Objective {
    /// How many loads (the first so many) the objective tracks.
    fn loads(self) -> usize {
        match self {
            Objective::Vertex => 1,
            Objective::Edge => 3,
        }
    }
}

/// The ceilings of one sweep: the balance targets `Imb_v`/`Imb_e`, and per tracked load
/// the current maximum (or the target, when every part is under it) that no move may
/// push a part past. Loads an objective does not track are uncapped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    imb_v: f64,
    imb_e: f64,
    max_v: f64,
    max_e: f64,
    max_c: f64,
}

impl Bounds {
    fn of(counters: &PartCounters, objective: Objective, (imb_v, imb_e): (f64, f64)) -> Self {
        let max = |load: usize, floor: f64| {
            counters.size[counters.block(load)]
                .iter()
                .map(|&s| s as f64)
                .fold(floor, f64::max)
        };
        let edge = objective == Objective::Edge;
        Bounds {
            imb_v,
            imb_e,
            max_v: max(V, imb_v),
            max_e: if edge { max(E, imb_e) } else { f64::INFINITY },
            max_c: if edge { max(C, 1.0) } else { f64::INFINITY },
        }
    }
}

/// The reciprocal-headroom weight shared by `Wv`, `We` and `Wc`: large for a part far
/// under `target`, zero at or above it.
#[inline]
fn headroom(target: f64, load: f64) -> f64 {
    (target / load.max(1.0) - 1.0).max(0.0)
}

/// A graph as the kernels see it: vertices and neighbours are indices into the part
/// vector, whether that is a whole [`Csr`] or one rank's owned + ghost view.
pub(crate) trait Adjacency {
    /// The vertices swept and counted: every vertex, or one rank's owned ones.
    fn n_owned(&self) -> usize;
    /// The neighbours of owned vertex `v`.
    fn adjacent(&self, v: u32) -> impl Iterator<Item = usize> + '_;
    /// The degree of owned vertex `v`.
    fn degree_owned(&self, v: u32) -> u64;
    /// The degree of any vertex the part vector covers (a ghost's is its global degree).
    fn degree_of(&self, v: usize) -> u64;
    /// The vertices the part vector covers: the owned ones, then one rank's ghosts.
    fn n_total(&self) -> usize;
    /// The owned vertices adjacent to ghost `slot` (vertex `n_owned + slot`).
    fn ghost_neighbors(&self, slot: usize) -> &[LocalId];
}

impl Adjacency for Csr {
    #[inline]
    fn n_owned(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn adjacent(&self, v: u32) -> impl Iterator<Item = usize> + '_ {
        self.neighbors(v as u64).iter().map(|&u| u as usize)
    }

    #[inline]
    fn degree_owned(&self, v: u32) -> u64 {
        self.degree(v as u64)
    }

    #[inline]
    fn degree_of(&self, v: usize) -> u64 {
        self.degree(v as u64)
    }

    fn n_total(&self) -> usize {
        self.num_vertices()
    }

    /// A whole graph has no ghosts.
    fn ghost_neighbors(&self, _slot: usize) -> &[LocalId] {
        &[]
    }
}

impl Adjacency for DistGraph {
    #[inline]
    fn n_owned(&self) -> usize {
        DistGraph::n_owned(self)
    }

    #[inline]
    fn adjacent(&self, v: u32) -> impl Iterator<Item = usize> + '_ {
        self.neighbors(v).iter().map(|&u| u as usize)
    }

    #[inline]
    fn degree_owned(&self, v: u32) -> u64 {
        DistGraph::degree_owned(self, v)
    }

    #[inline]
    fn degree_of(&self, v: usize) -> u64 {
        self.degree(v as LocalId)
    }

    fn n_total(&self) -> usize {
        DistGraph::n_total(self)
    }

    fn ghost_neighbors(&self, slot: usize) -> &[LocalId] {
        self.halo().owned_neighbors(slot)
    }
}

/// Count `v`'s neighbours in its own part `x` and in `target` under the current labels
/// — the cheap recheck a refinement apply runs instead of a full rescoring.
#[inline]
fn recount_two<G: Adjacency>(
    graph: &G,
    v: u32,
    parts: &[i32],
    x: usize,
    target: usize,
) -> (f64, f64) {
    let mut s_x = 0.0f64;
    let mut s_t = 0.0f64;
    for u in graph.adjacent(v) {
        let pu = parts[u] as usize;
        if pu == x {
            s_x += 1.0;
        } else if pu == target {
            s_t += 1.0;
        }
    }
    (s_x, s_t)
}

/// Feed the owned neighbours of `v` to `mark`: what an applied move activates (ghost
/// re-activation travels through [`push_part_updates`] on the owning side).
fn owned_neighbors<G: Adjacency>(graph: &G) -> impl Fn(u32, &mut dyn FnMut(u32)) + '_ {
    let n_owned = graph.n_owned();
    move |v, mark| {
        for u in graph.adjacent(v).filter(|&u| u < n_owned) {
            mark(u as u32);
        }
    }
}

/// One chunked engine sweep of refinement `kernel` over `graph`'s owned vertices;
/// returns the moves applied. Applied moves activate the mover's owned neighbours, and
/// `on_move` observes each of them.
fn sweep<G: Adjacency, K: SweepStage>(
    graph: &G,
    engine: &mut SweepEngine,
    parts: &mut [i32],
    use_frontier: bool,
    mut kernel: K,
    on_move: impl FnMut(u32, i32),
) -> u64 {
    let n_owned = graph.n_owned();
    let neighbors = owned_neighbors(graph);
    engine.sweep(
        n_owned,
        parts,
        use_frontier,
        &mut kernel,
        neighbors,
        on_move,
    )
}

/// One full one-vertex-at-a-time engine sweep of balance `kernel` over `graph`'s owned
/// vertices (see [`SweepEngine::step_sweep`]); otherwise as [`sweep`].
fn step_sweep<G: Adjacency, K: SweepStep>(
    graph: &G,
    engine: &mut SweepEngine,
    parts: &mut [i32],
    mut kernel: K,
    on_move: impl FnMut(u32, i32),
) -> u64 {
    let n_owned = graph.n_owned();
    let neighbors = owned_neighbors(graph);
    engine.step_sweep(n_owned, parts, &mut kernel, neighbors, on_move)
}

/// Fill the first `loads` blocks of `out` (`p` slots each) with `graph`'s share of each
/// load — vertices, arcs, cut arcs — per part, over its owned vertices: an
/// [`UNASSIGNED`] vertex counts in no part, and an arc to one is cut. Returns the arcs
/// read (none unless the cut arcs are counted). The one per-part counter: the passes
/// measure with it, [`PartCounts`] counts with it, and it is the oracle of
/// [`patch_loads`].
pub(crate) fn count_loads<G: Adjacency>(
    graph: &G,
    parts: &[i32],
    p: usize,
    loads: usize,
    out: &mut [i64],
) -> u64 {
    let out = &mut out[..loads * p];
    out.fill(0);
    let mut arcs = 0;
    for (v, &pv) in parts.iter().enumerate().take(graph.n_owned()) {
        if pv == UNASSIGNED {
            continue;
        }
        out[V * p + pv as usize] += 1;
        if loads > E {
            out[E * p + pv as usize] += graph.degree_owned(v as u32) as i64;
        }
        if loads > C {
            let cut = graph.adjacent(v as u32).filter(|&u| parts[u] != pv);
            out[C * p + pv as usize] += cut.count() as i64;
            arcs += graph.degree_owned(v as u32);
        }
    }
    arcs
}

/// Add to `out` (the three load blocks, `p` slots each) how `graph`'s share of the loads
/// [`count_loads`] counts moves when the labels go from `before` to `after`, both over
/// every vertex the part vector covers. Only the vertices whose label differs are
/// visited: an owned one through its row, a ghost through the owned vertices adjacent to
/// it (its own row is its owner's to patch). Returns the arcs read.
pub(crate) fn patch_loads<G: Adjacency>(
    graph: &G,
    before: &[i32],
    after: &[i32],
    p: usize,
    out: &mut [i64],
) -> u64 {
    let n_owned = graph.n_owned();
    let moved = |x: usize| before[x] != after[x];
    // The arc from owned vertex `u`, whose label stayed, to a vertex leaving `was` for
    // `now`: cut before iff `u`'s label differs from `was`, cut after iff from `now`.
    let retarget = |out: &mut [i64], u: usize, was: i32, now: i32| {
        let pu = after[u];
        if pu != UNASSIGNED {
            out[C * p + pu as usize] += i64::from(pu != now) - i64::from(pu != was);
        }
    };
    // Few labels change, so whole chunks are compared first (a `memcmp` each).
    const CHUNK: usize = 64;
    let n_total = graph.n_total();
    let chunks = before[..n_total]
        .chunks(CHUNK)
        .zip(after[..n_total].chunks(CHUNK));
    let changed = chunks.enumerate().filter(|(_, (was, now))| was != now);
    let movers = changed.flat_map(|(c, (was, _))| c * CHUNK..c * CHUNK + was.len());
    let mut arcs = 0;
    for x in movers.filter(|&x| moved(x)) {
        let (was, now) = (before[x], after[x]);
        if x >= n_owned {
            let owned = graph.ghost_neighbors(x - n_owned);
            for &u in owned.iter().filter(|&&u| !moved(u as usize)) {
                retarget(out, u as usize, was, now);
            }
            arcs += owned.len() as u64;
            continue;
        }
        // The row leaves `was` with its cut arcs under the old labels and joins `now`
        // with those under the new ones; a neighbour that moved too patches its own row.
        let (mut cut_was, mut cut_now) = (0i64, 0i64);
        for u in graph.adjacent(x as u32) {
            cut_was += i64::from(before[u] != was);
            cut_now += i64::from(after[u] != now);
            if u < n_owned && !moved(u) {
                retarget(out, u, was, now);
            }
        }
        let deg = graph.degree_owned(x as u32);
        for (label, sign, cut) in [(was, -1, cut_was), (now, 1, cut_now)] {
            if label != UNASSIGNED {
                out[V * p + label as usize] += sign;
                out[E * p + label as usize] += sign * deg as i64;
                out[C * p + label as usize] += sign * cut;
            }
        }
        arcs += deg;
    }
    arcs
}

/// What [`patch_loads`] must add: `graph`'s loads under `after` less those under
/// `before`, counted from scratch. The debug oracle of every patch.
fn counted_change<G: Adjacency>(graph: &G, before: &[i32], after: &[i32], p: usize) -> Vec<i64> {
    let (mut was, mut now) = (vec![0i64; 3 * p], vec![0i64; 3 * p]);
    count_loads(graph, before, p, 3, &mut was);
    count_loads(graph, after, p, 3, &mut now);
    now.iter().zip(&was).map(|(now, was)| now - was).collect()
}

/// The first `loads` part loads of a distributed partition, one `num_parts`-long block
/// each, summed over all ranks in one allreduce, and the arcs this rank read counting
/// them. Must be called collectively.
fn global_part_loads(
    ctx: &RankCtx,
    graph: &DistGraph,
    parts: &[i32],
    num_parts: usize,
    loads: usize,
) -> (Vec<i64>, u64) {
    let mut local = vec![0i64; loads * num_parts];
    let arcs = count_loads(graph, parts, num_parts, loads, &mut local);
    (ctx.allreduce_sum_i64(&local), arcs)
}

/// What serial PuLP and distributed XtraPuLP really disagree on: how part sizes are
/// kept current while vertices move, and who needs to agree that something moved or is
/// still active.
pub(crate) trait Backend {
    /// Whether sweeps score against the loads and ghost labels of the last exchange, so
    /// that the other ranks' moves are seen one sweep late. Such a backend ends a balance
    /// pass at the first sweep that meets its target (see [`balance_pass`]) and settles
    /// swaps in every refinement pass ([`SweepEngine::settle_swaps`]); live loads keep
    /// the papers' schedule.
    const STALE: bool = false;

    /// Vertices and arcs of the whole graph.
    fn global_size(&self) -> (u64, u64);

    /// The vertices this backend sweeps (every vertex, or one rank's owned ones).
    fn owned(&self) -> usize;

    /// The local index of global vertex `g`, if this backend sweeps it.
    fn local_id(&self, g: GlobalId) -> Option<u32>;

    /// The starting labels of a run: a cold initialisation, or `initial` (one entry per
    /// vertex the part vector covers, owned ones first) with every [`UNASSIGNED`] entry
    /// labelled and marked in `frontier` together with its neighbourhood.
    fn seed(
        &self,
        params: &PartitionParams,
        initial: Option<&[i32]>,
        frontier: &mut Frontier,
    ) -> Result<Vec<i32>, PartitionError>;

    /// A stage of the schedule has ended.
    fn end_stage(&mut self) {}

    /// The pass that closes a cold schedule, under its own phase name; none by default.
    fn closing_pass(
        &mut self,
        _parts: &mut [i32],
        _params: &PartitionParams,
        _ws: &mut SweepWorkspace,
        _timings: &mut PhaseTimer,
    ) -> Result<(), PartitionError> {
        Ok(())
    }

    /// Whether anyone sweeping has a vertex queued in the frontier: a global fact, so
    /// every rank branches on it together. A sweep's closing exchange leaves the answer
    /// with the frontier, so a distributed backend communicates only when nothing is
    /// known (a warm run's first query, after seeding and before any exchange).
    fn any_active(&self, frontier: &mut Frontier) -> bool;

    /// The frontier's queue length summed over everyone sweeping. A distributed backend
    /// communicates unless the frontier holds the exact count.
    fn global_active(&self, frontier: &mut Frontier) -> u64;

    /// Fill the first `loads` blocks of `counters.size` with the partition's current
    /// global loads; returns the arcs read.
    fn measure(&self, parts: &[i32], loads: usize, counters: &mut PartCounters) -> u64;

    /// `counts`, the global counts of the labels `before`, patched into those of `after`
    /// (both over every vertex the part vector covers) by [`patch_loads`] over the
    /// vertices whose label differs, each patch summed over everyone sweeping. Books
    /// the arcs read into `arcs`.
    fn patch_counts(
        &self,
        counts: &PartCounts,
        before: &[i32],
        after: &[i32],
        arcs: &mut u64,
    ) -> PartCounts;

    /// One refinement sweep under `bounds`, tracking all three loads with `EDGE` and
    /// only vertices without; returns the moves applied globally, after which
    /// `counters.size` is current again.
    fn refine_sweep<const EDGE: bool>(
        &mut self,
        parts: &mut [i32],
        params: &PartitionParams,
        ws: &mut SweepWorkspace,
        bounds: Bounds,
        use_frontier: bool,
    ) -> Result<u64, PartitionError>;

    /// One balance sweep under `bounds` with the edge bias `(Re, Rc)`. Returns the
    /// moves applied globally, after which `counters.size` is current again.
    fn balance_sweep(
        &mut self,
        objective: Objective,
        parts: &mut [i32],
        params: &PartitionParams,
        ws: &mut SweepWorkspace,
        bounds: Bounds,
        bias: (f64, f64),
    ) -> Result<u64, PartitionError>;
}

/// The balance targets `(Imb_v, Imb_e)` of a run.
fn targets<B: Backend>(backend: &B, params: &PartitionParams) -> (f64, f64) {
    let (n, arcs) = backend.global_size();
    (params.target_max_vertices(n), params.target_max_arcs(arcs))
}

/// Slack applied to the balance targets when deciding whether a warm start needs the
/// balance stages at all, and whether the final rebalance engages: within this factor
/// a partition counts as balanced.
const WARM_BALANCE_SLACK: f64 = 1.02;

/// A warm run's start, as the stage schedule takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmStart<'a> {
    /// One label per vertex the part vector covers, owned ones first: the previous
    /// partition, [`UNASSIGNED`] for the vertices seeding labels.
    pub(crate) seed: &'a [i32],
    /// The global ids the mutation delta since the seed touched, when known.
    pub(crate) touched: Option<&'a [GlobalId]>,
    /// The seed's exact global counts, when the caller carries them.
    pub(crate) counts: Option<&'a PartCounts>,
    /// Whether the whole seed, on every rank, labels every vertex: nothing to seed.
    pub(crate) complete: bool,
}

/// The stage schedule of one run (Algorithm 1), for serial PuLP and distributed
/// XtraPuLP alike: the one place that decides what a cold or warm run does, from scratch
/// or from `warm`.
///
/// * **Seeding** (`init` / `warm_seed`). A cold run initialises; a warm run keeps its
///   seed and labels each vertex that arrived [`UNASSIGNED`] (see [`Backend::seed`]),
///   unless the seed is complete, which leaves nothing to label and nobody to ask.
/// * **Fallback** (`load_scan`). Warm runs skip the balance passes, which move vertices
///   aggressively by design, while the seed meets both balance targets within
///   [`WARM_BALANCE_SLACK`]: a converged run routinely lands within rounding of the
///   fractional target (221 vertices against 220.0), which is noise, not imbalance. A
///   seed past that falls back to the cold schedule, still skipping initialisation:
///   balance needs several rounds to converge, and one round overshoots. The seed's
///   loads are its carried counts patched by the vertices seeding labelled (a complete
///   seed's are its counts), so the check reads no arc the seed kept; without counts,
///   one scan measures them.
/// * **Counts.** A refine-only run whose seed's exact counts are known — carried, or
///   every load scanned — returns them with the seeded labels ([`Seeded`]), so its
///   caller patches them by the vertices whose label changed instead of counting the
///   graph again. A cold run or a fallback returns none.
/// * **Frontier.** A cold run, a fallback and a warm run without a touched set start
///   with every vertex active. A refine-only run with one seeds each touched vertex
///   alone — its adjacency changed, its label did not, so only its own score can have
///   moved — beside the newly labelled neighbourhoods, and from there every applied move
///   activates the mover's neighbours: after a small delta it scores a small multiple of
///   the touched set.
/// * **Rounds.** The cold schedule runs `outer_iters` balance/refine rounds per stage.
///   A refine-only run runs refinement passes until the frontier empties, at most
///   `warm_outer_iters` of them (`0`: seed only), or `max(warm_outer_iters,
///   outer_iters)` when its frontier is delta-scoped. The dynamic multiplier ramps from
///   `Y` to `X` over the rounds actually run, so a short schedule still reaches the
///   conservative end-of-run multiplier instead of overshooting part sizes collectively.
/// * **Stages.** Cold: `vertex_stage`, then `edge_stage` iff `edge_balance_stage` and
///   `p > 1`, then the backend's [`closing_pass`](Backend::closing_pass). Refine-only:
///   [`warm_refine_rounds`], timed as `vertex_stage`.
///
/// Returns the labels and, for a refine-only run that knew them, the seed's counts;
/// `timings` gains the phases above and the engine's per-stage sweep times, and the
/// engine's stats the arcs its load counts read. Collective on a distributed backend:
/// every branch is taken on global numbers, so all ranks take it together.
pub(crate) fn run_schedule<B: Backend>(
    backend: &mut B,
    params: &PartitionParams,
    warm: Option<WarmStart<'_>>,
    timings: &mut PhaseTimer,
    ws: &mut SweepWorkspace,
) -> Result<(Vec<i32>, Option<Seeded>), PartitionError> {
    let n = backend.owned();
    ws.begin_run(n, params.num_parts);
    let frontier = &mut ws.engine.frontier;
    let (mut parts, balance, seeded) = match warm {
        None => (
            timings.time("init", || backend.seed(params, None, frontier))?,
            true,
            None,
        ),
        Some(warm) => {
            let parts = timings.time("warm_seed", || {
                if warm.complete {
                    Ok(warm.seed.to_vec())
                } else {
                    backend.seed(params, Some(warm.seed), frontier)
                }
            })?;
            let (balance, counts) = timings.time("load_scan", || {
                warm_seed_needs_balance(backend, warm, &parts, params, ws)
            });
            let seeded = counts.filter(|_| !balance).map(|counts| Seeded {
                labels: parts.clone(),
                counts,
            });
            (parts, balance, seeded)
        }
    };
    let touched = warm.and_then(|warm| warm.touched);
    match touched {
        Some(touched) if !balance => {
            for lid in touched.iter().filter_map(|&g| backend.local_id(g)) {
                ws.engine.frontier.mark(lid);
            }
        }
        _ => {
            // Everyone queues all they sweep: the global count is the vertex count.
            ws.engine.frontier.seed_all(n);
            ws.engine.frontier.record_exact(backend.global_size().0);
        }
    }
    let outer = if balance {
        params.outer_iters
    } else {
        params.warm_outer_iters
    };
    let scheduled = &PartitionParams {
        outer_iters: outer,
        ..*params
    };
    if balance {
        timings.time("vertex_stage", || {
            balance_refine_rounds(backend, Objective::Vertex, outer, &mut parts, scheduled, ws)
        })?;
        backend.end_stage();
        if params.edge_balance_stage && params.num_parts > 1 {
            timings.time("edge_stage", || {
                balance_refine_rounds(backend, Objective::Edge, outer, &mut parts, scheduled, ws)
            })?;
            backend.end_stage();
        }
        backend.closing_pass(&mut parts, scheduled, ws, timings)?;
    } else {
        let rounds_cap = match touched {
            Some(_) => outer.max(params.outer_iters),
            None => outer,
        };
        timings.time("vertex_stage", || {
            warm_refine_rounds(backend, outer, rounds_cap, &mut parts, scheduled, ws)
        })?;
        backend.end_stage();
    }
    timings.merge_max(&ws.engine.stage_timings());
    Ok((parts, seeded))
}

/// What a refine-only warm run started from when it knew the exact counts of its seeded
/// labels: those labels and their global counts, for the caller to patch.
pub(crate) struct Seeded {
    pub(crate) labels: Vec<i32>,
    pub(crate) counts: PartCounts,
}

/// Whether a warm seed overshoots a balance target by more than [`WARM_BALANCE_SLACK`],
/// so that the run must fall back to the cold schedule, and the seeded labels' exact
/// counts when they are known. The loads are the seed's carried counts patched into
/// those of `parts`, the seeded labels (no patch for a complete seed), or else one scan
/// for every load a refine-only run's first pass tracks (every load with the edge stage,
/// which makes the counts known). Either way they are left with `ws.counters` as
/// measured, so the graph is counted (and, distributed, the loads reduced) at most once
/// for the check and that pass together. Collective on a distributed backend.
fn warm_seed_needs_balance<B: Backend>(
    backend: &B,
    warm: WarmStart<'_>,
    parts: &[i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
) -> (bool, Option<PartCounts>) {
    let p = params.num_parts;
    let (imb_v, imb_e) = targets(backend, params);
    let edge_stage = params.edge_balance_stage && p > 1;
    let loads = if edge_stage { 3 } else { 2 };
    let arcs = &mut ws.engine.stats.arcs_counted;
    let counts = match warm.counts {
        Some(carried) => {
            let counts = if warm.complete {
                carried.clone()
            } else {
                backend.patch_counts(carried, warm.seed, parts, arcs)
            };
            ws.counters.size[..loads * p].copy_from_slice(&counts.loads()[..loads * p]);
            Some(counts)
        }
        None => {
            *arcs += backend.measure(parts, loads, &mut ws.counters);
            (loads == 3).then(|| PartCounts::from_loads(&ws.counters.size))
        }
    };
    ws.counters.measured = loads;
    let (size_v, size_e) = ws.counters.size[..2 * p].split_at(p);
    let balance = size_v
        .iter()
        .any(|&s| s as f64 > imb_v * WARM_BALANCE_SLACK)
        || size_e
            .iter()
            .any(|&s| s as f64 > imb_e * WARM_BALANCE_SLACK);
    (balance, counts)
}

/// Make the loads `objective` tracks current at the top of a pass, unless
/// [`warm_seed_needs_balance`] just measured them for it.
fn measure_for_pass<B: Backend>(
    backend: &B,
    objective: Objective,
    parts: &[i32],
    ws: &mut SweepWorkspace,
) {
    if std::mem::take(&mut ws.counters.measured) < objective.loads() {
        ws.engine.stats.arcs_counted += backend.measure(parts, objective.loads(), &mut ws.counters);
    }
}

/// One balance pass (Algorithm 4, and its §III-E edge variant): up to
/// `params.balance_iters` weighted label-propagation sweeps towards the parts under
/// `objective`'s target, ending early at a move-free sweep and, on a [`Backend::STALE`]
/// backend, at the first sweep after which no part is over the target: each further
/// sweep would move vertices on estimates that lag the other ranks' moves, and
/// overshoot. Collective on a distributed backend; every branch below is taken on global
/// numbers, so all ranks take it together.
fn balance_pass<B: Backend>(
    backend: &mut B,
    objective: Objective,
    parts: &mut [i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
) -> Result<(), PartitionError> {
    let targets = targets(backend, params);
    measure_for_pass(backend, objective, parts, ws);
    let (balanced_load, target) = match objective {
        Objective::Vertex => (V, targets.0),
        Objective::Edge => (E, targets.1),
    };
    let over_target = |counters: &PartCounters| {
        counters.size[counters.block(balanced_load)]
            .iter()
            .any(|&s| s as f64 > target)
    };
    let balanced = !over_target(&ws.counters);

    // Stall detection, edge objective only: when the target is unreachable
    // (hub-dominated skew), pass after pass of balance churn costs full sweeps without
    // improving the maximum arc load: detect the lack of progress and stop paying for it.
    if objective == Objective::Edge && !balanced {
        let cur_max = ws.counters.size[ws.counters.block(E)]
            .iter()
            .map(|&s| s as f64)
            .fold(0.0, f64::max);
        if ws
            .edge_balance_last_max
            .is_some_and(|prev| cur_max >= prev * 0.99)
        {
            ws.edge_balance_stalled = true;
        }
        ws.edge_balance_last_max = Some(cur_max);
    }
    let stalled = objective == Objective::Edge && ws.edge_balance_stalled;

    // The pass exists to meet its constraint; once that holds, its label churn towards
    // momentarily-underweight parts is pure perturbation. Perturbation is only *useful*
    // when refinement has converged (empty frontier) — it is what lets the next
    // refinement round escape its local optimum — so: balanced + refinement still
    // active → skip the pass; balanced + refinement converged → one churn sweep;
    // unbalanced → the full schedule. A stalled pass keeps its single churn sweep too:
    // the perturbation still feeds refinement, the remaining schedule buys nothing.
    let sweep_cap = if stalled {
        1
    } else if balanced {
        usize::from(!backend.any_active(&mut ws.engine.frontier))
    } else {
        params.balance_iters
    };
    // Balanced or stalled-at-unreachable passes only perturb; book them as churn so
    // reports can attribute the work.
    ws.engine.set_stage(if balanced || stalled {
        StageKind::Churn
    } else {
        StageKind::Balance
    });

    // Bias schedule: emphasise edge balance until the constraint is met, then shift the
    // emphasis to the cut-balance objective. A stale backend's pass ends at the sweep
    // that meets the constraint, so there the shift happens only in the churn sweep of
    // a pass that starts balanced.
    let (mut r_e, mut r_c) = (1.0f64, 1.0f64);
    for _ in 0..sweep_cap {
        let bounds = Bounds::of(&ws.counters, objective, targets);
        if objective == Objective::Edge {
            if over_target(&ws.counters) {
                r_e += 1.0;
            } else {
                r_c += 1.0;
            }
        }
        let moves = backend.balance_sweep(objective, parts, params, ws, bounds, (r_e, r_c))?;
        // A globally move-free balance sweep leaves sizes (hence weights and
        // admissibility) untouched, so every remaining sweep of this pass would be
        // identical: skip them. On stale loads a sweep that met the target ends the pass
        // too: the next would move vertices on loads that lag the other ranks' moves.
        if moves == 0 || (B::STALE && !over_target(&ws.counters)) {
            break;
        }
    }
    Ok(())
}

/// One refinement pass (Algorithm 5, and its §III-E edge variant): constrained
/// label-propagation sweeps that greedily minimise the cut without letting any part
/// exceed the current maximum (or the target, whichever is larger) of any load
/// `objective` tracks. Frontier-driven with the [`RefineConvergence`] protocol.
/// Collective on a distributed backend; every branch is taken on global numbers.
fn refine_pass<B: Backend>(
    backend: &mut B,
    objective: Objective,
    parts: &mut [i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
    convergence: RefineConvergence,
) -> Result<(), PartitionError> {
    let frontier_only = convergence == RefineConvergence::FrontierOnly;
    // A globally-converged frontier-only pass does no work at all — skip measuring the
    // loads (an O(n + m) scan and, distributed, a collective each) too.
    if frontier_only && !backend.any_active(&mut ws.engine.frontier) {
        return Ok(());
    }
    let targets = targets(backend, params);
    measure_for_pass(backend, objective, parts, ws);
    ws.engine.set_stage(StageKind::Refine);
    // Stale ghost labels make boundary pairs swap back and forth in polish passes as
    // much as in frontier-only ones.
    ws.engine.settle_swaps = frontier_only || B::STALE;
    // A pass inheriting a large frontier (the previous round did not converge — heavy
    // churn classes) drops it and opens with the polish full sweep: that costs barely
    // more than the frontier sweep it replaces and restores per-round global coverage.
    // The one test that needs the exact count, not just whether it is zero.
    if !frontier_only
        && backend.global_active(&mut ws.engine.frontier) > backend.global_size().0 / 8
    {
        ws.engine.frontier.clear();
    }

    for _ in 0..refine_budget(params.refine_iters) {
        // Polish on an empty frontier: a full sweep verifies the fixed point (part
        // sizes change as vertices move, so a vertex whose neighbourhood never changed
        // can still become movable; the frontier alone cannot see that).
        let use_frontier = backend.any_active(&mut ws.engine.frontier);
        if !use_frontier && frontier_only {
            break;
        }
        let bounds = Bounds::of(&ws.counters, objective, targets);
        let moves = match objective {
            Objective::Vertex => {
                backend.refine_sweep::<false>(parts, params, ws, bounds, use_frontier)
            }
            Objective::Edge => {
                backend.refine_sweep::<true>(parts, params, ws, bounds, use_frontier)
            }
        }?;
        // Global fixed point: a move-free full sweep ends the pass; a move-free
        // frontier sweep ends it only without polish.
        if moves == 0 && (!use_frontier || frontier_only) {
            break;
        }
    }
    Ok(())
}

/// The cold schedule of one stage: `rounds` alternations of a balance pass (full
/// sweeps) and a refinement pass (frontier sweeps with a verifying full polish),
/// exactly as in the papers.
fn balance_refine_rounds<B: Backend>(
    backend: &mut B,
    objective: Objective,
    rounds: usize,
    parts: &mut [i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
) -> Result<(), PartitionError> {
    for _ in 0..rounds {
        balance_pass(backend, objective, parts, params, ws)?;
        refine_pass(
            backend,
            objective,
            parts,
            params,
            ws,
            RefineConvergence::Polish,
        )?;
    }
    Ok(())
}

/// The refine-only schedule of a warm run whose seed meets both balance targets (see
/// [`run_schedule`] for when that is and what the frontier starts with): frontier-only
/// passes until the frontier empties, never widening beyond the seeded frontier and
/// what the applied moves activate, since the seed is the previous epoch's
/// already-polished partition. The engine settles cross-rank swaps, so the `rounds_cap`
/// passes are a backstop a run is not expected to reach. `outer == 0` is the seed-only
/// schedule: nothing is refined.
fn warm_refine_rounds<B: Backend>(
    backend: &mut B,
    outer: usize,
    rounds_cap: usize,
    parts: &mut [i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
) -> Result<(), PartitionError> {
    if outer == 0 {
        return Ok(());
    }
    // One refinement stage per round: with the edge stage enabled that is the edge
    // objective, whose admissibility (vertex, edge and cut caps) is a superset of the
    // vertex objective's and whose score rule is identical — running the vertex-capped
    // pass first would consume the frontier to convergence and leave the edge-capped
    // pass nothing to check.
    let objective = if params.edge_balance_stage && params.num_parts > 1 {
        Objective::Edge
    } else {
        Objective::Vertex
    };
    for _ in 0..rounds_cap {
        if !backend.any_active(&mut ws.engine.frontier) {
            break;
        }
        refine_pass(
            backend,
            objective,
            parts,
            params,
            ws,
            RefineConvergence::FrontierOnly,
        )?;
    }
    Ok(())
}

// ------------------------------------------------------------------------------------
// The kernels, written once over a view of the part loads
// ------------------------------------------------------------------------------------

/// How a sweep sees the part loads it tracks and books its moves into them: the one
/// thing the serial and the distributed kernels disagree on.
trait Loads {
    /// The estimate of part `i`'s `load` (`V`, `E` or `C`).
    fn est(&self, load: usize, i: usize) -> f64;

    /// Book `leaves` of `load` leaving part `x` and `arrives` arriving in `target`.
    fn shift(&mut self, load: usize, x: usize, target: usize, leaves: i64, arrives: i64);

    /// Book the move of a degree-`deg` vertex with `s_x`/`s_t` neighbours in its own
    /// part and in `target` across all three loads.
    #[inline]
    fn shift_all(&mut self, x: usize, target: usize, deg: f64, s_x: f64, s_t: f64) {
        self.shift(V, x, target, 1, 1);
        self.shift(E, x, target, deg as i64, deg as i64);
        self.shift(
            C,
            x,
            target,
            deg as i64 - s_x as i64,
            deg as i64 - s_t as i64,
        );
    }
}

/// Serial PuLP's view: synchronous part sizes. Every move is booked into
/// `counters.size` at once. The vertex and arc loads stay exact; the cut load books only
/// the mover's own arcs, an approximation that can undershoot, so a part's load is
/// clamped at zero where the move leaves it (a no-op for the exact loads).
struct Live<'a> {
    size: &'a mut [i64],
    p: usize,
}

impl<'a> Live<'a> {
    /// Start a sweep on `counters`. Also hands out the weight buffer, as
    /// [`Stale::open`] does.
    fn open(counters: &'a mut PartCounters) -> (Self, &'a mut [f64]) {
        let p = counters.block(0).len();
        let PartCounters { size, weight, .. } = counters;
        (Live { size, p }, weight)
    }
}

impl Loads for Live<'_> {
    #[inline]
    fn est(&self, load: usize, i: usize) -> f64 {
        self.size[load * self.p + i] as f64
    }

    #[inline]
    fn shift(&mut self, load: usize, x: usize, target: usize, leaves: i64, arrives: i64) {
        let size = &mut self.size[load * self.p..];
        size[x] = (size[x] - leaves).max(0);
        size[target] += arrives;
    }
}

/// A rank's view of the part loads inside a sweep: the global sizes as of the last
/// exchange plus `mult ×` its own changes since.
struct Stale<'a> {
    size: &'a [i64],
    change: &'a mut [i64],
    p: usize,
    mult: f64,
}

impl<'a> Stale<'a> {
    /// Start a sweep on `counters`: zero this rank's changes and charge them at `mult`
    /// from here on. Also hands out the weight buffer, which the view does not need.
    fn open(counters: &'a mut PartCounters, mult: f64) -> (Self, &'a mut [f64]) {
        let p = counters.block(0).len();
        let PartCounters {
            size,
            change,
            weight,
            ..
        } = counters;
        change.fill(0);
        (
            Stale {
                size,
                change,
                p,
                mult,
            },
            weight,
        )
    }
}

impl Loads for Stale<'_> {
    #[inline]
    fn est(&self, load: usize, i: usize) -> f64 {
        let at = load * self.p + i;
        self.size[at] as f64 + self.mult * self.change[at] as f64
    }

    #[inline]
    fn shift(&mut self, load: usize, x: usize, target: usize, leaves: i64, arrives: i64) {
        self.change[load * self.p + x] -= leaves;
        self.change[load * self.p + target] += arrives;
    }
}

/// Constrained refinement. With `EDGE` the arc and cut caps and loads are tracked;
/// without it they are compiled out and this is plain vertex refinement — the score
/// rule is the same either way.
struct Refine<'a, G, L, const EDGE: bool> {
    graph: &'a G,
    loads: L,
    bounds: Bounds,
}

impl<G, L: Loads, const EDGE: bool> Refine<'_, G, L, EDGE> {
    /// Whether a degree-`deg` vertex would push part `i` past its vertex or arc cap.
    #[inline]
    fn full(&self, i: usize, deg: f64) -> bool {
        self.loads.est(V, i) + 1.0 > self.bounds.max_v
            || (EDGE && self.loads.est(E, i) + deg > self.bounds.max_e)
    }

    /// Whether `cut` more cut arcs would push part `i` past the cut cap.
    #[inline]
    fn cut_full(&self, i: usize, cut: f64) -> bool {
        EDGE && self.loads.est(C, i) + cut > self.bounds.max_c
    }
}

impl<G: Adjacency, L: Loads, const EDGE: bool> SweepStage for Refine<'_, G, L, EDGE> {
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        let deg = self.graph.degree_owned(v) as f64;
        scratch.clear();
        for u in self.graph.adjacent(v) {
            scratch.add(parts[u] as usize, 1.0);
        }
        let mut best = x;
        let mut best_score = scratch.get(x);
        for &i in scratch.touched() {
            let score = scratch.get(i);
            if i == x || self.full(i, deg) || self.cut_full(i, deg - score) {
                continue;
            }
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        if best != x {
            best as i32
        } else {
            NO_MOVE
        }
    }

    fn apply(&mut self, v: u32, target: usize, parts: &[i32]) -> bool {
        let x = parts[v as usize] as usize;
        let deg = self.graph.degree_owned(v) as f64;
        if self.full(target, deg) {
            return false;
        }
        // The move must still strictly reduce the cut under the live labels (earlier
        // applications in this chunk may have changed the neighbourhood).
        let (s_x, s_t) = recount_two(self.graph, v, parts, x, target);
        if s_t <= s_x || self.cut_full(target, deg - s_t) {
            return false;
        }
        if EDGE {
            self.loads.shift_all(x, target, deg, s_x, s_t);
        } else {
            self.loads.shift(V, x, target, 1, 1);
        }
        true
    }
}

/// Edge balancing: weighted label propagation driven by edge- and cut-balance weights.
struct EdgeBalance<'a, G, L> {
    graph: &'a G,
    loads: L,
    /// `We(i)` and `Wc(i)` under the current estimates, refreshed for the two parts a
    /// move changes.
    w_e: &'a mut [f64],
    w_c: &'a mut [f64],
    bounds: Bounds,
    r_e: f64,
    r_c: f64,
}

impl<'a, G, L: Loads> EdgeBalance<'a, G, L> {
    /// The kernel under `loads` with the bias `(Re, Rc)`, computing `We` and `Wc` into
    /// the two blocks of `weight`.
    fn new(
        graph: &'a G,
        loads: L,
        weight: &'a mut [f64],
        bounds: Bounds,
        (r_e, r_c): (f64, f64),
    ) -> Self {
        let (w_e, w_c) = weight.split_at_mut(weight.len() / 2);
        let mut kernel = EdgeBalance {
            graph,
            loads,
            w_e,
            w_c,
            bounds,
            r_e,
            r_c,
        };
        for i in 0..kernel.w_e.len() {
            kernel.refresh(i);
        }
        kernel
    }

    #[inline]
    fn refresh(&mut self, i: usize) {
        self.w_e[i] = headroom(self.bounds.imb_e, self.loads.est(E, i));
        self.w_c[i] = headroom(self.bounds.max_c, self.loads.est(C, i));
    }

    /// `Re·We(i) + Rc·Wc(i)`.
    #[inline]
    fn weight(&self, i: usize) -> f64 {
        self.r_e * self.w_e[i] + self.r_c * self.w_c[i]
    }

    /// Constraints: respect the vertex target and never exceed the current maximum
    /// edge load.
    #[inline]
    fn full(&self, i: usize, deg: f64) -> bool {
        self.loads.est(V, i) + 1.0 > self.bounds.max_v
            || self.loads.est(E, i) + deg > self.bounds.max_e
    }
}

impl<G: Adjacency, L: Loads> SweepStep for EdgeBalance<'_, G, L> {
    fn step(&mut self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        let deg = self.graph.degree_owned(v) as f64;
        scratch.clear();
        for u in self.graph.adjacent(v) {
            scratch.add(parts[u] as usize, 1.0);
        }
        let mut best = x;
        let mut best_score = 0.0f64;
        for &i in scratch.touched() {
            if i == x || self.full(i, deg) {
                continue;
            }
            let score = scratch.get(i) * self.weight(i);
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        // Nothing changed since scoring, so the scan's admissibility tests are the
        // recheck, and the scratch holds the unit neighbour counts the cut load needs.
        if best == x || best_score <= 0.0 {
            return NO_MOVE;
        }
        self.loads
            .shift_all(x, best, deg, scratch.get(x), scratch.get(best));
        self.refresh(x);
        self.refresh(best);
        best as i32
    }
}

// ------------------------------------------------------------------------------------
// Serial backend: live sizes
// ------------------------------------------------------------------------------------

/// Shared-memory PuLP: one address space, so the kernels see [`Live`] loads and there
/// is nobody else to ask whether anything moved.
pub(crate) struct Serial<'a>(pub(crate) &'a Csr);

impl Backend for Serial<'_> {
    fn global_size(&self) -> (u64, u64) {
        (self.0.num_vertices() as u64, self.0.num_arcs())
    }

    fn owned(&self) -> usize {
        self.0.num_vertices()
    }

    fn local_id(&self, g: GlobalId) -> Option<u32> {
        (g < self.0.num_vertices() as u64).then_some(g as u32)
    }

    fn seed(
        &self,
        params: &PartitionParams,
        initial: Option<&[i32]>,
        frontier: &mut Frontier,
    ) -> Result<Vec<i32>, PartitionError> {
        let Some(initial) = initial else {
            return Ok(init(self.0, params));
        };
        let mut parts = initial.to_vec();
        let unassigned: Vec<u64> = (0..parts.len() as u64)
            .filter(|&v| parts[v as usize] == UNASSIGNED)
            .collect();
        greedy_seed_unassigned(self.0, &mut parts, params.num_parts);
        for v in unassigned {
            frontier.mark(v as u32);
            for &u in self.0.neighbors(v) {
                frontier.mark(u as u32);
            }
        }
        Ok(parts)
    }

    fn any_active(&self, frontier: &mut Frontier) -> bool {
        frontier.active_len() > 0
    }

    fn global_active(&self, frontier: &mut Frontier) -> u64 {
        frontier.active_len() as u64
    }

    fn measure(&self, parts: &[i32], loads: usize, counters: &mut PartCounters) -> u64 {
        let p = counters.block(0).len();
        count_loads(self.0, parts, p, loads, &mut counters.size)
    }

    fn patch_counts(
        &self,
        counts: &PartCounts,
        before: &[i32],
        after: &[i32],
        arcs: &mut u64,
    ) -> PartCounts {
        let p = counts.num_parts();
        let mut patch = vec![0i64; 3 * p];
        *arcs += patch_loads(self.0, before, after, p, &mut patch);
        debug_assert_eq!(patch, counted_change(self.0, before, after, p));
        counts.patched(&PartCounts::from_loads(&patch))
    }

    fn refine_sweep<const EDGE: bool>(
        &mut self,
        parts: &mut [i32],
        _params: &PartitionParams,
        ws: &mut SweepWorkspace,
        bounds: Bounds,
        use_frontier: bool,
    ) -> Result<u64, PartitionError> {
        let (graph, engine) = (self.0, &mut ws.engine);
        let (loads, _) = Live::open(&mut ws.counters);
        let kernel = Refine::<_, _, EDGE> {
            graph,
            loads,
            bounds,
        };
        let no_op = |_, _| {};
        Ok(sweep(graph, engine, parts, use_frontier, kernel, no_op))
    }

    fn balance_sweep(
        &mut self,
        objective: Objective,
        parts: &mut [i32],
        _params: &PartitionParams,
        ws: &mut SweepWorkspace,
        bounds: Bounds,
        bias: (f64, f64),
    ) -> Result<u64, PartitionError> {
        let (csr, engine) = (self.0, &mut ws.engine);
        let (loads, weight) = Live::open(&mut ws.counters);
        let no_op = |_, _| {};
        Ok(match objective {
            Objective::Vertex => {
                let kernel = SerialVertexBalance { csr, loads, bounds };
                step_sweep(csr, engine, parts, kernel, no_op)
            }
            Objective::Edge => {
                let kernel = EdgeBalance::new(csr, loads, weight, bounds, bias);
                step_sweep(csr, engine, parts, kernel, no_op)
            }
        })
    }
}

/// Serial vertex balancing: weighted label propagation towards underweight parts.
///
/// The one kernel each backend writes for itself: [`DistVertexBalance`] also spills
/// vertices label propagation cannot reach and breaks a score tie toward the vertex's
/// own part, and PuLP does neither — adopting either would change its partitions.
struct SerialVertexBalance<'a> {
    csr: &'a Csr,
    loads: Live<'a>,
    bounds: Bounds,
}

impl SerialVertexBalance<'_> {
    #[inline]
    fn weight(&self, i: usize) -> f64 {
        headroom(self.bounds.imb_v, self.loads.est(V, i))
    }
}

impl SweepStep for SerialVertexBalance<'_> {
    fn step(&mut self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        scratch.clear();
        for u in self.csr.adjacent(v) {
            scratch.add(parts[u] as usize, self.csr.degree_of(u) as f64);
        }
        let mut best = x;
        let mut best_score = 0.0f64;
        for &i in scratch.touched() {
            if self.loads.est(V, i) + 1.0 > self.bounds.max_v {
                continue;
            }
            let score = scratch.get(i) * self.weight(i);
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        // Nothing changed since scoring, so the scan's tests are the recheck: `best` is
        // admissible, attractive (underweight) and holds a neighbour of `v`.
        if best == x || best_score <= 0.0 {
            return NO_MOVE;
        }
        self.loads.shift(V, x, best, 1, 1);
        best as i32
    }
}

// ------------------------------------------------------------------------------------
// Distributed backend: stale sizes, charged changes, one exchange per sweep
// ------------------------------------------------------------------------------------

/// Distributed XtraPuLP on one rank: the kernels see [`Stale`] loads —
/// `counters.size` holds the global loads as of the last exchange, `counters.change`
/// this rank's changes since — and every sweep ends with one collective round, the
/// boundary-label push, whose frames also carry this rank's changes, its move count and
/// its queue length, summed over every rank: the sizes are current again and the
/// frontier knows whether anyone has a vertex queued.
pub(crate) struct Dist<'a> {
    ctx: &'a RankCtx,
    graph: &'a DistGraph,
    /// Balance and refinement sweeps run so far in the current stage: the `iter_tot` of
    /// Algorithm 1 that ramps the multiplier, reset per stage.
    pub(crate) iter_tot: usize,
    /// The sweeps of the stages ended so far: the `lp_sweeps` a job reports (the
    /// closing rebalance's rounds are not label-propagation sweeps).
    pub(crate) lp_sweeps: u64,
    /// The moves of the sweep in flight, for the boundary exchange.
    updates: Vec<PartUpdate>,
}

impl<'a> Dist<'a> {
    pub(crate) fn new(ctx: &'a RankCtx, graph: &'a DistGraph) -> Self {
        Dist {
            ctx,
            graph,
            iter_tot: 0,
            lp_sweeps: 0,
            updates: Vec::new(),
        }
    }

    /// The rate a sweep, refinement or balance, charges this rank's changes at: the
    /// dynamic multiplier at this point of the stage's schedule, never less than the
    /// rank count, so that each rank claims at most its `1/nranks` share of a part's
    /// headroom.
    fn charge(&self, params: &PartitionParams) -> f64 {
        let nranks = self.ctx.nranks();
        params.multiplier(nranks, self.iter_tot).max(nranks as f64)
    }

    /// Close a sweep that tracked the first `loads` loads in one round: push the moved
    /// boundary labels with the tally `change[..tracked] ++ [moves, queue length]`
    /// riding along, fold the summed changes into the sizes, let the frontier record
    /// what the summed move count and queue length (taken before the push marked it)
    /// say about it (see [`Frontier::record_exchange`]), and advance the stage's sweep
    /// counter. Returns the moves applied globally; the sweep's moves are forgotten.
    fn exchange(
        &mut self,
        loads: usize,
        parts: &mut [i32],
        ws: &mut SweepWorkspace,
    ) -> Result<u64, PartitionError> {
        let SweepWorkspace {
            engine, counters, ..
        } = ws;
        let tracked = counters.block(loads).start;
        counters.change[tracked] = self.updates.len() as i64;
        counters.change[tracked + 1] = engine.frontier.active_len() as i64;
        let tally = &counters.change[..tracked + 2];
        let frontier = Some(&mut engine.frontier);
        let (_, global) =
            push_part_updates(self.ctx, self.graph, &self.updates, tally, parts, frontier)?;
        self.updates.clear();
        let (moves, queued) = (global[tracked] as u64, global[tracked + 1] as u64);
        engine.frontier.record_exchange(queued, moves);
        for (size, delta) in counters.size[..tracked].iter_mut().zip(&global) {
            *size += delta;
        }
        if loads > C {
            let cut = counters.block(C);
            for size in &mut counters.size[cut] {
                *size = (*size).max(0);
            }
        }
        self.iter_tot += 1;
        Ok(moves)
    }
}

impl Backend for Dist<'_> {
    const STALE: bool = true;

    fn global_size(&self) -> (u64, u64) {
        (self.graph.global_n(), 2 * self.graph.global_m())
    }

    fn owned(&self) -> usize {
        self.graph.n_owned()
    }

    fn local_id(&self, g: GlobalId) -> Option<u32> {
        self.graph.owned_local_id(g)
    }

    fn seed(
        &self,
        params: &PartitionParams,
        initial: Option<&[i32]>,
        frontier: &mut Frontier,
    ) -> Result<Vec<i32>, PartitionError> {
        match initial {
            None => init_partition(self.ctx, self.graph, params),
            Some(initial) => warm_seed(self.ctx, self.graph, params, initial, frontier),
        }
    }

    /// Counts the stage's sweeps into `lp_sweeps` and restarts `iter_tot`, as
    /// Algorithm 1 does, so the next stage's multiplier ramps afresh.
    fn end_stage(&mut self) {
        self.lp_sweeps += std::mem::take(&mut self.iter_tot) as u64;
    }

    fn closing_pass(
        &mut self,
        parts: &mut [i32],
        params: &PartitionParams,
        ws: &mut SweepWorkspace,
        timings: &mut PhaseTimer,
    ) -> Result<(), PartitionError> {
        timings.time("rebalance", || final_rebalance(self, parts, params, ws))
    }

    fn any_active(&self, frontier: &mut Frontier) -> bool {
        frontier.any_active(|local| self.ctx.allreduce_scalar_sum_u64(local))
    }

    fn global_active(&self, frontier: &mut Frontier) -> u64 {
        frontier.global_active(|local| self.ctx.allreduce_scalar_sum_u64(local))
    }

    fn measure(&self, parts: &[i32], loads: usize, counters: &mut PartCounters) -> u64 {
        let p = counters.block(0).len();
        let (global, arcs) = global_part_loads(self.ctx, self.graph, parts, p, loads);
        counters.size[..global.len()].copy_from_slice(&global);
        arcs
    }

    /// One allreduce of the three load blocks; the cut is their sum.
    fn patch_counts(
        &self,
        counts: &PartCounts,
        before: &[i32],
        after: &[i32],
        arcs: &mut u64,
    ) -> PartCounts {
        let p = counts.num_parts();
        let mut patch = vec![0i64; 3 * p];
        *arcs += patch_loads(self.graph, before, after, p, &mut patch);
        debug_assert_eq!(patch, counted_change(self.graph, before, after, p));
        let global = self.ctx.allreduce_sum_i64(&patch);
        counts.patched(&PartCounts::from_loads(&global))
    }

    fn refine_sweep<const EDGE: bool>(
        &mut self,
        parts: &mut [i32],
        params: &PartitionParams,
        ws: &mut SweepWorkspace,
        bounds: Bounds,
        use_frontier: bool,
    ) -> Result<u64, PartitionError> {
        let charge = self.charge(params);
        let (graph, engine, updates) = (self.graph, &mut ws.engine, &mut self.updates);
        let (loads, _) = Stale::open(&mut ws.counters, charge);
        let kernel = Refine::<_, _, EDGE> {
            graph,
            loads,
            bounds,
        };
        let collect = |v, part| updates.push((v, part));
        sweep(graph, engine, parts, use_frontier, kernel, collect);
        self.exchange(if EDGE { 3 } else { 1 }, parts, ws)
    }

    fn balance_sweep(
        &mut self,
        objective: Objective,
        parts: &mut [i32],
        params: &PartitionParams,
        ws: &mut SweepWorkspace,
        bounds: Bounds,
        bias: (f64, f64),
    ) -> Result<u64, PartitionError> {
        let charge = self.charge(params);
        let (graph, engine, updates) = (self.graph, &mut ws.engine, &mut self.updates);
        let (stale, weight) = Stale::open(&mut ws.counters, charge);
        let collect = |v, part| updates.push((v, part));
        match objective {
            Objective::Vertex => {
                let weights = &mut weight[..stale.p];
                for (w, &s) in weights.iter_mut().zip(stale.size) {
                    *w = headroom(bounds.imb_v, s as f64);
                }
                let kernel = DistVertexBalance {
                    graph,
                    stale,
                    weights,
                    bounds,
                };
                step_sweep(graph, engine, parts, kernel, collect);
            }
            Objective::Edge => {
                let kernel = EdgeBalance::new(graph, stale, weight, bounds, bias);
                step_sweep(graph, engine, parts, kernel, collect);
            }
        }
        self.exchange(objective.loads(), parts, ws)
    }
}

/// Distributed vertex balancing: weighted label propagation towards underweight
/// parts, with the spill fallback for vertices label propagation cannot reach.
struct DistVertexBalance<'a> {
    graph: &'a DistGraph,
    stale: Stale<'a>,
    /// `Wv(i)` under the current estimates, refreshed as moves land.
    weights: &'a mut [f64],
    bounds: Bounds,
}

impl SweepStep for DistVertexBalance<'_> {
    fn step(&mut self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
        let x = parts[v as usize] as usize;
        scratch.clear();
        for u in self.graph.adjacent(v) {
            scratch.add(parts[u] as usize, self.graph.degree_of(u) as f64);
        }
        // Pick the best-scoring admissible part; ties keep the current part. Nothing
        // changes between scoring and booking, so these tests are the recheck too.
        let mut best_part = x;
        let mut best_score = 0.0f64;
        for &i in scratch.touched() {
            if self.stale.est(V, i) + 1.0 > self.bounds.max_v {
                continue;
            }
            let score = scratch.get(i) * self.weights[i];
            if score > best_score || (score == best_score && i == x) {
                best_score = score;
                best_part = i;
            }
        }
        let target = if best_part != x && best_score > 0.0 {
            best_part
        } else {
            // Spill move: label propagation alone cannot drain a part whose remaining
            // vertices have no neighbours in an underweight part (isolated vertices
            // and deep-interior vertices). If the current part is over the target,
            // move the vertex to the globally most underweight part directly. This
            // preferentially relocates zero-degree vertices (whose move is free) and
            // is what lets the balance constraint be met on graphs with many tiny
            // components. Every rank picks the same most-underweight target, which the
            // sweep's charge at the rank count keeps from overshooting collectively;
            // a spill must fit under the target itself, not only under the cap.
            if self.stale.est(V, x) <= self.bounds.imb_v {
                return NO_MOVE;
            }
            let spill_target = (0..self.stale.p)
                .min_by(|&a, &b| self.stale.est(V, a).total_cmp(&self.stale.est(V, b)))
                .unwrap_or(x);
            if spill_target == x || self.stale.est(V, spill_target) + 1.0 > self.bounds.imb_v {
                return NO_MOVE;
            }
            spill_target
        };
        self.stale.shift(V, x, target, 1, 1);
        for i in [x, target] {
            self.weights[i] = headroom(self.bounds.imb_v, self.stale.est(V, i));
        }
        target as i32
    }
}

/// Explicit final rebalance pass, the distributed analogue of the multilevel drivers'
/// `rebalance` (PR 1): after the stage schedule, drain any part still above the vertex
/// target by moving its boundary vertices to the admissible part keeping the most
/// adjacent edges (the globally lightest part as the interior-vertex fallback).
///
/// Weighted label propagation converges to the target on most inputs, but on small
/// skewed graphs (BA hubs, small-world shortcut clusters) the attraction weights can
/// stall above it — this pass closes exactly that gap, so cold runs meet the 1.1
/// imbalance target and warm starts are not locked out of the refine-only fast path.
/// Per-rank moves are throttled to their `1/nranks` share of each part's excess and
/// destinations are charged at the full rank count, so no collective overshoot is
/// possible. A no-op when the constraint already holds; must be called collectively.
fn final_rebalance(
    dist: &mut Dist<'_>,
    parts: &mut [i32],
    params: &PartitionParams,
    ws: &mut SweepWorkspace,
) -> Result<(), PartitionError> {
    let graph = dist.graph;
    let p = params.num_parts;
    let nranks = dist.ctx.nranks() as f64;
    let (imb_v, imb_e) = targets(dist, params);
    ws.engine.stats.arcs_counted += dist.measure(parts, 2, &mut ws.counters);

    // Rounding-level overshoot (a converged run routinely lands within a couple of
    // percent of the fractional target) is noise, not imbalance — and draining it
    // would trade edge balance for nothing. The pass engages only beyond the same
    // slack the warm-start eligibility check uses, then drains to the exact target.
    if ws.counters.size[..p]
        .iter()
        .all(|&s| (s as f64) <= imb_v * WARM_BALANCE_SLACK)
    {
        return Ok(());
    }

    let mut quota = vec![0i64; p];
    for _ in 0..4 * params.balance_iters.max(1) {
        let PartCounters { size, change, .. } = &mut ws.counters;
        let (size_v, size_e) = size[..2 * p].split_at(p);
        // Global state, so every rank takes the same branch.
        if size_v.iter().all(|&s| (s as f64) <= imb_v) {
            break;
        }
        change.fill(0);
        let (change_v, change_e) = change[..2 * p].split_at_mut(p);
        // This rank may move at most its share of each part's excess per round.
        for (q, &s) in quota.iter_mut().zip(size_v) {
            *q = ((s as f64 - imb_v).max(0.0) / nranks).ceil() as i64;
        }
        let admissible = |i: usize, change_v: &[i64]| -> bool {
            size_v[i] as f64 + nranks * change_v[i] as f64 + 1.0 <= imb_v
        };
        // Destinations are preferred while they keep the *edge* constraint too —
        // fixing the vertex balance must not push a part's arc load past its target
        // and lock warm starts out of the refine-only fast path — but the edge cap is
        // soft: with no arc-admissible destination the vertex constraint wins.
        let arc_room = |i: usize, change_e: &[i64], deg: f64| -> bool {
            size_e[i] as f64 + nranks * change_e[i] as f64 + deg <= imb_e
        };
        let scratch = ws.engine.scratch();
        for v in 0..graph.n_owned() {
            let x = parts[v] as usize;
            if quota[x] <= 0 {
                continue;
            }
            let deg = graph.degree_owned(v as LocalId) as f64;
            scratch.clear();
            for u in graph.adjacent(v as u32) {
                scratch.add(parts[u] as usize, 1.0);
            }
            // Cut-aware first choice: the admissible neighbouring part retaining the
            // most adjacent arcs, preferring parts with arc headroom.
            let pick = |require_arc_room: bool, change_v: &[i64], change_e: &[i64]| {
                let mut best: Option<usize> = None;
                let mut best_score = 0.0f64;
                for &i in scratch.touched() {
                    if i == x
                        || !admissible(i, change_v)
                        || (require_arc_room && !arc_room(i, change_e, deg))
                    {
                        continue;
                    }
                    if best.is_none() || scratch.get(i) > best_score {
                        best = Some(i);
                        best_score = scratch.get(i);
                    }
                }
                best.or_else(|| {
                    (0..p)
                        .filter(|&i| {
                            i != x
                                && admissible(i, change_v)
                                && (!require_arc_room || arc_room(i, change_e, deg))
                        })
                        .min_by_key(|&i| (size_v[i] + nranks as i64 * change_v[i], i))
                })
            };
            let best = pick(true, change_v, change_e).or_else(|| pick(false, change_v, change_e));
            if let Some(target) = best {
                quota[x] -= 1;
                change_v[x] -= 1;
                change_v[target] += 1;
                change_e[x] -= deg as i64;
                change_e[target] += deg as i64;
                parts[v] = target as i32;
                dist.updates.push((v as LocalId, target as i32));
            }
        }
        if dist.exchange(2, parts, ws)? == 0 {
            // No rank can move anything else (e.g. every admissible destination is
            // full); leave the partition as balanced as it can get.
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::refresh_ghost_parts;
    use crate::init::init_partition;
    use crate::metrics::{is_valid_partition, PartitionQuality};
    use crate::params::InitStrategy;
    use crate::sweep::GlobalActive;
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::Distribution;

    const POLISH: RefineConvergence = RefineConvergence::Polish;

    fn grid_edges(base: u64, w: u64, h: u64) -> Vec<(u64, u64)> {
        let mut e = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let id = base + y * w + x;
                if x + 1 < w {
                    e.push((id, id + 1));
                }
                if y + 1 < h {
                    e.push((id, id + w));
                }
            }
        }
        e
    }

    /// A skewed graph: a hub star (vertex 0 and leaves 1..=40) glued to a 10×10 grid, so
    /// vertex balance and edge balance pull in different directions.
    fn skewed_edges() -> (u64, Vec<(u64, u64)>) {
        let mut edges: Vec<(u64, u64)> = (1..=40).map(|leaf| (0, leaf)).collect();
        edges.extend(grid_edges(41, 10, 10));
        edges.push((1, 41));
        (141, edges)
    }

    /// A workspace with every owned vertex active, as [`run_schedule`] leaves a cold run.
    fn stage_env(graph: &DistGraph, params: &PartitionParams) -> SweepWorkspace {
        let mut ws = SweepWorkspace::default();
        ws.begin_run(graph.n_owned(), params.num_parts);
        ws.engine.frontier.seed_all(graph.n_owned());
        ws.engine.frontier.record_exact(graph.global_n());
        ws
    }

    #[test]
    fn balance_improves_vertex_imbalance() {
        let edges = grid_edges(0, 16, 16);
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 256, &edges);
            let params = PartitionParams {
                num_parts: 4,
                seed: 3,
                ..Default::default()
            };
            let mut ws = stage_env(&g, &params);
            let mut parts = init_partition(ctx, &g, &params).unwrap();
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            let mut dist = Dist::new(ctx, &g);
            let rounds = params.outer_iters;
            balance_refine_rounds(
                &mut dist,
                Objective::Vertex,
                rounds,
                &mut parts,
                &params,
                &mut ws,
            )
            .unwrap();
            final_rebalance(&mut dist, &mut parts, &params, &mut ws).unwrap();
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            assert!(is_valid_partition(&parts, 4));
            (before, after)
        });
        let (before, after) = out[0];
        // The BFS-grow initialisation can be arbitrarily imbalanced; after balancing
        // plus the explicit final rebalance the constraint (10% slack plus rounding on
        // a 64-vertex-per-part grid) must be met, not merely approached.
        assert!(
            after.vertex_imbalance <= before.vertex_imbalance.max(1.2),
            "balance phase made imbalance worse: {} -> {}",
            before.vertex_imbalance,
            after.vertex_imbalance
        );
        assert!(
            after.vertex_imbalance <= 1.12,
            "vertex imbalance still {} after balancing + rebalance",
            after.vertex_imbalance
        );
    }

    #[test]
    fn refine_does_not_break_validity_and_keeps_cut_reasonable() {
        let edges = grid_edges(0, 12, 12);
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 144, &edges);
            let params = PartitionParams {
                num_parts: 4,
                init: InitStrategy::Random,
                seed: 7,
                ..Default::default()
            };
            let mut ws = stage_env(&g, &params);
            let mut parts = init_partition(ctx, &g, &params).unwrap();
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            let mut dist = Dist::new(ctx, &g);
            refine_pass(
                &mut dist,
                Objective::Vertex,
                &mut parts,
                &params,
                &mut ws,
                POLISH,
            )
            .unwrap();
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            assert!(is_valid_partition(&parts, 4));
            // Random initialisation cuts nearly everything; refinement must improve it.
            assert!(
                after.edge_cut <= before.edge_cut,
                "refinement increased the cut: {} -> {}",
                before.edge_cut,
                after.edge_cut
            );
        });
    }

    #[test]
    fn edge_stage_improves_edge_balance_without_breaking_vertex_constraint() {
        let (n, edges) = skewed_edges();
        let out = Runtime::new(2).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, n, &edges);
            let params = PartitionParams {
                num_parts: 4,
                seed: 11,
                ..Default::default()
            };
            let mut ws = stage_env(&g, &params);
            let mut parts = init_partition(ctx, &g, &params).unwrap();
            let mut dist = Dist::new(ctx, &g);
            let rounds = params.outer_iters;
            balance_refine_rounds(
                &mut dist,
                Objective::Vertex,
                rounds,
                &mut parts,
                &params,
                &mut ws,
            )
            .unwrap();
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            dist.iter_tot = 0;
            balance_refine_rounds(
                &mut dist,
                Objective::Edge,
                rounds,
                &mut parts,
                &params,
                &mut ws,
            )
            .unwrap();
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 4);
            assert!(is_valid_partition(&parts, 4));
            (before, after)
        });
        let (before, after) = out[0];
        // The edge stage should not blow up the vertex balance, and should improve (or at
        // least not substantially worsen) the edge balance.
        assert!(
            after.vertex_imbalance < 1.6,
            "vertex imbalance {}",
            after.vertex_imbalance
        );
        assert!(
            after.edge_imbalance <= before.edge_imbalance * 1.25 + 0.1,
            "edge imbalance regressed: {} -> {}",
            before.edge_imbalance,
            after.edge_imbalance
        );
    }

    #[test]
    fn refining_under_the_edge_objective_does_not_increase_cut_substantially() {
        let (n, edges) = skewed_edges();
        Runtime::new(3).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, n, &edges);
            let params = PartitionParams {
                num_parts: 3,
                seed: 5,
                ..Default::default()
            };
            let mut ws = stage_env(&g, &params);
            let mut parts = init_partition(ctx, &g, &params).unwrap();
            let mut dist = Dist::new(ctx, &g);
            balance_refine_rounds(
                &mut dist,
                Objective::Vertex,
                1,
                &mut parts,
                &params,
                &mut ws,
            )
            .unwrap();
            let before = PartitionQuality::evaluate_dist(ctx, &g, &parts, 3);
            dist.iter_tot = 0;
            refine_pass(
                &mut dist,
                Objective::Edge,
                &mut parts,
                &params,
                &mut ws,
                POLISH,
            )
            .unwrap();
            let after = PartitionQuality::evaluate_dist(ctx, &g, &parts, 3);
            assert!(
                after.edge_cut <= before.edge_cut + before.edge_cut / 4 + 2,
                "edge refine increased cut too much: {} -> {}",
                before.edge_cut,
                after.edge_cut
            );
        });
    }

    /// The collective budget of the cold schedule, by formula rather than by golden
    /// number: a sweep is one round (the boundary push, its frames carrying the load
    /// changes, the move count and the queue length), a pass adds one measure, and the
    /// only active-count query that communicates is the exact one a polish refinement
    /// pass asks when it is entered knowing only that some vertex is queued.
    #[test]
    fn a_sweep_is_one_collective_and_a_pass_adds_one_measure() {
        let edges = grid_edges(0, 16, 16);
        let inits = [InitStrategy::BfsGrow, InitStrategy::VertexBlock];
        let mut entries = (0u64, 0u64);
        for (nranks, init) in [2, 4].into_iter().flat_map(|r| inits.map(|i| (r, i))) {
            let queried = Runtime::new(nranks).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 256, &edges);
                let params = PartitionParams {
                    num_parts: 4,
                    seed: 3,
                    init,
                    ..Default::default()
                };
                let mut ws = stage_env(&g, &params);
                let mut parts = init_partition(ctx, &g, &params).unwrap();
                let mut dist = Dist::new(ctx, &g);
                let stats = ctx.stats();
                let calls = || {
                    let (a2a, ar) = (stats.alltoallv_calls(), stats.allreduce_calls());
                    [stats.collectives(), a2a, ar]
                };
                let (mut sweeps, mut measures, mut queries) = (0u64, 0u64, 0u64);
                let mut unqueried_polish = 0u64;
                let job_start = calls();
                for objective in [Objective::Vertex, Objective::Edge] {
                    dist.iter_tot = 0;
                    for pass in 0..2 * params.outer_iters {
                        let (iter_before, before) = (dist.iter_tot, calls());
                        let polish = pass % 2 == 1;
                        let entered = ws.engine.frontier.known();
                        if polish {
                            refine_pass(&mut dist, objective, &mut parts, &params, &mut ws, POLISH)
                        } else {
                            balance_pass(&mut dist, objective, &mut parts, &params, &mut ws)
                        }
                        .unwrap();
                        let k = (dist.iter_tot - iter_before) as u64;
                        let query = u64::from(polish && entered == GlobalActive::Positive);
                        unqueried_polish += u64::from(polish && query == 0);
                        let after = calls();
                        let what = format!("{nranks} ranks, {init:?}, {objective:?} pass {pass}");
                        assert_eq!(after[1] - before[1], k, "one alltoallv a sweep: {what}");
                        assert_eq!(after[2] - before[2], 1 + query, "allreduces: {what}");
                        assert_eq!(after[0] - before[0], k + 1 + query, "collectives: {what}");
                        sweeps += k;
                        measures += 1;
                        queries += query;
                    }
                }
                dist.iter_tot = 0;
                final_rebalance(&mut dist, &mut parts, &params, &mut ws).unwrap();
                sweeps += dist.iter_tot as u64;
                measures += 1;
                // Between init and the epilogue: one alltoallv per sweep, and one
                // allreduce per pass that measured and per exact-count query.
                let end = calls();
                assert_eq!(end[1] - job_start[1], sweeps);
                assert_eq!(end[2] - job_start[2], measures + queries);
                assert_eq!(end[0] - job_start[0], sweeps + measures + queries);
                (queries, unqueried_polish)
            });
            assert!(queried.iter().all(|&q| q == queried[0]), "ranks disagree");
            entries.0 += queried[0].0;
            entries.1 += queried[0].1;
        }
        // Both kinds of polish pass entry are exercised: knowing only that the frontier
        // is non-empty (every grown seed's), and knowing its exact size (a block seed's
        // first, after a balance pass that found the seeded frontier balanced).
        assert!(entries.0 > 0 && entries.1 > 0, "{entries:?}");
    }

    /// An explicit global count of the queue, beside what the frontier records of it:
    /// an exact record must equal it, a positive one needs it above zero, and the
    /// state is unknown only where `unknown_ok` (a pass that moves vertices without
    /// marking them) — so after a sweep a zero count is always recorded as exactly zero.
    fn check_known(ctx: &RankCtx, ws: &SweepWorkspace, unknown_ok: bool, what: &str) -> bool {
        let frontier = &ws.engine.frontier;
        let sum = ctx.allreduce_scalar_sum_u64(frontier.active_len() as u64);
        match frontier.known() {
            GlobalActive::Exact(n) => assert_eq!(n, sum, "{what}"),
            GlobalActive::Positive => assert!(sum > 0, "{what}: positive, counted zero"),
            GlobalActive::Unknown => assert!(unknown_ok, "{what}: a sweep left it unknown"),
        }
        if sum == 0 && !unknown_ok {
            assert_eq!(frontier.known(), GlobalActive::Exact(0), "{what}");
        }
        frontier.known() == GlobalActive::Unknown && sum > 0
    }

    /// Every sweep's closing exchange records what it learned of the global queue
    /// length, and the record is checked against an explicit count after every refine
    /// sweep (frontier and full), vertex and edge balance sweep and final rebalance on
    /// a grid, a hub graph and a graph of isolated vertices, at 2 and 4 ranks. The
    /// final rebalance is entered with an empty queue and moves boundary vertices, so
    /// its exchange sees no queue but some moves while its push marks the neighbours of
    /// changed ghosts: recording that as zero would be caught.
    #[test]
    fn the_frontier_records_the_global_queue_length_truthfully() {
        let (hub_n, hub) = skewed_edges();
        // Every other vertex on a ring, every odd one isolated.
        let sparse: Vec<(u64, u64)> = (0..60).map(|i| (2 * i, (2 * i + 2) % 120)).collect();
        let graphs = [
            ("grid", 256, grid_edges(0, 16, 16)),
            ("hub", hub_n, hub),
            ("isolated", 120, sparse),
        ];
        let mut caught = false;
        for (name, n, edges) in &graphs {
            for nranks in [2, 4] {
                let out = Runtime::new(nranks).execute(|ctx| {
                    let g = DistGraph::from_shared_edges(ctx, Distribution::Block, *n, edges);
                    let params = PartitionParams {
                        num_parts: 4,
                        seed: 3,
                        ..Default::default()
                    };
                    let targets = targets(&Dist::new(ctx, &g), &params);
                    let mut ws = stage_env(&g, &params);
                    let mut parts = init_partition(ctx, &g, &params).unwrap();
                    let mut dist = Dist::new(ctx, &g);
                    let what = |call: &str| format!("{name}, {nranks} ranks: {call}");
                    for round in 0..3 {
                        for objective in [Objective::Vertex, Objective::Edge] {
                            dist.measure(&parts, objective.loads(), &mut ws.counters);
                            let bounds = Bounds::of(&ws.counters, objective, targets);
                            let bias = (1.0 + round as f64, 1.0);
                            let ws = &mut ws;
                            dist.balance_sweep(objective, &mut parts, &params, ws, bounds, bias)
                                .unwrap();
                            check_known(ctx, ws, false, &what("balance sweep"));
                            for use_frontier in [true, true, false] {
                                let bounds = Bounds::of(&ws.counters, objective, targets);
                                match objective {
                                    Objective::Vertex => dist.refine_sweep::<false>(
                                        &mut parts,
                                        &params,
                                        ws,
                                        bounds,
                                        use_frontier,
                                    ),
                                    Objective::Edge => dist.refine_sweep::<true>(
                                        &mut parts,
                                        &params,
                                        ws,
                                        bounds,
                                        use_frontier,
                                    ),
                                }
                                .unwrap();
                                check_known(ctx, ws, false, &what("refine sweep"));
                            }
                        }
                    }
                    // Overload one part by relabelling a band of the block partition,
                    // drop the queue, and rebalance.
                    for (v, part) in parts.iter_mut().enumerate().take(g.n_owned()) {
                        let gid = g.global_id(v as LocalId);
                        let band = (*n / 2..*n / 2 + *n / 8).contains(&gid);
                        *part = if band { 1 } else { (gid * 4 / *n) as i32 };
                    }
                    refresh_ghost_parts(ctx, &g, &mut parts).unwrap();
                    ws.engine.frontier.clear();
                    dist.iter_tot = 0;
                    final_rebalance(&mut dist, &mut parts, &params, &mut ws).unwrap();
                    assert!(dist.iter_tot > 0, "{}", what("the rebalance engaged"));
                    check_known(ctx, &ws, true, &what("final rebalance"))
                });
                caught |= out[0];
            }
        }
        assert!(caught, "no rebalance left an unknown, non-empty queue");
    }

    /// Vertex 0 (rank 0, part 0) and vertex 5 (rank 1, part 1) are adjacent and each has
    /// one more neighbour in the other's part than in its own, counting the other. Told
    /// of each other's label one sweep late, both move, see the mirror image and move
    /// back: without the engine settling such a pair the run swaps them until its budget
    /// is spent, and which of the two states it reports depends on the budget's parity.
    #[test]
    fn a_cross_rank_swap_settles_in_a_bounded_number_of_sweeps() {
        let edges = [
            (0, 5),
            (0, 1),
            (0, 2),
            (5, 6),
            (5, 7),
            (1, 3),
            (2, 4),
            (6, 8),
            (7, 9),
        ];
        let labels = [0, 0, 1, 0, 1, 1, 0, 1, 0, 1];
        let run = |refine_iters: usize| {
            Runtime::new(2).execute(|ctx| {
                let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &edges);
                let params = PartitionParams {
                    num_parts: 2,
                    vertex_imbalance: 1.0,
                    edge_balance_stage: false,
                    refine_iters,
                    ..Default::default()
                };
                let mut ws = SweepWorkspace::default();
                ws.begin_run(g.n_owned(), 2);
                for touched in [0, 5] {
                    ws.engine.frontier.mark(g.local_id(touched).unwrap());
                }
                let mut parts: Vec<i32> = (0..g.n_total())
                    .map(|v| labels[g.global_id(v as LocalId) as usize])
                    .collect();
                let mut dist = Dist::new(ctx, &g);
                warm_refine_rounds(&mut dist, 1, 3, &mut parts, &params, &mut ws).unwrap();
                assert_eq!(dist.global_active(&mut ws.engine.frontier), 0);
                (dist.iter_tot, parts)
            })
        };
        let (even, odd) = (run(4), run(5));
        for (sweeps, _) in even.iter().chain(&odd) {
            // There, back, and one sweep in which both sit still.
            assert_eq!(*sweeps, 3, "of a budget of {}", 3 * refine_budget(4));
        }
        assert_eq!(even, odd, "the outcome must not depend on the budget");
    }

    #[test]
    fn global_part_loads_sum_to_totals() {
        let edges = grid_edges(0, 10, 10);
        Runtime::new(4).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, 100, &edges);
            let params = PartitionParams {
                num_parts: 5,
                init: InitStrategy::VertexBlock,
                ..Default::default()
            };
            let parts = init_partition(ctx, &g, &params).unwrap();
            let before = ctx.stats().allreduce_calls();
            let (loads, arcs) = global_part_loads(ctx, &g, &parts, 5, 3);
            assert_eq!(ctx.stats().allreduce_calls() - before, 1);
            assert_eq!(
                arcs,
                g.local_arcs(),
                "counting the cut reads every owned arc once"
            );
            let total = |load: usize| -> i64 { loads[load * 5..(load + 1) * 5].iter().sum() };
            assert_eq!(total(V), 100);
            assert_eq!(total(E) as u64, 2 * g.global_m());
            // A 5-way block split of a 10×10 grid cuts something, and no more than all.
            assert!((1..=total(E)).contains(&total(C)));
        });
    }
}
