//! The shared frontier-driven, thread-parallel label-propagation sweep engine.
//!
//! Every stage of every label-propagation partitioner in this workspace — the four
//! serial PuLP stages, the distributed XtraPuLP stages and the multilevel boundary
//! refinement — has the same inner shape: sweep over a set of vertices, score each
//! vertex's neighbouring parts, maybe move it, and update per-part counters. The seed
//! implementation walked *all* `0..n` vertices every sweep and re-zeroed a `p`-length
//! score array per vertex, even in fully converged regions. This module factors that
//! inner loop into one engine with two orthogonal optimisations:
//!
//! * **Active-vertex frontier** ([`Frontier`]): a vertex is (re)scored in the next sweep
//!   only when it or one of its neighbours changed part in the current one. Converged
//!   regions cost nothing, which turns sweep cost from `O(n · sweeps)` into `O(active
//!   work)` — the property the paper's minutes-for-trillion-edges claim rests on, and
//!   what lets warm starts touch only the delta neighbourhood.
//! * **Deterministic intra-rank thread parallelism**: a refinement sweep
//!   ([`SweepEngine::sweep`]) processes the active set in fixed-size chunks
//!   ([`SWEEP_CHUNK`]); within a chunk, move *proposals* are computed in parallel against
//!   the chunk-start state, then *applied* sequentially in vertex order with the stage's
//!   admissibility recheck. Chunk boundaries depend only on the active set (never on the
//!   thread count), proposals are pure per-vertex functions of the chunk-start state, and
//!   application order is fixed — so the result is bit-identical for 1, 2 or any number
//!   of threads.
//!
//! Scoring itself stays `O(degree)`: the per-part [`ScoreScratch`] clears by bumping an
//! epoch stamp instead of re-zeroing, and the same stamp tells a part's first touch from
//! a repeat without searching, so the touched list keeps first-touch order — the order
//! the stages' tie-breaks iterate in, hence part of what makes results reproducible.
//!
//! The two-phase chunk application is also what makes the semantics well defined: the
//! propose phase sees a consistent snapshot, and the apply phase rechecks each proposal
//! against the counters as earlier moves in the same chunk land (dropping proposals the
//! chunk invalidated), so no chunk can overshoot a balance constraint.
//!
//! Balance sweeps are the exception: [`SweepEngine::step_sweep`] scores, rechecks and
//! books one vertex at a time against the live state ([`SweepStep`]), so each move reads
//! its neighbourhood once.
//!
//! There is one sweep strategy. A sweep over all of `0..n` is what a balance sweep is
//! (any vertex may be drawn to an underweight part) and what verifies a refinement
//! fixed point ([`RefineConvergence::Polish`]); every other sweep walks the frontier.

use std::num::NonZeroUsize;

use serde::Serialize;

/// Returned by [`SweepStage::propose`] when the vertex should stay where it is.
pub const NO_MOVE: i32 = -1;

/// Number of vertices per two-phase chunk of a [`SweepEngine::sweep`]. Fixed (never
/// derived from the thread count) so that results are independent of parallelism;
/// refinement decisions are neighbour-local and stale-tolerant, so chunks can be large
/// enough to amortise the parallel fork.
pub const SWEEP_CHUNK: usize = 2048;

/// How a refinement pass terminates.
///
/// `Polish`: when the frontier empties, one *full* sweep verifies the fixed point —
/// part sizes change as vertices move, so a vertex whose neighbourhood never changed
/// can still become movable when its preferred part gains headroom, which the frontier
/// alone cannot see. The pass ends only when a full sweep applies no moves, while
/// intermediate progress runs on cheap frontier sweeps.
///
/// `FrontierOnly`: the pass ends as soon as the frontier empties. Used by warm
/// refine-only runs, whose seed is the previous epoch's already-polished partition —
/// work stays scoped to the delta neighbourhood, which is the `O(active)` property warm
/// starts are built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineConvergence {
    /// Verify convergence with full sweeps; stop at a full-sweep fixed point.
    Polish,
    /// Stop on an empty frontier.
    FrontierOnly,
}

/// The refinement pass budget in sweeps: the paper's `refine_iters` stretched by half —
/// the extra sweeps are near-free where the frontier has collapsed, and on heavy-churn
/// graphs they buy back the coverage the active-set restriction costs.
pub fn refine_budget(refine_iters: usize) -> u64 {
    refine_iters as u64 + refine_iters as u64 / 2
}

/// Resolve the worker-thread count for the sweep engine of one of `colocated` ranks
/// sharing this process: an explicit non-zero request wins, else this rank's share of
/// the machine's available parallelism (at least one) — four in-process ranks on two
/// cores would otherwise fork eight workers per chunk.
pub fn resolve_threads(requested: usize, colocated: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let machine = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    (machine / colocated.max(1)).max(1)
}

/// Dense per-part score accumulator with `O(1)` clearing, so scoring a vertex costs
/// `O(degree)` instead of `O(p)`.
///
/// Every entry carries the *epoch* it was last started in: [`clear`](ScoreScratch::clear)
/// bumps the current epoch instead of re-zeroing anything, and an entry whose stamp is
/// stale reads as zero and restarts on its next [`add`](ScoreScratch::add). The stamp
/// also answers "is this the part's first touch?" without searching the touched list,
/// which therefore stays in **first-touch order** — the order every stage's tie-break
/// iterates in, so partitions are bit-identical to a scratch that re-zeroes and scans.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    scores: Vec<f64>,
    /// The epoch each entry of `scores` belongs to; never equal to `epoch` when stale.
    stamps: Vec<Stamp>,
    epoch: Stamp,
    touched: Vec<usize>,
}

/// The epoch counter of a [`ScoreScratch`]: wide enough that a wrap (which costs one
/// `O(p)` stamp reset) happens once in four billion vertices.
type Stamp = u32;

impl ScoreScratch {
    /// A scratch for `num_parts` parts.
    pub fn new(num_parts: usize) -> Self {
        let mut scratch = ScoreScratch::default();
        scratch.ensure(num_parts);
        scratch
    }

    /// Resize for `num_parts` parts, clearing all state.
    pub fn ensure(&mut self, num_parts: usize) {
        self.scores.clear();
        self.scores.resize(num_parts, 0.0);
        self.stamps.clear();
        self.stamps.resize(num_parts, 0);
        self.epoch = 1;
        self.touched.clear();
    }

    /// Forget every score.
    #[inline]
    pub fn clear(&mut self) {
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from four billion clears ago would read as current.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Accumulate `value` onto `part`'s score.
    #[inline]
    pub fn add(&mut self, part: usize, value: f64) {
        if self.stamps[part] == self.epoch {
            self.scores[part] += value;
        } else {
            self.stamps[part] = self.epoch;
            self.scores[part] = value;
            self.touched.push(part);
        }
    }

    /// Current score of `part`.
    #[inline]
    pub fn get(&self, part: usize) -> f64 {
        if self.stamps[part] == self.epoch {
            self.scores[part]
        } else {
            0.0
        }
    }

    /// The parts touched since the last [`clear`](ScoreScratch::clear), in first-touch
    /// order.
    #[inline]
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }
}

/// What a rank knows, without communicating, about the frontier's queue length summed
/// over every rank of a distributed job. Ranks agree on it because they sweep, exchange
/// and clear together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum GlobalActive {
    /// Nothing: asking costs a collective.
    #[default]
    Unknown,
    /// Some rank has a vertex queued.
    Positive,
    /// Exactly this many vertices are queued.
    Exact(u64),
}

/// The active-vertex set: a membership bitset plus a double-buffered queue. `mark`
/// enqueues for the *next* sweep; a frontier sweep drains the queue (sorted, so
/// processing order is canonical) at its start.
#[derive(Debug, Default)]
pub struct Frontier {
    in_next: Vec<bool>,
    next: Vec<u32>,
    /// Spare buffer reused as the per-sweep active list.
    spare: Vec<u32>,
    /// The queue length summed over every rank of a distributed job, as far as it is
    /// known: a sweep's closing exchange records it ([`record_exchange`]), an exact query
    /// or a clear pins it, and whatever changes the queue afterwards forgets it here,
    /// where the queue changes. Marks made outside a sweep (seeding) come before a job's
    /// first exchange.
    ///
    /// [`record_exchange`]: Frontier::record_exchange
    global: GlobalActive,
}

impl Frontier {
    /// Resize for `n` vertices, clearing the queue.
    pub fn ensure(&mut self, n: usize) {
        self.in_next.clear();
        self.in_next.resize(n, false);
        self.next.clear();
        self.spare.clear();
        self.global = GlobalActive::Unknown;
    }

    /// Enqueue `v` for the next sweep. Ids at or beyond the owned range (ghost copies)
    /// are ignored.
    #[inline]
    pub fn mark(&mut self, v: u32) {
        if let Some(flag) = self.in_next.get_mut(v as usize) {
            if !*flag {
                *flag = true;
                self.next.push(v);
                // A mark only adds: a positive count stays positive.
                if let GlobalActive::Exact(_) = self.global {
                    self.global = GlobalActive::Unknown;
                }
            }
        }
    }

    /// Enqueue every vertex in `0..n`.
    pub fn seed_all(&mut self, n: usize) {
        for v in 0..n as u32 {
            self.mark(v);
        }
    }

    /// Number of vertices queued for the next sweep.
    pub fn active_len(&self) -> usize {
        self.next.len()
    }

    /// The vertices queued for the next sweep, in marking order.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> &[u32] {
        &self.next
    }

    /// What is known of the global queue length.
    #[cfg(test)]
    pub(crate) fn known(&self) -> GlobalActive {
        self.global
    }

    /// The global queue length: the recorded one while nothing has changed the queue
    /// since, otherwise `reduce(active_len())` (a collective), recorded in turn.
    pub(crate) fn global_active(&mut self, reduce: impl FnOnce(u64) -> u64) -> u64 {
        match self.global {
            GlobalActive::Exact(n) => n,
            _ => {
                let n = reduce(self.next.len() as u64);
                self.global = GlobalActive::Exact(n);
                n
            }
        }
    }

    /// Whether any rank has a vertex queued: free unless nothing is known, when it is
    /// [`global_active`](Frontier::global_active)'s query.
    pub(crate) fn any_active(&mut self, reduce: impl FnOnce(u64) -> u64) -> bool {
        match self.global {
            GlobalActive::Positive => true,
            GlobalActive::Exact(n) => n > 0,
            GlobalActive::Unknown => self.global_active(reduce) > 0,
        }
    }

    /// Record what a closing exchange learned: `queued`, the queue lengths summed over
    /// every rank *before* the exchange's push, and `moves`, the moves the sweep applied
    /// globally. A push only adds marks, so a positive `queued` stays positive; and every
    /// sweep move marks its mover, so with no queue and no moves there were no labels to
    /// push and nothing is queued after it either. No queue but some moves (a pass that
    /// moves vertices without marking them) leaves the count unknown: the push may have
    /// marked the neighbours of changed ghosts.
    pub(crate) fn record_exchange(&mut self, queued: u64, moves: u64) {
        self.global = match (queued, moves) {
            (0, 0) => GlobalActive::Exact(0),
            (0, _) => GlobalActive::Unknown,
            _ => GlobalActive::Positive,
        };
    }

    /// Record that the queue length summed over every rank is exactly `n` — what every
    /// rank queueing all its owned vertices together leaves.
    pub(crate) fn record_exact(&mut self, n: u64) {
        self.global = GlobalActive::Exact(n);
    }

    /// Drop everything queued for the next sweep. Collective on a distributed job: the
    /// ranks clear together, so the global active count is known to be zero.
    pub fn clear(&mut self) {
        for &v in &self.next {
            self.in_next[v as usize] = false;
        }
        self.next.clear();
        self.global = GlobalActive::Exact(0);
    }

    /// Take the queued vertices as this sweep's sorted active list, leaving the queue
    /// empty for re-marking during the sweep.
    fn begin_sweep(&mut self) -> Vec<u32> {
        let mut current = std::mem::take(&mut self.next);
        self.next = std::mem::take(&mut self.spare);
        self.global = GlobalActive::Unknown;
        current.sort_unstable();
        for &v in &current {
            self.in_next[v as usize] = false;
        }
        current
    }

    /// Return the drained active-list buffer for reuse.
    fn end_sweep(&mut self, mut current: Vec<u32>) {
        current.clear();
        self.spare = current;
    }
}

/// What a sweep is *for*, so the run statistics can attribute work to the schedule
/// stage that caused it. Stages tag the engine via [`SweepEngine::set_stage`] before
/// sweeping; the engine books every sweep under the current tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StageKind {
    /// Cut-reducing refinement sweeps (vertex or edge stage) — the frontier-driven
    /// workhorse, and the default tag.
    Refine,
    /// Constraint-driven balance sweeps: the vertex/edge balance schedule run while a
    /// balance constraint is actually violated.
    Balance,
    /// Perturbation sweeps: a balance pass run while its constraint already holds (or
    /// is detected as unreachable), whose label churn only exists to let the next
    /// refinement round escape a local optimum.
    Churn,
}

impl StageKind {
    /// Trace span name for sweeps under this stage, matching the
    /// [`stage_timings`](SweepEngine::stage_timings) phase names.
    pub const fn span_name(self) -> &'static str {
        match self {
            StageKind::Refine => "sweep_refine",
            StageKind::Balance => "sweep_balance",
            StageKind::Churn => "sweep_churn",
        }
    }
}

/// Per-stage sweep/scored accounting: the [`SweepStats`] totals split by
/// [`StageKind`], so a report can attribute label-propagation work to refinement,
/// balance or perturbation churn. All counts, fully deterministic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StageBreakdown {
    /// Refinement sweeps executed.
    pub refine_sweeps: u64,
    /// Vertices scored by refinement sweeps.
    pub refine_scored: u64,
    /// Balance sweeps executed while a constraint was violated.
    pub balance_sweeps: u64,
    /// Vertices scored by balance sweeps.
    pub balance_scored: u64,
    /// Perturbation (churn) sweeps executed at refinement fixed points.
    pub churn_sweeps: u64,
    /// Vertices scored by churn sweeps.
    pub churn_scored: u64,
}

impl StageBreakdown {
    fn record(&mut self, kind: StageKind, scored: u64) {
        let (sweeps, vertices) = match kind {
            StageKind::Refine => (&mut self.refine_sweeps, &mut self.refine_scored),
            StageKind::Balance => (&mut self.balance_sweeps, &mut self.balance_scored),
            StageKind::Churn => (&mut self.churn_sweeps, &mut self.churn_scored),
        };
        *sweeps += 1;
        *vertices += scored;
    }

    /// Sweep count booked under `kind`.
    pub fn sweeps(&self, kind: StageKind) -> u64 {
        match kind {
            StageKind::Refine => self.refine_sweeps,
            StageKind::Balance => self.balance_sweeps,
            StageKind::Churn => self.churn_sweeps,
        }
    }

    /// Scored-vertex count booked under `kind`.
    pub fn scored(&self, kind: StageKind) -> u64 {
        match kind {
            StageKind::Refine => self.refine_scored,
            StageKind::Balance => self.balance_scored,
            StageKind::Churn => self.churn_scored,
        }
    }
}

/// Counters a sweep run keeps so speedups can be measured rather than asserted:
/// sweeps executed, vertices scored (the unit of real work — the frontier's whole point
/// is to shrink this) and moves applied, plus the same work split per schedule stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SweepStats {
    /// Label-propagation sweeps executed (a sweep over an empty frontier is skipped and
    /// not counted).
    pub sweeps: u64,
    /// Vertices scored across all sweeps — `n * sweeps` for full sweeps, the sum of
    /// active-set sizes for frontier sweeps.
    pub vertices_scored: u64,
    /// Part reassignments applied.
    pub moves: u64,
    /// The sweep/scored totals attributed per stage (refine / balance / churn).
    pub stages: StageBreakdown,
}

/// One label-propagation stage, split into the two phases of the deterministic chunk
/// protocol of [`SweepEngine::sweep`].
///
/// `propose` is called in parallel (the stage must be `Sync`) against an immutable
/// snapshot of `parts` and the stage's counters; it returns the target part or
/// [`NO_MOVE`]. `apply` is called sequentially, in ascending vertex order within each
/// chunk, *after* earlier proposals in the chunk have landed; it must re-validate the
/// move against the current counters (and the live `parts`, which reflects earlier
/// applications) and commit its counter updates, returning whether the move stands.
/// The engine itself writes `parts[v]` and maintains the frontier.
pub trait SweepStage: Sync {
    /// Score `v`'s neighbourhood and pick a destination part, or [`NO_MOVE`].
    fn propose(&self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32;

    /// Recheck and commit the proposed move of `v` to `target`; `true` if it stands.
    fn apply(&mut self, v: u32, target: usize, parts: &[i32]) -> bool;
}

/// One stage of [`SweepEngine::step_sweep`]: each vertex is scored, rechecked against
/// the live loads and booked in one step.
pub trait SweepStep {
    /// Score `v`'s neighbourhood into `scratch`, pick a destination part and, if the
    /// move is admissible, book it in the stage's counters and return the part;
    /// otherwise return [`NO_MOVE`] having booked nothing. The engine itself writes
    /// `parts[v]` and maintains the frontier.
    fn step(&mut self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32;
}

/// The sweep driver state: frontier, per-thread score scratches, the chunk proposal
/// buffer and the run statistics.
#[derive(Debug)]
pub struct SweepEngine {
    /// The active-vertex set carried across sweeps and stages.
    pub frontier: Frontier,
    scratches: Vec<ScoreScratch>,
    proposals: Vec<i32>,
    /// Cached identity vector for full sweeps, grown on demand, so a full sweep does
    /// not allocate and fill a fresh `4n`-byte index array every time.
    full_range: Vec<u32>,
    threads: usize,
    /// The schedule stage subsequent sweeps are booked under (see
    /// [`SweepEngine::set_stage`]).
    stage: StageKind,
    /// One more than the sweeps started since [`begin_run`](SweepEngine::begin_run),
    /// empty ones included, so that no sweep is number zero.
    sweep_no: u32,
    /// Per vertex, the sweep it last moved in (zero if none) and whether it had moved in
    /// the sweep before that one too.
    last_move: Vec<(u32, bool)>,
    /// Whether a vertex that moved in both of the two sweeps before sits the next one
    /// out. Ranks score against ghost labels one sweep old, so two adjacent vertices on
    /// different ranks can each join the other's part, see the mirror image of what they
    /// left and swap back, sweep after sweep; a pass that only ends on an empty frontier
    /// turns this on so that such a pair comes to rest after one round trip and the
    /// frontier drains. Purely local, so no rank needs to hear of it.
    pub settle_swaps: bool,
    /// Wall-clock nanoseconds spent sweeping per stage
    /// (indexed Refine/Balance/Churn). Timing only — never feeds back into any
    /// decision, so determinism is untouched.
    stage_nanos: [u64; 3],
    /// Cumulative counters for the current run.
    pub stats: SweepStats,
}

impl SweepEngine {
    /// An engine running `threads` workers (`0` = auto, see [`resolve_threads`]) on a
    /// rank that has the process to itself.
    pub fn new(threads: usize) -> Self {
        SweepEngine::colocated(threads, 1)
    }

    /// An engine for one of `colocated` ranks sharing this process: the automatic
    /// worker count is the rank's share of the machine (see [`resolve_threads`]).
    pub fn colocated(threads: usize, colocated: usize) -> Self {
        let threads = resolve_threads(threads, colocated).max(1);
        SweepEngine {
            frontier: Frontier::default(),
            scratches: (0..threads).map(|_| ScoreScratch::default()).collect(),
            proposals: vec![NO_MOVE; SWEEP_CHUNK],
            full_range: Vec::new(),
            threads,
            stage: StageKind::Refine,
            sweep_no: 1,
            last_move: Vec::new(),
            settle_swaps: false,
            stage_nanos: [0; 3],
            stats: SweepStats::default(),
        }
    }

    /// The worker-thread count this engine fans proposals out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Book subsequent sweeps under `kind` in the per-stage statistics. Stages call
    /// this once at pass entry; the tag persists until the next call.
    pub fn set_stage(&mut self, kind: StageKind) {
        self.stage = kind;
    }

    /// Wall-clock seconds spent sweeping under `kind` since the last
    /// [`begin_run`](SweepEngine::begin_run).
    pub fn stage_seconds(&self, kind: StageKind) -> f64 {
        self.stage_nanos[kind as usize] as f64 * 1e-9
    }

    /// The per-stage sweep wall-clock as a [`PhaseTimer`](xtrapulp_comm::PhaseTimer) with
    /// `sweep_refine`/`sweep_balance`/`sweep_churn` phases (zero-duration stages
    /// omitted). Both the serial and distributed drivers merge this into their
    /// reports' timings — the phase names are defined once, here.
    pub fn stage_timings(&self) -> xtrapulp_comm::PhaseTimer {
        let mut timings = xtrapulp_comm::PhaseTimer::new();
        for (phase, kind) in [
            ("sweep_refine", StageKind::Refine),
            ("sweep_balance", StageKind::Balance),
            ("sweep_churn", StageKind::Churn),
        ] {
            let seconds = self.stage_seconds(kind);
            if seconds > 0.0 {
                timings.add(phase, std::time::Duration::from_secs_f64(seconds));
            }
        }
        timings
    }

    /// Borrow a score scratch for sequential (non-sweep) scoring loops, so callers do
    /// not allocate their own per-part gain vectors per invocation.
    pub fn scratch(&mut self) -> &mut ScoreScratch {
        &mut self.scratches[0]
    }

    /// Prepare for a run over `n` vertices and `num_parts` parts: sizes the frontier,
    /// the scratches and the chunk buffer, and zeroes the statistics.
    pub fn begin_run(&mut self, n: usize, num_parts: usize) {
        self.frontier.ensure(n);
        for scratch in &mut self.scratches {
            scratch.ensure(num_parts);
        }
        self.stage = StageKind::Refine;
        self.sweep_no = 1;
        self.last_move.clear();
        self.last_move.resize(n, (0, false));
        self.settle_swaps = false;
        self.stage_nanos = [0; 3];
        self.stats = SweepStats::default();
    }

    /// Run one sweep of `stage` over the active set, in [`SWEEP_CHUNK`]-vertex chunks
    /// of parallel proposals and ordered application.
    ///
    /// With `use_frontier`, the active set is the queued frontier (drained, sorted);
    /// otherwise it is all of `0..owned_limit`. Either way every applied move marks the
    /// moved vertex into the next frontier, and `enqueue_neighbors(v, &mut mark)` is
    /// asked to feed `v`'s (owned) neighbours in as well — so full sweeps still populate
    /// the frontier for any frontier-driven stage that follows. `on_move` observes each
    /// applied move (the distributed stages collect their exchange updates there).
    ///
    /// Returns the number of moves applied.
    pub fn sweep<S: SweepStage>(
        &mut self,
        owned_limit: usize,
        parts: &mut [i32],
        use_frontier: bool,
        stage: &mut S,
        enqueue_neighbors: impl Fn(u32, &mut dyn FnMut(u32)),
        mut on_move: impl FnMut(u32, i32),
    ) -> u64 {
        self.run_sweep(owned_limit, use_frontier, |engine, active| {
            let mut moves = 0u64;
            for chunk in active.chunks(SWEEP_CHUNK) {
                // Phase 1: propose in parallel against the chunk-start snapshot.
                engine.propose_chunk(chunk, parts, stage);
                // Phase 2: apply sequentially, in order, with the stage's recheck. A
                // rejected proposal (its chunk-start target has since filled up or lost
                // its appeal) is *repaired* by re-proposing against the live state — the
                // sequential adaptivity the legacy per-vertex loop had, paid only for
                // the vertices the chunk invalidated. Still deterministic: the apply
                // phase is single-threaded and ordered.
                for (slot, &v) in chunk.iter().enumerate() {
                    let mut target = engine.proposals[slot];
                    if target < 0 || engine.sits_out(v) {
                        continue;
                    }
                    if parts[v as usize] == target || !stage.apply(v, target as usize, parts) {
                        target = stage.propose(v, parts, &mut engine.scratches[0]);
                        if target < 0
                            || parts[v as usize] == target
                            || !stage.apply(v, target as usize, parts)
                        {
                            continue;
                        }
                    }
                    engine.commit(v, target, parts, &enqueue_neighbors, &mut on_move);
                    moves += 1;
                }
            }
            moves
        })
    }

    /// Run one full sweep of `stage` over `0..owned_limit`, one vertex at a time: each
    /// vertex is scored, rechecked and booked against the live state in one
    /// [`SweepStep::step`], then committed as [`sweep`](SweepEngine::sweep) commits.
    ///
    /// This is what balance sweeps run. Balance attraction weights are reciprocal in the
    /// live part sizes and drift with every move; any batching of proposals measurably
    /// degrades the edge balance the stage can reach on skewed graphs at scale (hub
    /// placement is decided by the weight feedback loop), so balance sweeps stay
    /// sequential and the parallel fan-out lives in the refinement sweeps, where
    /// decisions are neighbour-local and stale-tolerant. With nothing changing between
    /// scoring a vertex and moving it, the score's neighbour counts are the recheck's
    /// too, and a rejected move would be proposed again unchanged: one scan a vertex.
    ///
    /// Returns the number of moves applied.
    pub fn step_sweep<S: SweepStep>(
        &mut self,
        owned_limit: usize,
        parts: &mut [i32],
        stage: &mut S,
        enqueue_neighbors: impl Fn(u32, &mut dyn FnMut(u32)),
        mut on_move: impl FnMut(u32, i32),
    ) -> u64 {
        self.run_sweep(owned_limit, false, |engine, active| {
            let mut moves = 0u64;
            for &v in active {
                // Scoring has no side effects, so sitting out before it is the same as
                // discarding its proposal.
                if engine.sits_out(v) {
                    continue;
                }
                let target = stage.step(v, parts, &mut engine.scratches[0]);
                if target >= 0 {
                    engine.commit(v, target, parts, &enqueue_neighbors, &mut on_move);
                    moves += 1;
                }
            }
            moves
        })
    }

    /// The bookkeeping around one sweep's `body`: pick the active set (the drained
    /// frontier, or `0..owned_limit`), skip an empty one, and book the sweep, its scored
    /// vertices, its moves (what `body` returns) and its wall-clock under the current
    /// stage.
    fn run_sweep(
        &mut self,
        owned_limit: usize,
        use_frontier: bool,
        body: impl FnOnce(&mut Self, &[u32]) -> u64,
    ) -> u64 {
        self.sweep_no += 1;
        let active = if use_frontier {
            self.frontier.begin_sweep()
        } else {
            // A full sweep ignores the queue but keeps its contents queued: the marks
            // collected so far still describe "changed since the last frontier sweep".
            // The identity vector is cached across sweeps (taken out here so the
            // engine stays mutably borrowable in `body`).
            let mut cached = std::mem::take(&mut self.full_range);
            while cached.len() < owned_limit {
                cached.push(cached.len() as u32);
            }
            cached.truncate(owned_limit);
            cached
        };
        let mut moves = 0;
        if !active.is_empty() {
            // Span arg: vertices scored this sweep (the active-set size).
            let _sweep_span = xtrapulp_obs::span_with(self.stage.span_name(), active.len() as u64);
            // lint: nondeterministic-ok — wall-clock feeds SweepStats timing
            // telemetry only; no partition decision reads it.
            let sweep_started = std::time::Instant::now();
            self.stats.sweeps += 1;
            self.stats.vertices_scored += active.len() as u64;
            self.stats.stages.record(self.stage, active.len() as u64);
            moves = body(self, &active);
            self.stats.moves += moves;
            self.stage_nanos[self.stage as usize] += sweep_started.elapsed().as_nanos() as u64;
        }
        if use_frontier {
            self.frontier.end_sweep(active);
        } else {
            self.full_range = active;
        }
        moves
    }

    /// Whether `v` sits this sweep out under [`settle_swaps`](SweepEngine::settle_swaps):
    /// it moved in both of the two sweeps before.
    #[inline]
    fn sits_out(&self, v: u32) -> bool {
        let (last, twice) = self.last_move[v as usize];
        self.settle_swaps && twice && last + 1 == self.sweep_no
    }

    /// Land an accepted move of `v` to `target`: write the label, remember the sweep it
    /// moved in, mark it and its owned neighbours into the next frontier, and report it.
    #[inline]
    fn commit(
        &mut self,
        v: u32,
        target: i32,
        parts: &mut [i32],
        enqueue_neighbors: &impl Fn(u32, &mut dyn FnMut(u32)),
        on_move: &mut impl FnMut(u32, i32),
    ) {
        parts[v as usize] = target;
        let (last, _) = self.last_move[v as usize];
        self.last_move[v as usize] = (self.sweep_no, last + 1 == self.sweep_no);
        let frontier = &mut self.frontier;
        frontier.mark(v);
        enqueue_neighbors(v, &mut |u| frontier.mark(u));
        on_move(v, target);
    }

    /// Fill `self.proposals[..chunk.len()]` with `stage.propose` outputs, fanning out
    /// across the engine's worker threads when the chunk is big enough to pay for it.
    fn propose_chunk<S: SweepStage>(&mut self, chunk: &[u32], parts: &[i32], stage: &S) {
        let proposals = &mut self.proposals[..chunk.len()];
        // Below this size the scoped-thread fork costs more than it buys; the cutoff is
        // a constant, so it cannot make results depend on the thread count (proposals
        // are pure per-vertex functions either way).
        const PAR_MIN: usize = 256;
        let nthreads = self.threads.min(chunk.len().div_ceil(PAR_MIN)).max(1);
        if nthreads == 1 {
            let scratch = &mut self.scratches[0];
            for (slot, &v) in chunk.iter().enumerate() {
                proposals[slot] = stage.propose(v, parts, scratch);
            }
            return;
        }
        let sub = chunk.len().div_ceil(nthreads);
        std::thread::scope(|scope| {
            for ((prop_sub, chunk_sub), scratch) in proposals
                .chunks_mut(sub)
                .zip(chunk.chunks(sub))
                .zip(self.scratches.iter_mut())
            {
                scope.spawn(move || {
                    for (slot, &v) in chunk_sub.iter().enumerate() {
                        prop_sub[slot] = stage.propose(v, parts, scratch);
                    }
                });
            }
        });
    }
}

/// Reusable per-part counter buffers shared by the sweep stages, so no stage allocates
/// `p`-length vectors per invocation. The label-propagation passes keep up to three
/// loads per part (vertices, arcs, cut arcs, in that order); each buffer
/// packs them as consecutive `num_parts`-long blocks.
#[derive(Debug, Default)]
pub struct PartCounters {
    num_parts: usize,
    /// Part loads, one block per load.
    pub size: Vec<i64>,
    /// How many leading blocks of `size` were measured ahead for the pass about to
    /// start (see `pass::warm_seed_needs_balance`); that pass takes it back to zero.
    pub measured: usize,
    /// This-sweep load changes made by this rank (distributed passes), one block per
    /// load plus two trailing slots, so a sweep's changes, its move count and its queue
    /// length travel as one contiguous tally in the sweep's label push.
    pub change: Vec<i64>,
    /// Balance attraction weights: one block for the vertex stage, two (edge, cut) for
    /// the edge stage.
    pub weight: Vec<f64>,
}

impl PartCounters {
    /// Resize every buffer for `num_parts` parts, zeroed.
    pub fn ensure(&mut self, num_parts: usize) {
        self.num_parts = num_parts;
        self.size.clear();
        self.size.resize(3 * num_parts, 0);
        self.measured = 0;
        self.change.clear();
        self.change.resize(3 * num_parts + 2, 0);
        self.weight.clear();
        self.weight.resize(2 * num_parts, 0.0);
    }

    /// The index range of block `block` in the packed buffers.
    pub fn block(&self, block: usize) -> std::ops::Range<usize> {
        block * self.num_parts..(block + 1) * self.num_parts
    }
}

/// The reusable workspace for a whole partitioning run: the sweep engine plus the
/// per-part counter buffers the stages borrow. One workspace serves every stage of a
/// run back to back; a serving layer can keep it alive across jobs.
#[derive(Debug)]
pub struct SweepWorkspace {
    /// The frontier-driven sweep driver.
    pub engine: SweepEngine,
    /// The shared per-part counters.
    pub counters: PartCounters,
    /// Maximum per-part arc load at the previous edge-balance pass entry, for stall
    /// detection (identical on every rank: derived from allreduced sizes).
    pub edge_balance_last_max: Option<f64>,
    /// Set when an edge-balance pass failed to improve the maximum arc load while the
    /// constraint was unmet: the target is unreachable on this graph (hub-dominated
    /// skew), and further balance churn would cost full sweeps for nothing: the stage's
    /// remaining passes shrink to one churn sweep each.
    pub edge_balance_stalled: bool,
}

impl SweepWorkspace {
    /// A workspace running `threads` proposal workers (`0` = auto) on a rank that has
    /// the process to itself.
    pub fn new(threads: usize) -> Self {
        SweepWorkspace::colocated(threads, 1)
    }

    /// A workspace for one of `colocated` ranks sharing this process (a distributed
    /// driver passes [`RankCtx::colocated_ranks`](xtrapulp_comm::RankCtx::colocated_ranks)),
    /// so automatic worker counts divide the machine instead of multiplying it.
    pub fn colocated(threads: usize, colocated: usize) -> Self {
        SweepWorkspace {
            engine: SweepEngine::colocated(threads, colocated),
            counters: PartCounters::default(),
            edge_balance_last_max: None,
            edge_balance_stalled: false,
        }
    }

    /// Prepare for a run over `n` vertices and `num_parts` parts.
    pub fn begin_run(&mut self, n: usize, num_parts: usize) {
        self.engine.begin_run(n, num_parts);
        self.counters.ensure(num_parts);
        self.edge_balance_last_max = None;
        self.edge_balance_stalled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy stage: move any vertex with a positive label-majority towards part 0 if
    /// part 0 has headroom. Exercises the two-phase recheck and the frontier plumbing
    /// without partitioning semantics.
    struct ToyStage {
        capacity: i64,
        size0: i64,
    }

    impl SweepStage for ToyStage {
        fn propose(&self, v: u32, parts: &[i32], _scratch: &mut ScoreScratch) -> i32 {
            if parts[v as usize] != 0 && self.size0 < self.capacity {
                0
            } else {
                NO_MOVE
            }
        }

        fn apply(&mut self, _v: u32, target: usize, _parts: &[i32]) -> bool {
            if target == 0 && self.size0 < self.capacity {
                self.size0 += 1;
                true
            } else {
                false
            }
        }
    }

    impl SweepStep for ToyStage {
        fn step(&mut self, v: u32, parts: &[i32], scratch: &mut ScoreScratch) -> i32 {
            let target = self.propose(v, parts, scratch);
            if target >= 0 && self.apply(v, target as usize, parts) {
                target
            } else {
                NO_MOVE
            }
        }
    }

    fn line_neighbors(n: usize) -> impl Fn(u32, &mut dyn FnMut(u32)) {
        move |v, mark| {
            if v > 0 {
                mark(v - 1);
            }
            if (v as usize) + 1 < n {
                mark(v + 1);
            }
        }
    }

    #[test]
    fn apply_recheck_caps_moves_within_a_chunk() {
        // 10 vertices all in part 1, capacity 3 in part 0: the propose phase nominates
        // everyone, the apply recheck admits exactly the first three in vertex order.
        let n = 10;
        let mut engine = SweepEngine::new(1);
        engine.begin_run(n, 2);
        engine.frontier.seed_all(n);
        let mut parts = vec![1i32; n];
        let mut stage = ToyStage {
            capacity: 3,
            size0: 0,
        };
        let moves = engine.sweep(
            n,
            &mut parts,
            true,
            &mut stage,
            line_neighbors(n),
            |_, _| {},
        );
        assert_eq!(moves, 3);
        assert_eq!(&parts[..4], &[0, 0, 0, 1]);
        assert_eq!(engine.stats.vertices_scored, n as u64);
    }

    #[test]
    fn a_step_sweep_commits_what_a_full_chunked_sweep_commits() {
        let n = 10;
        let run = |stepped: bool| {
            let mut engine = SweepEngine::new(1);
            engine.begin_run(n, 2);
            let mut parts = vec![1i32; n];
            let mut stage = ToyStage {
                capacity: 3,
                size0: 0,
            };
            let mut moved = Vec::new();
            let on_move = |v, part| moved.push((v, part));
            let moves = if stepped {
                engine.step_sweep(n, &mut parts, &mut stage, line_neighbors(n), on_move)
            } else {
                let neighbors = line_neighbors(n);
                engine.sweep(n, &mut parts, false, &mut stage, neighbors, on_move)
            };
            let mut queued = engine.frontier.queued().to_vec();
            queued.sort_unstable();
            (moves, parts, moved, queued, engine.stats)
        };
        let stepped = run(true);
        assert_eq!(stepped, run(false));
        assert_eq!(stepped.0, 3);
        assert_eq!(stepped.3, vec![0, 1, 2, 3]);
        assert_eq!(stepped.4.vertices_scored, n as u64);
    }

    #[test]
    fn settled_vertices_sit_out_a_step_sweep() {
        // A vertex that moved in each of the two sweeps before sits the next one out.
        let n = 4;
        let mut engine = SweepEngine::new(1);
        engine.begin_run(n, 2);
        engine.settle_swaps = true;
        let mut parts = vec![1i32; n];
        for _ in 0..2 {
            parts[0] = 1;
            let mut stage = ToyStage {
                capacity: 1,
                size0: 0,
            };
            assert_eq!(
                engine.step_sweep(n, &mut parts, &mut stage, line_neighbors(n), |_, _| {}),
                1
            );
            assert_eq!(parts[0], 0);
        }
        parts[0] = 1;
        let mut stage = ToyStage {
            capacity: 1,
            size0: 0,
        };
        engine.step_sweep(n, &mut parts, &mut stage, line_neighbors(n), |_, _| {});
        assert_eq!(
            parts[..2],
            [1, 0],
            "vertex 0 sat out, vertex 1 took its place"
        );
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let n = 10_000;
        let run = |threads: usize| {
            let mut engine = SweepEngine::new(threads);
            engine.begin_run(n, 2);
            engine.frontier.seed_all(n);
            let mut parts = vec![1i32; n];
            let mut stage = ToyStage {
                capacity: 2_500,
                size0: 0,
            };
            while engine.sweep(
                n,
                &mut parts,
                true,
                &mut stage,
                line_neighbors(n),
                |_, _| {},
            ) > 0
            {}
            parts
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(7));
    }

    #[test]
    fn frontier_marks_moved_vertices_and_neighbors_once() {
        let mut f = Frontier::default();
        f.ensure(5);
        f.mark(2);
        f.mark(2);
        f.mark(4);
        f.mark(9); // out of range: ignored (ghost copies)
        assert_eq!(f.active_len(), 2);
        let active = f.begin_sweep();
        assert_eq!(active, vec![2, 4]);
        f.end_sweep(active);
        assert_eq!(f.active_len(), 0);
    }

    #[test]
    fn full_sweeps_keep_the_queue_for_later_frontier_sweeps() {
        let n = 6;
        let mut engine = SweepEngine::new(1);
        engine.begin_run(n, 2);
        let mut parts = vec![1i32; n];
        let mut stage = ToyStage {
            capacity: 1,
            size0: 0,
        };
        // Full sweep: processes everyone, moves one vertex, queues it + neighbours.
        let moves = engine.sweep(
            n,
            &mut parts,
            false,
            &mut stage,
            line_neighbors(n),
            |_, _| {},
        );
        assert_eq!(moves, 1);
        assert!(engine.frontier.active_len() >= 2);
        // The follow-up frontier sweep only scores the queued region.
        let scored_before = engine.stats.vertices_scored;
        engine.sweep(
            n,
            &mut parts,
            true,
            &mut stage,
            line_neighbors(n),
            |_, _| {},
        );
        assert!(engine.stats.vertices_scored - scored_before < n as u64);
    }

    #[test]
    fn empty_frontier_sweep_is_free() {
        let mut engine = SweepEngine::new(1);
        engine.begin_run(8, 2);
        let mut parts = vec![0i32; 8];
        let mut stage = ToyStage {
            capacity: 0,
            size0: 0,
        };
        let moves = engine.sweep(
            8,
            &mut parts,
            true,
            &mut stage,
            line_neighbors(8),
            |_, _| {},
        );
        assert_eq!(moves, 0);
        assert_eq!(engine.stats.sweeps, 0);
        assert_eq!(engine.stats.vertices_scored, 0);
    }

    #[test]
    fn stage_breakdown_attributes_sweeps_to_the_current_tag() {
        let n = 16;
        let mut engine = SweepEngine::new(1);
        engine.begin_run(n, 2);
        engine.frontier.seed_all(n);
        let mut parts = vec![1i32; n];
        let mut stage = ToyStage {
            capacity: n as i64,
            size0: 0,
        };
        // Default tag is Refine.
        engine.sweep(
            n,
            &mut parts,
            true,
            &mut stage,
            line_neighbors(n),
            |_, _| {},
        );
        assert_eq!(engine.stats.stages.refine_sweeps, 1);
        assert_eq!(engine.stats.stages.refine_scored, n as u64);
        assert_eq!(engine.stats.stages.balance_sweeps, 0);
        // Re-tag and sweep again (full sweep so the empty frontier doesn't skip it).
        engine.set_stage(StageKind::Churn);
        engine.sweep(
            n,
            &mut parts,
            false,
            &mut stage,
            line_neighbors(n),
            |_, _| {},
        );
        assert_eq!(engine.stats.stages.churn_sweeps, 1);
        assert_eq!(engine.stats.stages.churn_scored, n as u64);
        // Totals and the breakdown agree.
        let stages = engine.stats.stages;
        assert_eq!(
            stages.refine_sweeps + stages.balance_sweeps + stages.churn_sweeps,
            engine.stats.sweeps
        );
        assert_eq!(
            stages.refine_scored + stages.balance_scored + stages.churn_scored,
            engine.stats.vertices_scored
        );
        assert!(engine.stage_seconds(StageKind::Refine) >= 0.0);
        // begin_run resets the breakdown and the tag.
        engine.begin_run(n, 2);
        assert_eq!(engine.stats.stages, StageBreakdown::default());
    }

    #[test]
    fn score_scratch_clears_sparsely() {
        let mut s = ScoreScratch::new(4);
        s.add(1, 2.0);
        s.add(3, 1.0);
        s.add(1, 0.5);
        assert_eq!(s.get(1), 2.5);
        assert_eq!(s.touched(), &[1, 3]);
        s.clear();
        assert_eq!(s.get(1), 0.0);
        assert!(s.touched().is_empty());
    }

    /// The scratch the epoch stamps replaced: re-zero by list, first touch found by
    /// scanning the list.
    struct NaiveScratch {
        scores: Vec<f64>,
        touched: Vec<usize>,
    }

    impl NaiveScratch {
        fn clear(&mut self) {
            self.scores.iter_mut().for_each(|s| *s = 0.0);
            self.touched.clear();
        }

        fn add(&mut self, part: usize, value: f64) {
            if !self.touched.contains(&part) {
                self.touched.push(part);
            }
            self.scores[part] += value;
        }
    }

    #[test]
    fn score_scratch_matches_a_naive_reference_across_epoch_wrap() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let p = rng.gen_range(1..24usize);
            let mut fast = ScoreScratch::new(p);
            let mut naive = NaiveScratch {
                scores: vec![0.0; p],
                touched: Vec::new(),
            };
            // Start a few clears short of the wrap, so every sequence crosses it with
            // live stamps on both sides.
            fast.epoch = Stamp::MAX - rng.gen_range(0..4u32);
            for _ in 0..600 {
                match rng.gen_range(0..10u32) {
                    0 => {
                        fast.clear();
                        naive.clear();
                    }
                    1..=2 => {
                        // Zero-valued adds still count as a touch, once.
                        let part = rng.gen_range(0..p);
                        fast.add(part, 0.0);
                        naive.add(part, 0.0);
                    }
                    _ => {
                        let part = rng.gen_range(0..p);
                        let value = rng.gen_range(0..64u32) as f64 * 0.25;
                        fast.add(part, value);
                        naive.add(part, value);
                    }
                }
                assert_eq!(fast.touched(), &naive.touched[..]);
                for part in 0..p {
                    assert_eq!(fast.get(part).to_bits(), naive.scores[part].to_bits());
                }
            }
            assert!(fast.epoch < Stamp::MAX - 4, "the sequence never wrapped");
        }
    }

    #[test]
    fn auto_thread_count_is_shared_between_colocated_ranks() {
        // An explicit request always wins.
        assert_eq!(resolve_threads(3, 4), 3);
        let machine = resolve_threads(0, 1);
        assert_eq!(resolve_threads(0, 2), (machine / 2).max(1));
        assert_eq!(resolve_threads(0, 4 * machine), 1);
        assert_eq!(resolve_threads(0, 0), machine);
    }
}
