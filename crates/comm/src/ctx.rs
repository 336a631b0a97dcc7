//! The reusable rank runtime ([`Runtime`]) and the per-rank handle ([`RankCtx`])
//! exposing MPI-style collectives.
//!
//! [`Runtime::new`] spawns `nranks` long-lived worker threads once;
//! [`Runtime::execute`] then runs any number of bulk-synchronous jobs on them,
//! amortising thread spawn/teardown across jobs the way an MPI job reuses its
//! task set across collective phases. A one-shot job is the same two calls,
//! `Runtime::new(nranks).execute(f)`; the runtime tears down when dropped.
//!
//! Every collective is written against the [`Transport`] abstraction: a
//! rank-addressed exchange of framed messages with FIFO ordering per ordered
//! rank pair. Because every rank issues the same collectives in the same order
//! (the usage contract), the k-th frame rank `s` sends to rank `d` always
//! matches the k-th receive rank `d` posts from `s` — so each collective below
//! is just "send to the ranks that need my data, then receive in rank order",
//! with no slot protocol or barrier framing.
//!
//! [`Runtime::new`] builds the in-process backend (ranks are threads, frames
//! move as typed boxes, nothing is serialised). [`Runtime::with_transport`]
//! accepts any [`Transport`] — notably [`TcpTransport`](crate::TcpTransport),
//! where this process hosts one rank of a multi-process job and frames are
//! length-prefixed byte streams.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xtrapulp_obs as obs;
use xtrapulp_obs::{FlightKind, Histogram};

use crate::error::CommError;
use crate::stats::{CollectiveKind, CommStats};
use crate::transport::codec::Tallied;
use crate::transport::{
    CodecError, Frame, InProcFabric, Transport, TransportError, WireElem, WireMessage,
    FRAME_HEADER_BYTES,
};
use crate::watchdog::Stall;

/// What the runtime ships to its worker threads: a borrowed job closure, called
/// with the worker's local index and a fresh [`RankCtx`].
///
/// The pointee lives in [`Runtime::run`]'s stack frame; the `'static` lifetime is
/// a lie told via `transmute`, made sound because `run` blocks until every worker
/// that received the job has reported its completion or exited, so the reference
/// never outlives its referent (the same guarantee scoped threads provide, made
/// manual because the workers are long-lived).
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize, &RankCtx) + Sync),
    /// The runtime's stall deadline, sampled at dispatch so a mid-job change
    /// never affects a running job.
    wd_deadline: Option<Duration>,
}

/// How a [`Runtime::try_execute_recoverable`] job finished.
#[derive(Debug)]
pub enum ExecOutcome<R> {
    /// Every rank completed on the first attempt.
    Completed(Vec<R>),
    /// The job failed at least once, membership was restored, and a retry ran
    /// to completion.
    Recovered {
        /// Each local rank's result, in local-rank order.
        results: Vec<R>,
        /// Successful mesh recoveries performed along the way.
        recoveries: u32,
    },
}

impl<R> ExecOutcome<R> {
    /// Successful recoveries performed (0 for [`ExecOutcome::Completed`]).
    pub fn recoveries(&self) -> u32 {
        match self {
            ExecOutcome::Completed(_) => 0,
            ExecOutcome::Recovered { recoveries, .. } => *recoveries,
        }
    }
}

/// A persistent pool of rank threads executing bulk-synchronous jobs.
///
/// Each local rank is an OS thread with private state; ranks communicate only
/// through the collectives on [`RankCtx`]. This mirrors how the original
/// XtraPuLP runs one MPI task per node with OpenMP threads inside it: here the
/// "node" is a thread, and ranks are the only parallelism — a rank's sweeps,
/// generators and builders run serially on its own thread.
/// There is no broadcast: where the paper's rank 0 `MPI_Bcast`s its init roots,
/// every rank here draws the same roots itself.
///
/// A runtime hosts the ranks whose transports it was given. [`Runtime::new`]
/// hosts *all* ranks of an in-process job; [`Runtime::with_transport`] hosts
/// one rank of a multi-process job, with the remaining ranks living in other
/// processes behind the transport. The rank threads are spawned once and live
/// until the runtime is dropped, so back-to-back jobs pay the spawn cost once.
/// Every job gets a fresh [`RankCtx`] (and therefore fresh [`CommStats`]).
pub struct Runtime {
    nranks: usize,
    local_ranks: Vec<usize>,
    job_txs: Vec<Sender<Job>>,
    /// Each worker reports its local index here once per job, after its result is
    /// in its slot, and once more when its thread exits, however it exits.
    done_rx: Receiver<usize>,
    workers: Vec<JoinHandle<()>>,
    /// Stall-watchdog deadline applied to subsequently dispatched jobs
    /// (`None` = watchdog disabled, the default).
    wd_deadline: Option<Duration>,
}

impl Runtime {
    /// Spawn a runtime of `nranks` persistent in-process rank threads.
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0`; use [`Runtime::try_new`] on request paths that
    /// need a typed error instead.
    pub fn new(nranks: usize) -> Runtime {
        Runtime::try_new(nranks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Spawn a runtime of `nranks` persistent in-process rank threads,
    /// returning a typed [`CommError`] on invalid rank counts or thread-spawn
    /// failure instead of panicking.
    pub fn try_new(nranks: usize) -> Result<Runtime, CommError> {
        if nranks == 0 {
            return Err(CommError::ZeroRanks);
        }
        let transports: Vec<Box<dyn Transport>> = InProcFabric::create(nranks)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        Runtime::from_transports(transports)
    }

    /// Host one rank of a (typically multi-process) job over an established
    /// transport. The other `nranks - 1` ranks live behind the transport, in
    /// other processes.
    pub fn with_transport(transport: Box<dyn Transport>) -> Result<Runtime, CommError> {
        Runtime::from_transports(vec![transport])
    }

    /// Host every rank whose transport is supplied. All transports must agree
    /// on the job's rank count; each claims a distinct rank within it.
    pub fn from_transports(transports: Vec<Box<dyn Transport>>) -> Result<Runtime, CommError> {
        if transports.is_empty() {
            return Err(CommError::ZeroRanks);
        }
        let nranks = transports[0].nranks();
        if nranks == 0 {
            return Err(CommError::ZeroRanks);
        }
        for t in &transports {
            if t.nranks() != nranks {
                return Err(CommError::RankCountMismatch {
                    expected: nranks,
                    got: t.nranks(),
                });
            }
            if t.rank() >= nranks {
                return Err(CommError::RankOutOfRange {
                    rank: t.rank(),
                    nranks,
                });
            }
        }
        let (done_tx, done_rx) = channel();
        let mut local_ranks = Vec::with_capacity(transports.len());
        let mut job_txs = Vec::with_capacity(transports.len());
        let mut workers = Vec::with_capacity(transports.len());
        for (local, transport) in transports.into_iter().enumerate() {
            let rank = transport.rank();
            let (job_tx, job_rx) = channel::<Job>();
            let done_tx = done_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("xtrapulp-rank-{rank}"))
                .spawn(move || Self::worker_main(transport, job_rx, done_tx, local));
            match spawned {
                Ok(handle) => {
                    local_ranks.push(rank);
                    job_txs.push(job_tx);
                    workers.push(handle);
                }
                Err(e) => {
                    // Unwind the partial pool before reporting.
                    drop(job_tx);
                    drop(job_txs);
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(CommError::Spawn {
                        detail: e.to_string(),
                    });
                }
            }
        }
        Ok(Runtime {
            nranks,
            local_ranks,
            job_txs,
            done_rx,
            workers,
            wd_deadline: None,
        })
    }

    /// Number of ranks in the job, across all participating processes.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Arm (or with `None`, disarm) the stall watchdog for jobs dispatched
    /// after this call: a rank whose next transport operation makes no
    /// progress for `deadline` trips with [`CommError::Stalled`], records a
    /// flight-recorder watchdog event naming the collective, rank, and
    /// frame, and dumps a post-mortem file. Disabled by default. See
    /// [`crate::watchdog`].
    pub fn set_watchdog_deadline(&mut self, deadline: Option<Duration>) {
        self.wd_deadline = deadline;
    }

    /// The currently configured stall deadline, if any.
    pub fn watchdog_deadline(&self) -> Option<Duration> {
        self.wd_deadline
    }

    /// The ranks hosted by this runtime (all of them for [`Runtime::new`],
    /// usually one for [`Runtime::with_transport`]).
    pub fn local_ranks(&self) -> &[usize] {
        &self.local_ranks
    }

    /// True when some ranks of the job live in other processes.
    pub fn is_distributed(&self) -> bool {
        self.local_ranks.len() != self.nranks
    }

    /// Execute `f` collectively on every locally hosted rank and return each
    /// local rank's result, in [`Runtime::local_ranks`] order (which is rank
    /// order `0..nranks` for an in-process runtime).
    ///
    /// `f` is shared by reference across ranks, so it can capture read-only input (for
    /// example, a globally generated edge list that each rank filters down to the part it
    /// owns). Per-rank mutable state lives inside the closure body.
    ///
    /// Takes `&mut self` because a runtime executes one job at a time: the
    /// rank threads and the transport are a single collective context, exactly
    /// like an MPI communicator.
    ///
    /// # Panics
    ///
    /// If any rank's closure panics, the panic is re-raised on the caller once
    /// every local rank has finished — including transport failures, which
    /// unwind the job as [`TransportError`] payloads. Use
    /// [`Runtime::try_execute`] to receive those as typed errors instead. If a
    /// rank panics *mid-collective* the remaining in-process ranks deadlock in
    /// the abandoned collective, exactly as an MPI job would hang — don't let
    /// request-path code panic inside a job. A rank whose worker thread is gone
    /// panics the caller with the [`CommError::WorkerLost`] message naming it.
    pub fn execute<F, R>(&mut self, f: F) -> Vec<R>
    where
        F: Fn(&RankCtx) -> R + Sync,
        R: Send,
    {
        let outcomes = self.run(f).unwrap_or_else(|e| panic!("{e}"));
        let results: std::thread::Result<Vec<R>> = outcomes.into_iter().collect();
        results.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Like [`Runtime::execute`], but transport failures (peer death, receive
    /// timeout, undecodable frames) surface as [`CommError::Transport`], and a
    /// local rank whose worker thread is gone as [`CommError::WorkerLost`],
    /// instead of unwinding the caller. Non-transport panics still propagate.
    pub fn try_execute<F, R>(&mut self, f: F) -> Result<Vec<R>, CommError>
    where
        F: Fn(&RankCtx) -> R + Sync,
        R: Send,
    {
        let mut results = Vec::with_capacity(self.job_txs.len());
        let mut transport_error: Option<TransportError> = None;
        let mut other_panic = None;
        let mut stall: Option<Stall> = None;
        for outcome in self.run(f)? {
            match outcome {
                Ok(result) => results.push(result),
                Err(payload) => match payload.downcast::<Stall>() {
                    Ok(s) => stall = Some(*s),
                    Err(payload) => match payload.downcast::<TransportError>() {
                        Ok(err) => transport_error = Some(*err),
                        Err(payload) => other_panic = Some(payload),
                    },
                },
            }
        }
        // A stall is the most specific diagnosis: when one rank trips the
        // watchdog, its peers often fail with secondary transport timeouts —
        // report the stall, not the symptom.
        if let Some(s) = stall {
            return Err(CommError::Stalled {
                collective: s.collective,
                rank: s.rank,
                frame: s.frame,
                waited_ms: s.waited_ms,
            });
        }
        if let Some(err) = transport_error {
            return Err(CommError::Transport(err));
        }
        if let Some(payload) = other_panic {
            std::panic::resume_unwind(payload);
        }
        Ok(results)
    }

    /// Like [`Runtime::try_execute`], but a transport failure triggers a
    /// membership recovery ([`Runtime::recover`]) followed by a from-scratch
    /// retry of `f`, up to `max_recoveries` times. Jobs run this way must be
    /// idempotent — deterministic pure functions of their captured input, as
    /// every partitioning job here is.
    ///
    /// Returns a typed [`ExecOutcome`] distinguishing a clean first-attempt
    /// completion from a completion that needed recoveries. When attempts are
    /// exhausted, or a recovery itself fails, the job is abandoned with
    /// [`CommError::Aborted`] carrying the last transport failure.
    pub fn try_execute_recoverable<F, R>(
        &mut self,
        f: F,
        max_recoveries: u32,
    ) -> Result<ExecOutcome<R>, CommError>
    where
        F: Fn(&RankCtx) -> R + Sync,
        R: Send,
    {
        let mut recoveries = 0u32;
        loop {
            match self.try_execute(&f) {
                Ok(results) => {
                    return Ok(if recoveries == 0 {
                        ExecOutcome::Completed(results)
                    } else {
                        ExecOutcome::Recovered {
                            results,
                            recoveries,
                        }
                    })
                }
                Err(CommError::Transport(err)) => {
                    if recoveries >= max_recoveries {
                        abort_postmortem(recoveries);
                        return Err(CommError::Aborted {
                            recoveries,
                            last: err,
                        });
                    }
                    if let Err(e) = self.recover() {
                        let last = match e {
                            CommError::Transport(t) => t,
                            other => return Err(other),
                        };
                        abort_postmortem(recoveries);
                        return Err(CommError::Aborted { recoveries, last });
                    }
                    recoveries += 1;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Restore the job's membership after a transport failure: every locally
    /// hosted rank recovers its transport (see [`Transport::recover`]), in
    /// parallel — recovery is itself a collective rendezvous, so with several
    /// local ranks each must be mid-recovery at once for any to complete.
    ///
    /// On success the next job starts on a fresh mesh with sticky per-peer
    /// death cleared. Fails typed with the first rank's recovery error
    /// otherwise, or with [`CommError::WorkerLost`] if a local rank's worker
    /// thread is gone.
    pub fn recover(&mut self) -> Result<(), CommError> {
        let mut first: Option<TransportError> = None;
        for outcome in self.run(|ctx| ctx.transport.recover())? {
            let failed = match outcome {
                Ok(res) => res.err(),
                Err(payload) => match payload.downcast::<TransportError>() {
                    Ok(err) => Some(*err),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            };
            if let Some(err) = failed {
                first.get_or_insert(err);
            }
        }
        match first {
            Some(err) => Err(CommError::Transport(err)),
            None => {
                runtime_recoveries_counter().inc();
                obs::flight::record(
                    FlightKind::Recovery,
                    "recovered",
                    runtime_recoveries_counter().get(),
                    0,
                );
                Ok(())
            }
        }
    }

    /// The one dispatch under [`execute`](Runtime::execute),
    /// [`try_execute`](Runtime::try_execute) and [`recover`](Runtime::recover):
    /// run `f` on every local rank, each catching its own unwind into its slot,
    /// and return every rank's outcome in local-rank order once all have
    /// reported done. A rank whose worker thread is gone — the job could not be
    /// delivered, or the worker exited without running it — leaves its slot
    /// empty, which fails the whole job as [`CommError::WorkerLost`].
    fn run<R: Send>(
        &mut self,
        f: impl Fn(&RankCtx) -> R + Sync,
    ) -> Result<Vec<std::thread::Result<R>>, CommError> {
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            self.job_txs.iter().map(|_| Mutex::new(None)).collect();
        // A slot's one store cannot leave it half-written, so a poisoned lock
        // still holds a sound value.
        let body = |local: usize, ctx: &RankCtx| {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx)));
            *slots[local].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        };
        let body: &(dyn Fn(usize, &RankCtx) + Sync) = &body;
        let job = Job {
            // SAFETY: workers call `job.f` only between receiving the job and
            // reporting on the done channel, and this function returns only after
            // every rank that received the job has reported or exited; `body` and
            // `slots` therefore outlive every use of the forged `'static` reference.
            f: unsafe {
                std::mem::transmute::<
                    &(dyn Fn(usize, &RankCtx) + Sync),
                    &'static (dyn Fn(usize, &RankCtx) + Sync),
                >(body)
            },
            wd_deadline: self.wd_deadline,
        };
        // A send fails only when the worker has exited: it never sees the job.
        let mut pending: Vec<bool> = self.job_txs.iter().map(|tx| tx.send(job).is_ok()).collect();
        let mut waiting = pending.iter().filter(|&&p| p).count();
        while waiting > 0 {
            // A worker reports once per job it ran and once when it exits, so a
            // rank that received the job but died before running it still
            // reports; a report from a rank not waited on is a stale exit notice.
            // The receive fails only once every worker is gone.
            let Ok(local) = self.done_rx.recv() else {
                break;
            };
            if std::mem::take(&mut pending[local]) {
                waiting -= 1;
            }
        }
        // No worker still holds the job; the borrow of `body` has ended.
        slots
            .into_iter()
            .zip(&self.local_ranks)
            .map(|(slot, &rank)| {
                let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                slot.ok_or(CommError::WorkerLost { rank })
            })
            .collect()
    }

    /// Gather every rank's trace buffers at rank 0 and write one merged
    /// chrome://tracing Trace Event Format file there.
    ///
    /// A collective operation: every process hosting ranks of the job must
    /// call it (the launcher does, after its partition jobs). Within each
    /// process the lowest local rank drains and ships the whole process's
    /// buffers — rank threads, serve workers, analytics consumers alike —
    /// with its transport clock offset applied, so TCP ranks land on rank 0's
    /// timeline. Returns `true` iff this process hosted rank 0 and wrote
    /// `path`.
    ///
    /// Tracing is suspended for the duration so the gather does not trace
    /// itself; the previous enable state is restored before returning.
    pub fn export_trace(&mut self, path: &std::path::Path) -> Result<bool, CommError> {
        let was_enabled = obs::trace::enabled();
        obs::set_enabled(false);
        let wrote = self.gather_to_file(
            "trace",
            path,
            |ctx| obs::encode_traces(&obs::trace::drain(), ctx.clock_offset_ns()),
            obs::decode_traces,
            |path, traces| {
                let all: Vec<_> = traces.into_iter().flatten().collect();
                // Write-then-rename: a crash mid-export never publishes a torn trace.
                let mut tmp = path.as_os_str().to_owned();
                tmp.push(".tmp");
                std::fs::write(&tmp, obs::export::chrome_trace_json(&all))?;
                std::fs::rename(&tmp, path)
            },
        );
        if was_enabled {
            obs::set_enabled(true);
        }
        wrote
    }

    /// Gather every process's flight-recorder ring at rank 0 and write one
    /// merged post-mortem JSON file there, tagged with `reason`.
    ///
    /// The cross-rank counterpart of [`xtrapulp_obs::flight::dump`]: a
    /// collective (every process hosting ranks must call it), modeled on
    /// [`Runtime::export_trace`]. Each process's lowest local rank snapshots
    /// the ring — without resetting it — with its transport clock offset
    /// applied; rank 0 merges all logs time-sorted into `path`. Returns
    /// `true` iff this process hosted rank 0 and wrote the file.
    ///
    /// The stall watchdog is disabled for the duration: after a trip the
    /// surviving ranks run this gather over the same slow transport that
    /// stalled, and it must complete rather than re-trip.
    pub fn export_flight(
        &mut self,
        path: &std::path::Path,
        reason: &str,
    ) -> Result<bool, CommError> {
        let prev_deadline = self.wd_deadline.take();
        let wrote = self.gather_to_file(
            "flight",
            path,
            |ctx| {
                let (events, dropped) = obs::flight::snapshot();
                obs::flight::encode_flight(&events, dropped, ctx.clock_offset_ns())
            },
            obs::flight::decode_flight,
            |path, logs| obs::flight::write_postmortem(path, reason, &logs),
        );
        self.wd_deadline = prev_deadline;
        wrote
    }

    /// The gather both exports run: each process's lowest local rank ships `encode(ctx)`;
    /// rank 0 decodes every blob and hands them, in rank order, to `write` with `path`.
    /// A blob that does not decode or a failed write is a [`CommError::TraceExport`].
    /// Returns `true` iff this process hosted rank 0 and wrote `path`.
    fn gather_to_file<T>(
        &mut self,
        what: &str,
        path: &std::path::Path,
        encode: impl Fn(&RankCtx) -> Vec<u8> + Sync,
        decode: fn(&[u8]) -> Result<T, obs::wire::DecodeError>,
        write: impl Fn(&std::path::Path, Vec<T>) -> std::io::Result<()> + Sync,
    ) -> Result<bool, CommError> {
        let leader = self.local_ranks.iter().copied().min().unwrap_or(0);
        let outcome = self.try_execute(|ctx| -> Result<bool, String> {
            let ships = ctx.rank() == leader;
            let blob = if ships { encode(ctx) } else { Vec::new() };
            let Some(blobs) = ctx.gather(blob) else {
                return Ok(false);
            };
            let decoded = blobs.iter().map(|b| decode(b)).collect::<Result<_, _>>();
            let decoded = decoded.map_err(|e| format!("undecodable rank {what} blob: {e}"))?;
            write(path, decoded).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(true)
        });
        let wrote: Result<Vec<bool>, _> = outcome?.into_iter().collect();
        let wrote = wrote.map_err(|detail| CommError::TraceExport { detail })?;
        Ok(wrote.contains(&true))
    }

    fn worker_main(
        transport: Box<dyn Transport>,
        job_rx: Receiver<Job>,
        done_tx: Sender<usize>,
        local: usize,
    ) {
        // The loop ends when the runtime drops its sender, or dies if the
        // transport fails on start. Either way the worker then closes its job
        // channel and reports its exit, in that order: once `run` has read the
        // notice, no job can reach this worker any more.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // The Arc never leaves this thread; it only lets each job's RankCtx
            // share the long-lived endpoint.
            let transport: Arc<dyn Transport> = Arc::from(transport);
            // Label this worker thread so its trace events export under the
            // rank's process lane in chrome://tracing.
            obs::set_thread_rank(transport.rank());
            while let Ok(job) = job_rx.recv() {
                let ctx = RankCtx::new(Arc::clone(&transport), job.wd_deadline);
                (job.f)(local, &ctx);
                if done_tx.send(local).is_err() {
                    return;
                }
            }
        }));
        drop(job_rx);
        let _ = done_tx.send(local);
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Closing the job channels tells every worker to exit its loop.
        self.job_txs.clear();
        for handle in self.workers.drain(..) {
            // Every worker catches its own unwind, so the join carries nothing.
            let _ = handle.join();
        }
    }
}

/// Unwind the current job with a typed transport failure as the payload;
/// [`Runtime::try_execute`] turns it back into [`CommError::Transport`].
fn fail(err: TransportError) -> ! {
    std::panic::panic_any(err)
}

/// Dump the flight recorder when a recoverable job gives up: the ring holds
/// the collective entries, faults, and recoveries that explain the abort.
fn abort_postmortem(recoveries: u32) {
    obs::flight::record(FlightKind::Fault, "aborted", u64::from(recoveries), 0);
    let _ = obs::flight::dump("aborted");
}

/// What the in-process backend charges as wire bytes for a payload a byte
/// stream would have framed.
fn est_wire(payload_bytes: usize) -> u64 {
    (payload_bytes + FRAME_HEADER_BYTES) as u64
}

/// Every rank contributes the same number of elements to a reduction; from a peer that
/// did not (`lens` in rank order), the collective got a frame it cannot decode, which is
/// what a codec failure is.
fn check_contribution_lengths(lens: impl Iterator<Item = usize>, expected: usize, size: usize) {
    if let Some((peer, len)) = lens.enumerate().find(|&(_, len)| len != expected) {
        let (expected, got) = (expected * size, len * size);
        let source = CodecError::BadLength { expected, got };
        fail(TransportError::Codec { peer, source });
    }
}

/// Successful membership recoveries, fleet-wide.
fn runtime_recoveries_counter() -> &'static obs::registry::Counter {
    static C: OnceLock<obs::registry::Counter> = OnceLock::new();
    C.get_or_init(|| obs::registry::counter("runtime_recoveries_total"))
}

/// Per-collective latency histogram in the global metrics registry, fetched
/// once and cached so the per-collective cost is one atomic `fetch_add`.
fn collective_hist(kind: CollectiveKind) -> &'static Arc<Histogram> {
    static HISTS: OnceLock<[Arc<Histogram>; CollectiveKind::COUNT]> = OnceLock::new();
    &HISTS.get_or_init(|| {
        CollectiveKind::ALL.map(|k| {
            obs::registry::histogram(&format!("comm_collective_nanos{{kind=\"{}\"}}", k.name()))
        })
    })[kind.index()]
}

/// RAII observation of one collective call: a trace span named after the
/// collective (its end event tagged with the wire bytes the call moved) plus
/// a sample in the per-kind latency histogram and the flight recorder's
/// always-on collective enter/exit pair.
struct CollectiveObs<'a> {
    span: obs::Span,
    start: Instant,
    stats: &'a CommStats,
    kind: CollectiveKind,
    wire_before: u64,
    /// The rank's transport-op frame counter at collective entry.
    frame: u64,
}

impl Drop for CollectiveObs<'_> {
    fn drop(&mut self) {
        collective_hist(self.kind).record_duration(self.start.elapsed());
        obs::flight::record(
            FlightKind::CollectiveExit,
            self.kind.name(),
            self.frame,
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        if self.span.is_armed() {
            let moved = self
                .stats
                .per_kind_wire(self.kind)
                .saturating_sub(self.wire_before);
            self.span.set_arg(moved);
        }
    }
}

/// The stall watchdog's per-rank progress beacon: which collective the rank
/// is inside, when it last made transport progress, and its monotonically
/// increasing transport-operation frame counter.
#[derive(Clone, Copy)]
struct Beacon {
    collective: &'static str,
    last_progress: Instant,
    frame: u64,
}

/// Handle given to each rank: identity, size, collectives and communication counters.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    /// Whether the transport moves real bytes (serialise) or typed boxes.
    wire: bool,
    transport: Arc<dyn Transport>,
    stats: CommStats,
    /// Stall deadline sampled at job start (`None` = watchdog disabled).
    wd_deadline: Option<Duration>,
    beacon: Cell<Beacon>,
}

impl RankCtx {
    fn new(transport: Arc<dyn Transport>, wd_deadline: Option<Duration>) -> Self {
        RankCtx {
            rank: transport.rank(),
            nranks: transport.nranks(),
            wire: transport.is_wire(),
            transport,
            stats: CommStats::new(),
            wd_deadline,
            beacon: Cell::new(Beacon {
                collective: "none",
                last_progress: Instant::now(),
                frame: 0,
            }),
        }
    }

    /// This rank's id, in `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the runtime.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// True on rank 0, the rank [`gather`](RankCtx::gather) collects at.
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// Short name of the transport backend carrying this job (`"inproc"`,
    /// `"tcp"`).
    pub fn backend(&self) -> &'static str {
        self.transport.backend()
    }

    /// Communication counters for this rank.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Estimated offset (ns) mapping this process's trace clock onto rank
    /// 0's, measured during the transport handshake (0 in-process).
    pub fn clock_offset_ns(&self) -> i64 {
        self.transport.clock_offset_ns()
    }

    /// Open the span + latency observation for one collective call. Must be
    /// created after `record_collective` so the wire-byte delta it reads on
    /// drop covers exactly this call. Also resets the watchdog beacon: the
    /// compute phase between collectives never counts against the deadline.
    fn observe(&self, kind: CollectiveKind) -> CollectiveObs<'_> {
        let mut beacon = self.beacon.get();
        beacon.collective = kind.name();
        beacon.last_progress = Instant::now();
        self.beacon.set(beacon);
        obs::flight::record(FlightKind::CollectiveEnter, kind.name(), beacon.frame, 0);
        CollectiveObs {
            span: obs::span(kind.name()),
            start: Instant::now(),
            stats: &self.stats,
            kind,
            wire_before: self.stats.per_kind_wire(kind),
            frame: beacon.frame,
        }
    }

    /// Mark one completed transport operation as watchdog progress. Trips
    /// when the gap since the previous mark reached the deadline — even if
    /// the operation eventually succeeded, a frame that stalled past the
    /// deadline already blew the progress SLA, and tripping on it is what
    /// makes injected-delay drills deterministic.
    fn mark_progress(&self) {
        let mut beacon = self.beacon.get();
        let waited = beacon.last_progress.elapsed();
        let stalled_frame = beacon.frame;
        beacon.frame += 1;
        beacon.last_progress = Instant::now();
        self.beacon.set(beacon);
        if let Some(deadline) = self.wd_deadline {
            if waited >= deadline {
                self.trip(beacon.collective, stalled_frame, waited);
            }
        }
    }

    /// Unwind a failed transport operation, recording the fault in the flight
    /// recorder first. A receive timeout that already waited past the stall
    /// deadline upgrades to a watchdog trip: the peer is alive but not
    /// moving, which is a stall, not a death.
    fn fail_op(&self, err: TransportError) -> ! {
        let beacon = self.beacon.get();
        obs::flight::record(FlightKind::Fault, err.kind(), beacon.frame, 0);
        if let (Some(deadline), TransportError::Timeout { .. }) = (self.wd_deadline, &err) {
            let waited = beacon.last_progress.elapsed();
            if waited >= deadline {
                self.trip(beacon.collective, beacon.frame, waited);
            }
        }
        fail(err)
    }

    /// Trip the stall watchdog: flight-record the trip, dump the post-mortem,
    /// and unwind with a typed [`Stall`] payload.
    fn trip(&self, collective: &'static str, frame: u64, waited: Duration) -> ! {
        let waited_ms = u64::try_from(waited.as_millis()).unwrap_or(u64::MAX);
        obs::flight::record(FlightKind::Watchdog, collective, frame, waited_ms);
        let _ = obs::flight::dump("watchdog");
        std::panic::panic_any(Stall {
            collective,
            rank: self.rank,
            frame,
            waited_ms,
        })
    }

    // ----------------------------------------------------------------------------------
    // Point-to-point plumbing under the collectives.
    // ----------------------------------------------------------------------------------

    /// Hand one frame to the transport and account for it.
    fn send_frame(&self, kind: CollectiveKind, dst: usize, frame: Frame) {
        match self.transport.send(dst, frame) {
            Ok(wire) => {
                self.stats.record_frames_sent(kind, 1, wire);
                self.mark_progress();
            }
            Err(err) => self.fail_op(err),
        }
    }

    /// Every rank but this one, ascending: the order collectives send in.
    fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nranks).filter(|&d| d != self.rank)
    }

    /// Send one message to `dst`, serialising iff the transport is a byte
    /// stream.
    fn send_message<M: WireMessage>(&self, kind: CollectiveKind, dst: usize, msg: M) {
        let frame = if self.wire {
            Frame::Bytes(msg.encode())
        } else {
            let est = est_wire(msg.wire_size());
            Frame::typed(msg, est)
        };
        self.send_frame(kind, dst, frame);
    }

    /// Send the same message to every other rank, encoding it once on the
    /// wire path.
    fn send_to_all<M: WireMessage + Clone>(&self, kind: CollectiveKind, msg: &M) {
        if self.wire {
            let bytes = msg.encode();
            for dst in self.peers() {
                self.send_frame(kind, dst, Frame::Bytes(bytes.clone()));
            }
        } else {
            let est = est_wire(msg.wire_size());
            for dst in self.peers() {
                self.send_frame(kind, dst, Frame::typed(msg.clone(), est));
            }
        }
    }

    /// Send `msgs[d]` to every other rank `d` and return this rank's own
    /// entry. Callers have checked that `msgs` holds one entry per rank.
    fn send_each<M: WireMessage>(&self, kind: CollectiveKind, mut msgs: Vec<M>) -> M {
        let own = msgs.remove(self.rank);
        for (dst, msg) in self.peers().zip(msgs) {
            self.send_message(kind, dst, msg);
        }
        own
    }

    /// Receive the next message from `src`, decoding or downcasting as the
    /// transport requires.
    fn recv_message<M: WireMessage>(&self, kind: CollectiveKind, src: usize) -> M {
        let frame = match self.transport.recv(src) {
            Ok(frame) => frame,
            Err(err) => self.fail_op(err),
        };
        self.stats.record_frame_recv(kind, frame.wire_len());
        self.mark_progress();
        match frame {
            Frame::Bytes(bytes) => match M::decode(&bytes) {
                Ok(msg) => msg,
                Err(source) => fail(TransportError::Codec { peer: src, source }),
            },
            Frame::Typed { payload, .. } => match payload.downcast::<M>() {
                Ok(msg) => *msg,
                Err(_) => panic!(
                    "in-process frame carried an unexpected type: \
                     ranks issued mismatched collectives"
                ),
            },
        }
    }

    /// Receive one message from every other rank, in rank order, with this
    /// rank's `own` contribution in its slot: the receive half of every
    /// collective whose result is indexed by source rank.
    fn recv_in_rank_order<M: WireMessage>(&self, kind: CollectiveKind, own: M) -> Vec<M> {
        let mut all = Vec::with_capacity(self.nranks);
        all.extend((0..self.rank).map(|src| self.recv_message::<M>(kind, src)));
        all.push(own);
        all.extend((self.rank + 1..self.nranks).map(|src| self.recv_message::<M>(kind, src)));
        all
    }

    // ----------------------------------------------------------------------------------
    // Collectives. All of them must be called by every rank, in the same order.
    // ----------------------------------------------------------------------------------

    /// Block until every rank reaches this call.
    pub fn barrier(&self) {
        self.stats.record_collective(CollectiveKind::Barrier);
        let _obs = self.observe(CollectiveKind::Barrier);
        match self.transport.barrier() {
            Ok(cost) => {
                if cost.frames_sent > 0 || cost.wire_sent > 0 {
                    self.stats.record_frames_sent(
                        CollectiveKind::Barrier,
                        cost.frames_sent,
                        cost.wire_sent,
                    );
                }
                if cost.wire_recv > 0 {
                    self.stats
                        .record_frame_recv(CollectiveKind::Barrier, cost.wire_recv);
                }
                self.mark_progress();
            }
            Err(err) => self.fail_op(err),
        }
    }

    /// Gather a variable-length contribution from every rank and concatenate them in rank
    /// order on every rank.
    pub fn allgatherv<T>(&self, values: Vec<T>) -> Vec<T>
    where
        T: WireElem,
    {
        self.stats.record_collective(CollectiveKind::Allgather);
        let _obs = self.observe(CollectiveKind::Allgather);
        self.stats.record_send((values.len() * T::SIZE) as u64);
        self.send_to_all(CollectiveKind::Allgather, &values);
        let out = self
            .recv_in_rank_order(CollectiveKind::Allgather, values)
            .concat();
        self.stats.record_recv((out.len() * T::SIZE) as u64);
        out
    }

    /// Gather one value from every rank at rank 0. Returns `Some(values)`, indexed by
    /// rank, on rank 0 and `None` elsewhere.
    pub fn gather<T>(&self, value: T) -> Option<Vec<T>>
    where
        T: WireMessage,
    {
        self.stats.record_collective(CollectiveKind::Gather);
        let _obs = self.observe(CollectiveKind::Gather);
        self.stats.record_send(value.wire_size() as u64);
        if !self.is_root() {
            self.send_message(CollectiveKind::Gather, 0, value);
            return None;
        }
        let all = self.recv_in_rank_order(CollectiveKind::Gather, value);
        let recv_bytes: usize = all.iter().map(WireMessage::wire_size).sum();
        self.stats.record_recv(recv_bytes as u64);
        Some(all)
    }

    /// Personalised all-to-all exchange with variable-length buffers, the workhorse of
    /// XtraPuLP's `ExchangeUpdates` routine. `sends[d]` is delivered to rank `d`; the
    /// result's entry `s` is the buffer sent by rank `s`.
    pub fn alltoallv<T>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: WireElem,
    {
        assert_eq!(
            sends.len(),
            self.nranks,
            "alltoallv requires one buffer per destination rank"
        );
        self.stats.record_collective(CollectiveKind::Alltoallv);
        let _obs = self.observe(CollectiveKind::Alltoallv);
        let sent_elems: usize = sends.iter().map(Vec::len).sum();
        self.stats.record_send((sent_elems * T::SIZE) as u64);
        let own = self.send_each(CollectiveKind::Alltoallv, sends);
        let out = self.recv_in_rank_order(CollectiveKind::Alltoallv, own);
        let recv_elems: usize = out.iter().map(Vec::len).sum();
        self.stats.record_recv((recv_elems * T::SIZE) as u64);
        out
    }

    /// [`alltoallv`](RankCtx::alltoallv) that also sums `tally` over every rank, in the
    /// same round: each peer frame carries this rank's tally after its buffer (one
    /// two-section frame), and the sums are taken in rank order. Returns the received
    /// buffers and the element-wise sums. Booked as one `Alltoallv` whose payload counts
    /// the tally once each way, as [`allreduce_with`](RankCtx::allreduce_with) counts its
    /// contribution. An empty tally sends exactly the frames `alltoallv` sends.
    pub fn alltoallv_sum<T>(&self, sends: Vec<Vec<T>>, tally: &[i64]) -> (Vec<Vec<T>>, Vec<i64>)
    where
        T: WireElem,
    {
        if tally.is_empty() {
            return (self.alltoallv(sends), Vec::new());
        }
        assert_eq!(
            sends.len(),
            self.nranks,
            "alltoallv_sum requires one buffer per destination rank"
        );
        self.stats.record_collective(CollectiveKind::Alltoallv);
        let _obs = self.observe(CollectiveKind::Alltoallv);
        let tally_bytes = tally.len() * i64::SIZE;
        let sent_elems: usize = sends.iter().map(Vec::len).sum();
        self.stats
            .record_send((sent_elems * T::SIZE + tally_bytes) as u64);
        let frames = sends.into_iter().map(|items| Tallied {
            items,
            tally: tally.to_vec(),
        });
        let own = self.send_each(CollectiveKind::Alltoallv, frames.collect());
        let all = self.recv_in_rank_order(CollectiveKind::Alltoallv, own);
        let lens = all.iter().map(|frame| frame.tally.len());
        check_contribution_lengths(lens, tally.len(), i64::SIZE);
        let mut sums = vec![0i64; tally.len()];
        let mut out = Vec::with_capacity(self.nranks);
        for frame in all {
            for (sum, x) in sums.iter_mut().zip(&frame.tally) {
                *sum += x;
            }
            out.push(frame.items);
        }
        let recv_elems: usize = out.iter().map(Vec::len).sum();
        self.stats
            .record_recv((recv_elems * T::SIZE + tally_bytes) as u64);
        (out, sums)
    }

    /// Element-wise allreduce with a caller-supplied combine function.
    ///
    /// Every rank supplies a slice of the same length; `combine(acc, contribution)` is
    /// applied in rank order, so non-commutative reductions are deterministic.
    pub fn allreduce_with<T, F>(&self, local: &[T], combine: F) -> Vec<T>
    where
        T: WireElem,
        F: Fn(&mut T, &T),
    {
        self.stats.record_collective(CollectiveKind::Allreduce);
        let _obs = self.observe(CollectiveKind::Allreduce);
        self.stats.record_send((local.len() * T::SIZE) as u64);
        let own = local.to_vec();
        self.send_to_all(CollectiveKind::Allreduce, &own);
        let all = self.recv_in_rank_order(CollectiveKind::Allreduce, own);
        check_contribution_lengths(all.iter().map(Vec::len), local.len(), T::SIZE);
        // A runtime has at least one rank, so the fold never sees an empty list.
        let acc = all
            .into_iter()
            .reduce(|mut acc, contrib| {
                for (a, c) in acc.iter_mut().zip(contrib.iter()) {
                    combine(a, c);
                }
                acc
            })
            .unwrap_or_default();
        self.stats.record_recv((acc.len() * T::SIZE) as u64);
        acc
    }

    /// Element-wise sum allreduce over `u64`.
    pub fn allreduce_sum_u64(&self, local: &[u64]) -> Vec<u64> {
        self.allreduce_with(local, |a, c| *a += *c)
    }

    /// Element-wise sum allreduce over `i64`.
    pub fn allreduce_sum_i64(&self, local: &[i64]) -> Vec<i64> {
        self.allreduce_with(local, |a, c| *a += *c)
    }

    /// Element-wise sum allreduce over `f64`.
    pub fn allreduce_sum_f64(&self, local: &[f64]) -> Vec<f64> {
        self.allreduce_with(local, |a, c| *a += *c)
    }

    /// Element-wise max allreduce over `u64`.
    pub fn allreduce_max_u64(&self, local: &[u64]) -> Vec<u64> {
        self.allreduce_with(local, |a, c| *a = (*a).max(*c))
    }

    /// Element-wise max allreduce over `f64`.
    pub fn allreduce_max_f64(&self, local: &[f64]) -> Vec<f64> {
        self.allreduce_with(local, |a, c| *a = a.max(*c))
    }

    /// Element-wise min allreduce over `u64`.
    pub fn allreduce_min_u64(&self, local: &[u64]) -> Vec<u64> {
        self.allreduce_with(local, |a, c| *a = (*a).min(*c))
    }

    /// Sum of one value per rank, available on every rank.
    pub fn allreduce_scalar_sum_u64(&self, value: u64) -> u64 {
        self.allreduce_sum_u64(&[value])[0]
    }
}
