//! Shared-nothing multi-process ranks over TCP sockets.
//!
//! ## Rendezvous
//!
//! One process per rank. The rank-0 process binds the well-known coordinator
//! address; every other process binds an ephemeral mesh listener, connects to
//! the coordinator (retrying with exponential backoff + jitter until the
//! connect timeout, so start order does not matter) and sends a `HELLO`
//! carrying its requested rank (or auto), its expected rank count and its
//! listener address. Once all `nranks - 1` workers have reported, the
//! coordinator assigns ranks — honouring unique explicit requests, filling the
//! rest — and answers each with a `WELCOME` carrying the assigned rank and the
//! full peer address table. Mismatched rank counts, duplicate rank claims, bad
//! magic/version and missing ranks all fail the handshake with a typed
//! [`TransportError::Handshake`].
//!
//! ## Mesh
//!
//! The rendezvous connection itself becomes the rank-0 link of each worker.
//! Worker `i` then dials workers `1..i` (each identified by an `IAM` frame)
//! and accepts connections from workers `i+1..nranks`, completing the full
//! mesh. Listeners are bound before `HELLO` is sent, so a dial can never
//! outrun its target.
//!
//! ## Data plane
//!
//! `send` writes the frame from the rank thread itself, under the link's
//! mutex: the 4-byte length header and the payload leave in one gathered
//! `write` (`TCP_NODELAY`: one syscall, one segment and one wake-up of the peer
//! per small frame). Each connection has a reader thread that drains the
//! socket — through an 8 KiB buffer, so a small frame is one `read` — into an
//! unbounded inbox channel, whatever its rank thread is doing. That draining
//! is what makes any collective pattern deadlock-free: a write blocks only
//! while the peer's socket buffers are full, and the peer's reader empties
//! them without waiting for anybody. A write that still makes no progress for
//! [`TcpConfig::recv_timeout`] (the socket's write timeout) means the peer's
//! process is wedged: `send` marks the link broken — the stream may end
//! mid-frame, so nothing more is written to it — and reports the sticky
//! [`TransportError::PeerDeath`] a closed connection gives it. A closed or
//! reset connection surfaces as `PeerDeath` on the next receive — within the
//! receive timeout bound — and a peer that is alive but silent past the
//! timeout surfaces as [`TransportError::Timeout`].
//!
//! ## Heartbeats
//!
//! One emitter thread per endpoint writes a 4-byte liveness sentinel
//! (`0xFFFF_FFFF`, never a valid frame length) to every link on which nothing
//! was written for a full [`TcpConfig::heartbeat_interval`], taking the link's
//! mutex only when it is free (a held mutex is a frame being written: the link
//! is not idle); readers count and swallow the sentinels. A link that stays
//! silent — no frames *and* no heartbeats — for
//! [`TcpConfig::heartbeat_misses`] consecutive intervals is declared dead,
//! catching frozen processes and network partitions that TCP alone would
//! surface only after the OS-level keepalive horizon. A rank thread holds a
//! link mutex only while it writes, never while it computes, so a rank that is
//! merely busy never trips the detector.
//!
//! ## Recovery (REJOIN)
//!
//! [`TcpTransport::recover`] tears the current mesh down (waking every peer
//! still blocked on this rank via the EOF cascade) and re-runs the rendezvous
//! claiming the same rank explicitly. The coordinator retains its listener for
//! the transport's lifetime, so reconnect attempts — including a freshly
//! respawned process claiming a dead rank — queue in its backlog until rank 0
//! itself enters recovery and accepts them. After recovery the mesh is fresh
//! (new streams, new FIFO state, re-measured clock offsets) and a
//! collective-level retry can run the failed job from scratch. Rank 0's own
//! death is not survivable: it owns the rendezvous address.

use std::cell::{Cell, RefCell};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xtrapulp_obs::registry::Counter;

use super::{Frame, Transport, TransportError, MAX_FRAME_BYTES};

/// Protocol magic ("XPMP") opening every handshake message.
const MAGIC: u32 = 0x5850_4D50;
/// Wire protocol version; bumped on any incompatible change.
/// v2 added the clock-sync rounds after `WELCOME`; v3 added heartbeat
/// sentinel frames and rank rejoin.
const VERSION: u16 = 3;
/// `HELLO.requested_rank` value meaning "assign me any free rank".
const RANK_AUTO: u64 = u64::MAX;
/// Ping/pong rounds of the post-`WELCOME` clock sync; the round with the
/// smallest RTT wins.
const CLOCK_SYNC_ROUNDS: usize = 4;
/// Frame-header sentinel announcing "still alive, nothing to say". Strictly
/// greater than [`MAX_FRAME_BYTES`], so it can never be mistaken for a
/// payload length.
const HEARTBEAT_HEADER: u32 = 0xFFFF_FFFF;

fn heartbeats_sent_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| xtrapulp_obs::registry::counter("transport_heartbeats_sent_total"))
}

fn heartbeats_missed_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| xtrapulp_obs::registry::counter("transport_heartbeats_missed_total"))
}

fn reconnects_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| xtrapulp_obs::registry::counter("transport_reconnects_total"))
}

/// Configuration of one TCP endpoint (one rank, one process).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Coordinator address (`host:port`). The rank-0 process binds it; every
    /// other process connects to it.
    pub coordinator: String,
    /// Explicit rank to claim, or `None` to accept coordinator assignment.
    /// The coordinator process must claim rank 0 explicitly.
    pub rank: Option<usize>,
    /// Total ranks across all processes. Every process must agree.
    pub nranks: usize,
    /// How long to keep retrying the initial connect (workers) before failing
    /// typed. Also bounds each mesh dial.
    pub connect_timeout: Duration,
    /// How long the coordinator waits for all workers (and each endpoint waits
    /// for individual handshake messages) before failing typed.
    pub handshake_timeout: Duration,
    /// How long `recv` waits for a frame before reporting
    /// [`TransportError::Timeout`], and how long a `send` may make no progress
    /// before the link is declared dead. Bounds how long a rank can hang on a
    /// wedged (rather than dead) peer.
    pub recv_timeout: Duration,
    /// How long a link stays idle before it carries a liveness sentinel.
    /// `Duration::ZERO` disables heartbeats (and the silent-link detector)
    /// entirely.
    pub heartbeat_interval: Duration,
    /// Consecutive silent intervals — no data, no heartbeat — after which a
    /// link is declared dead.
    pub heartbeat_misses: u32,
}

impl TcpConfig {
    /// A config with the default timeouts (10 s connect, 30 s handshake,
    /// 60 s receive, 2 s heartbeats with 5 tolerated misses).
    pub fn new(coordinator: impl Into<String>, rank: Option<usize>, nranks: usize) -> Self {
        TcpConfig {
            coordinator: coordinator.into(),
            rank,
            nranks,
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(30),
            recv_timeout: Duration::from_secs(60),
            heartbeat_interval: Duration::from_secs(2),
            heartbeat_misses: 5,
        }
    }
}

/// What a reader thread forwards to the rank thread.
enum Inbound {
    Frame(Vec<u8>),
    Down(TransportError),
}

/// The sending half of one link, shared (behind the link's mutex) by the rank
/// thread, which writes frames, and the heartbeat emitter.
struct LinkWriter<W> {
    sink: W,
    /// When the link last carried anything, frame or sentinel.
    last_write: Instant,
    /// Set by a failed write: the stream may end mid-frame (and its buffers
    /// may be full for good), so nothing more is written.
    broken: bool,
}

impl<W: Write> LinkWriter<W> {
    /// Write a 4-byte `header` (a frame's length, or the heartbeat sentinel)
    /// and the `payload` behind it as one gathered `write`, looping only when
    /// the sink took part of it.
    fn write(&mut self, header: u32, payload: &[u8]) -> std::io::Result<()> {
        if self.broken {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        let header = header.to_le_bytes();
        let mut done = 0usize;
        while done < header.len() + payload.len() {
            let rest = [
                IoSlice::new(&header[done.min(header.len())..]),
                IoSlice::new(&payload[done.saturating_sub(header.len())..]),
            ];
            match self.sink.write_vectored(&rest) {
                Ok(n) if n > 0 => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                failed => {
                    self.broken = true;
                    return failed.and(Err(std::io::ErrorKind::WriteZero.into()));
                }
            }
        }
        self.last_write = Instant::now();
        Ok(())
    }

    /// Emit the liveness sentinel if the link has been idle for a full
    /// `interval` at `now`; returns how long until it next falls due.
    fn heartbeat_if_idle(&mut self, now: Instant, interval: Duration) -> Duration {
        let idle = now.saturating_duration_since(self.last_write);
        if idle < interval {
            return interval - idle;
        }
        if self.write(HEARTBEAT_HEADER, &[]).is_ok() {
            heartbeats_sent_counter().inc();
        }
        interval
    }
}

/// One link's writer, as its rank thread and the heartbeat emitter share it.
type SharedWriter = Arc<Mutex<LinkWriter<TcpStream>>>;

/// One established peer link.
struct Peer {
    writer: SharedWriter,
    inbox: Receiver<Inbound>,
    /// Sticky death record: once a peer fails, every later receive reports the
    /// same typed error instead of a confusing timeout. Cleared only by a full
    /// mesh recovery, which replaces the `Peer` wholesale.
    dead: RefCell<Option<TransportError>>,
}

/// The mutable half of a [`TcpTransport`]: everything a recovery replaces.
///
/// Lives behind a `RefCell` because a transport is owned by exactly one rank
/// thread (the trait is `Send`, not `Sync`); interior mutability lets
/// `recover(&self)` rebuild the mesh without changing the `Transport` trait's
/// `&self` methods.
#[derive(Default)]
struct Mesh {
    /// Estimated offset from this process's trace clock to the coordinator's
    /// (rank 0's), measured during rendezvous; 0 on the coordinator.
    clock_offset_ns: i64,
    /// Indexed by peer rank; `None` at our own index.
    peers: Vec<Option<Peer>>,
    readers: Vec<JoinHandle<()>>,
    /// The heartbeat emitter, if enabled, and the channel whose closing stops it.
    heartbeat: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Mesh {
    fn peer(&self, rank: usize) -> Result<&Peer, TransportError> {
        self.peers
            .get(rank)
            .and_then(Option::as_ref)
            .ok_or(TransportError::PeerDeath {
                peer: rank,
                detail: "no link to this rank (self, out of range, or mesh torn down)".to_string(),
            })
    }

    /// Close every link, joining the IO threads. Closing our sockets cascades
    /// an EOF to any peer still blocked on us, so one rank entering teardown
    /// accelerates failure detection across the whole job.
    fn teardown(&mut self) {
        if let Some((stop, emitter)) = self.heartbeat.take() {
            drop(stop);
            let _ = emitter.join();
        }
        // Frames `send` accepted (e.g. a final result gather) are the kernel's and
        // go out ahead of the FIN. Shut the sockets so blocked readers wake and exit.
        for peer in self.peers.iter().flatten() {
            let writer = peer.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writer.sink.shutdown(Shutdown::Both);
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        self.peers.iter_mut().for_each(|p| *p = None);
    }
}

/// A connected TCP endpoint implementing [`Transport`].
pub struct TcpTransport {
    rank: usize,
    nranks: usize,
    recv_timeout: Duration,
    /// The connect-time configuration, kept so a recovery can re-run the
    /// rendezvous with identical parameters (claiming `rank` explicitly).
    config: TcpConfig,
    /// Rank 0 only: the rendezvous listener, retained for the transport's
    /// lifetime. Recovery re-accepts on it — no rebind (so no `TIME_WAIT`
    /// races) and early reconnects queue in its backlog.
    coordinator_listener: Option<TcpListener>,
    mesh: RefCell<Mesh>,
    recoveries: Cell<u32>,
}

impl TcpTransport {
    /// Establish the rendezvous and full mesh for this process's rank.
    ///
    /// Blocks until every rank of the job is connected (or a timeout/handshake
    /// failure surfaces). The rank-0 process acts as coordinator.
    pub fn connect(config: &TcpConfig) -> Result<TcpTransport, TransportError> {
        if config.nranks == 0 {
            return Err(TransportError::Handshake {
                detail: "a transport needs at least one rank".to_string(),
            });
        }
        if let Some(r) = config.rank {
            if r >= config.nranks {
                return Err(TransportError::Handshake {
                    detail: format!("rank {r} out of range for {} ranks", config.nranks),
                });
            }
        }
        if config.nranks == 1 {
            // A one-rank job has no peers and needs no sockets.
            return Ok(TcpTransport {
                rank: 0,
                nranks: 1,
                recv_timeout: config.recv_timeout,
                config: config.clone(),
                coordinator_listener: None,
                mesh: RefCell::new(Mesh::default()),
                recoveries: Cell::new(0),
            });
        }
        let (rank, listener, mesh) = if config.rank == Some(0) {
            let listener = bind_coordinator(config)?;
            let links = Self::rendezvous_coordinator(&listener, config)?;
            (0, Some(listener), Self::spawn_io(0, 0, config, links)?)
        } else {
            let (rank, clock_offset_ns, links) = Self::rendezvous_worker(config, config.rank)?;
            (
                rank,
                None,
                Self::spawn_io(rank, clock_offset_ns, config, links)?,
            )
        };
        let mut config = config.clone();
        config.rank = Some(rank);
        Ok(TcpTransport {
            rank,
            nranks: config.nranks,
            recv_timeout: config.recv_timeout,
            config,
            coordinator_listener: listener,
            mesh: RefCell::new(mesh),
            recoveries: Cell::new(0),
        })
    }

    /// How many times this endpoint has successfully rebuilt its mesh.
    pub fn recoveries(&self) -> u32 {
        self.recoveries.get()
    }

    /// Rank 0: collect `HELLO`s on the (already nonblocking) listener, assign
    /// ranks, answer `WELCOME`s. The rendezvous streams become the mesh links.
    fn rendezvous_coordinator(
        listener: &TcpListener,
        config: &TcpConfig,
    ) -> Result<Vec<Option<TcpStream>>, TransportError> {
        let nranks = config.nranks;
        let deadline = Instant::now() + config.handshake_timeout;
        // (requested_rank, advertised mesh addr, stream), one per worker.
        let mut hellos: Vec<(u64, String, TcpStream)> = Vec::new();
        while hellos.len() < nranks - 1 {
            match listener.accept() {
                Ok((stream, _)) => {
                    prepare_stream(&stream, config.handshake_timeout)?;
                    let hello = read_hello(&stream, nranks)?;
                    hellos.push((hello.0, hello.1, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Handshake {
                            detail: format!(
                                "only {} of {} ranks reported to the coordinator within {:?}",
                                hellos.len() + 1,
                                nranks,
                                config.handshake_timeout
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(handshake_io("coordinator accept", &e)),
            }
        }

        // Assign ranks: explicit claims first (unique, in range), autos fill.
        let mut claimed = vec![false; nranks];
        claimed[0] = true;
        for (req, _, _) in &hellos {
            if *req == RANK_AUTO {
                continue;
            }
            let r = *req as usize;
            if r >= nranks {
                return Err(TransportError::Handshake {
                    detail: format!("a worker claimed rank {r}, out of range for {nranks} ranks"),
                });
            }
            if claimed[r] {
                return Err(TransportError::Handshake {
                    detail: format!("rank {r} claimed twice"),
                });
            }
            claimed[r] = true;
        }
        let mut next_free = 0usize;
        let mut assigned: Vec<usize> = Vec::with_capacity(hellos.len());
        for (req, _, _) in &hellos {
            if *req == RANK_AUTO {
                while claimed[next_free] {
                    next_free += 1;
                }
                claimed[next_free] = true;
                assigned.push(next_free);
            } else {
                assigned.push(*req as usize);
            }
        }

        let mut addrs = vec![String::new(); nranks];
        for ((_, addr, _), &rank) in hellos.iter().zip(&assigned) {
            addrs[rank] = addr.clone();
        }
        let mut links: Vec<Option<TcpStream>> = (0..nranks).map(|_| None).collect();
        for ((_, _, stream), rank) in hellos.into_iter().zip(assigned) {
            write_welcome(&stream, rank, nranks, &addrs)?;
            // Serve this worker's clock-sync rounds before welcoming the
            // next, so each worker measures against an idle coordinator.
            sync_serve(&stream)?;
            links[rank] = Some(stream);
        }
        Ok(links)
    }

    /// Non-zero ranks: dial the coordinator, `HELLO`/`WELCOME` + clock sync,
    /// then complete the worker-to-worker mesh. `claim` is the rank to insist
    /// on (`None` accepts coordinator assignment; recovery always claims).
    fn rendezvous_worker(
        config: &TcpConfig,
        claim: Option<usize>,
    ) -> Result<(usize, i64, Vec<Option<TcpStream>>), TransportError> {
        let nranks = config.nranks;
        let coord = connect_retry(&config.coordinator, config.connect_timeout)?;
        prepare_stream(&coord, config.handshake_timeout)?;
        // Bind the mesh listener on the interface that reaches the coordinator,
        // before HELLO advertises it — a dialing peer can never outrun us.
        let local_ip = coord
            .local_addr()
            .map_err(|e| handshake_io("local_addr", &e))?
            .ip();
        let listener = TcpListener::bind((local_ip, 0)).map_err(|e| TransportError::Bind {
            addr: format!("{local_ip}:0"),
            detail: e.to_string(),
        })?;
        let listen_addr = listener
            .local_addr()
            .map_err(|e| handshake_io("listener local_addr", &e))?
            .to_string();

        let requested = claim.map_or(RANK_AUTO, |r| r as u64);
        write_hello(&coord, requested, nranks, &listen_addr)?;
        let (my_rank, addrs) = read_welcome(&coord, nranks)?;
        if let Some(claimed) = claim {
            if my_rank != claimed {
                return Err(TransportError::Handshake {
                    detail: format!("claimed rank {claimed} but coordinator assigned {my_rank}"),
                });
            }
        }
        let clock_offset_ns = sync_measure(&coord)?;

        let mut links: Vec<Option<TcpStream>> = (0..nranks).map(|_| None).collect();
        links[0] = Some(coord);
        // Dial every lower-ranked worker; they are past WELCOME or their
        // listener backlog holds us until they are.
        for (peer, addr) in addrs.iter().enumerate().take(my_rank).skip(1) {
            let stream = connect_retry(addr, config.connect_timeout)?;
            prepare_stream(&stream, config.handshake_timeout)?;
            write_iam(&stream, my_rank)?;
            links[peer] = Some(stream);
        }
        // Accept every higher-ranked worker.
        listener
            .set_nonblocking(true)
            .map_err(|e| handshake_io("mesh listener", &e))?;
        let deadline = Instant::now() + config.handshake_timeout;
        let mut pending = nranks - 1 - my_rank;
        while pending > 0 {
            match listener.accept() {
                Ok((stream, _)) => {
                    prepare_stream(&stream, config.handshake_timeout)?;
                    let peer = read_iam(&stream)?;
                    if peer <= my_rank || peer >= nranks {
                        return Err(TransportError::Handshake {
                            detail: format!("mesh peer announced invalid rank {peer}"),
                        });
                    }
                    if links[peer].is_some() {
                        return Err(TransportError::Handshake {
                            detail: format!("rank {peer} connected twice"),
                        });
                    }
                    links[peer] = Some(stream);
                    pending -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Handshake {
                            detail: format!(
                                "rank {my_rank} still waiting for {pending} mesh peers after {:?}",
                                config.handshake_timeout
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(handshake_io("mesh accept", &e)),
            }
        }
        Ok((my_rank, clock_offset_ns, links))
    }

    /// Spawn the per-peer reader threads and the heartbeat emitter over
    /// established links.
    fn spawn_io(
        rank: usize,
        clock_offset_ns: i64,
        config: &TcpConfig,
        links: Vec<Option<TcpStream>>,
    ) -> Result<Mesh, TransportError> {
        let nranks = config.nranks;
        let heartbeat = config.heartbeat_interval;
        let mut peers: Vec<Option<Peer>> = (0..nranks).map(|_| None).collect();
        let mut readers = Vec::new();
        let mut writers = Vec::new();
        // A zero timeout is no timeout (and an error to set).
        let timeout = |t: Duration| (t > Duration::ZERO).then_some(t);
        for (peer_rank, link) in links.into_iter().enumerate() {
            let Some(stream) = link else { continue };
            // Handshake used read timeouts; the data plane's socket timeout is
            // the heartbeat interval (each expiry is one "missed" tick for the
            // silent-link detector), or unbounded with heartbeats disabled. A
            // write stuck for the receive timeout is a wedged peer.
            stream
                .set_read_timeout(timeout(heartbeat))
                .and_then(|()| stream.set_write_timeout(timeout(config.recv_timeout)))
                .and_then(|()| stream.set_nodelay(true))
                .map_err(|e| handshake_io("stream setup", &e))?;
            let reader_stream = stream.try_clone().map_err(|e| handshake_io("clone", &e))?;
            let writer = Arc::new(Mutex::new(LinkWriter {
                sink: stream,
                last_write: Instant::now(),
                broken: false,
            }));
            let (in_tx, in_rx) = channel::<Inbound>();
            let max_misses = config.heartbeat_misses.max(1);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("xtrapulp-tcp-r{rank}-from{peer_rank}"))
                    .spawn(move || reader_main(reader_stream, peer_rank, in_tx, max_misses))
                    .map_err(|e| handshake_io("spawn reader", &e))?,
            );
            writers.push(Arc::clone(&writer));
            peers[peer_rank] = Some(Peer {
                writer,
                inbox: in_rx,
                dead: RefCell::new(None),
            });
        }
        let heartbeat = if heartbeat > Duration::ZERO {
            let (stop_tx, stop_rx) = channel::<()>();
            let emitter = std::thread::Builder::new()
                .name(format!("xtrapulp-tcp-r{rank}-heartbeat"))
                .spawn(move || heartbeat_main(&writers, heartbeat, &stop_rx))
                .map_err(|e| handshake_io("spawn heartbeat emitter", &e))?;
            Some((stop_tx, emitter))
        } else {
            None
        };
        Ok(Mesh {
            clock_offset_ns,
            peers,
            readers,
            heartbeat,
        })
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn is_wire(&self) -> bool {
        true
    }

    fn backend(&self) -> &'static str {
        "tcp"
    }

    fn clock_offset_ns(&self) -> i64 {
        self.mesh.borrow().clock_offset_ns
    }

    fn send(&self, dst: usize, frame: Frame) -> Result<u64, TransportError> {
        let Frame::Bytes(bytes) = frame else {
            unreachable!("typed frames are never handed to a wire transport");
        };
        let mesh = self.mesh.borrow();
        let peer = mesh.peer(dst)?;
        if let Some(err) = peer.dead.borrow().as_ref() {
            return Err(err.clone());
        }
        let wire = (bytes.len() + super::FRAME_HEADER_BYTES) as u64;
        let mut writer = peer.writer.lock().unwrap_or_else(PoisonError::into_inner);
        writer.write(bytes.len() as u32, &bytes).map_err(|e| {
            let err = TransportError::PeerDeath {
                peer: dst,
                detail: format!("write failed: {e}"),
            };
            *peer.dead.borrow_mut() = Some(err.clone());
            err
        })?;
        Ok(wire)
    }

    fn recv(&self, src: usize) -> Result<Frame, TransportError> {
        let mesh = self.mesh.borrow();
        let peer = mesh.peer(src)?;
        if let Some(err) = peer.dead.borrow().as_ref() {
            return Err(err.clone());
        }
        match peer.inbox.recv_timeout(self.recv_timeout) {
            Ok(Inbound::Frame(bytes)) => Ok(Frame::Bytes(bytes)),
            Ok(Inbound::Down(err)) => {
                *peer.dead.borrow_mut() = Some(err.clone());
                Err(err)
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                peer: src,
                after_ms: self.recv_timeout.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                let err = TransportError::PeerDeath {
                    peer: src,
                    detail: "connection closed (receive queue gone)".to_string(),
                };
                *peer.dead.borrow_mut() = Some(err.clone());
                Err(err)
            }
        }
    }

    fn recover(&self) -> Result<(), TransportError> {
        if self.nranks == 1 {
            return Ok(());
        }
        // Tear the old mesh down first: our closing sockets wake any peer
        // still blocked on us, spreading failure detection cluster-wide.
        self.mesh.borrow_mut().teardown();
        let mesh = match &self.coordinator_listener {
            Some(listener) => {
                let links = Self::rendezvous_coordinator(listener, &self.config)?;
                Self::spawn_io(self.rank, 0, &self.config, links)?
            }
            None => {
                let (rank, clock_offset_ns, links) =
                    Self::rendezvous_worker(&self.config, Some(self.rank))?;
                Self::spawn_io(rank, clock_offset_ns, &self.config, links)?
            }
        };
        *self.mesh.borrow_mut() = mesh;
        self.recoveries.set(self.recoveries.get() + 1);
        reconnects_counter().inc();
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.mesh.borrow_mut().teardown();
    }
}

fn bind_coordinator(config: &TcpConfig) -> Result<TcpListener, TransportError> {
    let listener = TcpListener::bind(&config.coordinator).map_err(|e| TransportError::Bind {
        addr: config.coordinator.clone(),
        detail: e.to_string(),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| handshake_io("coordinator listener", &e))?;
    Ok(listener)
}

/// Reader thread: length-prefixed frames from one peer into the inbox,
/// tolerating up to `max_misses` consecutive heartbeat-interval silences.
fn reader_main(stream: TcpStream, peer: usize, inbox: Sender<Inbound>, max_misses: u32) {
    // Buffered, so a small frame's header and payload come out of one `read`.
    let mut stream = BufReader::new(HeartbeatRead {
        inner: stream,
        misses: 0,
        max_misses,
    });
    loop {
        match read_frame(&mut stream, peer, MAX_FRAME_BYTES) {
            Ok(Some(bytes)) => {
                if inbox.send(Inbound::Frame(bytes)).is_err() {
                    return; // transport dropped; nobody is listening
                }
            }
            Ok(None) => {
                let _ = inbox.send(Inbound::Down(TransportError::PeerDeath {
                    peer,
                    detail: "connection closed by peer".to_string(),
                }));
                return;
            }
            Err(err) => {
                let _ = inbox.send(Inbound::Down(err));
                return;
            }
        }
    }
}

/// A [`Read`] adaptor that turns socket read timeouts into missed-heartbeat
/// ticks: each expiry of the socket's read timeout (one heartbeat interval)
/// counts one miss, any arriving byte resets the count, and `max_misses`
/// consecutive misses surface as a timeout error (mapped to a typed peer
/// death by [`read_frame`]).
struct HeartbeatRead {
    inner: TcpStream,
    misses: u32,
    max_misses: u32,
}

impl Read for HeartbeatRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Ok(n) => {
                    self.misses = 0;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    self.misses += 1;
                    heartbeats_missed_counter().inc();
                    if self.misses >= self.max_misses {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!(
                                "link silent for {} heartbeat intervals (no data, no heartbeat)",
                                self.max_misses
                            ),
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Read one `[u32 len][payload]` frame, silently consuming heartbeat
/// sentinels. `Ok(None)` is a clean EOF at a frame boundary; a mid-frame EOF
/// is a typed [`TransportError::ShortRead`].
///
/// Exposed (crate-internal) so the framing rules are unit-testable without
/// sockets.
pub(crate) fn read_frame(
    stream: &mut impl Read,
    peer: usize,
    max_frame: u64,
) -> Result<Option<Vec<u8>>, TransportError> {
    loop {
        let mut header = [0u8; super::FRAME_HEADER_BYTES];
        let mut got = 0usize;
        while got < header.len() {
            match stream.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(TransportError::ShortRead {
                        peer,
                        expected: header.len() as u64,
                        got: got as u64,
                    })
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(TransportError::PeerDeath {
                        peer,
                        detail: format!("read failed: {e}"),
                    })
                }
            }
        }
        let len = u32::from_le_bytes(header);
        if len == HEARTBEAT_HEADER {
            // Liveness sentinel, not a frame; go read the next header.
            continue;
        }
        let len = len as u64;
        if len > max_frame {
            return Err(TransportError::FrameTooLarge { peer, len });
        }
        let mut payload = vec![0u8; len as usize];
        let mut got = 0usize;
        while got < payload.len() {
            match stream.read(&mut payload[got..]) {
                Ok(0) => {
                    return Err(TransportError::ShortRead {
                        peer,
                        expected: len,
                        got: got as u64,
                    })
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(TransportError::PeerDeath {
                        peer,
                        detail: format!("read failed: {e}"),
                    })
                }
            }
        }
        return Ok(Some(payload));
    }
}

/// Heartbeat emitter: wake when the earliest link falls due and give every
/// link idle for a full `interval` its sentinel, until `stop` closes.
fn heartbeat_main(links: &[SharedWriter], interval: Duration, stop: &Receiver<()>) {
    let mut wait = interval;
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(wait) {
        wait = interval;
        let now = Instant::now();
        for link in links {
            // A held mutex is the rank thread writing a frame: not idle.
            if let Ok(mut link) = link.try_lock() {
                wait = wait.min(link.heartbeat_if_idle(now, interval));
            }
        }
    }
}

// ----------------------------------------------------------------------------------
// Handshake wire helpers (blocking IO with socket read timeouts set upstream).
// ----------------------------------------------------------------------------------

fn handshake_io(what: &str, e: &dyn std::fmt::Display) -> TransportError {
    TransportError::Handshake {
        detail: format!("{what}: {e}"),
    }
}

fn prepare_stream(stream: &TcpStream, handshake_timeout: Duration) -> Result<(), TransportError> {
    stream
        .set_read_timeout(Some(handshake_timeout))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| handshake_io("stream setup", &e))
}

/// Exponential backoff with deterministic jitter for dial retries: attempt
/// `k` waits `min(10ms << k, 500ms)` plus up to half that again of jitter
/// derived by mixing `seed` and `k` (so concurrently-starting workers spread
/// out instead of dialing in lockstep).
pub(crate) fn backoff_delay(attempt: u32, seed: u64) -> Duration {
    const BASE_MS: u64 = 10;
    const CAP_MS: u64 = 500;
    let exp = BASE_MS.saturating_mul(1u64 << attempt.min(10)).min(CAP_MS);
    // splitmix64-style mix of (seed, attempt) for stateless deterministic jitter.
    let mut x = seed.wrapping_add((u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let jitter = x % (exp / 2 + 1);
    Duration::from_millis(exp + jitter)
}

/// FNV-1a 64 over `bytes`; seeds the per-address jitter stream.
fn addr_seed(addr: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn connect_retry(addr: &str, timeout: Duration) -> Result<TcpStream, TransportError> {
    let deadline = Instant::now() + timeout;
    let seed = addr_seed(addr);
    let mut last = String::from("no address resolved");
    let mut attempt = 0u32;
    loop {
        match addr.to_socket_addrs() {
            Ok(resolved) => {
                let addrs: Vec<SocketAddr> = resolved.collect();
                for sa in &addrs {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    let dial = remaining
                        .min(Duration::from_millis(500))
                        .max(Duration::from_millis(10));
                    match TcpStream::connect_timeout(sa, dial) {
                        Ok(stream) => return Ok(stream),
                        Err(e) => last = e.to_string(),
                    }
                }
            }
            Err(e) => last = e.to_string(),
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Connect {
                addr: addr.to_string(),
                detail: last,
            });
        }
        let delay = backoff_delay(attempt, seed).min(deadline.saturating_duration_since(now));
        attempt = attempt.saturating_add(1);
        std::thread::sleep(delay);
    }
}

fn write_all(stream: &TcpStream, bytes: &[u8]) -> Result<(), TransportError> {
    (&mut &*stream)
        .write_all(bytes)
        .map_err(|e| handshake_io("handshake write", &e))
}

fn read_exact(stream: &TcpStream, buf: &mut [u8]) -> Result<(), TransportError> {
    (&mut &*stream)
        .read_exact(buf)
        .map_err(|e| handshake_io("handshake read", &e))
}

fn read_u16(stream: &TcpStream) -> Result<u16, TransportError> {
    let mut b = [0u8; 2];
    read_exact(stream, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(stream: &TcpStream) -> Result<u32, TransportError> {
    let mut b = [0u8; 4];
    read_exact(stream, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(stream: &TcpStream) -> Result<u64, TransportError> {
    let mut b = [0u8; 8];
    read_exact(stream, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_string(stream: &TcpStream) -> Result<String, TransportError> {
    let len = read_u16(stream)? as usize;
    let mut b = vec![0u8; len];
    read_exact(stream, &mut b)?;
    String::from_utf8(b).map_err(|e| handshake_io("handshake string", &e))
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn check_magic(stream: &TcpStream, what: &str) -> Result<(), TransportError> {
    let magic = read_u32(stream)?;
    if magic != MAGIC {
        return Err(TransportError::Handshake {
            detail: format!("{what}: bad magic {magic:#010x} (not an xtrapulp-mp peer?)"),
        });
    }
    let version = read_u16(stream)?;
    if version != VERSION {
        return Err(TransportError::Handshake {
            detail: format!("{what}: protocol version {version}, this build speaks {VERSION}"),
        });
    }
    Ok(())
}

fn write_hello(
    stream: &TcpStream,
    requested_rank: u64,
    nranks: usize,
    listen_addr: &str,
) -> Result<(), TransportError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&requested_rank.to_le_bytes());
    out.extend_from_slice(&(nranks as u64).to_le_bytes());
    push_string(&mut out, listen_addr);
    write_all(stream, &out)
}

/// Returns `(requested_rank, advertised_mesh_addr)`.
fn read_hello(stream: &TcpStream, nranks: usize) -> Result<(u64, String), TransportError> {
    check_magic(stream, "HELLO")?;
    let requested = read_u64(stream)?;
    let their_nranks = read_u64(stream)? as usize;
    if their_nranks != nranks {
        return Err(TransportError::Handshake {
            detail: format!(
                "rank-count mismatch: a worker was launched with {their_nranks} ranks, \
                 the coordinator with {nranks}"
            ),
        });
    }
    let addr = read_string(stream)?;
    Ok((requested, addr))
}

fn write_welcome(
    stream: &TcpStream,
    rank: usize,
    nranks: usize,
    addrs: &[String],
) -> Result<(), TransportError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(rank as u64).to_le_bytes());
    out.extend_from_slice(&(nranks as u64).to_le_bytes());
    for addr in addrs {
        push_string(&mut out, addr);
    }
    write_all(stream, &out)
}

/// Returns `(assigned_rank, peer_addrs)`.
fn read_welcome(stream: &TcpStream, nranks: usize) -> Result<(usize, Vec<String>), TransportError> {
    check_magic(stream, "WELCOME")?;
    let rank = read_u64(stream)? as usize;
    let their_nranks = read_u64(stream)? as usize;
    if their_nranks != nranks {
        return Err(TransportError::Handshake {
            detail: format!(
                "rank-count mismatch: coordinator runs {their_nranks} ranks, this worker {nranks}"
            ),
        });
    }
    if rank >= nranks {
        return Err(TransportError::Handshake {
            detail: format!("coordinator assigned rank {rank}, out of range for {nranks}"),
        });
    }
    let mut addrs = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        addrs.push(read_string(stream)?);
    }
    Ok((rank, addrs))
}

/// Coordinator side of the clock sync: answer each ping with the trace
/// clock's current nanosecond reading.
fn sync_serve(stream: &TcpStream) -> Result<(), TransportError> {
    for _ in 0..CLOCK_SYNC_ROUNDS {
        let _ping = read_u64(stream)?;
        write_all(stream, &xtrapulp_obs::trace::now_ns().to_le_bytes())?;
    }
    Ok(())
}

/// Worker side: ping/pong `CLOCK_SYNC_ROUNDS` times and estimate the offset
/// from this process's trace clock to the coordinator's as
/// `coord_now − (t0 + t1) / 2`, keeping the round with the smallest RTT
/// (least queueing, so the symmetric-delay assumption is closest to true).
fn sync_measure(stream: &TcpStream) -> Result<i64, TransportError> {
    let mut best_rtt = u64::MAX;
    let mut best_offset = 0i64;
    for round in 0..CLOCK_SYNC_ROUNDS {
        let t0 = xtrapulp_obs::trace::now_ns();
        write_all(stream, &(round as u64).to_le_bytes())?;
        let coord_now = read_u64(stream)?;
        let t1 = xtrapulp_obs::trace::now_ns();
        let rtt = t1.saturating_sub(t0);
        if rtt < best_rtt {
            best_rtt = rtt;
            let midpoint = (t0 + rtt / 2) as i64;
            best_offset = coord_now as i64 - midpoint;
        }
    }
    Ok(best_offset)
}

fn write_iam(stream: &TcpStream, rank: usize) -> Result<(), TransportError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(rank as u64).to_le_bytes());
    write_all(stream, &out)
}

fn read_iam(stream: &TcpStream) -> Result<usize, TransportError> {
    check_magic(stream, "IAM")?;
    Ok(read_u64(stream)? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn read_frame_round_trips_and_reports_clean_eof() {
        let mut data = frame_bytes(b"hello");
        data.extend_from_slice(&frame_bytes(b""));
        let mut cur = Cursor::new(data);
        assert_eq!(
            read_frame(&mut cur, 1, 64).unwrap(),
            Some(b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut cur, 1, 64).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut cur, 1, 64).unwrap(), None);
    }

    #[test]
    fn read_frame_accepts_exactly_max_length() {
        let payload = vec![7u8; 64];
        let mut cur = Cursor::new(frame_bytes(&payload));
        assert_eq!(read_frame(&mut cur, 0, 64).unwrap(), Some(payload));
    }

    #[test]
    fn read_frame_rejects_oversized_length_prefix() {
        let mut cur = Cursor::new(frame_bytes(&[0u8; 65]));
        match read_frame(&mut cur, 3, 64) {
            Err(TransportError::FrameTooLarge { peer: 3, len: 65 }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_reports_truncation_as_short_read() {
        // Header promises 10 bytes, stream carries 4.
        let mut data = (10u32).to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3, 4]);
        let mut cur = Cursor::new(data);
        match read_frame(&mut cur, 9, 64) {
            Err(TransportError::ShortRead {
                peer: 9,
                expected: 10,
                got: 4,
            }) => {}
            other => panic!("expected ShortRead, got {other:?}"),
        }
        // EOF inside the header itself is also a short read.
        let mut cur = Cursor::new(vec![5u8, 0]);
        assert!(matches!(
            read_frame(&mut cur, 0, 64),
            Err(TransportError::ShortRead { .. })
        ));
    }

    #[test]
    fn read_frame_skips_heartbeat_sentinels() {
        // heartbeat, frame, heartbeat, heartbeat, frame, heartbeat, EOF
        let hb = HEARTBEAT_HEADER.to_le_bytes();
        let mut data = hb.to_vec();
        data.extend_from_slice(&frame_bytes(b"abc"));
        data.extend_from_slice(&hb);
        data.extend_from_slice(&hb);
        data.extend_from_slice(&frame_bytes(b"d"));
        data.extend_from_slice(&hb);
        let mut cur = Cursor::new(data);
        assert_eq!(read_frame(&mut cur, 0, 64).unwrap(), Some(b"abc".to_vec()));
        assert_eq!(read_frame(&mut cur, 0, 64).unwrap(), Some(b"d".to_vec()));
        // The trailing heartbeat is consumed, then a clean EOF follows.
        assert_eq!(read_frame(&mut cur, 0, 64).unwrap(), None);
    }

    /// A sink that counts the `write` calls it takes, `limit` bytes at most each.
    struct CountingSink {
        limit: usize,
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let before = self.bytes.len();
            for buf in bufs {
                let room = self.limit - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn link_into(limit: usize) -> LinkWriter<CountingSink> {
        LinkWriter {
            sink: CountingSink {
                limit,
                writes: 0,
                bytes: Vec::new(),
            },
            last_write: Instant::now(),
            broken: false,
        }
    }

    #[test]
    fn a_frame_is_one_write_and_a_partial_write_is_resumed() {
        let mut link = link_into(usize::MAX);
        link.write(5, b"hello").unwrap();
        link.write(0, b"").unwrap();
        assert_eq!(link.sink.writes, 2, "header and payload leave together");
        let mut expected = frame_bytes(b"hello");
        expected.extend_from_slice(&frame_bytes(b""));
        assert_eq!(link.sink.bytes, expected);

        // A sink that takes three bytes a call splits the header and the payload
        // at every possible place; the stream must come out the same.
        let mut link = link_into(3);
        link.write(5, b"hello").unwrap();
        assert_eq!(link.sink.writes, 3);
        assert_eq!(link.sink.bytes, frame_bytes(b"hello"));
        assert!(!link.broken);
    }

    #[test]
    fn heartbeat_waits_for_a_full_idle_interval_and_skips_a_broken_link() {
        let interval = Duration::from_secs(2);
        let mut link = link_into(usize::MAX);
        link.write(1, b"x").unwrap();
        let wrote = link.last_write;
        // Half an interval after the frame: silent, due in the other half.
        let due = link.heartbeat_if_idle(wrote + interval / 2, interval);
        assert_eq!(due, interval / 2);
        assert_eq!(link.sink.writes, 1);
        // A full interval after it: one sentinel, as one write, due again an interval on.
        assert_eq!(link.heartbeat_if_idle(wrote + interval, interval), interval);
        assert_eq!(link.sink.writes, 2);
        assert_eq!(link.sink.bytes[5..], HEARTBEAT_HEADER.to_le_bytes());
        // A link whose stream may end mid-frame carries nothing more.
        link.broken = true;
        let later = link.last_write + 3 * interval;
        assert_eq!(link.heartbeat_if_idle(later, interval), interval);
        assert_eq!(link.sink.writes, 2);
    }

    /// Delivers its bytes one per `read`, the worst a socket can do.
    struct Trickle(Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn buffered_reader_frames_one_chunk_and_a_trickle_alike() {
        let mut data = frame_bytes(b"first");
        data.extend_from_slice(&HEARTBEAT_HEADER.to_le_bytes());
        data.extend_from_slice(&frame_bytes(&[9u8; 300]));
        // Everything at once: the buffer holds both frames and the sentinel.
        let mut chunk = BufReader::new(Cursor::new(data.clone()));
        // A byte at a time: every header and payload straddles reads.
        let mut trickle = BufReader::new(Trickle(Cursor::new(data)));
        for stream in [&mut chunk as &mut dyn Read, &mut trickle] {
            let mut stream = stream;
            assert_eq!(
                read_frame(&mut stream, 0, 512).unwrap(),
                Some(b"first".to_vec())
            );
            assert_eq!(
                read_frame(&mut stream, 0, 512).unwrap(),
                Some(vec![9u8; 300])
            );
            assert_eq!(read_frame(&mut stream, 0, 512).unwrap(), None);
        }
    }

    /// A loopback connection's two ends.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (dialed, listener.accept().unwrap().0)
    }

    /// Rank `rank` of a two-rank job whose one link is `stream`: the data plane
    /// without the rendezvous.
    fn endpoint(rank: usize, stream: TcpStream, config: &TcpConfig) -> TcpTransport {
        let mut links = vec![None, None];
        links[1 - rank] = Some(stream);
        TcpTransport {
            rank,
            nranks: 2,
            recv_timeout: config.recv_timeout,
            config: config.clone(),
            coordinator_listener: None,
            mesh: RefCell::new(TcpTransport::spawn_io(rank, 0, config, links).unwrap()),
            recoveries: Cell::new(0),
        }
    }

    /// A peer that accepts and then never reads: once the socket buffers are
    /// full a `send` fails typed within the write timeout instead of hanging,
    /// and the failure sticks.
    #[test]
    fn send_to_a_wedged_peer_fails_typed_within_the_write_timeout() {
        let (stream, _wedged) = socket_pair();
        let mut config = TcpConfig::new("unused", Some(0), 2);
        config.recv_timeout = Duration::from_millis(300);
        config.heartbeat_interval = Duration::ZERO;
        let transport = endpoint(0, stream, &config);
        let started = Instant::now();
        // 64 MiB is more than any loopback socket pair buffers.
        let err = (0..64)
            .find_map(|_| transport.send(1, Frame::Bytes(vec![0u8; 1 << 20])).err())
            .expect("a peer that never reads cannot absorb 64 MiB");
        assert!(
            matches!(err, TransportError::PeerDeath { peer: 1, .. }),
            "{err:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(20), "send hung");
        let again = transport.send(1, Frame::Bytes(vec![1])).unwrap_err();
        assert_eq!(
            format!("{again:?}"),
            format!("{err:?}"),
            "the death is sticky"
        );
    }

    /// A rank that computes for longer than the silent-link horizon without
    /// sending is not declared dead: its emitter heartbeats the idle link.
    #[test]
    fn a_busy_rank_is_kept_alive_by_its_heartbeat_emitter() {
        let mut config = TcpConfig::new("unused", None, 2);
        config.recv_timeout = Duration::from_secs(10);
        config.heartbeat_interval = Duration::from_millis(100);
        config.heartbeat_misses = 5;
        let (a, b) = socket_pair();
        let (waiting, busy) = (endpoint(0, a, &config), endpoint(1, b, &config));
        let computing = std::thread::spawn(move || {
            std::thread::sleep(3 * config.heartbeat_interval * config.heartbeat_misses);
            busy.send(0, Frame::Bytes(b"done".to_vec())).unwrap();
            busy
        });
        match waiting.recv(1) {
            Ok(Frame::Bytes(bytes)) => assert_eq!(bytes, b"done"),
            other => panic!("expected the frame, got {:?}", other.err()),
        }
        drop(computing.join().unwrap());
    }

    #[test]
    fn backoff_delay_is_deterministic_bounded_and_grows() {
        for attempt in 0..20 {
            let a = backoff_delay(attempt, 42);
            let b = backoff_delay(attempt, 42);
            assert_eq!(a, b, "same (attempt, seed) must give the same delay");
            // exp is capped at 500ms and jitter at half of exp.
            assert!(a <= Duration::from_millis(750), "attempt {attempt}: {a:?}");
            assert!(a >= Duration::from_millis(10), "attempt {attempt}: {a:?}");
        }
        // The deterministic (jitter-free) floor grows exponentially early on.
        let floor = |attempt: u32| Duration::from_millis(10 * (1 << attempt.min(10)).min(50));
        assert!(backoff_delay(4, 7) >= floor(4));
        // Different seeds decorrelate the jitter for at least one attempt.
        assert!((0..8).any(|k| backoff_delay(k, 1) != backoff_delay(k, 2)));
    }
}
