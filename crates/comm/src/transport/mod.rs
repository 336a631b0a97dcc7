//! The pluggable point-to-point transport under the collectives.
//!
//! The collectives in [`crate::RankCtx`] are written against one abstraction:
//! [`Transport`], a rank-addressed exchange of framed messages with FIFO
//! ordering per ordered rank pair. Because every rank issues the same
//! collectives in the same order (the usage contract inherited from MPI), the
//! k-th frame rank `s` sends to rank `d` is always matched by the k-th receive
//! rank `d` posts from `s` — no slot protocol or global barrier framing is
//! needed, only ordered channels.
//!
//! Two backends:
//!
//! * [`InProcTransport`] — backend zero, the refactored shared-memory hub.
//!   Ranks are threads of one process; frames move as typed boxes through
//!   in-process channels, paying no serialisation. This is what
//!   [`Runtime::new`](crate::Runtime::new) builds and what every pre-existing
//!   caller gets.
//! * [`TcpTransport`] — shared-nothing multi-process ranks over sockets. A
//!   coordinator rendezvous assigns ranks and distributes peer addresses, a
//!   full mesh of length-prefixed byte streams carries the frames (encoded with
//!   [`WireCodec`](codec::WireMessage)); the rank thread writes its own frames
//!   and per-peer reader threads keep every socket drained, so no send waits
//!   on what the receiving rank is doing. Peer death surfaces as a typed
//!   [`TransportError`] within a bounded timeout instead of a hang.
//!
//! Failures at this layer are typed ([`TransportError`]), not panics-by-way-of
//! poisoned channels: connect/bind/handshake errors surface from
//! [`TcpTransport::connect`](tcp::TcpTransport::connect), and mid-collective
//! peer loss surfaces from [`Runtime::try_execute`](crate::Runtime::try_execute)
//! as [`CommError::Transport`](crate::CommError::Transport).

pub mod codec;
mod fault;
mod inproc;
mod tcp;

use std::any::Any;
use std::fmt;

pub use codec::{CodecError, WireElem, WireMessage};
pub use fault::{FaultInjectTransport, FaultPlan};
pub use inproc::{InProcFabric, InProcTransport};
pub use tcp::{TcpConfig, TcpTransport};

/// Bytes of frame header (little-endian `u32` payload length) on byte-stream
/// backends. In-process frames have no header; their accounting uses the
/// estimated payload size alone.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Largest payload a single frame may carry (1 GiB). A length prefix beyond
/// this is treated as protocol corruption, not an allocation request.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// One point-to-point message.
///
/// Byte-stream backends carry [`Frame::Bytes`] (a serialised
/// [`WireMessage`] payload); the in-process backend
/// carries [`Frame::Typed`] (the value itself, no serialisation) plus the
/// wire-size estimate its byte accounting reports.
pub enum Frame {
    /// Serialised payload, excluding the length-prefix header.
    Bytes(Vec<u8>),
    /// In-process payload moved by ownership.
    Typed {
        /// The boxed message value (downcast by the receiving collective).
        payload: Box<dyn Any + Send>,
        /// What [`WireMessage::wire_size`]
        /// reported for the value — the bytes a wire backend would have moved.
        est_wire: u64,
    },
}

impl Frame {
    /// Wrap a typed in-process payload.
    pub fn typed<M: Send + 'static>(msg: M, est_wire: u64) -> Frame {
        Frame::Typed {
            payload: Box::new(msg),
            est_wire,
        }
    }

    /// Bytes this frame puts (or would put) on a wire, including the header
    /// for byte frames.
    pub fn wire_len(&self) -> u64 {
        match self {
            Frame::Bytes(b) => (b.len() + FRAME_HEADER_BYTES) as u64,
            Frame::Typed { est_wire, .. } => *est_wire,
        }
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Frame::Bytes(b) => write!(f, "Frame::Bytes({} bytes)", b.len()),
            Frame::Typed { est_wire, .. } => {
                write!(f, "Frame::Typed(~{est_wire} wire bytes)")
            }
        }
    }
}

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Could not bind a listening socket (coordinator or mesh listener).
    Bind {
        /// The address that failed to bind.
        addr: String,
        /// OS error detail.
        detail: String,
    },
    /// Could not reach a peer or the coordinator within the connect timeout.
    Connect {
        /// The address that could not be reached.
        addr: String,
        /// Last OS error observed while retrying.
        detail: String,
    },
    /// The rendezvous or mesh handshake failed: bad magic/version, rank-count
    /// mismatch between processes, duplicate rank claims, or missing ranks.
    Handshake {
        /// What went wrong.
        detail: String,
    },
    /// A stream ended mid-frame: fewer bytes arrived than the frame header
    /// promised.
    ShortRead {
        /// The peer rank the frame came from.
        peer: usize,
        /// Bytes the header promised.
        expected: u64,
        /// Bytes that actually arrived.
        got: u64,
    },
    /// A frame header announced a payload larger than [`MAX_FRAME_BYTES`] —
    /// stream corruption or a protocol mismatch.
    FrameTooLarge {
        /// The peer rank the frame came from.
        peer: usize,
        /// The announced length.
        len: u64,
    },
    /// A frame arrived intact but its payload failed to decode as the type
    /// the collective expected.
    Codec {
        /// The peer rank the frame came from.
        peer: usize,
        /// The decode failure.
        source: CodecError,
    },
    /// The connection to a peer closed or reset: the peer process exited,
    /// crashed, or was killed.
    PeerDeath {
        /// The rank that died.
        peer: usize,
        /// What was observed (EOF, reset, send-queue closed, ...).
        detail: String,
    },
    /// No frame arrived from a peer within the receive timeout. The peer is
    /// alive but wedged, or itself blocked on a dead rank.
    Timeout {
        /// The rank that went silent.
        peer: usize,
        /// The timeout that elapsed, in milliseconds.
        after_ms: u64,
    },
}

impl TransportError {
    /// Stable short name of the error class, for logs and machine-readable
    /// launcher output.
    pub fn kind(&self) -> &'static str {
        match self {
            TransportError::Bind { .. } => "bind",
            TransportError::Connect { .. } => "connect",
            TransportError::Handshake { .. } => "handshake",
            TransportError::ShortRead { .. } => "short-read",
            TransportError::FrameTooLarge { .. } => "frame-too-large",
            TransportError::Codec { .. } => "codec",
            TransportError::PeerDeath { .. } => "peer-death",
            TransportError::Timeout { .. } => "timeout",
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Bind { addr, detail } => {
                write!(f, "failed to bind {addr}: {detail}")
            }
            TransportError::Connect { addr, detail } => {
                write!(f, "failed to connect to {addr}: {detail}")
            }
            TransportError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            TransportError::ShortRead {
                peer,
                expected,
                got,
            } => write!(
                f,
                "short read from rank {peer}: frame promised {expected} bytes, got {got}"
            ),
            TransportError::FrameTooLarge { peer, len } => write!(
                f,
                "rank {peer} announced a {len}-byte frame (max {MAX_FRAME_BYTES}); stream corrupt"
            ),
            TransportError::Codec { peer, source } => {
                write!(f, "undecodable frame from rank {peer}: {source}")
            }
            TransportError::PeerDeath { peer, detail } => {
                write!(f, "rank {peer} died: {detail}")
            }
            TransportError::Timeout { peer, after_ms } => {
                write!(f, "no frame from rank {peer} within {after_ms} ms")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Traffic a [`Transport::barrier`] put on the wire, for the caller's
/// accounting (zero for the in-process backend, whose barrier is a shared
/// thread barrier).
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierCost {
    /// Point-to-point frames this rank sent.
    pub frames_sent: u64,
    /// Wire bytes this rank sent.
    pub wire_sent: u64,
    /// Wire bytes this rank received.
    pub wire_recv: u64,
}

/// Rank-addressed framed message exchange: the one interface the collectives
/// are written against.
///
/// Contract: frames between an ordered pair of ranks are delivered reliably
/// and in FIFO order; `send` does not block on the receiver (outbound frames
/// queue), and `recv` blocks until the next frame from `src` arrives or the
/// backend detects that it never will.
pub trait Transport: Send {
    /// This endpoint's rank, in `0..nranks`.
    fn rank(&self) -> usize;

    /// Total ranks in the job, across all participating processes.
    fn nranks(&self) -> usize;

    /// Whether payloads are serialised onto a real byte stream (`true` for
    /// sockets) or moved as typed values (`false` in-process). Callers use
    /// this to decide between [`Frame::Bytes`] and [`Frame::Typed`].
    fn is_wire(&self) -> bool;

    /// Short backend name for logs and reports (`"inproc"`, `"tcp"`).
    fn backend(&self) -> &'static str;

    /// Estimated offset (nanoseconds) to add to this process's monotonic
    /// trace timestamps to land them on rank 0's timeline. In-process
    /// backends share one clock, so the default is 0; multi-process backends
    /// measure it during their handshake.
    fn clock_offset_ns(&self) -> i64 {
        0
    }

    /// Queue `frame` for delivery to `dst`. Returns the wire bytes charged
    /// (real for byte streams, the estimate for typed frames).
    ///
    /// `dst` must differ from [`Transport::rank`]; self-sends are handled
    /// above this layer by keeping the value.
    fn send(&self, dst: usize, frame: Frame) -> Result<u64, TransportError>;

    /// Block for the next frame from `src`, failing typed if the peer dies or
    /// stays silent past the backend's receive timeout.
    fn recv(&self, src: usize) -> Result<Frame, TransportError>;

    /// Restore this endpoint to a usable state after a peer failure, clearing
    /// sticky per-peer death so a collective-level retry can run.
    ///
    /// For a multi-process backend this means tearing down the broken mesh
    /// and re-running the rendezvous claiming the same rank (see
    /// [`TcpTransport::recover`](tcp::TcpTransport)); for the in-process
    /// backend it means draining frames a half-finished job left queued. The
    /// contract mirrors the collectives': every surviving rank of the job
    /// recovers before any rank starts the retry job. The default is a no-op
    /// for backends with no recoverable state.
    fn recover(&self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Block until every rank reaches this call.
    ///
    /// The default is a central barrier over empty frames (gather at rank 0,
    /// then release); backends with a cheaper primitive override it.
    fn barrier(&self) -> Result<BarrierCost, TransportError> {
        let mut cost = BarrierCost::default();
        let n = self.nranks();
        if n == 1 {
            return Ok(cost);
        }
        if self.rank() == 0 {
            for src in 1..n {
                cost.wire_recv += self.recv(src)?.wire_len();
            }
            for dst in 1..n {
                cost.wire_sent += self.send(dst, Frame::Bytes(Vec::new()))?;
                cost.frames_sent += 1;
            }
        } else {
            cost.wire_sent += self.send(0, Frame::Bytes(Vec::new()))?;
            cost.frames_sent += 1;
            cost.wire_recv += self.recv(0)?.wire_len();
        }
        Ok(cost)
    }
}
