//! Per-rank communication accounting.
//!
//! The paper repeatedly reasons about communication volume (e.g. why RandHD partitions
//! 7x faster than WDC12 on the same node count, or why RMAT weak scaling degrades).
//! Tracking how many bytes each rank hands to the collectives lets the reproduction
//! report the same quantity even though the "network" may be shared memory.
//!
//! Two levels of accounting coexist:
//!
//! * **Payload bytes** ([`CommStats::bytes_sent`]/[`bytes_received`](CommStats::bytes_received)) —
//!   the element bytes a rank hands to or receives from a collective, including its own
//!   contribution. This is the algorithmic volume the paper reasons about and is identical
//!   on every backend.
//! * **Wire traffic** ([`wire_bytes_sent`](CommStats::wire_bytes_sent), frame counts,
//!   per-collective volumes) — what actually crosses (or would cross) the transport:
//!   self-destined data is excluded, frame headers are included. Real serialized bytes on
//!   the socket backend, the codec's size estimate on the in-process backend.
//!
//! Calls, frames and wire bytes are kept once, per [`CollectiveKind`] (five kinds: the
//! collectives [`crate::RankCtx`] offers). The call and frame totals —
//! [`collectives`](CommStats::collectives), [`barriers`](CommStats::barriers),
//! [`alltoallv_calls`](CommStats::alltoallv_calls),
//! [`allreduce_calls`](CommStats::allreduce_calls), [`frames_sent`](CommStats::frames_sent)
//! — are sums or entries of that table, so a snapshot's totals always equal the sums of
//! its per-kind breakdown.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Which collective a byte count was charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Barrier synchronisation (no payload).
    Barrier,
    /// All-to-all reduction (sum/max/min or custom).
    Allreduce,
    /// Personalised all-to-all exchange (variable counts).
    Alltoallv,
    /// All-to-all gather of per-rank contributions.
    Allgather,
    /// Gather at rank 0.
    Gather,
}

impl CollectiveKind {
    /// Number of collective kinds (size of per-kind counter arrays).
    pub const COUNT: usize = 5;

    /// Every kind, in [`CollectiveKind::index`] order.
    pub const ALL: [CollectiveKind; CollectiveKind::COUNT] = [
        CollectiveKind::Barrier,
        CollectiveKind::Allreduce,
        CollectiveKind::Alltoallv,
        CollectiveKind::Allgather,
        CollectiveKind::Gather,
    ];

    /// Stable lowercase name, used as the trace span name and metric label.
    pub const fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Gather => "gather",
        }
    }

    /// Dense index for per-kind counter arrays.
    pub const fn index(self) -> usize {
        match self {
            CollectiveKind::Barrier => 0,
            CollectiveKind::Allreduce => 1,
            CollectiveKind::Alltoallv => 2,
            CollectiveKind::Allgather => 3,
            CollectiveKind::Gather => 4,
        }
    }
}

fn zeroed_counters() -> [AtomicU64; CollectiveKind::COUNT] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Monotonic counters of collective traffic issued by one rank.
///
/// Counters are updated by [`crate::RankCtx`] as collectives are issued and can be read
/// at any time; experiments usually snapshot them once per phase.
#[derive(Debug)]
pub struct CommStats {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    wire_bytes_sent: AtomicU64,
    wire_bytes_received: AtomicU64,
    per_kind_calls: [AtomicU64; CollectiveKind::COUNT],
    per_kind_frames: [AtomicU64; CollectiveKind::COUNT],
    per_kind_wire: [AtomicU64; CollectiveKind::COUNT],
}

impl Default for CommStats {
    fn default() -> Self {
        CommStats {
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            wire_bytes_sent: AtomicU64::new(0),
            wire_bytes_received: AtomicU64::new(0),
            per_kind_calls: zeroed_counters(),
            per_kind_frames: zeroed_counters(),
            per_kind_wire: zeroed_counters(),
        }
    }
}

impl CommStats {
    /// Create a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&self, bytes: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
    }

    pub(crate) fn record_recv(&self, bytes: u64) {
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
    }

    pub(crate) fn record_collective(&self, kind: CollectiveKind) {
        self.per_kind_calls[kind.index()].fetch_add(1, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
    }

    /// Charge outbound frames and their wire bytes to a collective.
    pub(crate) fn record_frames_sent(&self, kind: CollectiveKind, frames: u64, wire: u64) {
        self.wire_bytes_sent.fetch_add(wire, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
        self.per_kind_frames[kind.index()].fetch_add(frames, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
        self.per_kind_wire[kind.index()].fetch_add(wire, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
    }

    /// Current wire bytes (sent + received) charged to one collective kind.
    pub(crate) fn per_kind_wire(&self, kind: CollectiveKind) -> u64 {
        self.per_kind_wire[kind.index()].load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    fn calls(&self, kind: CollectiveKind) -> u64 {
        self.per_kind_calls[kind.index()].load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    fn frames(&self, kind: CollectiveKind) -> u64 {
        self.per_kind_frames[kind.index()].load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    /// Charge inbound wire bytes to a collective.
    pub(crate) fn record_frame_recv(&self, kind: CollectiveKind, wire: u64) {
        self.wire_bytes_received.fetch_add(wire, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
        self.per_kind_wire[kind.index()].fetch_add(wire, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
    }

    /// Total bytes this rank handed to collectives as send payload.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    /// Send-payload bytes since a previously captured [`bytes_sent`](CommStats::bytes_sent)
    /// reading. Saturating, so a counter reset between the capture and this call
    /// yields 0 instead of a debug-build panic (or a release-build wraparound) —
    /// the one shared implementation of per-phase communication accounting.
    pub fn bytes_sent_since(&self, before: u64) -> u64 {
        self.bytes_sent().saturating_sub(before)
    }

    /// Total bytes this rank received from collectives.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    /// Total number of collective operations issued (including barriers).
    pub fn collectives(&self) -> u64 {
        CollectiveKind::ALL.map(|k| self.calls(k)).iter().sum()
    }

    /// Number of barrier operations issued.
    pub fn barriers(&self) -> u64 {
        self.calls(CollectiveKind::Barrier)
    }

    /// Number of alltoallv exchanges issued.
    pub fn alltoallv_calls(&self) -> u64 {
        self.calls(CollectiveKind::Alltoallv)
    }

    /// Number of allreduce operations issued.
    pub fn allreduce_calls(&self) -> u64 {
        self.calls(CollectiveKind::Allreduce)
    }

    /// Wire bytes this rank sent over the transport (excludes self-destined
    /// data, includes frame headers on byte-stream backends).
    pub fn wire_bytes_sent(&self) -> u64 {
        self.wire_bytes_sent.load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    /// Wire bytes this rank received over the transport.
    pub fn wire_bytes_received(&self) -> u64 {
        self.wire_bytes_received.load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    /// Point-to-point frames this rank sent over the transport.
    pub fn frames_sent(&self) -> u64 {
        CollectiveKind::ALL.map(|k| self.frames(k)).iter().sum()
    }

    /// Copy the counters into a plain snapshot struct. The call and frame totals are
    /// summed from the same per-kind reads the breakdown reports, so they agree exactly.
    pub fn snapshot(&self) -> CommStatsSnapshot {
        let volume = CollectiveKind::ALL.map(|kind| CollectiveVolume {
            calls: self.calls(kind),
            frames: self.frames(kind),
            wire_bytes: self.per_kind_wire(kind),
        });
        let [barrier, allreduce, alltoallv, allgather, gather] = volume;
        CommStatsSnapshot {
            bytes_sent: self.bytes_sent(),
            bytes_received: self.bytes_received(),
            collectives: volume.iter().map(|v| v.calls).sum(),
            barriers: barrier.calls,
            alltoallv_calls: alltoallv.calls,
            allreduce_calls: allreduce.calls,
            wire_bytes_sent: self.wire_bytes_sent(),
            wire_bytes_received: self.wire_bytes_received(),
            frames_sent: volume.iter().map(|v| v.frames).sum(),
            per_collective: PerCollectiveSnapshot {
                barrier,
                allreduce,
                alltoallv,
                allgather,
                gather,
            },
        }
    }
}

/// Traffic one collective family generated on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CollectiveVolume {
    /// Times the collective was issued.
    pub calls: u64,
    /// Point-to-point frames it sent.
    pub frames: u64,
    /// Wire bytes it moved (sent + received).
    pub wire_bytes: u64,
}

impl CollectiveVolume {
    fn merged(self, other: CollectiveVolume) -> CollectiveVolume {
        CollectiveVolume {
            calls: self.calls + other.calls,
            frames: self.frames + other.frames,
            wire_bytes: self.wire_bytes + other.wire_bytes,
        }
    }
}

/// Per-collective traffic breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PerCollectiveSnapshot {
    /// Barrier traffic (release frames only; payload-free).
    pub barrier: CollectiveVolume,
    /// Allreduce traffic.
    pub allreduce: CollectiveVolume,
    /// Alltoallv traffic.
    pub alltoallv: CollectiveVolume,
    /// Allgatherv traffic.
    pub allgather: CollectiveVolume,
    /// Gather-at-rank-0 traffic.
    pub gather: CollectiveVolume,
}

impl PerCollectiveSnapshot {
    fn merged(self, other: PerCollectiveSnapshot) -> PerCollectiveSnapshot {
        PerCollectiveSnapshot {
            barrier: self.barrier.merged(other.barrier),
            allreduce: self.allreduce.merged(other.allreduce),
            alltoallv: self.alltoallv.merged(other.alltoallv),
            allgather: self.allgather.merged(other.allgather),
            gather: self.gather.merged(other.gather),
        }
    }
}

/// Plain-data snapshot of [`CommStats`], convenient for returning from rank closures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommStatsSnapshot {
    /// Total bytes handed to collectives as send payload.
    pub bytes_sent: u64,
    /// Total bytes received from collectives.
    pub bytes_received: u64,
    /// Total collective operations (including barriers).
    pub collectives: u64,
    /// Barrier count.
    pub barriers: u64,
    /// Alltoallv count.
    pub alltoallv_calls: u64,
    /// Allreduce count.
    pub allreduce_calls: u64,
    /// Wire bytes sent over the transport (real on sockets, estimated in-proc).
    pub wire_bytes_sent: u64,
    /// Wire bytes received over the transport.
    pub wire_bytes_received: u64,
    /// Point-to-point frames sent over the transport.
    pub frames_sent: u64,
    /// Traffic broken down by collective family.
    pub per_collective: PerCollectiveSnapshot,
}

impl CommStatsSnapshot {
    /// Element-wise sum of two snapshots (used to aggregate across ranks).
    pub fn merged(self, other: CommStatsSnapshot) -> CommStatsSnapshot {
        CommStatsSnapshot {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            collectives: self.collectives + other.collectives,
            barriers: self.barriers + other.barriers,
            alltoallv_calls: self.alltoallv_calls + other.alltoallv_calls,
            allreduce_calls: self.allreduce_calls + other.allreduce_calls,
            wire_bytes_sent: self.wire_bytes_sent + other.wire_bytes_sent,
            wire_bytes_received: self.wire_bytes_received + other.wire_bytes_received,
            frames_sent: self.frames_sent + other.frames_sent,
            per_collective: self.per_collective.merged(other.per_collective),
        }
    }
}
