//! Lock-free-gated tracing: per-thread ring buffers of span and instant
//! events with monotonic-nanosecond timestamps.
//!
//! The hot path is gated on one relaxed atomic load ([`enabled`]): when
//! tracing is off, [`span`] constructs an inert guard and touches nothing
//! else. When tracing is on, events go into a fixed-capacity per-thread ring
//! buffer (an uncontended per-thread lock guards each ring only against the
//! drainer; the owning thread never contends with other recorders). Full
//! rings overwrite their oldest events and count the drops.
//!
//! Buffers register themselves in a process-global registry on first use;
//! [`drain`] empties every buffer in the process, which is how the cross-rank
//! trace gather collects a process's events at job end.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Events each thread can hold before wrapping (32 B/event → 512 KiB).
pub const RING_CAPACITY: usize = 16 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn tracing on or off process-wide. Spans already open keep their guard
/// and still record their end event, so B/E pairs stay balanced.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed); // ordering: advisory gate; in-flight span sites may see the old value for one event
}

/// The one relaxed load every instrumentation site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) // ordering: hot-path gate (~2.3ns); correctness never depends on observing a toggle promptly
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process's trace anchor. The anchor is
/// pinned on first use; cross-process alignment adds a per-transport clock
/// offset at export time.
#[inline]
pub fn now_ns() -> u64 {
    u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Event phase, mirroring the chrome://tracing phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Begin = 0,
    End = 1,
    Instant = 2,
}

impl Phase {
    pub fn from_u8(v: u8) -> Option<Phase> {
        match v {
            0 => Some(Phase::Begin),
            1 => Some(Phase::End),
            2 => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// One recorded event. `name` is static so recording never allocates.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub name: &'static str,
    pub phase: Phase,
    pub t_ns: u64,
    pub arg: u64,
}

pub(crate) struct Ring {
    events: Vec<TraceEvent>,
    head: usize,
    len: usize,
    dropped: u64,
    capacity: usize,
}

impl Ring {
    pub(crate) fn new(capacity: usize) -> Ring {
        Ring {
            events: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            dropped: 0,
            capacity,
        }
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
            self.len += 1;
            return;
        }
        // Full: overwrite the oldest slot. The per-ring `dropped` count
        // resets on every drain, so the cumulative registry counter is what
        // a scrape watches to see the tracer losing spans.
        self.events[self.head] = ev;
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
        ring_dropped_counter().inc();
    }

    /// Remove and return all events, oldest first.
    pub(crate) fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        let dropped = self.dropped;
        self.events.clear();
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        (out, dropped)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Cumulative count of trace events lost to ring overwrites, process-wide.
fn ring_dropped_counter() -> &'static crate::registry::Counter {
    static C: OnceLock<crate::registry::Counter> = OnceLock::new();
    C.get_or_init(|| crate::registry::counter("trace_ring_dropped_total"))
}

struct ThreadBuffer {
    thread: String,
    rank: AtomicI64, // -1 = unranked
    ring: Mutex<Ring>,
}

static REGISTRY: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<ThreadBuffer>> = const { std::cell::OnceCell::new() };
}

fn local_buffer<R>(f: impl FnOnce(&ThreadBuffer) -> R) -> R {
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
            let buf = Arc::new(ThreadBuffer {
                thread: name,
                rank: AtomicI64::new(-1),
                ring: Mutex::new(Ring::new(RING_CAPACITY)),
            });
            REGISTRY.lock().push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

/// Label the current thread with a rank; its events export under that rank's
/// process lane. Rank worker threads call this once at thread start. The
/// flight recorder's per-thread rank label is set here too, so one call
/// covers both planes.
pub fn set_thread_rank(rank: usize) {
    local_buffer(|b| b.rank.store(rank as i64, Ordering::Relaxed)); // ordering: label written by owner thread; drain reads it after the registry mutex
    crate::flight::set_thread_rank(rank);
}

/// Total resident cost of every registered per-thread trace ring, for
/// memory accounting.
pub fn rings_bytes() -> u64 {
    let buffers = REGISTRY.lock().len() as u64;
    buffers * (RING_CAPACITY * std::mem::size_of::<TraceEvent>()) as u64
}

#[inline]
fn record(name: &'static str, phase: Phase, arg: u64) {
    let ev = TraceEvent {
        name,
        phase,
        t_ns: now_ns(),
        arg,
    };
    local_buffer(|b| b.ring.lock().push(ev));
}

/// RAII span guard: records a begin event at creation (when tracing is
/// enabled) and the matching end event on drop. An inert guard costs nothing.
pub struct Span {
    name: &'static str,
    arg: u64,
    armed: bool,
}

impl Span {
    /// Attach a numeric payload (e.g. wire bytes, vertices scored) to the
    /// span's end event.
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        if self.armed {
            self.arg = arg;
        }
    }

    /// Whether this guard is actually recording (tracing was enabled at
    /// creation time).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record(self.name, Phase::End, self.arg);
        }
    }
}

/// Open a span. One relaxed atomic load when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            arg: 0,
            armed: false,
        };
    }
    record(name, Phase::Begin, 0);
    Span {
        name,
        arg: 0,
        armed: true,
    }
}

/// Open a span with a numeric payload known up front (recorded on both ends).
#[inline]
pub fn span_with(name: &'static str, arg: u64) -> Span {
    if !enabled() {
        return Span {
            name,
            arg: 0,
            armed: false,
        };
    }
    record(name, Phase::Begin, arg);
    Span {
        name,
        arg,
        armed: true,
    }
}

/// Record a point-in-time event.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    record(name, Phase::Instant, arg);
}

/// Everything one thread recorded, drained out of its ring buffer.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    pub rank: Option<u32>,
    pub thread: String,
    pub dropped: u64,
    pub events: Vec<TraceEvent>,
}

/// Drain every thread buffer in the process. Buffers stay registered and
/// keep recording; only their current contents move out. Threads with no
/// events since the last drain are omitted.
pub fn drain() -> Vec<ThreadTrace> {
    let bufs: Vec<Arc<ThreadBuffer>> = REGISTRY.lock().clone();
    let mut out = Vec::new();
    for buf in bufs {
        let (events, dropped) = buf.ring.lock().take();
        if events.is_empty() && dropped == 0 {
            continue;
        }
        let rank = buf.rank.load(Ordering::Relaxed); // ordering: label read under the registry mutex that ordered the store
        out.push(ThreadTrace {
            rank: u32::try_from(rank).ok(),
            thread: buf.thread.clone(),
            dropped,
            events,
        });
    }
    out
}

/// Open a span guard; sugar for [`trace::span`](span) that keeps call sites
/// short: `let _s = xtrapulp_obs::span!("publish");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $arg:expr) => {
        $crate::trace::span_with($name, $arg as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests below toggle the process-global ENABLED flag; serialise them so
    // cargo's concurrent test threads don't interleave enable/disable.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut r = Ring::new(4);
        for i in 0..7u64 {
            r.push(TraceEvent {
                name: "e",
                phase: Phase::Instant,
                t_ns: i,
                arg: i,
            });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 3);
        let (evs, dropped) = r.take();
        assert_eq!(dropped, 3);
        // Oldest three were overwritten; survivors are 3..7 oldest-first.
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![3, 4, 5, 6]);
        // After take the ring restarts empty.
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _g = flag_lock();
        set_enabled(false);
        // Run in a dedicated thread so this thread's buffer (if any) is fresh
        // and unaffected by other tests.
        std::thread::spawn(|| {
            {
                let mut s = span("noop");
                s.set_arg(42);
                assert!(!s.is_armed());
            }
            instant("noop", 1);
            // No buffer was ever created for this thread, so nothing to drain
            // from it: record() was never called.
            LOCAL.with(|cell| assert!(cell.get().is_none()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn span_guard_balances_begin_end() {
        let _g = flag_lock();
        std::thread::spawn(|| {
            set_enabled(true);
            {
                let mut s = span("outer");
                s.set_arg(7);
                let _inner = span_with("inner", 3);
            }
            instant("mark", 9);
            set_enabled(false);
            let traces = drain();
            let mine: Vec<&ThreadTrace> = traces
                .iter()
                .filter(|t| t.events.iter().any(|e| e.name == "outer"))
                .collect();
            assert_eq!(mine.len(), 1);
            let evs = &mine[0].events;
            let begins = evs.iter().filter(|e| e.phase == Phase::Begin).count();
            let ends = evs.iter().filter(|e| e.phase == Phase::End).count();
            assert_eq!(begins, 2);
            assert_eq!(ends, 2);
            let outer_end = evs
                .iter()
                .find(|e| e.name == "outer" && e.phase == Phase::End)
                .unwrap();
            assert_eq!(outer_end.arg, 7);
            // Inner span closes before outer (guard drop order).
            let inner_end_at = evs
                .iter()
                .position(|e| e.name == "inner" && e.phase == Phase::End)
                .unwrap();
            let outer_end_at = evs
                .iter()
                .position(|e| e.name == "outer" && e.phase == Phase::End)
                .unwrap();
            assert!(inner_end_at < outer_end_at);
            assert!(evs
                .iter()
                .any(|e| e.name == "mark" && e.phase == Phase::Instant));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let _g = flag_lock();
        std::thread::spawn(|| {
            set_enabled(true);
            for _ in 0..100 {
                let _s = span("tick");
            }
            set_enabled(false);
            let traces = drain();
            let mine = traces
                .iter()
                .find(|t| t.events.iter().any(|e| e.name == "tick"))
                .unwrap();
            let mut last = 0u64;
            for e in &mine.events {
                assert!(e.t_ns >= last);
                last = e.t_ns;
            }
        })
        .join()
        .unwrap();
    }
}
