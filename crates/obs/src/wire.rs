//! Binary encoding of drained traces for the cross-rank gather.
//!
//! Each process serialises its [`ThreadTrace`]s into one opaque byte blob
//! (applying its clock offset so timestamps land on the coordinator's
//! timeline), ships the blob over a `gather` collective as `Vec<u8>`, and
//! rank 0 decodes all blobs into [`OwnedThreadTrace`]s for export. The format
//! is versioned and length-prefixed throughout; decode is fully bounds-checked
//! so a malformed blob yields an error, never a panic.

use crate::trace::{Phase, ThreadTrace};

const MAGIC: u32 = 0x5854_5243; // "XTRC"
const VERSION: u16 = 1;

/// One decoded event. `t_ns` is signed: clock alignment can push an event
/// slightly before the coordinator's anchor.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedEvent {
    pub name: String,
    pub phase: Phase,
    pub t_ns: i64,
    pub arg: u64,
}

/// A decoded per-thread trace, with owned names.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedThreadTrace {
    pub rank: Option<u32>,
    pub thread: String,
    pub dropped: u64,
    pub events: Vec<OwnedEvent>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadMagic(u32),
    BadVersion(u16),
    BadPhase(u8),
    BadUtf8,
    BadNameIndex(u16),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace blob truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad trace blob magic {m:#010x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace blob version {v}"),
            DecodeError::BadPhase(p) => write!(f, "invalid event phase {p}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in trace blob"),
            DecodeError::BadNameIndex(i) => write!(f, "name index {i} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, as an array for the `from_le_bytes` constructors.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn i64(&mut self) -> Result<i64, DecodeError> {
        self.array().map(i64::from_le_bytes)
    }

    pub(crate) fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Serialise drained traces into one blob, shifting every timestamp by
/// `clock_offset_ns` onto the gathering rank's timeline.
pub fn encode_traces(traces: &[ThreadTrace], clock_offset_ns: i64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, MAGIC);
    put_u16(&mut out, VERSION);
    put_u32(&mut out, traces.len() as u32);
    for t in traces {
        put_i64(&mut out, t.rank.map(i64::from).unwrap_or(-1));
        put_str(&mut out, &t.thread);
        put_u64(&mut out, t.dropped);
        // Per-thread string table: spans reuse a handful of static names, so
        // events store a u16 index instead of repeating the string.
        let mut names: Vec<&'static str> = Vec::new();
        for ev in &t.events {
            if !names.contains(&ev.name) {
                names.push(ev.name);
            }
        }
        put_u32(&mut out, names.len() as u32);
        for n in &names {
            put_str(&mut out, n);
        }
        put_u32(&mut out, t.events.len() as u32);
        for ev in &t.events {
            let idx = names.iter().position(|n| *n == ev.name).unwrap_or(0) as u16;
            put_u16(&mut out, idx);
            out.push(ev.phase as u8);
            put_i64(&mut out, (ev.t_ns as i64).saturating_add(clock_offset_ns));
            put_u64(&mut out, ev.arg);
        }
    }
    out
}

/// Decode one blob produced by [`encode_traces`]. An empty blob decodes to an
/// empty vec (ranks with nothing to contribute send zero bytes).
pub fn decode_traces(bytes: &[u8]) -> Result<Vec<OwnedThreadTrace>, DecodeError> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let nthreads = r.u32()? as usize;
    let mut out = Vec::with_capacity(nthreads.min(1024));
    for _ in 0..nthreads {
        let rank = r.i64()?;
        let thread = r.str()?;
        let dropped = r.u64()?;
        let nnames = r.u32()? as usize;
        let mut names = Vec::with_capacity(nnames.min(4096));
        for _ in 0..nnames {
            names.push(r.str()?);
        }
        let nevents = r.u32()? as usize;
        let mut events = Vec::with_capacity(nevents.min(1 << 20));
        for _ in 0..nevents {
            let idx = r.u16()?;
            let name = names
                .get(idx as usize)
                .cloned()
                .ok_or(DecodeError::BadNameIndex(idx))?;
            let phase = r.u8()?;
            let phase = Phase::from_u8(phase).ok_or(DecodeError::BadPhase(phase))?;
            let t_ns = r.i64()?;
            let arg = r.u64()?;
            events.push(OwnedEvent {
                name,
                phase,
                t_ns,
                arg,
            });
        }
        out.push(OwnedThreadTrace {
            rank: u32::try_from(rank).ok(),
            thread,
            dropped,
            events,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn sample() -> Vec<ThreadTrace> {
        vec![
            ThreadTrace {
                rank: Some(2),
                thread: "xtrapulp-rank-2".into(),
                dropped: 1,
                events: vec![
                    TraceEvent {
                        name: "barrier",
                        phase: Phase::Begin,
                        t_ns: 100,
                        arg: 0,
                    },
                    TraceEvent {
                        name: "barrier",
                        phase: Phase::End,
                        t_ns: 250,
                        arg: 64,
                    },
                    TraceEvent {
                        name: "mark",
                        phase: Phase::Instant,
                        t_ns: 300,
                        arg: 7,
                    },
                ],
            },
            ThreadTrace {
                rank: None,
                thread: "serve-worker".into(),
                dropped: 0,
                events: vec![TraceEvent {
                    name: "publish",
                    phase: Phase::Begin,
                    t_ns: 10,
                    arg: 0,
                }],
            },
        ]
    }

    #[test]
    fn roundtrip_with_offset() {
        let blob = encode_traces(&sample(), -40);
        let decoded = decode_traces(&blob).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].rank, Some(2));
        assert_eq!(decoded[0].dropped, 1);
        assert_eq!(decoded[0].events.len(), 3);
        assert_eq!(decoded[0].events[0].name, "barrier");
        assert_eq!(decoded[0].events[0].t_ns, 60); // 100 - 40
        assert_eq!(decoded[0].events[1].arg, 64);
        assert_eq!(decoded[1].rank, None);
        assert_eq!(decoded[1].events[0].t_ns, -30); // offset can go negative
    }

    #[test]
    fn empty_blob_is_empty_trace() {
        assert_eq!(decode_traces(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn malformed_blobs_error_not_panic() {
        let blob = encode_traces(&sample(), 0);
        assert_eq!(decode_traces(&blob[..3]), Err(DecodeError::Truncated));
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_traces(&bad), Err(DecodeError::BadMagic(_))));
        let mut badver = blob.clone();
        badver[4] = 0xee;
        assert!(matches!(
            decode_traces(&badver),
            Err(DecodeError::BadVersion(_))
        ));
        // Truncate mid-events.
        assert_eq!(
            decode_traces(&blob[..blob.len() - 5]),
            Err(DecodeError::Truncated)
        );
    }
}
