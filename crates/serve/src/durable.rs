//! Crash-recoverable serving state: a write-ahead log of accepted update batches
//! with epoch markers, plus atomic checkpoints of the published part vector.
//!
//! The durability contract is *process*-crash recovery for the serving pipeline:
//! the engine appends every batch to the WAL **before** applying it (so a batch
//! the dynamic subsystem would reject is re-rejected identically on replay), and
//! appends an [`WalRecord::EpochMark`] after each successful repartition. Every
//! `checkpoint_every_epochs` epochs the full part vector is checkpointed with a
//! temp-file + atomic-rename write, checksummed, and named by its epoch
//! (`ckpt-<epoch>`), so recovery loads the newest checkpoint that validates —
//! falling back past corrupted ones — and replays only the WAL tail.
//!
//! ## On-disk formats
//!
//! WAL (`serve.wal`), a framed record stream:
//!
//! ```text
//! [u32 len] [u8 kind] [payload; len-1 bytes] [u64 fnv1a-64 of kind+payload]
//! ```
//!
//! * kind 1 (batch): `u32` op count, then per op a tag byte (0 = add-vertices,
//!   1 = insert-edge, 2 = delete-edge) and two `u64` operands.
//! * kind 2 (epoch mark): the `u64` epoch the preceding batches repartitioned to.
//!
//! A torn tail — a record cut short by a crash, or one whose checksum fails — is
//! detected on open and physically truncated, so the writer resumes at the last
//! durable record.
//!
//! Checkpoint (`ckpt-<epoch>`):
//!
//! ```text
//! [u32 magic "XPCK"] [u16 version] [u64 epoch] [u64 wal_records]
//! [u64 num_parts] [i32 parts ...] [u64 fnv1a-64 of everything prior]
//! ```
//!
//! `wal_records` is the WAL position (record count) the checkpoint covers:
//! recovery fast-forwards the topology through records `[0, wal_records)`
//! without repartitioning, seeds the checkpointed parts, then replays the tail.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use xtrapulp_graph::UpdateOp;
use xtrapulp_obs::registry::Counter;

use crate::UpdateBatch;

/// File name of the write-ahead log inside a durable directory.
pub const WAL_FILE: &str = "serve.wal";

const WAL_KIND_BATCH: u8 = 1;
const WAL_KIND_EPOCH_MARK: u8 = 2;
/// Frame header (u32 len) + trailing checksum (u64).
const WAL_OVERHEAD: usize = 4 + 8;
/// "XPCK" little-endian.
const CKPT_MAGIC: u32 = 0x4B43_5058;
const CKPT_VERSION: u16 = 1;

fn wal_records_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| xtrapulp_obs::registry::counter("serve_wal_records_total"))
}

fn checkpoint_bytes_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| xtrapulp_obs::registry::counter("serve_checkpoint_bytes_total"))
}

fn checkpoint_write_histogram() -> &'static std::sync::Arc<xtrapulp_obs::Histogram> {
    static H: OnceLock<std::sync::Arc<xtrapulp_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| xtrapulp_obs::registry::histogram("serve_checkpoint_write_nanos"))
}

/// The `N` bytes of `bytes` at `at`, or `None` past its end.
fn le<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// FNV-1a 64-bit, the integrity checksum of WAL records and checkpoints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Configuration of the serving layer's durable state.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding the WAL, the checkpoints and the persisted base graph.
    pub dir: PathBuf,
    /// Checkpoint the part vector every this many published epochs (minimum 1).
    pub checkpoint_every_epochs: u64,
    /// Fault injection: panic the serve worker once this many WAL records have
    /// been appended, leaving the log ahead of the applied state — the seeded
    /// mid-epoch kill the crash-recovery tests exercise. `None` in production.
    pub crash_after_wal_records: Option<u64>,
}

impl DurableConfig {
    /// Durability under `dir` with the default checkpoint cadence (8 epochs).
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            checkpoint_every_epochs: 8,
            crash_after_wal_records: None,
        }
    }

    /// Replace the checkpoint cadence.
    pub fn checkpoint_every(mut self, epochs: u64) -> DurableConfig {
        self.checkpoint_every_epochs = epochs.max(1);
        self
    }

    /// Arm the injected crash after `records` WAL appends.
    pub fn crash_after_wal_records(mut self, records: u64) -> DurableConfig {
        self.crash_after_wal_records = Some(records);
        self
    }
}

/// One durable WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An update batch accepted into the pipeline (logged before it is applied).
    Batch(UpdateBatch),
    /// The batches since the previous mark were repartitioned into this epoch.
    EpochMark {
        /// The graph epoch the repartition published.
        epoch: u64,
    },
}

impl WalRecord {
    fn encode_body(&self) -> Vec<u8> {
        match self {
            WalRecord::Batch(batch) => {
                let ops = batch.ops();
                let mut body = Vec::with_capacity(1 + 4 + ops.len() * 17);
                body.push(WAL_KIND_BATCH);
                body.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for op in ops {
                    let (tag, a, b): (u8, u64, u64) = match *op {
                        UpdateOp::AddVertices(c) => (0, c, 0),
                        UpdateOp::InsertEdge(u, v) => (1, u, v),
                        UpdateOp::DeleteEdge(u, v) => (2, u, v),
                    };
                    body.push(tag);
                    body.extend_from_slice(&a.to_le_bytes());
                    body.extend_from_slice(&b.to_le_bytes());
                }
                body
            }
            WalRecord::EpochMark { epoch } => {
                let mut body = Vec::with_capacity(9);
                body.push(WAL_KIND_EPOCH_MARK);
                body.extend_from_slice(&epoch.to_le_bytes());
                body
            }
        }
    }

    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let (&kind, payload) = body.split_first()?;
        match kind {
            WAL_KIND_BATCH => {
                let n = u32::from_le_bytes(le(payload, 0)?) as usize;
                let rest = payload.get(4..)?;
                if rest.len() != n * 17 {
                    return None;
                }
                let mut batch = UpdateBatch::new();
                for rec in rest.chunks_exact(17) {
                    let a = u64::from_le_bytes(le(rec, 1)?);
                    let b = u64::from_le_bytes(le(rec, 9)?);
                    batch.push(match rec[0] {
                        0 => UpdateOp::AddVertices(a),
                        1 => UpdateOp::InsertEdge(a, b),
                        2 => UpdateOp::DeleteEdge(a, b),
                        _ => return None,
                    });
                }
                Some(WalRecord::Batch(batch))
            }
            WAL_KIND_EPOCH_MARK => Some(WalRecord::EpochMark {
                epoch: u64::from_le_bytes(payload.try_into().ok()?),
            }),
            _ => None,
        }
    }
}

/// Parse every valid record prefix of a WAL byte buffer. Returns the records
/// and the byte length of the valid prefix; everything past it is a torn tail.
fn parse_wal(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some((record, end)) = parse_frame(bytes, pos) {
        records.push(record);
        pos = end;
    }
    (records, pos as u64)
}

/// The WAL frame starting at `pos` and the offset just past it, or `None` where the
/// valid prefix ends: a frame cut short, an empty body, a failed checksum or a body
/// that does not decode.
fn parse_frame(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let len = u32::from_le_bytes(le(bytes, pos)?) as usize;
    let (start, sum_at) = (pos + 4, pos + 4 + len);
    let body = bytes.get(start..sum_at).filter(|body| !body.is_empty())?;
    if fnv1a64(body) != u64::from_le_bytes(le(bytes, sum_at)?) {
        return None;
    }
    Some((WalRecord::decode_body(body)?, sum_at + 8))
}

/// The append handle of a serving WAL.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    records: u64,
    bytes: u64,
}

impl WalWriter {
    /// Create a fresh (empty) WAL at `path`, truncating any existing one.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        let file = File::create(path)?;
        Ok(WalWriter {
            file,
            records: 0,
            bytes: 0,
        })
    }

    /// Open an existing WAL (creating it when absent), validate it, truncate
    /// any torn tail, and return the writer positioned after the last durable
    /// record together with the records that survived.
    pub fn open(path: &Path) -> io::Result<(WalWriter, Vec<WalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = parse_wal(&bytes);
        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let writer = WalWriter {
            file,
            records: records.len() as u64,
            bytes: valid_len,
        };
        Ok((writer, records))
    }

    /// Records durably appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Durable bytes of the log (the valid prefix at open plus every frame
    /// appended since). Feeds the `mem_bytes{subsystem="durable_wal"}` gauge.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one record (framed and checksummed) and flush it.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let body = record.encode_body();
        let mut frame = Vec::with_capacity(body.len() + WAL_OVERHEAD);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        wal_records_counter().inc();
        xtrapulp_obs::mem::set("durable_wal", self.bytes);
        Ok(self.records)
    }
}

/// Read and validate a WAL without opening it for appends (the torn tail is
/// ignored, not truncated).
pub fn read_wal(path: &Path) -> io::Result<Vec<WalRecord>> {
    let bytes = fs::read(path)?;
    Ok(parse_wal(&bytes).0)
}

/// One durable checkpoint: the part vector published at `epoch`, covering the
/// first `wal_records` records of the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The graph epoch the part vector belongs to.
    pub epoch: u64,
    /// WAL position (record count) this checkpoint reflects.
    pub wal_records: u64,
    /// One part id per vertex at `epoch`'s topology.
    pub parts: Vec<i32>,
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(30 + self.parts.len() * 4 + 8);
        bytes.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.epoch.to_le_bytes());
        bytes.extend_from_slice(&self.wal_records.to_le_bytes());
        bytes.extend_from_slice(&(self.parts.len() as u64).to_le_bytes());
        for &p in &self.parts {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        if bytes.len() < 30 + 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if fnv1a64(body) != u64::from_le_bytes(le(tail, 0)?) {
            return None;
        }
        if u32::from_le_bytes(le(body, 0)?) != CKPT_MAGIC
            || u16::from_le_bytes(le(body, 4)?) != CKPT_VERSION
        {
            return None;
        }
        let epoch = u64::from_le_bytes(le(body, 6)?);
        let wal_records = u64::from_le_bytes(le(body, 14)?);
        let n = u64::from_le_bytes(le(body, 22)?);
        let parts_bytes = body.get(30..)?;
        if parts_bytes.len() as u64 != n.checked_mul(4)? {
            return None;
        }
        let parts = parts_bytes
            .chunks_exact(4)
            .map(|c| le(c, 0).map(i32::from_le_bytes))
            .collect::<Option<_>>()?;
        Some(Checkpoint {
            epoch,
            wal_records,
            parts,
        })
    }
}

/// Write `ckpt` atomically under `dir` as `ckpt-<epoch>`: the bytes land in a
/// temp file first and the final name appears only via `rename`, so a crash
/// mid-write can never leave a half-written file under a checkpoint name.
/// Returns the final path and records the checkpoint size/latency metrics.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    let started = Instant::now();
    let bytes = ckpt.encode();
    let path = dir.join(format!("ckpt-{}", ckpt.epoch));
    let tmp = dir.join(format!("ckpt-{}.tmp", ckpt.epoch));
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, &path)?;
    checkpoint_bytes_counter().add(bytes.len() as u64);
    checkpoint_write_histogram().record_duration(started.elapsed());
    // The accounted gauge is the *total* on-disk checkpoint footprint, so the
    // soak harness can bound it even when old checkpoints are retained.
    let mut total = 0u64;
    for entry in fs::read_dir(dir)?.flatten() {
        let is_ckpt = entry
            .file_name()
            .to_str()
            .is_some_and(|name| name.starts_with("ckpt-") && !name.ends_with(".tmp"));
        if is_ckpt {
            total += entry.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    xtrapulp_obs::mem::set("durable_checkpoints", total);
    Ok(path)
}

/// Load the newest checkpoint under `dir` that validates (magic, version,
/// checksum) *and* whose WAL position is within `max_wal_records` — corrupted
/// or impossible checkpoints are skipped, falling back to older ones. Returns
/// `None` when no checkpoint survives.
pub fn load_newest_checkpoint(dir: &Path, max_wal_records: u64) -> io::Result<Option<Checkpoint>> {
    let mut epochs: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(epoch) = entry
            .file_name()
            .to_str()
            .and_then(|name| name.strip_prefix("ckpt-"))
            .and_then(|rest| rest.parse::<u64>().ok())
        {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    for epoch in epochs {
        let Ok(bytes) = fs::read(dir.join(format!("ckpt-{epoch}"))) else {
            continue;
        };
        match Checkpoint::decode(&bytes) {
            Some(ckpt) if ckpt.epoch == epoch && ckpt.wal_records <= max_wal_records => {
                return Ok(Some(ckpt));
            }
            _ => continue,
        }
    }
    Ok(None)
}

/// The injected crash of [`DurableConfig::crash_after_wal_records`]: panic the
/// calling (worker) thread once the WAL has reached `records` appends. The
/// panic is contained by the serve pipeline (surfacing as
/// [`ServeError::WorkerPanicked`](crate::ServeError::WorkerPanicked)) and
/// leaves the WAL strictly ahead of the applied state.
pub fn maybe_inject_crash(config_crash_after: Option<u64>, wal_records: u64) {
    if let Some(after) = config_crash_after {
        if wal_records >= after {
            panic!("injected durability crash after {wal_records} WAL records");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xtrapulp-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(ops: usize) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.add_vertices(1);
        for i in 0..ops {
            b.insert_edge(i as u64, (i + 1) as u64);
        }
        b
    }

    #[test]
    fn wal_round_trips_batches_and_marks() {
        let dir = tmp_dir("wal-roundtrip");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        w.append(&WalRecord::Batch(batch(3))).unwrap();
        w.append(&WalRecord::EpochMark { epoch: 1 }).unwrap();
        w.append(&WalRecord::Batch(batch(0))).unwrap();
        assert_eq!(w.records(), 3);
        drop(w);
        let records = read_wal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], WalRecord::Batch(batch(3)));
        assert_eq!(records[1], WalRecord::EpochMark { epoch: 1 });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_open() {
        let dir = tmp_dir("wal-torn");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        w.append(&WalRecord::Batch(batch(2))).unwrap();
        w.append(&WalRecord::EpochMark { epoch: 1 }).unwrap();
        drop(w);
        let full_len = fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a third record cut off after its header.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&40u32.to_le_bytes());
        bytes.extend_from_slice(&[WAL_KIND_BATCH, 9, 9, 9]);
        fs::write(&path, &bytes).unwrap();
        // The reader ignores the tail; open truncates it and appends cleanly.
        assert_eq!(read_wal(&path).unwrap().len(), 2);
        let (mut w, records) = WalWriter::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(fs::metadata(&path).unwrap().len(), full_len);
        w.append(&WalRecord::EpochMark { epoch: 2 }).unwrap();
        assert_eq!(w.records(), 3);
        drop(w);
        assert_eq!(read_wal(&path).unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_stops_the_replay_at_the_last_valid_prefix() {
        let dir = tmp_dir("wal-corrupt");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        w.append(&WalRecord::EpochMark { epoch: 1 }).unwrap();
        w.append(&WalRecord::EpochMark { epoch: 2 }).unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the second record: its checksum now fails.
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let records = read_wal(&path).unwrap();
        assert_eq!(records, vec![WalRecord::EpochMark { epoch: 1 }]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hostile bytes never panic the decoders: every truncation and every single-byte
    /// corruption of a three-record WAL parses to a prefix of the written records, and
    /// every truncation of a checkpoint is rejected.
    #[test]
    fn hostile_bytes_decode_to_a_prefix_or_nothing() {
        let dir = tmp_dir("wal-hostile");
        let path = dir.join(WAL_FILE);
        let written = [
            WalRecord::Batch(batch(2)),
            WalRecord::EpochMark { epoch: 1 },
            WalRecord::Batch(batch(1)),
        ];
        let mut w = WalWriter::create(&path).unwrap();
        for record in &written {
            w.append(record).unwrap();
        }
        drop(w);
        let wal = fs::read(&path).unwrap();
        assert_eq!(parse_wal(&wal), (written.to_vec(), wal.len() as u64));
        let parses_to_a_prefix = |bytes: &[u8]| {
            let (records, valid_len) = parse_wal(bytes);
            written.starts_with(&records) && valid_len <= bytes.len() as u64
        };
        for cut in 0..wal.len() {
            assert!(parses_to_a_prefix(&wal[..cut]), "cut to {cut} bytes");
        }
        for at in 0..wal.len() {
            for mask in 1..=u8::MAX {
                let mut corrupt = wal.clone();
                corrupt[at] ^= mask;
                assert!(parses_to_a_prefix(&corrupt), "byte {at} xor {mask:#04x}");
            }
        }
        let ckpt = Checkpoint {
            epoch: 9,
            wal_records: 3,
            parts: vec![3, 0, 2, 1],
        }
        .encode();
        assert!(Checkpoint::decode(&ckpt).is_some());
        for cut in 0..ckpt.len() {
            assert_eq!(Checkpoint::decode(&ckpt[..cut]), None, "cut to {cut} bytes");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_round_trip_and_newest_valid_wins() {
        let dir = tmp_dir("ckpt");
        let older = Checkpoint {
            epoch: 2,
            wal_records: 4,
            parts: vec![0, 1, 0, 1],
        };
        let newer = Checkpoint {
            epoch: 5,
            wal_records: 10,
            parts: vec![1, 1, 0, 0, 1],
        };
        write_checkpoint(&dir, &older).unwrap();
        write_checkpoint(&dir, &newer).unwrap();
        assert_eq!(
            load_newest_checkpoint(&dir, u64::MAX).unwrap(),
            Some(newer.clone())
        );
        // A checkpoint ahead of the (truncated) WAL is impossible: fall back.
        assert_eq!(
            load_newest_checkpoint(&dir, 9).unwrap(),
            Some(older.clone())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checkpoints_fall_back_to_older_valid_ones() {
        let dir = tmp_dir("ckpt-corrupt");
        let good = Checkpoint {
            epoch: 3,
            wal_records: 6,
            parts: vec![2, 0, 1],
        };
        write_checkpoint(&dir, &good).unwrap();
        let bad = Checkpoint {
            epoch: 7,
            wal_records: 14,
            parts: vec![0, 0, 0, 1],
        };
        let bad_path = write_checkpoint(&dir, &bad).unwrap();
        let mut bytes = fs::read(&bad_path).unwrap();
        bytes[31] ^= 0x55; // corrupt a part id; the checksum no longer matches
        fs::write(&bad_path, &bytes).unwrap();
        assert_eq!(load_newest_checkpoint(&dir, u64::MAX).unwrap(), Some(good));
        // With every checkpoint corrupted, recovery reports none at all.
        let good_path = dir.join("ckpt-3");
        let mut bytes = fs::read(&good_path).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&good_path, &bytes).unwrap();
        assert_eq!(load_newest_checkpoint(&dir, u64::MAX).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_panics_at_the_configured_record() {
        maybe_inject_crash(None, 100);
        maybe_inject_crash(Some(5), 4);
        let err = std::panic::catch_unwind(|| maybe_inject_crash(Some(5), 5))
            .expect_err("crash must fire");
        let detail = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(detail.contains("injected durability crash"), "{detail}");
    }
}
