//! Crash-recoverable serving state, owned by one [`Journal`]: the persisted base
//! graph, a write-ahead log of accepted update batches with epoch marks, and atomic
//! checkpoints of the published part vector.
//!
//! The journal alone knows the write-ahead order. [`Journal::log_batch`] appends a
//! batch **before** the engine applies it, so a batch the dynamic subsystem rejects
//! re-rejects identically on replay; after each repartition [`Journal::mark_epoch`]
//! appends a [`WalRecord::EpochMark`] and checkpoints the part vector at the
//! configured cadence. [`Journal::open`] hands recovery the base, the newest
//! checkpoint that validates (falling back past corrupted ones) and the WAL. Replay
//! is exact because a partition is deterministic in (graph, job, rank count).
//!
//! ## The durable directory
//!
//! ```text
//! base.bel    base graph edges (binary edge list)
//! base.meta   base vertex count, decimal (an edge list loses isolated tail vertices)
//! serve.wal   the write-ahead log
//! ckpt-<e>    checkpoint of graph epoch <e>
//! ```
//!
//! Every file but the WAL is written under a temp name (`base.bel.partial`,
//! `base.meta.partial`, `ckpt-<e>.tmp`) and renamed into place, so a crash never
//! leaves a half-written file under a final name. [`Journal::create`] removes them
//! all, temp names included.
//!
//! ## On-disk formats
//!
//! `base.bel` is `xtrapulp_graph::io`'s edge list. The WAL and the checkpoints are,
//! like it, little-endian records of the comm layer's wire codec (`WireElem`), and
//! decode through it.
//!
//! WAL (`serve.wal`), a framed record stream:
//!
//! ```text
//! [u32 len] [u8 kind] [payload; len-1 bytes] [u64 fnv1a-64 of kind+payload]
//! ```
//!
//! * kind 1 (batch): `u32` op count, then per op its [`UpdateOp::record`]: a tag
//!   byte (0 = add-vertices, 1 = insert-edge, 2 = delete-edge) and two `u64`
//!   operands.
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

use xtrapulp::PartitionError;
use xtrapulp_comm::{WireElem, WireMessage};
use xtrapulp_graph::io::{read_edge_list, write_edge_list};
use xtrapulp_graph::{csr_from_edges, Csr, UpdateOp};
use xtrapulp_obs::registry::Counter;

use crate::UpdateBatch;

const WAL_FILE: &str = "serve.wal";

const WAL_KIND_BATCH: u8 = 1;
const WAL_KIND_EPOCH_MARK: u8 = 2;
/// Frame header (u32 len) + trailing checksum (u64).
const WAL_OVERHEAD: usize = 4 + 8;
/// "XPCK" little-endian.
const CKPT_MAGIC: u32 = 0x4B43_5058;
const CKPT_VERSION: u16 = 1;

/// One op of a WAL batch: its [`UpdateOp::record`].
type OpRecord = (u8, (u64, u64));
/// A checkpoint's header: magic and version, then epoch, WAL position and part count.
type CkptHeader = ((u32, u16), (u64, u64, u64));

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

/// The `H` the wire codec decodes from the front of `bytes`, and the bytes after it;
/// `None` when `bytes` is shorter than an `H`.
fn split_header<H: WireElem + WireMessage>(bytes: &[u8]) -> Option<(H, &[u8])> {
    let (head, rest) = bytes.split_at_checked(H::SIZE)?;
    Some((H::decode(head).ok()?, rest))
}

/// FNV-1a 64-bit, the integrity checksum of WAL records and checkpoints.
fn fnv1a64(bytes: &[u8]) -> u64 {
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
    /// Checkpoint the part vector once the graph epoch has advanced this many past
    /// the previous checkpoint (minimum 1). Graph epochs count applied batches, not
    /// publishes: a publish that groups several batches advances several epochs, so
    /// with batch grouping a checkpoint can land on every publish.
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

/// Why creating, opening or recovering a durable serving job failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// Reading or writing the durable directory failed.
    Io(io::Error),
    /// A (re)partition run during spawn or recovery replay failed.
    Partition(PartitionError),
    /// The durable state is internally inconsistent (e.g. a checkpoint that
    /// does not match the topology the WAL reproduces).
    Corrupt {
        /// What was inconsistent.
        detail: String,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durable state I/O failed: {e}"),
            DurabilityError::Partition(e) => write!(f, "partition during recovery failed: {e}"),
            DurabilityError::Corrupt { detail } => {
                write!(f, "durable state is inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Partition(e) => Some(e),
            DurabilityError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<PartitionError> for DurabilityError {
    fn from(e: PartitionError) -> Self {
        DurabilityError::Partition(e)
    }
}

/// The durable directory of one serving job and its write-ahead policy: the open
/// WAL, the checkpoint cadence and the injected crash. Once serving starts it lives
/// on the serve worker with the engine, so its per-epoch writes stay off the
/// serving path.
#[derive(Debug)]
pub struct Journal {
    wal: WalWriter,
    config: DurableConfig,
    last_checkpoint_epoch: u64,
}

impl Journal {
    /// Start a fresh job under `config.dir`: remove every file a previous job left
    /// there, persist `base`, create the WAL and checkpoint `parts` as `epoch`
    /// (covering the empty WAL, so recovering an untouched job replays nothing).
    pub fn create(
        config: &DurableConfig,
        base: &Csr,
        epoch: u64,
        parts: &[i32],
    ) -> io::Result<Journal> {
        let dir = &config.dir;
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_str().unwrap_or_default();
            if name == WAL_FILE || name.starts_with("ckpt-") || name.starts_with("base.") {
                fs::remove_file(dir.join(name))?;
            }
        }
        let edges: Vec<_> = base.edges().collect();
        write_edge_list(&dir.join("base.bel.partial"), &edges)?;
        fs::rename(dir.join("base.bel.partial"), dir.join("base.bel"))?;
        let meta = format!("{}\n", base.num_vertices());
        fs::write(dir.join("base.meta.partial"), meta)?;
        fs::rename(dir.join("base.meta.partial"), dir.join("base.meta"))?;
        let mut journal = Journal {
            wal: WalWriter::create(&dir.join(WAL_FILE))?,
            config: config.clone(),
            last_checkpoint_epoch: epoch,
        };
        journal.checkpoint(epoch, parts)?;
        Ok(journal)
    }

    /// Open the job under `config.dir` for recovery: load the base graph, truncate
    /// a torn WAL tail, and return the base, the newest checkpoint that validates
    /// and lies within the WAL, and every durable WAL record in append order. The
    /// caller replays the records and then calls [`resume`](Journal::resume).
    pub fn open(
        config: &DurableConfig,
    ) -> Result<(Journal, Csr, Option<Checkpoint>, Vec<WalRecord>), DurabilityError> {
        let dir = &config.dir;
        let corrupt = |detail: String| DurabilityError::Corrupt { detail };
        let meta = fs::read_to_string(dir.join("base.meta"))?;
        let n: u64 = meta
            .trim()
            .parse()
            .map_err(|e| corrupt(format!("base.meta does not hold a vertex count: {e}")))?;
        let edges = read_edge_list(&dir.join("base.bel"))?;
        // Building the graph would silently drop an edge with an endpoint past `n`.
        if let Some(w) = edges.iter().map(|&(u, v)| u.max(v)).find(|&w| w >= n) {
            let detail = format!("base.bel names vertex {w}; base.meta counts {n}");
            return Err(corrupt(detail));
        }
        let base = csr_from_edges(n, &edges);
        let (wal, records) = WalWriter::open(&dir.join(WAL_FILE))?;
        let checkpoint = load_newest_checkpoint(dir, records.len() as u64)?;
        let journal = Journal {
            wal,
            config: config.clone(),
            last_checkpoint_epoch: checkpoint.as_ref().map_or(0, |c| c.epoch),
        };
        Ok((journal, base, checkpoint, records))
    }

    /// Write-ahead: append `batch` before the engine applies it. Fires the injected
    /// crash once the WAL reaches [`DurableConfig::crash_after_wal_records`].
    pub fn log_batch(&mut self, batch: &UpdateBatch) -> io::Result<()> {
        self.append(&WalRecord::Batch(batch.clone()))
    }

    /// Mark `epoch` as published with `parts`, and checkpoint them when the graph
    /// epoch has advanced `checkpoint_every_epochs` past the previous checkpoint.
    /// Fires the injected crash like [`log_batch`](Journal::log_batch).
    pub fn mark_epoch(&mut self, epoch: u64, parts: &[i32]) -> io::Result<()> {
        self.append(&WalRecord::EpochMark { epoch })?;
        let every = self.config.checkpoint_every_epochs.max(1);
        if epoch.saturating_sub(self.last_checkpoint_epoch) >= every {
            self.checkpoint(epoch, parts)?;
        }
        Ok(())
    }

    /// End a recovery replay at `epoch` with `parts`. `mark_tail` says the WAL
    /// ended in accepted batches no mark covered, which the replay repartitioned:
    /// mark that, so a second crash replays the decision identically. Then
    /// checkpoint, so the next recovery replays nothing before this point.
    pub fn resume(&mut self, epoch: u64, parts: &[i32], mark_tail: bool) -> io::Result<()> {
        if mark_tail {
            self.wal.append(&WalRecord::EpochMark { epoch })?;
        }
        self.checkpoint(epoch, parts)
    }

    fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.wal.append(record)?;
        maybe_inject_crash(self.config.crash_after_wal_records, self.wal.records());
        Ok(())
    }

    fn checkpoint(&mut self, epoch: u64, parts: &[i32]) -> io::Result<()> {
        let ckpt = Checkpoint {
            epoch,
            wal_records: self.wal.records(),
            parts: parts.to_vec(),
        };
        write_checkpoint(&self.config.dir, &ckpt)?;
        self.last_checkpoint_epoch = epoch;
        Ok(())
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
        let mut body = Vec::new();
        match self {
            WalRecord::Batch(batch) => {
                let ops = batch.ops();
                body.reserve(<(u8, u32)>::SIZE + ops.len() * OpRecord::SIZE);
                (WAL_KIND_BATCH, ops.len() as u32).put(&mut body);
                ops.iter().for_each(|op| op.record().put(&mut body));
            }
            WalRecord::EpochMark { epoch } => (WAL_KIND_EPOCH_MARK, *epoch).put(&mut body),
        }
        body
    }

    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let (kind, payload) = split_header::<u8>(body)?;
        match kind {
            WAL_KIND_BATCH => {
                let (count, ops) = split_header::<u32>(payload)?;
                let ops = Vec::<OpRecord>::decode(ops).ok()?.into_iter();
                let ops: Vec<_> = ops.map(UpdateOp::from_record).collect::<Option<_>>()?;
                (ops.len() == count as usize).then(|| WalRecord::Batch(UpdateBatch::from_ops(ops)))
            }
            WAL_KIND_EPOCH_MARK => Some(WalRecord::EpochMark {
                epoch: u64::decode(payload).ok()?,
            }),
            _ => None,
        }
    }
}

/// Parse every valid record prefix of a WAL byte buffer. Returns the records
/// and the byte length of the valid prefix; everything past it is a torn tail.
fn parse_wal(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut rest = bytes;
    while let Some((record, tail)) = parse_frame(rest) {
        records.push(record);
        rest = tail;
    }
    (records, (bytes.len() - rest.len()) as u64)
}

/// The WAL frame at the front of `bytes` and the bytes after it, or `None` where the
/// valid prefix ends: a frame cut short, a failed checksum or a body that does not
/// decode (an empty one included).
fn parse_frame(bytes: &[u8]) -> Option<(WalRecord, &[u8])> {
    let (len, rest) = split_header::<u32>(bytes)?;
    let (body, rest) = rest.split_at_checked(len as usize)?;
    let (sum, rest) = split_header::<u64>(rest)?;
    if fnv1a64(body) != sum {
        return None;
    }
    Some((WalRecord::decode_body(body)?, rest))
}

/// The append handle of a serving WAL.
#[derive(Debug)]
struct WalWriter {
    file: File,
    records: u64,
    /// Durable bytes of the log: the valid prefix at open plus every frame
    /// appended since. Feeds the `mem_bytes{subsystem="durable_wal"}` gauge.
    bytes: u64,
}

impl WalWriter {
    /// Create a fresh (empty) WAL at `path`, truncating any existing one.
    fn create(path: &Path) -> io::Result<WalWriter> {
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
    fn open(path: &Path) -> io::Result<(WalWriter, Vec<WalRecord>)> {
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
    fn records(&self) -> u64 {
        self.records
    }

    /// Append one record (framed and checksummed) and flush it.
    fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let body = record.encode_body();
        let mut frame = Vec::with_capacity(body.len() + WAL_OVERHEAD);
        (body.len() as u32).put(&mut frame);
        frame.extend_from_slice(&body);
        fnv1a64(&body).put(&mut frame);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        wal_records_counter().inc();
        xtrapulp_obs::mem::set("durable_wal", self.bytes);
        Ok(self.records)
    }
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
        let header: CkptHeader = (
            (CKPT_MAGIC, CKPT_VERSION),
            (self.epoch, self.wal_records, self.parts.len() as u64),
        );
        let mut bytes = Vec::with_capacity(CkptHeader::SIZE + self.parts.wire_size() + 8);
        header.put(&mut bytes);
        self.parts.encode_into(&mut bytes);
        fnv1a64(&bytes).put(&mut bytes);
        bytes
    }

    fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let (body, sum) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
        if fnv1a64(body) != u64::decode(sum).ok()? {
            return None;
        }
        let (((magic, version), (epoch, wal_records, n)), parts) =
            split_header::<CkptHeader>(body)?;
        if magic != CKPT_MAGIC || version != CKPT_VERSION {
            return None;
        }
        let parts = Vec::<i32>::decode(parts).ok()?;
        (parts.len() as u64 == n).then_some(Checkpoint {
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
fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
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
    let total = checkpoint_epochs(dir)?
        .into_iter()
        .map(|epoch| fs::metadata(dir.join(format!("ckpt-{epoch}"))).map_or(0, |m| m.len()))
        .sum();
    xtrapulp_obs::mem::set("durable_checkpoints", total);
    Ok(path)
}

/// Load the newest checkpoint under `dir` that validates (magic, version,
/// checksum) *and* whose WAL position is within `max_wal_records` — corrupted
/// or impossible checkpoints are skipped, falling back to older ones. Returns
/// `None` when no checkpoint survives.
fn load_newest_checkpoint(dir: &Path, max_wal_records: u64) -> io::Result<Option<Checkpoint>> {
    for epoch in checkpoint_epochs(dir)? {
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

/// The epochs of the checkpoints under `dir`, newest first. Temp files
/// (`ckpt-<epoch>.tmp`) do not parse as an epoch and are left out.
fn checkpoint_epochs(dir: &Path) -> io::Result<Vec<u64>> {
    let mut epochs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(epoch) = name.to_str().and_then(|n| n.strip_prefix("ckpt-")) {
            epochs.extend(epoch.parse::<u64>().ok());
        }
    }
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

/// The injected crash of [`DurableConfig::crash_after_wal_records`]: panic the
/// calling (worker) thread once the WAL has reached `records` appends. The
/// panic is contained by the serve pipeline (surfacing as
/// [`ServeError::WorkerPanicked`](crate::ServeError::WorkerPanicked)) and
/// leaves the WAL strictly ahead of the applied state.
fn maybe_inject_crash(config_crash_after: Option<u64>, wal_records: u64) {
    if let Some(after) = config_crash_after {
        if wal_records >= after {
            panic!("injected durability crash after {wal_records} WAL records");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read and validate a WAL without opening it for appends (the torn tail is
    /// ignored, not truncated).
    fn read_wal(path: &Path) -> io::Result<Vec<WalRecord>> {
        let bytes = fs::read(path)?;
        Ok(parse_wal(&bytes).0)
    }

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
