//! The two binary file formats of the stack, each a plain array of the comm layer's
//! little-endian wire records ([`WireElem`]), encoded and length-checked by its codec:
//!
//! * edge lists (`.bel`), the original XtraPuLP's native ingest format: `(u64, u64)`
//!   pairs, one per edge;
//! * update logs (`.ulog`): timestamped mutation traces ([`TimedOp`]) that can be
//!   replayed through the dynamic subsystem or the serving layer's ingest queue.
//!   25-byte records `(u8 tag, u64 time, (u64, u64) operands)`, the tag and operands
//!   being [`UpdateOp::record`]'s.
//!
//! A file that is not a whole number of records, or a record with an unknown tag, is
//! an [`io::ErrorKind::InvalidData`] error.

use std::fs;
use std::io;
use std::path::Path;

use xtrapulp_comm::{WireElem, WireMessage};

use crate::{GlobalId, TimedOp, UpdateOp};

/// One update-log record: tag, time, operands.
type LogRecord = (u8, u64, (u64, u64));

/// Read an edge list written by [`write_edge_list`].
pub fn read_edge_list(path: &Path) -> io::Result<Vec<(GlobalId, GlobalId)>> {
    read_records(path)
}

/// Write an edge list: a little-endian stream of `u64` pairs.
pub fn write_edge_list(path: &Path, edges: &[(GlobalId, GlobalId)]) -> io::Result<()> {
    fs::write(path, edges.to_vec().encode())
}

/// Read an update log written by [`write_update_log`].
pub fn read_update_log(path: &Path) -> io::Result<Vec<TimedOp>> {
    let records = read_records::<LogRecord>(path)?;
    let timed = |(idx, (tag, time, operands)): (usize, LogRecord)| {
        let op = UpdateOp::from_record((tag, operands)).ok_or_else(|| {
            let detail = format!("record {idx}: unknown op tag {tag}");
            io::Error::new(io::ErrorKind::InvalidData, detail)
        })?;
        Ok(TimedOp { time, op })
    };
    records.into_iter().enumerate().map(timed).collect()
}

/// Write an update log. Atomic: the records land in a `.partial` sibling that is then
/// renamed into place, so a crash mid-write never leaves a torn log at `path`.
pub fn write_update_log(path: &Path, ops: &[TimedOp]) -> io::Result<()> {
    let records: Vec<LogRecord> = ops
        .iter()
        .map(|t| {
            let (tag, operands) = t.op.record();
            (tag, t.time, operands)
        })
        .collect();
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".partial");
    let tmp = path.with_file_name(name);
    fs::write(&tmp, records.encode())?;
    fs::rename(&tmp, path)
}

/// The records of the file at `path`, decoded by the wire codec.
fn read_records<E: WireElem>(path: &Path) -> io::Result<Vec<E>> {
    Vec::<E>::decode(&fs::read(path)?).map_err(|e| {
        let detail = format!("{} is not a whole number of records: {e}", path.display());
        io::Error::new(io::ErrorKind::InvalidData, detail)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Byte length of one update-log record.
    const ULOG_RECORD: usize = <LogRecord as WireElem>::SIZE;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xtrapulp-graph-io-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn edge_list_round_trip() {
        let path = temp_path("round-trip.bel");
        let edges = vec![(0u64, 1u64), (u64::MAX, 7), (123456789, 987654321)];
        write_edge_list(&path, &edges).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), edges.len() * 16);
        assert_eq!(read_edge_list(&path).unwrap(), edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_rejects_truncated_files() {
        let path = temp_path("trunc.bel");
        std::fs::write(&path, [0u8; 20]).unwrap();
        assert!(read_edge_list(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn update_log_round_trips_every_op_kind() {
        let ops = vec![
            TimedOp {
                time: 1,
                op: UpdateOp::AddVertices(3),
            },
            TimedOp {
                time: 2,
                op: UpdateOp::InsertEdge(0, 5),
            },
            TimedOp {
                time: 3,
                op: UpdateOp::DeleteEdge(7, 2),
            },
            TimedOp {
                time: u64::MAX,
                op: UpdateOp::InsertEdge(u64::MAX - 1, 0),
            },
        ];
        let path = temp_path("trace.ulog");
        write_update_log(&path, &ops).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), ops.len() * 25);
        assert_eq!(read_update_log(&path).unwrap(), ops);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn update_log_rejects_truncation_and_bad_tags() {
        let path = temp_path("bad.ulog");
        std::fs::write(&path, [0u8; 26]).unwrap();
        assert!(read_update_log(&path).is_err());
        let mut rec = [0u8; 25];
        rec[0] = 9; // unknown tag
        std::fs::write(&path, rec).unwrap();
        let err = read_update_log(&path).unwrap_err().to_string();
        assert!(err.contains("unknown op tag"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_binary_files_are_invalid_data_never_a_panic() {
        fn kind<T>(read: io::Result<T>) -> Result<(), io::ErrorKind> {
            read.map(drop).map_err(|e| e.kind())
        }
        // Whole records decode; anything else is `InvalidData`.
        let expected = |len: usize, record: usize| match len % record {
            0 => Ok(()),
            _ => Err(io::ErrorKind::InvalidData),
        };
        let bel = temp_path("hostile.bel");
        let ulog = temp_path("hostile.ulog");
        for len in 0..=3 * ULOG_RECORD {
            // Every truncated and odd length, of bytes no writer produced.
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            std::fs::write(&bel, &bytes).unwrap();
            let read = kind(read_edge_list(&bel));
            assert_eq!(read, expected(len, 16), ".bel of {len} bytes");
            // Every byte is 0 or 1 here, so every tag is valid and only the length is not.
            std::fs::write(&ulog, bytes.iter().map(|&b| b & 1).collect::<Vec<_>>()).unwrap();
            let read = kind(read_update_log(&ulog));
            assert_eq!(read, expected(len, ULOG_RECORD), ".ulog of {len} bytes");
        }
        for tag in 3..=u8::MAX {
            let mut records = [0u8; 2 * ULOG_RECORD];
            records[ULOG_RECORD] = tag;
            std::fs::write(&ulog, records).unwrap();
            let read = kind(read_update_log(&ulog));
            assert_eq!(read, Err(io::ErrorKind::InvalidData), "tag {tag}");
        }
        std::fs::remove_file(&bel).ok();
        std::fs::remove_file(&ulog).ok();
    }
}
