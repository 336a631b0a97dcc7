//! Edge-list and update-log input/output.
//!
//! The original XtraPuLP ingests graphs as binary edge lists; for convenience the
//! reproduction also supports a whitespace-separated text format (one `u v` pair per
//! line, `#`-prefixed comments allowed), which is the format most public graph corpora
//! (SNAP, KONECT) ship.
//!
//! Dynamic workloads additionally record *update logs*: timestamped mutation traces
//! ([`TimedOp`]) that can be replayed through the dynamic subsystem or the serving
//! layer's ingest queue. [`write_update_log`]/[`read_update_log`] auto-detect a compact
//! binary format (`.ulog`) and a human-readable text format (everything else), the
//! same scheme [`read_edge_list`] uses.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{GlobalId, TimedOp, UpdateOp};

/// Read a whitespace-separated text edge list. Lines beginning with `#` or `%` are
/// treated as comments; malformed lines produce an error.
pub fn read_text_edge_list(path: &Path) -> io::Result<Vec<(GlobalId, GlobalId)>> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut edges = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<GlobalId> {
            tok.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: expected two vertex ids"),
                )
            })?
            .parse::<GlobalId>()
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: bad vertex id: {e}"),
                )
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        if let Some(extra) = it.next() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {lineno}: expected exactly two vertex ids, found trailing token '{extra}'"
                ),
            ));
        }
        edges.push((u, v));
    }
    Ok(edges)
}

/// Write a text edge list (one `u v` pair per line).
pub fn write_text_edge_list(path: &Path, edges: &[(GlobalId, GlobalId)]) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for &(u, v) in edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Read a binary edge list: a little-endian stream of `u64` pairs.
pub fn read_binary_edge_list(path: &Path) -> io::Result<Vec<(GlobalId, GlobalId)>> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    if bytes.len() % 16 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "binary edge list length is not a multiple of 16 bytes",
        ));
    }
    let mut edges = Vec::with_capacity(bytes.len() / 16);
    for chunk in bytes.chunks_exact(16) {
        edges.push((le_u64(&chunk[..8]), le_u64(&chunk[8..])));
    }
    Ok(edges)
}

/// The integer `bytes` encode, least significant byte first (eight bytes for a `u64`).
/// Never panics, unlike `from_le_bytes` over a slice converted to an array.
fn le_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |word, &b| word << 8 | u64::from(b))
}

/// Write a binary edge list: a little-endian stream of `u64` pairs.
pub fn write_binary_edge_list(path: &Path, edges: &[(GlobalId, GlobalId)]) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for &(u, v) in edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// The on-disk edge-list formats the suite understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeListFormat {
    /// Whitespace-separated `u v` pairs, `#`/`%` comments (SNAP/KONECT style).
    Text,
    /// A little-endian stream of `u64` pairs — the original XtraPuLP's native ingest
    /// format.
    Binary,
}

impl EdgeListFormat {
    /// Detect the format from a path's extension: `.bel`, `.bin` and `.bbin` are binary,
    /// everything else (`.el`, `.txt`, `.edges`, no extension, ...) is text.
    pub fn detect(path: &Path) -> EdgeListFormat {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase())
            .as_deref()
        {
            Some("bel") | Some("bin") | Some("bbin") => EdgeListFormat::Binary,
            _ => EdgeListFormat::Text,
        }
    }
}

/// Read an edge list, auto-detecting the format from the file extension (see
/// [`EdgeListFormat::detect`]).
pub fn read_edge_list(path: &Path) -> io::Result<Vec<(GlobalId, GlobalId)>> {
    match EdgeListFormat::detect(path) {
        EdgeListFormat::Text => read_text_edge_list(path),
        EdgeListFormat::Binary => read_binary_edge_list(path),
    }
}

/// Write an edge list in the format the file extension implies (see
/// [`EdgeListFormat::detect`]).
pub fn write_edge_list(path: &Path, edges: &[(GlobalId, GlobalId)]) -> io::Result<()> {
    match EdgeListFormat::detect(path) {
        EdgeListFormat::Text => write_text_edge_list(path, edges),
        EdgeListFormat::Binary => write_binary_edge_list(path, edges),
    }
}

// ------------------------------------------------------------------------------------
// Update logs
// ------------------------------------------------------------------------------------

/// The on-disk update-log formats the suite understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateLogFormat {
    /// One op per line: `<time> i <u> <v>` (insert), `<time> d <u> <v>` (delete),
    /// `<time> a <count>` (add vertices); `#`/`%` comments allowed.
    Text,
    /// Fixed 25-byte little-endian records: a 1-byte tag (`0` = add-vertices, `1` =
    /// insert, `2` = delete) followed by three `u64`s (time, then the two operands;
    /// add-vertices stores the count in the first operand and zero in the second).
    Binary,
}

impl UpdateLogFormat {
    /// Detect the format from a path's extension: `.ulog` is binary, everything else
    /// (`.tlog`, `.txt`, no extension, ...) is text.
    pub fn detect(path: &Path) -> UpdateLogFormat {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase())
            .as_deref()
        {
            Some("ulog") => UpdateLogFormat::Binary,
            _ => UpdateLogFormat::Text,
        }
    }
}

/// Byte length of one binary update-log record (tag + time + two operands).
const ULOG_RECORD: usize = 1 + 3 * 8;

/// Write an update log in the format the file extension implies (see
/// [`UpdateLogFormat::detect`]).
pub fn write_update_log(path: &Path, ops: &[TimedOp]) -> io::Result<()> {
    match UpdateLogFormat::detect(path) {
        UpdateLogFormat::Text => write_text_update_log(path, ops),
        UpdateLogFormat::Binary => write_binary_update_log(path, ops),
    }
}

/// Read an update log, auto-detecting the format from the file extension (see
/// [`UpdateLogFormat::detect`]).
pub fn read_update_log(path: &Path) -> io::Result<Vec<TimedOp>> {
    match UpdateLogFormat::detect(path) {
        UpdateLogFormat::Text => read_text_update_log(path),
        UpdateLogFormat::Binary => read_binary_update_log(path),
    }
}

/// Write a text update log (see [`UpdateLogFormat::Text`] for the line grammar).
pub fn write_text_update_log(path: &Path, ops: &[TimedOp]) -> io::Result<()> {
    // Atomic: a crash mid-write must not leave a torn log at the final path.
    let tmp = partial_path(path);
    {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        for t in ops {
            match t.op {
                UpdateOp::InsertEdge(u, v) => writeln!(w, "{} i {u} {v}", t.time)?,
                UpdateOp::DeleteEdge(u, v) => writeln!(w, "{} d {u} {v}", t.time)?,
                UpdateOp::AddVertices(c) => writeln!(w, "{} a {c}", t.time)?,
            }
        }
        w.flush()?;
    }
    fs::rename(&tmp, path)
}

/// Read a text update log written by [`write_text_update_log`]. Malformed lines are
/// errors naming the line number; `#`/`%` comments and blank lines are skipped.
pub fn read_text_update_log(path: &Path) -> io::Result<Vec<TimedOp>> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut ops = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let bad = |what: &str| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {what}"))
        };
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, name: &str| -> io::Result<u64> {
            tok.ok_or_else(|| bad(&format!("missing {name}")))?
                .parse::<u64>()
                .map_err(|e| bad(&format!("bad {name}: {e}")))
        };
        let time = parse(it.next(), "timestamp")?;
        let tag = it.next().ok_or_else(|| bad("missing op tag"))?;
        let op = match tag {
            "i" => UpdateOp::InsertEdge(
                parse(it.next(), "source vertex")?,
                parse(it.next(), "target vertex")?,
            ),
            "d" => UpdateOp::DeleteEdge(
                parse(it.next(), "source vertex")?,
                parse(it.next(), "target vertex")?,
            ),
            "a" => UpdateOp::AddVertices(parse(it.next(), "vertex count")?),
            tag => return Err(bad(&format!("unknown op tag '{tag}' (expected i/d/a)"))),
        };
        if let Some(extra) = it.next() {
            return Err(bad(&format!("trailing token '{extra}'")));
        }
        ops.push(TimedOp { time, op });
    }
    Ok(ops)
}

/// Write a binary update log (see [`UpdateLogFormat::Binary`] for the record layout).
pub fn write_binary_update_log(path: &Path, ops: &[TimedOp]) -> io::Result<()> {
    // Atomic, like the text writer: tmp sibling + rename.
    let tmp = partial_path(path);
    {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        for t in ops {
            let (tag, a, b): (u8, u64, u64) = match t.op {
                UpdateOp::AddVertices(c) => (0, c, 0),
                UpdateOp::InsertEdge(u, v) => (1, u, v),
                UpdateOp::DeleteEdge(u, v) => (2, u, v),
            };
            w.write_all(&[tag])?;
            w.write_all(&t.time.to_le_bytes())?;
            w.write_all(&a.to_le_bytes())?;
            w.write_all(&b.to_le_bytes())?;
        }
        w.flush()?;
    }
    fs::rename(&tmp, path)
}

/// The temp sibling an atomic writer stages into before the rename. `.partial`
/// is appended to the whole file name (not swapped in as an extension), so the
/// staged file can never satisfy a format auto-detection pass.
fn partial_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".partial");
    path.with_file_name(name)
}

/// Read a binary update log written by [`write_binary_update_log`]. Truncated files
/// and unknown op tags are errors.
pub fn read_binary_update_log(path: &Path) -> io::Result<Vec<TimedOp>> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    if bytes.len() % ULOG_RECORD != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("binary update log length is not a multiple of {ULOG_RECORD} bytes"),
        ));
    }
    let mut ops = Vec::with_capacity(bytes.len() / ULOG_RECORD);
    for (idx, rec) in bytes.chunks_exact(ULOG_RECORD).enumerate() {
        let word = |i: usize| le_u64(&rec[1 + 8 * i..1 + 8 * (i + 1)]);
        let (time, a, b) = (word(0), word(1), word(2));
        let op = match rec[0] {
            0 => UpdateOp::AddVertices(a),
            1 => UpdateOp::InsertEdge(a, b),
            2 => UpdateOp::DeleteEdge(a, b),
            tag => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {idx}: unknown op tag {tag}"),
                ))
            }
        };
        ops.push(TimedOp { time, op });
    }
    Ok(ops)
}

/// Write a partition vector (one part id per line, line index = global vertex id), the
/// format METIS-family tools use for partition files.
pub fn write_partition(path: &Path, parts: &[i32]) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for &p in parts {
        writeln!(w, "{p}")?;
    }
    w.flush()
}

/// Read a partition vector written by [`write_partition`].
pub fn read_partition(path: &Path) -> io::Result<Vec<i32>> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut parts = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        parts.push(trimmed.parse::<i32>().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad part id: {e}", lineno + 1),
            )
        })?);
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xtrapulp-graph-io-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn text_edge_list_round_trip() {
        let path = temp_path("text.el");
        let edges = vec![(0u64, 1u64), (1, 2), (5, 3)];
        write_text_edge_list(&path, &edges).unwrap();
        let back = read_text_edge_list(&path).unwrap();
        assert_eq!(back, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_edge_list_skips_comments_and_blank_lines() {
        let path = temp_path("comments.el");
        std::fs::write(&path, "# header\n\n0 1\n% another comment\n2 3\n").unwrap();
        let back = read_text_edge_list(&path).unwrap();
        assert_eq!(back, vec![(0, 1), (2, 3)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_edge_list_rejects_malformed_lines() {
        let path = temp_path("bad.el");
        std::fs::write(&path, "0 1\n2\n").unwrap();
        assert!(read_text_edge_list(&path).is_err());
        std::fs::write(&path, "0 x\n").unwrap();
        assert!(read_text_edge_list(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_edge_list_rejects_trailing_tokens_with_line_number() {
        let path = temp_path("trailing.el");
        std::fs::write(&path, "0 1\n2 3 4\n").unwrap();
        let err = read_text_edge_list(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "missing line number: {msg}");
        assert!(msg.contains("'4'"), "missing offending token: {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn format_detection_by_extension() {
        use std::path::Path;
        assert_eq!(
            EdgeListFormat::detect(Path::new("graph.bel")),
            EdgeListFormat::Binary
        );
        assert_eq!(
            EdgeListFormat::detect(Path::new("graph.BIN")),
            EdgeListFormat::Binary
        );
        assert_eq!(
            EdgeListFormat::detect(Path::new("graph.el")),
            EdgeListFormat::Text
        );
        assert_eq!(
            EdgeListFormat::detect(Path::new("graph")),
            EdgeListFormat::Text
        );
    }

    #[test]
    fn auto_detected_round_trips_in_both_formats() {
        let edges = vec![(0u64, 1u64), (1, 2), (5, 3)];
        for name in ["auto.el", "auto.bel"] {
            let path = temp_path(name);
            write_edge_list(&path, &edges).unwrap();
            assert_eq!(read_edge_list(&path).unwrap(), edges, "{name}");
            std::fs::remove_file(&path).ok();
        }
        // The two formats produce different bytes but identical edge lists.
        let text = temp_path("auto2.el");
        let bin = temp_path("auto2.bel");
        write_edge_list(&text, &edges).unwrap();
        write_edge_list(&bin, &edges).unwrap();
        assert_ne!(std::fs::read(&text).unwrap(), std::fs::read(&bin).unwrap());
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn binary_edge_list_round_trip() {
        let path = temp_path("bin.el");
        let edges = vec![(0u64, 1u64), (u64::MAX, 7), (123456789, 987654321)];
        write_binary_edge_list(&path, &edges).unwrap();
        let back = read_binary_edge_list(&path).unwrap();
        assert_eq!(back, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_edge_list_rejects_truncated_files() {
        let path = temp_path("trunc.el");
        std::fs::write(&path, [0u8; 20]).unwrap();
        assert!(read_binary_edge_list(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn sample_ops() -> Vec<TimedOp> {
        vec![
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
        ]
    }

    #[test]
    fn update_log_round_trips_in_both_formats() {
        let ops = sample_ops();
        for name in ["trace.tlog", "trace.ulog"] {
            let path = temp_path(name);
            write_update_log(&path, &ops).unwrap();
            assert_eq!(read_update_log(&path).unwrap(), ops, "{name}");
            std::fs::remove_file(&path).ok();
        }
        // `.ulog` is the binary format: the two encodings differ on disk.
        let text = temp_path("trace2.tlog");
        let bin = temp_path("trace2.ulog");
        write_update_log(&text, &ops).unwrap();
        write_update_log(&bin, &ops).unwrap();
        assert_ne!(std::fs::read(&text).unwrap(), std::fs::read(&bin).unwrap());
        assert_eq!(std::fs::read(&bin).unwrap().len(), ops.len() * 25);
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn update_log_format_detection_by_extension() {
        assert_eq!(
            UpdateLogFormat::detect(Path::new("trace.ulog")),
            UpdateLogFormat::Binary
        );
        assert_eq!(
            UpdateLogFormat::detect(Path::new("trace.ULOG")),
            UpdateLogFormat::Binary
        );
        assert_eq!(
            UpdateLogFormat::detect(Path::new("trace.tlog")),
            UpdateLogFormat::Text
        );
        assert_eq!(
            UpdateLogFormat::detect(Path::new("trace")),
            UpdateLogFormat::Text
        );
    }

    #[test]
    fn text_update_log_skips_comments_and_rejects_malformed_lines() {
        let path = temp_path("bad.tlog");
        std::fs::write(&path, "# header\n1 a 2\n\n% note\n2 i 0 1\n").unwrap();
        let ops = read_text_update_log(&path).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].op, UpdateOp::AddVertices(2));
        for (content, needle) in [
            ("1 x 0 1\n", "unknown op tag"),
            ("1 i 0\n", "missing target vertex"),
            ("1 i 0 1 9\n", "trailing token"),
            ("z i 0 1\n", "bad timestamp"),
        ] {
            std::fs::write(&path, content).unwrap();
            let err = read_text_update_log(&path).unwrap_err().to_string();
            assert!(err.contains("line 1"), "{content:?}: {err}");
            assert!(err.contains(needle), "{content:?}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_update_log_rejects_truncation_and_bad_tags() {
        let path = temp_path("bad.ulog");
        std::fs::write(&path, [0u8; 26]).unwrap();
        assert!(read_binary_update_log(&path).is_err());
        let mut rec = [0u8; 25];
        rec[0] = 9; // unknown tag
        std::fs::write(&path, rec).unwrap();
        let err = read_binary_update_log(&path).unwrap_err().to_string();
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

    #[test]
    fn partition_round_trip() {
        let path = temp_path("parts.txt");
        let parts = vec![0, 1, 2, 1, 0, 3];
        write_partition(&path, &parts).unwrap();
        assert_eq!(read_partition(&path).unwrap(), parts);
        std::fs::remove_file(&path).ok();
    }
}
