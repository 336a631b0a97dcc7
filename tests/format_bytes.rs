//! The on-disk formats of the stack, pinned byte for byte: a binary edge list
//! (`.bel`), a binary update log (`.ulog`) and a serving job's durable directory
//! (`base.bel`, `base.meta`, `serve.wal`, `ckpt-<e>`). Each file written from fixed
//! inputs must keep its length and its FNV-1a hash, so a change to an encoder or to
//! the codec under it cannot silently move what recovery and replay read back.

use std::fs;
use std::path::{Path, PathBuf};

use xtrapulp_graph::io::{write_edge_list, write_update_log};
use xtrapulp_graph::{csr_from_edges, TimedOp, UpdateOp};
use xtrapulp_serve::durable::Journal;
use xtrapulp_serve::{DurableConfig, UpdateBatch};

/// FNV-1a 64-bit of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtrapulp-format-bytes-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(file name, length, FNV-1a)` of every file in `dir`, sorted by name.
fn fingerprints(dir: &Path) -> Vec<(String, usize, u64)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = fs::read(entry.path()).unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    files.sort();
    files
}

fn assert_pinned(dir: &Path, expected: &[(&str, usize, u64)]) {
    let got = fingerprints(dir);
    let expected: Vec<_> = expected
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    assert_eq!(got, expected, "files under {}", dir.display());
}

#[test]
fn edge_lists_and_update_logs_keep_their_bytes() {
    let dir = scratch_dir("io");
    let edges = [(0, 1), (1, 2), (u64::MAX, 7), (123_456_789, 987_654_321)];
    write_edge_list(&dir.join("graph.bel"), &edges).unwrap();
    let ops = [
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
            op: UpdateOp::InsertEdge(u64::MAX - 1, u64::MAX),
        },
        TimedOp {
            time: 5,
            op: UpdateOp::AddVertices(u64::MAX),
        },
        TimedOp {
            time: 6,
            op: UpdateOp::DeleteEdge(u64::MAX, 0),
        },
    ];
    write_update_log(&dir.join("trace.ulog"), &ops).unwrap();
    assert_pinned(
        &dir,
        &[
            ("graph.bel", 64, 3550019673748183101),
            ("trace.ulog", 150, 10997425503752932606),
        ],
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_directory_keeps_its_bytes() {
    let dir = scratch_dir("journal");
    let base = csr_from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)]);
    let config = DurableConfig::new(&dir).checkpoint_every(1);
    let mut journal = Journal::create(&config, &base, 0, &[0, 0, 1, 1, 0, 1, 1]).unwrap();
    let mut growth = UpdateBatch::new();
    growth
        .add_vertices(2)
        .insert_edge(6, 7)
        .insert_edge(7, 8)
        .delete_edge(0, 1);
    journal.log_batch(&growth).unwrap();
    journal.mark_epoch(1, &[1, 0, 1, 1, 0, 1, 1, 0, 0]).unwrap();
    journal.log_batch(&UpdateBatch::new()).unwrap();
    journal.mark_epoch(2, &[1, 0, 1, 1, 0, 1, 1, 0, 1]).unwrap();
    drop(journal);
    assert_pinned(
        &dir,
        &[
            ("base.bel", 96, 14179886682184009026),
            ("base.meta", 2, 572515737679470100),
            ("ckpt-0", 66, 12549735511650981776),
            ("ckpt-1", 74, 13547362609874996150),
            ("ckpt-2", 74, 6363772187930496097),
            ("serve.wal", 144, 11325508614263891302),
        ],
    );
    let _ = fs::remove_dir_all(&dir);
}
