//! Every generator's output is pinned: the edge list, in order, and the `Csr` that
//! `EdgeList::to_csr` builds from it, at two seeds and small scales.
//!
//! Partitions, golden tables and benchmark inputs all start from these edge lists, so a
//! change to a generator or to the CSR builder that is meant to be behaviour-preserving
//! must leave this table green. Regenerate only on purpose with
//! `cargo test --release -p xtrapulp-gen --test generator_table -- --ignored --nocapture print_generator_table`.

use xtrapulp_gen::ba::BaConfig;
use xtrapulp_gen::erdos_renyi::ErdosRenyiConfig;
use xtrapulp_gen::rand_hd::RandHdConfig;
use xtrapulp_gen::rmat::RmatConfig;
use xtrapulp_gen::smallworld::SmallWorldConfig;
use xtrapulp_gen::webcrawl::WebCrawlConfig;
use xtrapulp_gen::{ba, erdos_renyi, mesh, rand_hd, rmat, smallworld, webcrawl, EdgeList};

/// Edge count, FNV-1a of the edge list, arc count and FNV-1a of the CSR.
type GenRow = [u64; 4];

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn row(el: &EdgeList) -> GenRow {
    let csr = el.to_csr();
    let edge_words = el.edges.iter().flat_map(|&(u, v)| [u, v]);
    let csr_words = csr.offsets().iter().chain(csr.adjacency()).copied();
    [
        el.edges.len() as u64,
        fnv1a(std::iter::once(el.num_vertices).chain(edge_words)),
        csr.num_arcs(),
        fnv1a(csr_words),
    ]
}

/// Sizes are chosen so that R-MAT and Erdős–Rényi span several 2^16-edge chunks.
fn generator_table() -> Vec<(String, GenRow)> {
    let mut rows = Vec::new();
    for seed in [1u64, 42] {
        let graphs = [
            (
                "rmat14x8",
                rmat::generate(&RmatConfig::graph500(14, 8, seed)),
            ),
            (
                "er20000x16",
                erdos_renyi::generate(&ErdosRenyiConfig {
                    num_vertices: 20_000,
                    avg_degree: 16,
                    seed,
                }),
            ),
            (
                "randhd4096x8",
                rand_hd::generate(&RandHdConfig {
                    num_vertices: 4096,
                    avg_degree: 8,
                    seed,
                }),
            ),
            (
                "webcrawl4096x16",
                webcrawl::generate(&WebCrawlConfig {
                    num_vertices: 4096,
                    avg_degree: 16,
                    community_size: 128,
                    inter_community_fraction: 0.08,
                    hub_fraction: 0.002,
                    seed,
                }),
            ),
            (
                "ba4096x4",
                ba::generate(&BaConfig {
                    num_vertices: 4096,
                    edges_per_vertex: 4,
                    seed,
                }),
            ),
            (
                "smallworld4096x4",
                smallworld::generate(&SmallWorldConfig {
                    num_vertices: 4096,
                    k: 4,
                    rewire_probability: 0.1,
                    seed,
                }),
            ),
        ];
        for (name, el) in &graphs {
            rows.push((format!("{name}/seed{seed}"), row(el)));
        }
    }
    rows.push(("grid2d64x64diag".into(), row(&mesh::grid2d(64, 64, true))));
    rows.push(("grid3d16full".into(), row(&mesh::grid3d(16, 16, 16, true))));
    rows
}

#[test]
fn every_generator_matches_its_recorded_output() {
    let measured = generator_table();
    assert_eq!(measured.len(), GENERATOR_TABLE.len());
    for ((key, row), (want_key, want)) in measured.iter().zip(GENERATOR_TABLE) {
        assert_eq!(key, want_key);
        assert_eq!(row, want, "{key}");
    }
}

#[test]
#[ignore = "prints the table to paste over GENERATOR_TABLE after an intentional behaviour change"]
fn print_generator_table() {
    println!("const GENERATOR_TABLE: &[(&str, GenRow)] = &[");
    for (key, row) in generator_table() {
        println!("    ({key:?}, {row:?}),");
    }
    println!("];");
}

#[rustfmt::skip]
const GENERATOR_TABLE: &[(&str, GenRow)] = &[
    ("rmat14x8/seed1", [131072, 726054995477412967, 228528, 13780385889899990545]),
    ("er20000x16/seed1", [160000, 14075043540325807736, 319890, 5009100686446954862]),
    ("randhd4096x8/seed1", [30593, 14601225214489955685, 38488, 1285188564116219730]),
    ("webcrawl4096x16/seed1", [32539, 16560482290888945268, 61958, 13122960783685202145]),
    ("ba4096x4/seed1", [16368, 3168041481240117863, 32598, 722129393805773295]),
    ("smallworld4096x4/seed1", [16384, 2582249226815844710, 32766, 4716594208660450137]),
    ("rmat14x8/seed42", [131072, 11519349444387888694, 228522, 16990537828249099992]),
    ("er20000x16/seed42", [160000, 6237202836957251876, 319888, 16671019916253752990]),
    ("randhd4096x8/seed42", [30581, 11088048245705596141, 38416, 5042240574068625978]),
    ("webcrawl4096x16/seed42", [32509, 1941948416621501425, 62018, 13539229499499875567]),
    ("ba4096x4/seed42", [16367, 6444969274420021961, 32572, 16174959397571270236]),
    ("smallworld4096x4/seed42", [16384, 12767496467698001260, 32764, 5494308766355206648]),
    ("grid2d64x64diag", [16002, 16260440492971677153, 32004, 17966646249150980120]),
    ("grid3d16full", [46620, 6780239364034495581, 93240, 13901496943972633996]),
];
