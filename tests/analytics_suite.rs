//! The Fig. 8 suite's component and coreness kernels, pinned: `wcc` labels,
//! `kcore_approx` after 3 rounds (an intermediate iterate, so the in-place sweep order
//! is pinned too) and after 30, and `largest_component`'s size, on seeded graphs under
//! every built-in distribution at 1–4 ranks.
//!
//! Each graph keeps a seeded half of its generator's edges, so it falls apart into
//! several components. Results are gathered by global id and FNV-1a hashed, so a row
//! does not depend on how the distribution numbers the owned vertices.

use xtrapulp_analytics::{kcore_approx, largest_component, wcc};
use xtrapulp_comm::Runtime;
use xtrapulp_gen::{EdgeList, GraphConfig, GraphKind};
use xtrapulp_graph::distribution::splitmix64;
use xtrapulp_graph::{DistGraph, Distribution, LocalId};

/// One pinned run: FNV-1a hashes of the `wcc` labels, of `kcore_approx` after 3 and
/// after 30 rounds, then `largest_component`'s size.
type SuiteRow = [u64; 4];

const RANKS: std::ops::RangeInclusive<usize> = 1..=4;

fn fnv1a(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seeded graphs of the oracle: BA, small-world and web-crawl, two seeds each.
fn suite_graphs() -> Vec<(String, EdgeList)> {
    let kinds = [
        (
            "ba",
            GraphKind::BarabasiAlbert {
                num_vertices: 300,
                edges_per_vertex: 3,
            },
        ),
        (
            "sw",
            GraphKind::SmallWorld {
                num_vertices: 300,
                k: 3,
                rewire_probability: 0.1,
            },
        ),
        (
            "crawl",
            GraphKind::WebCrawl {
                num_vertices: 300,
                avg_degree: 6,
                community_size: 32,
            },
        ),
    ];
    let mut graphs = Vec::new();
    for (name, kind) in kinds {
        for seed in [1u64, 2] {
            let mut el = GraphConfig::new(kind, seed).generate();
            let mut draw = seed << 32;
            el.edges.retain(|_| {
                draw += 1;
                splitmix64(draw).is_multiple_of(2)
            });
            graphs.push((format!("{name}/s{seed}"), el));
        }
    }
    graphs
}

fn distributions() -> [(&'static str, Distribution); 3] {
    [
        ("block", Distribution::Block),
        ("cyclic", Distribution::Cyclic),
        ("hashed", Distribution::Hashed),
    ]
}

/// Run the three kernels on `nranks` ranks and return the pinned row.
fn suite_run(n: u64, edges: &[(u64, u64)], dist: &Distribution, nranks: usize) -> SuiteRow {
    let per_rank = Runtime::new(nranks).execute(|ctx| {
        let g = DistGraph::from_shared_edges(ctx, dist.clone(), n, edges);
        let halo = "in-process ranks agree on the halo";
        let labels = wcc(ctx, &g).expect(halo);
        let core3 = kcore_approx(ctx, &g, 3).expect(halo);
        let core30 = kcore_approx(ctx, &g, 30).expect(halo);
        let (_, largest) = largest_component(ctx, &g).expect(halo);
        let owned: Vec<_> = (0..g.n_owned())
            .map(|v| (g.global_id(v as LocalId), [labels[v], core3[v], core30[v]]))
            .collect();
        (owned, largest)
    });
    let mut global = vec![[0u64; 3]; n as usize];
    let mut sizes = Vec::new();
    for (owned, largest) in per_rank {
        for (g, values) in owned {
            global[g as usize] = values;
        }
        sizes.push(largest);
    }
    assert!(sizes.windows(2).all(|w| w[0] == w[1]), "ranks disagree");
    let column = |i: usize| fnv1a(&global.iter().map(|row| row[i]).collect::<Vec<_>>());
    [column(0), column(1), column(2), sizes[0]]
}

fn suite_table() -> Vec<(String, SuiteRow)> {
    let mut rows = Vec::new();
    for (name, el) in suite_graphs() {
        for (dist_name, dist) in distributions() {
            for nranks in RANKS {
                let row = suite_run(el.num_vertices, &el.edges, &dist, nranks);
                rows.push((format!("{name}/{dist_name}/r{nranks}"), row));
            }
        }
    }
    rows
}

/// Regenerate [`SUITE`] after an *intentional* change to a suite kernel's results:
/// `cargo test --release --test analytics_suite -- --ignored --nocapture print_suite_table`
#[test]
#[ignore]
fn print_suite_table() {
    println!("const SUITE: &[(&str, SuiteRow)] = &[");
    for (label, [a, b, c, d]) in suite_table() {
        println!("    (\"{label}\", [{a:#018x}, {b:#018x}, {c:#018x}, {d}]),");
    }
    println!("];");
}

/// The suite's `wcc`, `kcore_approx` and `largest_component` return exactly the pinned
/// results on every graph, distribution and rank count.
#[test]
fn suite_kernels_match_the_pinned_table() {
    let rows = suite_table();
    assert_eq!(rows.len(), SUITE.len(), "one pinned row per run");
    for ((label, row), (pinned_label, pinned)) in rows.iter().zip(SUITE) {
        assert_eq!(label, pinned_label);
        assert_eq!(row, pinned, "{label} moved");
    }
}

#[rustfmt::skip]
const SUITE: &[(&str, SuiteRow)] = &[
    ("ba/s1/block/r1", [0x1640072c072e5dfd, 0xa701c903a8671a86, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/block/r2", [0x1640072c072e5dfd, 0x86d885c5c5ec4f46, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/block/r3", [0x1640072c072e5dfd, 0xbf7560f138d4a307, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/block/r4", [0x1640072c072e5dfd, 0x99a81427a28d6026, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/cyclic/r1", [0x1640072c072e5dfd, 0xa701c903a8671a86, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/cyclic/r2", [0x1640072c072e5dfd, 0xc390ed88af146fa7, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/cyclic/r3", [0x1640072c072e5dfd, 0x4194eb4c7d4a9c27, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/cyclic/r4", [0x1640072c072e5dfd, 0xf0bf4f9aa2571947, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/hashed/r1", [0x1640072c072e5dfd, 0xa701c903a8671a86, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/hashed/r2", [0x1640072c072e5dfd, 0x7d0253d5f26724a6, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/hashed/r3", [0x1640072c072e5dfd, 0xf4d9c1ed5f0f1507, 0x13444f9acebbd8e6, 276]),
    ("ba/s1/hashed/r4", [0x1640072c072e5dfd, 0x215e7515583718e6, 0x13444f9acebbd8e6, 276]),
    ("ba/s2/block/r1", [0x935487607c54d14e, 0xf4563921647d9c26, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/block/r2", [0x935487607c54d14e, 0x6fa9a7f482334ce6, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/block/r3", [0x935487607c54d14e, 0x5370169e858b3627, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/block/r4", [0x935487607c54d14e, 0x820e36c855b81f46, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/cyclic/r1", [0x935487607c54d14e, 0xf4563921647d9c26, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/cyclic/r2", [0x935487607c54d14e, 0x4dec9b0474c74686, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/cyclic/r3", [0x935487607c54d14e, 0x880d92367857a926, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/cyclic/r4", [0x935487607c54d14e, 0x2b5dacffe120c806, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/hashed/r1", [0x935487607c54d14e, 0xf4563921647d9c26, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/hashed/r2", [0x935487607c54d14e, 0xb9a925bd1e39b4e7, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/hashed/r3", [0x935487607c54d14e, 0xad007bfbddbd92c7, 0xfe99f8b5fad410a7, 275]),
    ("ba/s2/hashed/r4", [0x935487607c54d14e, 0x094e5d1f8db8c306, 0xfe99f8b5fad410a7, 275]),
    ("sw/s1/block/r1", [0x4bc8717602d47e28, 0x0532e8b90ebd6f67, 0x725c046836fc75a6, 288]),
    ("sw/s1/block/r2", [0x4bc8717602d47e28, 0x6aab2cc29feb9a27, 0x725c046836fc75a6, 288]),
    ("sw/s1/block/r3", [0x4bc8717602d47e28, 0xd6caf427f5d4d5a6, 0x725c046836fc75a6, 288]),
    ("sw/s1/block/r4", [0x4bc8717602d47e28, 0x2144385cc1991746, 0x725c046836fc75a6, 288]),
    ("sw/s1/cyclic/r1", [0x4bc8717602d47e28, 0x0532e8b90ebd6f67, 0x725c046836fc75a6, 288]),
    ("sw/s1/cyclic/r2", [0x4bc8717602d47e28, 0x43df75892a261b46, 0x725c046836fc75a6, 288]),
    ("sw/s1/cyclic/r3", [0x4bc8717602d47e28, 0x1e53474db9d84cc6, 0x725c046836fc75a6, 288]),
    ("sw/s1/cyclic/r4", [0x4bc8717602d47e28, 0xf8fc59e8cd82eb27, 0x725c046836fc75a6, 288]),
    ("sw/s1/hashed/r1", [0x4bc8717602d47e28, 0x0532e8b90ebd6f67, 0x725c046836fc75a6, 288]),
    ("sw/s1/hashed/r2", [0x4bc8717602d47e28, 0xa8a4ef3dff49bfa7, 0x725c046836fc75a6, 288]),
    ("sw/s1/hashed/r3", [0x4bc8717602d47e28, 0x441f755ea967c3e7, 0x725c046836fc75a6, 288]),
    ("sw/s1/hashed/r4", [0x4bc8717602d47e28, 0x542ed8d82b173287, 0x725c046836fc75a6, 288]),
    ("sw/s2/block/r1", [0xc6b2efb9e5823c12, 0x2be5ed93658d2525, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/block/r2", [0xc6b2efb9e5823c12, 0x2be5ed93658d2525, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/block/r3", [0xc6b2efb9e5823c12, 0xe204963923de8064, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/block/r4", [0xc6b2efb9e5823c12, 0xe204963923de8064, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/cyclic/r1", [0xc6b2efb9e5823c12, 0x2be5ed93658d2525, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/cyclic/r2", [0xc6b2efb9e5823c12, 0x229e89da8a475585, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/cyclic/r3", [0xc6b2efb9e5823c12, 0x8f9f0200530e6b65, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/cyclic/r4", [0xc6b2efb9e5823c12, 0xdcb67febb15c3ce5, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/hashed/r1", [0xc6b2efb9e5823c12, 0x2be5ed93658d2525, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/hashed/r2", [0xc6b2efb9e5823c12, 0x1d35235c0b740be5, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/hashed/r3", [0xc6b2efb9e5823c12, 0x023c36e2b90e5845, 0xe69ed366f2dfb584, 294]),
    ("sw/s2/hashed/r4", [0xc6b2efb9e5823c12, 0x7d8f48958a45f205, 0xe69ed366f2dfb584, 294]),
    ("crawl/s1/block/r1", [0x4a9395de14388e3d, 0xe6ed08bb43aaf5a7, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/block/r2", [0x4a9395de14388e3d, 0xeb9d1f10f50a15e7, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/block/r3", [0x4a9395de14388e3d, 0x50ad994f09b4c347, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/block/r4", [0x4a9395de14388e3d, 0x59ee118ead9464a7, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/cyclic/r1", [0x4a9395de14388e3d, 0xe6ed08bb43aaf5a7, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/cyclic/r2", [0x4a9395de14388e3d, 0xcaf0371faae835c6, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/cyclic/r3", [0x4a9395de14388e3d, 0x4314f52242195566, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/cyclic/r4", [0x4a9395de14388e3d, 0x8657a53e36c31146, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/hashed/r1", [0x4a9395de14388e3d, 0xe6ed08bb43aaf5a7, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/hashed/r2", [0x4a9395de14388e3d, 0x8414fb804f8878c6, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/hashed/r3", [0x4a9395de14388e3d, 0x5de3a54cb46d6a87, 0x509b85ddb1057b46, 276]),
    ("crawl/s1/hashed/r4", [0x4a9395de14388e3d, 0x21a6329342a941a7, 0x509b85ddb1057b46, 276]),
    ("crawl/s2/block/r1", [0x92a06c09df9f6d8f, 0x0cc772c521c9dba6, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/block/r2", [0x92a06c09df9f6d8f, 0x0cc772c521c9dba6, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/block/r3", [0x92a06c09df9f6d8f, 0x8f0140b230672986, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/block/r4", [0x92a06c09df9f6d8f, 0x0cc772c521c9dba6, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/cyclic/r1", [0x92a06c09df9f6d8f, 0x0cc772c521c9dba6, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/cyclic/r2", [0x92a06c09df9f6d8f, 0x44dc814e2b1e5c26, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/cyclic/r3", [0x92a06c09df9f6d8f, 0xb2c99d601d05dd86, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/cyclic/r4", [0x92a06c09df9f6d8f, 0x0c5a5cfeb397b326, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/hashed/r1", [0x92a06c09df9f6d8f, 0x0cc772c521c9dba6, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/hashed/r2", [0x92a06c09df9f6d8f, 0x8f740474fcfc6586, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/hashed/r3", [0x92a06c09df9f6d8f, 0x10cf5c375798c0a6, 0x2eb43e93092865c7, 286]),
    ("crawl/s2/hashed/r4", [0x92a06c09df9f6d8f, 0xb637f4494ff0c2e6, 0x2eb43e93092865c7, 286]),
];
