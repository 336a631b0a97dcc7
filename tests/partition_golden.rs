//! Golden oracle for the label-propagation pass drivers.
//!
//! Every partition, sweep count, scored-vertex count and per-stage breakdown the serial
//! PuLP and distributed XtraPuLP drivers produce on three small hand-built graphs — and,
//! for the distributed runs, how many collectives they issued and how many payload bytes
//! they sent — is pinned to a committed constant, across the whole schedule surface: {serial PuLP,
//! XtraPuLP on 1/2/4 ranks} × {edge stage on/off} × {cold, warm-touched, warm-blind, warm
//! from an over-target seed that falls back to the cold schedule}. A refactor of the
//! drivers that moves one collective, one tie-break or one sweep changes a row here, so
//! tier-1 itself proves such a refactor is bit-identical. Every key still names the
//! `frontier` sweeps it pins: the rows were recorded beside a legacy full-sweep mode the
//! library no longer has.
//!
//! The graphs are built by hand (no generator crate in the loop) so the table only moves
//! when the partitioner does:
//!
//! * `grid` — a 20×20 mesh, the well-behaved case;
//! * `isolated` — a mesh plus isolated vertices and two-vertex components, which label
//!   propagation cannot reach, so the distributed vertex-balance spill path moves them;
//! * `hub` — one hub whose degree alone exceeds the per-part arc target glued to a mesh
//!   and a second star, so the edge target is unreachable (edge-balance stall
//!   detection) and the vertex target needs the explicit final rebalance.
//!
//! After an *intentional* behaviour change, regenerate the table with
//! `cargo test --release --test partition_golden -- --ignored --nocapture print_golden_table`
//! and paste it over `GOLDEN` in the same PR, saying why it moved.

use xtrapulp::partitioner::assemble_gathered_parts;
use xtrapulp::{
    run_xtrapulp_job, try_pulp_run, try_xtrapulp_partition, GraphSource, PartitionParams,
    StageBreakdown,
};
use xtrapulp_comm::Runtime;
use xtrapulp_graph::{csr_from_edges, Csr, DistGraph, Distribution, LocalId, UNASSIGNED};

/// `w × h` mesh edges over vertex ids `base..base + w*h`.
fn mesh(base: u64, w: u64, h: u64, edges: &mut Vec<(u64, u64)>) {
    for y in 0..h {
        for x in 0..w {
            let id = base + y * w + x;
            if x + 1 < w {
                edges.push((id, id + 1));
            }
            if y + 1 < h {
                edges.push((id, id + w));
            }
        }
    }
}

struct Fixture {
    name: &'static str,
    csr: Csr,
    num_parts: usize,
    seed: u64,
}

fn fixtures() -> Vec<Fixture> {
    let mut grid = Vec::new();
    mesh(0, 20, 20, &mut grid);

    // 14×14 mesh (0..196), 60 isolated vertices (196..256), 10 two-vertex components.
    let mut isolated = Vec::new();
    mesh(0, 14, 14, &mut isolated);
    for i in 0..10u64 {
        isolated.push((256 + 2 * i, 257 + 2 * i));
    }

    // Hub 0 with 150 leaves (1..=150, chained in pairs), a second star 151 with 40
    // leaves (152..=191), a 10×10 mesh (192..292) and glue edges between the three.
    let mut hub = Vec::new();
    for leaf in 1..=150u64 {
        hub.push((0, leaf));
        if leaf % 2 == 0 {
            hub.push((leaf - 1, leaf));
        }
    }
    for leaf in 152..=191u64 {
        hub.push((151, leaf));
    }
    mesh(192, 10, 10, &mut hub);
    hub.push((1, 192));
    hub.push((152, 291));
    hub.push((150, 151));

    vec![
        Fixture {
            name: "grid",
            csr: csr_from_edges(400, &grid),
            num_parts: 4,
            seed: 5,
        },
        Fixture {
            name: "isolated",
            csr: csr_from_edges(276, &isolated),
            num_parts: 6,
            seed: 11,
        },
        Fixture {
            name: "hub",
            csr: csr_from_edges(292, &hub),
            num_parts: 8,
            seed: 23,
        },
    ]
}

/// What one run is pinned on: FNV-1a of the part vector, `lp_sweeps`,
/// `vertices_scored`, the six [`StageBreakdown`] fields in declaration order, then the
/// collectives one rank issued and the payload bytes all ranks sent (both zero for
/// serial PuLP). A cold run counts its graph's distribution too; a warm run is a
/// `run_xtrapulp_job` over rank graphs built before it, as a dynamic session keeps them,
/// and counts the job alone.
type Row = [u64; 11];

fn fnv1a(parts: &[i32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parts {
        for b in p.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn row(parts: &[i32], sweeps: u64, scored: u64, s: StageBreakdown, comm: [u64; 2]) -> Row {
    [
        fnv1a(parts),
        sweeps,
        scored,
        s.refine_sweeps,
        s.refine_scored,
        s.balance_sweeps,
        s.balance_scored,
        s.churn_sweeps,
        s.churn_scored,
        comm[0],
        comm[1],
    ]
}

type Warm<'a> = Option<(&'a [i32], Option<&'a [u64]>)>;

/// One run on `backend` ranks (`0` = serial PuLP), reduced to its golden row.
fn run(csr: &Csr, backend: usize, params: &PartitionParams, warm: Warm<'_>) -> Row {
    if backend == 0 {
        let out = try_pulp_run(csr, params, warm).expect("valid serial run");
        return row(
            &out.parts,
            out.stats.sweeps,
            out.stats.vertices_scored,
            out.stats.stages,
            [0, 0],
        );
    }
    let mut runtime = Runtime::new(backend);
    if warm.is_some() {
        let graphs = runtime.execute(|ctx| DistGraph::from_csr(ctx, Distribution::Block, csr));
        let out = run_xtrapulp_job(
            &mut runtime,
            GraphSource::Ranks(&graphs),
            params,
            warm,
            None,
        )
        .expect("valid distributed run");
        // Every rank issues the same collectives; the job's count sums the ranks.
        let collectives = out.comm.collectives;
        assert_eq!(
            collectives % backend as u64,
            0,
            "ranks disagree on the collectives"
        );
        let comm = [collectives / backend as u64, out.comm.bytes_sent];
        return row(
            &out.parts,
            out.lp_sweeps,
            out.vertices_scored,
            out.stages,
            comm,
        );
    }
    let per_rank = runtime.execute(|ctx| {
        let graph = DistGraph::from_csr(ctx, Distribution::Block, csr);
        let result = try_xtrapulp_partition(ctx, &graph, params).expect("valid distributed run");
        let pairs: Vec<(u64, i32)> = (0..graph.n_owned())
            .map(|v| (graph.global_id(v as LocalId), result.parts[v]))
            .collect();
        (
            pairs,
            (result.lp_sweeps, result.vertices_scored, result.stages),
            (ctx.stats().collectives(), ctx.stats().bytes_sent()),
        )
    });
    let counters = per_rank[0].1;
    assert!(
        per_rank
            .iter()
            .all(|(_, c, comm)| *c == counters && comm.0 == per_rank[0].2 .0),
        "ranks disagree on the reduced counters or the collective sequence"
    );
    let comm = [
        per_rank[0].2 .0,
        per_rank.iter().map(|(_, _, comm)| comm.1).sum(),
    ];
    let pairs = per_rank.into_iter().map(|(pairs, _, _)| pairs).collect();
    let parts = assemble_gathered_parts(csr.num_vertices(), params.num_parts, pairs)
        .expect("every vertex claimed");
    row(&parts, counters.0, counters.1, counters.2, comm)
}

/// The warm seeds of a fixture, derived from `cold` (a converged partition of it): a
/// lightly relabelled one, the same with two vertices arriving unassigned, the touched
/// set describing both perturbations, and one with a part far over the vertex target.
struct Seeds {
    rotated: Vec<i32>,
    with_unassigned: Vec<i32>,
    touched: Vec<u64>,
    over_target: Vec<i32>,
}

fn seeds(cold: &[i32]) -> Seeds {
    let n = cold.len();
    // Every 37th vertex takes the label of the next such vertex, so the label multiset
    // (hence the vertex balance) is preserved.
    let touched: Vec<u64> = (0..n as u64).filter(|v| v % 37 == 3).collect();
    let mut rotated = cold.to_vec();
    for (i, &v) in touched.iter().enumerate() {
        rotated[v as usize] = cold[touched[(i + 1) % touched.len()] as usize];
    }
    let mut with_unassigned = rotated.clone();
    with_unassigned[touched[0] as usize] = UNASSIGNED;
    with_unassigned[touched[touched.len() / 2] as usize] = UNASSIGNED;
    // Half of part 1 dumped into part 0.
    let over_target = cold
        .iter()
        .enumerate()
        .map(|(v, &x)| if x == 1 && v % 2 == 0 { 0 } else { x })
        .collect();
    Seeds {
        rotated,
        with_unassigned,
        touched,
        over_target,
    }
}

const BACKENDS: [(usize, &str); 4] = [(0, "pulp"), (1, "x1"), (2, "x2"), (4, "x4")];
const STARTS: [&str; 4] = ["cold", "warm_touched", "warm_blind", "warm_over"];

/// Every case of the matrix, in table order, as `(key, row)`.
fn measure() -> Vec<(String, Row)> {
    let mut out = Vec::new();
    for fx in fixtures() {
        let base = PartitionParams {
            num_parts: fx.num_parts,
            seed: fx.seed,
            ..Default::default()
        };
        let cold = try_pulp_run(&fx.csr, &base, None).expect("seed run").parts;
        let seeds = seeds(&cold);
        for (backend, backend_name) in BACKENDS {
            for (edge_stage, edge_name) in [(true, "mm"), (false, "single")] {
                let params = PartitionParams {
                    edge_balance_stage: edge_stage,
                    ..base
                };
                for start in STARTS {
                    let warm: Warm<'_> = match start {
                        "cold" => None,
                        "warm_touched" => Some((&seeds.with_unassigned, Some(&seeds.touched))),
                        "warm_blind" => Some((&seeds.rotated, None)),
                        _ => Some((&seeds.over_target, Some(&seeds.touched))),
                    };
                    out.push((
                        format!("{}/{backend_name}/frontier/{edge_name}/{start}", fx.name),
                        run(&fx.csr, backend, &params, warm),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn partitions_and_work_counters_match_the_golden_table() {
    let measured = measure();
    assert_eq!(measured.len(), GOLDEN.len(), "case matrix changed shape");
    let mut mismatches = Vec::new();
    for ((key, got), (want_key, want)) in measured.iter().zip(GOLDEN) {
        assert_eq!(key, want_key, "case matrix changed order");
        if got != want {
            mismatches.push(format!("  {key}\n    want {want:?}\n    got  {got:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} golden rows moved (columns: part-vector hash, lp_sweeps, vertices_scored, \
         refine sweeps/scored, balance sweeps/scored, churn sweeps/scored, collectives, \
         payload bytes):\n{}",
        mismatches.len(),
        GOLDEN.len(),
        mismatches.join("\n")
    );
}

/// The table is only an oracle for the paths it reaches: check from the stage
/// breakdown that the warm rows split into refine-only runs and cold-schedule
/// fallbacks, and that the distributed backends really differ from each other.
#[test]
fn golden_table_covers_both_warm_regimes_and_every_backend() {
    let balance_work = |r: &Row| r[5] + r[7];
    let find = |key: &str| {
        GOLDEN
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("no golden row {key}"))
    };
    for backend in ["pulp", "x1", "x2", "x4"] {
        let touched = find(&format!("grid/{backend}/frontier/mm/warm_touched"));
        assert_eq!(balance_work(touched), 0, "{backend}: refine-only warm run");
        assert!(
            touched[3] > 0,
            "{backend}: the perturbed seed needs refining"
        );
        let over = find(&format!("grid/{backend}/frontier/mm/warm_over"));
        assert!(
            balance_work(over) > 0,
            "{backend}: over-target seed falls back"
        );
        let scoped = find(&format!("grid/{backend}/frontier/mm/warm_touched"));
        let blind = find(&format!("grid/{backend}/frontier/mm/warm_blind"));
        assert!(
            scoped[2] < blind[2],
            "{backend}: touched-scoped run scores less"
        );
    }
    assert_ne!(
        find("isolated/x2/frontier/mm/cold")[0],
        find("isolated/x4/frontier/mm/cold")[0]
    );
}

#[test]
#[ignore = "prints the table to paste over GOLDEN after an intentional behaviour change"]
fn print_golden_table() {
    println!("const GOLDEN: &[(&str, Row)] = &[");
    for (key, row) in measure() {
        println!("    ({key:?}, {row:?}),");
    }
    println!("];");
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("grid/pulp/frontier/mm/cold", [11473717341554758919, 55, 11122, 42, 5922, 10, 4000, 3, 1200, 0, 0]),
    ("grid/pulp/frontier/mm/warm_touched", [15035215763687230181, 2, 27, 2, 27, 0, 0, 0, 0, 0, 0]),
    ("grid/pulp/frontier/mm/warm_blind", [15035215763687230181, 2, 409, 2, 409, 0, 0, 0, 0, 0, 0]),
    ("grid/pulp/frontier/mm/warm_over", [16834901188001357335, 45, 10382, 35, 6382, 5, 2000, 5, 2000, 0, 0]),
    ("grid/pulp/frontier/single/cold", [12272013350760290198, 19, 6454, 8, 2054, 10, 4000, 1, 400, 0, 0]),
    ("grid/pulp/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 0, 0]),
    ("grid/pulp/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 0, 0]),
    ("grid/pulp/frontier/single/warm_over", [14499762222189909956, 14, 4477, 7, 1677, 5, 2000, 2, 800, 0, 0]),
    ("grid/x1/frontier/mm/cold", [1864928048885372439, 38, 8967, 28, 4967, 5, 2000, 5, 2000, 102, 7552]),
    ("grid/x1/frontier/mm/warm_touched", [15035215763687230181, 2, 27, 2, 27, 0, 0, 0, 0, 12, 496]),
    ("grid/x1/frontier/mm/warm_blind", [15035215763687230181, 2, 409, 2, 409, 0, 0, 0, 0, 6, 472]),
    ("grid/x1/frontier/mm/warm_over", [4504300919241347367, 47, 10359, 37, 6359, 5, 2000, 5, 2000, 67, 5704]),
    ("grid/x1/frontier/single/cold", [8055622318017196740, 17, 4448, 10, 1648, 5, 2000, 2, 800, 72, 4600]),
    ("grid/x1/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 12, 336]),
    ("grid/x1/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 14, 696]),
    ("grid/x1/frontier/single/warm_over", [8020323062623794869, 10, 4000, 3, 1200, 5, 2000, 2, 800, 21, 928]),
    ("grid/x2/frontier/mm/cold", [5712355409435909316, 63, 13199, 36, 4799, 20, 8000, 1, 400, 127, 21640]),
    ("grid/x2/frontier/mm/warm_touched", [496311163282246918, 2, 32, 2, 32, 0, 0, 0, 0, 12, 1000]),
    ("grid/x2/frontier/mm/warm_blind", [11646049208776184135, 2, 414, 2, 414, 0, 0, 0, 0, 6, 952]),
    ("grid/x2/frontier/mm/warm_over", [16506951093904997559, 66, 14853, 37, 6053, 20, 8000, 2, 800, 89, 19520]),
    ("grid/x2/frontier/single/cold", [9221362700485100804, 18, 7200, 3, 1200, 15, 6000, 0, 0, 74, 9464]),
    ("grid/x2/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 12, 680]),
    ("grid/x2/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 14, 1400]),
    ("grid/x2/frontier/single/warm_over", [2275824727187733092, 18, 7200, 3, 1200, 15, 6000, 0, 0, 32, 5568]),
    ("grid/x4/frontier/mm/cold", [13570007233049075476, 79, 16416, 49, 7616, 20, 8000, 2, 800, 143, 51176]),
    ("grid/x4/frontier/mm/warm_touched", [496311163282246918, 2, 32, 2, 32, 0, 0, 0, 0, 12, 1992]),
    ("grid/x4/frontier/mm/warm_blind", [1779753635320526839, 2, 414, 2, 414, 0, 0, 0, 0, 6, 1896]),
    ("grid/x4/frontier/mm/warm_over", [2129270381860774103, 67, 14117, 47, 6917, 15, 6000, 3, 1200, 89, 34144]),
    ("grid/x4/frontier/single/cold", [1424592600079537764, 31, 8512, 16, 2512, 15, 6000, 0, 0, 86, 21080]),
    ("grid/x4/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 12, 1360]),
    ("grid/x4/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 14, 2808]),
    ("grid/x4/frontier/single/warm_over", [11571230074546515349, 26, 8437, 10, 2437, 15, 6000, 0, 0, 39, 11904]),
    ("isolated/pulp/frontier/mm/cold", [5251830912804164290, 15, 3870, 8, 1938, 5, 1380, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/mm/warm_touched", [15676612022221400833, 15, 3615, 9, 1959, 4, 1104, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/mm/warm_blind", [15676612022221400833, 25, 4999, 19, 3343, 4, 1104, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/mm/warm_over", [9108385079780718145, 20, 3965, 13, 2033, 5, 1380, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/single/cold", [5251830912804164290, 9, 2214, 5, 1110, 4, 1104, 0, 0, 0, 0]),
    ("isolated/pulp/frontier/single/warm_touched", [15676612022221400833, 9, 1959, 6, 1131, 3, 828, 0, 0, 0, 0]),
    ("isolated/pulp/frontier/single/warm_blind", [15676612022221400833, 19, 3343, 16, 2515, 3, 828, 0, 0, 0, 0]),
    ("isolated/pulp/frontier/single/warm_over", [9108385079780718145, 14, 2309, 10, 1205, 4, 1104, 0, 0, 0, 0]),
    ("isolated/x1/frontier/mm/cold", [6537745938969948194, 56, 8384, 43, 4796, 10, 2760, 3, 828, 110, 10952]),
    ("isolated/x1/frontier/mm/warm_touched", [9407210671345225394, 42, 6801, 32, 4041, 5, 1380, 5, 1380, 69, 7080]),
    ("isolated/x1/frontier/mm/warm_blind", [9407210671345225394, 42, 6801, 32, 4041, 5, 1380, 5, 1380, 64, 7064]),
    ("isolated/x1/frontier/mm/warm_over", [11603640501457466289, 63, 10387, 45, 5419, 15, 4140, 3, 828, 85, 10232]),
    ("isolated/x1/frontier/single/cold", [11371105621186010869, 14, 2821, 7, 889, 5, 1380, 2, 552, 59, 3344]),
    ("isolated/x1/frontier/single/warm_touched", [5429223973466503397, 13, 2774, 6, 842, 5, 1380, 2, 552, 31, 1504]),
    ("isolated/x1/frontier/single/warm_blind", [5429223973466503397, 13, 2774, 6, 842, 5, 1380, 2, 552, 26, 1488]),
    ("isolated/x1/frontier/single/warm_over", [14025303390589487493, 15, 3065, 8, 1133, 5, 1380, 2, 552, 28, 1616]),
    ("isolated/x2/frontier/mm/cold", [15128585626503472787, 58, 10032, 33, 3960, 20, 5520, 2, 552, 112, 20200]),
    ("isolated/x2/frontier/mm/warm_touched", [17757572807620701140, 88, 13778, 62, 6878, 25, 6900, 0, 0, 116, 27656]),
    ("isolated/x2/frontier/mm/warm_blind", [9410825482060064725, 75, 12426, 48, 5250, 25, 6900, 1, 276, 99, 26208]),
    ("isolated/x2/frontier/mm/warm_over", [15438410654329253476, 85, 14158, 55, 5878, 30, 8280, 0, 0, 108, 27776]),
    ("isolated/x2/frontier/single/cold", [5617485327235914406, 34, 5892, 17, 1752, 15, 4140, 0, 0, 79, 9576]),
    ("isolated/x2/frontier/single/warm_touched", [9604242851729335203, 35, 5927, 20, 1787, 15, 4140, 0, 0, 53, 7280]),
    ("isolated/x2/frontier/single/warm_blind", [8525366824388242695, 29, 5852, 14, 1712, 15, 4140, 0, 0, 42, 6808]),
    ("isolated/x2/frontier/single/warm_over", [2573782054835234644, 38, 6187, 23, 2047, 15, 4140, 0, 0, 51, 7816]),
    ("isolated/x4/frontier/mm/cold", [10719660571273392469, 86, 10768, 63, 4696, 20, 5520, 2, 552, 140, 58792]),
    ("isolated/x4/frontier/mm/warm_touched", [16681250938713298998, 85, 13373, 54, 6197, 25, 6900, 1, 276, 112, 55912]),
    ("isolated/x4/frontier/mm/warm_blind", [10894796766601473203, 93, 14983, 56, 6703, 30, 8280, 0, 0, 115, 61640]),
    ("isolated/x4/frontier/mm/warm_over", [16459993904831552837, 68, 11523, 40, 5451, 20, 5520, 2, 552, 90, 42888]),
    ("isolated/x4/frontier/single/cold", [11917903766191065042, 34, 6276, 18, 2136, 15, 4140, 0, 0, 79, 18464]),
    ("isolated/x4/frontier/single/warm_touched", [2285278950157086198, 29, 5909, 13, 1769, 15, 4140, 0, 0, 47, 13200]),
    ("isolated/x4/frontier/single/warm_blind", [14616593949950134068, 35, 6344, 19, 2204, 15, 4140, 0, 0, 48, 15312]),
    ("isolated/x4/frontier/single/warm_over", [17018921821142642851, 34, 6266, 18, 2126, 15, 4140, 0, 0, 47, 14888]),
    ("hub/pulp/frontier/mm/cold", [14282834400408843365, 48, 10998, 22, 3406, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/mm/warm_touched", [17966769319974481348, 51, 11406, 25, 3814, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/mm/warm_blind", [17966769319974481348, 51, 11406, 25, 3814, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/mm/warm_over", [3878551380195129844, 57, 11432, 31, 3840, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/single/cold", [11351176602493732497, 22, 5847, 7, 1467, 15, 4380, 0, 0, 0, 0]),
    ("hub/pulp/frontier/single/warm_touched", [8867957223613744563, 26, 6243, 11, 1863, 15, 4380, 0, 0, 0, 0]),
    ("hub/pulp/frontier/single/warm_blind", [8867957223613744563, 26, 6243, 11, 1863, 15, 4380, 0, 0, 0, 0]),
    ("hub/pulp/frontier/single/warm_over", [6877988856046683719, 26, 6243, 11, 1863, 15, 4380, 0, 0, 0, 0]),
    ("hub/x1/frontier/mm/cold", [6802950292517515509, 40, 8509, 26, 4421, 11, 3212, 3, 876, 84, 10376]),
    ("hub/x1/frontier/mm/warm_touched", [6154823749634903702, 71, 12700, 53, 7444, 15, 4380, 3, 876, 98, 14952]),
    ("hub/x1/frontier/mm/warm_blind", [6154823749634903702, 71, 12700, 53, 7444, 15, 4380, 3, 876, 93, 14936]),
    ("hub/x1/frontier/mm/warm_over", [16729901906579730480, 62, 11109, 44, 5853, 15, 4380, 3, 876, 84, 12680]),
    ("hub/x1/frontier/single/cold", [2527281484141998546, 18, 4058, 11, 2014, 5, 1460, 2, 584, 55, 4640]),
    ("hub/x1/frontier/single/warm_touched", [12106286836607087127, 15, 3719, 8, 1675, 5, 1460, 2, 584, 33, 2064]),
    ("hub/x1/frontier/single/warm_blind", [12106286836607087127, 15, 3719, 8, 1675, 5, 1460, 2, 584, 28, 2048]),
    ("hub/x1/frontier/single/warm_over", [13660001892596912823, 18, 3935, 11, 1891, 5, 1460, 2, 584, 31, 2288]),
    ("hub/x2/frontier/mm/cold", [17901351699918536916, 75, 13426, 49, 5834, 25, 7300, 1, 292, 123, 30956]),
    ("hub/x2/frontier/mm/warm_touched", [2622875087517459255, 79, 14604, 52, 7012, 25, 7300, 1, 292, 108, 29520]),
    ("hub/x2/frontier/mm/warm_blind", [582264993915615527, 70, 12577, 48, 6153, 20, 5840, 2, 584, 94, 27472]),
    ("hub/x2/frontier/mm/warm_over", [9517502069897785440, 57, 12754, 25, 3994, 30, 8760, 0, 0, 82, 23440]),
    ("hub/x2/frontier/single/cold", [3571653311046997926, 33, 7281, 18, 2901, 15, 4380, 0, 0, 71, 10660]),
    ("hub/x2/frontier/single/warm_touched", [3002779468887172468, 36, 7441, 20, 3061, 15, 4380, 0, 0, 54, 8336]),
    ("hub/x2/frontier/single/warm_blind", [16061051550238827889, 29, 6707, 14, 2327, 15, 4380, 0, 0, 44, 7744]),
    ("hub/x2/frontier/single/warm_over", [18072527849576746467, 25, 6325, 9, 1945, 15, 4380, 0, 0, 38, 6464]),
    ("hub/x4/frontier/mm/cold", [11899914104108218631, 62, 11813, 41, 6557, 15, 4380, 3, 876, 108, 54064]),
    ("hub/x4/frontier/mm/warm_touched", [17856262163531581463, 73, 11701, 51, 6445, 15, 4380, 3, 876, 101, 54840]),
    ("hub/x4/frontier/mm/warm_blind", [6146724425187117059, 78, 13484, 57, 8228, 15, 4380, 3, 876, 100, 58200]),
    ("hub/x4/frontier/mm/warm_over", [6545470244930721200, 74, 11771, 49, 6515, 15, 4380, 3, 876, 96, 53240]),
    ("hub/x4/frontier/single/cold", [8420956468790948631, 28, 6368, 15, 3156, 10, 2920, 1, 292, 65, 19968]),
    ("hub/x4/frontier/single/warm_touched", [13300241237928645894, 37, 5885, 26, 2673, 10, 2920, 1, 292, 55, 18120]),
    ("hub/x4/frontier/single/warm_blind", [7964012515169574802, 37, 7629, 25, 4417, 10, 2920, 1, 292, 50, 17768]),
    ("hub/x4/frontier/single/warm_over", [12252508687913101668, 40, 6044, 28, 2832, 10, 2920, 1, 292, 53, 19096]),
];
