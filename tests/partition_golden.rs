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
    ("grid/x1/frontier/mm/cold", [14040339210421737287, 46, 8702, 40, 6302, 1, 400, 5, 2000, 110, 8512]),
    ("grid/x1/frontier/mm/warm_touched", [15035215763687230181, 2, 27, 2, 27, 0, 0, 0, 0, 12, 496]),
    ("grid/x1/frontier/mm/warm_blind", [15035215763687230181, 2, 409, 2, 409, 0, 0, 0, 0, 6, 472]),
    ("grid/x1/frontier/mm/warm_over", [11534587240660124087, 48, 8384, 43, 6384, 1, 400, 4, 1600, 70, 5832]),
    ("grid/x1/frontier/single/cold", [13008326833107674663, 16, 2923, 13, 1723, 1, 400, 2, 800, 71, 4552]),
    ("grid/x1/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 12, 336]),
    ("grid/x1/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 14, 696]),
    ("grid/x1/frontier/single/warm_over", [8003885609803807878, 10, 2867, 7, 1667, 1, 400, 2, 800, 23, 944]),
    ("grid/x2/frontier/mm/cold", [18166870743806170247, 52, 11525, 45, 9525, 1, 400, 4, 1600, 116, 17464]),
    ("grid/x2/frontier/mm/warm_touched", [496311163282246918, 2, 32, 2, 32, 0, 0, 0, 0, 12, 1000]),
    ("grid/x2/frontier/mm/warm_blind", [11646049208776184135, 2, 414, 2, 414, 0, 0, 0, 0, 6, 952]),
    ("grid/x2/frontier/mm/warm_over", [2299418619103386693, 59, 10519, 51, 8519, 2, 800, 3, 1200, 81, 13984]),
    ("grid/x2/frontier/single/cold", [7725724213588637364, 11, 2837, 8, 1637, 1, 400, 2, 800, 66, 6680]),
    ("grid/x2/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 12, 680]),
    ("grid/x2/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 14, 1400]),
    ("grid/x2/frontier/single/warm_over", [11788873450213025495, 16, 3706, 13, 2506, 2, 800, 1, 400, 29, 2608]),
    ("grid/x4/frontier/mm/cold", [7005874258280704422, 59, 9798, 43, 7398, 1, 400, 5, 2000, 123, 36264]),
    ("grid/x4/frontier/mm/warm_touched", [496311163282246918, 2, 32, 2, 32, 0, 0, 0, 0, 12, 1992]),
    ("grid/x4/frontier/mm/warm_blind", [1779753635320526839, 2, 414, 2, 414, 0, 0, 0, 0, 6, 1896]),
    ("grid/x4/frontier/mm/warm_over", [15956491773251147239, 55, 8772, 39, 6772, 1, 400, 4, 1600, 77, 25992]),
    ("grid/x4/frontier/single/cold", [8038350647982524933, 13, 3648, 10, 2448, 1, 400, 2, 800, 68, 11664]),
    ("grid/x4/frontier/single/warm_touched", [11473717341554758919, 2, 52, 2, 52, 0, 0, 0, 0, 12, 1360]),
    ("grid/x4/frontier/single/warm_blind", [5791010637251899526, 10, 484, 10, 484, 0, 0, 0, 0, 14, 2808]),
    ("grid/x4/frontier/single/warm_over", [11559523954642921876, 20, 3896, 15, 2696, 1, 400, 2, 800, 33, 6312]),
    ("isolated/pulp/frontier/mm/cold", [5251830912804164290, 15, 3870, 8, 1938, 5, 1380, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/mm/warm_touched", [15676612022221400833, 15, 3615, 9, 1959, 4, 1104, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/mm/warm_blind", [15676612022221400833, 25, 4999, 19, 3343, 4, 1104, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/mm/warm_over", [9108385079780718145, 20, 3965, 13, 2033, 5, 1380, 2, 552, 0, 0]),
    ("isolated/pulp/frontier/single/cold", [5251830912804164290, 9, 2214, 5, 1110, 4, 1104, 0, 0, 0, 0]),
    ("isolated/pulp/frontier/single/warm_touched", [15676612022221400833, 9, 1959, 6, 1131, 3, 828, 0, 0, 0, 0]),
    ("isolated/pulp/frontier/single/warm_blind", [15676612022221400833, 19, 3343, 16, 2515, 3, 828, 0, 0, 0, 0]),
    ("isolated/pulp/frontier/single/warm_over", [9108385079780718145, 14, 2309, 10, 1205, 4, 1104, 0, 0, 0, 0]),
    ("isolated/x1/frontier/mm/cold", [2840937659344711159, 59, 8731, 50, 6247, 5, 1380, 4, 1104, 113, 11432]),
    ("isolated/x1/frontier/mm/warm_touched", [7330265935449212821, 32, 4538, 27, 3158, 1, 276, 4, 1104, 59, 5576]),
    ("isolated/x1/frontier/mm/warm_blind", [7330265935449212821, 32, 4538, 27, 3158, 1, 276, 4, 1104, 54, 5560]),
    ("isolated/x1/frontier/mm/warm_over", [9583172984088807888, 52, 8011, 43, 5527, 6, 1656, 3, 828, 74, 8664]),
    ("isolated/x1/frontier/single/cold", [13819500815372205652, 14, 2537, 11, 1709, 1, 276, 2, 552, 59, 3344]),
    ("isolated/x1/frontier/single/warm_touched", [3997373817233087908, 12, 2244, 9, 1416, 1, 276, 2, 552, 30, 1440]),
    ("isolated/x1/frontier/single/warm_blind", [3997373817233087908, 12, 2244, 9, 1416, 1, 276, 2, 552, 25, 1424]),
    ("isolated/x1/frontier/single/warm_over", [10390525910447868515, 13, 2513, 10, 1685, 1, 276, 2, 552, 26, 1488]),
    ("isolated/x2/frontier/mm/cold", [9285361814262147812, 55, 7367, 46, 4883, 6, 1656, 3, 828, 109, 21320]),
    ("isolated/x2/frontier/mm/warm_touched", [4224359027805402996, 79, 11504, 65, 8192, 10, 2760, 2, 552, 106, 24888]),
    ("isolated/x2/frontier/mm/warm_blind", [17184597084980897393, 71, 10186, 54, 6322, 12, 3312, 2, 552, 95, 24736]),
    ("isolated/x2/frontier/mm/warm_over", [10066304968100653830, 72, 10174, 52, 6310, 11, 3036, 3, 828, 94, 24184]),
    ("isolated/x2/frontier/single/cold", [7025516823083247474, 16, 2068, 13, 1240, 1, 276, 2, 552, 61, 6168]),
    ("isolated/x2/frontier/single/warm_touched", [15504208586140398244, 26, 3676, 22, 2572, 2, 552, 2, 552, 44, 5008]),
    ("isolated/x2/frontier/single/warm_blind", [1676530654152446469, 17, 2813, 14, 1985, 1, 276, 2, 552, 30, 3784]),
    ("isolated/x2/frontier/single/warm_over", [13081320901000326019, 18, 3380, 12, 2000, 3, 828, 2, 552, 31, 3968]),
    ("isolated/x4/frontier/mm/cold", [8991431622805261376, 89, 10909, 72, 7873, 9, 2484, 2, 552, 144, 51104]),
    ("isolated/x4/frontier/mm/warm_touched", [16009017745876850949, 62, 9076, 47, 5764, 9, 2484, 3, 828, 91, 40160]),
    ("isolated/x4/frontier/mm/warm_blind", [652840048120903414, 77, 10968, 61, 7104, 11, 3036, 3, 828, 119, 59352]),
    ("isolated/x4/frontier/mm/warm_over", [17095679008254026624, 79, 10570, 61, 7534, 9, 2484, 2, 552, 103, 50056]),
    ("isolated/x4/frontier/single/cold", [5570630679283926806, 48, 5333, 45, 4505, 2, 552, 1, 276, 93, 19376]),
    ("isolated/x4/frontier/single/warm_touched", [1310864593523012867, 24, 3483, 19, 2379, 2, 552, 2, 552, 42, 9432]),
    ("isolated/x4/frontier/single/warm_blind", [17838716152564008547, 22, 3238, 18, 2134, 2, 552, 2, 552, 35, 8912]),
    ("isolated/x4/frontier/single/warm_over", [420093256608707108, 27, 4052, 20, 2948, 3, 828, 1, 276, 40, 10224]),
    ("hub/pulp/frontier/mm/cold", [14282834400408843365, 48, 10998, 22, 3406, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/mm/warm_touched", [17966769319974481348, 51, 11406, 25, 3814, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/mm/warm_blind", [17966769319974481348, 51, 11406, 25, 3814, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/mm/warm_over", [3878551380195129844, 57, 11432, 31, 3840, 25, 7300, 1, 292, 0, 0]),
    ("hub/pulp/frontier/single/cold", [11351176602493732497, 22, 5847, 7, 1467, 15, 4380, 0, 0, 0, 0]),
    ("hub/pulp/frontier/single/warm_touched", [8867957223613744563, 26, 6243, 11, 1863, 15, 4380, 0, 0, 0, 0]),
    ("hub/pulp/frontier/single/warm_blind", [8867957223613744563, 26, 6243, 11, 1863, 15, 4380, 0, 0, 0, 0]),
    ("hub/pulp/frontier/single/warm_over", [6877988856046683719, 26, 6243, 11, 1863, 15, 4380, 0, 0, 0, 0]),
    ("hub/x1/frontier/mm/cold", [10076719733224738369, 51, 9489, 36, 5109, 12, 3504, 3, 876, 97, 12808]),
    ("hub/x1/frontier/mm/warm_touched", [13471877860488513110, 62, 10408, 47, 6028, 12, 3504, 3, 876, 89, 13720]),
    ("hub/x1/frontier/mm/warm_blind", [13471877860488513110, 62, 10408, 47, 6028, 12, 3504, 3, 876, 84, 13704]),
    ("hub/x1/frontier/mm/warm_over", [14881465214266313905, 66, 11820, 46, 5980, 18, 5256, 2, 584, 88, 13256]),
    ("hub/x1/frontier/single/cold", [12479514972181058645, 17, 3469, 13, 2301, 2, 584, 2, 584, 54, 4560]),
    ("hub/x1/frontier/single/warm_touched", [3280452696031128151, 10, 2503, 6, 1335, 2, 584, 2, 584, 28, 1664]),
    ("hub/x1/frontier/single/warm_blind", [3280452696031128151, 10, 2503, 6, 1335, 2, 584, 2, 584, 23, 1648]),
    ("hub/x1/frontier/single/warm_over", [9475983853470912695, 20, 3949, 15, 2489, 3, 876, 2, 584, 33, 2448]),
    ("hub/x2/frontier/mm/cold", [12191325257845353605, 74, 13985, 51, 7269, 22, 6424, 1, 292, 120, 28684]),
    ("hub/x2/frontier/mm/warm_touched", [16916983174161773414, 68, 12019, 50, 7055, 14, 4088, 3, 876, 96, 26304]),
    ("hub/x2/frontier/mm/warm_blind", [8645101728790531280, 70, 12854, 48, 6430, 21, 6132, 1, 292, 92, 28288]),
    ("hub/x2/frontier/mm/warm_over", [10329193585677248885, 78, 14223, 56, 7799, 21, 6132, 1, 292, 100, 28664]),
    ("hub/x2/frontier/single/cold", [3805292738051866436, 37, 6410, 29, 4074, 7, 2044, 1, 292, 74, 10764]),
    ("hub/x2/frontier/single/warm_touched", [10419875520764848470, 27, 5274, 20, 3522, 4, 1168, 2, 584, 45, 6296]),
    ("hub/x2/frontier/single/warm_blind", [13452464719417025191, 22, 4623, 15, 2579, 6, 1752, 1, 292, 35, 5608]),
    ("hub/x2/frontier/single/warm_over", [10927345897196741061, 33, 6398, 25, 4062, 7, 2044, 1, 292, 46, 7344]),
    ("hub/x4/frontier/mm/cold", [10454702637937708839, 81, 11884, 61, 8088, 11, 3212, 2, 584, 127, 60408]),
    ("hub/x4/frontier/mm/warm_touched", [1145876423386195376, 75, 13325, 48, 7193, 19, 5548, 2, 584, 102, 61640]),
    ("hub/x4/frontier/mm/warm_blind", [5727253790461779954, 66, 11181, 50, 7385, 9, 2628, 4, 1168, 88, 52320]),
    ("hub/x4/frontier/mm/warm_over", [12190288143577022290, 75, 12217, 48, 6377, 19, 5548, 1, 292, 98, 59304]),
    ("hub/x4/frontier/single/cold", [15805747263004620548, 47, 6717, 41, 4965, 6, 1752, 0, 0, 84, 26480]),
    ("hub/x4/frontier/single/warm_touched", [6087357029582864787, 23, 4830, 17, 3078, 4, 1168, 2, 584, 41, 11784]),
    ("hub/x4/frontier/single/warm_blind", [7506203066146544706, 25, 5119, 19, 3367, 4, 1168, 2, 584, 38, 12264]),
    ("hub/x4/frontier/single/warm_over", [8458830076560946850, 30, 5907, 21, 3279, 9, 2628, 0, 0, 43, 14720]),
];
