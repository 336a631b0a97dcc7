//! # xtrapulp-spmv
//!
//! Distributed sparse matrix–vector multiplication (SpMV) with matrix distributions
//! derived from graph partitions, reproducing the Table III study of the paper.
//!
//! The matrix is the (unit-weight) adjacency matrix of a graph. Two distribution families
//! are provided, matching the paper's setup with the Trilinos/Epetra SpMV:
//!
//! * **1-D row distributions** ([`spmv_1d`]): each rank owns the rows (vertices) assigned
//!   to it by a partition — block, random, or a partitioner's output. Before every
//!   multiply, the x-vector entries of each rank's ghost columns are refreshed over the
//!   graph's halo plan; communication volume is proportional to the partition's cut.
//! * **2-D distributions** ([`spmv_2d`]): ranks are arranged in an `r × c` grid and each
//!   nonzero `(u, v)` is assigned to the rank at (row-group of `owner(u)`, column-group of
//!   `owner(v)`), following Boman, Devine and Rajamanickam's scheme for mapping 1-D
//!   partitions to 2-D distributions. The x-vector expand and y-vector fold are then
//!   confined to grid columns and rows respectively, which bounds the number of messages
//!   per rank by `r + c` instead of `p` and is what makes 2-D layouts win on skewed
//!   graphs.

use std::time::Instant;

use xtrapulp_comm::RankCtx;
use xtrapulp_graph::{DistGraph, Distribution};
use xtrapulp_graph::{GlobalId, HaloError, LocalId};

/// Result of a timed SpMV run on one rank (identical on all ranks after reduction).
#[derive(Debug, Clone, Copy)]
pub struct SpmvResult {
    /// Wall-clock seconds for all iterations (max over ranks).
    pub seconds: f64,
    /// Total bytes exchanged across ranks.
    pub comm_bytes: u64,
    /// Checksum of the final vector (for validation).
    pub checksum: f64,
}

/// Run `iterations` distributed SpMV operations `y = A x` with a 1-D row distribution
/// given by the graph's own vertex ownership. `x` starts as all-ones and is replaced by
/// `y` (normalised) after every iteration, as an iterative solver would. Fails only when a
/// peer's x-vector update names a ghost column this rank does not have.
pub fn spmv_1d(
    ctx: &RankCtx,
    graph: &DistGraph,
    iterations: usize,
) -> Result<SpmvResult, HaloError> {
    let n_owned = graph.n_owned();
    // x over every local column: owned first, ghosts after.
    let mut x = vec![1.0f64; graph.n_total()];
    let mut y = vec![0.0f64; n_owned];
    let bytes_before = ctx.stats().bytes_sent();
    let timer = Instant::now(); // lint: nondeterministic-ok — wall-clock feeds the SpMV report only
    for _ in 0..iterations {
        graph.refresh_ghosts(ctx, &mut x)?;
        for (v, y_v) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &u in graph.neighbors(v as LocalId) {
                acc += x[u as usize];
            }
            *y_v = acc;
        }
        // Normalise to keep values bounded across iterations.
        let local_norm: f64 = y.iter().map(|a| a * a).sum();
        let norm = ctx.allreduce_sum_f64(&[local_norm])[0].sqrt().max(1e-30);
        for (x_v, y_v) in x.iter_mut().zip(&y) {
            *x_v = y_v / norm;
        }
    }
    let seconds = ctx.allreduce_max_f64(&[timer.elapsed().as_secs_f64()])[0];
    let comm_bytes = ctx.allreduce_scalar_sum_u64(ctx.stats().bytes_sent_since(bytes_before));
    let checksum = ctx.allreduce_sum_f64(&[x[..n_owned].iter().sum::<f64>()])[0];
    Ok(SpmvResult {
        seconds,
        comm_bytes,
        checksum,
    })
}

/// A 2-D distributed sparse matrix built from a 1-D vertex partition.
#[derive(Debug, Clone)]
pub struct Matrix2d {
    /// Grid shape (rows, cols) with `rows * cols == nranks`.
    pub grid: (usize, usize),
    /// Local nonzeros as (row global id, column global id).
    nonzeros: Vec<(GlobalId, GlobalId)>,
    /// Owner (1-D) of every global vertex, shared by all ranks.
    owners: Vec<u32>,
    global_n: u64,
}

/// Choose a near-square process grid for `nranks`.
pub fn choose_grid(nranks: usize) -> (usize, usize) {
    let mut rows = (nranks as f64).sqrt().floor() as usize;
    while rows > 1 && !nranks.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), nranks / rows.max(1))
}

impl Matrix2d {
    /// Build the local block of the 2-D distribution on this rank. `parts` is the 1-D
    /// vertex partition (one rank id per global vertex); nonzero `(u, v)` goes to the rank
    /// at grid position `(row_group(parts[u]), col_group(parts[v]))`.
    pub fn build(
        ctx: &RankCtx,
        global_n: u64,
        edges: &[(GlobalId, GlobalId)],
        parts: &[i32],
    ) -> Matrix2d {
        let nranks = ctx.nranks();
        let grid = choose_grid(nranks);
        let owners: Vec<u32> = parts
            .iter()
            .map(|&p| (p.max(0) as u32).min(nranks as u32 - 1))
            .collect();
        let my_row = ctx.rank() / grid.1;
        let my_col = ctx.rank() % grid.1;
        let mut nonzeros = Vec::new();
        for &(u, v) in edges {
            if u == v || u >= global_n || v >= global_n {
                continue;
            }
            // The adjacency matrix is symmetric: both (u, v) and (v, u) are nonzeros.
            for &(r, c) in &[(u, v), (v, u)] {
                let owner_r = owners[r as usize] as usize;
                let owner_c = owners[c as usize] as usize;
                if owner_r / grid.1 == my_row && owner_c % grid.1 == my_col {
                    nonzeros.push((r, c));
                }
            }
        }
        // The adjacency matrix is a 0/1 matrix: duplicate edges in the input collapse to
        // a single nonzero, matching the deduplication `DistGraph` performs for the 1-D
        // path.
        nonzeros.sort_unstable();
        nonzeros.dedup();
        Matrix2d {
            grid,
            nonzeros,
            owners,
            global_n,
        }
    }

    /// Number of matrix rows/columns (global vertices).
    pub fn num_vertices(&self) -> u64 {
        self.global_n
    }
}

/// Run `iterations` SpMV operations with the 2-D distribution. The x and y vectors stay
/// distributed by the 1-D partition (`owners`); each iteration expands x entries to the
/// ranks whose column block needs them and folds partial y sums back to the row owners.
pub fn spmv_2d(ctx: &RankCtx, matrix: &Matrix2d, iterations: usize) -> SpmvResult {
    let nranks = ctx.nranks();
    let rank = ctx.rank();
    let owners = &matrix.owners;
    // Vector entries owned by this rank (by the 1-D partition).
    let my_vertices: Vec<GlobalId> = (0..matrix.global_n)
        .filter(|&v| owners[v as usize] as usize == rank)
        .collect();
    let index_of: std::collections::HashMap<GlobalId, usize> = my_vertices
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let mut x = vec![1.0f64; my_vertices.len()];

    // Columns this rank needs (expand list) and rows it produces partials for (fold list).
    let needed_cols: Vec<GlobalId> = {
        let mut cols: Vec<GlobalId> = matrix.nonzeros.iter().map(|&(_, c)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    let produced_rows: Vec<GlobalId> = {
        let mut rows: Vec<GlobalId> = matrix.nonzeros.iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    };

    let bytes_before = ctx.stats().bytes_sent();
    let timer = Instant::now(); // lint: nondeterministic-ok — wall-clock feeds the SpMV report only
    for _ in 0..iterations {
        // Expand: request the x value of every needed column from its 1-D owner.
        let mut requests: Vec<Vec<GlobalId>> = vec![Vec::new(); nranks];
        for &c in &needed_cols {
            requests[owners[c as usize] as usize].push(c);
        }
        let incoming = ctx.alltoallv(requests.clone());
        let replies: Vec<Vec<f64>> = incoming
            .iter()
            .map(|req| req.iter().map(|&c| x[index_of[&c]]).collect())
            .collect();
        let answered = ctx.alltoallv(replies);
        let mut col_value: std::collections::HashMap<GlobalId, f64> =
            std::collections::HashMap::with_capacity(needed_cols.len());
        for (owner, values) in answered.into_iter().enumerate() {
            for (c, val) in requests[owner].iter().zip(values) {
                col_value.insert(*c, val);
            }
        }
        // Local multiply into partial row sums.
        let mut partial: std::collections::HashMap<GlobalId, f64> =
            std::collections::HashMap::with_capacity(produced_rows.len());
        for &(r, c) in &matrix.nonzeros {
            *partial.entry(r).or_insert(0.0) += col_value[&c];
        }
        // Fold: send partial sums to the 1-D owners of the rows.
        let mut fold_sends: Vec<Vec<(GlobalId, f64)>> = vec![Vec::new(); nranks];
        for (&r, &value) in &partial {
            fold_sends[owners[r as usize] as usize].push((r, value));
        }
        let folded = ctx.alltoallv(fold_sends);
        let mut y = vec![0.0f64; my_vertices.len()];
        for buf in folded {
            for (r, value) in buf {
                y[index_of[&r]] += value;
            }
        }
        let local_norm: f64 = y.iter().map(|a| a * a).sum();
        let norm = ctx.allreduce_sum_f64(&[local_norm])[0].sqrt().max(1e-30);
        for value in y.iter_mut() {
            *value /= norm;
        }
        x = y;
    }
    let seconds = ctx.allreduce_max_f64(&[timer.elapsed().as_secs_f64()])[0];
    let comm_bytes = ctx.allreduce_scalar_sum_u64(ctx.stats().bytes_sent_since(bytes_before));
    let checksum = ctx.allreduce_sum_f64(&[x.iter().sum::<f64>()])[0];
    SpmvResult {
        seconds,
        comm_bytes,
        checksum,
    }
}

/// Convenience: build a [`DistGraph`] whose ownership follows `parts` and run the 1-D
/// SpMV on it.
pub fn spmv_1d_with_partition(
    ctx: &RankCtx,
    global_n: u64,
    edges: &[(GlobalId, GlobalId)],
    parts: &[i32],
    iterations: usize,
) -> Result<SpmvResult, HaloError> {
    let dist = Distribution::from_parts(parts);
    let graph = DistGraph::from_shared_edges(ctx, dist, global_n, edges);
    spmv_1d(ctx, &graph, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp::baselines;
    use xtrapulp_comm::Runtime;
    use xtrapulp_gen::{GraphConfig, GraphKind};

    fn test_graph() -> (u64, Vec<(GlobalId, GlobalId)>) {
        let el = GraphConfig::new(
            GraphKind::SmallWorld {
                num_vertices: 256,
                k: 3,
                rewire_probability: 0.1,
            },
            5,
        )
        .generate();
        (el.num_vertices, el.edges)
    }

    #[test]
    fn one_d_and_two_d_spmv_agree_on_checksum() {
        let (n, edges) = test_graph();
        let nranks = 4;
        let parts = baselines::random_partition(n, nranks, 3);
        let out = Runtime::new(nranks).execute(|ctx| {
            let r1 = spmv_1d_with_partition(ctx, n, &edges, &parts, 5).unwrap();
            let m = Matrix2d::build(ctx, n, &edges, &parts);
            let r2 = spmv_2d(ctx, &m, 5);
            (r1.checksum, r2.checksum)
        });
        for (c1, c2) in out {
            assert!(
                (c1 - c2).abs() < 1e-6,
                "1-D ({c1}) and 2-D ({c2}) SpMV disagree"
            );
        }
    }

    #[test]
    fn spmv_matches_across_rank_counts() {
        let (n, edges) = test_graph();
        let reference = Runtime::new(1).execute(|ctx| {
            let parts = vec![0i32; n as usize];
            spmv_1d_with_partition(ctx, n, &edges, &parts, 4)
                .unwrap()
                .checksum
        })[0];
        for nranks in [2usize, 4] {
            let parts = baselines::vertex_block_partition(n, nranks);
            let out = Runtime::new(nranks).execute(|ctx| {
                spmv_1d_with_partition(ctx, n, &edges, &parts, 4)
                    .unwrap()
                    .checksum
            });
            for c in out {
                assert!(
                    (c - reference).abs() < 1e-6,
                    "nranks={nranks}: {c} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn better_partitions_move_fewer_bytes_in_1d() {
        let (n, edges) = test_graph();
        let nranks = 4;
        let random = baselines::random_partition(n, nranks, 3);
        let block = baselines::vertex_block_partition(n, nranks);
        let run = |parts: &Vec<i32>| {
            Runtime::new(nranks).execute(|ctx| {
                spmv_1d_with_partition(ctx, n, &edges, parts, 3)
                    .unwrap()
                    .comm_bytes
            })[0]
        };
        // The small-world ring has strong locality, so contiguous blocks cut far fewer
        // edges than random placement and must communicate less.
        assert!(run(&block) < run(&random));
    }

    #[test]
    fn grid_choice_is_valid() {
        for nranks in 1..=17usize {
            let (r, c) = choose_grid(nranks);
            assert_eq!(r * c, nranks, "nranks={nranks}");
        }
        assert_eq!(choose_grid(16), (4, 4));
        assert_eq!(choose_grid(8), (2, 4));
    }

    #[test]
    fn comm_accounting_saturates_instead_of_wrapping() {
        // Counters reset between the `before` capture and the read: the delta must
        // clamp to zero, not panic (debug) or wrap to ~u64::MAX (release). Both SpMV
        // kernels account their traffic through this shared helper.
        let stats = xtrapulp_comm::CommStats::new();
        assert_eq!(stats.bytes_sent_since(1000), 0);
        assert_eq!(stats.bytes_sent_since(0), stats.bytes_sent());
    }

    #[test]
    fn matrix2d_covers_every_nonzero_exactly_once() {
        let (n, edges) = test_graph();
        let nranks = 6;
        let parts = baselines::vertex_block_partition(n, nranks);
        let out = Runtime::new(nranks)
            .execute(|ctx| Matrix2d::build(ctx, n, &edges, &parts).nonzeros.len() as u64);
        let total: u64 = out.iter().sum();
        // Each unique undirected edge contributes exactly two nonzeros.
        let unique: std::collections::BTreeSet<(u64, u64)> = edges
            .iter()
            .filter(|&&(u, v)| u != v && u < n && v < n)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        assert_eq!(total, unique.len() as u64 * 2);
    }
}
