//! R-MAT recursive matrix graph generator.
//!
//! The paper's synthetic power-law graphs (`rmat_22` … `rmat_28` and the Blue Waters
//! `RMAT` scaling graphs) follow the R-MAT model of Chakrabarti, Zhan and Faloutsos with
//! the Graph500 parameters `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`: each edge is placed
//! by recursively descending into one of the four quadrants of the adjacency matrix with
//! those probabilities. The result has a highly skewed degree distribution and a small
//! diameter — the properties that stress the partitioner's load balance.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::EdgeList;

/// Parameters of the R-MAT model.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of undirected edges per vertex.
    pub edge_factor: u64,
    /// Quadrant probability `a` (top-left).
    pub a: f64,
    /// Quadrant probability `b` (top-right).
    pub b: f64,
    /// Quadrant probability `c` (bottom-left).
    pub c: f64,
    /// RNG seed; the generator is fully deterministic given the seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500 reference parameters at the given scale and edge factor.
    pub fn graph500(scale: u32, edge_factor: u64, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }
}

/// Generate an R-MAT edge list.
pub fn generate(config: &RmatConfig) -> EdgeList {
    let n = 1u64 << config.scale;
    let m = n.saturating_mul(config.edge_factor);
    let d = 1.0 - config.a - config.b - config.c;
    assert!(
        d >= 0.0 && config.a >= 0.0 && config.b >= 0.0 && config.c >= 0.0,
        "R-MAT quadrant probabilities must be non-negative and sum to at most 1"
    );

    // Generate in chunks, each with an independent stream seeded by its index, so any
    // subset of chunks can be generated on its own.
    let chunk = 1u64 << 16;
    let thresholds = thresholds(config);
    let mut edges = Vec::with_capacity(m as usize);
    for ci in 0..m.div_ceil(chunk) {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ (ci.wrapping_mul(0x9E37_79B9)));
        let count = chunk.min(m - ci * chunk);
        edges.extend((0..count).map(|_| sample_edge(config.scale, thresholds, &mut rng)));
    }

    EdgeList {
        num_vertices: n,
        edges,
    }
}

/// The cumulative quadrant probabilities `a`, `a + b`, `a + b + c` as thresholds on the
/// 53-bit integer `k` behind a uniform draw `r = k / 2^53` (what `rng.gen::<f64>()`
/// returns): `r >= t` exactly when `k >= ceil(t * 2^53)`, so a draw is compared without
/// converting it.
fn thresholds(config: &RmatConfig) -> [u64; 3] {
    let ab = config.a + config.b;
    [config.a, ab, ab + config.c].map(|t| (t * (1u64 << 53) as f64).ceil() as u64)
}

/// One edge: from the top bit down, each level's draw picks a quadrant (`a`: neither bit,
/// `b`: `v`'s, `c`: `u`'s, `d`: both), so `u`'s bit is `r >= a + b` and `v`'s is the parity
/// of the three threshold tests. No per-level noise is added, unlike the Graph500
/// reference generator. The bits come from comparisons rather than branches, which the
/// draw would mispredict on most levels.
fn sample_edge(scale: u32, [ta, tab, tabc]: [u64; 3], rng: &mut SmallRng) -> (u64, u64) {
    let (mut u, mut v) = (0u64, 0u64);
    for _ in 0..scale {
        let k = rng.next_u64() >> 11;
        let (ge_a, ge_ab, ge_abc) = ((k >= ta) as u64, (k >= tab) as u64, (k >= tabc) as u64);
        u = u << 1 | ge_ab;
        v = v << 1 | (ge_a ^ ge_ab ^ ge_abc);
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_configuration() {
        let el = generate(&RmatConfig::graph500(10, 8, 1));
        assert_eq!(el.num_vertices, 1024);
        assert_eq!(el.edges.len(), 1024 * 8);
        assert!(el.edges.iter().all(|&(u, v)| u < 1024 && v < 1024));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(&RmatConfig::graph500(8, 4, 7));
        let b = generate(&RmatConfig::graph500(8, 4, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RmatConfig::graph500(8, 4, 7));
        let b = generate(&RmatConfig::graph500(8, 4, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // R-MAT graphs have a much larger max degree than an Erdős–Rényi graph of the
        // same size; check the skew qualitatively.
        let el = generate(&RmatConfig::graph500(12, 8, 3));
        let csr = el.to_csr();
        let avg = csr.avg_degree();
        assert!(
            csr.max_degree() as f64 > avg * 8.0,
            "expected a skewed degree distribution (max {} vs avg {avg})",
            csr.max_degree()
        );
    }

    #[test]
    fn integer_thresholds_decide_as_the_float_draw_does() {
        let scale = 0.5f64.powi(53);
        for t in [0.0, 0.05, 0.19, 0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 1.0] {
            let config = RmatConfig {
                a: t,
                b: 0.0,
                c: 0.0,
                ..RmatConfig::graph500(1, 1, 0)
            };
            let threshold = thresholds(&config)[0];
            let below = threshold.saturating_sub(2);
            for k in below..(threshold + 2).min(1 << 53) {
                assert_eq!(k as f64 * scale >= t, k >= threshold, "t {t}, k {k}");
            }
        }
    }

    #[test]
    fn zero_edge_factor_gives_empty_graph() {
        let el = generate(&RmatConfig::graph500(6, 0, 1));
        assert!(el.edges.is_empty());
        assert_eq!(el.num_vertices, 64);
    }
}
