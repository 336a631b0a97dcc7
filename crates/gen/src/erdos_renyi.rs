//! Erdős–Rényi uniform random graphs (the paper's `RandER` scaling graphs).
//!
//! We use the G(n, m) flavour: exactly `n * davg / 2` undirected edges with endpoints
//! chosen uniformly at random, which is how the paper's generator matches graph sizes
//! between RMAT, RandER and RandHD runs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::EdgeList;

/// Parameters of the Erdős–Rényi G(n, m) generator.
#[derive(Debug, Clone, Copy)]
pub struct ErdosRenyiConfig {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Average degree; the number of undirected edges is `num_vertices * avg_degree / 2`.
    pub avg_degree: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Generate a uniform random edge list.
pub fn generate(config: &ErdosRenyiConfig) -> EdgeList {
    let n = config.num_vertices;
    let m = n.saturating_mul(config.avg_degree) / 2;
    let chunk = 1u64 << 16;
    let mut edges = Vec::with_capacity(m as usize);
    for ci in 0..m.div_ceil(chunk) {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ ci.wrapping_mul(0xA24B_AED4));
        let count = chunk.min(m - ci * chunk);
        edges.extend((0..count).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
    }
    EdgeList {
        num_vertices: n,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_configuration() {
        let el = generate(&ErdosRenyiConfig {
            num_vertices: 1000,
            avg_degree: 10,
            seed: 1,
        });
        assert_eq!(el.num_vertices, 1000);
        assert_eq!(el.edges.len(), 5000);
        assert!(el.edges.iter().all(|&(u, v)| u < 1000 && v < 1000));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = ErdosRenyiConfig {
            num_vertices: 500,
            avg_degree: 8,
            seed: 42,
        };
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let el = generate(&ErdosRenyiConfig {
            num_vertices: 4096,
            avg_degree: 16,
            seed: 5,
        });
        let csr = el.to_csr();
        // Uniform random graphs have max degree within a small factor of the average.
        assert!(csr.max_degree() < 16 * 4);
        assert!(csr.avg_degree() > 10.0);
    }

    #[test]
    fn tiny_graph_does_not_panic() {
        let el = generate(&ErdosRenyiConfig {
            num_vertices: 1,
            avg_degree: 2,
            seed: 1,
        });
        assert_eq!(el.num_vertices, 1);
        // All edges are self loops on vertex 0, removed downstream.
        assert!(el.to_csr().num_edges() == 0);
    }
}
