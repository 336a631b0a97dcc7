//! The paper's high-diameter random graph construction (`RandHD`).
//!
//! Quoting the experimental setup: "for a vertex with identifier `k`, we add `davg`
//! edges connecting it to vertices chosen uniform randomly from the interval
//! `(k − davg, k + davg)`". The resulting graph is locally random but globally
//! path-like, so it has a large diameter and — crucially for the scaling analysis — a
//! very low edge cut under block distributions, which is why the paper's RandHD runs are
//! the fastest of the Blue Waters experiments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::EdgeList;

/// Parameters of the RandHD generator.
#[derive(Debug, Clone, Copy)]
pub struct RandHdConfig {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of edges added per vertex, and the half-width of the local window.
    pub avg_degree: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Generate a RandHD edge list.
pub fn generate(config: &RandHdConfig) -> EdgeList {
    let n = config.num_vertices;
    let d = config.avg_degree.max(1) as i64;
    let mut edges = Vec::with_capacity(n.saturating_mul(config.avg_degree) as usize);
    for k in 0..n {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ k.wrapping_mul(0x5851_F42D));
        for _ in 0..config.avg_degree {
            let v = k as i64 + rng.gen_range(-d + 1..d);
            if (0..n as i64).contains(&v) && v != k as i64 {
                edges.push((k, v as u64));
            }
        }
    }
    EdgeList {
        num_vertices: n,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_graph::stats::approximate_diameter;

    #[test]
    fn edges_stay_in_local_window() {
        let cfg = RandHdConfig {
            num_vertices: 1000,
            avg_degree: 8,
            seed: 3,
        };
        let el = generate(&cfg);
        for &(u, v) in &el.edges {
            assert!((u as i64 - v as i64).abs() < 8);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = RandHdConfig {
            num_vertices: 500,
            avg_degree: 6,
            seed: 11,
        };
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn has_high_diameter() {
        // Compared with an R-MAT or ER graph of the same size (diameter < 10), the RandHD
        // diameter grows linearly with n / davg.
        let cfg = RandHdConfig {
            num_vertices: 2000,
            avg_degree: 8,
            seed: 2,
        };
        let csr = generate(&cfg).to_csr();
        let diam = approximate_diameter(&csr, 10, 1);
        assert!(diam > 100, "expected a path-like diameter, got {diam}");
    }

    #[test]
    fn average_degree_is_close_to_target() {
        let cfg = RandHdConfig {
            num_vertices: 5000,
            avg_degree: 16,
            seed: 9,
        };
        let csr = generate(&cfg).to_csr();
        // Duplicates and boundary clipping lose some edges; expect within 40% of 2*davg
        // (each vertex both initiates davg edges and receives some).
        assert!(csr.avg_degree() > 16.0 * 0.6);
    }
}
