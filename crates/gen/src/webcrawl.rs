//! A web-crawl-like generator: planted host communities plus hub pages.
//!
//! Real hyperlink graphs (the paper's uk-*, it, sk, arabic, indochina and WDC12 graphs)
//! have two structural signatures that matter for partitioning experiments:
//!
//! 1. **Locality** — crawls are stored host-by-host, so consecutive vertex ids are
//!    heavily interlinked and a simple block partition already yields a modest edge cut
//!    (the paper measures 0.16 for WDC12 vertex-block vs ~1.0 for random placement).
//! 2. **Hubs** — a small set of pages (directories, front pages) have enormous degree,
//!    producing max degrees in the thousands.
//!
//! This generator plants communities of consecutive vertex ids with dense intra-community
//! links, adds a configurable fraction of inter-community links, and promotes a small
//! fraction of vertices to hubs that receive links from across the graph.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::EdgeList;

/// Parameters of the web-crawl proxy generator.
#[derive(Debug, Clone, Copy)]
pub struct WebCrawlConfig {
    /// Number of vertices (pages).
    pub num_vertices: u64,
    /// Average degree.
    pub avg_degree: u64,
    /// Number of consecutive vertices per planted community (host).
    pub community_size: u64,
    /// Fraction of edges that leave their community (0.05–0.15 matches real crawls).
    pub inter_community_fraction: f64,
    /// Fraction of vertices promoted to hubs (e.g. 0.001).
    pub hub_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebCrawlConfig {
    fn default() -> Self {
        WebCrawlConfig {
            num_vertices: 1 << 16,
            avg_degree: 16,
            community_size: 256,
            inter_community_fraction: 0.08,
            hub_fraction: 0.001,
            seed: 0xC0FFEE,
        }
    }
}

/// Generate a web-crawl-like edge list.
pub fn generate(config: &WebCrawlConfig) -> EdgeList {
    let n = config.num_vertices;
    let cs = config.community_size.max(2).min(n.max(2));
    let num_hubs = ((n as f64 * config.hub_fraction).ceil() as u64).max(1);
    let edges_per_vertex = (config.avg_degree / 2).max(1);

    let hub_link = (config.hub_fraction * 20.0).clamp(0.0, 0.1);
    let mut edges = Vec::with_capacity(n.saturating_mul(edges_per_vertex) as usize);
    for u in 0..n {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ u.wrapping_mul(0x2545_F491));
        let community_start = u / cs * cs;
        let community_end = (community_start + cs).min(n);
        for _ in 0..edges_per_vertex {
            let r: f64 = rng.gen();
            let v = if r < hub_link {
                // Link to a hub page anywhere in the graph.
                rng.gen_range(0..num_hubs) * (n / num_hubs).max(1)
            } else if r < config.inter_community_fraction {
                // Cross-community link.
                rng.gen_range(0..n)
            } else {
                // Intra-community link.
                rng.gen_range(community_start..community_end)
            };
            if v != u {
                edges.push((u, v));
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

    fn small_config() -> WebCrawlConfig {
        WebCrawlConfig {
            num_vertices: 4096,
            avg_degree: 16,
            community_size: 128,
            inter_community_fraction: 0.08,
            hub_fraction: 0.002,
            seed: 9,
        }
    }

    #[test]
    fn sizes_are_plausible() {
        let el = generate(&small_config());
        assert_eq!(el.num_vertices, 4096);
        let csr = el.to_csr();
        assert!(csr.avg_degree() > 8.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        assert_eq!(generate(&small_config()), generate(&small_config()));
    }

    #[test]
    fn block_partition_has_low_cut() {
        // The defining property of the crawl proxy: cutting the vertex range into
        // contiguous blocks cuts only a small fraction of the edges.
        let el = generate(&small_config());
        let csr = el.to_csr();
        let n = csr.num_vertices() as u64;
        let parts = 8u64;
        let block = n / parts;
        let mut cut = 0u64;
        for (u, v) in csr.edges() {
            if u / block != v / block {
                cut += 1;
            }
        }
        let ratio = cut as f64 / csr.num_edges() as f64;
        assert!(
            ratio < 0.35,
            "crawl proxy should have a low block-partition cut, got {ratio}"
        );
    }

    #[test]
    fn has_hub_vertices() {
        let el = generate(&small_config());
        let csr = el.to_csr();
        assert!(csr.max_degree() as f64 > csr.avg_degree() * 6.0);
    }
}
