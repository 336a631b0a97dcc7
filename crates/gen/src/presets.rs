//! Named, scaled-down stand-ins for the paper's evaluation graphs.
//!
//! Every experiment harness refers to graphs by the paper's names (`lj`, `friendster`,
//! `uk-2002`, `rmat_24`, `nlpkkt240`, `WDC12`, ...). A [`TableIPreset`] maps each name to
//! a generator configuration of the same *class* (social network, web crawl, synthetic
//! power-law, regular mesh) at a size that runs on a single machine. The per-class
//! ordering of results — which partitioner wins on which class, where quality collapses,
//! which graphs block-partition well — is the property the reproduction preserves.

use serde::{Deserialize, Serialize};

use crate::{ba, erdos_renyi, mesh, rand_hd, rmat, smallworld, webcrawl, EdgeList};

/// The graph class a preset belongs to (the four sections of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphClass {
    /// Online social and communication networks (lj, orkut, friendster, twitter, ...).
    Social,
    /// Hyperlink graphs / web crawls (uk-*, it, sk, arabic, wdc12-*, WDC12).
    Crawl,
    /// Synthetic R-MAT and random graphs (rmat_*, RMAT, RandER, RandHD).
    Synthetic,
    /// Regular scientific-computing meshes (InternalMeshX, nlpkktXXX).
    Mesh,
}

/// Which generator to use and with what shape parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// R-MAT with Graph500 quadrant probabilities.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Undirected edges per vertex.
        edge_factor: u64,
    },
    /// Erdős–Rényi G(n, m).
    ErdosRenyi {
        /// Number of vertices.
        num_vertices: u64,
        /// Average degree.
        avg_degree: u64,
    },
    /// The paper's high-diameter random construction.
    RandHd {
        /// Number of vertices.
        num_vertices: u64,
        /// Edges per vertex / window half-width.
        avg_degree: u64,
    },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// Number of vertices.
        num_vertices: u64,
        /// Edges added per vertex.
        edges_per_vertex: u64,
    },
    /// Watts–Strogatz small world.
    SmallWorld {
        /// Number of vertices.
        num_vertices: u64,
        /// Neighbours per side before rewiring.
        k: u64,
        /// Rewiring probability.
        rewire_probability: f64,
    },
    /// Planted-community web-crawl proxy.
    WebCrawl {
        /// Number of vertices.
        num_vertices: u64,
        /// Average degree.
        avg_degree: u64,
        /// Vertices per planted host community.
        community_size: u64,
    },
    /// 2-D grid (5-point or 9-point stencil).
    Grid2d {
        /// Grid width.
        width: u64,
        /// Grid height.
        height: u64,
        /// Use the 9-point stencil.
        diagonal: bool,
    },
    /// 3-D grid (7-point or 27-point stencil).
    Grid3d {
        /// Grid extent in x.
        nx: u64,
        /// Grid extent in y.
        ny: u64,
        /// Grid extent in z.
        nz: u64,
        /// Use the 27-point stencil.
        full: bool,
    },
}

/// A reproducible graph generation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Generator and shape.
    pub kind: GraphKind,
    /// RNG seed (ignored by the deterministic mesh generators).
    pub seed: u64,
}

impl GraphConfig {
    /// Create a configuration.
    pub fn new(kind: GraphKind, seed: u64) -> Self {
        GraphConfig { kind, seed }
    }

    /// Number of vertices this configuration will produce.
    pub fn num_vertices(&self) -> u64 {
        match self.kind {
            GraphKind::Rmat { scale, .. } => 1u64 << scale,
            GraphKind::ErdosRenyi { num_vertices, .. }
            | GraphKind::RandHd { num_vertices, .. }
            | GraphKind::BarabasiAlbert { num_vertices, .. }
            | GraphKind::SmallWorld { num_vertices, .. }
            | GraphKind::WebCrawl { num_vertices, .. } => num_vertices,
            GraphKind::Grid2d { width, height, .. } => width * height,
            GraphKind::Grid3d { nx, ny, nz, .. } => nx * ny * nz,
        }
    }

    /// Run the generator.
    pub fn generate(&self) -> EdgeList {
        match self.kind {
            GraphKind::Rmat { scale, edge_factor } => {
                rmat::generate(&rmat::RmatConfig::graph500(scale, edge_factor, self.seed))
            }
            GraphKind::ErdosRenyi {
                num_vertices,
                avg_degree,
            } => erdos_renyi::generate(&erdos_renyi::ErdosRenyiConfig {
                num_vertices,
                avg_degree,
                seed: self.seed,
            }),
            GraphKind::RandHd {
                num_vertices,
                avg_degree,
            } => rand_hd::generate(&rand_hd::RandHdConfig {
                num_vertices,
                avg_degree,
                seed: self.seed,
            }),
            GraphKind::BarabasiAlbert {
                num_vertices,
                edges_per_vertex,
            } => ba::generate(&ba::BaConfig {
                num_vertices,
                edges_per_vertex,
                seed: self.seed,
            }),
            GraphKind::SmallWorld {
                num_vertices,
                k,
                rewire_probability,
            } => smallworld::generate(&smallworld::SmallWorldConfig {
                num_vertices,
                k,
                rewire_probability,
                seed: self.seed,
            }),
            GraphKind::WebCrawl {
                num_vertices,
                avg_degree,
                community_size,
            } => webcrawl::generate(&webcrawl::WebCrawlConfig {
                num_vertices,
                avg_degree,
                community_size,
                inter_community_fraction: 0.08,
                hub_fraction: 0.001,
                seed: self.seed,
            }),
            GraphKind::Grid2d {
                width,
                height,
                diagonal,
            } => mesh::grid2d(width, height, diagonal),
            GraphKind::Grid3d { nx, ny, nz, full } => mesh::grid3d(nx, ny, nz, full),
        }
    }
}

/// A named proxy for one of the paper's evaluation graphs.
#[derive(Debug, Clone, Copy)]
pub struct TableIPreset {
    /// The paper's name for the graph (e.g. `"friendster"`).
    pub name: &'static str,
    /// Which of Table I's four sections the graph belongs to.
    pub class: GraphClass,
    /// The scaled generator standing in for it.
    pub config: GraphConfig,
}

impl TableIPreset {
    /// Look a preset up by the paper's graph name.
    pub fn by_name(name: &str) -> Option<TableIPreset> {
        all_presets().into_iter().find(|p| p.name == name)
    }

    /// The six representative graphs used by the paper for the Cluster-1 strong scaling
    /// and quality studies (Figs. 3 and 4, Table III). Every name is in
    /// [`all_presets`], which a unit test pins.
    pub fn representative_six() -> Vec<TableIPreset> {
        [
            "lj",
            "orkut",
            "friendster",
            "wdc12-pay",
            "rmat_24",
            "nlpkkt240",
        ]
        .into_iter()
        .filter_map(Self::by_name)
        .collect()
    }
}

/// The full list of Table I proxies (scaled down ~1000x but preserving class structure),
/// plus the Blue Waters scaling graphs.
pub fn all_presets() -> Vec<TableIPreset> {
    use GraphClass::*;
    use GraphKind::*;
    let p = |name, class, kind, seed| TableIPreset {
        name,
        class,
        config: GraphConfig::new(kind, seed),
    };
    vec![
        // --- Online social / communication networks -------------------------------------
        p(
            "lj",
            Social,
            BarabasiAlbert {
                num_vertices: 1 << 15,
                edges_per_vertex: 7,
            },
            101,
        ),
        p(
            "orkut",
            Social,
            BarabasiAlbert {
                num_vertices: 1 << 14,
                edges_per_vertex: 19,
            },
            102,
        ),
        p(
            "friendster",
            Social,
            BarabasiAlbert {
                num_vertices: 1 << 17,
                edges_per_vertex: 14,
            },
            103,
        ),
        p(
            "twitter",
            Social,
            Rmat {
                scale: 16,
                edge_factor: 19,
            },
            104,
        ),
        p(
            "wikilinks",
            Social,
            Rmat {
                scale: 15,
                edge_factor: 12,
            },
            105,
        ),
        p(
            "dbpedia",
            Social,
            Rmat {
                scale: 16,
                edge_factor: 2,
            },
            106,
        ),
        // --- Web crawls ------------------------------------------------------------------
        p(
            "indochina",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 14,
                avg_degree: 41,
                community_size: 128,
            },
            201,
        ),
        p(
            "arabic",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 15,
                avg_degree: 49,
                community_size: 256,
            },
            202,
        ),
        p(
            "it",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 16,
                avg_degree: 29,
                community_size: 256,
            },
            203,
        ),
        p(
            "sk",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 16,
                avg_degree: 38,
                community_size: 512,
            },
            204,
        ),
        p(
            "uk-2002",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 14,
                avg_degree: 16,
                community_size: 128,
            },
            205,
        ),
        p(
            "uk-2005",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 16,
                avg_degree: 40,
                community_size: 256,
            },
            206,
        ),
        p(
            "uk-2007",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 17,
                avg_degree: 31,
                community_size: 512,
            },
            207,
        ),
        p(
            "wdc12-pay",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 16,
                avg_degree: 16,
                community_size: 256,
            },
            208,
        ),
        p(
            "wdc12-host",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 17,
                avg_degree: 23,
                community_size: 512,
            },
            209,
        ),
        // --- Synthetic R-MAT graphs --------------------------------------------------------
        p(
            "rmat_22",
            Synthetic,
            Rmat {
                scale: 14,
                edge_factor: 16,
            },
            301,
        ),
        p(
            "rmat_24",
            Synthetic,
            Rmat {
                scale: 16,
                edge_factor: 16,
            },
            302,
        ),
        p(
            "rmat_26",
            Synthetic,
            Rmat {
                scale: 17,
                edge_factor: 16,
            },
            303,
        ),
        p(
            "rmat_28",
            Synthetic,
            Rmat {
                scale: 18,
                edge_factor: 16,
            },
            304,
        ),
        // --- Regular meshes ----------------------------------------------------------------
        p(
            "InternalMesh1",
            Mesh,
            Grid3d {
                nx: 16,
                ny: 16,
                nz: 16,
                full: true,
            },
            401,
        ),
        p(
            "InternalMesh2",
            Mesh,
            Grid3d {
                nx: 28,
                ny: 28,
                nz: 28,
                full: true,
            },
            402,
        ),
        p(
            "InternalMesh3",
            Mesh,
            Grid3d {
                nx: 44,
                ny: 44,
                nz: 44,
                full: true,
            },
            403,
        ),
        p(
            "InternalMesh4",
            Mesh,
            Grid3d {
                nx: 64,
                ny: 64,
                nz: 64,
                full: true,
            },
            404,
        ),
        p(
            "nlpkkt160",
            Mesh,
            Grid3d {
                nx: 32,
                ny: 32,
                nz: 32,
                full: true,
            },
            405,
        ),
        p(
            "nlpkkt200",
            Mesh,
            Grid3d {
                nx: 40,
                ny: 40,
                nz: 40,
                full: true,
            },
            406,
        ),
        p(
            "nlpkkt240",
            Mesh,
            Grid3d {
                nx: 48,
                ny: 48,
                nz: 48,
                full: true,
            },
            407,
        ),
        // --- Blue Waters scaling graphs -----------------------------------------------------
        p(
            "WDC12",
            Crawl,
            WebCrawl {
                num_vertices: 1 << 18,
                avg_degree: 36,
                community_size: 1024,
            },
            501,
        ),
        p(
            "RMAT",
            Synthetic,
            Rmat {
                scale: 18,
                edge_factor: 18,
            },
            502,
        ),
        p(
            "RandER",
            Synthetic,
            ErdosRenyi {
                num_vertices: 1 << 18,
                avg_degree: 36,
            },
            503,
        ),
        p(
            "RandHD",
            Synthetic,
            RandHd {
                num_vertices: 1 << 18,
                avg_degree: 36,
            },
            504,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_generates_a_nonempty_graph() {
        // Use the smaller presets to keep the test fast; the large ones share generators.
        for preset in all_presets() {
            if preset.config.num_vertices() > (1 << 15) {
                continue;
            }
            let el = preset.config.generate();
            assert_eq!(
                el.num_vertices,
                preset.config.num_vertices(),
                "{}",
                preset.name
            );
            assert!(!el.edges.is_empty(), "{} generated no edges", preset.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(TableIPreset::by_name("friendster").is_some());
        assert!(TableIPreset::by_name("nlpkkt240").is_some());
        assert!(TableIPreset::by_name("does-not-exist").is_none());
    }

    #[test]
    fn representative_six_exist_and_cover_three_classes() {
        let six = TableIPreset::representative_six();
        assert_eq!(six.len(), 6);
        let classes: std::collections::HashSet<_> =
            six.iter().map(|p| format!("{:?}", p.class)).collect();
        assert!(classes.len() >= 3);
    }

    #[test]
    fn names_are_unique() {
        let presets = all_presets();
        let mut names: Vec<_> = presets.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), presets.len());
    }

    #[test]
    fn config_generation_is_deterministic() {
        let cfg = TableIPreset::by_name("uk-2002").unwrap().config;
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn mesh_presets_have_uniform_degree() {
        let cfg = TableIPreset::by_name("InternalMesh1").unwrap().config;
        let csr = cfg.generate().to_csr();
        assert_eq!(csr.max_degree(), 26);
        assert!(csr.avg_degree() > 15.0);
    }
}
