//! The cross-crate partitioner registry.
//!
//! Every partitioning method in the workspace — the distributed XtraPuLP kernel, the
//! shared-memory PuLP baseline, the three naive baselines from `xtrapulp`, and the two
//! multilevel baselines from `xtrapulp-multilevel` — is enumerable here and resolvable
//! by name. Experiment harnesses and serving code iterate [`Method::all`] or call
//! [`Method::from_name`] instead of hand-maintaining partitioner lists, and a
//! `Session` runs a job by matching on its `Method` and calling that method's function.

use serde::{Deserialize, Serialize};
use xtrapulp::PartitionError;

/// One of the seven partitioning methods the workspace implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// The paper's distributed multi-constraint multi-objective partitioner
    /// (Algorithm 1), run over a rank runtime.
    XtraPulp,
    /// The shared-memory PuLP-MM baseline.
    Pulp,
    /// Uniform random assignment.
    Random,
    /// Contiguous vertex blocks.
    VertexBlock,
    /// Contiguous blocks balanced by edge count.
    EdgeBlock,
    /// Heavy-edge-matching multilevel baseline (the ParMETIS stand-in).
    MetisLike,
    /// Label-propagation-coarsening multilevel baseline (the KaHIP stand-in).
    LpCoarsenKway,
}

impl Method {
    /// Every method, in the order the paper's tables list them.
    pub fn all() -> [Method; 7] {
        [
            Method::XtraPulp,
            Method::Pulp,
            Method::Random,
            Method::VertexBlock,
            Method::EdgeBlock,
            Method::MetisLike,
            Method::LpCoarsenKway,
        ]
    }

    /// The methods that compute a partition (everything but the naive assignments);
    /// convenient for quality-comparison harnesses.
    pub fn all_quality() -> [Method; 4] {
        [
            Method::XtraPulp,
            Method::Pulp,
            Method::MetisLike,
            Method::LpCoarsenKway,
        ]
    }

    /// Canonical display name, as experiment tables and reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Method::XtraPulp => "XtraPuLP",
            Method::Pulp => "PuLP",
            Method::Random => "Random",
            Method::VertexBlock => "VertexBlock",
            Method::EdgeBlock => "EdgeBlock",
            Method::MetisLike => "MetisLike",
            Method::LpCoarsenKway => "LpCoarsenKway",
        }
    }

    /// Resolve a method by name, case-insensitively, accepting the canonical names plus
    /// the aliases the paper's figures use (`VertBlock`, `KaHIP`-style names, `METIS`).
    /// The error message of a failed lookup lists every valid canonical name.
    pub fn from_name(name: &str) -> Result<Method, PartitionError> {
        match name.to_ascii_lowercase().as_str() {
            "xtrapulp" => Ok(Method::XtraPulp),
            "pulp" => Ok(Method::Pulp),
            "random" => Ok(Method::Random),
            "vertexblock" | "vertblock" => Ok(Method::VertexBlock),
            "edgeblock" => Ok(Method::EdgeBlock),
            "metislike" | "metis" | "parmetis" => Ok(Method::MetisLike),
            "lpcoarsenkway" | "kahip" | "kahip-like" => Ok(Method::LpCoarsenKway),
            _ => Err(PartitionError::UnknownMethod {
                name: name.to_string(),
                expected: Method::all()
                    .iter()
                    .map(|m| m.name())
                    .collect::<Vec<_>>()
                    .join(", "),
            }),
        }
    }

    /// True for methods that run collectively over a rank runtime (and therefore use a
    /// `Session`'s persistent ranks rather than running inline).
    pub fn is_distributed(self) -> bool {
        matches!(self, Method::XtraPulp)
    }

    /// True for methods that can be warm-started from a previous part vector: the label
    /// propagation methods take it as their initial labelling, the multilevel methods
    /// refine it at the finest level. The naive assignments cannot, and repartition from
    /// scratch every time.
    pub fn supports_warm_start(self) -> bool {
        matches!(
            self,
            Method::XtraPulp | Method::Pulp | Method::MetisLike | Method::LpCoarsenKway
        )
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = PartitionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Method::from_name(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_round_trips_every_method() {
        for method in Method::all() {
            assert_eq!(Method::from_name(method.name()), Ok(method));
            // Case-insensitive.
            assert_eq!(
                Method::from_name(&method.name().to_ascii_uppercase()),
                Ok(method)
            );
        }
    }

    #[test]
    fn unknown_names_are_typed_errors_listing_the_valid_names() {
        let err = Method::from_name("metric-like").unwrap_err();
        assert!(matches!(
            &err,
            PartitionError::UnknownMethod { name, .. } if name == "metric-like"
        ));
        let msg = err.to_string();
        for method in Method::all() {
            assert!(
                msg.contains(method.name()),
                "error message must list '{}': {msg}",
                method.name()
            );
        }
    }

    #[test]
    fn figure_aliases_resolve() {
        assert_eq!(Method::from_name("VertBlock"), Ok(Method::VertexBlock));
        assert_eq!(Method::from_name("KaHIP-like"), Ok(Method::LpCoarsenKway));
        assert_eq!(Method::from_name("ParMETIS"), Ok(Method::MetisLike));
    }
}
