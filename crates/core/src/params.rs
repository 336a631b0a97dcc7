//! Partitioning parameters.
//!
//! The defaults mirror the paper exactly: three outer iterations, five balancing and ten
//! refinement iterations per stage, 10% vertex and edge imbalance, and the dynamic
//! multiplier constants `X = 1.0`, `Y = 0.25` selected in §V-D. Refinement sweeps are
//! frontier-driven, so a refinement pass may run up to
//! [`refine_budget`](crate::sweep::refine_budget) sweeps instead of `refine_iters`.

use serde::{Deserialize, Serialize};

use crate::error::PartitionError;

/// How the initial part assignment is produced before the balancing stages run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// The paper's hybrid initialisation (Algorithm 2): random roots are grown
    /// breadth-first, each unassigned vertex adopting a random neighbouring part.
    BfsGrow,
    /// Uniform random part assignment.
    Random,
    /// Contiguous vertex blocks (the paper uses this before balancing in the Fig. 8
    /// analytics study, exploiting the locality of crawl orderings).
    VertexBlock,
}

/// Parameters controlling an XtraPuLP (or PuLP) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionParams {
    /// Number of parts to compute.
    pub num_parts: usize,
    /// Allowed vertex imbalance ratio `Ratv`; the target max part size is
    /// `(1 + vertex_imbalance) * n / p`.
    pub vertex_imbalance: f64,
    /// Allowed edge imbalance ratio `Rate`; the target max per-part edge count is
    /// `(1 + edge_imbalance) * 2m / p` (counted in arcs, i.e. vertex-degree sums).
    pub edge_imbalance: f64,
    /// Number of outer balance/refine rounds per stage (`I_outer`, paper default 3).
    pub outer_iters: usize,
    /// Balancing iterations per round (`I_bal`, paper default 5).
    pub balance_iters: usize,
    /// Refinement iterations per round (`I_ref`, paper default 10).
    pub refine_iters: usize,
    /// Final value of the dynamic multiplier schedule (`X`, paper default 1.0).
    pub mult_x: f64,
    /// Initial value of the dynamic multiplier schedule (`Y`, paper default 0.25).
    pub mult_y: f64,
    /// Initialisation strategy.
    pub init: InitStrategy,
    /// Run the edge-balancing stage (the multi-constraint/multi-objective part of
    /// PuLP-MM). Disabled for the single-constraint single-objective comparison of
    /// Fig. 6.
    pub edge_balance_stage: bool,
    /// Outer balance/refine rounds per stage for *warm-started* runs (repartitioning
    /// from a previous part vector after a small graph mutation). Label propagation
    /// converges from a good seed in far fewer sweeps than from scratch, which is what
    /// makes incremental repartitioning cheap; `0` means seed-only (new vertices are
    /// assigned greedily, nothing is refined).
    pub warm_outer_iters: usize,
    /// RNG seed; every stage derives its own deterministic stream from it.
    pub seed: u64,
}

impl Default for PartitionParams {
    fn default() -> Self {
        PartitionParams {
            num_parts: 16,
            vertex_imbalance: 0.10,
            edge_imbalance: 0.10,
            outer_iters: 3,
            balance_iters: 5,
            refine_iters: 10,
            mult_x: 1.0,
            mult_y: 0.25,
            init: InitStrategy::BfsGrow,
            edge_balance_stage: true,
            warm_outer_iters: 1,
            seed: 0xB1_7E5,
        }
    }
}

impl PartitionParams {
    /// Convenience constructor for `num_parts` parts with all other values at the paper
    /// defaults.
    pub fn with_parts(num_parts: usize) -> Self {
        PartitionParams {
            num_parts,
            ..Default::default()
        }
    }

    /// Total number of balance+refine iterations per stage (`I_tot` in the paper), which
    /// normalises the multiplier schedule.
    pub fn total_iters(&self) -> usize {
        self.outer_iters * (self.balance_iters + self.refine_iters)
    }

    /// Target maximum number of vertices per part (`Imb_v`).
    pub fn target_max_vertices(&self, global_n: u64) -> f64 {
        (1.0 + self.vertex_imbalance) * global_n as f64 / self.num_parts as f64
    }

    /// Target maximum number of arcs (degree sum) per part (`Imb_e`).
    pub fn target_max_arcs(&self, global_arcs: u64) -> f64 {
        (1.0 + self.edge_imbalance) * global_arcs as f64 / self.num_parts as f64
    }

    /// The dynamic multiplier `mult = nprocs * ((X - Y) * iter_tot / I_tot + Y)` that
    /// throttles how many vertices a single rank may move into one part per iteration.
    ///
    /// The value is clamped from below at 1.0: a rank always knows its *own* changes
    /// exactly, so charging them at less than face value (which the raw formula produces
    /// for very small rank counts or tiny X/Y) would let a single rank overshoot a part's
    /// target all by itself. At the paper's scales (hundreds to thousands of ranks) the
    /// clamp never engages.
    pub fn multiplier(&self, nranks: usize, iter_tot: usize) -> f64 {
        let frac = iter_tot as f64 / self.total_iters().max(1) as f64;
        (nranks as f64 * ((self.mult_x - self.mult_y) * frac + self.mult_y)).max(1.0)
    }

    /// Validate parameter sanity, reporting the first violation as a typed error.
    ///
    /// This is the request-path guard: every partitioning entry point calls it before
    /// touching the graph or the rank runtime, so malformed parameters are rejected
    /// with an `Err` instead of a panic.
    pub fn validate(&self) -> Result<(), PartitionError> {
        if self.num_parts < 1 {
            return Err(PartitionError::InvalidNumParts {
                got: self.num_parts,
            });
        }
        for (which, value) in [
            ("vertex_imbalance", self.vertex_imbalance),
            ("edge_imbalance", self.edge_imbalance),
        ] {
            if value.is_nan() || value < 0.0 {
                return Err(PartitionError::InvalidImbalance {
                    which,
                    got: format!("{value}"),
                });
            }
        }
        for (which, value) in [("mult_x", self.mult_x), ("mult_y", self.mult_y)] {
            if value.is_nan() || value < 0.0 {
                return Err(PartitionError::InvalidMultiplier {
                    which,
                    got: format!("{value}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = PartitionParams::default();
        assert_eq!(p.outer_iters, 3);
        assert_eq!(p.balance_iters, 5);
        assert_eq!(p.refine_iters, 10);
        assert_eq!(p.total_iters(), 45);
        assert!((p.mult_x - 1.0).abs() < 1e-12);
        assert!((p.mult_y - 0.25).abs() < 1e-12);
        assert!((p.vertex_imbalance - 0.10).abs() < 1e-12);
    }

    #[test]
    fn multiplier_schedule_is_linear_between_y_and_x() {
        let p = PartitionParams::default();
        let nranks = 8;
        let at_start = p.multiplier(nranks, 0);
        let at_end = p.multiplier(nranks, p.total_iters());
        assert!((at_start - 8.0 * 0.25).abs() < 1e-9);
        assert!((at_end - 8.0 * 1.0).abs() < 1e-9);
        let mid = p.multiplier(nranks, p.total_iters() / 2);
        assert!(mid > at_start && mid < at_end);
    }

    #[test]
    fn target_sizes_scale_with_imbalance() {
        let p = PartitionParams::with_parts(4);
        assert!((p.target_max_vertices(100) - 27.5).abs() < 1e-9);
        assert!((p.target_max_arcs(400) - 110.0).abs() < 1e-9);
    }

    #[test]
    fn zero_parts_is_a_typed_error_not_a_panic() {
        let p = PartitionParams {
            num_parts: 0,
            ..Default::default()
        };
        assert_eq!(
            p.validate(),
            Err(PartitionError::InvalidNumParts { got: 0 })
        );
    }

    #[test]
    fn negative_and_nan_ratios_are_typed_errors() {
        let p = PartitionParams {
            vertex_imbalance: -0.1,
            ..Default::default()
        };
        assert!(matches!(
            p.validate(),
            Err(PartitionError::InvalidImbalance {
                which: "vertex_imbalance",
                ..
            })
        ));
        let p = PartitionParams {
            edge_imbalance: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            p.validate(),
            Err(PartitionError::InvalidImbalance {
                which: "edge_imbalance",
                ..
            })
        ));
        let p = PartitionParams {
            mult_y: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            p.validate(),
            Err(PartitionError::InvalidMultiplier {
                which: "mult_y",
                ..
            })
        ));
        assert_eq!(PartitionParams::default().validate(), Ok(()));
    }

    #[test]
    fn with_parts_overrides_only_the_part_count() {
        let p = PartitionParams::with_parts(64);
        assert_eq!(p.num_parts, 64);
        assert_eq!(p.balance_iters, PartitionParams::default().balance_iters);
    }
}
