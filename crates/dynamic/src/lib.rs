//! # xtrapulp-dynamic
//!
//! Update batches for graphs that mutate between partitioning requests.
//!
//! Label propagation — the core of XtraPuLP and PuLP — can be warm-started from any part
//! vector, so a graph that changed slightly should not pay a full repartition: seed the
//! labels from the previous epoch, assign only the new vertices greedily, and run a
//! short refinement schedule (`PartitionParams::warm_outer_iters` outer rounds instead
//! of `outer_iters`). This crate provides the boundary of that loop:
//!
//! * [`UpdateBatch`] — a batch of mutations (edge insertions and deletions, vertex
//!   additions) that [`UpdateBatch::compile`]s to a normalised [`GraphDelta`], rejecting
//!   self loops, out-of-range endpoints and insert/delete conflicts with typed
//!   [`UpdateError`]s.
//! * [`UpdateError`] — also the type of the live-topology checks (inserting an existing
//!   edge, deleting a missing one), which only the layer holding the graph can make.
//!
//! A compiled delta advances a [`Csr`](xtrapulp_graph::Csr) through
//! [`Csr::apply_delta`](xtrapulp_graph::Csr::apply_delta) or a rank's slice through
//! [`DistGraph::apply_delta`](xtrapulp_graph::DistGraph::apply_delta); the previous
//! epoch's part vector grows over the new vertices with
//! [`UNASSIGNED`](xtrapulp_graph::UNASSIGNED) entries, ready for any warm-start-capable
//! method (`xtrapulp_api::Method::supports_warm_start`). The serving layer over this crate is
//! `xtrapulp_api::DynamicSession` (apply → repartition → report), which validates each
//! batch against its rank graphs; `xtrapulp_gen::updates` generates realistic
//! timestamped mutation traces for benches and tests.
//!
//! ```
//! use xtrapulp::{try_pulp_partition, try_pulp_partition_from, PartitionParams};
//! use xtrapulp_dynamic::UpdateBatch;
//! use xtrapulp_gen::{GraphConfig, GraphKind};
//! use xtrapulp_graph::UNASSIGNED;
//!
//! let csr = GraphConfig::new(GraphKind::Rmat { scale: 10, edge_factor: 8 }, 42)
//!     .generate()
//!     .to_csr();
//! let params = PartitionParams::with_parts(8);
//! let mut parts = try_pulp_partition(&csr, &params).unwrap();
//!
//! // The graph mutates: one new vertex, two new edges.
//! let v = csr.num_vertices() as u64;
//! let mut batch = UpdateBatch::new();
//! batch.add_vertices(1).insert_edge(v, 0).insert_edge(v, 1);
//! let delta = batch.compile(v).unwrap();
//! let csr = csr.apply_delta(&delta);
//!
//! // Warm-start repartition: previous labels seed the run, the new vertex is assigned
//! // greedily, and only a short refinement schedule runs.
//! parts.resize(delta.new_n() as usize, UNASSIGNED);
//! parts = try_pulp_partition_from(&csr, &params, &parts).unwrap();
//! assert_eq!(parts.len(), csr.num_vertices());
//! ```

mod update;

pub use update::{UpdateBatch, UpdateError};

// Re-exported so callers of this crate can name the graph-layer delta types without an
// extra dependency edge.
pub use xtrapulp_graph::{GraphDelta, UpdateOp};

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp::metrics::PartitionQuality;
    use xtrapulp::{try_pulp_partition, try_pulp_partition_from, PartitionParams};
    use xtrapulp_gen::{GraphConfig, GraphKind};
    use xtrapulp_graph::UNASSIGNED;

    fn social_graph() -> xtrapulp_graph::Csr {
        GraphConfig::new(
            GraphKind::BarabasiAlbert {
                num_vertices: 1500,
                edges_per_vertex: 6,
            },
            9,
        )
        .generate()
        .to_csr()
    }

    #[test]
    fn warm_start_from_empty_delta_reproduces_cold_quality_envelope() {
        // The acceptance parity check: warm-starting from a trivial (empty-delta) update
        // must land in the from-scratch cut-quality envelope.
        let csr = social_graph();
        let params = PartitionParams {
            num_parts: 8,
            seed: 4,
            ..Default::default()
        };
        let cold = try_pulp_partition(&csr, &params).unwrap();
        let cold_q = PartitionQuality::evaluate(&csr, &cold, 8);

        let delta = UpdateBatch::new()
            .compile(csr.num_vertices() as u64)
            .unwrap();
        assert!(delta.is_empty());
        let csr = csr.apply_delta(&delta);
        let warm = try_pulp_partition_from(&csr, &params, &cold).unwrap();
        let warm_q = PartitionQuality::evaluate(&csr, &warm, 8);

        assert!(
            warm_q.edge_cut as f64 <= cold_q.edge_cut as f64 * 1.05,
            "warm cut {} must stay within 5% of cold cut {}",
            warm_q.edge_cut,
            cold_q.edge_cut
        );
        assert!(
            warm_q.vertex_imbalance <= (1.0 + params.vertex_imbalance) * 1.02,
            "warm imbalance {} must respect the configured tolerance",
            warm_q.vertex_imbalance
        );
    }

    #[test]
    fn warm_start_results_are_deterministic_across_repeated_runs() {
        let csr = social_graph();
        let params = PartitionParams {
            num_parts: 4,
            seed: 21,
            ..Default::default()
        };
        let cold = try_pulp_partition(&csr, &params).unwrap();

        let run = || {
            let mut batch = UpdateBatch::new();
            batch.add_vertices(2);
            let n = csr.num_vertices() as u64;
            batch
                .insert_edge(n, 0)
                .insert_edge(n, 17)
                .insert_edge(n + 1, n)
                .delete_edge(0, 1);
            let delta = batch.compile(n).unwrap();
            let mut seed = cold.clone();
            seed.resize(delta.new_n() as usize, UNASSIGNED);
            try_pulp_partition_from(&csr.apply_delta(&delta), &params, &seed).unwrap()
        };
        let a = run();
        let b = run();
        let c = run();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
