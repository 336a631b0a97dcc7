//! Timestamped update-stream generation for dynamic-graph experiments.
//!
//! Real serving workloads mutate their graphs continuously: social networks grow by
//! preferential attachment, crawls and interaction graphs churn (old edges disappear as
//! new ones arrive). The dynamic-repartitioning benches and tests need realistic
//! mutation traces, so this module evolves a base [`EdgeList`] through a configurable
//! number of batches and emits every mutation as a logically-timestamped
//! [`UpdateOp`] — by construction valid against the state of the graph at its batch
//! boundary (no duplicate inserts, no deletions of missing edges, no insert/delete
//! conflicts within one batch).

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xtrapulp_graph::{GlobalId, UpdateOp};

use crate::EdgeList;

// The record type lives in the graph crate next to its on-disk format
// (`xtrapulp_graph::io::{read,write}_update_log`); re-exported here so stream
// consumers keep their import path.
pub use xtrapulp_graph::TimedOp;

/// The mutation model a stream follows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Growth: each batch appends new vertices that attach preferentially to
    /// high-degree endpoints (the Barabási–Albert mechanism), mimicking a growing
    /// social network.
    PreferentialGrowth {
        /// New vertices per batch.
        vertices_per_batch: u64,
        /// Edges each new vertex attaches with.
        edges_per_vertex: u64,
    },
    /// Churn: each batch deletes existing edges and inserts fresh ones at a configurable
    /// mix, keeping the graph size roughly stable — the steady-state regime of a mature
    /// network.
    RandomChurn {
        /// Mutations per batch (inserts + deletes).
        ops_per_batch: usize,
        /// Fraction of ops that are deletions (`0.5` keeps the edge count stable).
        delete_fraction: f64,
    },
}

/// A reproducible update-stream request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStreamConfig {
    /// The mutation model.
    pub kind: StreamKind,
    /// Number of batches to emit.
    pub num_batches: usize,
    /// RNG seed.
    pub seed: u64,
}

/// A generated stream: one `Vec<TimedOp>` per batch, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateStream {
    /// The batches, each sorted by timestamp.
    pub batches: Vec<Vec<TimedOp>>,
}

impl UpdateStream {
    /// The raw ops of batch `idx`, stripped of timestamps (the shape
    /// `xtrapulp_dynamic::UpdateBatch::from_ops` consumes).
    pub fn batch_ops(&self, idx: usize) -> impl Iterator<Item = UpdateOp> + '_ {
        self.batches[idx].iter().map(|t| t.op)
    }

    /// Total number of mutations across all batches.
    pub fn num_ops(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Every op of every batch in application order — the flat shape
    /// `xtrapulp_graph::io::write_update_log` records.
    pub fn all_ops(&self) -> Vec<TimedOp> {
        self.batches.iter().flatten().copied().collect()
    }
}

/// Evolve `base` through `config.num_batches` batches of mutations.
pub fn generate_stream(base: &EdgeList, config: &UpdateStreamConfig) -> UpdateStream {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x0D14_A51C);
    let mut state = LiveState::from_edge_list(base);
    let mut clock = 0u64;
    let mut batches = Vec::with_capacity(config.num_batches);
    for _ in 0..config.num_batches {
        let batch = match config.kind {
            StreamKind::PreferentialGrowth {
                vertices_per_batch,
                edges_per_vertex,
            } => state.growth_batch(&mut rng, &mut clock, vertices_per_batch, edges_per_vertex),
            StreamKind::RandomChurn {
                ops_per_batch,
                delete_fraction,
            } => state.churn_batch(&mut rng, &mut clock, ops_per_batch, delete_fraction),
        };
        batches.push(batch);
    }
    UpdateStream { batches }
}

/// The evolving graph the generator mutates: vertex count, a live edge set for
/// membership checks and a dense edge list, for uniform deletion sampling and, read as
/// an endpoint pool, for preferential attachment.
struct LiveState {
    n: u64,
    edge_set: HashSet<(GlobalId, GlobalId)>,
    edge_vec: Vec<(GlobalId, GlobalId)>,
}

impl LiveState {
    fn from_edge_list(base: &EdgeList) -> LiveState {
        let mut state = LiveState {
            n: base.num_vertices,
            edge_set: HashSet::with_capacity(base.edges.len()),
            edge_vec: Vec::with_capacity(base.edges.len()),
        };
        for &(u, v) in &base.edges {
            if u == v || u >= state.n || v >= state.n {
                continue;
            }
            state.add_edge(u.min(v), u.max(v));
        }
        state
    }

    fn add_edge(&mut self, u: GlobalId, v: GlobalId) -> bool {
        if self.edge_set.insert((u, v)) {
            self.edge_vec.push((u, v));
            true
        } else {
            false
        }
    }

    fn growth_batch(
        &mut self,
        rng: &mut SmallRng,
        clock: &mut u64,
        vertices: u64,
        edges_per_vertex: u64,
    ) -> Vec<TimedOp> {
        let mut ops = Vec::new();
        let stamp = |op: UpdateOp, clock: &mut u64| {
            *clock += 1;
            TimedOp { time: *clock, op }
        };
        for _ in 0..vertices {
            let new_vertex = self.n;
            self.n += 1;
            ops.push(stamp(UpdateOp::AddVertices(1), clock));
            let mut attached: HashSet<GlobalId> = HashSet::new();
            for _ in 0..edges_per_vertex {
                // Preferential pick from the endpoint pool, uniform fallback; cap the
                // retries so pathological pools (tiny base graphs) cannot spin.
                let mut target = None;
                for _ in 0..16 {
                    let candidate = if self.edge_vec.is_empty() {
                        rng.gen_range(0..new_vertex.max(1))
                    } else {
                        // Endpoint `i` of the edges in insertion order: a growth
                        // stream never deletes, so `edge_vec` is that order.
                        let i = rng.gen_range(0..2 * self.edge_vec.len());
                        let (u, v) = self.edge_vec[i / 2];
                        [u, v][i % 2]
                    };
                    if candidate != new_vertex && !attached.contains(&candidate) {
                        target = Some(candidate);
                        break;
                    }
                }
                if let Some(t) = target {
                    attached.insert(t);
                    self.add_edge(new_vertex.min(t), new_vertex.max(t));
                    ops.push(stamp(UpdateOp::InsertEdge(new_vertex, t), clock));
                }
            }
        }
        ops
    }

    fn churn_batch(
        &mut self,
        rng: &mut SmallRng,
        clock: &mut u64,
        ops_per_batch: usize,
        delete_fraction: f64,
    ) -> Vec<TimedOp> {
        let mut ops = Vec::new();
        // Per-batch bookkeeping keeps the batch internally consistent: an edge inserted
        // in this batch is never deleted in it (and vice versa), which would be an
        // insert/delete conflict at validation time.
        let mut inserted_this_batch: HashSet<(GlobalId, GlobalId)> = HashSet::new();
        let mut deleted_this_batch: HashSet<(GlobalId, GlobalId)> = HashSet::new();
        for _ in 0..ops_per_batch {
            *clock += 1;
            let do_delete =
                !self.edge_vec.is_empty() && rng.gen_bool(delete_fraction.clamp(0.0, 1.0));
            if do_delete {
                let mut picked = None;
                for _ in 0..16 {
                    let idx = rng.gen_range(0..self.edge_vec.len());
                    let key = self.edge_vec[idx];
                    if !inserted_this_batch.contains(&key) {
                        picked = Some((idx, key));
                        break;
                    }
                }
                if let Some((idx, (u, v))) = picked {
                    self.edge_vec.swap_remove(idx);
                    self.edge_set.remove(&(u, v));
                    deleted_this_batch.insert((u, v));
                    ops.push(TimedOp {
                        time: *clock,
                        op: UpdateOp::DeleteEdge(u, v),
                    });
                }
            } else if self.n >= 2 {
                for _ in 0..16 {
                    let u = rng.gen_range(0..self.n);
                    let v = rng.gen_range(0..self.n);
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if deleted_this_batch.contains(&key) || self.edge_set.contains(&key) {
                        continue;
                    }
                    self.add_edge(key.0, key.1);
                    inserted_this_batch.insert(key);
                    ops.push(TimedOp {
                        time: *clock,
                        op: UpdateOp::InsertEdge(u, v),
                    });
                    break;
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphConfig, GraphKind};

    fn base() -> EdgeList {
        GraphConfig::new(
            GraphKind::BarabasiAlbert {
                num_vertices: 500,
                edges_per_vertex: 4,
            },
            3,
        )
        .generate()
    }

    /// Replay a stream against a mirror of the live state, checking batch validity.
    fn check_stream_validity(base: &EdgeList, stream: &UpdateStream) {
        let mut n = base.num_vertices;
        let mut edges: HashSet<(GlobalId, GlobalId)> = base
            .edges
            .iter()
            .filter(|&&(u, v)| u != v && u < n && v < n)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        let mut last_time = 0u64;
        for batch in &stream.batches {
            let mut touched_this_batch: HashSet<(GlobalId, GlobalId)> = HashSet::new();
            for t in batch {
                assert!(t.time > last_time, "timestamps must strictly increase");
                last_time = t.time;
                match t.op {
                    UpdateOp::AddVertices(c) => n += c,
                    UpdateOp::InsertEdge(u, v) => {
                        assert_ne!(u, v, "no self loops");
                        assert!(u < n && v < n, "endpoints must exist");
                        let key = (u.min(v), u.max(v));
                        assert!(edges.insert(key), "insert of existing edge {key:?}");
                        assert!(
                            touched_this_batch.insert(key),
                            "edge {key:?} touched twice in one batch"
                        );
                    }
                    UpdateOp::DeleteEdge(u, v) => {
                        let key = (u.min(v), u.max(v));
                        assert!(edges.remove(&key), "delete of missing edge {key:?}");
                        assert!(
                            touched_this_batch.insert(key),
                            "edge {key:?} touched twice in one batch"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn preferential_growth_streams_are_valid_and_grow_the_graph() {
        let base = base();
        let stream = generate_stream(
            &base,
            &UpdateStreamConfig {
                kind: StreamKind::PreferentialGrowth {
                    vertices_per_batch: 20,
                    edges_per_vertex: 4,
                },
                num_batches: 5,
                seed: 7,
            },
        );
        assert_eq!(stream.batches.len(), 5);
        check_stream_validity(&base, &stream);
        let added: u64 = stream
            .batches
            .iter()
            .flatten()
            .map(|t| match t.op {
                UpdateOp::AddVertices(c) => c,
                _ => 0,
            })
            .sum();
        assert_eq!(added, 100);
    }

    #[test]
    fn random_churn_streams_are_valid_and_mix_inserts_and_deletes() {
        let base = base();
        let stream = generate_stream(
            &base,
            &UpdateStreamConfig {
                kind: StreamKind::RandomChurn {
                    ops_per_batch: 50,
                    delete_fraction: 0.5,
                },
                num_batches: 8,
                seed: 11,
            },
        );
        check_stream_validity(&base, &stream);
        let (mut ins, mut del) = (0usize, 0usize);
        for t in stream.batches.iter().flatten() {
            match t.op {
                UpdateOp::InsertEdge(..) => ins += 1,
                UpdateOp::DeleteEdge(..) => del += 1,
                UpdateOp::AddVertices(_) => {}
            }
        }
        assert!(ins > 50, "expected a healthy insert share, got {ins}");
        assert!(del > 50, "expected a healthy delete share, got {del}");
    }

    #[test]
    fn streams_are_deterministic_for_fixed_seed() {
        let base = base();
        let config = UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: 30,
                delete_fraction: 0.4,
            },
            num_batches: 4,
            seed: 99,
        };
        assert_eq!(
            generate_stream(&base, &config),
            generate_stream(&base, &config)
        );
    }

    #[test]
    fn tiny_base_graphs_do_not_spin_or_panic() {
        let tiny = EdgeList {
            num_vertices: 2,
            edges: vec![(0, 1)],
        };
        for kind in [
            StreamKind::PreferentialGrowth {
                vertices_per_batch: 3,
                edges_per_vertex: 2,
            },
            StreamKind::RandomChurn {
                ops_per_batch: 10,
                delete_fraction: 0.9,
            },
        ] {
            let stream = generate_stream(
                &tiny,
                &UpdateStreamConfig {
                    kind,
                    num_batches: 3,
                    seed: 1,
                },
            );
            check_stream_validity(&tiny, &stream);
        }
    }
}
