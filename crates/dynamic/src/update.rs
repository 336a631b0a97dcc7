//! User-facing update batches with strict, typed validation.
//!
//! An [`UpdateBatch`] collects raw mutations ([`UpdateOp`]) in submission order and
//! compiles them into a normalised [`GraphDelta`] with full validation: self loops and
//! out-of-range endpoints are rejected (not silently dropped, as the forgiving
//! graph-layer normalisation would), an edge both inserted and deleted in one batch is a
//! conflict, and duplicate operations are deduplicated silently.

use std::collections::HashSet;
use std::fmt;

use xtrapulp_graph::{GlobalId, GraphDelta, UpdateOp};

/// Why an update batch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An edge operation named the same vertex twice; the partitioners work on simple
    /// graphs, so self loops are rejected at the boundary.
    SelfLoop {
        /// The offending vertex.
        vertex: GlobalId,
    },
    /// An edge operation referenced a vertex that does not exist, even after the batch's
    /// vertex additions.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: GlobalId,
        /// The vertex count after the batch's additions (valid ids are `0..limit`).
        limit: u64,
    },
    /// The same edge is both inserted and deleted within one batch.
    ConflictingOps {
        /// Lower endpoint.
        u: GlobalId,
        /// Higher endpoint.
        v: GlobalId,
    },
    /// An insertion named an edge the graph already contains.
    EdgeAlreadyExists {
        /// Lower endpoint.
        u: GlobalId,
        /// Higher endpoint.
        v: GlobalId,
    },
    /// A deletion named an edge the graph does not contain.
    MissingEdge {
        /// Lower endpoint.
        u: GlobalId,
        /// Higher endpoint.
        v: GlobalId,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::SelfLoop { vertex } => {
                write!(f, "self loop on vertex {vertex} is not allowed")
            }
            UpdateError::VertexOutOfRange { vertex, limit } => {
                write!(f, "vertex {vertex} is out of range (graph has {limit} vertices after the batch's additions)")
            }
            UpdateError::ConflictingOps { u, v } => {
                write!(
                    f,
                    "edge {{{u}, {v}}} is both inserted and deleted in one batch"
                )
            }
            UpdateError::EdgeAlreadyExists { u, v } => {
                write!(f, "cannot insert edge {{{u}, {v}}}: it already exists")
            }
            UpdateError::MissingEdge { u, v } => {
                write!(f, "cannot delete edge {{{u}, {v}}}: it does not exist")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// One batch of graph mutations, collected in submission order and compiled into a
/// [`GraphDelta`] with validation and deduplication.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Collect a batch from an op stream (e.g. one batch of a generated update trace).
    pub fn from_ops(ops: impl IntoIterator<Item = UpdateOp>) -> UpdateBatch {
        UpdateBatch {
            ops: ops.into_iter().collect(),
        }
    }

    /// Queue an undirected edge insertion.
    pub fn insert_edge(&mut self, u: GlobalId, v: GlobalId) -> &mut Self {
        self.ops.push(UpdateOp::InsertEdge(u, v));
        self
    }

    /// Queue an undirected edge deletion.
    pub fn delete_edge(&mut self, u: GlobalId, v: GlobalId) -> &mut Self {
        self.ops.push(UpdateOp::DeleteEdge(u, v));
        self
    }

    /// Queue `count` new vertices (they receive the next free global ids).
    pub fn add_vertices(&mut self, count: u64) -> &mut Self {
        self.ops.push(UpdateOp::AddVertices(count));
        self
    }

    /// Queue one raw op.
    pub fn push(&mut self, op: UpdateOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The queued ops, in submission order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validate the batch against a graph with `base_n` vertices and compile it into a
    /// normalised [`GraphDelta`].
    ///
    /// Rejects self loops, endpoints outside `0..base_n + added` (vertex additions apply
    /// batch-wide, so an edge may reference a vertex added later in the same batch) and
    /// insert/delete conflicts. Duplicate inserts and duplicate deletes collapse
    /// silently. Whether the named edges actually exist is checked against the live
    /// graph by the layer that holds it (`xtrapulp_api::DynamicSession`), not here.
    pub fn compile(&self, base_n: u64) -> Result<GraphDelta, UpdateError> {
        let added: u64 = self
            .ops
            .iter()
            .map(|op| match op {
                UpdateOp::AddVertices(c) => *c,
                _ => 0,
            })
            .sum();
        let new_n = base_n + added;

        let check = |u: GlobalId, v: GlobalId| -> Result<(GlobalId, GlobalId), UpdateError> {
            if u == v {
                return Err(UpdateError::SelfLoop { vertex: u });
            }
            for x in [u, v] {
                if x >= new_n {
                    return Err(UpdateError::VertexOutOfRange {
                        vertex: x,
                        limit: new_n,
                    });
                }
            }
            Ok((u.min(v), u.max(v)))
        };

        let mut inserts: HashSet<(GlobalId, GlobalId)> = HashSet::new();
        let mut deletes: HashSet<(GlobalId, GlobalId)> = HashSet::new();
        for op in &self.ops {
            match *op {
                UpdateOp::InsertEdge(u, v) => {
                    let key = check(u, v)?;
                    if deletes.contains(&key) {
                        return Err(UpdateError::ConflictingOps { u: key.0, v: key.1 });
                    }
                    inserts.insert(key);
                }
                UpdateOp::DeleteEdge(u, v) => {
                    let key = check(u, v)?;
                    if inserts.contains(&key) {
                        return Err(UpdateError::ConflictingOps { u: key.0, v: key.1 });
                    }
                    deletes.insert(key);
                }
                UpdateOp::AddVertices(_) => {}
            }
        }
        let inserts: Vec<_> = inserts.into_iter().collect();
        let deletes: Vec<_> = deletes.into_iter().collect();
        Ok(GraphDelta::new(base_n, added, &inserts, &deletes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_ops_in_order() {
        let mut b = UpdateBatch::new();
        b.insert_edge(0, 1).add_vertices(2).delete_edge(3, 4);
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.ops(),
            &[
                UpdateOp::InsertEdge(0, 1),
                UpdateOp::AddVertices(2),
                UpdateOp::DeleteEdge(3, 4),
            ]
        );
    }

    #[test]
    fn duplicate_inserts_and_deletes_are_deduplicated() {
        let mut b = UpdateBatch::new();
        b.insert_edge(0, 1)
            .insert_edge(1, 0)
            .insert_edge(0, 1)
            .delete_edge(2, 3)
            .delete_edge(3, 2);
        let delta = b.compile(4).unwrap();
        assert_eq!(delta.num_insert_edges(), 1);
        assert_eq!(delta.num_delete_edges(), 1);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut b = UpdateBatch::new();
        b.insert_edge(2, 2);
        assert_eq!(b.compile(4), Err(UpdateError::SelfLoop { vertex: 2 }));
        let mut b = UpdateBatch::new();
        b.delete_edge(0, 0);
        assert_eq!(b.compile(4), Err(UpdateError::SelfLoop { vertex: 0 }));
    }

    #[test]
    fn out_of_range_endpoints_are_rejected_with_growth_applied() {
        let mut b = UpdateBatch::new();
        b.insert_edge(0, 5);
        assert_eq!(
            b.compile(4),
            Err(UpdateError::VertexOutOfRange {
                vertex: 5,
                limit: 4
            })
        );
        // The same edge is fine once the batch also adds enough vertices, even though
        // the addition is queued after the edge.
        let mut b = UpdateBatch::new();
        b.insert_edge(0, 5).add_vertices(2);
        let delta = b.compile(4).unwrap();
        assert_eq!(delta.new_n(), 6);
        assert_eq!(delta.num_insert_edges(), 1);
    }

    #[test]
    fn insert_delete_conflicts_are_rejected_both_ways() {
        let mut b = UpdateBatch::new();
        b.insert_edge(0, 1).delete_edge(1, 0);
        assert_eq!(
            b.compile(4),
            Err(UpdateError::ConflictingOps { u: 0, v: 1 })
        );
        let mut b = UpdateBatch::new();
        b.delete_edge(0, 1).insert_edge(1, 0);
        assert_eq!(
            b.compile(4),
            Err(UpdateError::ConflictingOps { u: 0, v: 1 })
        );
    }

    #[test]
    fn empty_batch_compiles_to_empty_delta() {
        let delta = UpdateBatch::new().compile(7).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.new_n(), 7);
    }

    #[test]
    fn error_messages_name_the_offenders() {
        assert!(UpdateError::SelfLoop { vertex: 9 }
            .to_string()
            .contains('9'));
        assert!(UpdateError::MissingEdge { u: 3, v: 4 }
            .to_string()
            .contains("{3, 4}"));
        assert!(UpdateError::VertexOutOfRange {
            vertex: 11,
            limit: 10
        }
        .to_string()
        .contains("11"));
    }
}
