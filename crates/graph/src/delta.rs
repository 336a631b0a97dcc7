//! Graph mutation deltas.
//!
//! A [`GraphDelta`] is the normalised form of one batch of graph mutations: edge
//! insertions, edge deletions and vertex additions, symmetrised into directed arcs and
//! sorted so the rebuild paths ([`Csr::apply_delta`](crate::Csr::apply_delta),
//! [`DistGraph::apply_delta`](crate::DistGraph::apply_delta)) can walk its rows in source
//! order ([`GraphDelta::rows`]) beside the existing adjacency: runs of rows the delta does
//! not name are copied, only the rows it names are merged (bisecting for the neighbours
//! the delta names), and nothing is hashed or re-sorted.
//!
//! The delta layer is deliberately forgiving, mirroring [`CsrBuilder`](crate::CsrBuilder):
//! self loops and out-of-range endpoints are dropped during normalisation, duplicate
//! operations collapse, and an edge both inserted and deleted in the same batch resolves
//! to the deletion. Strict, typed validation of user-submitted update batches lives one
//! layer up, in `xtrapulp-dynamic`.

use crate::GlobalId;

/// One raw graph mutation, as produced by update-stream generators and user batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Insert the undirected edge `{u, v}` (a no-op if it already exists).
    InsertEdge(GlobalId, GlobalId),
    /// Delete the undirected edge `{u, v}` (a no-op if it does not exist).
    DeleteEdge(GlobalId, GlobalId),
    /// Append `count` new isolated vertices (ids `n..n + count`).
    AddVertices(u64),
}

impl UpdateOp {
    /// The op as the tagged record the on-disk formats store (the `.ulog` update log
    /// and the serving WAL): tag `0` is add-vertices with operands `(count, 0)`, `1`
    /// an insertion and `2` a deletion with operands `(u, v)`.
    pub fn record(&self) -> (u8, (u64, u64)) {
        match *self {
            UpdateOp::AddVertices(count) => (0, (count, 0)),
            UpdateOp::InsertEdge(u, v) => (1, (u, v)),
            UpdateOp::DeleteEdge(u, v) => (2, (u, v)),
        }
    }

    /// The op a [`record`](UpdateOp::record) encodes, or `None` for an unknown tag.
    pub fn from_record((tag, (a, b)): (u8, (u64, u64))) -> Option<UpdateOp> {
        match tag {
            0 => Some(UpdateOp::AddVertices(a)),
            1 => Some(UpdateOp::InsertEdge(a, b)),
            2 => Some(UpdateOp::DeleteEdge(a, b)),
            _ => None,
        }
    }
}

/// One mutation with its logical timestamp (a global, monotonically increasing event
/// counter across a whole mutation trace). This is the record type of the on-disk
/// update-log format ([`crate::io::read_update_log`] / [`crate::io::write_update_log`])
/// and of the streams `xtrapulp_gen::updates` generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOp {
    /// Logical event time.
    pub time: u64,
    /// The mutation.
    pub op: UpdateOp,
}

/// A normalised batch of graph mutations against a graph with `base_n` vertices.
///
/// Insert and delete arcs are stored symmetrised (both directions), sorted by
/// `(source, target)` and deduplicated, which is exactly the order the CSR rebuild
/// consumes them in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDelta {
    base_n: u64,
    added_vertices: u64,
    insert_arcs: Vec<(GlobalId, GlobalId)>,
    delete_arcs: Vec<(GlobalId, GlobalId)>,
}

impl GraphDelta {
    /// Normalise raw insert/delete edge lists into a delta against a graph with `base_n`
    /// vertices, growing it by `added_vertices`.
    ///
    /// Self loops and edges with an endpoint outside `0..base_n + added_vertices` are
    /// dropped; duplicates collapse; an edge present in both lists resolves to the
    /// deletion (the batch's net effect is "edge absent").
    pub fn new(
        base_n: u64,
        added_vertices: u64,
        insert_edges: &[(GlobalId, GlobalId)],
        delete_edges: &[(GlobalId, GlobalId)],
    ) -> GraphDelta {
        let new_n = base_n + added_vertices;
        let symmetrise = |edges: &[(GlobalId, GlobalId)]| -> Vec<(GlobalId, GlobalId)> {
            let mut arcs = Vec::with_capacity(edges.len() * 2);
            for &(u, v) in edges {
                if u == v || u >= new_n || v >= new_n {
                    continue;
                }
                arcs.push((u, v));
                arcs.push((v, u));
            }
            arcs.sort_unstable();
            arcs.dedup();
            arcs
        };
        let delete_arcs = symmetrise(delete_edges);
        let mut insert_arcs = symmetrise(insert_edges);
        insert_arcs.retain(|arc| delete_arcs.binary_search(arc).is_err());
        GraphDelta {
            base_n,
            added_vertices,
            insert_arcs,
            delete_arcs,
        }
    }

    /// Build a delta directly from a mixed op stream (insertions, deletions, vertex
    /// additions), e.g. one batch of a generated update stream.
    pub fn from_ops(base_n: u64, ops: impl IntoIterator<Item = UpdateOp>) -> GraphDelta {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        let mut added = 0u64;
        for op in ops {
            match op {
                UpdateOp::InsertEdge(u, v) => inserts.push((u, v)),
                UpdateOp::DeleteEdge(u, v) => deletes.push((u, v)),
                UpdateOp::AddVertices(count) => added += count,
            }
        }
        GraphDelta::new(base_n, added, &inserts, &deletes)
    }

    /// Vertex count of the graph the delta applies to.
    pub fn base_n(&self) -> u64 {
        self.base_n
    }

    /// Vertex count after application.
    pub fn new_n(&self) -> u64 {
        self.base_n + self.added_vertices
    }

    /// Number of vertices the delta appends.
    pub fn added_vertices(&self) -> u64 {
        self.added_vertices
    }

    /// The symmetrised, sorted insertion arcs (each inserted edge appears twice).
    pub fn insert_arcs(&self) -> &[(GlobalId, GlobalId)] {
        &self.insert_arcs
    }

    /// The symmetrised, sorted deletion arcs (each deleted edge appears twice).
    pub fn delete_arcs(&self) -> &[(GlobalId, GlobalId)] {
        &self.delete_arcs
    }

    /// Number of undirected edges the delta inserts.
    pub fn num_insert_edges(&self) -> u64 {
        self.insert_arcs.len() as u64 / 2
    }

    /// Number of undirected edges the delta deletes (whether or not they exist).
    pub fn num_delete_edges(&self) -> u64 {
        self.delete_arcs.len() as u64 / 2
    }

    /// True when applying the delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.added_vertices == 0 && self.insert_arcs.is_empty() && self.delete_arcs.is_empty()
    }

    /// Approximate heap + inline footprint in bytes, for the memory-accounting
    /// gauges (`mem_bytes{subsystem=...}`). Counts the two arc vectors at 16
    /// bytes per `(GlobalId, GlobalId)` arc plus the fixed header fields.
    pub fn approx_bytes(&self) -> u64 {
        32 + (self.insert_arcs.len() as u64 + self.delete_arcs.len() as u64) * 16
    }

    /// Is the arc `u -> v` scheduled for deletion?
    pub fn is_deleted(&self, u: GlobalId, v: GlobalId) -> bool {
        self.delete_arcs.binary_search(&(u, v)).is_ok()
    }

    /// The delta row by row: every source vertex with at least one insertion or deletion
    /// arc, in ascending order, with its sorted insertion and deletion arcs. This is the
    /// cursor both `apply_delta` kernels advance beside the old adjacency, so a row the
    /// delta does not name is never looked at.
    pub fn rows(&self) -> impl Iterator<Item = DeltaRow<'_>> + '_ {
        let (mut inserts, mut deletes) = (&self.insert_arcs[..], &self.delete_arcs[..]);
        std::iter::from_fn(move || {
            let source = match (inserts.first(), deletes.first()) {
                (Some(a), Some(b)) => a.0.min(b.0),
                (Some(a), None) | (None, Some(a)) => a.0,
                (None, None) => return None,
            };
            // A row holds a few arcs, so a scan finds its end sooner than a bisection.
            let len =
                |arcs: &[(GlobalId, GlobalId)]| arcs.iter().take_while(|a| a.0 == source).count();
            let (row_ins, rest_ins) = inserts.split_at(len(inserts));
            let (row_del, rest_del) = deletes.split_at(len(deletes));
            (inserts, deletes) = (rest_ins, rest_del);
            Some((source, row_ins, row_del))
        })
    }

    /// Global ids of every vertex incident to an inserted or deleted arc — the "affected"
    /// set a warm-started repartition revisits. Sorted and deduplicated.
    pub fn touched_vertices(&self) -> Vec<GlobalId> {
        let mut touched: Vec<GlobalId> = self
            .insert_arcs
            .iter()
            .chain(self.delete_arcs.iter())
            .map(|&(u, _)| u)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// [`touched_vertices`](GraphDelta::touched_vertices) plus every appended vertex —
    /// the seed set of a warm-started repartition's refinement frontier and of an
    /// incremental analytics consumer's active region. Sorted and deduplicated.
    pub fn touched_including_added(&self) -> Vec<GlobalId> {
        let mut touched = self.touched_vertices();
        // Arc endpoints may already reference appended ids, so the extended vector
        // needs a re-sort before dedup.
        touched.extend(self.base_n..self.new_n());
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// The undirected edges the delta deletes, each listed once as `(min, max)`.
    pub fn deleted_edges(&self) -> impl Iterator<Item = (GlobalId, GlobalId)> + '_ {
        self.delete_arcs.iter().copied().filter(|&(u, v)| u < v)
    }
}

/// One source vertex's share of a delta: `(source, insertion arcs, deletion arcs)`, the
/// arcs as sorted sub-slices of the delta's own (all with that source).
pub type DeltaRow<'a> = (
    GlobalId,
    &'a [(GlobalId, GlobalId)],
    &'a [(GlobalId, GlobalId)],
);

/// An offset type of a CSR: `u64` for graph rows, `u32` for halo rows.
pub(crate) trait Offset:
    Copy + std::ops::Add<Output = Self> + std::ops::Sub<Output = Self>
{
    /// The offset of position `len`.
    fn at(len: usize) -> Self;
    /// The position this offset names.
    fn index(self) -> usize;
}

impl Offset for u64 {
    fn at(len: usize) -> u64 {
        len as u64
    }
    fn index(self) -> usize {
        self as usize
    }
}

impl Offset for u32 {
    fn at(len: usize) -> u32 {
        len as u32
    }
    fn index(self) -> usize {
        self as usize
    }
}

/// Append the offsets of the untouched old rows `rows` to `offsets` (the new graph's, which
/// begin with row 0's zero), rebased so that the run starts where the new adjacency
/// currently ends; rows past the old graph's last are empty. Returns the old adjacency
/// range the run occupies, for the caller to copy.
fn rebase_run<O: Offset>(
    old_offsets: &[O],
    rows: std::ops::Range<usize>,
    offsets: &mut Vec<O>,
) -> std::ops::Range<usize> {
    let base = offsets[offsets.len() - 1];
    let old_rows = old_offsets.len() - 1;
    let (lo, hi) = (rows.start.min(old_rows), rows.end.min(old_rows));
    let rebased = old_offsets[lo + 1..=hi].iter();
    offsets.extend(rebased.map(|&end| end - old_offsets[lo] + base));
    let end = base + (old_offsets[hi] - old_offsets[lo]);
    offsets.resize(offsets.len() + rows.len() - (hi - lo), end);
    old_offsets[lo].index()..old_offsets[hi].index()
}

/// Patch a CSR into one of `n_rows` rows and at most `n_values` values: each row
/// `changed` names (ascending, with its payload) is written by `row`; the rows between
/// are the old rows of the same index, handed to `copy` one run at a time (rows past the
/// old last are empty). This is the one pass every delta takes over a CSR:
/// [`Csr::apply_delta`](crate::Csr::apply_delta), `DistGraph::apply_delta`'s rows and the
/// halo plan's two tables.
pub(crate) fn patch_rows<O: Offset, T, P>(
    (old_offsets, old_values): (&[O], &[T]),
    (n_rows, n_values): (usize, usize),
    changed: impl IntoIterator<Item = (usize, P)>,
    mut copy: impl FnMut(&[T], &mut Vec<T>),
    mut row: impl FnMut(usize, P, &mut Vec<T>),
) -> (Vec<O>, Vec<T>) {
    let mut offsets = Vec::with_capacity(n_rows + 1);
    offsets.push(O::at(0));
    let mut values = Vec::with_capacity(n_values);
    let mut next = 0;
    for (at, payload) in changed {
        copy(
            &old_values[rebase_run(old_offsets, next..at, &mut offsets)],
            &mut values,
        );
        row(at, payload, &mut values);
        offsets.push(O::at(values.len()));
        next = at + 1;
    }
    copy(
        &old_values[rebase_run(old_offsets, next..n_rows, &mut offsets)],
        &mut values,
    );
    (offsets, values)
}

/// What [`merge_row`] hands its caller, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merged<'a, T> {
    /// A run of the old row the delta leaves in place (inserting an edge that exists
    /// leaves it in place too).
    Kept(&'a [T]),
    /// A neighbour the delta inserts, by global id.
    Inserted(GlobalId),
    /// An old neighbour the delta deletes. It is not in the new row.
    Dropped(T),
}

/// Merge one vertex's old adjacency row — sorted by `key`, the neighbour's global id —
/// with the delta's sorted insert/delete arcs for it, calling `emit` in row order. Only
/// the neighbours the delta names are searched for (by bisection); the old row between
/// them goes out as [`Merged::Kept`] runs, so a long row with one change costs a copy
/// and a few lookups. The [`Csr`](crate::Csr) stores global ids; the
/// [`DistGraph`](crate::DistGraph) stores local ids, whose key is a lookup.
pub(crate) fn merge_row<'a, T: Copy>(
    old: &'a [T],
    key: impl Fn(T) -> GlobalId,
    inserts: &[(GlobalId, GlobalId)],
    deletes: &[(GlobalId, GlobalId)],
    mut emit: impl FnMut(Merged<'a, T>),
) {
    let mut rest = old;
    let mut ins = inserts.iter().map(|&(_, v)| v).peekable();
    let mut del = deletes.iter().map(|&(_, v)| v).peekable();
    loop {
        // The next neighbour the delta names; the old row below it is kept as it is.
        let target = match (ins.peek(), del.peek()) {
            (Some(&i), Some(&d)) => i.min(d),
            (Some(&v), None) | (None, Some(&v)) => v,
            (None, None) => break,
        };
        let at = rest.partition_point(|&v| key(v) < target);
        if at > 0 {
            emit(Merged::Kept(&rest[..at]));
            rest = &rest[at..];
        }
        let held = rest.first().copied().filter(|&v| key(v) == target);
        let inserted = ins.next_if_eq(&target).is_some();
        // Deleting an arc the row does not hold is a no-op; normalisation removed
        // insert/delete conflicts, but a deletion would win one.
        let deleted = del.next_if_eq(&target).is_some();
        match held {
            Some(v) if deleted => {
                emit(Merged::Dropped(v));
                rest = &rest[1..];
            }
            None if inserted && !deleted => emit(Merged::Inserted(target)),
            // Held and not deleted: it stays in `rest`, inside the next kept run.
            _ => {}
        }
    }
    if !rest.is_empty() {
        emit(Merged::Kept(rest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_symmetrises_sorts_and_dedups() {
        let d = GraphDelta::new(5, 0, &[(1, 0), (0, 1), (3, 2)], &[(4, 2)]);
        assert_eq!(d.insert_arcs(), &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(d.delete_arcs(), &[(2, 4), (4, 2)]);
        assert_eq!(d.num_insert_edges(), 2);
        assert_eq!(d.num_delete_edges(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn self_loops_and_out_of_range_edges_are_dropped() {
        let d = GraphDelta::new(3, 1, &[(2, 2), (0, 9), (0, 3)], &[(1, 1), (7, 0)]);
        // (0, 3) survives: vertex 3 exists after the one-vertex growth.
        assert_eq!(d.insert_arcs(), &[(0, 3), (3, 0)]);
        assert!(d.delete_arcs().is_empty());
        assert_eq!(d.new_n(), 4);
    }

    #[test]
    fn insert_delete_conflict_resolves_to_deletion() {
        let d = GraphDelta::new(4, 0, &[(0, 1), (2, 3)], &[(1, 0)]);
        assert_eq!(d.insert_arcs(), &[(2, 3), (3, 2)]);
        assert!(d.is_deleted(0, 1));
        assert!(d.is_deleted(1, 0));
    }

    #[test]
    fn from_ops_accumulates_all_op_kinds() {
        let d = GraphDelta::from_ops(
            4,
            [
                UpdateOp::InsertEdge(0, 1),
                UpdateOp::AddVertices(2),
                UpdateOp::DeleteEdge(2, 3),
                UpdateOp::InsertEdge(1, 4),
                UpdateOp::AddVertices(1),
            ],
        );
        assert_eq!(d.base_n(), 4);
        assert_eq!(d.added_vertices(), 3);
        assert_eq!(d.new_n(), 7);
        assert_eq!(d.num_insert_edges(), 2);
        assert_eq!(d.num_delete_edges(), 1);
    }

    #[test]
    fn row_cursor_and_touched_set() {
        let d = GraphDelta::new(6, 0, &[(0, 1), (0, 2), (4, 5)], &[(2, 3)]);
        let rows: Vec<DeltaRow<'_>> = d.rows().collect();
        // Insert-only, mixed, delete-only rows; vertex 3 has no inserts, none has both
        // slices empty, and sources ascend.
        let expected: Vec<DeltaRow<'_>> = vec![
            (0, &[(0, 1), (0, 2)], &[]),
            (1, &[(1, 0)], &[]),
            (2, &[(2, 0)], &[(2, 3)]),
            (3, &[], &[(3, 2)]),
            (4, &[(4, 5)], &[]),
            (5, &[(5, 4)], &[]),
        ];
        assert_eq!(rows, expected);
        assert_eq!(d.touched_vertices(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(GraphDelta::new(6, 2, &[], &[]).rows().count(), 0);
    }

    #[test]
    fn op_records_round_trip_and_only_three_tags_decode() {
        let ops = [
            UpdateOp::AddVertices(u64::MAX),
            UpdateOp::InsertEdge(u64::MAX, 0),
            UpdateOp::DeleteEdge(3, u64::MAX),
        ];
        for (tag, op) in ops.into_iter().enumerate() {
            assert_eq!(op.record().0, tag as u8);
            assert_eq!(UpdateOp::from_record(op.record()), Some(op));
        }
        assert_eq!(UpdateOp::AddVertices(5).record(), (0, (5, 0)));
        for tag in 3..=u8::MAX {
            assert_eq!(UpdateOp::from_record((tag, (1, 2))), None, "tag {tag}");
        }
    }

    #[test]
    fn touched_including_added_covers_endpoints_and_new_tail() {
        // Base graph of 4 vertices grows by 2; one insert references an added vertex.
        let d = GraphDelta::new(4, 2, &[(0, 5), (1, 2)], &[(2, 3)]);
        assert_eq!(d.touched_including_added(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(
            d.deleted_edges().collect::<Vec<_>>(),
            vec![(2, 3)],
            "each undirected deletion is listed once"
        );
    }

    #[test]
    fn empty_delta_is_empty() {
        let d = GraphDelta::new(10, 0, &[], &[]);
        assert!(d.is_empty());
        assert_eq!(d.new_n(), 10);
        assert!(d.touched_vertices().is_empty());
    }

    #[test]
    fn merge_row_handles_all_cases() {
        // Old row {1, 3, 5, 6, 8} (payload: the id times ten, keyed back to the id);
        // insert {2, 3 (dup), 7}; delete {5, 9 (absent)}.
        let inserts = [(0u64, 2u64), (0, 3), (0, 7)];
        let deletes = [(0u64, 5u64), (0, 9)];
        let mut out = Vec::new();
        let old = [10u64, 30, 50, 60, 80];
        merge_row(
            &old,
            |v| v / 10,
            &inserts,
            &deletes,
            |merged| out.push(merged),
        );
        // Kept runs and dropped arcs come back with their payload, inserted ones by id;
        // the duplicate insert of 3 stays inside a kept run, the absent 9 is not
        // reported.
        use Merged::*;
        assert_eq!(
            out,
            vec![
                Kept(&old[..1]),
                Inserted(2),
                Kept(&old[1..2]),
                Dropped(50),
                Kept(&old[3..4]),
                Inserted(7),
                Kept(&old[4..]),
            ]
        );
        out.clear();
        merge_row(&old, |v| v / 10, &[], &[], |merged| out.push(merged));
        assert_eq!(out, vec![Kept(&old[..])]);
    }

    #[test]
    fn rebase_run_shifts_offsets_and_pads_new_rows() {
        let old = [0u64, 2, 5, 5, 9];
        let mut offsets = vec![0u64, 7];
        // Rows 1..3 of the old graph land at adjacency position 7.
        assert_eq!(rebase_run(&old, 1..3, &mut offsets), 2..5);
        assert_eq!(offsets, vec![0, 7, 10, 10]);
        // A run reaching past the old graph's 4 rows: row 3, then two empty new rows.
        assert_eq!(rebase_run(&old, 3..6, &mut offsets), 5..9);
        assert_eq!(offsets, vec![0, 7, 10, 10, 14, 14, 14]);
        // A run entirely past the end copies nothing.
        assert_eq!(rebase_run(&old, 6..7, &mut offsets), 9..9);
        assert_eq!(offsets.last(), Some(&14));
        assert_eq!(rebase_run(&old, 2..2, &mut offsets).len(), 0);
        assert_eq!(offsets.len(), 8);
    }
}
