//! Randomised property tests of the core invariants: partition validity, balance
//! behaviour, CSR construction and the communication substrate.
//!
//! These were originally `proptest` properties; they now run on a plain
//! seeded-RNG case loop (24 cases per property, like the old
//! `ProptestConfig::with_cases(24)`) so the workspace has no dev-dependency on
//! a shrinking framework. Failures print the generating seed, which is enough
//! to reproduce a case deterministically.

use std::collections::{BTreeSet, HashMap};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xtrapulp_suite::api::UpdateSummary;
use xtrapulp_suite::core::metrics::{is_valid_partition, PartitionQuality};
use xtrapulp_suite::core::sweep::refine_budget;
use xtrapulp_suite::core::{
    baselines, run_xtrapulp_job, try_pulp_partition, try_pulp_run, GraphSource,
};
use xtrapulp_suite::dynamic::UpdateBatch;
use xtrapulp_suite::graph::{csr_from_edges, DistGraph, Distribution, LocalId, UNASSIGNED};
use xtrapulp_suite::multilevel::metis_like;
use xtrapulp_suite::prelude::*;

const CASES: u64 = 24;

/// A random edge list over `2..max_n` vertices, mirroring the old proptest
/// strategy: up to 400 arbitrary (possibly self-loop, possibly duplicate)
/// endpoint pairs, which `csr_from_edges` must clean up.
fn edge_list(rng: &mut SmallRng, max_n: u64) -> (u64, Vec<(u64, u64)>) {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(1..400usize);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    (n, edges)
}

#[test]
fn csr_is_symmetric_and_simple() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC5A0 + case);
        let (n, edges) = edge_list(&mut rng, 200);
        let csr = csr_from_edges(n, &edges);
        assert_eq!(csr.num_vertices() as u64, n, "case {case}");
        for (u, v) in csr.arcs() {
            assert_ne!(u, v, "case {case}: self-loop survived");
            assert!(
                csr.neighbors(v).contains(&u),
                "case {case}: arc ({u},{v}) has no reverse"
            );
        }
        for v in 0..n {
            let mut neigh = csr.neighbors(v).to_vec();
            let len = neigh.len();
            neigh.dedup();
            assert_eq!(neigh.len(), len, "case {case}: duplicate neighbours of {v}");
        }
    }
}

#[test]
fn xtrapulp_partitions_are_always_valid() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x11AA + case);
        let (n, edges) = edge_list(&mut rng, 160);
        let nparts = rng.gen_range(2..9usize);
        let nranks = rng.gen_range(1..4usize);
        let csr = csr_from_edges(n, &edges);
        let params = PartitionParams {
            num_parts: nparts,
            seed: 11,
            ..Default::default()
        };
        let source = GraphSource::Csr(&csr, &Distribution::Block);
        let parts = run_xtrapulp_job(&mut Runtime::new(nranks), source, &params, None, None)
            .unwrap()
            .parts;
        assert_eq!(parts.len(), csr.num_vertices(), "case {case}");
        assert!(is_valid_partition(&parts, nparts), "case {case}");
        // Every part's vertex count is accounted for exactly once.
        let total: usize = (0..nparts)
            .map(|p| parts.iter().filter(|&&x| x == p as i32).count())
            .sum();
        assert_eq!(total, csr.num_vertices(), "case {case}");
    }
}

#[test]
fn pulp_partitions_are_valid_and_cut_is_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5107 + case);
        let (n, edges) = edge_list(&mut rng, 160);
        let nparts = rng.gen_range(2..8usize);
        let csr = csr_from_edges(n, &edges);
        let params = PartitionParams {
            num_parts: nparts,
            seed: 7,
            ..Default::default()
        };
        let parts = try_pulp_partition(&csr, &params).unwrap();
        let q = PartitionQuality::evaluate(&csr, &parts, nparts);
        assert!(is_valid_partition(&parts, nparts), "case {case}");
        assert!(q.edge_cut <= csr.num_edges(), "case {case}");
        assert!(q.edge_cut_ratio <= 1.0 + 1e-12, "case {case}");
    }
}

#[test]
fn distributed_graph_conserves_edges() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD157 + case);
        let (n, edges) = edge_list(&mut rng, 150);
        let nranks = rng.gen_range(1..5usize);
        let csr = csr_from_edges(n, &edges);
        let expected_m = csr.num_edges();
        let out = Runtime::new(nranks).execute(|ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, n, &edges);
            (g.global_m(), g.local_arcs())
        });
        let total_arcs: u64 = out.iter().map(|(_, a)| a).sum();
        assert_eq!(total_arcs, expected_m * 2, "case {case}");
        assert!(out.iter().all(|&(m, _)| m == expected_m), "case {case}");
    }
}

#[test]
fn block_partition_is_always_near_balanced() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB10C + case);
        let n = rng.gen_range(1..5000u64);
        let nparts = rng.gen_range(1..32usize);
        let parts = baselines::vertex_block_partition(n, nparts);
        assert_eq!(parts.len() as u64, n, "case {case}");
        assert!(is_valid_partition(&parts, nparts), "case {case}");
        let mut counts = vec![0u64; nparts];
        for &p in &parts {
            counts[p as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "case {case}: counts {counts:?}");
    }
}

#[test]
fn random_partition_covers_only_valid_parts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7A2D + case);
        let n = rng.gen_range(1..3000u64);
        let nparts = rng.gen_range(1..17usize);
        let seed = rng.gen_range(0..100u64);
        let parts = baselines::random_partition(n, nparts, seed);
        assert!(is_valid_partition(&parts, nparts), "case {case}");
    }
}

/// The serial evaluation is internally consistent, and the collective one equals it
/// exactly — every field, no tolerance — on every rank, for all four distributions on
/// 1–4 ranks, isolated vertices and ranks that own nothing included.
#[test]
fn quality_metrics_are_internally_consistent() {
    let (mut isolated, mut empty_ranks) = (0, 0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9A11 + case);
        let (n, edges) = edge_list(&mut rng, 120);
        let nparts = rng.gen_range(1..6usize);
        let csr = csr_from_edges(n, &edges);
        let parts = baselines::random_partition(n, nparts, 5);
        let q = PartitionQuality::evaluate(&csr, &parts, nparts);
        assert!(q.edge_cut <= csr.num_edges(), "case {case}");
        assert!(q.max_part_cut <= q.edge_cut.max(1) * 2, "case {case}");
        assert!(
            q.vertex_imbalance >= 1.0 - 1e-9 || csr.num_vertices() == 0,
            "case {case}"
        );
        isolated += (0..n).filter(|&v| csr.degree(v) == 0).count();
        for nranks in 1..=4usize {
            for (d, dist) in distributions(n, nranks).into_iter().enumerate() {
                let per_rank = Runtime::new(nranks).execute(|ctx| {
                    let g = DistGraph::from_csr(ctx, dist.clone(), &csr);
                    let local: Vec<i32> = (0..g.n_total() as LocalId)
                        .map(|v| parts[g.global_id(v) as usize])
                        .collect();
                    let dq = PartitionQuality::evaluate_dist(ctx, &g, &local, nparts);
                    (g.n_owned() == 0, dq)
                });
                for (rank, (owns_nothing, dq)) in per_rank.into_iter().enumerate() {
                    empty_ranks += usize::from(owns_nothing);
                    let what = format!("case {case} dist {d} ranks {nranks} rank {rank}");
                    assert_eq!(dq, q, "{what}");
                }
            }
        }
    }
    assert!(
        isolated > 0 && empty_ranks > 0,
        "the generator missed a situation: {isolated} isolated vertices, {empty_ranks} empty ranks"
    );
}

/// One step of a delta chain over the undirected edge set `edges` on `n` vertices. Step 2
/// concentrates many ops on vertex 0 (a hub row), step 4 is the empty delta; all but that
/// one mix random insertions (some to the appended vertices, some already present),
/// deletions of existing edges and of edges that were never there.
fn delta_step(
    rng: &mut SmallRng,
    step: usize,
    n: u64,
    grow: bool,
    edges: &BTreeSet<(u64, u64)>,
) -> GraphDelta {
    if step == 4 {
        return GraphDelta::new(n, 0, &[], &[]);
    }
    let added = if grow { rng.gen_range(0..4u64) } else { 0 };
    let new_n = n + added;
    let existing: Vec<_> = edges.iter().copied().collect();
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    if step == 2 {
        inserts.extend((0..12).map(|_| (0, rng.gen_range(0..new_n))));
        deletes.extend(existing.iter().filter(|e| e.0 == 0).take(6));
    }
    for _ in 0..rng.gen_range(1..12usize) {
        inserts.push((rng.gen_range(0..new_n), rng.gen_range(0..new_n)));
    }
    for _ in 0..rng.gen_range(0..10usize) {
        if !existing.is_empty() && rng.gen_range(0..4) != 0 {
            deletes.push(existing[rng.gen_range(0..existing.len())]);
        } else {
            deletes.push((rng.gen_range(0..new_n), rng.gen_range(0..new_n)));
        }
    }
    GraphDelta::new(n, added, &inserts, &deletes)
}

/// The four ways to own `n` vertices on `nranks` ranks: `Block`, `Cyclic`, `Hashed`, and
/// an `Explicit` table under which the last rank owns nothing until growth hashes it a
/// tail vertex.
fn distributions(n: u64, nranks: usize) -> [Distribution; 4] {
    let explicit: Vec<i32> = (0..n)
        .map(|v| (v % (nranks as u64 - 1).max(1)) as i32)
        .collect();
    [
        Distribution::Block,
        Distribution::Cyclic,
        Distribution::Hashed,
        Distribution::from_parts(&explicit),
    ]
}

/// Everything the public accessors say about a rank's graph must be equal: ids in both
/// directions (stale entries included), degrees (ghost degrees too), owners, adjacency
/// by local id, the ghost table and both halves of the halo plan. The id lookups of `a`
/// are also held against oracles that share nothing with the implementation: a table
/// made by scanning `global_id` over every local id, and the distribution's owner.
fn assert_same_dist_graph(a: &DistGraph, b: &DistGraph, what: &str) {
    assert_eq!(a.global_n(), b.global_n(), "{what}: global_n");
    assert_eq!(a.global_m(), b.global_m(), "{what}: global_m");
    assert_eq!(a.n_owned(), b.n_owned(), "{what}: n_owned");
    assert_eq!(a.ghost_globals(), b.ghost_globals(), "{what}: ghost table");
    let scanned: HashMap<u64, LocalId> = (0..a.n_total() as LocalId)
        .map(|v| (a.global_id(v), v))
        .collect();
    for g in 0..=a.global_n() {
        assert_eq!(a.local_id(g), b.local_id(g), "{what}: local_id({g})");
        assert_eq!(
            a.local_id(g),
            scanned.get(&g).copied(),
            "{what}: local_id({g}) against the scan"
        );
        assert_eq!(
            a.owned_local_id(g).is_some(),
            g < a.global_n() && a.owner_of_global(g) == a.rank(),
            "{what}: owned_local_id({g})"
        );
    }
    for v in 0..a.n_total() as LocalId {
        assert_eq!(a.global_id(v), b.global_id(v), "{what}: global_id({v})");
        assert_eq!(
            a.local_id(a.global_id(v)),
            Some(v),
            "{what}: round trip {v}"
        );
        assert_eq!(a.degree(v), b.degree(v), "{what}: degree({v})");
        assert_eq!(
            a.owner_of_local(v),
            b.owner_of_local(v),
            "{what}: owner({v})"
        );
    }
    for v in a.owned_vertices() {
        assert_eq!(a.neighbors(v), b.neighbors(v), "{what}: neighbors({v})");
        assert_eq!(
            a.halo().targets(v),
            b.halo().targets(v),
            "{what}: targets({v})"
        );
    }
    for slot in 0..a.n_ghost() {
        assert_eq!(
            a.halo().owned_neighbors(slot),
            b.halo().owned_neighbors(slot),
            "{what}: owned_neighbors({slot})"
        );
    }
}

/// `a` is `b` up to which slot each ghost holds: a delta chain keeps surviving ghosts
/// in their slots and refills orphaned ones, where a build from scratch hands slots out
/// in first-seen row order, and no result depends on the slot a ghost holds. So every
/// accessor is compared by global id: the ghost set, ids in both directions (stale ones
/// included), degrees, owners, rows, the send plan's destinations and the ghost→owned
/// transposes under the slot permutation. Then across ranks: every `(holder, local id)`
/// target of `a`'s send plan names a ghost of that vertex, and every ghost is named
/// once, and a refresh of global ids lands each ghost's own id. Must be called
/// collectively.
fn assert_equivalent_dist_graph(ctx: &RankCtx, a: &DistGraph, b: &DistGraph, what: &str) {
    assert_eq!(a.global_n(), b.global_n(), "{what}: global_n");
    assert_eq!(a.global_m(), b.global_m(), "{what}: global_m");
    assert_eq!(a.n_owned(), b.n_owned(), "{what}: n_owned");
    assert_eq!(a.n_ghost(), b.n_ghost(), "{what}: n_ghost");
    let sorted = |g: &DistGraph| g.ghost_globals().iter().copied().collect::<BTreeSet<_>>();
    assert_eq!(sorted(a), sorted(b), "{what}: ghost set");
    assert_eq!(sorted(a).len(), a.n_ghost(), "{what}: a ghost held twice");
    for g in 0..=a.global_n() {
        let (la, lb) = (a.local_id(g), b.local_id(g));
        assert_eq!(la.is_some(), lb.is_some(), "{what}: local_id({g})");
        if let Some(la) = la {
            assert_eq!(a.global_id(la), g, "{what}: round trip {g}");
        }
        assert_eq!(
            a.owned_local_id(g),
            b.owned_local_id(g),
            "{what}: owned_local_id({g})"
        );
    }
    for v in 0..a.n_total() as LocalId {
        let g = a.global_id(v);
        assert_eq!(a.local_id(g), Some(v), "{what}: round trip {v}");
        let w = b.local_id(g).unwrap();
        assert_eq!(a.degree(v), b.degree(w), "{what}: degree of {g}");
        assert_eq!(
            a.owner_of_local(v),
            b.owner_of_local(w),
            "{what}: owner of {g}"
        );
    }
    let by_global = |g: &DistGraph, row: &[LocalId]| -> Vec<u64> {
        row.iter().map(|&u| g.global_id(u)).collect()
    };
    let holders =
        |g: &DistGraph, v| -> Vec<u32> { g.halo().targets(v).iter().map(|t| t.0).collect() };
    for v in a.owned_vertices() {
        assert_eq!(
            by_global(a, a.neighbors(v)),
            by_global(b, b.neighbors(v)),
            "{what}: neighbors({v})"
        );
        assert_eq!(holders(a, v), holders(b, v), "{what}: targets({v})");
    }
    for (slot, &g) in a.ghost_globals().iter().enumerate() {
        let other = b.local_id(g).unwrap() as usize - b.n_owned();
        assert_eq!(
            a.halo().owned_neighbors(slot),
            b.halo().owned_neighbors(other),
            "{what}: owned_neighbors of {g}"
        );
    }

    // Across ranks: each target names a ghost of the vertex, each ghost once.
    let mut claims: Vec<Vec<(LocalId, u64)>> = vec![Vec::new(); ctx.nranks()];
    for v in a.owned_vertices() {
        for &(holder, lid) in a.halo().targets(v) {
            claims[holder as usize].push((lid, a.global_id(v)));
        }
    }
    let mut named = vec![0u32; a.n_ghost()];
    for (lid, g) in ctx.alltoallv(claims).into_iter().flatten() {
        assert!(!a.is_owned(lid), "{what}: a target names owned {lid}");
        assert_eq!(a.global_id(lid), g, "{what}: a target names {lid} for {g}");
        named[lid as usize - a.n_owned()] += 1;
    }
    assert!(
        named.iter().all(|&n| n == 1),
        "{what}: ghosts named {named:?}"
    );
    let mut ids: Vec<u64> = (0..a.n_total() as LocalId)
        .map(|v| a.global_id(v))
        .collect();
    let ghosts_before = ids[a.n_owned()..].to_vec();
    ids[a.n_owned()..].fill(u64::MAX);
    a.refresh_ghosts(ctx, &mut ids).unwrap();
    assert_eq!(
        ids[a.n_owned()..],
        ghosts_before[..],
        "{what}: refresh of global ids"
    );
}

/// The situations one delta puts a rank's `apply_delta` in, counted so the test can
/// insist its generator reached each: `[inserted arc to an old owned vertex, to an old
/// ghost ahead of the ghost's first old row, to a vertex this rank newly owns, to a
/// brand-new ghost, a ghost orphaned, a rank owning nothing, a brand-new ghost reached
/// from two different rows, an orphaned slot refilled by a brand-new ghost, one refilled
/// by the table's last ghost, a non-empty delta that changes no ghost]`.
fn situations(old: &DistGraph, new: &DistGraph, delta: &GraphDelta, rank: usize) -> [u64; 10] {
    let mut hit = [0u64; 10];
    let mut new_ghost_rows: HashMap<u64, BTreeSet<u64>> = HashMap::new();
    for &(u, v) in delta.insert_arcs() {
        if new.owner_of_global(u) != rank {
            continue;
        }
        match old.local_id(v) {
            Some(lv) if old.is_owned(lv) => hit[0] += 1,
            Some(lv) => {
                let first_row = old.halo().owned_neighbors(lv as usize - old.n_owned())[0];
                hit[1] += u64::from(old.local_id(u).is_some_and(|lu| lu < first_row));
            }
            None if new.owner_of_global(v) == rank => hit[2] += 1,
            None => {
                hit[3] += 1;
                new_ghost_rows.entry(v).or_default().insert(u);
            }
        }
    }
    hit[6] = new_ghost_rows
        .values()
        .filter(|rows| rows.len() > 1)
        .count() as u64;
    let orphaned = |g: &&u64| new.local_id(**g).is_none();
    hit[4] = old.ghost_globals().iter().filter(orphaned).count() as u64;
    hit[5] = u64::from(new.n_owned() == 0);
    for (slot, g) in old.ghost_globals().iter().enumerate() {
        let Some(&now) = new.ghost_globals().get(slot).filter(|_| orphaned(&g)) else {
            continue;
        };
        match old.local_id(now) {
            None => hit[7] += 1,
            Some(was) => hit[8] += u64::from(was as usize > old.n_owned() + slot),
        }
    }
    let unchanged = old.ghost_globals() == new.ghost_globals() && old.n_ghost() > 0;
    hit[9] = u64::from(!delta.is_empty() && unchanged);
    hit
}

#[test]
fn delta_chains_match_from_scratch_builds() {
    let mut hit = [0u64; 10];
    for case in 0..CASES {
        for (d, grow) in [(0, false), (1, true), (2, true), (3, true)] {
            for nranks in 1..=4usize {
                let mut rng = SmallRng::seed_from_u64(0xDE17A + case);
                let (n0, raw) = edge_list(&mut rng, 48);
                let dist = distributions(n0, nranks)[d].clone();
                // The chain, generated once and shared by every rank: per step the
                // delta and the edge list after it.
                let mut edges: BTreeSet<(u64, u64)> = raw
                    .iter()
                    .filter(|(u, v)| u != v)
                    .map(|&(u, v)| (u.min(v), u.max(v)))
                    .collect();
                let start: Vec<_> = edges.iter().copied().collect();
                let mut n = n0;
                let chain: Vec<_> = (0..6)
                    .map(|step| {
                        let delta = delta_step(&mut rng, step, n, grow, &edges);
                        assert_eq!(delta.is_empty(), step == 4);
                        n = delta.new_n();
                        for &(u, v) in delta.delete_arcs() {
                            edges.remove(&(u.min(v), u.max(v)));
                        }
                        edges.extend(delta.insert_arcs().iter().filter(|(u, v)| u < v));
                        (delta, n, edges.iter().copied().collect::<Vec<_>>())
                    })
                    .collect();

                let mut csr = csr_from_edges(n0, &start);
                for (step, (delta, n, after)) in chain.iter().enumerate() {
                    csr = csr.apply_delta(delta);
                    let what = format!("case {case} step {step}");
                    assert_eq!(csr, csr_from_edges(*n, after), "{what}: csr");
                }

                let per_rank = Runtime::new(nranks).execute(|ctx| {
                    let mut hit = [0u64; 10];
                    let mut dist = dist.clone();
                    let mut g = DistGraph::from_shared_edges(ctx, dist.clone(), n0, &start);
                    for (step, (delta, n, after)) in chain.iter().enumerate() {
                        let updated = g.apply_delta(ctx, delta);
                        dist = dist.grown(*n, nranks);
                        let scratch = DistGraph::from_shared_edges(ctx, dist.clone(), *n, after);
                        let what = format!(
                            "case {case} dist {d} ranks {nranks} rank {} step {step}",
                            ctx.rank()
                        );
                        assert_equivalent_dist_graph(ctx, &updated, &scratch, &what);
                        for (total, now) in
                            hit.iter_mut()
                                .zip(situations(&g, &updated, delta, ctx.rank()))
                        {
                            *total += now;
                        }
                        g = updated;
                    }
                    hit
                });
                for rank_hit in per_rank {
                    for (total, now) in hit.iter_mut().zip(rank_hit) {
                        *total += now;
                    }
                }
            }
        }
    }
    assert!(
        hit.iter().all(|&h| h > 0),
        "the generator missed a situation: {hit:?}"
    );
}

/// `redistribute` against a from-scratch build on the target distribution, for every
/// (source, target) pair of the four distributions on 1–4 ranks. Then mid-chain: a
/// delta, a move onto `Block`, and a delta that grows the `Block` graph, which moves
/// owners again.
#[test]
fn redistribution_matches_from_scratch_builds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7ED15 + case);
        let (n, raw) = edge_list(&mut rng, 48);
        let csr = csr_from_edges(n, &raw);
        let first = delta_step(&mut rng, 1, n, false, &csr.edges().collect());
        let after_first = csr.apply_delta(&first);
        let inserts = [(n, 0), (n + 1, n), (n + 1, rng.gen_range(0..n))];
        let deletes: Vec<_> = after_first.edges().take(2).collect();
        let grow = GraphDelta::new(n, 2, &inserts, &deletes);
        let after_grow = after_first.apply_delta(&grow);
        for nranks in 1..=4usize {
            let dists = distributions(n, nranks);
            Runtime::new(nranks).execute(|ctx| {
                let rank = ctx.rank();
                for (s, source) in dists.iter().enumerate() {
                    let g = DistGraph::from_csr(ctx, source.clone(), &csr);
                    for (t, target) in dists.iter().enumerate() {
                        assert_same_dist_graph(
                            &g.redistribute(ctx, target.clone()),
                            &DistGraph::from_csr(ctx, target.clone(), &csr),
                            &format!("case {case} ranks {nranks} rank {rank}: {s} -> {t}"),
                        );
                    }
                    let what = format!("case {case} ranks {nranks} rank {rank}: {s} mid-chain");
                    let moved = g
                        .apply_delta(ctx, &first)
                        .redistribute(ctx, Distribution::Block);
                    let block = |csr| DistGraph::from_csr(ctx, Distribution::Block, csr);
                    assert_same_dist_graph(&moved, &block(&after_first), &what);
                    let grown = moved.apply_delta(ctx, &grow);
                    assert_same_dist_graph(&grown, &block(&after_grow), &format!("{what}, grown"));
                }
            });
        }
    }
}

/// The reference apply of a batch to `csr` at `epoch`: compile, check every named edge
/// by a binary search of its lower endpoint's row (inserts first, then deletes, each in
/// arc order), then [`Csr::apply_delta`].
fn reference_apply(
    csr: &Csr,
    epoch: u64,
    batch: &UpdateBatch,
) -> Result<(UpdateSummary, Csr), UpdateError> {
    let n = csr.num_vertices() as u64;
    let delta = batch.compile(n)?;
    let has_edge = |u: u64, v: u64| u < n && csr.neighbors(u).binary_search(&v).is_ok();
    for &(u, v) in delta.insert_arcs() {
        if u < v && has_edge(u, v) {
            return Err(UpdateError::EdgeAlreadyExists { u, v });
        }
    }
    for &(u, v) in delta.delete_arcs() {
        if u < v && !has_edge(u, v) {
            return Err(UpdateError::MissingEdge { u, v });
        }
    }
    let summary = UpdateSummary {
        epoch: epoch + 1,
        vertices_added: delta.added_vertices(),
        edges_inserted: delta.num_insert_edges(),
        edges_deleted: delta.num_delete_edges(),
        vertices_touched: delta.touched_vertices().iter().filter(|&&v| v < n).count() as u64,
    };
    Ok((summary, csr.apply_delta(&delta)))
}

/// One batch against `csr`: random inserts (some of existing edges), deletes of existing
/// edges, sometimes vertex additions with an edge between two new vertices, and
/// sometimes one op the live topology must reject. `hit` counts the situations the
/// oracle must see: an insert of an existing edge, a delete of a missing edge, a delete
/// naming a vertex the batch adds and an insert between two new vertices.
fn oracle_batch(rng: &mut SmallRng, csr: &Csr, hit: &mut [u64; 5]) -> UpdateBatch {
    let n = csr.num_vertices() as u64;
    let edges: Vec<_> = csr.edges().collect();
    let added = [0, 0, 1, 3][rng.gen_range(0..4usize)];
    let mut batch = UpdateBatch::new();
    if added > 0 {
        batch.add_vertices(added);
    }
    for _ in 0..rng.gen_range(1..4) {
        let (u, v) = (rng.gen_range(0..n + added), rng.gen_range(0..n + added));
        if u != v {
            batch.insert_edge(u, v);
        }
    }
    for _ in 0..rng.gen_range(0..3) {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        batch.delete_edge(v, u);
    }
    if added > 1 {
        batch.insert_edge(n + 1, n);
        hit[3] += 1;
    }
    match rng.gen_range(0..8) {
        0 => {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            batch.insert_edge(u, v);
            hit[0] += 1;
        }
        1 => {
            let u = rng.gen_range(0..n);
            if let Some(v) = (0..n).find(|&v| v != u && !csr.neighbors(u).contains(&v)) {
                batch.delete_edge(u, v);
                hit[1] += 1;
            }
        }
        2 if added > 0 => {
            batch.delete_edge(n + added - 1, rng.gen_range(0..n));
            hit[2] += 1;
        }
        _ => {}
    }
    batch
}

/// A [`DynamicSession`] against a test-local reference [`Csr`] through the same seeded
/// batches, for every distribution on 1–4 ranks: every batch's result (summary or
/// error) and the assembled topology after it equal the reference's, and a rejected
/// batch leaves the epoch where it was. Serial methods' partitions equal the method run
/// on the reference graph: cold at epoch 0, warm from the previous epoch afterwards.
#[test]
fn dynamic_sessions_validate_and_assemble_like_a_reference_csr() {
    let mut hit = [0u64; 5];
    for case in 0..6u64 {
        let method = [Method::XtraPulp, Method::Pulp, Method::MetisLike][case as usize % 3];
        for nranks in 1..=4usize {
            for (d, dist) in distributions(24, nranks).into_iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(0x0AC1E + case);
                let raw: Vec<_> = (0..60)
                    .map(|_| (rng.gen_range(0..24), rng.gen_range(0..24)))
                    .collect();
                let mut reference = csr_from_edges(24, &raw);
                let params = PartitionParams {
                    num_parts: 3,
                    seed: case,
                    ..Default::default()
                };
                let job = PartitionJob::new(method).with_params(params);
                let block = matches!(dist, Distribution::Block);
                let session = Session::with_distribution(nranks, dist).unwrap();
                let mut dynamic = DynamicSession::new(session, reference.clone(), job).unwrap();
                let serial = !method.is_distributed();
                let mut parts = Vec::new();
                if serial {
                    parts = dynamic.repartition().unwrap().report.parts;
                    let cold = match method {
                        Method::Pulp => try_pulp_partition(&reference, &params),
                        _ => metis_like(&reference, &params, None),
                    };
                    let cold = cold.unwrap();
                    assert_eq!(parts, cold, "case {case} dist {d} ranks {nranks}: cold");
                }
                for step in 0..10 {
                    let what = format!("case {case} dist {d} ranks {nranks} step {step}");
                    let batch = oracle_batch(&mut rng, &reference, &mut hit);
                    let epoch = dynamic.epoch();
                    match reference_apply(&reference, epoch, &batch) {
                        Ok((summary, next)) => {
                            assert_eq!(dynamic.apply_updates(&batch), Ok(summary), "{what}");
                            hit[4] += (block && summary.vertices_added > 0) as u64;
                            let touched = batch
                                .compile(reference.num_vertices() as u64)
                                .unwrap()
                                .touched_including_added();
                            reference = next;
                            if serial {
                                parts.resize(reference.num_vertices(), UNASSIGNED);
                                let warm = if method == Method::Pulp {
                                    let warm = Some((&parts[..], Some(&touched[..])));
                                    try_pulp_run(&reference, &params, warm).unwrap().parts
                                } else {
                                    metis_like(&reference, &params, Some(&parts)).unwrap()
                                };
                                parts = dynamic.repartition().unwrap().report.parts;
                                assert_eq!(parts, warm, "{what}: warm");
                            }
                        }
                        Err(error) => {
                            assert_eq!(dynamic.apply_updates(&batch), Err(error), "{what}");
                            assert_eq!(dynamic.epoch(), epoch, "{what}");
                        }
                    }
                    assert_eq!(dynamic.csr(), reference, "{what}");
                }
            }
        }
    }
    assert!(
        hit.iter().all(|&h| h > 0),
        "the generator missed a situation: {hit:?}"
    );
}

/// The warm-vs-cold leg of the oracle harness: chains of six deltas (growth, a hub burst
/// and an empty delta among them) over four planted communities, the partition carried
/// forward warm from epoch to epoch and a cold run on the same graph beside it. Cold
/// label propagation on graphs this small lands anywhere between the planted cut and
/// several times it, so the envelope has three sides: an epoch never leaves the cut worse
/// than the delta did (the previous cut plus the edges inserted), it is as well balanced
/// as the targets' slack or as its cold twin, and over all epochs the typical warm cut is
/// the typical cold one. A refine-only epoch also ends short of its sweep budget.
#[test]
fn warm_chains_stay_inside_the_cold_quality_envelope() {
    let num_parts = 4;
    let mut cut_ratios = Vec::new();
    let mut refine_only = 0;
    for case in 0..8u64 {
        for (d, dist) in [
            Distribution::Block,
            Distribution::Cyclic,
            Distribution::Hashed,
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(0x3A12 + case);
            let nranks = 1 + (case as usize + d) % 4;
            let block = rng.gen_range(40..70u64);
            let mut n = num_parts as u64 * block;
            let mut edges = BTreeSet::new();
            for v in 0..n {
                for _ in 0..5 {
                    let u = v / block * block + rng.gen_range(0..block);
                    edges.insert((u.min(v), u.max(v)));
                }
            }
            for _ in 0..n / 3 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                edges.insert((u.min(v), u.max(v)));
            }
            edges.retain(|(u, v)| u != v);

            let params = PartitionParams {
                num_parts,
                seed: case,
                ..Default::default()
            };
            let sweep_cap = params.outer_iters as u64 * refine_budget(params.refine_iters);
            let balanced = |imbalance: f64, target: f64, cold: f64| {
                imbalance <= ((1.0 + target) * 1.02).max(cold)
            };
            let mut runtime = Runtime::new(nranks);
            let mut csr = csr_from_edges(n, &edges.iter().copied().collect::<Vec<_>>());
            let mut previous = run_xtrapulp_job(
                &mut runtime,
                GraphSource::Csr(&csr, &dist),
                &params,
                None,
                None,
            )
            .expect("cold epoch 0");
            for step in 0..6 {
                let delta = delta_step(&mut rng, step, n, true, &edges);
                n = delta.new_n();
                for &(u, v) in delta.delete_arcs() {
                    edges.remove(&(u.min(v), u.max(v)));
                }
                let edges_before = edges.len();
                edges.extend(delta.insert_arcs().iter().filter(|(u, v)| u < v));
                let inserted = (edges.len() - edges_before) as u64;
                csr = csr.apply_delta(&delta);
                let mut seed = previous.parts.clone();
                seed.resize(n as usize, UNASSIGNED);
                let touched = delta.touched_including_added();
                let source = GraphSource::Csr(&csr, &dist);
                let warm = Some((&seed[..], Some(&touched[..])));
                let warm =
                    run_xtrapulp_job(&mut runtime, source, &params, warm, None).expect("warm");
                let cold =
                    run_xtrapulp_job(&mut runtime, source, &params, None, None).expect("cold");

                let what = format!("case {case} dist {d} ranks {nranks} step {step}");
                assert!(is_valid_partition(&warm.parts, num_parts), "{what}");
                assert_eq!(warm.parts.len() as u64, n, "{what}");
                let (w, c) = (warm.quality, cold.quality);
                assert!(
                    balanced(
                        w.vertex_imbalance,
                        params.vertex_imbalance,
                        c.vertex_imbalance
                    ),
                    "{what}: vertex imbalance {} (cold {})",
                    w.vertex_imbalance,
                    c.vertex_imbalance
                );
                assert!(
                    balanced(w.edge_imbalance, params.edge_imbalance, c.edge_imbalance),
                    "{what}: edge imbalance {} (cold {})",
                    w.edge_imbalance,
                    c.edge_imbalance
                );
                if warm.stages.balance_sweeps + warm.stages.churn_sweeps == 0 {
                    refine_only += 1;
                    assert!(
                        warm.lp_sweeps < sweep_cap,
                        "{what}: {} sweeps",
                        warm.lp_sweeps
                    );
                    assert!(
                        w.edge_cut <= previous.quality.edge_cut + inserted,
                        "{what}: cut {} from {} with {inserted} edges inserted",
                        w.edge_cut,
                        previous.quality.edge_cut
                    );
                }
                cut_ratios.push(w.edge_cut as f64 / c.edge_cut.max(1) as f64);
                previous = warm;
            }
        }
    }
    assert!(
        refine_only * 10 >= cut_ratios.len() * 9,
        "{refine_only} refine-only epochs"
    );
    cut_ratios.sort_by(f64::total_cmp);
    let median = cut_ratios[cut_ratios.len() / 2];
    assert!(median <= 1.02, "median warm/cold cut ratio {median}");
}
