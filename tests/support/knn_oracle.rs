//! Test-only k-NN oracle: the exact and anchor-routed graph builds written
//! as plain serial loops over one resident table, scored with the scalar
//! `normalized_similarity` reference. Candidate lists are gathered, sorted
//! and deduplicated, then strided, where the library walks a bitmap. It
//! shares no code with the library's segment sweep, so each pins the
//! other.
//!
//! Included by path from `tests/shard_equivalence.rs` and from cm-shard's
//! unit tests.

use cm_featurespace::{normalized_similarity, FeatureTable, SimilarityConfig};
use cm_linalg::rng::{SliceRandom, StdRng};
use cm_propagation::{GraphBuilder, KnnMethod, SparseGraph};

/// Each row's candidate list under `builder`'s method: every row for the
/// exact method, or the sorted, deduplicated members of the row's anchors
/// with their stride (1 for the exact method).
struct Candidates {
    lists: Vec<Vec<usize>>,
    strides: Vec<usize>,
}

fn oracle_candidates(
    builder: &GraphBuilder,
    table: &FeatureTable,
    sim: &SimilarityConfig,
    seed: u64,
) -> Candidates {
    let n = table.len();
    let score = |i: usize, j: usize| normalized_similarity((table, i), (table, j), sim);
    // Anchor routing: a seeded shuffle's first `n_anchors` rows; each row
    // joins its `probes` most similar anchors (stable sort, so ties keep
    // slot order). Small corpora fall back to the exact method.
    let (n_anchors, probes, max_candidates) = match builder.method {
        KnnMethod::Anchors { n_anchors, probes, max_candidates } if n > n_anchors * 4 => {
            (n_anchors, probes, max_candidates)
        }
        _ => return Candidates { lists: vec![(0..n).collect(); n], strides: vec![1; n] },
    };
    let mut anchors: Vec<usize> = (0..n).collect();
    anchors.shuffle(&mut StdRng::seed_from_u64(seed));
    anchors.truncate(n_anchors);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_anchors];
    let mut routes = Vec::with_capacity(n);
    for i in 0..n {
        let mut scored: Vec<(usize, f64)> =
            anchors.iter().enumerate().map(|(a, &row)| (a, score(i, row))).collect();
        scored.sort_by(|x, y| y.1.total_cmp(&x.1));
        scored.truncate(probes);
        let route: Vec<usize> = scored.into_iter().map(|(a, _)| a).collect();
        for &a in &route {
            members[a].push(i);
        }
        routes.push(route);
    }
    let mut lists = Vec::with_capacity(n);
    let mut strides = Vec::with_capacity(n);
    for route in &routes {
        let mut list: Vec<usize> = route.iter().flat_map(|&a| members[a].iter().copied()).collect();
        list.sort_unstable();
        list.dedup();
        strides.push((list.len() / max_candidates.max(1)).max(1));
        lists.push(list);
    }
    Candidates { lists, strides }
}

/// Each row's candidate stride under `builder`: how a row's list is
/// subsampled to the `max_candidates` cap (1 when it is scanned fully).
pub fn oracle_strides(
    builder: &GraphBuilder,
    table: &FeatureTable,
    sim: &SimilarityConfig,
    seed: u64,
) -> Vec<usize> {
    oracle_candidates(builder, table, sim, seed).strides
}

/// The graph `builder` must build over `table` with `sim` and `seed`.
pub fn oracle_graph(
    builder: &GraphBuilder,
    table: &FeatureTable,
    sim: &SimilarityConfig,
    seed: u64,
) -> SparseGraph {
    let n = table.len();
    let score = |i: usize, j: usize| normalized_similarity((table, i), (table, j), sim);
    let Candidates { lists, strides } = oracle_candidates(builder, table, sim, seed);
    let mut edges = Vec::new();
    for (i, (list, stride)) in lists.into_iter().zip(strides).enumerate() {
        // Best k by weight; a stable sort keeps ascending row order among
        // ties, which is the order the library offers candidates in.
        let mut kept: Vec<(usize, f32)> = list
            .into_iter()
            .step_by(stride)
            .filter(|&j| j != i)
            .map(|j| (j, score(i, j)))
            .filter(|&(_, s)| s >= builder.min_weight)
            .map(|(j, s)| (j, s as f32))
            .collect();
        kept.sort_by(|x, y| y.1.total_cmp(&x.1));
        kept.truncate(builder.k);
        edges.extend(kept.into_iter().map(|(j, w)| (i as u32, j as u32, w)));
    }
    SparseGraph::from_edges(n, &edges)
}
