//! Test-only k-NN oracle: the exact and anchor-routed graph builds written
//! as plain serial loops over one resident table, scored with the scalar
//! `normalized_similarity` reference. It shares no code with the library's
//! segment sweep, so each pins the other.
//!
//! Included by path from `tests/shard_equivalence.rs` and from cm-shard's
//! unit tests.

use cm_featurespace::{normalized_similarity, FeatureTable, SimilarityConfig};
use cm_linalg::rng::{SliceRandom, StdRng};
use cm_propagation::{GraphBuilder, KnnMethod, SparseGraph};

/// The graph `builder` must build over `table` with `sim` and `seed`.
pub fn oracle_graph(
    builder: &GraphBuilder,
    table: &FeatureTable,
    sim: &SimilarityConfig,
    seed: u64,
) -> SparseGraph {
    let n = table.len();
    let score = |i: usize, j: usize| normalized_similarity((table, i), (table, j), sim);
    // Anchor routing: a seeded shuffle's first `n_anchors` rows; each row
    // joins its `probes` most similar anchors (stable sort, so ties keep
    // slot order). Small corpora fall back to the exact method.
    let routed = match builder.method {
        KnnMethod::Anchors { n_anchors, probes, max_candidates } if n > n_anchors * 4 => {
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
            Some((routes, members, max_candidates))
        }
        _ => None,
    };
    let mut edges = Vec::new();
    for i in 0..n {
        let candidates: Vec<usize> = match &routed {
            None => (0..n).collect(),
            Some((routes, members, max_candidates)) => {
                let mut list: Vec<usize> =
                    routes[i].iter().flat_map(|&a| members[a].iter().copied()).collect();
                list.sort_unstable();
                list.dedup();
                let stride = (list.len() / (*max_candidates).max(1)).max(1);
                list.into_iter().step_by(stride).collect()
            }
        };
        // Best k by weight; a stable sort keeps ascending row order among
        // ties, which is the order the library offers candidates in.
        let mut kept: Vec<(usize, f32)> = candidates
            .into_iter()
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
