//! Sharded similarity-scale fitting and k-NN graph construction.
//!
//! Both entry points replay the resident `cm-propagation` plans over
//! segment sweeps:
//!
//! - [`fit_scales_sharded`] runs the two-pass MAD fit through the
//!   mergeable [`ScaleAccumulator`] / `DeviationAccumulator` pair — the
//!   resident [`SimilarityConfig::fit_scales`] is *defined* as the
//!   single-segment case, so the fitted scales agree bit for bit.
//! - [`build_graph_sharded`] reproduces [`GraphBuilder::build_with`]'s
//!   edge list exactly: the same exact-vs-anchors decision (from the
//!   shared [`GraphBuilder::uses_exact`]), the same anchor plan and
//!   routing ranks (via the shared `anchor_plan` / `route_row` /
//!   `candidate_stride` helpers), and the same `TopK` insertion order —
//!   candidates are fed in ascending global row order, exactly the
//!   resident scan order, so ties break identically. Pair weights come
//!   from [`normalized_similarity`], the reference the resident
//!   `PairKernel` is pinned to bitwise.
//!
//! Everything here is single-threaded on purpose: segment sweeps already
//! match the resident builder at any `CM_THREADS` because the resident
//! builder's chunk plan is thread-count independent and its chunk results
//! concatenate in row order — the order these sweeps emit natively.

use cm_featurespace::{
    normalized_similarity, CmError, CmResult, ErrorKind, FeatureTable, FrozenTable,
    ScaleAccumulator, SimilarityConfig,
};
use cm_propagation::{
    anchor_plan, candidate_stride, route_row, GraphBuilder, KnnMethod, SparseGraph, TopK,
};

use crate::config::MemTracker;
use crate::corpus::SegmentedCorpus;

/// Fits per-column numeric similarity scales over a segmented corpus,
/// bit-identical to `SimilarityConfig::uniform(columns).fit_scales(t)`
/// over the concatenated resident table.
pub fn fit_scales_sharded(
    corpus: &SegmentedCorpus<'_>,
    columns: &[usize],
    tracker: &mut MemTracker,
) -> CmResult<SimilarityConfig> {
    let mut acc = ScaleAccumulator::new(columns);
    corpus.for_each(tracker, &mut |_, seg, _| {
        acc.observe(&FrozenTable::freeze(seg));
        Ok(())
    })?;
    let mut dev = acc.finish_means();
    corpus.for_each(tracker, &mut |_, seg, _| {
        dev.observe(&FrozenTable::freeze(seg));
        Ok(())
    })?;
    Ok(SimilarityConfig { numeric_scales: dev.finish(), columns: columns.to_vec() })
}

/// Approximate heap bytes of a `Vec`-of-`Vec` nest.
fn nested_bytes<T>(outer: &[Vec<T>]) -> usize {
    outer.iter().map(|v| v.capacity() * std::mem::size_of::<T>()).sum::<usize>()
        + std::mem::size_of_val(outer)
}

/// Builds the k-NN graph over a segmented corpus, bit-identical to
/// `builder.build_with(resident, sim, seed, par)` over the concatenated
/// resident table at any thread count.
///
/// The `O(n · probes)` routing table and per-segment candidate lists are
/// held resident (and charged to the tracker); feature rows are only ever
/// resident one segment pair at a time.
pub fn build_graph_sharded(
    corpus: &SegmentedCorpus<'_>,
    builder: &GraphBuilder,
    sim: &SimilarityConfig,
    seed: u64,
    tracker: &mut MemTracker,
) -> CmResult<SparseGraph> {
    let n = corpus.total_rows();
    if n == 0 {
        return Ok(SparseGraph::from_edges(0, &[]));
    }
    let edges = if builder.uses_exact(n) {
        sweep_exact(corpus, builder, sim, tracker)?
    } else {
        let KnnMethod::Anchors { n_anchors, probes, max_candidates } = builder.method else {
            unreachable!("non-exact path implies the anchor method")
        };
        sweep_anchors(corpus, builder, sim, n_anchors, probes, max_candidates, seed, tracker)?
    };
    Ok(SparseGraph::from_edges(n, &edges))
}

/// Exact all-pairs sweep: for each segment of query rows, one full pass
/// over the corpus feeds every candidate in ascending global order.
fn sweep_exact(
    corpus: &SegmentedCorpus<'_>,
    builder: &GraphBuilder,
    sim: &SimilarityConfig,
    tracker: &mut MemTracker,
) -> CmResult<Vec<(u32, u32, f32)>> {
    let mut edges = Vec::new();
    corpus.for_each(tracker, &mut |off_a, seg_a, tracker| {
        let mut tops: Vec<TopK> = (0..seg_a.len()).map(|_| TopK::new(builder.k)).collect();
        let top_bytes = seg_a.len() * (builder.k + 1) * std::mem::size_of::<(u32, f32)>();
        tracker.charge(top_bytes, "exact sweep top-k")?;
        corpus.for_each(tracker, &mut |off_b, seg_b, _| {
            for (ra, top) in tops.iter_mut().enumerate() {
                let i = off_a + ra;
                for rb in 0..seg_b.len() {
                    if off_b + rb == i {
                        continue;
                    }
                    let s = normalized_similarity((seg_a, ra), (seg_b, rb), sim);
                    if s >= builder.min_weight {
                        top.push((off_b + rb) as u32, s as f32);
                    }
                }
            }
            Ok(())
        })?;
        for (ra, top) in tops.into_iter().enumerate() {
            top.drain_into((off_a + ra) as u32, &mut edges);
        }
        tracker.release(top_bytes);
        Ok(())
    })?;
    Ok(edges)
}

/// Anchor-routed sweep: gather the anchor rows, route every row to its
/// probed anchors, then scan each row's strided candidate list against
/// ascending corpus segments.
#[allow(clippy::too_many_arguments)]
fn sweep_anchors(
    corpus: &SegmentedCorpus<'_>,
    builder: &GraphBuilder,
    sim: &SimilarityConfig,
    n_anchors: usize,
    probes: usize,
    max_candidates: usize,
    seed: u64,
    tracker: &mut MemTracker,
) -> CmResult<Vec<(u32, u32, f32)>> {
    let n = corpus.total_rows();
    let anchor_ids = anchor_plan(n, n_anchors, seed);

    // Pass 1: materialize the sampled anchor rows into one small table,
    // slot order preserved so routing scores line up with the resident
    // kernel's anchor order.
    let mut anchor_rows: Vec<Option<Vec<cm_featurespace::FeatureValue>>> = vec![None; n_anchors];
    corpus.for_each(tracker, &mut |offset, seg, _| {
        for (slot, &row) in anchor_ids.iter().enumerate() {
            if row >= offset && row < offset + seg.len() {
                anchor_rows[slot] = Some(seg.row(row - offset));
            }
        }
        Ok(())
    })?;
    let mut anchor_table = FeatureTable::new(corpus.schema());
    for (slot, row) in anchor_rows.into_iter().enumerate() {
        let row = row.ok_or_else(|| {
            CmError::new(
                ErrorKind::OutOfBounds,
                "build_graph_sharded",
                format!("anchor slot {slot} (row {}) never streamed", anchor_ids[slot]),
            )
        })?;
        anchor_table.push_row(&row);
    }
    let anchor_bytes = anchor_table.approx_bytes();
    tracker.charge(anchor_bytes, "anchor table")?;

    // Pass 2: route every row to its `probes` most-similar anchors —
    // `route_row` over the same scores the resident kernel computes.
    let mut routes: Vec<Vec<usize>> = Vec::with_capacity(n);
    corpus.for_each(tracker, &mut |_, seg, _| {
        for r in 0..seg.len() {
            let scores: Vec<f64> = (0..n_anchors)
                .map(|slot| normalized_similarity((seg, r), (&anchor_table, slot), sim))
                .collect();
            routes.push(route_row(&scores, probes));
        }
        Ok(())
    })?;
    let route_bytes = nested_bytes(&routes);
    tracker.charge(route_bytes, "anchor routes")?;
    let mut anchor_members: Vec<Vec<u32>> = vec![Vec::new(); n_anchors];
    for (i, route) in routes.iter().enumerate() {
        for &a in route {
            anchor_members[a].push(i as u32);
        }
    }
    let member_bytes = nested_bytes(&anchor_members);
    tracker.charge(member_bytes, "anchor members")?;

    // Pass 3: per query segment, build each row's strided candidate list
    // (sorted ascending — the resident scan order), then consume it with a
    // monotone cursor while sweeping candidate segments in offset order.
    let mut edges = Vec::new();
    corpus.for_each(tracker, &mut |off_a, seg_a, tracker| {
        let mut candidates: Vec<Vec<u32>> = Vec::with_capacity(seg_a.len());
        let mut scratch: Vec<u32> = Vec::new();
        for ra in 0..seg_a.len() {
            scratch.clear();
            for &a in &routes[off_a + ra] {
                scratch.extend_from_slice(&anchor_members[a]);
            }
            scratch.sort_unstable();
            scratch.dedup();
            let stride = candidate_stride(scratch.len(), max_candidates);
            candidates.push(scratch.iter().copied().step_by(stride).collect());
        }
        let cand_bytes = nested_bytes(&candidates)
            + seg_a.len() * ((builder.k + 1) * std::mem::size_of::<(u32, f32)>());
        tracker.charge(cand_bytes, "candidate lists")?;
        let mut tops: Vec<TopK> = (0..seg_a.len()).map(|_| TopK::new(builder.k)).collect();
        let mut cursors: Vec<usize> = vec![0; seg_a.len()];
        corpus.for_each(tracker, &mut |off_b, seg_b, _| {
            let end_b = (off_b + seg_b.len()) as u32;
            for ra in 0..seg_a.len() {
                let list = &candidates[ra];
                let cursor = &mut cursors[ra];
                while *cursor < list.len() && list[*cursor] < end_b {
                    let j = list[*cursor];
                    *cursor += 1;
                    if j as usize == off_a + ra {
                        continue;
                    }
                    let s = normalized_similarity((seg_a, ra), (seg_b, j as usize - off_b), sim);
                    if s >= builder.min_weight {
                        tops[ra].push(j, s as f32);
                    }
                }
            }
            Ok(())
        })?;
        for (ra, top) in tops.into_iter().enumerate() {
            top.drain_into((off_a + ra) as u32, &mut edges);
        }
        tracker.release(cand_bytes);
        Ok(())
    })?;
    tracker.release(member_bytes);
    tracker.release(route_bytes);
    tracker.release(anchor_bytes);
    Ok(edges)
}

#[cfg(test)]
mod tests {
    use cm_featurespace::ModalityKind;
    use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};
    use cm_par::ParConfig;

    use super::*;
    use crate::config::{MemBudget, MemTracker};
    use crate::corpus::StreamSpec;

    fn world() -> World {
        World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct2).scaled(0.02), 7))
    }

    /// Resident table + segmented corpus over the same logical rows.
    fn setup(w: &World, head_rows: usize, tail_rows: usize) -> (FeatureTable, Vec<usize>) {
        let head = w.generate(ModalityKind::Text, head_rows, 21);
        let tail = w.generate(ModalityKind::Image, tail_rows, 22);
        let mut resident = head.table.clone();
        resident.extend_from(&tail.table);
        let columns = (0..resident.schema().len()).collect();
        (resident, columns)
    }

    #[test]
    fn sharded_scale_fit_matches_resident_bitwise() {
        let w = world();
        let head = w.generate(ModalityKind::Text, 60, 21);
        let tail = w.generate(ModalityKind::Image, 90, 22);
        let mut resident = head.table.clone();
        resident.extend_from(&tail.table);
        let columns: Vec<usize> = (0..resident.schema().len()).collect();
        let want = SimilarityConfig::uniform(columns.clone()).fit_scales(&resident);
        for seg_rows in [1usize, 13, 64, 200] {
            let mut corpus = SegmentedCorpus::new(seg_rows);
            corpus.push_head(&head.table);
            corpus.set_stream(StreamSpec {
                world: &w,
                modality: ModalityKind::Image,
                rows: 90,
                seed: 22,
            });
            let mut tracker = MemTracker::new(MemBudget::default());
            let got = fit_scales_sharded(&corpus, &columns, &mut tracker).unwrap();
            assert_eq!(got.columns, want.columns);
            assert_eq!(got.numeric_scales.len(), want.numeric_scales.len());
            for ((c1, s1), (c2, s2)) in got.numeric_scales.iter().zip(&want.numeric_scales) {
                assert_eq!(c1, c2);
                assert_eq!(s1.to_bits(), s2.to_bits(), "seg_rows {seg_rows} col {c1}");
            }
        }
    }

    #[test]
    fn sharded_exact_graph_matches_resident() {
        let w = world();
        let (resident, columns) = setup(&w, 40, 50);
        let sim = SimilarityConfig::uniform(columns).fit_scales(&resident);
        let builder = GraphBuilder::exact(5);
        let want = builder.build_with(&resident, &sim, 3, &ParConfig::threads(2));
        for seg_rows in [1usize, 17, 32, 90] {
            let mut corpus = SegmentedCorpus::new(seg_rows);
            let head = w.generate(ModalityKind::Text, 40, 21);
            corpus.push_head(&head.table);
            corpus.set_stream(StreamSpec {
                world: &w,
                modality: ModalityKind::Image,
                rows: 50,
                seed: 22,
            });
            let mut tracker = MemTracker::new(MemBudget::default());
            let got = build_graph_sharded(&corpus, &builder, &sim, 3, &mut tracker).unwrap();
            assert_eq!(got, want, "seg_rows {seg_rows}");
        }
    }

    #[test]
    fn sharded_anchor_graph_matches_resident() {
        let w = world();
        let (resident, columns) = setup(&w, 120, 240);
        let sim = SimilarityConfig::uniform(columns).fit_scales(&resident);
        let builder = GraphBuilder {
            k: 5,
            method: KnnMethod::Anchors { n_anchors: 24, probes: 3, max_candidates: 64 },
            min_weight: 0.05,
        };
        assert!(!builder.uses_exact(resident.len()), "test must exercise the anchor path");
        let want = builder.build_with(&resident, &sim, 9, &ParConfig::threads(4));
        for seg_rows in [37usize, 128, 360] {
            let mut corpus = SegmentedCorpus::new(seg_rows);
            let head = w.generate(ModalityKind::Text, 120, 21);
            corpus.push_head(&head.table);
            corpus.set_stream(StreamSpec {
                world: &w,
                modality: ModalityKind::Image,
                rows: 240,
                seed: 22,
            });
            let mut tracker = MemTracker::new(MemBudget::default());
            let got = build_graph_sharded(&corpus, &builder, &sim, 9, &mut tracker).unwrap();
            assert_eq!(got, want, "seg_rows {seg_rows}");
            assert!(tracker.peak() > 0);
            assert_eq!(tracker.current(), 0, "all charges released");
        }
    }

    #[test]
    fn empty_corpus_builds_empty_graph() {
        let corpus = SegmentedCorpus::new(8);
        let sim = SimilarityConfig::uniform(vec![0]);
        let mut tracker = MemTracker::new(MemBudget::bytes(1));
        let g =
            build_graph_sharded(&corpus, &GraphBuilder::exact(3), &sim, 0, &mut tracker).unwrap();
        assert_eq!(g.n_edges(), 0);
    }
}
