//! Sharded similarity-scale fitting and k-NN graph construction.
//!
//! Both entry points run the resident plans over segment sweeps, and the
//! resident computation is the single-segment case of each:
//!
//! - [`fit_scales_sharded`] runs the two-pass MAD fit through the
//!   mergeable [`ScaleAccumulator`] / `DeviationAccumulator` pair, which
//!   [`SimilarityConfig::fit_scales`] also runs, so the fitted scales agree
//!   bit for bit.
//! - [`build_graph_sharded`] is [`GraphBuilder::sweep`] over the corpus,
//!   charged to the tracker — the same sweep
//!   [`GraphBuilder::build_with`] runs over one resident segment, so the
//!   edges agree bit for bit at any shard size and thread count.

use cm_featurespace::{CmResult, FrozenTable, ScaleAccumulator, SimilarityConfig};
use cm_propagation::{GraphBuilder, ParConfig, SparseGraph};

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

/// Builds the k-NN graph over a segmented corpus, bit-identical to
/// `builder.build_with(resident, sim, seed, par)` over the concatenated
/// resident table at any thread count.
///
/// Feature rows are resident one segment pair at a time; the anchor table,
/// routes, member lists, one span's per-anchor member bitmaps, one query
/// segment's row scans and its chunks' candidate batches, the edges and
/// the graph are charged to `tracker` before they are allocated, and
/// released by the time the graph returns.
pub fn build_graph_sharded(
    corpus: &SegmentedCorpus<'_>,
    builder: &GraphBuilder,
    sim: &SimilarityConfig,
    seed: u64,
    par: &ParConfig,
    tracker: &mut MemTracker,
) -> CmResult<SparseGraph> {
    builder.sweep(corpus, sim, seed, par, tracker)
}

#[cfg(test)]
#[path = "../../../tests/support/knn_oracle.rs"]
mod knn_oracle;

#[cfg(test)]
mod tests {
    use cm_featurespace::{FeatureTable, ModalityKind};
    use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};
    use cm_par::ParConfig;
    use cm_propagation::KnnMethod;

    use super::knn_oracle::{oracle_graph, oracle_strides};
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
        let oracle = oracle_graph(&builder, &resident, &sim, 3);
        for threads in [1usize, 2, 4] {
            let got = builder.build_with(&resident, &sim, 3, &ParConfig::threads(threads));
            assert_eq!(got, oracle, "build_with at {threads} threads");
        }
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
            let par = ParConfig::threads(2);
            let got = build_graph_sharded(&corpus, &builder, &sim, 3, &par, &mut tracker).unwrap();
            assert_eq!(got, want, "seg_rows {seg_rows}");
        }
    }

    #[test]
    fn sharded_anchor_graph_matches_resident() {
        let w = world();
        let (resident, columns) = setup(&w, 120, 240);
        let sim = SimilarityConfig::uniform(columns).fit_scales(&resident);
        // The default-like cap scans most lists whole; a cap of 8 strides
        // most of them, so the skip counter crosses segment cuts. Four
        // probes is the production routing shape; one probe ORs a single
        // member bitmap.
        let cells = [(3, 64usize), (3, 8), (4, 64), (4, 8), (1, 64), (1, 8)];
        for (probes, max_candidates) in cells {
            let builder = GraphBuilder {
                k: 5,
                method: KnnMethod::Anchors { n_anchors: 24, probes, max_candidates },
                min_weight: 0.05,
            };
            assert!(!builder.uses_exact(resident.len()), "test must exercise the anchor path");
            if max_candidates == 8 && probes > 1 {
                let strides = oracle_strides(&builder, &resident, &sim, 9);
                let long = strides.iter().filter(|&&s| s > 1).count();
                assert!(2 * long > strides.len(), "{long}/{} rows strided", strides.len());
            }
            let oracle = oracle_graph(&builder, &resident, &sim, 9);
            for threads in [1usize, 2, 4] {
                let got = builder.build_with(&resident, &sim, 9, &ParConfig::threads(threads));
                let what = format!("probes {probes}, cap {max_candidates}");
                assert_eq!(got, oracle, "{what}: build_with at {threads} threads");
            }
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
                let mut peak = None;
                for threads in [1usize, 2, 4] {
                    let mut tracker = MemTracker::new(MemBudget::default());
                    let par = ParConfig::threads(threads);
                    let got = build_graph_sharded(&corpus, &builder, &sim, 9, &par, &mut tracker)
                        .unwrap();
                    let what = format!(
                        "probes {probes}, cap {max_candidates}, seg_rows {seg_rows}, {threads}t"
                    );
                    assert_eq!(got, oracle, "{what}");
                    assert!(tracker.peak() > 0);
                    assert_eq!(tracker.current(), 0, "{what}: all charges released");
                    // Charges never depend on the thread count.
                    assert_eq!(*peak.get_or_insert(tracker.peak()), tracker.peak(), "{what}");
                }
            }
        }
    }

    #[test]
    fn empty_corpus_builds_empty_graph() {
        let corpus = SegmentedCorpus::new(8);
        let sim = SimilarityConfig::uniform(vec![0]);
        let mut tracker = MemTracker::new(MemBudget::bytes(1));
        let par = ParConfig::serial();
        let g = build_graph_sharded(&corpus, &GraphBuilder::exact(3), &sim, 0, &par, &mut tracker)
            .unwrap();
        assert_eq!(g.n_edges(), 0);
    }
}
