//! Sharded ≡ unsharded, bit for bit.
//!
//! The `cm-shard` contract: streaming curation through fixed-size column
//! segments under a memory budget changes *nothing* about the output — at
//! any shard size (one row, a prime, a power of two, the whole corpus) and
//! any thread count. These tests pin that equivalence end to end (LF
//! votes, label-model posteriors, conflict, quality report) and for the
//! individual substrates (Apriori supports, similarity scales, k-NN
//! graphs).

use cross_modal::featurespace::{ErrorKind, FrozenTable, SimilarityConfig};
use cross_modal::mining::{
    mine_from_bitsets, mine_itemsets_with, ItemCatalogBuilder, MiningConfig,
};
use cross_modal::par::ParConfig;
use cross_modal::prelude::*;
use cross_modal::propagation::{GraphBuilder, KnnMethod};
#[path = "support/knn_oracle.rs"]
mod knn_oracle;

use knn_oracle::{oracle_graph, oracle_strides};

use cross_modal::shard::{
    build_graph_sharded, fit_scales_sharded, MemBudget, MemTracker, SegmentedCorpus, ShardConfig,
    StreamSpec,
};

/// Shard sizes the ISSUE pins: one row, a prime, a power of two, and
/// larger than any corpus here (the whole-corpus / single-segment case).
const SHARD_SIZES: [usize; 4] = [1, 97, 256, 1 << 20];

fn task() -> TaskConfig {
    TaskConfig::paper(TaskId::Ct2).scaled(0.02)
}

fn fast_config() -> CurationConfig {
    CurationConfig {
        prop_max_seeds: 400,
        mining: MiningConfig { min_recall: 0.05, ..MiningConfig::default() },
        ..CurationConfig::default()
    }
}

/// Asserts every output field that must be bit-identical between the
/// resident and streamed drivers (durations excepted).
fn assert_outputs_match(got: &CurationOutput, want: &CurationOutput, what: &str) {
    assert_eq!(got.lf_names, want.lf_names, "{what}: lf_names");
    assert_eq!(got.covered, want.covered, "{what}: covered");
    assert_eq!(got.probabilistic_labels.len(), want.probabilistic_labels.len(), "{what}: len");
    for (i, (g, w)) in got.probabilistic_labels.iter().zip(&want.probabilistic_labels).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: label {i}: {g} vs {w}");
    }
    assert_eq!(got.conflict.to_bits(), want.conflict.to_bits(), "{what}: conflict");
    assert_eq!(got.ws_quality, want.ws_quality, "{what}: ws_quality");
    assert_eq!(got.degradation.dropped_lfs, want.degradation.dropped_lfs, "{what}: drops");
    assert_eq!(
        got.degradation.pool_coverage.to_bits(),
        want.degradation.pool_coverage.to_bits(),
        "{what}: pool_coverage"
    );
}

/// Checks each label model with propagation off and on, at every shard
/// size and thread count: the resident driver is the one-segment case of
/// the streamed one, so every cell must match it bit for bit.
fn assert_streamed_matches_resident(label_models: &[LabelModelKind], propagation: &[bool]) {
    let data = TaskData::generate(task(), 5, Some(64));
    for &label_model in label_models {
        for &use_label_propagation in propagation {
            let config = CurationConfig { label_model, use_label_propagation, ..fast_config() };
            let want = curate(&data, &config);
            assert_eq!(
                want.lf_names.iter().any(|n| n == "label_propagation"),
                use_label_propagation,
                "fixture must exercise the propagation LF exactly when it is on"
            );
            for shard_rows in SHARD_SIZES {
                for threads in [1usize, 2, 4] {
                    let got = curate_streamed_with(
                        task(),
                        5,
                        &config,
                        &ShardConfig::with_segment_rows(shard_rows),
                        &ParConfig::threads(threads),
                    )
                    .unwrap();
                    let what = format!(
                        "{label_model:?} propagation={use_label_propagation} \
                         shard_rows={shard_rows} threads={threads}"
                    );
                    assert_outputs_match(&got.output, &want, &what);
                    assert_eq!(got.stats.pool_rows, data.pool.len(), "{what}");
                    assert_eq!(got.stats.segments, data.pool.len().div_ceil(shard_rows), "{what}");
                    assert!(got.stats.peak_bytes > 0, "{what}: nothing was ever charged");
                }
            }
        }
    }
}

#[test]
fn streamed_curation_matches_resident_across_shard_sizes_and_threads() {
    assert_streamed_matches_resident(
        &[LabelModelKind::Anchored, LabelModelKind::MajorityVote],
        &[false],
    );
}

#[test]
fn streamed_curation_matches_resident_with_propagation() {
    assert_streamed_matches_resident(
        &[LabelModelKind::Anchored, LabelModelKind::MajorityVote],
        &[true],
    );
}

#[test]
fn streamed_curation_matches_resident_under_em_model() {
    assert_streamed_matches_resident(&[LabelModelKind::Em], &[false, true]);
}

/// Charges are deterministic and made before use: a run's own peak is a
/// budget it fits exactly, and one byte less fails with an error, not a
/// panic.
#[test]
fn streamed_curation_fits_its_own_peak_and_fails_one_byte_under() {
    let config = fast_config();
    let run = |budget: usize| {
        let shard = ShardConfig { segment_rows: 97, budget: MemBudget::bytes(budget) };
        curate_streamed_with(task(), 5, &config, &shard, &ParConfig::threads(2))
    };
    let peak = run(usize::MAX).unwrap().stats.peak_bytes;
    let fitted = run(peak).unwrap();
    assert_eq!(fitted.stats.peak_bytes, peak);
    let err = run(peak - 1).err().expect("one byte under the peak must fail");
    assert_eq!(err.kind, ErrorKind::InvalidConfig, "{err:?}");
}

#[test]
fn apriori_supports_match_over_segment_assembled_bitsets() {
    let data = TaskData::generate(task(), 9, Some(64));
    let table = &data.text.table;
    let labels = &data.text.labels;
    let columns = data.shared_columns(&FeatureSet::SHARED);
    let config = MiningConfig { min_recall: 0.05, ..MiningConfig::default() };
    for threads in [1usize, 4] {
        let par = ParConfig::threads(threads);
        let want = mine_itemsets_with(table, labels, &columns, &config, &par);
        for shard_rows in SHARD_SIZES {
            let mut builder =
                ItemCatalogBuilder::new(table.schema(), &columns, config.numeric_bins);
            let mut start = 0usize;
            while start < table.len() {
                let end = (start + shard_rows).min(table.len());
                let seg = table.gather(&(start..end).collect::<Vec<_>>());
                builder.observe(&FrozenTable::freeze(&seg));
                start = end;
            }
            let catalog = builder.finish();
            let mut bits = catalog.empty_bitsets();
            let mut start = 0usize;
            while start < table.len() {
                let end = (start + shard_rows).min(table.len());
                let seg = table.gather(&(start..end).collect::<Vec<_>>());
                catalog.fill(&FrozenTable::freeze(&seg), start, &mut bits);
                start = end;
            }
            let got = mine_from_bitsets(&catalog, &bits, labels, &config, &par);
            let what = format!("shard_rows={shard_rows} threads={threads}");
            assert_eq!(got.positive, want.positive, "{what}: positive itemsets");
            assert_eq!(got.negative, want.negative, "{what}: negative itemsets");
            assert_eq!(got.n_candidates, want.n_candidates, "{what}: candidates");
        }
    }
}

#[test]
fn knn_graphs_match_resident_across_shard_sizes_and_threads() {
    let world = World::build(WorldConfig::new(task(), 13));
    let head = world.generate(ModalityKind::Text, 240, 31);
    let tail = world.generate(ModalityKind::Image, 240, 32);
    let mut resident = head.table.clone();
    resident.extend_from(&tail.table);
    let columns: Vec<usize> = (0..resident.schema().len()).collect();
    let sim = SimilarityConfig::uniform(columns.clone()).fit_scales(&resident);

    let exact = GraphBuilder::exact(5);
    let anchors = GraphBuilder {
        k: 5,
        method: KnnMethod::Anchors { n_anchors: 24, probes: 3, max_candidates: 64 },
        min_weight: 0.05,
    };
    // A small cap subsamples most rows' lists, so the stride counter
    // carries across segment cuts.
    let strided = GraphBuilder {
        method: KnnMethod::Anchors { n_anchors: 24, probes: 3, max_candidates: 8 },
        ..anchors.clone()
    };
    // The production routing shape (4 probes, as `GraphBuilder::approximate`
    // and `adapt_e2e` use) and a single probe, strided, so every width of
    // the member-bitmap OR is covered.
    let four_probes = GraphBuilder {
        method: KnnMethod::Anchors { n_anchors: 24, probes: 4, max_candidates: 64 },
        ..anchors.clone()
    };
    let one_probe = GraphBuilder {
        method: KnnMethod::Anchors { n_anchors: 24, probes: 1, max_candidates: 8 },
        ..anchors.clone()
    };
    assert!(!anchors.uses_exact(resident.len()), "must exercise the anchor path");
    let strides = oracle_strides(&strided, &resident, &sim, 17);
    let long = strides.iter().filter(|&&s| s > 1).count();
    assert!(2 * long > strides.len(), "only {long}/{} rows have stride > 1", strides.len());
    for builder in [&exact, &anchors, &strided, &four_probes, &one_probe] {
        let want = builder.build_with(&resident, &sim, 17, &ParConfig::threads(1));
        let oracle = oracle_graph(builder, &resident, &sim, 17);
        assert_eq!(want, oracle, "resident {:?} differs from the oracle", builder.method);
        for threads in [2usize, 4] {
            let same = builder.build_with(&resident, &sim, 17, &ParConfig::threads(threads));
            assert_eq!(same, want, "resident {:?} drifted at {threads} threads", builder.method);
            assert_eq!(same, oracle, "resident {:?} at {threads} threads", builder.method);
        }
        for shard_rows in SHARD_SIZES {
            let mut corpus = SegmentedCorpus::new(shard_rows);
            corpus.push_head(&head.table);
            corpus.set_stream(StreamSpec {
                world: &world,
                modality: ModalityKind::Image,
                rows: 240,
                seed: 32,
            });
            // Sharded scales must agree first: the graph consumes them.
            let mut tracker = MemTracker::new(MemBudget::default());
            let scales = fit_scales_sharded(&corpus, &columns, &mut tracker).unwrap();
            for ((c1, s1), (c2, s2)) in scales.numeric_scales.iter().zip(&sim.numeric_scales) {
                assert_eq!(c1, c2);
                assert_eq!(s1.to_bits(), s2.to_bits(), "scale for column {c1}");
            }
            for threads in [1usize, 2, 4] {
                let par = ParConfig::threads(threads);
                let got =
                    build_graph_sharded(&corpus, builder, &sim, 17, &par, &mut tracker).unwrap();
                assert_eq!(
                    got, want,
                    "{:?} at shard_rows={shard_rows} threads={threads}",
                    builder.method
                );
            }
        }
    }
}
