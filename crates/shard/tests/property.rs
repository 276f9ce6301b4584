//! Seeded property tests for the sharding substrate: segment boundaries
//! are *never* load-bearing, and the memory budget is a hard ceiling.

use cm_featurespace::ModalityKind;
use cm_linalg::rng::{SliceRandom, StdRng};
use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};
use cm_par::ParConfig;
use cm_propagation::{GraphBuilder, KnnMethod};
use cm_shard::{
    build_graph_sharded, fit_scales_sharded, for_each_pool_segment, MemBudget, MemTracker,
    SegmentedCorpus, StreamSpec,
};

fn world(seed: u64) -> World {
    World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct3).scaled(0.02), seed))
}

/// A corpus of one resident head plus a streamed tail, at a given shard
/// size.
fn corpus<'a>(
    w: &'a World,
    head: &'a cm_featurespace::FeatureTable,
    tail_rows: usize,
    seg_rows: usize,
) -> SegmentedCorpus<'a> {
    let mut c = SegmentedCorpus::new(seg_rows);
    c.push_head(head);
    c.set_stream(StreamSpec { world: w, modality: ModalityKind::Image, rows: tail_rows, seed: 3 });
    c
}

#[test]
fn random_segment_sizes_never_change_merged_statistics() {
    let w = world(41);
    let head = w.generate(ModalityKind::Text, 70, 2);
    let columns: Vec<usize> = (0..w.schema().len()).collect();
    let builder = GraphBuilder {
        k: 4,
        method: KnnMethod::Anchors { n_anchors: 16, probes: 3, max_candidates: 48 },
        min_weight: 0.05,
    };

    // Reference: the single-segment (resident-order) run.
    let n = 70 + 130;
    let whole = corpus(&w, &head.table, 130, n);
    let mut tracker = MemTracker::new(MemBudget::default());
    let want_sim = fit_scales_sharded(&whole, &columns, &mut tracker).unwrap();
    let want_graph =
        build_graph_sharded(&whole, &builder, &want_sim, 5, &ParConfig::serial(), &mut tracker)
            .unwrap();
    assert!(!builder.uses_exact(n), "fixture must exercise the anchor path");

    // Seeded-random shard sizes, including degenerate ones.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut sizes: Vec<usize> = (1..=n + 7).collect();
    sizes.shuffle(&mut rng);
    sizes.truncate(6);
    for seg_rows in sizes {
        let c = corpus(&w, &head.table, 130, seg_rows);
        let mut tracker = MemTracker::new(MemBudget::default());
        let sim = fit_scales_sharded(&c, &columns, &mut tracker).unwrap();
        for ((c1, s1), (c2, s2)) in sim.numeric_scales.iter().zip(&want_sim.numeric_scales) {
            assert_eq!(c1, c2);
            assert_eq!(s1.to_bits(), s2.to_bits(), "seg_rows {seg_rows} col {c1}");
        }
        let graph =
            build_graph_sharded(&c, &builder, &sim, 5, &ParConfig::serial(), &mut tracker).unwrap();
        assert_eq!(graph, want_graph, "seg_rows {seg_rows}");
    }
}

#[test]
fn peak_never_exceeds_budget_and_tight_budgets_fail() {
    let w = world(42);
    let head = w.generate(ModalityKind::Text, 40, 2);
    let columns: Vec<usize> = (0..w.schema().len()).collect();

    // Measure the true peak of a run, then re-run with exactly that budget
    // (must succeed, peak == budget bound) and one byte less (must fail).
    let c = corpus(&w, &head.table, 60, 16);
    let mut tracker = MemTracker::new(MemBudget::default());
    let sim = fit_scales_sharded(&c, &columns, &mut tracker).unwrap();
    build_graph_sharded(&c, &GraphBuilder::exact(4), &sim, 1, &ParConfig::serial(), &mut tracker)
        .unwrap();
    let peak = tracker.peak();
    assert!(peak > 0);

    let mut exact_budget = MemTracker::new(MemBudget::bytes(peak));
    let sim2 = fit_scales_sharded(&c, &columns, &mut exact_budget).unwrap();
    build_graph_sharded(
        &c,
        &GraphBuilder::exact(4),
        &sim2,
        1,
        &ParConfig::serial(),
        &mut exact_budget,
    )
    .unwrap();
    assert!(exact_budget.peak() <= peak, "peak {} crept past {peak}", exact_budget.peak());

    let mut starved = MemTracker::new(MemBudget::bytes(peak - 1));
    let failed = fit_scales_sharded(&c, &columns, &mut starved).is_err()
        || build_graph_sharded(
            &c,
            &GraphBuilder::exact(4),
            &sim,
            1,
            &ParConfig::serial(),
            &mut starved,
        )
        .is_err();
    assert!(failed, "a budget below the measured peak must fail some charge");
    assert!(starved.peak() < peak, "the failing run still respected its ceiling");
}

#[test]
fn empty_corpus_is_a_valid_degenerate_case() {
    let columns = vec![0usize, 1];
    let empty = SegmentedCorpus::new(8);
    let mut tracker = MemTracker::new(MemBudget::bytes(1));
    let sim = fit_scales_sharded(&empty, &columns, &mut tracker).unwrap();
    assert!(sim.numeric_scales.is_empty());
    let g = build_graph_sharded(
        &empty,
        &GraphBuilder::exact(3),
        &sim,
        0,
        &ParConfig::serial(),
        &mut tracker,
    )
    .unwrap();
    assert_eq!(g.n_vertices(), 0);
    assert_eq!(g.n_edges(), 0);
    assert_eq!(tracker.peak(), 0);
}

#[test]
fn single_segment_stream_matches_head_only_corpus() {
    // The same rows presented as one resident head vs. one streamed
    // segment must produce identical statistics and graphs.
    let w = world(43);
    let tail_rows = 50usize;
    let generated = w.generate(ModalityKind::Image, tail_rows, 3);
    let columns: Vec<usize> = (0..w.schema().len()).collect();

    let mut as_head = SegmentedCorpus::new(tail_rows);
    as_head.push_head(&generated.table);
    let mut as_stream = SegmentedCorpus::new(tail_rows);
    as_stream.set_stream(StreamSpec {
        world: &w,
        modality: ModalityKind::Image,
        rows: tail_rows,
        seed: 3,
    });

    let mut t1 = MemTracker::new(MemBudget::default());
    let mut t2 = MemTracker::new(MemBudget::default());
    let sim_head = fit_scales_sharded(&as_head, &columns, &mut t1).unwrap();
    let sim_stream = fit_scales_sharded(&as_stream, &columns, &mut t2).unwrap();
    for ((c1, s1), (c2, s2)) in sim_head.numeric_scales.iter().zip(&sim_stream.numeric_scales) {
        assert_eq!(c1, c2);
        assert_eq!(s1.to_bits(), s2.to_bits());
    }
    let g_head = build_graph_sharded(
        &as_head,
        &GraphBuilder::exact(4),
        &sim_head,
        0,
        &ParConfig::serial(),
        &mut t1,
    );
    let g_stream = build_graph_sharded(
        &as_stream,
        &GraphBuilder::exact(4),
        &sim_stream,
        0,
        &ParConfig::serial(),
        &mut t2,
    );
    assert_eq!(g_head.unwrap(), g_stream.unwrap());
}

#[test]
fn segment_offsets_are_globally_consistent() {
    // for_each_pool_segment hands out offsets that tile [0, rows) exactly,
    // for any segment size.
    let w = world(44);
    for seg_rows in [1usize, 7, 33, 64, 1000] {
        let mut next = 0usize;
        let mut tracker = MemTracker::new(MemBudget::default());
        for_each_pool_segment(
            &w,
            ModalityKind::Image,
            64,
            9,
            seg_rows,
            &mut tracker,
            &mut |offset, seg, _| {
                assert_eq!(offset, next, "seg_rows {seg_rows}");
                assert!(!seg.is_empty() && seg.len() <= seg_rows);
                next += seg.len();
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(next, 64, "seg_rows {seg_rows}");
    }
}
