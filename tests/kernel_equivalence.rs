//! Differential tests for the columnar hot-path kernels: every rewritten
//! kernel must be **bit-identical** to the row-wise implementation it
//! replaced, on seeded random inputs with realistic missingness.
//!
//! Two oracles are pinned here:
//! - [`normalized_similarity`] vs the fused [`PairKernel`] (the
//!   presence-word fast path, pairs across two segments whose categorical
//!   column compiled to masks on one side and slices on the other, and
//!   the `>64`-column wide fallback);
//! - `cm_mining::reference::mine_itemsets_reference` (the retired
//!   row-at-a-time miner) vs the vertical bitset engine.
//!
//! A final layer re-checks the cm-par contract end to end: graphs,
//! itemsets, and label matrices at explicit thread counts 1/2/4.

use std::sync::Arc;

use cross_modal::featurespace::FrozenTable;
use cross_modal::featurespace::{
    normalized_similarity, CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable,
    FeatureValue, Label, ModalityKind, PairKernel, ServingMode, SimilarityConfig, Vocabulary,
};
use cross_modal::labelmodel::{CategoricalContainsLf, LabelMatrix, LabelingFunction, Vote};
use cross_modal::mining::reference::mine_itemsets_reference;
use cross_modal::mining::{mine_itemsets_with, MiningConfig};
use cross_modal::orgsim::{TaskConfig, TaskId, World, WorldConfig};
use cross_modal::par::ParConfig;
use cross_modal::propagation::GraphBuilder;

/// xorshift64* — deterministic, dependency-free test randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A mixed-kind table (3 numeric, 2 categorical, 1 embedding) with ~25%
/// missingness per cell, seeded.
fn mixed_table(n: usize, seed: u64) -> FeatureTable {
    let schema = Arc::new(FeatureSchema::from_defs(vec![
        FeatureDef::numeric("n0", FeatureSet::A, ServingMode::Servable),
        FeatureDef::numeric("n1", FeatureSet::A, ServingMode::Servable),
        FeatureDef::numeric("n2", FeatureSet::B, ServingMode::Servable),
        FeatureDef::categorical(
            "c0",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "c", "d", "e"]),
        ),
        FeatureDef::categorical(
            "c1",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names((0..80).map(|i| format!("t{i}")).collect::<Vec<_>>()),
        ),
        FeatureDef::embedding("e0", 8, FeatureSet::D, ServingMode::Servable),
    ]));
    let mut rng = Rng::new(seed);
    let mut t = FeatureTable::new(schema);
    for _ in 0..n {
        let mut row: Vec<FeatureValue> = Vec::with_capacity(6);
        for c in 0..6 {
            if rng.f64() < 0.25 {
                row.push(FeatureValue::Missing);
                continue;
            }
            row.push(match c {
                0..=2 => FeatureValue::Numeric(rng.f64() * 40.0 - 20.0),
                3 => FeatureValue::Categorical(CatSet::from_ids(
                    (0..1 + rng.below(3)).map(|_| rng.below(5) as u32).collect(),
                )),
                4 => FeatureValue::Categorical(CatSet::from_ids(
                    // Ids up to 80 defeat the u64 category-mask fast path.
                    (0..1 + rng.below(4)).map(|_| rng.below(80) as u32).collect(),
                )),
                _ => FeatureValue::Embedding((0..8).map(|_| rng.f64() as f32 - 0.5).collect()),
            });
        }
        t.push_row(&row);
    }
    t
}

#[test]
fn pair_kernel_is_bit_identical_to_normalized_similarity() {
    let t = mixed_table(80, 11);
    let config = SimilarityConfig::uniform(vec![0, 1, 2, 3, 4, 5]).fit_scales(&t);
    let frozen = FrozenTable::freeze(&t);
    let kernel = PairKernel::compile(&frozen, &config);
    for i in 0..t.len() {
        for j in 0..t.len() {
            let fused = kernel.pair(i, j);
            let reference = normalized_similarity((&t, i), (&t, j), &config);
            assert_eq!(fused.to_bits(), reference.to_bits(), "pair ({i}, {j})");
        }
    }

    // Across two segments: `c1` compiles to masks over the rows whose ids
    // all fit one `u64`, and to sorted slices over the rest.
    let fits = |r: usize| t.categorical(r, 4).unwrap_or(&[]).iter().all(|&id| id < 64);
    let (masked_rows, sliced_rows): (Vec<usize>, Vec<usize>) = (0..t.len()).partition(|&r| fits(r));
    assert!(!masked_rows.is_empty() && !sliced_rows.is_empty(), "both segments must be non-empty");
    let (masked, sliced) = (t.gather(&masked_rows), t.gather(&sliced_rows));
    let (frozen_m, frozen_s) = (FrozenTable::freeze(&masked), FrozenTable::freeze(&sliced));
    let kernel_m = PairKernel::compile(&frozen_m, &config);
    let kernel_s = PairKernel::compile(&frozen_s, &config);
    for i in 0..masked.len() {
        for j in 0..sliced.len() {
            let there = normalized_similarity((&masked, i), (&sliced, j), &config);
            let back = normalized_similarity((&sliced, j), (&masked, i), &config);
            let what = format!("masked row {i}, sliced row {j}");
            assert_eq!(kernel_m.pair_across(i, &kernel_s, j).to_bits(), there.to_bits(), "{what}");
            assert_eq!(kernel_s.pair_across(j, &kernel_m, i).to_bits(), back.to_bits(), "{what}");
        }
    }
}

#[test]
fn pair_kernel_wide_fallback_is_bit_identical() {
    // >64 plan columns forces the per-column-bitmap wide path.
    let defs: Vec<FeatureDef> = (0..70)
        .map(|i| FeatureDef::numeric(&format!("n{i}"), FeatureSet::A, ServingMode::Servable))
        .collect();
    let schema = Arc::new(FeatureSchema::from_defs(defs));
    let mut rng = Rng::new(23);
    let mut t = FeatureTable::new(schema);
    for _ in 0..40 {
        let row: Vec<FeatureValue> = (0..70)
            .map(|_| {
                if rng.f64() < 0.3 {
                    FeatureValue::Missing
                } else {
                    FeatureValue::Numeric(rng.f64() * 10.0)
                }
            })
            .collect();
        t.push_row(&row);
    }
    let config = SimilarityConfig::uniform((0..70).collect()).fit_scales(&t);
    let frozen = FrozenTable::freeze(&t);
    let kernel = PairKernel::compile(&frozen, &config);
    for i in 0..t.len() {
        for j in i..t.len() {
            let fused = kernel.pair(i, j);
            let reference = normalized_similarity((&t, i), (&t, j), &config);
            assert_eq!(fused.to_bits(), reference.to_bits(), "pair ({i}, {j})");
        }
    }
}

/// Field-by-field equality of two mined results, with the f64 statistics
/// compared exactly (identical integer operands must give identical
/// quotients).
fn assert_same_itemsets(
    a: &cross_modal::mining::MinedItemsets,
    b: &cross_modal::mining::MinedItemsets,
    context: &str,
) {
    assert_eq!(a.n_candidates, b.n_candidates, "{context}: n_candidates");
    assert_eq!(a.positive, b.positive, "{context}: positive itemsets");
    assert_eq!(a.negative, b.negative, "{context}: negative itemsets");
}

#[test]
fn bitset_miner_matches_rowwise_reference_on_org_data() {
    let w = World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.02), 5));
    let data = w.generate(ModalityKind::Text, 1200, 3);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    for order in [1usize, 2, 3] {
        let cfg = MiningConfig { max_order: order, ..MiningConfig::default() };
        let fast = mine_itemsets_with(&data.table, &data.labels, &cols, &cfg, &ParConfig::serial());
        let oracle = mine_itemsets_reference(&data.table, &data.labels, &cols, &cfg);
        assert_same_itemsets(&fast, &oracle, &format!("order {order}"));
    }
}

#[test]
fn bitset_miner_matches_reference_on_seeded_mixed_table() {
    let t = mixed_table(600, 77);
    let mut rng = Rng::new(99);
    let labels: Vec<Label> = (0..t.len())
        .map(|_| if rng.f64() < 0.2 { Label::Positive } else { Label::Negative })
        .collect();
    let cols = vec![0, 1, 2, 3, 4];
    let cfg = MiningConfig { max_order: 2, min_recall: 0.05, ..MiningConfig::default() };
    let fast = mine_itemsets_with(&t, &labels, &cols, &cfg, &ParConfig::serial());
    let oracle = mine_itemsets_reference(&t, &labels, &cols, &cfg);
    assert_same_itemsets(&fast, &oracle, "mixed table");
}

/// The cm-par contract over the rewritten kernels: explicit thread counts
/// must never change a bit of any output.
#[test]
fn kernel_outputs_are_thread_count_invariant() {
    let w = World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.03), 9));
    let data = w.generate(ModalityKind::Text, 5000, 4);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);

    // Graph construction over the fused pair kernel.
    let sim = SimilarityConfig::uniform(cols.clone()).fit_scales(&data.table);
    let builder = GraphBuilder::approximate(8, data.table.len());
    let base_graph = builder.build_with(&data.table, &sim, 1, &ParConfig::threads(1));

    // Bitset mining (5k rows crosses MINE_PAR_ROWS).
    let cfg = MiningConfig { max_order: 2, ..MiningConfig::default() };
    let base_mined =
        mine_itemsets_with(&data.table, &data.labels, &cols, &cfg, &ParConfig::threads(1));

    // Frozen-view LF application.
    let lfs: Vec<Box<dyn LabelingFunction>> = cols
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, &c)| {
            Box::new(CategoricalContainsLf::new(
                c,
                vec![i as u32],
                false,
                if i % 2 == 0 { Vote::Positive } else { Vote::Negative },
            )) as Box<dyn LabelingFunction>
        })
        .collect();
    let base_votes = LabelMatrix::apply_with(&data.table, &lfs, &ParConfig::threads(1));

    for threads in [2usize, 4] {
        let par = ParConfig::threads(threads);
        assert_eq!(
            builder.build_with(&data.table, &sim, 1, &par),
            base_graph,
            "graph, threads = {threads}"
        );
        let mined = mine_itemsets_with(&data.table, &data.labels, &cols, &cfg, &par);
        assert_same_itemsets(&mined, &base_mined, &format!("threads = {threads}"));
        let votes = LabelMatrix::apply_with(&data.table, &lfs, &par);
        for r in 0..base_votes.n_rows() {
            assert_eq!(votes.row(r), base_votes.row(r), "row {r}, threads = {threads}");
        }
    }
}
