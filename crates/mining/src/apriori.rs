//! Apriori-style itemset mining over the labeled development corpus.
//!
//! The engine is *vertical*: instead of materializing each row's items and
//! feeding hash-map counters (retained as the oracle in
//! [`crate::reference`]), one pass over the frozen columns builds a row
//! bitset per distinct item, and every support after that is a
//! popcount-AND — class-conditional supports against the class bitsets,
//! higher-order conjunctions by intersecting member bitsets.

use cm_featurespace::{Bitmap, FeatureTable, FrozenTable, Label};
use cm_par::ParConfig;

use crate::catalog::{ItemCatalog, ItemCatalogBuilder};
use crate::discretize::Discretizer;

/// Below this many rows the support passes stay serial; above it they chunk
/// over itemsets. Size-only, so path selection never depends on the thread
/// count.
const MINE_PAR_ROWS: usize = 4096;

/// Minimum itemsets per chunk for the parallel popcount passes.
const MINE_MIN_ITEMS_PER_CHUNK: usize = 8;

/// An atomic item: one feature value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Item {
    /// Source column.
    pub column: usize,
    /// The value.
    pub value: ItemValue,
}

/// The value part of an [`Item`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ItemValue {
    /// A category id of a categorical feature.
    Cat(u32),
    /// A quantile bin of a numeric feature.
    NumBin(u32),
}

/// Support/precision statistics of a mined itemset.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemStats {
    /// The items (all share one column; length = order).
    pub items: Vec<Item>,
    /// Rows matching among positives.
    pub pos_support: usize,
    /// Rows matching among negatives.
    pub neg_support: usize,
    /// `P(y = + | itemset present)` on the dev set.
    pub precision: f64,
    /// `P(itemset present | y = +)` on the dev set.
    pub recall: f64,
}

/// Mining thresholds (§4.3: itemsets are kept when they meet pre-specified
/// precision and recall thresholds over the development set).
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Minimum precision for positive itemsets.
    pub min_precision: f64,
    /// Minimum recall (within the positive class) for positive itemsets.
    pub min_recall: f64,
    /// Minimum "negative precision" (`P(y = - | present)`) for negative
    /// itemsets.
    pub min_neg_precision: f64,
    /// Minimum support within the negative class for negative itemsets.
    pub min_neg_recall: f64,
    /// Maximum itemset order (1 = single values; the paper found order 1
    /// sufficient in practice).
    pub max_order: usize,
    /// Quantile bins for numeric features.
    pub numeric_bins: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        Self {
            min_precision: 0.8,
            min_recall: 0.02,
            min_neg_precision: 0.995,
            min_neg_recall: 0.05,
            max_order: 1,
            numeric_bins: 8,
        }
    }
}

/// Result of a mining run.
#[derive(Debug, Clone)]
pub struct MinedItemsets {
    /// Positive-indicative itemsets.
    pub positive: Vec<ItemStats>,
    /// Negative-indicative itemsets.
    pub negative: Vec<ItemStats>,
    /// Fitted numeric discretizers (needed to turn bins back into ranges).
    pub discretizers: Vec<Discretizer>,
    /// Number of order-1 candidates considered.
    pub n_candidates: usize,
}

/// Mines positive- and negative-indicative itemsets from a labeled table.
///
/// Implements the paper's class-imbalance optimization: candidate items are
/// first counted over the positive examples only; only survivors are counted
/// over the negatives. Higher orders join items *within one column*.
///
/// The support passes chunk over itemsets; each itemset's supports are
/// exact popcounts computed independently, so results are identical for
/// any thread count — and identical to the row-at-a-time oracle in
/// [`crate::reference`], since all counted quantities are the same
/// integers and the derived precision/recall divisions see the same
/// operands.
///
/// # Panics
/// Panics if `labels.len() != table.len()`.
pub fn mine_itemsets_with(
    table: &FeatureTable,
    labels: &[Label],
    columns: &[usize],
    config: &MiningConfig,
    par: &ParConfig,
) -> MinedItemsets {
    assert_eq!(table.len(), labels.len(), "label count mismatch");
    // The resident path is the single-segment case of the streaming
    // catalog build, so sharded mining agrees with it by construction.
    let frozen = FrozenTable::freeze(table);
    let mut builder = ItemCatalogBuilder::new(table.schema(), columns, config.numeric_bins);
    builder.observe(&frozen);
    let catalog = builder.finish();
    let mut item_bits = catalog.empty_bitsets();
    catalog.fill(&frozen, 0, &mut item_bits);
    mine_from_bitsets(&catalog, &item_bits, labels, config, par)
}

/// Runs the candidate/join phases of the miner against a pre-built item
/// catalog and its row bitsets — the entry point for sharded mining, where
/// [`ItemCatalog::fill`] assembled the bitsets segment by segment.
///
/// Every counted quantity is an exact popcount over the same bitsets the
/// resident path builds, so the output is identical for any segmentation
/// that produced them.
///
/// # Panics
/// Panics if `labels` or `item_bits` disagree with the catalog's corpus.
pub fn mine_from_bitsets(
    catalog: &ItemCatalog,
    item_bits: &[Bitmap],
    labels: &[Label],
    config: &MiningConfig,
    par: &ParConfig,
) -> MinedItemsets {
    assert_eq!(catalog.n_rows(), labels.len(), "label count mismatch");
    assert_eq!(catalog.items.len(), item_bits.len(), "bitset count mismatch");
    let items = &catalog.items;
    let discretizers = catalog.discretizers.clone();

    let n_pos = labels.iter().filter(|l| l.is_positive()).count();
    let n_neg = labels.len() - n_pos;

    // Class bitsets: popcount(item AND class) is the class-conditional
    // support, covering both of the oracle's counting passes at once.
    let mut pos_bits = Bitmap::zeros(labels.len());
    let mut neg_bits = Bitmap::zeros(labels.len());
    for (r, l) in labels.iter().enumerate() {
        if l.is_positive() {
            pos_bits.set(r);
        } else {
            neg_bits.set(r);
        }
    }
    let supports = class_supports(item_bits, &pos_bits, &neg_bits, labels.len(), par);

    // "Candidates considered" keeps the historical meaning: items occurring
    // in at least one positive row (the paper's class-imbalance
    // optimization counted positives only, so only those items existed).
    let n_candidates = supports.iter().filter(|&&(pos, _)| pos > 0).count();

    // Keep candidates that could still clear the recall bar.
    let min_pos_support = ((config.min_recall * n_pos as f64).ceil() as usize).max(1);
    let candidates: Vec<usize> =
        (0..items.len()).filter(|&i| supports[i].0 >= min_pos_support).collect();

    let make_stats = |items: Vec<Item>, pos: usize, neg: usize| ItemStats {
        items,
        pos_support: pos,
        neg_support: neg,
        precision: if pos + neg > 0 { pos as f64 / (pos + neg) as f64 } else { 0.0 },
        recall: if n_pos > 0 { pos as f64 / n_pos as f64 } else { 0.0 },
    };

    // Order-1 positive itemsets.
    let mut positive: Vec<ItemStats> = Vec::new();
    let mut frontier: Vec<(Vec<Item>, Bitmap)> = Vec::new();
    for &ci in &candidates {
        let (pos, neg) = supports[ci];
        let stats = make_stats(vec![items[ci]], pos, neg);
        if stats.precision >= config.min_precision && stats.recall >= config.min_recall {
            positive.push(stats);
        } else if stats.recall >= config.min_recall {
            // High-recall but low-precision items seed higher orders.
            frontier.push((vec![items[ci]], item_bits[ci].clone()));
        }
    }

    // Higher orders: join frontier itemsets with candidate items of the
    // same column (Apriori join with the single-feature constraint). Bases
    // are ascending item lists extended only with items greater than their
    // last member, so every joined set arises from exactly one base and no
    // dedup map is needed; its row bitset is one AND away.
    for _order in 2..=config.max_order {
        if frontier.is_empty() {
            break;
        }
        let mut next_sets: Vec<Vec<Item>> = Vec::new();
        let mut next_bits: Vec<Bitmap> = Vec::new();
        for (base, bits) in &frontier {
            let col = base[0].column;
            let Some(&last) = base.last() else { continue };
            for &ci in &candidates {
                let item = items[ci];
                if item.column != col || item <= last {
                    continue;
                }
                let mut joined = base.clone();
                joined.push(item);
                next_sets.push(joined);
                next_bits.push(bits.and(&item_bits[ci]));
            }
        }
        let joined_supports = class_supports(&next_bits, &pos_bits, &neg_bits, labels.len(), par);
        let mut new_frontier = Vec::new();
        for (i, set) in next_sets.iter().enumerate() {
            let (pos, neg) = joined_supports[i];
            let stats = make_stats(set.clone(), pos, neg);
            if stats.recall < config.min_recall {
                continue; // anti-monotone prune
            }
            if stats.precision >= config.min_precision {
                positive.push(stats);
            } else {
                new_frontier.push((set.clone(), next_bits[i].clone()));
            }
        }
        frontier = new_frontier;
    }

    // Negative itemsets (order 1 only: the negative class is diffuse and
    // higher orders add nothing but runtime).
    let min_neg_support = ((config.min_neg_recall * n_neg as f64).ceil() as usize).max(1);
    let mut negative: Vec<ItemStats> = Vec::new();
    for (i, &(pos, neg)) in supports.iter().enumerate() {
        if neg < min_neg_support {
            continue;
        }
        let neg_precision = neg as f64 / (pos + neg) as f64;
        if neg_precision >= config.min_neg_precision {
            negative.push(make_stats(vec![items[i]], pos, neg));
        }
    }

    sort_stats(&mut positive);
    sort_stats(&mut negative);
    MinedItemsets { positive, negative, discretizers, n_candidates }
}

/// Class-conditional supports for a slice of row bitsets: for each,
/// `(popcount(b AND pos), popcount(b AND neg))`. Chunks over itemsets when
/// the table is large enough for fan-out to pay; every support is an exact
/// integer computed independently, so the result is identical at any
/// thread count.
fn class_supports(
    bits: &[Bitmap],
    pos: &Bitmap,
    neg: &Bitmap,
    n_rows: usize,
    par: &ParConfig,
) -> Vec<(usize, usize)> {
    let count = |range: std::ops::Range<usize>| -> Vec<(usize, usize)> {
        bits[range].iter().map(|b| (b.and_count(pos), b.and_count(neg))).collect()
    };
    if n_rows < MINE_PAR_ROWS {
        return count(0..bits.len());
    }
    cm_par::par_map_chunks(&par.clone().with_min_chunk(MINE_MIN_ITEMS_PER_CHUNK), bits.len(), count)
        .unwrap_or_else(|e| e.resume())
        .into_iter()
        .flatten()
        .collect()
}

pub(crate) fn sort_stats(stats: &mut [ItemStats]) {
    stats.sort_by(|a, b| b.recall.total_cmp(&a.recall).then_with(|| a.items.cmp(&b.items)));
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode, Vocabulary,
    };

    use super::*;

    /// Dev set: id 0 is a near-perfect positive indicator, id 1 appears in
    /// both classes, id 2 is a near-perfect negative indicator. The numeric
    /// column is high for positives.
    fn dev(n_pos: usize, n_neg: usize) -> (FeatureTable, Vec<Label>) {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["p", "mix", "n"]),
            ),
            FeatureDef::numeric("score", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        let mut labels = Vec::new();
        for i in 0..n_pos {
            let ids = if i % 10 == 0 { vec![1] } else { vec![0, 1] };
            t.push_row(&[
                FeatureValue::Categorical(CatSet::from_ids(ids)),
                FeatureValue::Numeric(10.0 + (i % 3) as f64),
            ]);
            labels.push(Label::Positive);
        }
        for i in 0..n_neg {
            let ids = if i % 60 == 0 { vec![0, 2] } else { vec![1, 2] };
            t.push_row(&[
                FeatureValue::Categorical(CatSet::from_ids(ids)),
                FeatureValue::Numeric(i as f64 * 0.01),
            ]);
            labels.push(Label::Negative);
        }
        (t, labels)
    }

    #[test]
    fn finds_positive_indicator() {
        let (t, labels) = dev(100, 900);
        let mined = mine_itemsets_with(
            &t,
            &labels,
            &[0, 1],
            &MiningConfig::default(),
            &ParConfig::from_env(),
        );
        let found = mined
            .positive
            .iter()
            .any(|s| s.items == vec![Item { column: 0, value: ItemValue::Cat(0) }]);
        assert!(found, "positive itemsets: {:?}", mined.positive);
    }

    #[test]
    fn finds_numeric_bin_indicator() {
        let (t, labels) = dev(100, 900);
        let mined = mine_itemsets_with(
            &t,
            &labels,
            &[0, 1],
            &MiningConfig::default(),
            &ParConfig::from_env(),
        );
        let found = mined
            .positive
            .iter()
            .any(|s| matches!(s.items[0].value, ItemValue::NumBin(_)) && s.items[0].column == 1);
        assert!(found, "expected a numeric-bin itemset: {:?}", mined.positive);
    }

    #[test]
    fn finds_negative_indicator() {
        let (t, labels) = dev(100, 900);
        let cfg = MiningConfig { min_neg_precision: 0.95, ..Default::default() };
        let mined = mine_itemsets_with(&t, &labels, &[0], &cfg, &ParConfig::from_env());
        let found = mined
            .negative
            .iter()
            .any(|s| s.items == vec![Item { column: 0, value: ItemValue::Cat(2) }]);
        assert!(found, "negative itemsets: {:?}", mined.negative);
    }

    #[test]
    fn ambiguous_value_excluded_from_positives() {
        let (t, labels) = dev(100, 900);
        let mined =
            mine_itemsets_with(&t, &labels, &[0], &MiningConfig::default(), &ParConfig::from_env());
        assert!(
            !mined
                .positive
                .iter()
                .any(|s| s.items.contains(&Item { column: 0, value: ItemValue::Cat(1) })),
            "id 1 appears everywhere and must not become a positive LF"
        );
    }

    #[test]
    fn precision_and_recall_are_exact() {
        let (t, labels) = dev(100, 900);
        let mined =
            mine_itemsets_with(&t, &labels, &[0], &MiningConfig::default(), &ParConfig::from_env());
        let s = mined
            .positive
            .iter()
            .find(|s| s.items == vec![Item { column: 0, value: ItemValue::Cat(0) }])
            .unwrap();
        // id 0: 90 positives (i%10 != 0) and 15 negatives (i%60 == 0).
        assert_eq!(s.pos_support, 90);
        assert_eq!(s.neg_support, 15);
        assert!((s.recall - 0.9).abs() < 1e-12);
        assert!((s.precision - 90.0 / 105.0).abs() < 1e-12);
    }

    #[test]
    fn thresholds_filter_results() {
        let (t, labels) = dev(100, 900);
        let strict = MiningConfig { min_precision: 0.99, ..Default::default() };
        let mined = mine_itemsets_with(&t, &labels, &[0], &strict, &ParConfig::from_env());
        assert!(
            !mined
                .positive
                .iter()
                .any(|s| s.items == vec![Item { column: 0, value: ItemValue::Cat(0) }]),
            "precision 0.857 item must not pass a 0.99 bar"
        );
    }

    #[test]
    fn order2_conjunction_rescues_low_precision_items() {
        // Two ids that are individually weak but jointly pure.
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "z"]),
        )]));
        let mut t = FeatureTable::new(schema);
        let mut labels = Vec::new();
        for _ in 0..50 {
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(vec![0, 1]))]);
            labels.push(Label::Positive);
        }
        for i in 0..300 {
            // Negatives carry a XOR b, never both.
            let id = if i % 2 == 0 { 0 } else { 1 };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(vec![id, 2]))]);
            labels.push(Label::Negative);
        }
        let cfg = MiningConfig { min_precision: 0.9, max_order: 2, ..Default::default() };
        let mined = mine_itemsets_with(&t, &labels, &[0], &cfg, &ParConfig::from_env());
        let pair = mined.positive.iter().find(|s| s.items.len() == 2);
        let pair = pair.expect("order-2 itemset {a,b} should be mined");
        assert_eq!(pair.pos_support, 50);
        assert_eq!(pair.neg_support, 0);
        assert_eq!(pair.precision, 1.0);
    }

    #[test]
    fn empty_positive_class_yields_nothing() {
        let (t, mut labels) = dev(10, 90);
        labels.fill(Label::Negative);
        let mined = mine_itemsets_with(
            &t,
            &labels,
            &[0, 1],
            &MiningConfig::default(),
            &ParConfig::from_env(),
        );
        assert!(mined.positive.is_empty());
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn rejects_mismatched_labels() {
        let (t, _) = dev(5, 5);
        mine_itemsets_with(
            &t,
            &[Label::Positive],
            &[0],
            &MiningConfig::default(),
            &ParConfig::from_env(),
        );
    }

    #[test]
    fn results_are_deterministic_and_sorted_by_recall() {
        let par = ParConfig::from_env();
        let (t, labels) = dev(100, 900);
        let a = mine_itemsets_with(&t, &labels, &[0, 1], &MiningConfig::default(), &par);
        let b = mine_itemsets_with(&t, &labels, &[0, 1], &MiningConfig::default(), &par);
        assert_eq!(a.positive, b.positive);
        for w in a.positive.windows(2) {
            assert!(w[0].recall >= w[1].recall);
        }
    }

    #[test]
    fn bitset_engine_matches_rowwise_oracle() {
        let (t, labels) = dev(100, 900);
        for max_order in [1usize, 2, 3] {
            let cfg = MiningConfig { max_order, ..MiningConfig::default() };
            let fast = mine_itemsets_with(&t, &labels, &[0, 1], &cfg, &ParConfig::from_env());
            let slow = crate::reference::mine_itemsets_reference(&t, &labels, &[0, 1], &cfg);
            assert_eq!(fast.positive, slow.positive, "order {max_order}");
            assert_eq!(fast.negative, slow.negative, "order {max_order}");
            assert_eq!(fast.n_candidates, slow.n_candidates, "order {max_order}");
        }
    }

    #[test]
    fn mining_is_identical_across_thread_counts() {
        // 6000 rows crosses MINE_PAR_ROWS, so the counting passes chunk.
        let (t, labels) = dev(600, 5400);
        let cfg = MiningConfig::default();
        let base = mine_itemsets_with(&t, &labels, &[0, 1], &cfg, &ParConfig::threads(1));
        for threads in [2usize, 4, 8] {
            let par = ParConfig::threads(threads);
            let mined = mine_itemsets_with(&t, &labels, &[0, 1], &cfg, &par);
            assert_eq!(mined.positive, base.positive, "threads = {threads}");
            assert_eq!(mined.negative, base.negative, "threads = {threads}");
            assert_eq!(mined.n_candidates, base.n_candidates, "threads = {threads}");
        }
    }
}
