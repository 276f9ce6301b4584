//! Row-at-a-time reference miner: the differential-test oracle for the
//! vertical bitset engine in [`crate::apriori`].
//!
//! This is the pre-kernel implementation, kept verbatim (minus the
//! parallel dual): order-1 supports come from materializing every row's
//! items into hash-map counters, higher orders from per-row `contains`
//! scans over the joined sets. It is O(rows × itemsets) and allocates per
//! row — never call it on a hot path; its only job is to define the
//! expected output of [`crate::apriori::mine_itemsets_with`] exactly.

use std::collections::HashMap;

use cm_featurespace::{FeatureKind, FeatureTable, Label};

use crate::apriori::{sort_stats, Item, ItemStats, ItemValue, MinedItemsets, MiningConfig};
use crate::discretize::Discretizer;

/// Serial row-at-a-time mining; see the module docs. The result must match
/// [`crate::apriori::mine_itemsets_with`] field for field.
///
/// # Panics
/// Panics if `labels.len() != table.len()`.
pub fn mine_itemsets_reference(
    table: &FeatureTable,
    labels: &[Label],
    columns: &[usize],
    config: &MiningConfig,
) -> MinedItemsets {
    assert_eq!(table.len(), labels.len(), "label count mismatch");
    let schema = table.schema();
    let discretizers: Vec<Discretizer> = columns
        .iter()
        .filter(|&&c| schema.def(c).map(|d| d.kind) == Some(FeatureKind::Numeric))
        .filter_map(|&c| Discretizer::fit(table, c, config.numeric_bins))
        .collect();

    let n_pos = labels.iter().filter(|l| l.is_positive()).count();
    let n_neg = labels.len() - n_pos;

    // Pass 1: count order-1 items over positive rows only (the paper's
    // class-imbalance optimization).
    let pos_counts = count_class_items(table, labels, columns, &discretizers, true);
    let n_candidates = pos_counts.len();

    // Keep candidates that could still clear the recall bar.
    let min_pos_support = ((config.min_recall * n_pos as f64).ceil() as usize).max(1);
    let candidates: Vec<Item> = {
        // lint: allow(nondet-iteration) — hash order is erased by sort_stats'
        // total order before any result surfaces; pinned by the differential
        // suite against the vertical bitset engine.
        pos_counts.iter().filter(|(_, &c)| c >= min_pos_support).map(|(&i, _)| i).collect()
    };

    // Pass 2: count items over negative rows.
    let neg_all_counts = count_class_items(table, labels, columns, &discretizers, false);
    let neg_counts = |item: &Item| neg_all_counts.get(item).copied().unwrap_or(0);

    let make_stats = |items: Vec<Item>, pos: usize, neg: usize| ItemStats {
        items,
        pos_support: pos,
        neg_support: neg,
        precision: if pos + neg > 0 { pos as f64 / (pos + neg) as f64 } else { 0.0 },
        recall: if n_pos > 0 { pos as f64 / n_pos as f64 } else { 0.0 },
    };

    // Order-1 positive itemsets.
    let mut positive: Vec<ItemStats> = Vec::new();
    let mut frontier: Vec<Vec<Item>> = Vec::new();
    for &item in &candidates {
        let pos = pos_counts[&item];
        let neg = neg_counts(&item);
        let stats = make_stats(vec![item], pos, neg);
        if stats.precision >= config.min_precision && stats.recall >= config.min_recall {
            positive.push(stats);
        } else if stats.recall >= config.min_recall {
            frontier.push(vec![item]);
        }
    }

    // Higher orders: join frontier itemsets with candidate items of the
    // same column.
    for _order in 2..=config.max_order {
        if frontier.is_empty() {
            break;
        }
        let mut next_sets: Vec<Vec<Item>> = Vec::new();
        let mut seen: HashMap<Vec<Item>, ()> = HashMap::new();
        for base in &frontier {
            let col = base[0].column;
            let Some(&last) = base.last() else { continue };
            for &item in candidates.iter().filter(|i| i.column == col && **i > last) {
                let mut joined = base.clone();
                joined.push(item);
                if seen.insert(joined.clone(), ()).is_none() {
                    next_sets.push(joined);
                }
            }
        }
        // Count joined itemsets with a full row scan.
        let mut pos_c: HashMap<&[Item], usize> = HashMap::new();
        let mut neg_c: HashMap<&[Item], usize> = HashMap::new();
        for (r, label) in labels.iter().enumerate() {
            let items: Vec<Item> = row_items(table, r, columns, &discretizers).collect();
            for set in &next_sets {
                if set.iter().all(|i| items.contains(i)) {
                    if label.is_positive() {
                        *pos_c.entry(set.as_slice()).or_insert(0) += 1;
                    } else {
                        *neg_c.entry(set.as_slice()).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut new_frontier = Vec::new();
        for set in &next_sets {
            let pos = pos_c.get(set.as_slice()).copied().unwrap_or(0);
            let neg = neg_c.get(set.as_slice()).copied().unwrap_or(0);
            let stats = make_stats(set.clone(), pos, neg);
            if stats.recall < config.min_recall {
                continue; // anti-monotone prune
            }
            if stats.precision >= config.min_precision {
                positive.push(stats);
            } else {
                new_frontier.push(set.clone());
            }
        }
        frontier = new_frontier;
    }

    // Negative itemsets (order 1 only).
    let min_neg_support = ((config.min_neg_recall * n_neg as f64).ceil() as usize).max(1);
    let mut negative: Vec<ItemStats> = Vec::new();
    // lint: allow(nondet-iteration) — hash order is erased by sort_stats'
    // total order before any result surfaces.
    for (&item, &neg) in &neg_all_counts {
        if neg < min_neg_support {
            continue;
        }
        let pos = pos_counts.get(&item).copied().unwrap_or(0);
        let neg_precision = neg as f64 / (pos + neg) as f64;
        if neg_precision >= config.min_neg_precision {
            negative.push(make_stats(vec![item], pos, neg));
        }
    }

    sort_stats(&mut positive);
    sort_stats(&mut negative);
    MinedItemsets { positive, negative, discretizers, n_candidates }
}

/// Counts order-1 items over the rows of one class.
fn count_class_items(
    table: &FeatureTable,
    labels: &[Label],
    columns: &[usize],
    discretizers: &[Discretizer],
    positive: bool,
) -> HashMap<Item, usize> {
    let mut counts: HashMap<Item, usize> = HashMap::new();
    for (r, label) in labels.iter().enumerate() {
        if label.is_positive() != positive {
            continue;
        }
        for item in row_items(table, r, columns, discretizers) {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    counts
}

/// Iterates the items present in one row.
fn row_items<'a>(
    table: &'a FeatureTable,
    row: usize,
    columns: &'a [usize],
    discretizers: &'a [Discretizer],
) -> impl Iterator<Item = Item> + 'a {
    columns.iter().flat_map(move |&col| {
        let schema = table.schema();
        let mut out: Vec<Item> = Vec::new();
        let Some(def) = schema.def(col) else {
            return out.into_iter();
        };
        match def.kind {
            FeatureKind::Categorical => {
                if let Some(ids) = table.categorical(row, col) {
                    out.extend(
                        ids.iter().map(|&id| Item { column: col, value: ItemValue::Cat(id) }),
                    );
                }
            }
            FeatureKind::Numeric => {
                if let (Some(v), Some(d)) =
                    (table.numeric(row, col), discretizers.iter().find(|d| d.column == col))
                {
                    out.push(Item { column: col, value: ItemValue::NumBin(d.bin(v)) });
                }
            }
            FeatureKind::Embedding { .. } => {}
        }
        out.into_iter()
    })
}
