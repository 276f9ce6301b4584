//! Turning mined itemsets into labeling functions.

use std::time::Duration;

use cm_faults::Stopwatch;
use cm_featurespace::{FeatureTable, Label};
use cm_labelmodel::{CategoricalContainsLf, ConjunctionLf, LabelingFunction, Predicate, Vote};
use cm_par::ParConfig;

use crate::apriori::{mine_itemsets_with, ItemValue, MiningConfig};

/// Summary of one mining run (feeds the §6.7.1 comparison).
#[derive(Debug, Clone)]
pub struct MiningReport {
    /// Order-1 candidates seen in the positive pass.
    pub n_candidates: usize,
    /// Positive itemsets passing thresholds.
    pub n_positive_itemsets: usize,
    /// Negative itemsets passing thresholds.
    pub n_negative_itemsets: usize,
    /// LFs emitted after capping.
    pub n_lfs: usize,
    /// Wall-clock time of the mining pass.
    pub mining_time: Duration,
}

/// Mined labeling functions plus their report.
pub struct MinedLfs {
    /// The generated LFs (positive LFs first).
    pub lfs: Vec<Box<dyn LabelingFunction>>,
    /// Run summary.
    pub report: MiningReport,
}

/// Mines LFs from a labeled dev table (§4.3 end to end).
///
/// Itemsets become LFs as follows: categorical itemsets become
/// [`CategoricalContainsLf`] (require-all over the itemset's ids); numeric
/// bins become range conjunctions over the bin's edges. Boundary values
/// equal to a bin edge may match two adjacent range LFs — harmless for weak
/// supervision, where LFs freely overlap.
///
/// `max_positive_lfs` / `max_negative_lfs` cap the output, keeping the
/// highest-recall itemsets (low-recall duplicates add correlation without
/// coverage).
///
/// Reads `CM_THREADS` once, here: a signature the benchmark package
/// (`perfbench/`) calls, which changes only with the benchmark.
pub fn mine_lfs(
    dev: &FeatureTable,
    labels: &[Label],
    columns: &[usize],
    config: &MiningConfig,
    max_positive_lfs: usize,
    max_negative_lfs: usize,
) -> MinedLfs {
    let start = Stopwatch::start();
    // lint: allow(par-from-env) — signature pinned by perfbench/src/common.rs
    let mined = mine_itemsets_with(dev, labels, columns, config, &ParConfig::from_env());
    let lfs = lfs_from_itemsets(&mined, max_positive_lfs, max_negative_lfs);
    let report = MiningReport {
        n_candidates: mined.n_candidates,
        n_positive_itemsets: mined.positive.len(),
        n_negative_itemsets: mined.negative.len(),
        n_lfs: lfs.len(),
        mining_time: start.elapsed(),
    };
    MinedLfs { report, lfs }
}

/// Converts already-mined itemsets into capped LF lists (positive LFs
/// first) — the itemset-to-LF half of [`mine_lfs`], reused by the sharded
/// driver, which mines its itemsets from segment-assembled bitsets.
pub fn lfs_from_itemsets(
    mined: &crate::apriori::MinedItemsets,
    max_positive_lfs: usize,
    max_negative_lfs: usize,
) -> Vec<Box<dyn LabelingFunction>> {
    let mut lfs: Vec<Box<dyn LabelingFunction>> = Vec::new();
    for stats in mined.positive.iter().take(max_positive_lfs) {
        lfs.push(itemset_to_lf(stats.items.as_slice(), Vote::Positive, &mined.discretizers));
    }
    for stats in mined.negative.iter().take(max_negative_lfs) {
        lfs.push(itemset_to_lf(stats.items.as_slice(), Vote::Negative, &mined.discretizers));
    }
    lfs
}

fn itemset_to_lf(
    items: &[crate::apriori::Item],
    vote: Vote,
    discretizers: &[crate::discretize::Discretizer],
) -> Box<dyn LabelingFunction> {
    debug_assert!(!items.is_empty());
    let column = items[0].column;
    match items[0].value {
        ItemValue::Cat(_) => {
            let ids: Vec<u32> = items
                .iter()
                .map(|i| match i.value {
                    ItemValue::Cat(id) => id,
                    ItemValue::NumBin(_) => unreachable!("mixed itemset kinds"),
                })
                .collect();
            Box::new(CategoricalContainsLf::new(column, ids, true, vote))
        }
        ItemValue::NumBin(bin) => {
            // Mined NumBin items always originate from a discretizer
            // fitted on the same column.
            let d = discretizers
                .iter()
                .find(|d| d.column == column)
                .expect("discretizer for mined numeric column"); // lint: allow(expect)
            let (lower, upper) = d.bin_range(bin);
            let mut predicates = Vec::new();
            if let Some(lo) = lower {
                predicates.push(Predicate::NumAbove { column, threshold: lo });
            }
            if let Some(hi) = upper {
                predicates.push(Predicate::NumBelow { column, threshold: hi });
            }
            if predicates.is_empty() {
                // Single-bin discretizer: matches any present value.
                predicates.push(Predicate::NumAbove { column, threshold: f64::NEG_INFINITY });
            }
            let name = format!("num[{column}]bin{bin}=>{vote:?}");
            Box::new(ConjunctionLf::new(name, predicates, vote))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode, Vocabulary,
    };
    use cm_labelmodel::LabelMatrix;

    use super::*;

    fn dev() -> (FeatureTable, Vec<Label>) {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["p", "bg", "n"]),
            ),
            FeatureDef::numeric("s", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        let mut labels = Vec::new();
        for i in 0..80 {
            t.push_row(&[
                FeatureValue::Categorical(CatSet::from_ids(vec![0, 1])),
                FeatureValue::Numeric(8.0 + (i % 4) as f64),
            ]);
            labels.push(Label::Positive);
        }
        for i in 0..720 {
            t.push_row(&[
                FeatureValue::Categorical(CatSet::from_ids(vec![1, 2])),
                FeatureValue::Numeric(i as f64 * 0.01),
            ]);
            labels.push(Label::Negative);
        }
        (t, labels)
    }

    #[test]
    fn mined_lfs_vote_correctly() {
        let (t, labels) = dev();
        let mined = mine_lfs(&t, &labels, &[0, 1], &MiningConfig::default(), 10, 10);
        assert!(!mined.lfs.is_empty());
        let m = LabelMatrix::apply_with(&t, &mined.lfs, &ParConfig::from_env());
        // Positive rows should attract positive votes and vice versa.
        let mut pos_correct = 0;
        for r in 0..80 {
            if m.row(r).iter().any(|&v| v > 0) {
                pos_correct += 1;
            }
        }
        assert!(pos_correct > 60, "only {pos_correct}/80 positives covered");
        let mut neg_correct = 0;
        for r in 80..800 {
            if m.row(r).iter().any(|&v| v < 0) {
                neg_correct += 1;
            }
        }
        assert!(neg_correct > 300, "only {neg_correct}/720 negatives covered");
    }

    #[test]
    fn caps_limit_output() {
        let (t, labels) = dev();
        let mined = mine_lfs(&t, &labels, &[0, 1], &MiningConfig::default(), 1, 1);
        assert!(mined.lfs.len() <= 2);
        assert_eq!(mined.report.n_lfs, mined.lfs.len());
    }

    #[test]
    fn report_counts_are_consistent() {
        let (t, labels) = dev();
        let mined = mine_lfs(&t, &labels, &[0, 1], &MiningConfig::default(), 100, 100);
        assert!(mined.report.n_candidates >= mined.report.n_positive_itemsets);
        assert_eq!(
            mined.report.n_lfs,
            mined.report.n_positive_itemsets.min(100) + mined.report.n_negative_itemsets.min(100)
        );
        assert!(mined.report.mining_time.as_nanos() > 0);
    }

    #[test]
    fn numeric_lfs_are_range_shaped() {
        let (t, labels) = dev();
        let mined = mine_lfs(&t, &labels, &[1], &MiningConfig::default(), 20, 0);
        // All positive values live in the top bins; the mined LF must not
        // fire on low values.
        let m = LabelMatrix::apply_with(&t, &mined.lfs, &ParConfig::from_env());
        for r in 80..200 {
            assert!(
                m.row(r).iter().all(|&v| v <= 0),
                "numeric LF fired positively on a negative row"
            );
        }
    }
}
