//! Randomized tests for discretization and itemset mining (seeded, in-tree
//! PRNG).

use std::sync::Arc;

use cm_featurespace::{
    CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, Label, ServingMode,
    Vocabulary,
};
use cm_linalg::rng::{Rng, StdRng};
use cm_mining::{mine_itemsets_with, Discretizer, MiningConfig};
use cm_par::ParConfig;

const CASES: u64 = 48;

fn schema() -> Arc<FeatureSchema> {
    Arc::new(FeatureSchema::from_defs(vec![
        FeatureDef::numeric("n", FeatureSet::A, ServingMode::Servable),
        FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names((0..6).map(|i| format!("v{i}"))),
        ),
    ]))
}

fn labeled_table(rng: &mut StdRng) -> (FeatureTable, Vec<Label>) {
    let n = rng.gen_range(8..60usize);
    let mut t = FeatureTable::new(schema());
    let mut labels = Vec::new();
    for _ in 0..n {
        let num = rng.gen_range(-50.0..50.0);
        let n_cats = rng.gen_range(0..4usize);
        let mut cats: Vec<u32> = (0..n_cats).map(|_| rng.gen_range(0..6u32)).collect();
        cats.sort_unstable();
        cats.dedup();
        t.push_row(&[
            FeatureValue::Numeric(num),
            FeatureValue::Categorical(CatSet::from_ids(cats)),
        ]);
        labels.push(if rng.gen_bool(0.25) { Label::Positive } else { Label::Negative });
    }
    (t, labels)
}

/// Every value maps to exactly one bin, bins are monotone in the value,
/// and each value lies inside its bin's reported range.
#[test]
fn discretizer_bins_partition() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB14 ^ case);
        let n = rng.gen_range(4..50usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let mut t = FeatureTable::new(schema());
        for &v in &values {
            t.push_row(&[FeatureValue::Numeric(v), FeatureValue::Missing]);
        }
        let d = Discretizer::fit(&t, 0, 4).unwrap();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut prev_bin = 0;
        for &v in &sorted {
            let b = d.bin(v);
            assert!(b >= prev_bin, "case {case}: bins must be monotone in the value");
            assert!((b as usize) < d.n_bins(), "case {case}");
            let (lo, hi) = d.bin_range(b);
            if let Some(lo) = lo {
                assert!(v >= lo, "case {case}: {v} below bin floor {lo}");
            }
            if let Some(hi) = hi {
                assert!(v <= hi, "case {case}: {v} above bin ceiling {hi}");
            }
            prev_bin = b;
        }
    }
}

/// Mined statistics are internally consistent: precision/recall in
/// [0,1], supports bounded by class sizes, and every reported itemset
/// actually clears the configured thresholds.
#[test]
fn mined_stats_respect_thresholds() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57A7 ^ case);
        let (t, labels) = labeled_table(&mut rng);
        let cfg = MiningConfig { min_precision: 0.6, min_recall: 0.05, ..MiningConfig::default() };
        let mined = mine_itemsets_with(&t, &labels, &[0, 1], &cfg, &ParConfig::from_env());
        let n_pos = labels.iter().filter(|l| l.is_positive()).count();
        let n_neg = labels.len() - n_pos;
        for s in &mined.positive {
            assert!(s.pos_support <= n_pos, "case {case}");
            assert!(s.neg_support <= n_neg, "case {case}");
            assert!((0.0..=1.0).contains(&s.precision), "case {case}");
            assert!((0.0..=1.0).contains(&s.recall), "case {case}");
            assert!(s.precision >= cfg.min_precision - 1e-12, "case {case}");
            assert!(s.recall >= cfg.min_recall - 1e-12, "case {case}");
        }
        for s in &mined.negative {
            let neg_precision =
                s.neg_support as f64 / (s.pos_support + s.neg_support).max(1) as f64;
            assert!(neg_precision >= cfg.min_neg_precision - 1e-12, "case {case}");
        }
    }
}

/// Anti-monotonicity: an order-2 itemset's support never exceeds the
/// positive support of either member.
#[test]
fn order2_support_is_anti_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x02D2 ^ case);
        let (t, labels) = labeled_table(&mut rng);
        let cfg = MiningConfig {
            min_precision: 0.99, // push singles into the frontier
            min_recall: 0.02,
            max_order: 2,
            ..MiningConfig::default()
        };
        let mined = mine_itemsets_with(&t, &labels, &[1], &cfg, &ParConfig::from_env());
        // Recompute single-item supports directly.
        let single_support = |item: cm_mining::Item| {
            labels
                .iter()
                .enumerate()
                .filter(|(r, l)| {
                    l.is_positive()
                        && matches!(item.value, cm_mining::ItemValue::Cat(id)
                            if t.categorical(*r, item.column)
                                .is_some_and(|ids| ids.binary_search(&id).is_ok()))
                })
                .count()
        };
        for s in mined.positive.iter().filter(|s| s.items.len() == 2) {
            for &item in &s.items {
                assert!(
                    s.pos_support <= single_support(item),
                    "case {case}: pair support {} exceeds member support",
                    s.pos_support
                );
            }
        }
    }
}

/// Mining is deterministic.
#[test]
fn mining_is_deterministic() {
    let par = ParConfig::from_env();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDE7 ^ case);
        let (t, labels) = labeled_table(&mut rng);
        let cfg = MiningConfig::default();
        let a = mine_itemsets_with(&t, &labels, &[0, 1], &cfg, &par);
        let b = mine_itemsets_with(&t, &labels, &[0, 1], &cfg, &par);
        assert_eq!(a.positive, b.positive, "case {case}");
        assert_eq!(a.negative, b.negative, "case {case}");
    }
}
