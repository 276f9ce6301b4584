//! Integration of mining + labeling functions + label models over
//! world-generated data (crates: orgsim, mining, labelmodel).

use cross_modal::labelmodel::{evaluate_lfs, majority_vote, AnchoredModel, LabelMatrix, Vote};
use cross_modal::mining::{mine_lfs, MiningConfig};
use cross_modal::prelude::*;

fn corpus(seed: u64) -> (World, ModalityDataset, ModalityDataset) {
    let task = TaskConfig::paper(TaskId::Ct2).scaled(0.05);
    let world = World::build(WorldConfig::new(task.clone(), seed));
    let text = world.generate(ModalityKind::Text, task.n_text_labeled, 1);
    let pool = world.generate(ModalityKind::Image, task.n_image_unlabeled, 2);
    (world, text, pool)
}

fn mined_lfs(
    world: &World,
    text: &ModalityDataset,
) -> Vec<Box<dyn cross_modal::labelmodel::LabelingFunction>> {
    let columns = world.schema().columns_in_sets(&FeatureSet::SHARED, false);
    mine_lfs(
        &text.table,
        &text.labels,
        &columns,
        &MiningConfig { min_precision: 0.6, ..MiningConfig::default() },
        40,
        20,
    )
    .lfs
}

#[test]
fn mined_lfs_hold_precision_on_dev() {
    let (world, text, _) = corpus(3);
    let lfs = mined_lfs(&world, &text);
    assert!(lfs.len() >= 5, "only {} LFs mined", lfs.len());
    let summary = evaluate_lfs(&text.table, &text.labels, &lfs);
    assert!(summary.pooled_precision > 0.5, "pooled precision {}", summary.pooled_precision);
    assert!(summary.pooled_recall > 0.3, "pooled recall {}", summary.pooled_recall);
    assert!(summary.overall_coverage > 0.3);
}

#[test]
fn lfs_transfer_across_the_modality_gap() {
    // The paper's central mechanism: LFs defined over the common feature
    // space apply unchanged to the new modality and remain much better
    // than chance there.
    let (world, text, pool) = corpus(5);
    let lfs = mined_lfs(&world, &text);
    let matrix = LabelMatrix::apply_with(&pool.table, &lfs, &ParConfig::from_env());
    let mut tp = 0usize;
    let mut fp = 0usize;
    for (r, label) in pool.labels.iter().enumerate() {
        let fired_pos = matrix.row(r).iter().zip(&lfs).any(|(&v, _)| v > 0);
        if fired_pos {
            if label.is_positive() {
                tp += 1;
            } else {
                fp += 1;
            }
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let rate = pool.positive_rate();
    assert!(
        precision > rate * 3.0,
        "image-side pooled precision {precision:.3} vs base rate {rate:.3}"
    );
}

#[test]
fn anchored_model_ranks_better_than_majority_vote() {
    let par = ParConfig::from_env();
    let (world, text, pool) = corpus(7);
    let lfs = mined_lfs(&world, &text);
    let dev = LabelMatrix::apply_with(&text.table, &lfs, &par);
    let target = LabelMatrix::apply_with(&pool.table, &lfs, &par);
    let truth: Vec<bool> = pool.labels.iter().map(|l| l.is_positive()).collect();

    let anchored = AnchoredModel::fit(&dev, &text.labels, None).predict(&target);
    let mv = majority_vote(&target);
    let ap_anchored = auprc(&anchored, &truth);
    let ap_mv = auprc(&mv, &truth);
    assert!(
        ap_anchored >= ap_mv,
        "anchored {ap_anchored:.3} must not lose to majority vote {ap_mv:.3}"
    );
    assert!(ap_anchored > pool.positive_rate() * 2.0);
}

#[test]
fn expert_lfs_are_broad_but_less_precise_than_mined() {
    // §6.7.1's qualitative claim at integration level: the hand-written
    // suite recalls more (broad watchlist rules) while the mined suite is
    // more precise — the paper's +14.3% precision / -9.6% recall for
    // mining.
    let (world, text, _) = corpus(9);
    let expert = expert_lfs(world.schema()).unwrap();
    let mined = mined_lfs(&world, &text);
    let e = evaluate_lfs(&text.table, &text.labels, &expert);
    let m = evaluate_lfs(&text.table, &text.labels, &mined);
    let base_rate = text.positive_rate();
    assert!(
        e.pooled_precision > base_rate * 2.0,
        "expert precision {} vs base rate {base_rate}",
        e.pooled_precision
    );
    assert!(
        m.pooled_precision > e.pooled_precision,
        "mined precision {} should beat expert {}",
        m.pooled_precision,
        e.pooled_precision
    );
    assert!(
        e.pooled_recall > m.pooled_recall * 0.9,
        "expert recall {} should rival mined {}",
        e.pooled_recall,
        m.pooled_recall
    );
}

#[test]
fn vote_matrix_statistics_are_consistent() {
    let (world, text, pool) = corpus(11);
    let lfs = mined_lfs(&world, &text);
    let par = ParConfig::from_env();
    let matrix = LabelMatrix::apply_with(&pool.table, &lfs, &par);
    assert_eq!(matrix.n_rows(), pool.len());
    assert_eq!(matrix.n_lfs(), lfs.len());
    let stats = matrix.vote_stats_with(&par);
    // Coverage >= per-LF coverage for any single LF.
    for j in 0..matrix.n_lfs() {
        assert!(stats.coverage >= matrix.lf_coverage(j) - 1e-12);
    }
    // Conflict <= overlap <= coverage.
    assert!(stats.conflict <= stats.overlap + 1e-12);
    assert!(stats.overlap <= stats.coverage + 1e-12);
    // Votes round-trip the encoding.
    for r in (0..matrix.n_rows()).step_by(97) {
        for j in 0..matrix.n_lfs() {
            let v = matrix.vote(r, j);
            assert_eq!(v, Vote::from_i8(v.as_i8()));
        }
    }
}
