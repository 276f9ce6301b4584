//! A close look at step B: automatic labeling-function generation (§4.3)
//! and the label models that combine their votes.
//!
//! ```sh
//! cargo run --release --example auto_labeling
//! ```

use cross_modal::labelmodel::{
    evaluate_lfs, majority_vote, AnchoredModel, GenerativeConfig, GenerativeModel, LabelMatrix,
};
use cross_modal::mining::{mine_lfs, MiningConfig};
use cross_modal::prelude::*;

fn main() {
    let par = ParConfig::from_env();
    let task = TaskConfig::paper(TaskId::Ct2).scaled(0.1);
    let world = World::build(WorldConfig::new(task.clone(), 3));
    let text = world.generate(ModalityKind::Text, task.n_text_labeled, 1);
    let pool = world.generate(ModalityKind::Image, task.n_image_unlabeled, 2);

    // Mine LFs from the labeled text corpus.
    let columns = world.schema().columns_in_sets(&FeatureSet::SHARED, false);
    let mined = mine_lfs(
        &text.table,
        &text.labels,
        &columns,
        &MiningConfig { min_precision: 0.65, ..MiningConfig::default() },
        15,
        10,
    );
    println!(
        "mined {} LFs from {} candidates in {:?} ({} positive itemsets, {} negative)",
        mined.report.n_lfs,
        mined.report.n_candidates,
        mined.report.mining_time,
        mined.report.n_positive_itemsets,
        mined.report.n_negative_itemsets,
    );

    // Inspect them against the dev corpus, as an engineer would before
    // deploying (§4.2: old-modality labels are the dev set).
    let summary = evaluate_lfs(&text.table, &text.labels, &mined.lfs);
    println!("\n{:<34} {:>9} {:>10} {:>8}", "LF", "coverage", "precision", "recall");
    for rep in summary.reports.iter().take(12) {
        println!(
            "{:<34} {:>8.1}% {:>10} {:>7.1}%",
            truncate(&rep.name, 34),
            rep.coverage * 100.0,
            rep.positive_precision.map_or_else(|| "-".into(), |p| format!("{:.1}%", p * 100.0)),
            rep.positive_recall * 100.0,
        );
    }
    println!(
        "pooled: precision {:.2}, recall {:.2}, F1 {:.2}, coverage {:.1}%",
        summary.pooled_precision,
        summary.pooled_recall,
        summary.pooled_f1,
        summary.overall_coverage * 100.0
    );

    // Apply to the unlabeled image pool and compare the three label models.
    let dev_matrix = LabelMatrix::apply_with(&text.table, &mined.lfs, &par);
    let pool_matrix = LabelMatrix::apply_with(&pool.table, &mined.lfs, &par);
    let stats = pool_matrix.vote_stats_with(&par);
    println!(
        "\npool label matrix: coverage {:.1}%, overlap {:.1}%, conflict {:.1}%",
        stats.coverage * 100.0,
        stats.overlap * 100.0,
        stats.conflict * 100.0
    );

    let truth: Vec<bool> = pool.labels.iter().map(|l| l.is_positive()).collect();
    let score = |name: &str, probs: &[f64]| {
        println!("{name:<22} AUPRC of probabilistic labels: {:.4}", auprc(probs, &truth));
    };
    let anchored = AnchoredModel::fit(&dev_matrix, &text.labels, Some(task.profile.positive_rate));
    score("anchored (dev rates)", &anchored.predict(&pool_matrix));
    let em = GenerativeModel::fit_with(&pool_matrix, &GenerativeConfig::default(), &par);
    score("EM generative", &em.predict_with(&pool_matrix, &par));
    score("majority vote", &majority_vote(&pool_matrix));
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}
