//! Production operations around the pipeline (paper §7): feature-set
//! attribution, active-learning review, and live-metric estimation from
//! sampled reviews.
//!
//! ```sh
//! cargo run --release --example production_monitoring
//! ```

use cross_modal::eval::estimate_live_metrics;
use cross_modal::pipeline::{
    apply_review, feature_set_attribution, select_for_review, ReviewStrategy,
};
use cross_modal::prelude::*;

fn main() {
    let par = ParConfig::from_env();
    let task = TaskConfig::paper(TaskId::Ct1).scaled(0.1);
    let data = TaskData::generate(task, 5, None);
    let mut curation = curate(&data, &CurationConfig::default());
    let model = ModelKind::Mlp { hidden: vec![32] };
    let train = TrainConfig { epochs: 15, patience: None, ..TrainConfig::default() };

    // --- §7.1: which organizational resources carry this task? ---
    println!("feature-set attribution (mask-based, §7.1):");
    let scenario = Scenario::cross_modal(&FeatureSet::SHARED);
    for a in
        feature_set_attribution(&data, &scenario, Some(&curation), &model, &train, &par).unwrap()
    {
        println!(
            "  set {:?}: full AUPRC {:.4}, masked {:.4} -> contribution {:+.4}",
            a.set, a.full_auprc, a.masked_auprc, a.contribution
        );
    }

    // --- §6.4/§7.2: spend a small review budget where it matters ---
    let picks = select_for_review(&curation, ReviewStrategy::DisagreementFirst, 60, 7);
    println!("\nactive review: sending {} pool posts to human review", picks.len());
    let before = curation.ws_quality;
    // Our "reviewers" are the simulator's ground truth.
    let reviews: Vec<(usize, Label)> = picks.iter().map(|&r| (r, data.pool.labels[r])).collect();
    apply_review(&mut curation, reviews);
    let runner = ScenarioRunner { data: &data, model: model.clone(), train: train.clone() };
    let eval = runner.run(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation)).unwrap();
    println!(
        "  weak-label F1 before review: {:.3}; cross-modal AUPRC after folding reviews in: {:.4}",
        before.f1, eval.auprc
    );

    // --- §7.4: estimate live precision/recall from a sampled review ---
    // Deploy the model over a fresh traffic sample and estimate its live
    // metrics with a 300-review budget (random + importance sampling).
    let live = data.world.generate(ModalityKind::Image, 3_000, 99);
    let view = cross_modal::pipeline::DenseView::fit(
        &[&data.text.table, &data.pool.table],
        data.world.schema().columns_in_sets(&FeatureSet::SHARED, true),
    )
    .unwrap();
    let scores = {
        use cross_modal::fusion::{concat_parts, ModalityData};
        use cross_modal::models::train_model;
        let parts = [
            ModalityData::new(view.encode(&data.text.table), data.text.labels_f64()),
            ModalityData::new(view.encode(&data.pool.table), curation.probabilistic_labels.clone()),
        ];
        let (x, y) = concat_parts(&parts);
        let fused = train_model(&model, &x, &y, None, &train, None, &par);
        fused.predict_proba(&view.encode(&live.table), &par)
    };
    let est = estimate_live_metrics(&scores, 0.5, 300, 11, |i| live.labels[i].is_positive())
        .expect("live stream is nonempty");
    // Compare against the (normally unknowable) exact numbers.
    let truth: Vec<bool> = live.labels.iter().map(|l| l.is_positive()).collect();
    let exact = cross_modal::eval::BinaryMetrics::at_threshold(&scores, &truth, 0.5);
    println!(
        "\nlive monitoring (300 reviews over 3000 posts):\n  estimated precision {:.3} (exact {:.3}), recall {:.3} (exact {:.3})",
        est.precision, exact.precision, est.recall, exact.recall
    );
}
