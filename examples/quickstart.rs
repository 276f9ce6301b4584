//! Quickstart: the full cross-modal adaptation pipeline on a small task.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the paper's three steps end to end: feature generation (the
//! synthetic world plays the organization), training-data curation
//! (automatic LFs + label propagation + label model), and multi-modal
//! model training — then compares the cross-modal model against the
//! alternatives on the held-out image test set.

use cross_modal::prelude::*;

fn main() {
    let par = ParConfig::from_env();
    // 1. Feature generation. The world stands in for the organization:
    //    fifteen shared services across feature sets A-D plus
    //    modality-specific features, applied to a labeled text corpus, an
    //    unlabeled image pool, and a labeled image test set.
    let task = TaskConfig::paper(TaskId::Ct1).scaled(0.1);
    println!(
        "task {:?}: {} labeled text, {} unlabeled image, {} test (positive rate {:.1}%)",
        task.id,
        task.n_text_labeled,
        task.n_image_unlabeled,
        task.n_image_test,
        task.profile.positive_rate * 100.0
    );
    let data = TaskData::generate(task, 42, None);

    // 2. Training-data curation: mine LFs from the text corpus, add a
    //    label-propagation LF, combine votes with the dev-anchored label
    //    model.
    let curation = curate(&data, &CurationConfig::default());
    println!(
        "\ncuration: {} LFs, coverage {:.1}%, weak-label P/R/F1 = {:.2}/{:.2}/{:.2}",
        curation.lf_names.len(),
        curation.ws_quality.coverage * 100.0,
        curation.ws_quality.precision,
        curation.ws_quality.recall,
        curation.ws_quality.f1,
    );
    println!(
        "  mined in {:.0?}, propagation {:.1?}",
        curation.mining_time,
        curation.propagation_time.unwrap_or_default()
    );

    // 3. Model training: early fusion over both modalities, compared with
    //    single-modality models and the embedding baseline.
    let runner = ScenarioRunner {
        data: &data,
        model: ModelKind::Mlp { hidden: vec![32] },
        train: TrainConfig { epochs: 20, patience: None, ..TrainConfig::default() },
    };
    let baseline = runner.baseline_auprc(&par).unwrap();
    println!("\nbaseline (pre-trained image embeddings, fully supervised): AUPRC {baseline:.4}");

    let sets = FeatureSet::SHARED;
    for scenario in
        [Scenario::text_only(&sets), Scenario::image_only(&sets), Scenario::cross_modal(&sets)]
    {
        let eval = runner.run_relative(&scenario, Some(&curation), baseline).unwrap();
        println!(
            "{:<28} AUPRC {:.4}  ({} baseline)",
            eval.scenario,
            eval.auprc,
            eval.relative_auprc.map_or_else(|| "?x".into(), |r| format!("{r:.2}x")),
        );
    }
    println!("\nThe cross-modal model was trained with ZERO hand-labeled images.");
}
