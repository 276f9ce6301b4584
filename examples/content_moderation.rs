//! The paper's running example: a content-moderation team whose
//! application adds **video** posts. Text (old, labeled) adapts to video
//! (new, unlabeled) through the common feature space — the same pipeline,
//! third modality.
//!
//! ```sh
//! cargo run --release --example content_moderation
//! ```

use cross_modal::prelude::*;

fn main() {
    let par = ParConfig::from_env();
    // The moderation task: flag policy-violating posts. Video is richer
    // and shiftier than image (frame splitting loses more signal), which
    // the world's video observation channel models.
    let task = TaskConfig::paper(TaskId::Ct1).scaled(0.08);
    let world = World::build(WorldConfig::new(task.clone(), 7));

    println!("content moderation: adapting the text task to VIDEO posts\n");
    let text = world.generate(ModalityKind::Text, task.n_text_labeled, 1);
    let video_pool = world.generate(ModalityKind::Video, task.n_image_unlabeled, 2);
    let video_test = world.generate(ModalityKind::Video, task.n_image_test.max(1500), 3);
    let video_labeled = world.generate(ModalityKind::Video, 2_000, 4);
    println!(
        "corpus: {} labeled text posts; {} unlabeled / {} test video posts",
        text.len(),
        video_pool.len(),
        video_test.len()
    );

    // Assemble the pipeline's data bundle with video as the new modality.
    // (TaskData's fields are public precisely so other modality pairs can
    // be wired up.)
    let data = TaskData {
        world,
        text,
        pool: video_pool,
        test: video_test,
        labeled_image: video_labeled,
        fault_summary: None,
    };

    let curation = curate(&data, &CurationConfig::default());
    println!(
        "\nweak supervision over video: {} LFs, coverage {:.1}%, F1 {:.2}",
        curation.lf_names.len(),
        curation.ws_quality.coverage * 100.0,
        curation.ws_quality.f1
    );

    let runner = ScenarioRunner {
        data: &data,
        model: ModelKind::Mlp { hidden: vec![32] },
        train: TrainConfig { epochs: 20, patience: None, ..TrainConfig::default() },
    };
    let baseline = runner.baseline_auprc(&par).unwrap();
    let sets = FeatureSet::SHARED;
    let cross =
        runner.run_relative(&Scenario::cross_modal(&sets), Some(&curation), baseline).unwrap();
    let text_only = runner.run_relative(&Scenario::text_only(&sets), None, baseline).unwrap();
    println!("\nembedding baseline AUPRC: {baseline:.4}");
    println!(
        "text model applied to video:  AUPRC {:.4} ({:.2}x)",
        text_only.auprc,
        text_only.relative_auprc.unwrap_or(0.0)
    );
    println!(
        "cross-modal moderation model: AUPRC {:.4} ({:.2}x)",
        cross.auprc,
        cross.relative_auprc.unwrap_or(0.0)
    );

    // Moderate a batch of incoming posts, as the deployed model would.
    let incoming = data.world.generate(ModalityKind::Video, 8, 99);
    let view = cm_pipeline::DenseView::fit(
        &[&data.text.table, &data.pool.table],
        data.world.schema().columns_in_sets(&sets, true),
    )
    .unwrap();
    let x = view.encode(&incoming.table);
    // Retrain a production copy on everything (text + weak video labels).
    let eval_model = {
        use cross_modal::fusion::{concat_parts, ModalityData};
        use cross_modal::models::train_model;
        let xt = view.encode(&data.text.table);
        let xv = view.encode(&data.pool.table);
        let parts = [
            ModalityData::new(xt, data.text.labels_f64()),
            ModalityData::new(xv, curation.probabilistic_labels.clone()),
        ];
        let (x, y) = concat_parts(&parts);
        train_model(
            &ModelKind::Mlp { hidden: vec![32] },
            &x,
            &y,
            None,
            &TrainConfig { epochs: 20, patience: None, ..TrainConfig::default() },
            None,
            &par,
        )
    };
    println!("\nincoming video posts:");
    for (i, p) in eval_model.predict_proba(&x, &par).iter().enumerate() {
        let verdict = if *p > 0.5 { "FLAG for review" } else { "allow" };
        let truth = if incoming.labels[i].is_positive() { "(violating)" } else { "(benign)" };
        println!("  post {i}: score {p:.3} -> {verdict:<16} {truth}");
    }
}
