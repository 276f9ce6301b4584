//! End-to-end integration: the three pipeline steps composed over the
//! synthetic organizational world, across crate boundaries.

use cross_modal::prelude::*;

fn small_data(id: TaskId, seed: u64) -> TaskData {
    TaskData::generate(TaskConfig::paper(id).scaled(0.04), seed, Some(600))
}

fn fast_runner(data: &TaskData) -> ScenarioRunner<'_> {
    ScenarioRunner {
        data,
        model: ModelKind::Logistic,
        train: TrainConfig { epochs: 8, ..TrainConfig::default() },
    }
}

#[test]
fn full_pipeline_produces_meaningful_model() {
    let data = small_data(TaskId::Ct2, 5);
    let curation = curate(&data, &CurationConfig::default());
    // Curation quality floor: the easy task must be labelable.
    assert!(curation.ws_quality.f1 > 0.3, "{:?}", curation.ws_quality);
    assert!(curation.ws_quality.coverage > 0.3);

    let runner = fast_runner(&data);
    let eval = runner.run(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation)).unwrap();
    // A cross-modal model trained with zero image labels must clearly beat
    // random ranking (random AUPRC = positive rate ~= 0.09).
    assert!(eval.auprc > 0.3, "cross-modal AUPRC {} is too close to chance", eval.auprc);
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let data = small_data(TaskId::Ct1, seed);
        let curation = curate(&data, &CurationConfig::default());
        let runner = fast_runner(&data);
        let eval =
            runner.run(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation)).unwrap();
        (curation.probabilistic_labels, eval.auprc)
    };
    let (labels_a, auprc_a) = run(9);
    let (labels_b, auprc_b) = run(9);
    assert_eq!(labels_a, labels_b, "curation must be deterministic");
    assert_eq!(auprc_a, auprc_b, "training must be deterministic");
    let (_, auprc_c) = run(10);
    assert_ne!(auprc_a, auprc_c, "different seeds must differ");
}

#[test]
fn curation_labels_align_with_pool() {
    let data = small_data(TaskId::Ct2, 7);
    let curation = curate(&data, &CurationConfig::default());
    assert_eq!(curation.probabilistic_labels.len(), data.pool.len());
    assert_eq!(curation.covered.len(), data.pool.len());
    for (&q, &cov) in curation.probabilistic_labels.iter().zip(&curation.covered) {
        assert!((0.0..=1.0).contains(&q));
        if !cov && !curation.lf_names.is_empty() {
            // Uncovered rows sit near the prior, i.e. clearly below 0.5 in
            // these imbalanced tasks.
            assert!(q < 0.5, "uncovered row with q = {q}");
        }
    }
}

#[test]
fn fully_supervised_scenario_scales_with_labels() {
    let data = small_data(TaskId::Ct2, 11);
    let runner = fast_runner(&data);
    let sets = FeatureSet::SHARED;
    let small = runner.run(&Scenario::fully_supervised(&sets, 80), None).unwrap();
    let large = runner.run(&Scenario::fully_supervised(&sets, 600), None).unwrap();
    assert_eq!(small.n_train_rows, 80);
    assert_eq!(large.n_train_rows, 600);
    // More supervision should not make things dramatically worse.
    assert!(large.auprc > small.auprc * 0.8, "{} vs {}", large.auprc, small.auprc);
}

#[test]
fn relative_auprc_uses_baseline() {
    let data = small_data(TaskId::Ct2, 13);
    let curation = curate(&data, &CurationConfig::default());
    let runner = fast_runner(&data);
    let baseline = runner.baseline_auprc(&ParConfig::from_env()).unwrap();
    assert!(baseline > 0.0);
    let eval = runner
        .run_relative(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation), baseline)
        .unwrap();
    let rel = eval.relative_auprc.unwrap();
    assert!((rel - eval.auprc / baseline).abs() < 1e-12);
}

#[test]
fn video_modality_flows_through_the_pipeline() {
    // The paper's motivating example is video; make sure nothing in the
    // pipeline is image-specific.
    let task = TaskConfig::paper(TaskId::Ct2).scaled(0.04);
    let world = World::build(WorldConfig::new(task.clone(), 21));
    let data = TaskData {
        text: world.generate(ModalityKind::Text, task.n_text_labeled, 1),
        pool: world.generate(ModalityKind::Video, task.n_image_unlabeled, 2),
        test: world.generate(ModalityKind::Video, task.n_image_test, 3),
        labeled_image: world.generate(ModalityKind::Video, 400, 4),
        world,
        fault_summary: None,
    };
    let curation = curate(&data, &CurationConfig::default());
    assert!(curation.ws_quality.coverage > 0.2);
    let runner = fast_runner(&data);
    let eval = runner.run(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation)).unwrap();
    assert!(eval.auprc > 0.2, "video cross-modal AUPRC {}", eval.auprc);
}
