//! Serial ≡ parallel equivalence layer for every `cm-par`-wired hot path.
//!
//! The substrate's contract: the chunk plan depends only on input size,
//! chunk results merge in chunk index order, and the serial fallback runs
//! the identical plan inline — so 1 thread and N threads must produce
//! bit-identical outputs everywhere. Each test here exercises one wired
//! path at explicit `ParConfig` values (never `CM_THREADS`, so the tests
//! are immune to the environment they run under).

use std::sync::Arc;

use cross_modal::featurespace::{
    CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, Label, ServingMode,
    SimilarityConfig, Vocabulary,
};
use cross_modal::fusion::{concat_parts, DeViseModel, IntermediateFusionModel, ModalityData};
use cross_modal::labelmodel::{
    CategoricalContainsLf, GenerativeConfig, GenerativeModel, LabelMatrix, LabelingFunction, Vote,
};
use cross_modal::linalg::{Matrix, SparseRows};
use cross_modal::mining::{mine_itemsets_with, MiningConfig};
use cross_modal::models::logistic::{LogisticConfig, LogisticRegression};
use cross_modal::models::{train_model, ModelKind, TrainConfig};
use cross_modal::par::ParConfig;
use cross_modal::propagation::GraphBuilder;

const THREADS: [usize; 3] = [2, 4, 8];

/// A categorical table big enough to cross every parallel threshold.
fn cat_table(n: usize) -> cross_modal::featurespace::FeatureTable {
    let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
        "c",
        FeatureSet::A,
        ServingMode::Servable,
        Vocabulary::from_names(["w", "x", "y", "z"]),
    )]));
    let mut t = cross_modal::featurespace::FeatureTable::new(schema);
    for i in 0..n {
        t.push_row(&[FeatureValue::Categorical(CatSet::single((i % 4) as u32))]);
    }
    t
}

fn lfs() -> Vec<Box<dyn LabelingFunction>> {
    vec![
        Box::new(CategoricalContainsLf::new(0, vec![0], false, Vote::Positive)),
        Box::new(CategoricalContainsLf::new(0, vec![1], false, Vote::Negative)),
        Box::new(CategoricalContainsLf::new(0, vec![2], false, Vote::Positive)),
    ]
}

#[test]
fn vote_matrix_is_bit_identical() {
    let t = cat_table(30_000);
    let base = LabelMatrix::apply_with(&t, &lfs(), &ParConfig::threads(1));
    let base_stats = base.vote_stats_with(&ParConfig::threads(1));
    for threads in THREADS {
        let par = ParConfig::threads(threads);
        let m = LabelMatrix::apply_with(&t, &lfs(), &par);
        for r in 0..base.n_rows() {
            assert_eq!(m.row(r), base.row(r), "row {r}, threads = {threads}");
        }
        let stats = m.vote_stats_with(&par);
        assert_eq!(stats, base_stats, "threads = {threads}");
    }
}

#[test]
fn label_model_weights_are_bit_identical() {
    let t = cat_table(25_000);
    let m = LabelMatrix::apply_with(&t, &lfs(), &ParConfig::threads(1));
    let cfg = GenerativeConfig::default();
    let base = GenerativeModel::fit_with(&m, &cfg, &ParConfig::threads(1));
    let base_probs = base.predict_with(&m, &ParConfig::threads(1));
    for threads in THREADS {
        let par = ParConfig::threads(threads);
        let model = GenerativeModel::fit_with(&m, &cfg, &par);
        assert_eq!(model.accuracies(), base.accuracies(), "threads = {threads}");
        assert_eq!(
            model.class_prior().to_bits(),
            base.class_prior().to_bits(),
            "threads = {threads}"
        );
        assert_eq!(model.predict_with(&m, &par), base_probs, "threads = {threads}");
    }
}

#[test]
fn propagation_edge_lists_are_identical() {
    let t = cat_table(400);
    let cfg = SimilarityConfig::uniform(vec![0]);
    for builder in [GraphBuilder::exact(6), GraphBuilder::approximate(6, 400)] {
        let base = builder.build_with(&t, &cfg, 3, &ParConfig::threads(1));
        for threads in THREADS {
            let g = builder.build_with(&t, &cfg, 3, &ParConfig::threads(threads));
            assert_eq!(g, base, "threads = {threads}");
        }
    }
}

#[test]
fn logistic_weights_are_bit_identical() {
    let n = 4096;
    // Sparse rows: every 7th row stores nothing, and the third column is
    // stored on only a third of the rows.
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let cls = if i % 3 == 0 { 1.0f32 } else { -1.0 };
            let jitter = ((i * 37 % 100) as f32) / 100.0 - 0.5;
            if i % 7 == 0 {
                vec![0.0; 3]
            } else {
                vec![cls + jitter, -cls + jitter * 0.5, if i % 3 == 1 { jitter } else { 0.0 }]
            }
        })
        .collect();
    let x = SparseRows::from_dense(&Matrix::from_rows(&rows));
    assert!(x.nnz() < 3 * n, "the input must be sparse");
    let y: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
    // Batch 2048 splits into multiple 256-item gradient chunks.
    let cfg = LogisticConfig { epochs: 4, batch_size: 2048, ..Default::default() };
    let base = LogisticRegression::fit_with(&x, &y, None, &cfg, &ParConfig::threads(1));
    for threads in THREADS {
        let par = ParConfig::threads(threads);
        let model = LogisticRegression::fit_with(&x, &y, None, &cfg, &par);
        assert_eq!(model.weights(), base.weights(), "threads = {threads}");
        assert_eq!(model.bias().to_bits(), base.bias().to_bits(), "threads = {threads}");
    }
}

#[test]
fn mined_itemsets_are_identical() {
    let t = cat_table(8000);
    let labels: Vec<Label> =
        (0..8000).map(|i| if i % 4 == 0 { Label::Positive } else { Label::Negative }).collect();
    let cfg = MiningConfig::default();
    let base = mine_itemsets_with(&t, &labels, &[0], &cfg, &ParConfig::threads(1));
    for threads in THREADS {
        let mined = mine_itemsets_with(&t, &labels, &[0], &cfg, &ParConfig::threads(threads));
        assert_eq!(mined.positive, base.positive, "threads = {threads}");
        assert_eq!(mined.negative, base.negative, "threads = {threads}");
        assert_eq!(mined.n_candidates, base.n_candidates, "threads = {threads}");
    }
}

/// Two modalities in one 6-wide shared layout, `n` rows each, plus a
/// test matrix: big enough that forward passes (1,024 rows) and the
/// 512-row batches' gradient chunks (256 items) split across workers.
/// The rows are sparse: the other modality's specific column is empty,
/// small cells are empty, and one row in 97 stores nothing at all.
fn fusion_task(n: usize) -> (ModalityData, ModalityData, SparseRows) {
    let cell = |i: usize, j: usize| {
        let h = (i as u32).wrapping_mul(2654435761).wrapping_add(j as u32 * 40503) >> 16;
        let v = (h & 0xFF) as f32 / 255.0 - 0.5;
        if i % 97 == 5 || v.abs() < 0.2 {
            0.0
        } else {
            v
        }
    };
    let part = |offset: usize, specific: usize| {
        let x = Matrix::from_fn(n, 6, |r, c| {
            let v = cell(offset + r, c);
            if c == 2 + (1 - specific) {
                0.0
            } else {
                v
            }
        });
        let y: Vec<f64> = (0..n)
            .map(|r| if x[(r, 0)] + x[(r, 2 + specific)] > 0.1 { 0.9 } else { 0.1 })
            .collect();
        let x = SparseRows::from_dense(&x);
        assert!((0..n).any(|r| x.row(r).0.is_empty()), "a row with no stored entries");
        ModalityData::new(x, y)
    };
    let test = SparseRows::from_dense(&Matrix::from_fn(n, 6, |r, c| cell(7 * n + r, c)));
    (part(0, 0), part(3 * n, 1), test)
}

fn fusion_config() -> TrainConfig {
    TrainConfig { epochs: 3, batch_size: 512, patience: Some(2), seed: 5, ..TrainConfig::default() }
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn mlp_early_fusion_is_bit_identical() {
    let (old, new, test) = fusion_task(1200);
    let (x, y) = concat_parts(&[old, new]);
    let kind = ModelKind::Mlp { hidden: vec![16, 8] };
    let run = |par: &ParConfig| {
        let model =
            train_model(&kind, &x, &y, None, &fusion_config(), Some((&test, &y[..1200])), par);
        (bits(&model.predict_proba(&test, par)), model.embed(&test, par))
    };
    let (base, base_embed) = run(&ParConfig::threads(1));
    for threads in THREADS {
        let (probs, embed) = run(&ParConfig::threads(threads));
        assert_eq!(probs, base, "threads = {threads}");
        assert_eq!(embed.as_slice(), base_embed.as_slice(), "threads = {threads}");
    }
}

#[test]
fn intermediate_fusion_is_bit_identical() {
    let (old, new, test) = fusion_task(1200);
    let kind = ModelKind::Mlp { hidden: vec![8] };
    let run = |par: &ParConfig| {
        let parts = [old.clone(), new.clone()];
        let model = IntermediateFusionModel::train(&parts, &kind, &fusion_config(), None, par);
        bits(&model.predict_proba(&test, par))
    };
    let base = run(&ParConfig::threads(1));
    for threads in THREADS {
        assert_eq!(run(&ParConfig::threads(threads)), base, "threads = {threads}");
    }
}

#[test]
fn devise_fusion_is_bit_identical() {
    let (old, new, test) = fusion_task(1200);
    let kind = ModelKind::Mlp { hidden: vec![8] };
    let run = |par: &ParConfig| {
        let model = DeViseModel::train(&old, &new, &kind, &fusion_config(), par);
        bits(&model.predict_proba(&test, par))
    };
    let base = run(&ParConfig::threads(1));
    for threads in THREADS {
        assert_eq!(run(&ParConfig::threads(threads)), base, "threads = {threads}");
    }
}
