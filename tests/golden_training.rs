//! Golden-fixture regression test for training: every fusion strategy ×
//! model family on a small CT1 task, pinned bit for bit.
//!
//! Each cell runs `ScenarioRunner::run` on a Figure-6-style ladder step
//! (text on sets A and B, image on set A, modality-specific features on),
//! so the image parts are masked, and pins the bits of its test-set AUPRC.
//! It also replays the runner's training path through the public layers
//! (fit the view, encode and mask the parts, train, predict) and pins an
//! FNV-1a digest of the test-set probabilities; the replay's AUPRC must
//! equal the runner's bit for bit, so the digest is of the probabilities
//! the runner scored. Every matrix type is inferred from the layers'
//! signatures, so the test reads the same whatever type the encoder emits.
//!
//! To regenerate after an *intentional* numeric change:
//! `CM_REGEN_FIXTURES=1 cargo test --test golden_training`.

use std::fmt::Write as _;
use std::path::PathBuf;

use cross_modal::fusion::{concat_parts, DeViseModel, IntermediateFusionModel, ModalityData};
use cross_modal::json::Json;
use cross_modal::models::train_model;
use cross_modal::pipeline::{mask_disallowed_sets, DenseView};
use cross_modal::prelude::*;

const SEED: u64 = 23;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_training.json")
}

fn task_data() -> TaskData {
    let task = TaskConfig {
        n_text_labeled: 400,
        n_image_unlabeled: 300,
        n_image_test: 200,
        ..TaskConfig::paper(TaskId::Ct1)
    };
    TaskData::generate(task, SEED, Some(100))
}

fn train_config() -> TrainConfig {
    TrainConfig { epochs: 3, patience: None, seed: SEED, ..TrainConfig::default() }
}

const TEXT_SETS: [FeatureSet; 2] = [FeatureSet::A, FeatureSet::B];
const IMAGE_SETS: [FeatureSet; 1] = [FeatureSet::A];

fn scenario(strategy: FusionStrategy) -> Scenario {
    Scenario {
        name: "golden T+AB, I+A".to_owned(),
        text_sets: TEXT_SETS.to_vec(),
        image_sets: IMAGE_SETS.to_vec(),
        image_labels: Some(LabelSource::Weak),
        include_modality_specific: true,
        strategy,
    }
}

fn cells() -> Vec<(&'static str, FusionStrategy, &'static str, ModelKind)> {
    let mut out = Vec::new();
    for (sname, strategy) in [
        ("early", FusionStrategy::Early),
        ("intermediate", FusionStrategy::Intermediate),
        ("devise", FusionStrategy::DeVise),
    ] {
        out.push((sname, strategy, "mlp", ModelKind::Mlp { hidden: vec![8] }));
        out.push((sname, strategy, "logistic", ModelKind::Logistic));
    }
    out
}

fn fnv1a(probs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in probs {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The runner's training path for [`scenario`], returning the test-set
/// probabilities.
fn replay_probs(
    data: &TaskData,
    curation: &CurationOutput,
    strategy: FusionStrategy,
    kind: &ModelKind,
    par: &ParConfig,
) -> Vec<f64> {
    let schema = data.world.schema();
    let columns = schema.columns_in_sets(&TEXT_SETS, true);
    let allowed_text = [&TEXT_SETS[..], &[FeatureSet::ModalitySpecific]].concat();
    let allowed_image = [&IMAGE_SETS[..], &[FeatureSet::ModalitySpecific]].concat();
    let view =
        DenseView::fit(&[&data.text.table, &data.pool.table, &data.labeled_image.table], columns)
            .unwrap_or_else(|e| panic!("dense view: {e}"));
    let encode = |table: &FeatureTable, allowed: &[FeatureSet]| {
        let mut x = view.encode(table);
        mask_disallowed_sets(&mut x, &view, schema, allowed);
        x
    };
    let parts = [
        ModalityData::new(encode(&data.text.table, &allowed_text), data.text.labels_f64()),
        ModalityData::new(
            encode(&data.pool.table, &allowed_image),
            curation.probabilistic_labels.clone(),
        ),
    ];
    let xt = encode(&data.test.table, &allowed_image);
    let cfg = train_config();
    match strategy {
        FusionStrategy::Early => {
            let (x, y) = concat_parts(&parts);
            train_model(kind, &x, &y, None, &cfg, None, par).predict_proba(&xt, par)
        }
        FusionStrategy::Intermediate => {
            IntermediateFusionModel::train(&parts, kind, &cfg, None, par).predict_proba(&xt, par)
        }
        FusionStrategy::DeVise => {
            DeViseModel::train(&parts[0], &parts[1], kind, &cfg, par).predict_proba(&xt, par)
        }
    }
}

/// `(cell name, probability digest, AUPRC bits)` per cell.
fn golden_cells() -> Vec<(String, u64, u64)> {
    let data = task_data();
    let curation =
        curate(&data, &CurationConfig { use_label_propagation: false, ..Default::default() });
    let par = ParConfig::from_env();
    let truth: Vec<bool> = data.test.labels.iter().map(|l| l.is_positive()).collect();
    cells()
        .into_iter()
        .map(|(sname, strategy, kname, kind)| {
            let name = format!("{sname}/{kname}");
            let runner = ScenarioRunner { data: &data, model: kind.clone(), train: train_config() };
            let eval = runner
                .run(&scenario(strategy), Some(&curation))
                .unwrap_or_else(|e| panic!("{name}: ScenarioRunner::run failed: {e}"));
            let probs = replay_probs(&data, &curation, strategy, &kind, &par);
            assert_eq!(probs.len(), data.test.len(), "{name}: one probability per test row");
            assert_eq!(
                auprc(&probs, &truth).to_bits(),
                eval.auprc.to_bits(),
                "{name}: the replay must score exactly what ScenarioRunner::run scored"
            );
            (name, fnv1a(&probs), eval.auprc.to_bits())
        })
        .collect()
}

fn hex(v: u64) -> Json {
    let mut s = String::with_capacity(16);
    let _ = write!(s, "{v:016x}");
    Json::Str(s)
}

fn encode(cells: &[(String, u64, u64)]) -> String {
    let rows = cells
        .iter()
        .map(|(name, digest, auprc)| {
            Json::obj([
                ("cell", Json::Str(name.clone())),
                ("probs_fnv1a64", hex(*digest)),
                ("auprc_f64_bits", hex(*auprc)),
            ])
        })
        .collect();
    Json::obj([
        ("task", Json::Str("ct1_text400_pool300_test200_image100_seed23_epochs3".to_owned())),
        (
            "scenario",
            Json::Str("T+AB, I+A, modality-specific on, weak labels, no propagation".to_owned()),
        ),
        ("cells", Json::Arr(rows)),
    ])
    .to_string_pretty()
}

fn decode(text: &str) -> Vec<(String, u64, u64)> {
    let json = Json::parse(text).unwrap_or_else(|e| panic!("fixture is not valid JSON: {e:?}"));
    let cells =
        json.get("cells").and_then(Json::as_arr).unwrap_or_else(|| panic!("fixture has no cells"));
    let field = |cell: &Json, key: &str| -> String {
        cell.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("cell lacks string field {key:?}"))
            .to_owned()
    };
    let bits = |s: String| u64::from_str_radix(&s, 16).unwrap_or_else(|e| panic!("{s:?}: {e}"));
    cells
        .iter()
        .map(|c| {
            (field(c, "cell"), bits(field(c, "probs_fnv1a64")), bits(field(c, "auprc_f64_bits")))
        })
        .collect()
}

#[test]
fn trained_model_probabilities_match_golden_fixture() {
    let cells = golden_cells();
    let path = fixture_path();
    if std::env::var_os("CM_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, encode(&cells))
            .unwrap_or_else(|e| panic!("cannot write fixture: {e}"));
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run CM_REGEN_FIXTURES=1 cargo test --test \
             golden_training to create it",
            path.display()
        )
    });
    let golden = decode(&text);
    assert_eq!(cells.len(), golden.len(), "cell count drifted");
    let drifted: Vec<&str> = cells
        .iter()
        .zip(&golden)
        .filter(|(got, want)| got != want)
        .map(|(got, _)| got.0.as_str())
        .collect();
    assert!(
        drifted.is_empty(),
        "trained-model outputs drifted from the golden fixture in cells {drifted:?}; if the \
         numeric change is intentional, regenerate with CM_REGEN_FIXTURES=1"
    );
}
