//! Golden-fixture regression test for the *sharded* curation driver:
//! end-to-end probabilistic labels from `curate_streamed_with` pinned bit for
//! bit, at a deliberately awkward shard size (a prime that never divides
//! the corpus evenly).
//!
//! `tests/shard_equivalence.rs` proves sharded ≡ resident within one
//! build; this fixture additionally pins the sharded output across *code
//! changes*, the same contract `tests/golden_pipeline.rs` enforces for the
//! resident driver.
//!
//! To regenerate after an *intentional* numeric change:
//! `CM_REGEN_FIXTURES=1 cargo test --test shard_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use cross_modal::json::Json;
use cross_modal::par::ParConfig;
use cross_modal::prelude::*;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/shard_labels.json")
}

fn sharded_labels() -> Vec<f64> {
    let task = TaskConfig::paper(TaskId::Ct2).scaled(0.03);
    let shard = ShardConfig::with_segment_rows(257);
    let streamed =
        curate_streamed_with(task, 11, &CurationConfig::default(), &shard, &ParConfig::from_env())
            .unwrap_or_else(|e| panic!("streamed curation failed: {e:?}"));
    streamed.output.probabilistic_labels
}

fn encode(labels: &[f64]) -> String {
    let hex: Vec<Json> = labels
        .iter()
        .map(|l| {
            let mut s = String::with_capacity(16);
            let _ = write!(s, "{:016x}", l.to_bits());
            Json::Str(s)
        })
        .collect();
    Json::obj([
        ("task", Json::Str("ct2_scaled_0.03_seed11_shard257".to_owned())),
        ("encoding", Json::Str("f64-bits-hex".to_owned())),
        ("labels", Json::Arr(hex)),
    ])
    .to_string_pretty()
}

fn decode(text: &str) -> Vec<f64> {
    let json = Json::parse(text).unwrap_or_else(|e| panic!("fixture is not valid JSON: {e:?}"));
    let arr = json
        .get("labels")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("fixture has no labels array"));
    arr.iter()
        .map(|v| {
            let hex = v.as_str().unwrap_or_else(|| panic!("label is not a hex string"));
            let bits =
                u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("bad hex {hex:?}: {e}"));
            f64::from_bits(bits)
        })
        .collect()
}

#[test]
fn sharded_labels_match_golden_fixture() {
    let labels = sharded_labels();
    let path = fixture_path();
    if std::env::var_os("CM_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, encode(&labels))
            .unwrap_or_else(|e| panic!("cannot write fixture: {e}"));
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run CM_REGEN_FIXTURES=1 cargo test --test \
             shard_golden to create it",
            path.display()
        )
    });
    let golden = decode(&text);
    assert_eq!(labels.len(), golden.len(), "label count drifted");
    let mut mismatches = 0usize;
    for (i, (got, want)) in labels.iter().zip(&golden).enumerate() {
        if got.to_bits() != want.to_bits() {
            if mismatches < 5 {
                eprintln!(
                    "label {i}: got {got:?} ({:016x}), want {want:?} ({:016x})",
                    got.to_bits(),
                    want.to_bits()
                );
            }
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches}/{} sharded labels drifted from the golden fixture; if the numeric change \
         is intentional, regenerate with CM_REGEN_FIXTURES=1",
        golden.len()
    );
}
