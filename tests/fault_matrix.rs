//! Fault-matrix tier: the pipeline under every injected fault mode.
//!
//! Each grid cell generates a task through a fault-injecting access layer
//! (`CM_FAULTS`-style plan) and runs curation end to end. The contract:
//!
//! * no panics and no poisoned outputs — every probabilistic label stays
//!   finite and in `[0, 1]` under every fault mode and under the mixed
//!   storm;
//! * the `DegradationReport` is populated (fault seed, per-service stats,
//!   per-LF abstain telemetry);
//! * identical fault seeds reproduce bit-identical labels;
//! * the storm scenario's labels are pinned as f64 bit patterns in
//!   `tests/fixtures/fault_labels.json`. `scripts/ci.sh` runs this suite
//!   at `CM_THREADS=1`, `2`, and `4`, so the pinned fixture also proves
//!   thread-count invariance of a faulted run.
//!
//! To regenerate after an *intentional* numeric change:
//! `CM_REGEN_FIXTURES=1 cargo test --test fault_matrix`.

use std::fmt::Write as _;
use std::path::PathBuf;

use cross_modal::json::Json;
use cross_modal::labelmodel::{CategoricalContainsLf, LabelingFunction, Vote};
use cross_modal::mining::MiningConfig;
use cross_modal::prelude::*;

/// The mixed-storm plan: every fault mode at once.
const STORM: &str = "seed=7;topics=unavailable@0.5;keywords=transient(2)@0.6;\
                     page_quality=latency(300)@0.5;user_reports=corrupt@0.4;\
                     kg_entities=stale;sentiment=unavailable@0.9";

fn task() -> TaskConfig {
    TaskConfig::paper(TaskId::Ct2).scaled(0.02)
}

fn fast_config() -> CurationConfig {
    CurationConfig {
        use_label_propagation: false,
        mining: MiningConfig { min_recall: 0.05, ..Default::default() },
        ..Default::default()
    }
}

fn run_plan(spec: &str) -> (TaskData, CurationOutput) {
    let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("bad plan {spec:?}: {e}"));
    let data =
        TaskData::generate_with_faults(task(), 11, Some(200), &plan, AccessPolicy::default())
            .unwrap_or_else(|e| panic!("generation under {spec:?} failed: {e}"));
    let curation = curate(&data, &fast_config());
    (data, curation)
}

fn assert_labels_sane(curation: &CurationOutput, ctx: &str) {
    assert!(!curation.probabilistic_labels.is_empty(), "{ctx}: no labels");
    for (i, p) in curation.probabilistic_labels.iter().enumerate() {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(p),
            "{ctx}: label {i} = {p} is not a probability"
        );
    }
}

#[test]
fn every_fault_mode_degrades_gracefully() {
    let grid = [
        "seed=7;topics=unavailable@0.6",
        "seed=7;keywords=transient(2)@0.5",
        "seed=7;page_quality=latency(120)@0.4",
        "seed=7;user_reports=corrupt@0.5",
        "seed=7;kg_entities=stale",
        STORM,
    ];
    for spec in grid {
        let (data, curation) = run_plan(spec);
        assert_labels_sane(&curation, spec);
        let summary = data.fault_summary.as_ref().unwrap_or_else(|| panic!("{spec}: no summary"));
        assert_eq!(summary.seed, 7, "{spec}");
        assert!(!summary.services.is_empty(), "{spec}: no per-service stats");
        for s in &summary.services {
            assert!(s.calls > 0, "{spec}: service {} never called", s.name);
        }
        let deg = &curation.degradation;
        assert_eq!(deg.fault_seed, 7, "{spec}");
        assert!(deg.faults.is_some(), "{spec}: degradation lost the fault summary");
        assert_eq!(
            deg.lf_abstain.len(),
            curation.lf_names.len(),
            "{spec}: abstain telemetry must cover every LF"
        );
        assert!((0.0..=1.0).contains(&deg.pool_coverage), "{spec}");
    }
}

#[test]
fn unavailable_storm_trips_breakers_and_reports_them() {
    let (data, curation) = run_plan(STORM);
    let summary = data.fault_summary.as_ref().unwrap();
    // sentiment at rate 0.9 with the default breaker threshold must trip.
    assert!(
        summary.tripped_services().iter().any(|s| s == "sentiment"),
        "expected sentiment to trip: {:?}",
        summary.tripped_services()
    );
    assert_eq!(curation.degradation.tripped_services, summary.tripped_services());
    // A tripped categorical service feeds mined LFs; under the storm at
    // least one LF must have a higher abstain rate on the pool than on the
    // (clean) dev corpus.
    assert!(
        curation.degradation.lf_abstain.iter().any(|l| l.pool_abstain_rate > l.dev_abstain_rate),
        "no LF shows the degradation signal"
    );
}

#[test]
fn identical_fault_seeds_are_bit_identical() {
    let (_, a) = run_plan(STORM);
    let (_, b) = run_plan(STORM);
    let bits = |c: &CurationOutput| -> Vec<u64> {
        c.probabilistic_labels.iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(bits(&a), bits(&b), "same fault seed must reproduce bit-identically");
    assert_eq!(a.degradation, b.degradation);
    let (_, c) = run_plan(&STORM.replace("seed=7", "seed=8"));
    assert_ne!(bits(&a), bits(&c), "different fault seeds must differ");
}

#[test]
fn disabled_faults_match_clean_curation_bitwise() {
    let clean = curate(&TaskData::generate(task(), 11, Some(200)), &fast_config());
    let via = curate(
        &TaskData::generate_with_faults(
            task(),
            11,
            Some(200),
            &FaultPlan::disabled(),
            AccessPolicy::default(),
        )
        .unwrap(),
        &fast_config(),
    );
    assert_eq!(
        clean.probabilistic_labels.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        via.probabilistic_labels.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
    );
    assert!(!via.degradation.is_degraded());
    assert!(via.degradation.faults.is_none());
}

/// An LF that abstains on every row (it demands an out-of-vocabulary id)
/// must flow through all three label models without skewing posteriors:
/// the label model drops it, and the surviving output is bit-identical to
/// a run that never saw it.
#[test]
fn all_abstain_lf_never_skews_any_label_model() {
    let par = ParConfig::from_env();
    let data = TaskData::generate(task(), 11, Some(200));
    let topics = data.world.schema().column("topics").unwrap();
    let abstainer =
        || Box::new(CategoricalContainsLf::new(topics, vec![9999], false, Vote::Positive));
    let abstainer_name = abstainer().name().to_owned();
    for kind in [LabelModelKind::Anchored, LabelModelKind::Em, LabelModelKind::MajorityVote] {
        let cfg = CurationConfig { label_model: kind, ..fast_config() };
        let base_lfs = expert_lfs(data.world.schema()).unwrap();
        let mut spiked_lfs = expert_lfs(data.world.schema()).unwrap();
        spiked_lfs.push(abstainer());
        let base = curate_with_lfs(&data, &cfg, base_lfs, std::time::Duration::ZERO, &par);
        let spiked = curate_with_lfs(&data, &cfg, spiked_lfs, std::time::Duration::ZERO, &par);
        assert_eq!(
            base.probabilistic_labels.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            spiked.probabilistic_labels.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "{kind:?}: an all-abstain LF skewed the posteriors"
        );
        assert_eq!(base.covered, spiked.covered, "{kind:?}");
        assert_eq!(
            spiked.degradation.dropped_lfs,
            vec![abstainer_name.clone()],
            "{kind:?}: the all-abstain LF must be reported as dropped"
        );
        assert!(base.degradation.dropped_lfs.is_empty(), "{kind:?}");
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fault_labels.json")
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
        ("task", Json::Str("ct2_scaled_0.02_seed11_limit200_storm_seed7".to_owned())),
        ("plan", Json::Str(STORM.to_owned())),
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

/// The storm scenario's labels, pinned bit-for-bit. Running this under
/// different `CM_THREADS` (as `scripts/ci.sh` does) proves a faulted run
/// is as thread-invariant as a clean one.
#[test]
fn storm_labels_match_pinned_fixture() {
    let (_, curation) = run_plan(STORM);
    let path = fixture_path();
    if std::env::var_os("CM_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, encode(&curation.probabilistic_labels))
            .unwrap_or_else(|e| panic!("cannot write fixture: {e}"));
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fault fixture {} ({e}); run CM_REGEN_FIXTURES=1 cargo test --test \
             fault_matrix to create it",
            path.display()
        )
    });
    let golden = decode(&text);
    assert_eq!(curation.probabilistic_labels.len(), golden.len(), "label count drifted");
    let drifted = curation
        .probabilistic_labels
        .iter()
        .zip(&golden)
        .filter(|(got, want)| got.to_bits() != want.to_bits())
        .count();
    assert_eq!(
        drifted,
        0,
        "{drifted}/{} faulted labels drifted from the pinned fixture; if the numeric change \
         is intentional, regenerate with CM_REGEN_FIXTURES=1",
        golden.len()
    );
}
