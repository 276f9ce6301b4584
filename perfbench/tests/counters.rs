//! The traced run's exact counters repeat for one seed across two runs and
//! across `CM_THREADS` 1 and 2, and every traced run's checks pass (on
//! `curate_1m` that includes the replay's posterior digest matching the
//! entry point's).
//!
//! Runs each workload traced three times, so it takes a few minutes:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use cm_json::Json;

/// Counters that must not depend on timing or thread count.
const EXACT: [&str; 12] = [
    "orgsim.rows",
    "mining.candidates",
    "mining.lfs",
    "labelmodel.apply_rows",
    "labelmodel.distinct_patterns",
    "labelmodel.em_iters",
    "propagation.vertices",
    "propagation.edges",
    "shard.segments",
    "serve.checkpoint_bytes",
    "serve.base_writes",
    "run.tick_samples",
];

fn traced(workload: &str, threads: &str) -> Vec<f64> {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"])
        .arg("--work-dir")
        .arg(&work)
        .env("CM_THREADS", threads)
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}: {stdout}");
    let metrics = result.get("metrics").expect("metrics");
    EXACT
        .iter()
        .map(|name| {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            m.get("value").and_then(Json::as_f64).expect("numeric value")
        })
        .collect()
}

#[test]
fn counters_repeat_across_runs_and_thread_counts() {
    for workload in ["serve_ticks", "adapt_e2e", "curate_1m"] {
        let first = traced(workload, "2");
        assert_eq!(first, traced(workload, "2"), "{workload}: second run at 2 threads");
        assert_eq!(first, traced(workload, "1"), "{workload}: 1 thread vs 2");
    }
}
