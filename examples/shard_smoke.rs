//! Shard smoke gate: run the streamed (out-of-core) curation driver at
//! several shard sizes and assert its output is bit-identical to the
//! resident driver, under each label model: the anchored default at
//! shard sizes 1, 97 and whole-corpus, EM and majority vote at 97 and
//! whole-corpus.
//!
//! `scripts/ci.sh` runs this under `CM_THREADS=1` and `CM_THREADS=4`; the
//! program exits non-zero if any pair diverged, and prints a
//! deterministic label checksum so cross-thread runs can also be diffed
//! line by line.
//!
//! ```sh
//! CM_THREADS=4 cargo run --release --example shard_smoke
//! ```

use cross_modal::mining::MiningConfig;
use cross_modal::par::ParConfig;
use cross_modal::prelude::*;

fn checksum(labels: &[f64]) -> u64 {
    labels.iter().fold(0u64, |acc, p| acc.rotate_left(7) ^ p.to_bits())
}

fn task() -> TaskConfig {
    TaskConfig::paper(TaskId::Ct2).scaled(0.02)
}

fn main() {
    let seed = 5;
    let par = ParConfig::from_env();
    let data = TaskData::generate(task(), seed, Some(64));
    let mut failures = 0usize;
    for (label_model, shard_sizes) in [
        (LabelModelKind::Anchored, &[1usize, 97, 1 << 20][..]),
        (LabelModelKind::Em, &[97, 1 << 20][..]),
        (LabelModelKind::MajorityVote, &[97, 1 << 20][..]),
    ] {
        let config = CurationConfig {
            prop_max_seeds: 400,
            mining: MiningConfig { min_recall: 0.05, ..Default::default() },
            label_model,
            ..Default::default()
        };
        failures += check_model(&data, seed, &config, shard_sizes, &par);
    }
    if failures > 0 {
        eprintln!("{failures} (label model, shard size) pair(s) diverged from the resident driver");
        std::process::exit(1);
    }
    println!("shard smoke: all label models and shard sizes bit-identical to the resident driver");
}

/// Runs one label model resident and at each shard size; returns the
/// number of shard sizes whose output diverged.
fn check_model(
    data: &TaskData,
    seed: u64,
    config: &CurationConfig,
    shard_sizes: &[usize],
    par: &ParConfig,
) -> usize {
    let model = config.label_model;
    let want = curate(data, config);
    let want_sum = checksum(&want.probabilistic_labels);
    println!(
        "{model:?} resident: {} pool labels (checksum {want_sum:016x}), coverage {:.4}",
        want.probabilistic_labels.len(),
        want.degradation.pool_coverage
    );
    let mut failures = 0usize;
    for &shard_rows in shard_sizes {
        let shard = ShardConfig::with_segment_rows(shard_rows);
        let streamed =
            curate_streamed_with(task(), seed, config, &shard, par).unwrap_or_else(|e| {
                eprintln!("{model:?} streamed curation failed at shard_rows={shard_rows}: {e}");
                std::process::exit(1);
            });
        let got = &streamed.output;
        let got_sum = checksum(&got.probabilistic_labels);
        let identical = got_sum == want_sum
            && got.probabilistic_labels.len() == want.probabilistic_labels.len()
            && got
                .probabilistic_labels
                .iter()
                .zip(&want.probabilistic_labels)
                .all(|(g, w)| g.to_bits() == w.to_bits())
            && got.covered == want.covered
            && got.lf_names == want.lf_names
            && got.degradation.dropped_lfs == want.degradation.dropped_lfs
            && got.conflict.to_bits() == want.conflict.to_bits();
        println!(
            "{model:?} sharded shard_rows={shard_rows}: {} segments, peak {} bytes, checksum \
             {got_sum:016x} -> {}",
            streamed.stats.segments,
            streamed.stats.peak_bytes,
            if identical { "identical" } else { "DIVERGED" }
        );
        if !identical {
            failures += 1;
        }
    }
    failures
}
