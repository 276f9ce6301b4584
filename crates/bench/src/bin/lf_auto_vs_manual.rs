//! Regenerates the **§6.7.1 comparison**: automatically mined labeling
//! functions vs a domain expert's hand-written suite, on CT 1.
//!
//! Reported exactly as the paper frames it: development time (mining +
//! propagation wall-clock vs the expert's 7 hours), weak-supervision
//! quality (precision / recall / F1 / coverage of the curated labels), and
//! end-model AUPRC.
//!
//! Expected shape (paper): the automatic pipeline is faster (theirs: 1.87x;
//! 3.75 h vs 7 h — ours is faster still, since the synthetic corpus is
//! 1/1000 the size) and at least matches the expert on F1 and coverage.
//!
//! The run configuration lives in `specs/lf_auto_vs_manual.json`;
//! `CM_SCALE`, `CM_SEEDS`, and `CM_JSON` still override it.

use std::time::Duration;

use cm_bench::{
    load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario, spec_seeds,
    TaskRun,
};
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::{curate, curate_with_lfs, expert_lfs, EXPERT_AUTHORING};

struct Side {
    label: String,
    authoring_seconds: f64,
    n_lfs: f64,
    precision: f64,
    recall: f64,
    f1: f64,
    coverage: f64,
    end_model_auprc: f64,
}

impl ToJson for Side {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("authoring_seconds", self.authoring_seconds.to_json()),
            ("n_lfs", self.n_lfs.to_json()),
            ("precision", self.precision.to_json()),
            ("recall", self.recall.to_json()),
            ("f1", self.f1.to_json()),
            ("coverage", self.coverage.to_json()),
            ("end_model_auprc", self.end_model_auprc.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("lf_auto_vs_manual");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let scenario = spec_scenario(&spec, "image-only I+ABCD");
    println!(
        "Automatic vs manual LF generation (§6.7.1, CT 1, scale {scale}, {} seed(s))",
        seeds.len()
    );

    let mut acc: Vec<Vec<[f64; 7]>> = vec![Vec::new(), Vec::new()];
    for &seed in &seeds {
        let run = TaskRun::new(spec.tasks[0], scale, seed, spec_reservoir(&spec, scale));
        let runner = run.runner();
        let cfg = run.curation_config(seed);

        let mined = curate(&run.data, &cfg);
        let mined_time = mined.mining_time + mined.propagation_time.unwrap_or(Duration::ZERO);
        let mined_auprc = runner.run(&scenario, Some(&mined)).unwrap().auprc;
        acc[0].push([
            mined_time.as_secs_f64(),
            (mined.lf_names.len()) as f64,
            mined.ws_quality.precision,
            mined.ws_quality.recall,
            mined.ws_quality.f1,
            mined.ws_quality.coverage,
            mined_auprc,
        ]);

        let lfs = expert_lfs(run.data.world.schema()).unwrap();
        let expert = curate_with_lfs(&run.data, &cfg, lfs, EXPERT_AUTHORING, &par);
        // The expert's clock is authoring time; propagation (if used) runs
        // for both sides.
        let expert_time = EXPERT_AUTHORING + expert.propagation_time.unwrap_or(Duration::ZERO);
        let expert_auprc = runner.run(&scenario, Some(&expert)).unwrap().auprc;
        acc[1].push([
            expert_time.as_secs_f64(),
            (expert.lf_names.len()) as f64,
            expert.ws_quality.precision,
            expert.ws_quality.recall,
            expert.ws_quality.f1,
            expert.ws_quality.coverage,
            expert_auprc,
        ]);
    }

    let mut sides = Vec::new();
    for (i, label) in
        ["mined (itemset + propagation)", "expert (hand-written)"].into_iter().enumerate()
    {
        let col = |j: usize| mean(&acc[i].iter().map(|r| r[j]).collect::<Vec<_>>());
        sides.push(Side {
            label: label.to_owned(),
            authoring_seconds: col(0),
            n_lfs: col(1),
            precision: col(2),
            recall: col(3),
            f1: col(4),
            coverage: col(5),
            end_model_auprc: col(6),
        });
    }
    println!(
        "{:<30} {:>12} {:>6} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "LF source", "dev time", "#LFs", "P", "R", "F1", "coverage", "AUPRC"
    );
    for s in &sides {
        println!(
            "{:<30} {:>11.1}s {:>6.0} {:>8.3} {:>8.3} {:>8.3} {:>9.3} {:>10.4}",
            s.label,
            s.authoring_seconds,
            s.n_lfs,
            s.precision,
            s.recall,
            s.f1,
            s.coverage,
            s.end_model_auprc
        );
    }
    let speedup = sides[1].authoring_seconds / sides[0].authoring_seconds.max(1e-9);
    println!(
        "\nautomatic generation is {speedup:.1}x faster; F1 {:+.1} points vs expert",
        (sides[0].f1 - sides[1].f1) * 100.0
    );
    maybe_write_json(&sides);
}
