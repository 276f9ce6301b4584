//! Regenerates **Figure 6**: the organizational-resources factor analysis
//! for CT 1 — an eight-step ladder that alternately adds feature sets to
//! the text and image modalities, measuring relative AUPRC of the early-
//! fusion model at each step.
//!
//! Expected shape (paper): monotone-ish growth from `T+A` (far below the
//! baseline) to `T+ABCD, I+ABCD`; adding a feature set typically helps more
//! than adding the other modality with the same sets.
//!
//! The eight-step ladder lives in `specs/fig6.json` (its scenario order
//! is the ladder order); `CM_SCALE`, `CM_SEEDS`, and `CM_JSON` still
//! override the spec's defaults.

use cm_bench::{
    load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_seeds, TaskRun,
};
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::{curate, Scenario};

struct Step {
    label: String,
    relative_auprc: f64,
    auprc: f64,
}

impl ToJson for Step {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("relative_auprc", self.relative_auprc.to_json()),
            ("auprc", self.auprc.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("fig6");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let ladder: Vec<Scenario> = spec.scenarios.iter().map(Scenario::from_spec).collect();
    println!("Figure 6 (CT 1 factor analysis, scale {scale}, {} seed(s))", seeds.len());
    println!("{:<18} {:>10} {:>10}", "step", "AUPRC", "relative");

    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut baselines = Vec::new();
    for &seed in &seeds {
        let run = TaskRun::new(spec.tasks[0], scale, seed, spec_reservoir(&spec, scale));
        let runner = run.runner();
        let curation = curate(&run.data, &run.curation_config(seed));
        baselines.push(runner.baseline_auprc(&par).unwrap());
        for (i, scenario) in ladder.iter().enumerate() {
            acc[i].push(runner.run(scenario, Some(&curation)).unwrap().auprc);
        }
    }
    let baseline = mean(&baselines);
    let mut steps = Vec::new();
    for (i, scenario) in ladder.iter().enumerate() {
        let auprc = mean(&acc[i]);
        println!("{:<18} {auprc:>10.4} {:>9.2}x", scenario.name, auprc / baseline);
        steps.push(Step { label: scenario.name.clone(), relative_auprc: auprc / baseline, auprc });
    }

    // The paper's headline: average gain from adding a feature set vs
    // adding a modality at fixed sets.
    let rel: Vec<f64> = steps.iter().map(|s| s.relative_auprc).collect();
    let feature_steps = [(1, 2), (3, 4), (5, 6)]; // T gains a set
    let modality_steps = [(2, 3), (4, 5), (6, 7)]; // I catches up
    let avg = |pairs: &[(usize, usize)]| {
        mean(&pairs.iter().map(|&(a, b)| rel[b] - rel[a]).collect::<Vec<_>>())
    };
    println!(
        "\navg step gain: adding a feature set {:+.3}, adding it to the other modality {:+.3}",
        avg(&feature_steps),
        avg(&modality_steps)
    );
    maybe_write_json(&steps);
}
