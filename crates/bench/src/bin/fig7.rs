//! Regenerates **Figure 7**: the multi-modal training lesion study for
//! CT 1 — text-only, image-only (weakly supervised), and combined models at
//! each feature-set ladder rung {A, AB, ABC, ABCD}, relative to the
//! embedding baseline.
//!
//! Expected shape (paper): combining modalities is best at every rung, and
//! every model improves as sets accumulate.
//!
//! The 3-model x 4-rung matrix lives in `specs/fig7.json`; `CM_SCALE`,
//! `CM_SEEDS`, and `CM_JSON` still override the spec's defaults.

use cm_bench::{
    load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario, spec_seeds,
    TaskRun,
};
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::curate;

struct Rung {
    sets: String,
    text_rel: f64,
    image_rel: f64,
    combined_rel: f64,
}

impl ToJson for Rung {
    fn to_json(&self) -> Json {
        Json::obj([
            ("sets", self.sets.to_json()),
            ("text_rel", self.text_rel.to_json()),
            ("image_rel", self.image_rel.to_json()),
            ("combined_rel", self.combined_rel.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("fig7");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    println!("Figure 7 (CT 1 lesion study, scale {scale}, {} seed(s))", seeds.len());
    println!("{:<10} {:>10} {:>10} {:>12}", "services", "Text (T)", "Image (I)", "Text+Image");

    let rungs = ["A", "AB", "ABC", "ABCD"];
    let mut acc: Vec<[Vec<f64>; 3]> =
        (0..rungs.len()).map(|_| [Vec::new(), Vec::new(), Vec::new()]).collect();
    let mut baselines = Vec::new();
    for &seed in &seeds {
        let run = TaskRun::new(spec.tasks[0], scale, seed, spec_reservoir(&spec, scale));
        let runner = run.runner();
        let curation = curate(&run.data, &run.curation_config(seed));
        baselines.push(runner.baseline_auprc(&par).unwrap());
        for (i, rung) in rungs.iter().enumerate() {
            let text = spec_scenario(&spec, &format!("text-only T+{rung}"));
            let image = spec_scenario(&spec, &format!("image-only I+{rung}"));
            let cross = spec_scenario(&spec, &format!("cross-modal T,I+{rung}"));
            acc[i][0].push(runner.run(&text, None).unwrap().auprc);
            acc[i][1].push(runner.run(&image, Some(&curation)).unwrap().auprc);
            acc[i][2].push(runner.run(&cross, Some(&curation)).unwrap().auprc);
        }
    }
    let baseline = mean(&baselines);
    let mut out = Vec::new();
    for (i, rung) in rungs.iter().enumerate() {
        let r = Rung {
            sets: (*rung).to_owned(),
            text_rel: mean(&acc[i][0]) / baseline,
            image_rel: mean(&acc[i][1]) / baseline,
            combined_rel: mean(&acc[i][2]) / baseline,
        };
        println!(
            "{:<10} {:>9.2}x {:>9.2}x {:>11.2}x",
            r.sets, r.text_rel, r.image_rel, r.combined_rel
        );
        out.push(r);
    }
    maybe_write_json(&out);
}
