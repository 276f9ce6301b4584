//! Regenerates **Table 2**: relative AUPRC of the fully supervised text
//! model (`T + ABCD`), the weakly supervised image model (`I + ABCD`), and
//! the cross-modal model (`T, I + ABCD`), plus the cross-over point — the
//! number of hand-labeled images a fully supervised model needs to match
//! the cross-modal pipeline.
//!
//! Expected shape (paper): the cross-modal and weakly supervised image
//! models beat text transfer; cross-over points span orders of magnitude
//! across tasks (CT 3/CT 4 small, CT 5 extreme).
//!
//! The evaluation matrix lives in `specs/table2.json`; `CM_SCALE`,
//! `CM_SEEDS`, `CM_TASK=CT3` to restrict, and `CM_JSON=path` still
//! override/extend it.

use cm_bench::{
    fmt_ratio, load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario,
    spec_seeds, task_selected, TaskRun,
};
use cm_eval::{find_crossover, CrossoverSeries};
use cm_featurespace::FeatureSet;
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::{curate, Scenario};

struct Row {
    task: String,
    baseline_auprc: f64,
    text_rel: f64,
    image_rel: f64,
    cross_modal_rel: f64,
    cross_over: Option<f64>,
    max_swept: f64,
    supervised_curve: Vec<(f64, f64)>,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("task", self.task.to_json()),
            ("baseline_auprc", self.baseline_auprc.to_json()),
            ("text_rel", self.text_rel.to_json()),
            ("image_rel", self.image_rel.to_json()),
            ("cross_modal_rel", self.cross_modal_rel.to_json()),
            ("cross_over", self.cross_over.to_json()),
            ("max_swept", self.max_swept.to_json()),
            ("supervised_curve", self.supervised_curve.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("table2");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let sets = FeatureSet::SHARED;
    let text_s = spec_scenario(&spec, "text-only T+ABCD");
    let image_s = spec_scenario(&spec, "image-only I+ABCD");
    let cross_s = spec_scenario(&spec, "cross-modal T,I+ABCD");

    println!(
        "Table 2 (scale {scale}, {} seed(s)) — AUPRC relative to the embedding baseline",
        seeds.len()
    );
    println!(
        "{:<6} {:>8} {:>8} {:>12} {:>12}",
        "Task", "Text", "Image", "Cross-Modal", "Cross-Over"
    );
    let mut rows = Vec::new();
    for &id in &spec.tasks {
        if !task_selected(id) {
            continue;
        }
        let mut text_rels = Vec::new();
        let mut image_rels = Vec::new();
        let mut cross_rels = Vec::new();
        let mut baselines = Vec::new();
        let mut crossovers: Vec<f64> = Vec::new();
        let mut curve_acc: Vec<(f64, Vec<f64>)> = Vec::new();
        let mut max_swept = 0.0f64;
        for &seed in &seeds {
            let run = TaskRun::new(id, scale, seed, spec_reservoir(&spec, scale));
            let runner = run.runner();
            let curation = curate(&run.data, &run.curation_config(seed));
            let baseline = runner.baseline_auprc(&par).unwrap();
            baselines.push(baseline);

            let text = runner.run_relative(&text_s, None, baseline).unwrap();
            let image = runner.run_relative(&image_s, Some(&curation), baseline).unwrap();
            let cross = runner.run_relative(&cross_s, Some(&curation), baseline).unwrap();
            text_rels.push(text.relative_auprc.unwrap_or(0.0));
            image_rels.push(image.relative_auprc.unwrap_or(0.0));
            cross_rels.push(cross.relative_auprc.unwrap_or(0.0));

            let reservoir = run.data.labeled_image.len();
            let mut curve = Vec::new();
            for &n in &[500.0f64, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0] {
                let n = (n * scale) as usize;
                if n < 32 || n > reservoir {
                    continue;
                }
                let eval = runner.run(&Scenario::fully_supervised(&sets, n), None).unwrap();
                curve.push((n as f64, eval.auprc));
                max_swept = max_swept.max(n as f64);
            }
            if let Some(c) = find_crossover(&CrossoverSeries::new(curve.clone()), cross.auprc) {
                crossovers.push(c);
            }
            for (i, &(n, a)) in curve.iter().enumerate() {
                if curve_acc.len() <= i {
                    curve_acc.push((n, Vec::new()));
                }
                curve_acc[i].1.push(a);
            }
        }
        let row = Row {
            task: id.name().to_owned(),
            baseline_auprc: mean(&baselines),
            text_rel: mean(&text_rels),
            image_rel: mean(&image_rels),
            cross_modal_rel: mean(&cross_rels),
            cross_over: (!crossovers.is_empty()).then(|| mean(&crossovers)),
            max_swept,
            supervised_curve: curve_acc.iter().map(|(n, a)| (*n, mean(a))).collect(),
        };
        println!(
            "{:<6} {:>8} {:>8} {:>12} {:>12}",
            row.task,
            fmt_ratio(row.text_rel),
            fmt_ratio(row.image_rel),
            fmt_ratio(row.cross_modal_rel),
            row.cross_over.map_or_else(|| format!(">{max_swept:.0}"), |c| format!("{c:.0}")),
        );
        rows.push(row);
    }
    maybe_write_json(&rows);
}
