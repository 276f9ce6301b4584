//! Regenerates **Figure 5**: fully supervised image models vs the
//! cross-modal pipeline as hand-labeled data grows, for CT 1, in two
//! regimes:
//!
//! - **top panel** — end models use all four feature sets (`+ ABCD`);
//! - **bottom panel** — end models use only `+ AB` while the LFs still use
//!   all features (the "nonservable" scenario: sets C/D feed weak
//!   supervision offline but cannot be served).
//!
//! Expected shape (paper): both cross-modal lines are flat (no hand labels
//! consumed); each fully supervised curve crosses its cross-modal line, and
//! the nonservable regime's cross-over needs *more* hand labels because the
//! LFs retain features the supervised model cannot use.
//!
//! The evaluation matrix lives in `specs/fig5.json`; `CM_SCALE`,
//! `CM_SEEDS`, and `CM_JSON` still override it.

use cm_bench::{
    load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario, spec_seeds,
    TaskRun,
};
use cm_eval::{find_crossover, CrossoverSeries};
use cm_featurespace::FeatureSet;
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::{curate, Scenario};

struct Panel {
    feature_sets: String,
    cross_modal_auprc: f64,
    cross_modal_rel: f64,
    supervised: Vec<(f64, f64, f64)>, // (n, auprc, relative)
    cross_over: Option<f64>,
}

impl ToJson for Panel {
    fn to_json(&self) -> Json {
        Json::obj([
            ("feature_sets", self.feature_sets.to_json()),
            ("cross_modal_auprc", self.cross_modal_auprc.to_json()),
            ("cross_modal_rel", self.cross_modal_rel.to_json()),
            ("supervised", self.supervised.to_json()),
            ("cross_over", self.cross_over.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("fig5");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let id = spec.tasks[0];
    println!("Figure 5 (CT 1, scale {scale}, {} seed(s))", seeds.len());

    let mut panels = Vec::new();
    for (label, end_sets) in
        [("ABCD", FeatureSet::SHARED.to_vec()), ("AB", vec![FeatureSet::A, FeatureSet::B])]
    {
        let mut cross_aps = Vec::new();
        let mut baselines = Vec::new();
        let mut curve_acc: Vec<(f64, Vec<f64>)> = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(id, scale, seed, spec_reservoir(&spec, scale));
            let runner = run.runner();
            // LFs always use all four sets (+ nonservable features); only
            // the end model is restricted.
            let curation = curate(&run.data, &run.curation_config(seed));
            let baseline = runner.baseline_auprc(&par).unwrap();
            baselines.push(baseline);

            let cross = spec_scenario(&spec, &format!("cross-modal T,I+{label}"));
            cross_aps.push(runner.run(&cross, Some(&curation)).unwrap().auprc);

            for (i, &n) in
                [250.0f64, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0].iter().enumerate()
            {
                let n = (n * scale) as usize;
                if n < 32 || n > run.data.labeled_image.len() {
                    continue;
                }
                let eval = runner.run(&Scenario::fully_supervised(&end_sets, n), None).unwrap();
                if curve_acc.len() <= i {
                    curve_acc.push((n as f64, Vec::new()));
                }
                curve_acc[i].1.push(eval.auprc);
            }
        }
        let baseline = mean(&baselines);
        let cross_ap = mean(&cross_aps);
        let curve: Vec<(f64, f64)> = curve_acc.iter().map(|(n, a)| (*n, mean(a))).collect();
        let cross_over = find_crossover(&CrossoverSeries::new(curve.clone()), cross_ap);

        println!(
            "\npanel +{label}: cross-modal AUPRC {cross_ap:.4} ({:.2}x baseline)",
            cross_ap / baseline
        );
        println!("{:>10} {:>10} {:>10}", "n_labeled", "AUPRC", "relative");
        for &(n, a) in &curve {
            println!("{n:>10.0} {a:>10.4} {:>9.2}x", a / baseline);
        }
        println!(
            "cross-over: {}",
            cross_over
                .map_or_else(|| "not reached".into(), |c| format!("{c:.0} hand-labeled images"))
        );
        panels.push(Panel {
            feature_sets: label.to_owned(),
            cross_modal_auprc: cross_ap,
            cross_modal_rel: cross_ap / baseline,
            supervised: curve.iter().map(|&(n, a)| (n, a, a / baseline)).collect(),
            cross_over,
        });
    }
    if panels.len() == 2 {
        match (panels[0].cross_over, panels[1].cross_over) {
            (Some(full), Some(ns)) => println!(
                "\nnonservable effect: cross-over moves {:.0} -> {:.0} when sets C/D are LF-only",
                full, ns
            ),
            _ => println!("\nnonservable effect: at least one curve did not cross"),
        }
    }
    maybe_write_json(&panels);
}
