//! Ablations over the design choices DESIGN.md calls out (not a paper
//! table; supporting evidence for §7's discussion):
//!
//! 1. **label model** — dev-anchored vs EM generative vs majority vote;
//! 2. **itemset order** — order-1 vs order-2 mining, and the Snuba-style
//!    decision-stump generator the paper rejected (§4.3);
//! 3. **propagation variant** — synchronous (Jacobi) vs streaming
//!    (Gauss–Seidel) updates, and a k-NN degree sweep;
//! 4. **nonservable features** — LFs with vs without nonservable features.
//!
//! The run configuration lives in `specs/ablations.json`; `CM_SCALE`,
//! `CM_SEEDS`, and `CM_JSON` still override it.

use std::time::Instant;

use cm_bench::{
    load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario, spec_seeds,
    TaskRun,
};
use cm_featurespace::{FeatureSet, SimilarityConfig};
use cm_json::{Json, ToJson};
use cm_mining::MiningConfig;
use cm_par::ParConfig;
use cm_pipeline::{curate, CurationConfig, LabelModelKind};
use cm_propagation::{propagate, propagate_streaming, GraphBuilder, PropagationConfig};

#[derive(Default)]
struct Report {
    label_model: Vec<(String, f64, f64)>, // (name, ws_f1, end auprc)
    mining_order: Vec<(String, f64, f64, f64)>, // (name, ws_f1, coverage, seconds)
    propagation: Vec<(String, f64, f64)>, // (name, seconds, score agreement)
    nonservable: Vec<(String, f64)>,      // (name, end auprc)
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label_model", self.label_model.to_json()),
            ("mining_order", self.mining_order.to_json()),
            ("propagation", self.propagation.to_json()),
            ("nonservable", self.nonservable.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("ablations");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let task = spec.tasks[0];
    let reservoir = spec_reservoir(&spec, scale);
    let sets = FeatureSet::SHARED;
    let end_model = spec_scenario(&spec, "image-only I+ABCD");
    let mut report = Report::default();
    println!("Ablations (CT 1, scale {scale}, {} seed(s))\n", seeds.len());

    // ---- 1. label model ----
    println!("label model          ws_F1   end AUPRC");
    for (name, kind) in [
        ("anchored", LabelModelKind::Anchored),
        ("em", LabelModelKind::Em),
        ("majority", LabelModelKind::MajorityVote),
    ] {
        let mut f1s = Vec::new();
        let mut aps = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(task, scale, seed, reservoir);
            let cfg = CurationConfig { label_model: kind, ..run.curation_config(seed) };
            let out = curate(&run.data, &cfg);
            f1s.push(out.ws_quality.f1);
            aps.push(run.runner().run(&end_model, Some(&out)).unwrap().auprc);
        }
        println!("{name:<18} {:>7.3} {:>11.4}", mean(&f1s), mean(&aps));
        report.label_model.push((name.into(), mean(&f1s), mean(&aps)));
    }

    // ---- 2. LF generator: mining order + Snuba-style stumps ----
    println!("\nLF generator         ws_F1   coverage   seconds");
    for (name, order) in [("order-1", 1usize), ("order-2", 2)] {
        let mut f1s = Vec::new();
        let mut covs = Vec::new();
        let mut secs = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(task, scale, seed, reservoir);
            let base = run.curation_config(seed);
            let cfg = CurationConfig {
                use_label_propagation: false,
                mining: MiningConfig { max_order: order, ..base.mining.clone() },
                ..base
            };
            let t = Instant::now();
            let out = curate(&run.data, &cfg);
            secs.push(t.elapsed().as_secs_f64());
            f1s.push(out.ws_quality.f1);
            covs.push(out.ws_quality.coverage);
        }
        println!("{name:<18} {:>7.3} {:>10.3} {:>9.2}", mean(&f1s), mean(&covs), mean(&secs));
        report.mining_order.push((name.into(), mean(&f1s), mean(&covs), mean(&secs)));
    }
    {
        // Snuba-lite: decision stumps over dev, used as the LF suite.
        let mut f1s = Vec::new();
        let mut covs = Vec::new();
        let mut secs = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(task, scale, seed, reservoir);
            let base = run.curation_config(seed);
            let cfg = cm_pipeline::CurationConfig { use_label_propagation: false, ..base };
            let columns = run.data.world.schema().columns_in_sets(&FeatureSet::SHARED, false);
            let t = Instant::now();
            let lfs = cm_mining::generate_stump_lfs(
                &run.data.text.table,
                &run.data.text.labels,
                &columns,
                &cm_mining::StumpConfig::default(),
            );
            let out = cm_pipeline::curate_with_lfs(&run.data, &cfg, lfs, t.elapsed(), &par);
            secs.push(t.elapsed().as_secs_f64());
            f1s.push(out.ws_quality.f1);
            covs.push(out.ws_quality.coverage);
        }
        println!(
            "{:<18} {:>7.3} {:>10.3} {:>9.2}",
            "snuba-stumps",
            mean(&f1s),
            mean(&covs),
            mean(&secs)
        );
        report.mining_order.push(("snuba-stumps".into(), mean(&f1s), mean(&covs), mean(&secs)));
    }

    // ---- 3. propagation variant + k sweep ----
    println!("\npropagation          seconds   max |Δscore| vs sync-k10");
    {
        let run = TaskRun::new(task, scale, seeds[0], Some(64));
        let d = &run.data;
        let mut columns = d.shared_columns(&sets);
        let emb = d.world.schema().column("img_embedding").unwrap();
        columns.push(emb);
        let mut combined = d.text.table.gather(&(0..d.text.len().min(2000)).collect::<Vec<_>>());
        combined.extend_from(&d.pool.table);
        let sim = SimilarityConfig::uniform(columns).fit_scales(&combined);
        let seeds_lp: Vec<(usize, f64)> =
            (0..2000.min(d.text.len())).map(|r| (r, d.text.labels[r].as_f64())).collect();
        let prop_cfg = PropagationConfig { max_iters: 50, tol: 1e-5, prior: 0.05 };
        let mut reference: Option<Vec<f64>> = None;
        for (name, k, streaming) in [
            ("sync k=10", 10usize, false),
            ("stream k=10", 10, true),
            ("sync k=5", 5, false),
            ("sync k=20", 20, false),
        ] {
            let t = Instant::now();
            let graph = GraphBuilder::approximate(k, combined.len()).build(&combined, &sim, 1);
            let scores = if streaming {
                propagate_streaming(&graph, &seeds_lp, &prop_cfg)
            } else {
                propagate(&graph, &seeds_lp, &prop_cfg)
            };
            let secs = t.elapsed().as_secs_f64();
            let delta = match &reference {
                None => {
                    reference = Some(scores);
                    0.0
                }
                Some(r) => r.iter().zip(&scores).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max),
            };
            println!("{name:<18} {secs:>9.2} {delta:>12.4}");
            report.propagation.push((name.into(), secs, delta));
        }
    }

    // ---- 4. nonservable features in LFs ----
    println!("\nLF features               end AUPRC");
    for (name, nonservable) in [("with nonservable", true), ("servable only", false)] {
        let mut aps = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(task, scale, seed, reservoir);
            let cfg =
                CurationConfig { include_nonservable: nonservable, ..run.curation_config(seed) };
            let out = curate(&run.data, &cfg);
            aps.push(run.runner().run(&end_model, Some(&out)).unwrap().auprc);
        }
        println!("{name:<24} {:>10.4}", mean(&aps));
        report.nonservable.push((name.into(), mean(&aps)));
    }
    maybe_write_json(&report);
}
