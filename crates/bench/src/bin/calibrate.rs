//! Diagnostic binary: prints every intermediate quantity of a single-task
//! pipeline run, for calibrating the generative world against the paper's
//! qualitative shapes. Not part of the paper's tables.

use cm_bench::{load_spec, spec_reservoir, spec_scale, spec_scenario, spec_seed, TaskRun};
use cm_featurespace::FeatureSet;
use cm_orgsim::TaskId;
use cm_par::ParConfig;
use cm_pipeline::{curate, CurationConfig, Scenario};

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("calibrate");
    let scale = spec_scale(&spec);
    let seed = spec_seed(&spec);
    let id = match std::env::var("CM_TASK") {
        Ok(t) => TaskId::from_name(&t).expect("unknown CM_TASK"),
        Err(_) => spec.tasks[0],
    };

    let run = TaskRun::new(id, scale, seed, spec_reservoir(&spec, scale));
    let d = &run.data;
    println!(
        "{}: text={} pool={} test={} reservoir={} pool_pos_rate={:.3} borderline_share={:.3}",
        id.name(),
        d.text.len(),
        d.pool.len(),
        d.test.len(),
        d.labeled_image.len(),
        d.pool.positive_rate(),
        d.pool.borderline.iter().filter(|&&b| b).count() as f64
            / d.pool.labels.iter().filter(|l| l.is_positive()).count().max(1) as f64
    );

    for (label, lp) in [("WS w/o LP", false), ("WS with LP", true)] {
        let cfg = CurationConfig { use_label_propagation: lp, seed, ..run.curation_config(seed) };
        let out = curate(d, &cfg);
        println!(
            "{label}: lfs={} cov={:.3} P={:.3} R={:.3} F1={:.3} conflict={:.3} mine={:?} prop={:?}",
            out.lf_names.len(),
            out.ws_quality.coverage,
            out.ws_quality.precision,
            out.ws_quality.recall,
            out.ws_quality.f1,
            out.conflict,
            out.mining_time,
            out.propagation_time,
        );
    }

    let runner = run.runner();
    let baseline = runner.baseline_auprc(&par).unwrap();
    println!("baseline (embeddings only, fully supervised) AUPRC = {baseline:.4}");

    let curation = curate(d, &run.curation_config(seed));
    let sets = FeatureSet::SHARED;
    for (name, eval) in [
        ("text-only", runner.run(&spec_scenario(&spec, "text-only T+ABCD"), None)),
        ("image-WS", runner.run(&spec_scenario(&spec, "image-only I+ABCD"), Some(&curation))),
        ("cross-modal", runner.run(&spec_scenario(&spec, "cross-modal T,I+ABCD"), Some(&curation))),
        (
            "fully-sup n=1000",
            runner.run(&Scenario::fully_supervised(&sets, (1000.0 * scale) as usize), None),
        ),
        (
            "fully-sup n=all",
            runner.run(&Scenario::fully_supervised(&sets, d.labeled_image.len()), None),
        ),
    ] {
        let eval = eval.unwrap();
        println!(
            "{name:<18} AUPRC={:.4} rel={:.2}x n_train={}",
            eval.auprc,
            eval.auprc / baseline.max(1e-9),
            eval.n_train_rows
        );
    }
}
