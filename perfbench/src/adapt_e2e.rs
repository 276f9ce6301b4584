//! `adapt_e2e`: the paper's full path on one task. `curate` (mining,
//! batch-graph propagation, LF application, anchored label model), then a
//! cross-modal early-fusion MLP trained on the weak labels and scored by
//! AUPRC on the held-out image test set.

use std::time::Instant;

use cm_featurespace::{FeatureKind, FeatureSet, FeatureTable, Label, SimilarityConfig};
use cm_fusion::{EarlyFusionModel, ModalityData};
use cm_labelmodel::{AnchoredModel, LabelMatrix, LfRates};
use cm_linalg::rng::{SliceRandom, StdRng};
use cm_models::{ModelKind, TrainConfig};
use cm_orgsim::{TaskConfig, TaskId};
use cm_par::ParConfig;
use cm_pipeline::{
    curate, mask_disallowed_sets, CurationConfig, DenseView, Scenario, ScenarioRunner, TaskData,
};
use cm_propagation::{propagate, tune_score_thresholds, GraphBuilder, PropagationConfig};

use crate::common::{
    dev_silent_columns, digest, distinct_patterns, glue_ms, labeler_ticks, lf_columns,
    matrix_votes, mine, secs, valid_posteriors, world_seed, worlds_for, EndToEnd, Outcome,
};
use crate::trace::Tracer;

const TEXT_ROWS: usize = 3_600;
const POOL_ROWS: usize = 8_000;
const TEST_ROWS: usize = 800;
const EPOCHS: usize = 10;
/// Nominal seconds of one operation; sizes the run (see `worlds_for`).
const OP_S: f64 = 4.3;

fn task() -> TaskConfig {
    TaskConfig {
        n_text_labeled: TEXT_ROWS,
        n_image_unlabeled: POOL_ROWS,
        n_image_test: TEST_ROWS,
        ..TaskConfig::paper(TaskId::Ct1)
    }
}

fn config(seed: u64) -> CurationConfig {
    CurationConfig { seed, ..CurationConfig::default() }
}

fn model() -> ModelKind {
    ModelKind::Mlp { hidden: vec![32] }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig { epochs: EPOCHS, patience: None, seed, ..TrainConfig::default() }
}

fn scenario() -> Scenario {
    Scenario::cross_modal(&FeatureSet::SHARED)
}

/// Inputs are generated once per set-up; the labeled-image reservoir is
/// left empty because no fully supervised scenario runs.
fn setup(seed: u64) -> TaskData {
    TaskData::generate(task(), seed, Some(0))
}

/// The timed operation: `curate`, then `ScenarioRunner::run`.
fn entry(data: &TaskData, seed: u64) -> (Vec<f64>, f64, f64) {
    let curation = curate(data, &config(seed));
    let runner = ScenarioRunner { data, model: model(), train: train_config(seed) };
    let eval = runner
        .run(&scenario(), Some(&curation))
        .unwrap_or_else(|e| panic!("ScenarioRunner::run failed: {e}"));
    (curation.probabilistic_labels, curation.ws_quality.f1, eval.auprc)
}

/// Untraced run: each operation adapts one world after timing its set-up,
/// followed by its share of the curated-labeler ticks.
pub fn run(seed: u64, seconds: f64, par: &ParConfig) -> Outcome {
    let mut out = Outcome::new();
    let mut e2e = EndToEnd::new(POOL_ROWS);
    let ops = worlds_for(seconds, OP_S);
    for i in 0..ops {
        let ws = world_seed(seed, i);
        let data = e2e.time_setup(|| setup(ws));
        let (posteriors, label_f1, auprc) = e2e.time_op(|| entry(&data, ws));
        out.check(valid_posteriors(&posteriors), "adapt_e2e: finite weak labels");
        out.check(auprc.is_finite(), "adapt_e2e: finite AUPRC");
        e2e.label_f1.push(label_f1);
        e2e.auprc.push(auprc);
        labeler_ticks(&task(), seed, &config(ws), par, (i, ops), &mut e2e, &mut out);
    }
    e2e.report(&mut out);
    out
}

/// The seed/dev split of the labeled corpus the curation driver uses for
/// propagation: a dev slice for threshold tuning, then every positive and
/// negatives up to the seed cap.
fn prop_split(labels: &[Label], config: &CurationConfig) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
    let mut idx: Vec<usize> = (0..labels.len()).collect();
    idx.shuffle(&mut rng);
    let dev_len = (labels.len() / 5).max(1).min(idx.len());
    let (dev, rest) = idx.split_at(dev_len);
    let mut seeds: Vec<usize> = rest.iter().copied().filter(|&r| labels[r].is_positive()).collect();
    let negatives = config.prop_max_seeds.saturating_sub(seeds.len());
    seeds.extend(rest.iter().copied().filter(|&r| !labels[r].is_positive()).take(negatives));
    (dev.to_vec(), seeds)
}

struct Replay {
    /// Time from the first replayed call to the last, traced or not.
    root_ms: f64,
    posteriors: Vec<f64>,
    auprc: f64,
    n_lfs: usize,
    candidates: usize,
    covered_rows: usize,
    patterns: usize,
    vertices: usize,
    edges: usize,
}

/// `curate` and `ScenarioRunner::run`, replayed stage by stage through the
/// layers' public functions with a span around each call.
fn replay(data: &TaskData, seed: u64, par: &ParConfig, tr: &mut Tracer) -> Replay {
    let start = Instant::now();
    let root = tr.begin("pipeline.adapt_e2e");
    let cfg = config(seed);
    let (text, pool, schema) = (&data.text, &data.pool, data.world.schema());
    let mined = tr.time("mining.mine", || mine(&data.world, text, &cfg));
    let lfs = mined.lfs;
    let dev = tr.time("labelmodel.apply", || LabelMatrix::apply_with(&text.table, &lfs, par));
    let prior = text.positive_rate().clamp(1e-4, 0.5);

    // Propagation over [seeds | dev | pool] on the batch graph.
    let (dev_idx, seed_idx) = prop_split(&text.labels, &cfg);
    let mut combined: FeatureTable = text.table.gather(&seed_idx);
    combined.extend_from(&text.table.gather(&dev_idx));
    combined.extend_from(&pool.table);
    let mut sim_cols = lf_columns(schema, &cfg);
    sim_cols.extend(schema.defs().iter().enumerate().filter_map(|(i, d)| {
        (d.set == FeatureSet::ModalitySpecific && matches!(d.kind, FeatureKind::Embedding { .. }))
            .then_some(i)
    }));
    let sim =
        tr.time("propagation.scales", || SimilarityConfig::uniform(sim_cols).fit_scales(&combined));
    let graph = tr.time("propagation.graph", || {
        GraphBuilder::approximate(cfg.prop_k, combined.len()).build(
            &combined,
            &sim,
            cfg.seed ^ 0x6EA9,
        )
    });
    let seeds: Vec<(usize, f64)> =
        seed_idx.iter().enumerate().map(|(v, &r)| (v, text.labels[r].as_f64())).collect();
    let prop_cfg = PropagationConfig { max_iters: 50, tol: 1e-4, prior };
    let scores = tr.time("propagation.solve", || propagate(&graph, &seeds, &prop_cfg));
    let dev_labels: Vec<Label> = dev_idx.iter().map(|&r| text.labels[r]).collect();
    let dev_scores = &scores[seed_idx.len()..seed_idx.len() + dev_idx.len()];
    let tuned = tune_score_thresholds(
        dev_scores,
        &dev_labels,
        cfg.prop_min_precision,
        cfg.prop_max_leakage,
    );
    let vote = |s: f64, t: &cm_propagation::TunedThresholds| -> i8 {
        if s >= t.positive {
            1
        } else if s <= t.negative {
            -1
        } else {
            0
        }
    };

    let base = tr.time("labelmodel.apply", || LabelMatrix::apply_with(&pool.table, &lfs, par));
    let mut names: Vec<String> = lfs.iter().map(|l| l.name().to_owned()).collect();
    let (pool_matrix, dev_prop) = match &tuned {
        None => (base, None),
        Some(t) => {
            names.push("label_propagation".to_owned());
            let pool_scores = &scores[seed_idx.len() + dev_idx.len()..];
            let mut votes = Vec::with_capacity(base.n_rows() * names.len());
            for (r, &s) in pool_scores.iter().enumerate() {
                votes.extend_from_slice(base.row(r));
                votes.push(vote(s, t));
            }
            let dev_votes: Vec<i8> = dev_scores.iter().map(|&s| vote(s, t)).collect();
            (LabelMatrix::from_votes(base.n_rows(), names.len(), votes, names), Some(dev_votes))
        }
    };

    let fit = tr.begin("labelmodel.fit");
    let mut silent = dev_silent_columns(&dev);
    let mut rates: Vec<LfRates> =
        AnchoredModel::fit(&dev, &text.labels, Some(prior)).rates().to_vec();
    if let Some(v) = &dev_prop {
        if v.iter().all(|&x| x == 0) {
            silent.push(rates.len());
        }
        rates.push(LfRates::estimate(v, &dev_labels));
    }
    let rates = rates.into_iter().enumerate().filter(|(c, _)| !silent.contains(c)).map(|(_, r)| r);
    let label_model = AnchoredModel::from_rates(rates.collect(), prior);
    tr.end(fit);
    let active = if silent.is_empty() { pool_matrix } else { pool_matrix.without_columns(&silent) };
    let posteriors = tr.time("labelmodel.predict", || label_model.predict(&active));

    // Training: the scenario's dense layout, early fusion, test AUPRC.
    let sets = FeatureSet::SHARED;
    let mut columns = schema.columns_in_sets(&sets, true);
    columns.sort_unstable();
    columns.dedup();
    let view = DenseView::fit(&[&text.table, &pool.table, &data.labeled_image.table], columns)
        .unwrap_or_else(|e| panic!("dense view: {e}"));
    let mut allowed = sets.to_vec();
    allowed.push(FeatureSet::ModalitySpecific);
    let encode = |table: &FeatureTable| {
        let mut x = view.encode(table);
        mask_disallowed_sets(&mut x, &view, schema, &allowed);
        x
    };
    let parts = [
        ModalityData::new(encode(&text.table), text.labels_f64()),
        ModalityData::new(encode(&pool.table), posteriors.clone()),
    ];
    let xt = encode(&data.test.table);
    let trained = tr.time("models.train", || {
        EarlyFusionModel::train(&parts, &model(), &train_config(seed), None)
    });
    let truth: Vec<bool> = data.test.labels.iter().map(|l| l.is_positive()).collect();
    let auprc = tr.time("eval.auprc", || cm_eval::auprc(&trained.predict_proba(&xt), &truth));
    tr.end(root);

    Replay {
        root_ms: secs(start) * 1e3,
        covered_rows: (0..active.n_rows())
            .filter(|&r| active.row(r).iter().any(|&v| v != 0))
            .count(),
        patterns: distinct_patterns(&matrix_votes(&active), active.n_lfs()),
        posteriors,
        auprc,
        n_lfs: lfs.len(),
        candidates: mined.report.n_candidates,
        vertices: graph.n_vertices(),
        edges: graph.n_edges(),
    }
}

/// Traced run: the untraced entry point once, then the replay untraced and
/// traced. The replay must reproduce the entry point's weak labels and
/// AUPRC bit for bit.
pub fn run_traced(seed: u64, par: &ParConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let seed = world_seed(seed, 0);
    let data = tr.time("orgsim.generate", || setup(seed));
    let t = Instant::now();
    let (posteriors, _, auprc) = entry(&data, seed);
    let entry_ms = secs(t) * 1e3;
    out.check(auprc.is_finite(), "adapt_e2e: finite AUPRC");

    let untraced_ms = replay(&data, seed, par, &mut Tracer::new(false)).root_ms;
    let r = replay(&data, seed, par, tr);
    out.check(digest(&r.posteriors) == digest(&posteriors), "adapt_e2e: replay weak labels");
    out.check(r.auprc.to_bits() == auprc.to_bits(), "adapt_e2e: replay AUPRC");

    out.set("orgsim.generate_ms", tr.total_self_ms("orgsim.generate"));
    out.set("orgsim.rows", (TEXT_ROWS + POOL_ROWS + TEST_ROWS) as f64);
    out.set("mining.mine_ms", tr.total_self_ms("mining.mine"));
    out.set("mining.candidates", r.candidates as f64);
    out.set("mining.lfs", r.n_lfs as f64);
    out.set("mining.lf_yield", r.n_lfs as f64 / r.candidates.max(1) as f64);
    out.set("labelmodel.apply_ms", tr.total_self_ms("labelmodel.apply"));
    out.set("labelmodel.apply_rows", (TEXT_ROWS + POOL_ROWS) as f64);
    out.set("labelmodel.coverage", r.covered_rows as f64 / POOL_ROWS as f64);
    out.set("labelmodel.fit_ms", tr.total_self_ms("labelmodel.fit"));
    out.set("labelmodel.predict_ms", tr.total_self_ms("labelmodel.predict"));
    out.set("labelmodel.distinct_patterns", r.patterns as f64);
    out.set("propagation.scales_ms", tr.total_self_ms("propagation.scales"));
    out.set("propagation.graph_ms", tr.total_self_ms("propagation.graph"));
    out.set("propagation.solve_ms", tr.total_self_ms("propagation.solve"));
    out.set("propagation.vertices", r.vertices as f64);
    out.set("propagation.edges", r.edges as f64);
    out.set("models.train_ms", tr.total_self_ms("models.train"));
    out.set("models.epochs", EPOCHS as f64);
    out.set("eval.auprc_ms", tr.total_self_ms("eval.auprc"));
    out.set("pipeline.glue_ms", glue_ms(tr, "pipeline.adapt_e2e", entry_ms, untraced_ms));
    out.set("trace.overhead_pct", 100.0 * (r.root_ms - untraced_ms) / untraced_ms);
    out
}
