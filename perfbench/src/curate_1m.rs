//! `curate_1m`: streamed curation of 10^6 image rows with propagation off
//! and the anchored label model, at the default shard config (the
//! `results/BENCH_scale.json` configuration).

use std::time::Instant;

use cm_featurespace::ModalityKind;
use cm_labelmodel::{AnchoredModel, LabelMatrix};
use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::{curate_streamed_with, CurationConfig, StreamedCuration};
use cm_shard::{for_each_pool_segment, MemTracker, ShardConfig};

use crate::common::{
    dev_silent_columns, digest, distinct_patterns, glue_ms, labeler_ticks, matrix_votes, mine,
    secs, valid_posteriors, vm_hwm_mb, world_seed, worlds_for, EndToEnd, Outcome,
};
use crate::trace::Tracer;

/// Unlabeled image rows curated per operation.
const POOL_ROWS: usize = 1_000_000;
/// Labeled text rows LFs are mined from.
const TEXT_ROWS: usize = 2_000;
/// Nominal seconds of one operation; sizes the run (see `worlds_for`).
const OP_S: f64 = 8.75;

fn task() -> TaskConfig {
    TaskConfig {
        n_text_labeled: TEXT_ROWS,
        n_image_unlabeled: POOL_ROWS,
        n_image_test: 0,
        ..TaskConfig::paper(TaskId::Ct1)
    }
}

fn config() -> CurationConfig {
    CurationConfig { use_label_propagation: false, ..CurationConfig::default() }
}

/// The world and labeled text corpus, derived as the streamed driver does.
fn setup(seed: u64) -> (World, cm_orgsim::ModalityDataset) {
    let world = World::build(WorldConfig::new(task(), seed));
    let text = world.generate(ModalityKind::Text, TEXT_ROWS, seed ^ 0xD1CE ^ 0x1);
    (world, text)
}

fn entry(seed: u64, par: &ParConfig) -> StreamedCuration {
    curate_streamed_with(task(), seed, &config(), &ShardConfig::default(), par)
        .unwrap_or_else(|e| panic!("curate_streamed failed: {e}"))
}

/// `pinned_lfs` is the LF count the resident miner yields on the same
/// labeled corpus; the streamed driver must mine exactly as many.
fn check_entry(out: &mut Outcome, streamed: &StreamedCuration, pinned_lfs: usize) {
    let o = &streamed.output;
    out.check(
        o.probabilistic_labels.len() == POOL_ROWS && valid_posteriors(&o.probabilistic_labels),
        "curate_1m: 10^6 finite posteriors in [0, 1]",
    );
    out.check(o.lf_names.len() == pinned_lfs, "curate_1m: LF count equals the resident miner's");
}

/// Untraced run: each operation curates one world after timing its
/// set-up, followed by its share of the curated-labeler ticks.
pub fn run(seed: u64, seconds: f64, par: &ParConfig) -> Outcome {
    let mut out = Outcome::new();
    let mut e2e = EndToEnd::new(POOL_ROWS);
    let ops = worlds_for(seconds, OP_S);
    for i in 0..ops {
        let ws = world_seed(seed, i);
        let (world, text) = e2e.time_setup(|| setup(ws));
        let resident_lfs = mine(&world, &text, &config()).lfs.len();
        let streamed = e2e.time_op(|| entry(ws, par));
        check_entry(&mut out, &streamed, resident_lfs);
        e2e.label_f1.push(streamed.output.ws_quality.f1);
        drop(streamed);
        let auprcs = labeler_ticks(&task(), seed, &config(), par, (i, ops), &mut e2e, &mut out);
        e2e.auprc.extend(auprcs);
    }
    e2e.report(&mut out);
    out
}

/// The posteriors `curate_streamed` computes, replayed stage by stage
/// through the layers' public functions, with a span around each call.
struct Replay {
    /// Time from the first replayed call to the last, traced or not.
    root_ms: f64,
    posteriors: Vec<f64>,
    covered_rows: usize,
    n_lfs: usize,
    candidates: usize,
    segments: usize,
    apply_rows: usize,
    patterns: usize,
}

fn replay(seed: u64, par: &ParConfig, tr: &mut Tracer) -> Replay {
    let start = Instant::now();
    let root = tr.begin("pipeline.curate_1m");
    let (world, text) = tr.time("orgsim.generate", || setup(seed));
    let cfg = config();
    let mined = tr.time("mining.mine", || mine(&world, &text, &cfg));
    let lfs = mined.lfs;
    let dev = tr.time("labelmodel.apply", || LabelMatrix::apply_with(&text.table, &lfs, par));
    let prior = text.positive_rate().clamp(1e-4, 0.5);

    // The pool sweep: segment generation is the sweep's self time, LF
    // application its child spans.
    let shard = ShardConfig::default();
    let names: Vec<String> = lfs.iter().map(|l| l.name().to_owned()).collect();
    let mut pool = LabelMatrix::with_row_capacity(POOL_ROWS, names);
    let mut tracker = MemTracker::new(shard.budget);
    let mut segments = 0;
    let sweep = tr.begin("orgsim.generate");
    for_each_pool_segment(
        &world,
        ModalityKind::Image,
        POOL_ROWS,
        seed ^ 0xD1CE ^ 0x2,
        shard.segment_rows,
        &mut tracker,
        &mut |_, seg, _| {
            segments += 1;
            tr.time("labelmodel.apply", || pool.apply_append_with(&seg.table, &lfs, par));
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("pool sweep failed: {e}"));
    tr.end(sweep);

    // Curation drops columns that abstain on every dev row.
    let fit = tr.begin("labelmodel.fit");
    let silent = dev_silent_columns(&dev);
    let rates: Vec<_> = AnchoredModel::fit(&dev, &text.labels, Some(prior))
        .rates()
        .iter()
        .enumerate()
        .filter(|(c, _)| !silent.contains(c))
        .map(|(_, r)| *r)
        .collect();
    let model = AnchoredModel::from_rates(rates, prior);
    tr.end(fit);
    let active = if silent.is_empty() { pool } else { pool.without_columns(&silent) };
    let posteriors = tr.time("labelmodel.predict", || model.predict(&active));
    tr.end(root);
    let root_ms = secs(start) * 1e3;

    let covered_rows =
        (0..active.n_rows()).filter(|&r| active.row(r).iter().any(|&v| v != 0)).count();
    let patterns = distinct_patterns(&matrix_votes(&active), active.n_lfs());
    Replay {
        root_ms,
        posteriors,
        covered_rows,
        n_lfs: lfs.len(),
        candidates: mined.report.n_candidates,
        segments,
        apply_rows: TEXT_ROWS + POOL_ROWS,
        patterns,
    }
}

/// Traced run: the untraced entry point once (for the digest and the
/// glue), then the replay untraced and traced (for the tracing overhead).
pub fn run_traced(seed: u64, par: &ParConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    let seed = world_seed(seed, 0);
    let t = Instant::now();
    let streamed = entry(seed, par);
    let entry_ms = secs(t) * 1e3;
    let hwm_mb = vm_hwm_mb();
    let stats = streamed.stats;

    let untraced_ms = replay(seed, par, &mut Tracer::new(false)).root_ms;
    let r = replay(seed, par, tr);
    check_entry(&mut out, &streamed, r.n_lfs);
    out.check(
        digest(&r.posteriors) == digest(&streamed.output.probabilistic_labels),
        "curate_1m: replay digest equals entry's",
    );
    drop(streamed);

    out.set("orgsim.generate_ms", tr.total_self_ms("orgsim.generate"));
    out.set("orgsim.rows", (TEXT_ROWS + POOL_ROWS) as f64);
    out.set("mining.mine_ms", tr.total_self_ms("mining.mine"));
    out.set("mining.candidates", r.candidates as f64);
    out.set("mining.lfs", r.n_lfs as f64);
    out.set("mining.lf_yield", r.n_lfs as f64 / r.candidates.max(1) as f64);
    out.set("labelmodel.apply_ms", tr.total_self_ms("labelmodel.apply"));
    out.set("labelmodel.apply_rows", r.apply_rows as f64);
    out.set("labelmodel.coverage", r.covered_rows as f64 / POOL_ROWS as f64);
    out.set("labelmodel.fit_ms", tr.total_self_ms("labelmodel.fit"));
    out.set("labelmodel.predict_ms", tr.total_self_ms("labelmodel.predict"));
    out.set("labelmodel.distinct_patterns", r.patterns as f64);
    out.set("pipeline.glue_ms", glue_ms(tr, "pipeline.curate_1m", entry_ms, untraced_ms));
    out.set("shard.segments", r.segments as f64);
    out.set("shard.peak_tracked_mb", stats.peak_bytes as f64 / (1024.0 * 1024.0));
    out.set("shard.rss_gap_mb", hwm_mb - stats.peak_bytes as f64 / (1024.0 * 1024.0));
    out.check(r.segments == stats.segments, "curate_1m: replay segments equal entry's");
    out.set("trace.overhead_pct", 100.0 * (r.root_ms - untraced_ms) / untraced_ms);
    out
}
