//! Pieces every workload shares: the metric lists, run statistics, the
//! OS memory reading, posterior digests, and the curated-labeler ticks.

use std::time::Instant;

use cm_featurespace::{FeatureSchema, Label, ModalityKind, ServingMode};
use cm_labelmodel::{AnchoredModel, LabelMatrix};
use cm_mining::{mine_lfs, MinedLfs};
use cm_orgsim::{ModalityDataset, TaskConfig, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::CurationConfig;

use crate::trace::Tracer;

/// Rows per arrival batch, in the serve loop and the labeler ticks alike.
pub const TICK_ROWS: usize = 20;

/// Set-ups per operation; `setup_s` is the median over all of a run's.
pub const SETUP_REPS: usize = 4;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("label_f1", "ratio"),
    ("auprc", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise, or does not replay span by span, reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("orgsim.generate_ms", "ms"),
    ("orgsim.rows", "count"),
    ("mining.mine_ms", "ms"),
    ("mining.candidates", "count"),
    ("mining.lfs", "count"),
    ("mining.lf_yield", "ratio"),
    ("labelmodel.apply_ms", "ms"),
    ("labelmodel.apply_rows", "count"),
    ("labelmodel.coverage", "ratio"),
    ("labelmodel.fit_ms", "ms"),
    ("labelmodel.predict_ms", "ms"),
    ("labelmodel.distinct_patterns", "count"),
    ("labelmodel.em_iters", "count"),
    ("propagation.scales_ms", "ms"),
    ("propagation.graph_ms", "ms"),
    ("propagation.solve_ms", "ms"),
    ("propagation.vertices", "count"),
    ("propagation.edges", "count"),
    ("models.train_ms", "ms"),
    ("models.epochs", "count"),
    ("eval.auprc_ms", "ms"),
    ("pipeline.glue_ms", "ms"),
    ("pipeline.preview_ms_p50", "ms"),
    ("pipeline.ingest_ms_p50", "ms"),
    ("pipeline.ingest_ms_p95", "ms"),
    ("shard.segments", "count"),
    ("shard.peak_tracked_mb", "MB"),
    ("shard.rss_gap_mb", "MB"),
    ("serve.checkpoint_ms_p50", "ms"),
    ("serve.checkpoint_ms_p95", "ms"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.base_writes", "count"),
    ("serve.recover_ms", "ms"),
    ("serve.rejected_batches", "count"),
    ("trace.overhead_pct", "%"),
    ("run.tick_samples", "count"),
];

/// A run's verdict and metrics, as printed on the last stdout line.
pub struct Outcome {
    /// Checks attempted (operations, ticks, recoveries, digests).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the metric lists.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Outcome { attempted: 0, failed: 0, metrics: Vec::new() }
    }

    /// Counts one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Records a metric; `name` must be in one of the metric lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The end-to-end figures of an untraced run.
pub struct EndToEnd {
    /// Set-up durations (s), one per repetition.
    pub setup_s: Vec<f64>,
    /// Timed-phase durations (s), one per operation.
    pub wall_s: Vec<f64>,
    /// Rows one operation processes.
    pub rows_per_op: usize,
    /// Tick durations (ms), one series per operation (`serve_ticks`) or
    /// labeler world.
    pub ticks_ms: Vec<Vec<f64>>,
    /// Weak-label F1 against the hidden ground truth, one per world.
    pub label_f1: Vec<f64>,
    /// AUPRC of the workload's final scores, one per world.
    pub auprc: Vec<f64>,
}

impl EndToEnd {
    /// Empty figures for a workload processing `rows_per_op` rows per
    /// operation.
    pub fn new(rows_per_op: usize) -> Self {
        EndToEnd {
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            rows_per_op,
            ticks_ms: Vec::new(),
            label_f1: Vec::new(),
            auprc: Vec::new(),
        }
    }

    /// Runs `setup` [`SETUP_REPS`] times, timing each; keeps the last result.
    pub fn time_setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            last = Some(setup());
            self.setup_s.push(secs(t));
        }
        last.expect("SETUP_REPS is positive")
    }

    /// Runs one timed operation.
    pub fn time_op<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = op();
        self.wall_s.push(secs(t));
        out
    }

    /// Fills `out` with every end-to-end metric. Each is a median, so that a
    /// burst of host noise or one odd world moves it little: over set-ups
    /// for `setup_s`, over operations for `wall_s` and `rows_per_s`, of each
    /// tick series' percentiles, and over worlds for quality.
    pub fn report(&self, out: &mut Outcome) {
        let rates: Vec<f64> = self.wall_s.iter().map(|w| self.rows_per_op as f64 / w).collect();
        let tick_q = |q: f64| -> f64 {
            median(&self.ticks_ms.iter().map(|t| quantile(t, q)).collect::<Vec<_>>())
        };
        out.set("setup_s", median(&self.setup_s));
        out.set("wall_s", median(&self.wall_s));
        out.set("rows_per_s", median(&rates));
        out.set("tick_ms_p50", tick_q(0.50));
        out.set("tick_ms_p95", tick_q(0.95));
        out.set("peak_rss_mb", vm_hwm_mb());
        let success = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        out.set("success_rate", success);
        out.set("label_f1", median(&self.label_f1));
        out.set("auprc", median(&self.auprc));
        println!(
            "{} operations; tick percentiles per series of {:?} ticks; {} set-ups",
            self.wall_s.len(),
            self.ticks_ms.iter().map(Vec::len).collect::<Vec<_>>(),
            self.setup_s.len()
        );
    }
}

/// Time the entry point spends outside the replayed layer calls: what the
/// entry point does beyond the replay (its untraced time minus the
/// untraced replay's), plus the replay's own work between layer spans (the
/// self time of its `root` span).
pub fn glue_ms(tr: &Tracer, root: &str, entry_ms: f64, untraced_replay_ms: f64) -> f64 {
    entry_ms - untraced_replay_ms + tr.total_self_ms(root)
}

/// Seed of the `i`-th world a run processes, derived from the run's seed
/// (splitmix64), so one seed always yields the same sequence of inputs.
pub fn world_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worlds a run processes, one operation each: as many operations of
/// about `op_s` seconds as fit in `seconds`, at least one. A function of the
/// arguments alone, so one seed always yields the same inputs.
pub fn worlds_for(seconds: f64, op_s: f64) -> usize {
    ((seconds / op_s).floor() as usize).max(1)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile of `v` at `q` in `[0, 1]` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, read from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the posteriors' bit patterns.
pub fn digest(posteriors: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in posteriors {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Whether every posterior is a finite probability.
pub fn valid_posteriors(p: &[f64]) -> bool {
    p.iter().all(|q| q.is_finite() && (0.0..=1.0).contains(q))
}

/// Distinct vote vectors among the rows of a row-major `n_cols` matrix.
pub fn distinct_patterns(votes: &[i8], n_cols: usize) -> usize {
    if n_cols == 0 {
        return usize::from(!votes.is_empty());
    }
    let mut rows: Vec<&[i8]> = votes.chunks(n_cols).collect();
    rows.sort_unstable();
    rows.dedup();
    rows.len()
}

/// The rows of a label matrix, concatenated row-major.
pub fn matrix_votes(m: &LabelMatrix) -> Vec<i8> {
    (0..m.n_rows()).flat_map(|r| m.row(r).iter().copied()).collect()
}

/// The columns LFs may reference: the configured shared feature sets,
/// optionally filtered to servable features (as the curation drivers do).
pub fn lf_columns(schema: &FeatureSchema, config: &CurationConfig) -> Vec<usize> {
    schema
        .columns_in_sets(&config.lf_sets, false)
        .into_iter()
        .filter(|&c| {
            config.include_nonservable
                || schema.def(c).map(|d| d.serving) == Some(ServingMode::Servable)
        })
        .collect()
}

/// Mines LFs over the labeled text corpus with the curation settings.
pub fn mine(world: &World, text: &ModalityDataset, config: &CurationConfig) -> MinedLfs {
    mine_lfs(
        &text.table,
        &text.labels,
        &lf_columns(world.schema(), config),
        &config.mining,
        config.max_positive_lfs,
        config.max_negative_lfs,
    )
}

/// Columns whose LF abstains on every dev row; curation drops them.
pub fn dev_silent_columns(dev: &LabelMatrix) -> Vec<usize> {
    (0..dev.n_lfs()).filter(|&c| (0..dev.n_rows()).all(|r| dev.row(r)[c] == 0)).collect()
}

/// Worlds the curated-labeler ticks cover per run.
pub const TICK_WORLDS: usize = 12;
/// Labeler ticks per world.
const TICKS_PER_WORLD: usize = 250;

/// Ticks of a single-shot workload: the curated labeler at work. For the
/// share of the run's [`TICK_WORLDS`] labeler worlds that falls to operation
/// `op` of `ops` (spreading the ticks over the run, as the operations are),
/// mine LFs on the world's labeled text corpus and anchor the label model on
/// it (untimed), then label [`TICKS_PER_WORLD`] arrival batches of
/// [`TICK_ROWS`] image rows, timing each batch (generation excluded). Tick
/// times go to `e2e`, every batch's posteriors are checked; returns each
/// world's AUPRC.
#[allow(clippy::too_many_arguments)]
pub fn labeler_ticks(
    task: &TaskConfig,
    seed: u64,
    config: &CurationConfig,
    par: &ParConfig,
    (op, ops): (usize, usize),
    e2e: &mut EndToEnd,
    out: &mut Outcome,
) -> Vec<f64> {
    (op * TICK_WORLDS / ops..(op + 1) * TICK_WORLDS / ops)
        .map(|k| {
            let ws = world_seed(seed ^ 0x71C5, k);
            let world = World::build(WorldConfig::new(task.clone(), ws));
            let text = world.generate(ModalityKind::Text, task.n_text_labeled, ws ^ 0xD1CE ^ 0x1);
            let lfs = mine(&world, &text, config).lfs;
            let dev = LabelMatrix::apply_with(&text.table, &lfs, par);
            let prior = text.positive_rate().clamp(1e-4, 0.5);
            let silent = dev_silent_columns(&dev);
            let keep = |c: &usize| !silent.contains(c);
            let model = AnchoredModel::fit(&dev, &text.labels, Some(prior));
            let rates = (0..lfs.len()).filter(keep).map(|c| model.rates()[c]).collect();
            let model = AnchoredModel::from_rates(rates, prior);
            let lfs: Vec<_> =
                lfs.into_iter().enumerate().filter(|(c, _)| keep(c)).map(|(_, l)| l).collect();

            let mut stream = world.stream(ModalityKind::Image, TICKS_PER_WORLD * TICK_ROWS, ws);
            let (mut ticks, mut scores, mut truth) = (Vec::new(), Vec::new(), Vec::new());
            while let Some(batch) = stream.next_segment(TICK_ROWS) {
                let t = Instant::now();
                let posteriors = model.predict(&LabelMatrix::apply_with(&batch.table, &lfs, par));
                ticks.push(secs(t) * 1e3);
                out.check(valid_posteriors(&posteriors), "labeler tick posteriors in [0, 1]");
                scores.extend(posteriors);
                truth.extend_from_slice(&batch.labels);
            }
            e2e.ticks_ms.push(ticks);
            auprc(&scores, &truth)
        })
        .collect()
}

/// AUPRC of `scores` against `truth`.
pub fn auprc(scores: &[f64], truth: &[Label]) -> f64 {
    let positives: Vec<bool> = truth.iter().map(|l| l.is_positive()).collect();
    cm_eval::auprc(scores, &positives)
}

/// Weak-label F1 with the curation drivers' definition: a row counts as
/// predicted positive when it is covered and its posterior is at least 0.5.
pub fn weak_f1(posteriors: &[f64], covered: &[bool], truth: &[Label]) -> f64 {
    let n_pos = truth.iter().filter(|l| l.is_positive()).count();
    let (mut tp, mut fp) = (0usize, 0usize);
    for ((&q, &cov), label) in posteriors.iter().zip(covered).zip(truth) {
        if cov && q >= 0.5 {
            if label.is_positive() {
                tp += 1;
            } else {
                fp += 1;
            }
        }
    }
    let precision = if tp + fp > 0 { tp as f64 / (tp + fp) as f64 } else { 0.0 };
    let recall = if n_pos > 0 { tp as f64 / n_pos as f64 } else { 0.0 };
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn patterns_count_distinct_rows() {
        assert_eq!(distinct_patterns(&[1, 0, 1, 0, 0, -1], 2), 2);
    }
}
