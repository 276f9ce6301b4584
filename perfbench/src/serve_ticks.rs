//! `serve_ticks`: a closed-loop tick loop over the incremental curator.
//! Each tick offers one arrival batch and then, in `cm_serve::run`'s
//! clean-path order, pops it, previews it, runs the quality guards,
//! ingests it, and checkpoints (base or delta record). After the last tick
//! the checkpoint is reopened and the curator restored from it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cm_faults::{AccessLayer, AccessPolicy, FaultPlan};
use cm_featurespace::ModalityKind;
use cm_orgsim::{ModalityDataset, TaskConfig, TaskId, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::{IncrementalConfig, IncrementalCurator};
use cm_propagation::OnlineGraph;
use cm_serve::snapshot::{capture, capture_delta};
use cm_serve::{
    Admission, AdmissionQueue, CheckpointFormat, CheckpointStore, CompactionPolicy, PendingWork,
    QualityGuards, QuarantinedBatch, QueueConfig, QueuedBatch, ServeTelemetry,
};

use crate::common::{
    auprc, distinct_patterns, mine, quantile, secs, valid_posteriors, weak_f1, world_seed,
    worlds_for, EndToEnd, Outcome, TICK_ROWS,
};
use crate::trace::Tracer;

/// Arrival batches per loop, of [`TICK_ROWS`] rows each. A guard-rejected
/// batch is retried `retry_after_ticks` later, which adds a tick.
const TICKS: usize = 240;
/// Nominal seconds of one operation; sizes the run (see `worlds_for`).
const OP_S: f64 = 5.8;
/// Simulated milliseconds between ticks and per ingest (as `ServeConfig`).
const INTER_BATCH_MS: u64 = 40;
const PROCESS_MS: u64 = 25;

fn task() -> TaskConfig {
    TaskConfig::paper(TaskId::Ct2).scaled(0.02)
}

fn config() -> IncrementalConfig {
    let mut c = IncrementalConfig::default();
    c.curation.prop_max_seeds = 400;
    c.curation.mining.min_recall = 0.05;
    c
}

/// The service's guards with the entropy-delta and abstain-rate guards
/// opened, as the serve crate's own small-batch test sets them: over 20 rows
/// a clean batch's mean posterior entropy can jump past the default 0.25
/// nats, and its abstain rate past 0.995. The coverage guard keeps its
/// default, so a batch on which no LF votes for any row is still rejected.
fn guards() -> QualityGuards {
    QualityGuards { max_abstain: 1.0, max_entropy_delta: f64::INFINITY, ..QualityGuards::default() }
}

/// Everything a loop starts from.
struct Service {
    world: World,
    text: ModalityDataset,
    curator: IncrementalCurator,
    access: AccessLayer,
    store: CheckpointStore,
    path: PathBuf,
}

fn open_store(
    path: &Path,
    world: &World,
) -> (CheckpointStore, Option<cm_serve::snapshot::Checkpoint>) {
    CheckpointStore::open(path, CheckpointFormat::Wire, CompactionPolicy::default(), world.schema())
        .unwrap_or_else(|e| panic!("checkpoint store: {e}"))
}

/// World, text corpus, curator, access layer, and a store on a fresh file.
fn setup(seed: u64, path: &Path, tr: &mut Tracer) -> Service {
    let _ = std::fs::remove_file(path);
    let (world, text) = tr.time("orgsim.generate", || {
        let world = World::build(WorldConfig::new(task(), seed));
        let text = world.generate(ModalityKind::Text, task().n_text_labeled, seed ^ 0xD1CE ^ 0x1);
        (world, text)
    });
    let curator =
        tr.time("pipeline.curator_new", || IncrementalCurator::new(&world, &text, config()));
    let policy = AccessPolicy { breaker_cooldown_ms: 400, ..AccessPolicy::default() };
    let access =
        AccessLayer::new(&FaultPlan::disabled(), policy, &world.service_descriptors(), seed)
            .unwrap_or_else(|e| panic!("access layer: {e}"));
    let (store, existing) = tr.time("serve.open", || open_store(path, &world));
    assert!(existing.is_none(), "fresh checkpoint file expected");
    Service { world, text, curator, access, store, path: path.to_path_buf() }
}

/// What one loop measured.
struct Loop {
    wall_s: f64,
    ticks_ms: Vec<f64>,
    ingested: usize,
    rejected: usize,
    dropped: usize,
    valid_ticks: usize,
    em_iters: usize,
    checkpoint_bytes: usize,
    base_writes: usize,
    restored_identical: bool,
    label_f1: f64,
    auprc: f64,
    coverage: f64,
    patterns: usize,
    vertices: usize,
    edges: usize,
}

fn run_loop(svc: Service, seed: u64, par: &ParConfig, tr: &mut Tracer) -> Loop {
    let Service { world, text, mut curator, mut access, mut store, path } = svc;
    let guards = guards();
    let mut queue = AdmissionQueue::new(QueueConfig::default());
    let mut telemetry = ServeTelemetry::default();
    let mut stream = world.stream(ModalityKind::Image, TICKS * TICK_ROWS, seed ^ 0xD1CE ^ 0x2);
    let (mut rows_generated, mut rejected, mut dropped) = (0, 0, 0);
    let (mut em_iters, mut bytes, mut bases) = (0, 0, 0);
    // Guard-rejected batches wait here for their single retry.
    let mut quarantine: Vec<QuarantinedBatch> = Vec::new();
    // Telemetry lengths at the last durable record: deltas carry the rest.
    let (mut stats_durable, mut lat_durable) = (0, 0);
    let mut ticks_ms = Vec::with_capacity(TICKS);
    let (mut tick, mut valid_ticks) = (0, 0);
    let start = Instant::now();
    while stream.remaining() > 0 || !queue.is_empty() || !quarantine.is_empty() {
        tick += 1;
        access.advance_clock_ms(INTER_BATCH_MS);
        // Closed loop: the next batch arrives once the previous one has
        // left the queue, so the queue never holds more than one.
        let arrival = if queue.is_empty() {
            tr.time("orgsim.generate", || stream.next_segment(TICK_ROWS))
        } else {
            None
        };
        rows_generated += arrival.as_ref().map_or(0, ModalityDataset::len);

        let t = Instant::now();
        let span = tr.begin("serve.tick");
        // Offer the arrival, then take one unit of work: a due retry first,
        // else the queued batch.
        let (item, retry) = tr.time("serve.queue", || {
            if let Some(batch) = arrival {
                let offered = QueuedBatch { batch, arrival_ms: access.now_ms(), deferrals: 0 };
                let admitted = queue.offer(offered);
                assert!(matches!(admitted, Admission::Admitted), "an idle queue admits a batch");
            }
            match quarantine.iter().position(|q| q.retry_tick <= tick) {
                Some(pos) => (Some(quarantine.remove(pos).item), true),
                None => (queue.pop(), false),
            }
        });
        if let Some(item) = item {
            let preview = tr.time("pipeline.preview", || curator.preview_batch(&item.batch, par));
            let verdict =
                tr.time("serve.guards", || guards.evaluate(&preview, telemetry.last_entropy));
            if verdict.pass {
                access.advance_clock_ms(PROCESS_MS);
                let stats = tr.time("pipeline.ingest", || curator.ingest_batch(&item.batch, par));
                em_iters += stats.em_iterations;
                telemetry.latencies_ms.push(access.now_ms().saturating_sub(item.arrival_ms));
                telemetry.last_entropy = Some(stats.mean_entropy);
                telemetry.batch_stats.push(stats);
            } else if retry {
                dropped += 1;
            } else {
                rejected += 1;
                let retry_tick = tick + guards.retry_after_ticks;
                quarantine.push(QuarantinedBatch {
                    item,
                    retry_tick,
                    attempts: 1,
                    reasons: verdict.reasons,
                });
            }
        }
        let checkpoint = tr.begin("serve.checkpoint");
        telemetry.shed = queue.report().clone();
        let pending = PendingWork {
            queue: queue.items().cloned().collect(),
            deferred: Vec::new(),
            quarantine: quarantine.clone(),
        };
        let written = if store.needs_base() {
            bases += 1;
            let cp = capture(
                tick,
                rows_generated,
                access.export_state(),
                curator.export_state(),
                pending,
                telemetry.clone(),
            );
            store.commit_base(&cp)
        } else {
            let delta = capture_delta(
                tick,
                rows_generated,
                access.export_state(),
                curator.export_delta(),
                pending,
                &telemetry,
                stats_durable,
                lat_durable,
            );
            store.commit_delta(&delta)
        };
        stats_durable = telemetry.batch_stats.len();
        lat_durable = telemetry.latencies_ms.len();
        bytes += written.unwrap_or_else(|e| panic!("checkpoint commit: {e}"));
        tr.end(checkpoint);
        tr.end(span);
        ticks_ms.push(secs(t) * 1e3);
        let posteriors = curator.posteriors();
        valid_ticks +=
            usize::from(posteriors.len() == curator.n_rows() && valid_posteriors(posteriors));
    }

    // Recovery read: reopen the log and restore the curator from it.
    let recover = tr.begin("serve.recover");
    let (_, recovered) = open_store(&path, &world);
    let state = recovered.expect("the log holds a checkpoint").curator;
    let restored = IncrementalCurator::restore(&world, &text, config(), state, par);
    tr.end(recover);
    let wall_s = secs(start);

    let live = curator.posteriors();
    let identical = live.len() == restored.posteriors().len()
        && live.iter().zip(restored.posteriors()).all(|(a, b)| a.to_bits() == b.to_bits());
    let truth = &curator.pool().labels;
    let covered = curator.covered();
    let label_f1 = weak_f1(live, covered, truth);
    let auprc = auprc(live, truth);
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / covered.len().max(1) as f64;
    let final_state = curator.export_state();
    let n_base = final_state.votes.len() / final_state.pool.len().max(1);
    let patterns = distinct_patterns(&final_state.votes, n_base);
    let (vertices, edges) = final_state.graph.map_or((0, 0), |g| {
        let online = OnlineGraph::from_snapshot(config().curation.prop_k, g);
        (online.n_rows(), online.n_edges())
    });
    let _ = std::fs::remove_file(&path);
    Loop {
        wall_s,
        ticks_ms,
        ingested: telemetry.batch_stats.len(),
        rejected,
        dropped,
        valid_ticks,
        em_iters,
        checkpoint_bytes: bytes,
        base_writes: bases,
        restored_identical: identical,
        label_f1,
        auprc,
        coverage,
        patterns,
        vertices,
        edges,
    }
}

/// Per tick, the curator holds one finite probability per pooled row. Per
/// loop, every arrival batch is ingested, and the curator restored from the
/// checkpoint matches the live one bit for bit.
fn check(out: &mut Outcome, l: &Loop) {
    for i in 0..l.ticks_ms.len() {
        out.check(i < l.valid_ticks, "serve_ticks: tick posteriors finite in [0, 1]");
    }
    out.check(l.ingested == TICKS, "serve_ticks: every arrival batch ingested");
    out.check(l.restored_identical, "serve_ticks: restored posteriors bit-identical to live");
}

/// Untraced run: each loop serves one world, after timing its set-up.
pub fn run(seed: u64, seconds: f64, par: &ParConfig, work: &Path) -> Outcome {
    let mut out = Outcome::new();
    let mut e2e = EndToEnd::new(TICKS * TICK_ROWS);
    let off = &mut Tracer::new(false);
    let path = work.join(format!("serve-{}.ckpt", std::process::id()));
    for i in 0..worlds_for(seconds, OP_S) {
        let ws = world_seed(seed, i);
        let svc = e2e.time_setup(|| setup(ws, &path, off));
        let l = run_loop(svc, ws, par, off);
        check(&mut out, &l);
        println!(
            "world {i}: {:.3} s, F1 {:.3}, {} ticks, {} batches ingested, {} guard rejections, \
             {} dropped on retry",
            l.wall_s,
            l.label_f1,
            l.ticks_ms.len(),
            l.ingested,
            l.rejected,
            l.dropped
        );
        e2e.wall_s.push(l.wall_s);
        e2e.ticks_ms.push(l.ticks_ms);
        e2e.label_f1.push(l.label_f1);
        e2e.auprc.push(l.auprc);
    }
    e2e.report(&mut out);
    out
}

/// Traced run: one loop untraced, one traced; the per-layer figures come
/// from the traced loop's spans.
pub fn run_traced(seed: u64, par: &ParConfig, tr: &mut Tracer, work: &Path) -> Outcome {
    let mut out = Outcome::new();
    let seed = world_seed(seed, 0);
    let path = work.join(format!("serve-{}.ckpt", std::process::id()));
    let untraced =
        run_loop(setup(seed, &path, &mut Tracer::new(false)), seed, par, &mut Tracer::new(false));
    check(&mut out, &untraced);

    let svc = setup(seed, &path, tr);
    // `IncrementalCurator::new` mines inside one call; mining is replayed
    // on its own so the mining layer gets a span and its counts.
    let mined = tr.time("mining.mine", || mine(&svc.world, &svc.text, &config().curation));
    let l = run_loop(svc, seed, par, tr);
    check(&mut out, &l);
    for (name, a, b) in [
        ("em_iters", untraced.em_iters, l.em_iters),
        ("checkpoint_bytes", untraced.checkpoint_bytes, l.checkpoint_bytes),
    ] {
        out.check(a == b, &format!("serve_ticks: {name} repeats across loops"));
    }

    let ms = |name: &str| tr.durations_ms(name);
    let candidates = mined.report.n_candidates;
    out.set("orgsim.generate_ms", tr.total_self_ms("orgsim.generate"));
    out.set("orgsim.rows", (task().n_text_labeled + TICKS * TICK_ROWS) as f64);
    out.set("mining.mine_ms", tr.total_self_ms("mining.mine"));
    out.set("mining.candidates", candidates as f64);
    out.set("mining.lfs", mined.lfs.len() as f64);
    out.set("mining.lf_yield", mined.lfs.len() as f64 / candidates.max(1) as f64);
    out.set("labelmodel.coverage", l.coverage);
    out.set("labelmodel.distinct_patterns", l.patterns as f64);
    out.set("labelmodel.em_iters", l.em_iters as f64);
    out.set("propagation.vertices", l.vertices as f64);
    out.set("propagation.edges", l.edges as f64);
    out.set("pipeline.preview_ms_p50", quantile(&ms("pipeline.preview"), 0.5));
    out.set("pipeline.ingest_ms_p50", quantile(&ms("pipeline.ingest"), 0.5));
    out.set("pipeline.ingest_ms_p95", quantile(&ms("pipeline.ingest"), 0.95));
    out.set("pipeline.glue_ms", tr.total_self_ms("serve.tick"));
    out.set("serve.checkpoint_ms_p50", quantile(&ms("serve.checkpoint"), 0.5));
    out.set("serve.checkpoint_ms_p95", quantile(&ms("serve.checkpoint"), 0.95));
    out.set("serve.checkpoint_bytes", l.checkpoint_bytes as f64);
    out.set("serve.base_writes", l.base_writes as f64);
    out.set("serve.recover_ms", ms("serve.recover")[0]);
    out.set("serve.rejected_batches", l.rejected as f64);
    out.set("run.tick_samples", l.ticks_ms.len() as f64);
    out.set("trace.overhead_pct", 100.0 * (l.wall_s - untraced.wall_s) / untraced.wall_s);
    out
}
