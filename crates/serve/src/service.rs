//! The incremental curation service loop.
//!
//! Entities arrive in seeded arrival-order batches off a
//! [`cm_orgsim::DatasetStream`], featurized through the resilient
//! [`AccessLayer`] (PR 3's faults become live batch behavior). Each tick:
//!
//! 1. the simulated clock advances and deferred batches re-offer ahead of
//!    new arrivals;
//! 2. up to `arrivals_per_tick` batches are drawn from the stream and
//!    offered to the bounded admission queue (shed/defer under pressure);
//! 3. one unit of work is processed — a due quarantine retry takes
//!    priority, else the oldest queued batch: the batch is previewed,
//!    checked against the quality guards, and either ingested into the
//!    [`IncrementalCurator`] or quarantined;
//! 4. a versioned checkpoint is written (when configured), so a crashed
//!    run resumes **bit-identical** to an uninterrupted one.
//!
//! Determinism: every random draw is keyed on seeds and absolute row
//! indices, segment sizes are jittered by a per-offset hash, and the only
//! clock is the simulated one — so two runs of the same config, at any
//! `CM_THREADS`, with any crash/restart pattern, produce byte-identical
//! reports. Wall-clock time is measured ([`ServeTiming`]) but reported
//! out-of-band, never serialized into fixtures.

use std::path::PathBuf;
use std::time::Duration;

use cm_faults::{AccessLayer, AccessPolicy, FaultPlan, Stopwatch};
use cm_featurespace::{CmError, CmResult, ErrorKind, ModalityKind};
use cm_json::{Json, ToJson};
use cm_linalg::rng::{Rng, StdRng};
use cm_orgsim::{TaskConfig, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::{DegradationReport, IncrementalConfig, IncrementalCurator, ServingReport};

use crate::guards::{QualityGuards, QuarantinedBatch};
use crate::queue::{Admission, AdmissionQueue, QueueConfig, QueuedBatch};
use crate::snapshot::{
    self, CheckpointFormat, CheckpointStore, CompactionPolicy, PendingWork, ServeTelemetry,
};

/// Full configuration of a service run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Task whose world generates the arrival stream.
    pub task: TaskConfig,
    /// World/dataset seed (same role as in `TaskData::generate`).
    pub seed: u64,
    /// Curator configuration (mining, label model, propagation, refit cap).
    pub incremental: IncrementalConfig,
    /// Total rows the arrival stream will produce.
    pub total_rows: usize,
    /// Nominal rows per arrival batch (`CM_BATCH_ROWS`); actual sizes are
    /// deterministically jittered ±25 %.
    pub batch_rows: usize,
    /// Arrival batches offered per tick. Above 1 the service is
    /// structurally overloaded (it processes one batch per tick) and the
    /// backpressure path engages.
    pub arrivals_per_tick: usize,
    /// Simulated milliseconds between ticks.
    pub inter_batch_ms: u64,
    /// Simulated milliseconds one batch ingest takes.
    pub process_ms: u64,
    /// Admission-queue sizing (`CM_QUEUE_DEPTH`, `CM_MEM_BUDGET`).
    pub queue: QueueConfig,
    /// Per-batch quality-guard thresholds.
    pub guards: QualityGuards,
    /// Fault plan routed through the access layer (`CM_FAULTS`).
    pub plan: FaultPlan,
    /// Retry/breaker policy for the access layer.
    pub policy: AccessPolicy,
    /// Where to persist checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// When the delta log is folded back into a fresh base
    /// (`CM_CKPT_COMPACT_TICKS`, `CM_CKPT_COMPACT_FACTOR`).
    pub compaction: CompactionPolicy,
    /// Crash injection (`CM_CRASH_AT`): exit after the k-th batch ingest
    /// *before* that tick's checkpoint is written, so a resumed run
    /// reprocesses the interrupted tick. Clear it on the resume run.
    pub crash_at: Option<usize>,
}

impl ServeConfig {
    /// Serving defaults for `task`: small jittered batches, one arrival
    /// per tick, half-open breakers (cooldown 400 sim-ms) so degraded
    /// services can recover mid-run.
    pub fn new(task: TaskConfig, seed: u64) -> Self {
        let total_rows = task.n_image_unlabeled;
        Self {
            task,
            seed,
            incremental: IncrementalConfig::default(),
            total_rows,
            batch_rows: 60,
            arrivals_per_tick: 1,
            inter_batch_ms: 40,
            process_ms: 25,
            queue: QueueConfig::default(),
            guards: QualityGuards::default(),
            plan: FaultPlan::disabled(),
            policy: AccessPolicy { breaker_cooldown_ms: 400, ..AccessPolicy::default() },
            checkpoint_path: None,
            compaction: CompactionPolicy::default(),
            crash_at: None,
        }
    }

    /// Applies the serving environment knobs: `CM_BATCH_ROWS`,
    /// `CM_QUEUE_DEPTH`, `CM_MEM_BUDGET`, `CM_CRASH_AT`, `CM_FAULTS`,
    /// `CM_CKPT_COMPACT_TICKS`, `CM_CKPT_COMPACT_FACTOR`.
    pub fn with_env_overrides(mut self) -> CmResult<Self> {
        const LOC: &str = "ServeConfig::with_env_overrides";
        let bad = |knob: &str, v: &str| {
            CmError::new(ErrorKind::InvalidConfig, LOC, format!("{knob} {v:?} is not a number"))
        };
        if let Ok(v) = std::env::var("CM_BATCH_ROWS") {
            self.batch_rows = v.trim().parse().map_err(|_| bad("CM_BATCH_ROWS", &v))?;
        }
        if let Ok(v) = std::env::var("CM_QUEUE_DEPTH") {
            let depth: usize = v.trim().parse().map_err(|_| bad("CM_QUEUE_DEPTH", &v))?;
            self.queue.capacity = depth.max(1);
            self.queue.high_watermark = depth.saturating_sub(2).max(1);
        }
        if let Ok(v) = std::env::var("CM_CRASH_AT") {
            self.crash_at = Some(v.trim().parse().map_err(|_| bad("CM_CRASH_AT", &v))?);
        }
        if let Ok(v) = std::env::var("CM_CKPT_COMPACT_TICKS") {
            let ticks: usize = v.trim().parse().map_err(|_| bad("CM_CKPT_COMPACT_TICKS", &v))?;
            self.compaction.every_ticks = ticks.max(1);
        }
        if let Ok(v) = std::env::var("CM_CKPT_COMPACT_FACTOR") {
            let factor: f64 = v.trim().parse().map_err(|_| bad("CM_CKPT_COMPACT_FACTOR", &v))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(CmError::new(
                    ErrorKind::InvalidConfig,
                    LOC,
                    format!("CM_CKPT_COMPACT_FACTOR {v:?} must be a finite number >= 1"),
                ));
            }
            self.compaction.max_log_factor = factor;
        }
        self.queue.budget = cm_shard::MemBudget::from_env()?;
        self.plan = FaultPlan::from_env()?;
        Ok(self)
    }
}

/// Per-tick checkpoint write cost, recorded so the serve bench can plot
/// the flat (delta-log) vs linear (whole-file) persistence curve.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointTickCost {
    /// Tick at which this write happened.
    pub tick: usize,
    /// Wall-clock cost of capture + encode + write.
    pub elapsed: Duration,
    /// Bytes written to the checkpoint file this tick.
    pub bytes_written: usize,
    /// Whether this write was a full base snapshot (fresh file or
    /// compaction) rather than a delta append.
    pub wrote_base: bool,
}

/// Per-tick curation cost (previews, ingests, label-model refits), the
/// curve the serve bench plots beside [`CheckpointTickCost`]: flat when a
/// tick costs O(batch), rising when it grows with the pool.
#[derive(Debug, Clone, Copy)]
pub struct CurationTickCost {
    /// Tick this curation work happened in.
    pub tick: usize,
    /// Wall-clock cost of the tick's previews and ingests.
    pub elapsed: Duration,
    /// Pool rows after the tick.
    pub pool_rows: usize,
}

/// Wall-clock accounting of one run, reported out-of-band (never part of
/// deterministic fixtures).
#[derive(Debug, Clone, Default)]
pub struct ServeTiming {
    /// Whole `run` call.
    pub total: Duration,
    /// One-time startup: world build, text reservoir generation, access
    /// layer, curator construction or checkpoint restore.
    pub setup: Duration,
    /// Drawing + featurizing arrival batches (the data, not the service).
    pub generation: Duration,
    /// Core curation: previews, ingests, label-model refits.
    pub curation: Duration,
    /// Checkpoint capture + serialization + write (all ticks).
    pub checkpoint: Duration,
    /// Total bytes written to the checkpoint file.
    pub checkpoint_bytes: usize,
    /// Per-tick checkpoint write costs, in tick order.
    pub checkpoint_ticks: Vec<CheckpointTickCost>,
    /// Per-tick curation costs, in tick order, for ticks that curated.
    pub curation_ticks: Vec<CurationTickCost>,
}

impl ServeTiming {
    /// Serving-envelope time: admission, guard bookkeeping, report
    /// assembly — everything that is *service* rather than curation, data
    /// generation, or persistence.
    pub fn envelope(&self) -> Duration {
        self.total
            .saturating_sub(self.setup)
            .saturating_sub(self.generation)
            .saturating_sub(self.curation)
            .saturating_sub(self.checkpoint)
    }

    /// Envelope as a percentage of core curation time (the "< 2 % clean
    /// path overhead" acceptance metric).
    pub fn overhead_pct(&self) -> f64 {
        let curation = self.curation.as_secs_f64();
        if curation <= 0.0 {
            return 0.0;
        }
        100.0 * self.envelope().as_secs_f64() / curation
    }
}

/// Deterministic output of a completed run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-batch ingest statistics, in ingest order.
    pub batches: Vec<cm_pipeline::BatchStats>,
    /// Arrival-to-completion latency per ingested batch (sim ms).
    pub latencies_ms: Vec<u64>,
    /// Pool rows accumulated by the curator.
    pub rows_ingested: usize,
    /// Ticks the service ran.
    pub ticks: usize,
    /// Simulated time at shutdown.
    pub sim_ms: u64,
    /// Ingest throughput against the simulated clock.
    pub rows_per_sim_sec: f64,
    /// Admission-queue overload telemetry.
    pub shedding: crate::queue::SheddingReport,
    /// Serving-mode summary (also embedded in `degradation`).
    pub serving: ServingReport,
    /// End-of-run degradation report with serving fields attached.
    pub degradation: DegradationReport,
    /// FNV-1a 64 digest over the final posterior bits — the cheap
    /// bit-identity probe crash/restart tests compare.
    pub posterior_digest: String,
}

impl ToJson for ServeReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("batches", Json::arr(self.batches.iter().map(batch_stats_json))),
            (
                "latencies_ms",
                Json::Arr(self.latencies_ms.iter().map(|&l| Json::Num(l as f64)).collect()),
            ),
            ("rows_ingested", self.rows_ingested.to_json()),
            ("ticks", self.ticks.to_json()),
            ("sim_ms", Json::Num(self.sim_ms as f64)),
            ("rows_per_sim_sec", self.rows_per_sim_sec.to_json()),
            ("shedding", self.shedding.to_json()),
            ("serving", self.serving.to_json()),
            ("degradation", self.degradation.to_json()),
            ("posterior_digest", self.posterior_digest.to_json()),
        ])
    }
}

fn batch_stats_json(s: &cm_pipeline::BatchStats) -> Json {
    Json::obj([
        ("batch_index", s.batch_index.to_json()),
        ("rows", s.rows.to_json()),
        ("total_rows", s.total_rows.to_json()),
        ("coverage", s.coverage.to_json()),
        ("abstain_rate", s.abstain_rate.to_json()),
        ("mean_entropy", s.mean_entropy.to_json()),
        ("em_iterations", s.em_iterations.to_json()),
    ])
}

/// How a service run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Ran to completion (stream drained, queues empty).
    Completed {
        /// Deterministic run report.
        report: Box<ServeReport>,
        /// Out-of-band wall-clock accounting.
        timing: ServeTiming,
    },
    /// Crash injection fired (`crash_at`); resume off the last checkpoint.
    Crashed {
        /// Tick at which the injected crash fired.
        at_tick: usize,
    },
}

/// Deterministic ±25 % batch-size jitter keyed on the absolute stream
/// offset — stateless, so crash/restart cannot desynchronize it.
fn jittered_batch_rows(batch_rows: usize, seed: u64, row_offset: usize) -> usize {
    let spread = batch_rows / 4;
    if spread == 0 {
        return batch_rows.max(1);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_0000 ^ (row_offset as u64));
    (batch_rows - spread + rng.gen_range(0..=2 * spread)).max(1)
}

/// Runs the incremental curation service to completion (or injected
/// crash). See the module docs for the tick loop.
///
/// # Errors
/// Propagates access-layer construction/restore errors, checkpoint
/// parse/version errors, and filesystem errors on the checkpoint path.
pub fn run(config: &ServeConfig, par: &ParConfig) -> CmResult<RunOutcome> {
    const LOC: &str = "serve::run";
    let total = Stopwatch::start();
    let mut timing = ServeTiming::default();
    let setup = Stopwatch::start();

    // Clean-path state, re-derived identically on every (re)start.
    let world = World::build(WorldConfig::new(config.task.clone(), config.seed));
    let ds = config.seed ^ 0xD1CE;
    let text = world.generate(ModalityKind::Text, config.task.n_text_labeled, ds ^ 0x1);
    let mut access =
        AccessLayer::new(&config.plan, config.policy, &world.service_descriptors(), config.seed)?;
    let mut stream = world.stream(ModalityKind::Image, config.total_rows, ds ^ 0x2);

    // Arrival-dependent state: resumed from a checkpoint when one exists.
    // The store replays the wire base + delta log, truncating a torn tail
    // by checksum.
    let mut store = None;
    let mut existing = None;
    if let Some(path) = &config.checkpoint_path {
        let (s, cp) =
            CheckpointStore::open(path, CheckpointFormat::Wire, config.compaction, world.schema())?;
        store = Some(s);
        existing = cp;
    }
    let (
        mut curator,
        mut queue,
        mut deferred,
        mut quarantine,
        mut telemetry,
        mut tick,
        mut rows_generated,
    );
    match existing {
        Some(cp) => {
            // Stream fast-forward: clean draws consume the same world-RNG
            // count as fault-injected ones, so discarding the already-
            // generated rows re-aligns the generation cursor; the access
            // state restore then re-aligns breaker/clock state.
            let mut ff = cp.rows_generated;
            while ff > 0 {
                let seg = stream.next_segment(ff).ok_or_else(|| {
                    CmError::new(ErrorKind::InvalidConfig, LOC, "checkpoint cursor past stream end")
                })?;
                ff -= seg.len();
            }
            access.restore_state(&cp.access)?;
            curator = IncrementalCurator::restore(
                &world,
                &text,
                config.incremental.clone(),
                cp.curator,
                par,
            );
            queue = AdmissionQueue::restore(
                config.queue.clone(),
                cp.pending.queue,
                cp.telemetry.shed.clone(),
            );
            deferred = cp.pending.deferred;
            quarantine = cp.pending.quarantine;
            telemetry = cp.telemetry;
            tick = cp.ticks;
            rows_generated = cp.rows_generated;
        }
        None => {
            curator = IncrementalCurator::new(&world, &text, config.incremental.clone());
            queue = AdmissionQueue::new(config.queue.clone());
            deferred = Vec::new();
            quarantine = Vec::new();
            telemetry = ServeTelemetry::default();
            tick = 0;
            rows_generated = 0;
        }
    }

    timing.setup = setup.elapsed();

    // Telemetry vector lengths at the last durable record: delta records
    // carry only what grew past these marks.
    let mut stats_durable = telemetry.batch_stats.len();
    let mut lat_durable = telemetry.latencies_ms.len();

    // Termination is structural (finite stream, one processed item per
    // tick, single bounded retry per quarantined batch); the hard cap is
    // a never-hang backstop for config mistakes.
    let max_ticks = 64 + 8 * (config.total_rows / config.batch_rows.max(1) + quarantine.len() + 8);
    while stream.remaining() > 0
        || !queue.is_empty()
        || !deferred.is_empty()
        || !quarantine.is_empty()
    {
        if tick >= max_ticks {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                LOC,
                format!("service failed to drain within {max_ticks} ticks"),
            ));
        }
        tick += 1;
        access.advance_clock_ms(config.inter_batch_ms);
        let curation_before = timing.curation;

        // Deferred batches re-offer ahead of new arrivals.
        for item in std::mem::take(&mut deferred) {
            if let Admission::Deferred(b) = queue.offer(item) {
                deferred.push(*b);
            }
        }
        // New arrivals.
        for _ in 0..config.arrivals_per_tick {
            if stream.remaining() == 0 {
                break;
            }
            let rows = jittered_batch_rows(config.batch_rows, config.seed, rows_generated);
            let gen = Stopwatch::start();
            let batch = stream.next_segment_via(rows, &mut access, rows_generated as u64)?;
            timing.generation += gen.elapsed();
            let Some(batch) = batch else { break };
            rows_generated += batch.len();
            let item = QueuedBatch { batch, arrival_ms: access.now_ms(), deferrals: 0 };
            if let Admission::Deferred(b) = queue.offer(item) {
                deferred.push(*b);
            }
        }

        // Process one unit of work: a due quarantine retry, else the
        // oldest queued batch.
        let mut ingested_this_tick = false;
        if let Some(pos) = quarantine.iter().position(|q| q.retry_tick <= tick) {
            let q = quarantine.remove(pos);
            let cur = Stopwatch::start();
            let preview = curator.preview_batch(&q.item.batch, par);
            timing.curation += cur.elapsed();
            let verdict = config.guards.evaluate(&preview, telemetry.last_entropy);
            if verdict.pass {
                ingest(&mut curator, &mut access, config, q.item, &mut telemetry, &mut timing, par);
                telemetry.recovered += 1;
                ingested_this_tick = true;
            } else {
                // Second strike: the batch is dropped permanently.
                telemetry.dropped += 1;
            }
        } else if let Some(item) = queue.pop() {
            let cur = Stopwatch::start();
            let preview = curator.preview_batch(&item.batch, par);
            timing.curation += cur.elapsed();
            let verdict = config.guards.evaluate(&preview, telemetry.last_entropy);
            if verdict.pass {
                ingest(&mut curator, &mut access, config, item, &mut telemetry, &mut timing, par);
                ingested_this_tick = true;
            } else {
                telemetry.quarantined += 1;
                quarantine.push(QuarantinedBatch {
                    item,
                    retry_tick: tick + config.guards.retry_after_ticks,
                    attempts: 1,
                    reasons: verdict.reasons,
                });
            }
        }

        if timing.curation > curation_before {
            timing.curation_ticks.push(CurationTickCost {
                tick,
                elapsed: timing.curation - curation_before,
                pool_rows: curator.n_rows(),
            });
        }

        // Crash injection fires after the k-th ingest, *before* this
        // tick's checkpoint: the resumed run replays the whole tick.
        if ingested_this_tick && config.crash_at == Some(telemetry.batch_stats.len()) {
            return Ok(RunOutcome::Crashed { at_tick: tick });
        }

        if let Some(store) = store.as_mut() {
            let cpw = Stopwatch::start();
            telemetry.shed = queue.report().clone();
            let pending = PendingWork {
                queue: queue.items().cloned().collect(),
                deferred: deferred.clone(),
                quarantine: quarantine.clone(),
            };
            // Steady state appends one O(batch) delta record; a full
            // O(pool) base is written only on a fresh file or when the
            // compaction policy folds the log back down. Both advance the
            // curator's durable marks.
            let (bytes_written, wrote_base) = if store.needs_base() {
                let cp = snapshot::capture(
                    tick,
                    rows_generated,
                    access.export_state(),
                    curator.export_state(),
                    pending,
                    telemetry.clone(),
                );
                (store.commit_base(&cp)?, true)
            } else {
                let delta = snapshot::capture_delta(
                    tick,
                    rows_generated,
                    access.export_state(),
                    curator.export_delta(),
                    pending,
                    &telemetry,
                    stats_durable,
                    lat_durable,
                );
                (store.commit_delta(&delta)?, false)
            };
            stats_durable = telemetry.batch_stats.len();
            lat_durable = telemetry.latencies_ms.len();
            let elapsed = cpw.elapsed();
            timing.checkpoint += elapsed;
            timing.checkpoint_bytes += bytes_written;
            timing.checkpoint_ticks.push(CheckpointTickCost {
                tick,
                elapsed,
                bytes_written,
                wrote_base,
            });
        }
    }

    telemetry.shed = queue.report().clone();
    let report = assemble_report(&curator, &access, config, &telemetry, tick);
    timing.total = total.elapsed();
    Ok(RunOutcome::Completed { report: Box::new(report), timing })
}

#[allow(clippy::too_many_arguments)]
fn ingest(
    curator: &mut IncrementalCurator,
    access: &mut AccessLayer,
    config: &ServeConfig,
    item: QueuedBatch,
    telemetry: &mut ServeTelemetry,
    timing: &mut ServeTiming,
    par: &ParConfig,
) {
    access.advance_clock_ms(config.process_ms);
    let cur = Stopwatch::start();
    let stats = curator.ingest_batch(&item.batch, par);
    timing.curation += cur.elapsed();
    telemetry.latencies_ms.push(access.now_ms().saturating_sub(item.arrival_ms));
    telemetry.last_entropy = Some(stats.mean_entropy);
    telemetry.batch_stats.push(stats);
}

fn assemble_report(
    curator: &IncrementalCurator,
    access: &AccessLayer,
    config: &ServeConfig,
    telemetry: &ServeTelemetry,
    ticks: usize,
) -> ServeReport {
    let shed = telemetry.shed.clone();
    let degraded = telemetry.quarantined > 0
        || telemetry.dropped > 0
        || shed.shed_batches > 0
        || shed.deferred > 0;
    let serving = ServingReport {
        mode: if degraded { "degraded" } else { "steady" }.to_owned(),
        batches_ingested: telemetry.batch_stats.len(),
        batches_quarantined: telemetry.quarantined,
        batches_recovered: telemetry.recovered,
        batches_dropped: telemetry.dropped,
        rows_shed: shed.shed_rows,
        deferrals: shed.deferred,
        queue_peak_depth: shed.peak_depth,
    };
    let summary = access.summary();
    let covered = curator.covered();
    let pool_coverage = if covered.is_empty() {
        0.0
    } else {
        covered.iter().filter(|&&c| c).count() as f64 / covered.len() as f64
    };
    let degradation = DegradationReport {
        fault_seed: if config.plan.is_enabled() { config.plan.seed } else { 0 },
        tripped_services: summary.tripped_services(),
        dropped_lfs: Vec::new(),
        pool_coverage,
        lf_abstain: Vec::new(),
        faults: access.is_enabled().then_some(summary),
        serving: Some(serving.clone()),
    };
    let sim_ms = access.now_ms();
    let rows_ingested = curator.n_rows();
    ServeReport {
        batches: telemetry.batch_stats.clone(),
        latencies_ms: telemetry.latencies_ms.clone(),
        rows_ingested,
        ticks,
        sim_ms,
        rows_per_sim_sec: if sim_ms == 0 {
            0.0
        } else {
            rows_ingested as f64 * 1000.0 / sim_ms as f64
        },
        shedding: shed,
        serving,
        degradation,
        posterior_digest: posterior_digest(curator.posteriors()),
    }
}

/// FNV-1a 64 over the little-endian bits of each posterior.
fn posterior_digest(posteriors: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in posteriors {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use cm_orgsim::TaskId;

    use super::*;

    fn small_config(seed: u64) -> ServeConfig {
        let task = TaskConfig::paper(TaskId::Ct2).scaled(0.02);
        let mut config = ServeConfig::new(task, seed);
        config.batch_rows = 40;
        config.incremental.curation.prop_max_seeds = 400;
        config.incremental.curation.mining.min_recall = 0.05;
        config
    }

    fn completed(outcome: RunOutcome) -> (Box<ServeReport>, ServeTiming) {
        match outcome {
            RunOutcome::Completed { report, timing } => (report, timing),
            RunOutcome::Crashed { at_tick } => panic!("unexpected crash at tick {at_tick}"),
        }
    }

    #[test]
    fn clean_run_ingests_every_row_in_steady_mode() {
        let config = small_config(11);
        let (report, _) = completed(run(&config, &ParConfig::serial()).unwrap());
        assert_eq!(report.rows_ingested, config.total_rows);
        assert_eq!(report.serving.mode, "steady");
        assert_eq!(report.shedding.shed_batches, 0);
        assert_eq!(report.latencies_ms.len(), report.batches.len());
        assert!(report.latencies_ms.iter().all(|&l| l >= config.process_ms));
        assert!(report.rows_per_sim_sec > 0.0);
    }

    #[test]
    fn serve_runs_are_thread_invariant() {
        let config = small_config(11);
        let (a, _) = completed(run(&config, &ParConfig::serial()).unwrap());
        let (b, _) = completed(run(&config, &ParConfig::threads(4)).unwrap());
        assert_eq!(a.to_json().to_string_pretty(), b.to_json().to_string_pretty());
    }

    #[test]
    fn overload_sheds_instead_of_growing_without_bound() {
        let mut config = small_config(7);
        // Many small batches, three arrivals per tick against one
        // processed: structurally overloaded. Guards are opened wide so
        // the row-conservation check sees only the backpressure path.
        config.batch_rows = 10;
        config.arrivals_per_tick = 3;
        config.queue.capacity = 3;
        config.queue.high_watermark = 2;
        config.guards.min_coverage = 0.0;
        config.guards.max_abstain = 1.0;
        config.guards.max_entropy_delta = f64::INFINITY;
        let (report, _) = completed(run(&config, &ParConfig::serial()).unwrap());
        assert!(report.shedding.shed_batches > 0, "structural overload must shed");
        assert_eq!(report.serving.mode, "degraded");
        assert!(report.shedding.peak_depth <= config.queue.capacity);
        assert_eq!(
            report.rows_ingested + report.shedding.shed_rows,
            config.total_rows,
            "every arrival row is either ingested or counted as shed"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for offset in [0usize, 17, 400] {
            let a = jittered_batch_rows(60, 9, offset);
            let b = jittered_batch_rows(60, 9, offset);
            assert_eq!(a, b);
            assert!((45..=75).contains(&a), "{a} outside ±25 % of 60");
        }
    }
}
