//! Versioned checkpoint persistence for the incremental curation
//! service: a **base snapshot + append-only delta log** in the `cm-wire`
//! binary format, the only checkpoint encoding.
//!
//! A checkpoint persists exactly the *arrival-dependent* state of a run:
//! the stream cursor, the access-layer breaker/clock state, the curator's
//! accumulated pool + votes + EM warm parameters + online-graph routing
//! state, any queued/deferred/quarantined batches, and the telemetry
//! accumulators. Everything clean-path (mined LFs, dev split, similarity
//! scales, seed vertices, the text corpus) is re-derived deterministically
//! on restart.
//!
//! ## Log layout and recovery contract
//!
//! A checkpoint file is
//! `[header][base frame][delta frame]*`: a 4-byte magic + version
//! varint, then one [`Checkpoint`] encoded whole (O(pool)), then one
//! [`TickDelta`] per tick (O(batch) — only what changed since the last
//! durable record). Every frame carries a trailing FNV-1a 64 checksum, so
//! a crash mid-append leaves a *detectably* torn tail: [`load_any`]
//! replays base + deltas until the first truncated or corrupt frame,
//! discards the tail, and resumes from the last complete record —
//! bit-identical to a run that never wrote it. Base rewrites (compaction,
//! policy in [`CompactionPolicy`]) go through a sibling temp file + atomic
//! rename, so the base itself can never tear.
//!
//! A file that does not open with the `CMCK` magic is an error, never
//! migrated or overwritten. All floats travel as raw IEEE-754 bits, so a
//! restart resumes *bit-identical* to an uninterrupted run.
//!
//! This module is the only place allowed to name [`Checkpoint`] or
//! [`TickDelta`]: the `checkpoint-drift` lint bans both identifiers
//! everywhere else, so checkpointed state can only be produced by
//! [`capture`]/[`capture_delta`] and consumed through [`CheckpointStore`]
//! — a token-level approximation of "no direct field access to
//! checkpointed state outside the snapshot module".

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cm_faults::{AccessState, ServiceAccessState, ServiceStats};
use cm_featurespace::{
    CatSet, CmError, CmResult, ErrorKind, FeatureSchema, FeatureTable, FeatureValue, Label,
    ModalityKind,
};
use cm_labelmodel::WarmStart;
use cm_orgsim::ModalityDataset;
use cm_pipeline::{BatchStats, IncrementalDelta, IncrementalState};
use cm_propagation::{OnlineGraphDelta, OnlineGraphState};
use cm_wire::{append_frame, fnv1a64, read_frame, read_header, write_header, Reader, Writer};

use crate::guards::QuarantinedBatch;
use crate::queue::{QueuedBatch, SheddingReport};

/// Version of the checkpoint log (header varint after the magic); the
/// loader rejects any other value. Bump whenever the encoded layout *or*
/// the clean-path re-derivation contract changes.
pub const LOG_VERSION: u32 = 2;

/// Magic bytes opening every wire-format checkpoint file.
const LOG_MAGIC: &[u8; 4] = b"CMCK";

/// Frame tag of the base snapshot record.
const TAG_BASE: u8 = 1;
/// Frame tag of a per-tick delta record.
const TAG_DELTA: u8 = 2;

/// Batches that arrived but have not been ingested: serialized verbatim
/// because regenerating them from the stream would re-draw fault RNG and
/// double-advance breaker state.
#[derive(Debug, Clone, Default)]
pub struct PendingWork {
    /// Admitted batches, oldest first.
    pub queue: Vec<QueuedBatch>,
    /// Watermark-deferred batches awaiting re-offer.
    pub deferred: Vec<QueuedBatch>,
    /// Guard-quarantined batches awaiting their retry tick.
    pub quarantine: Vec<QuarantinedBatch>,
}

/// Telemetry accumulators a resumed run must continue from.
#[derive(Debug, Clone, Default)]
pub struct ServeTelemetry {
    /// Admission-queue overload counters.
    pub shed: SheddingReport,
    /// Batches quarantined by the quality guards.
    pub quarantined: usize,
    /// Quarantined batches that later passed their retry.
    pub recovered: usize,
    /// Quarantined batches dropped after a failed retry.
    pub dropped: usize,
    /// Mean posterior entropy of the last ingested batch.
    pub last_entropy: Option<f64>,
    /// Per-batch ingest statistics, in ingest order.
    pub batch_stats: Vec<BatchStats>,
    /// Arrival-to-completion latency of each ingested batch (sim ms).
    pub latencies_ms: Vec<u64>,
}

/// The complete persisted state of a service run after some tick.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Ticks completed before this checkpoint was taken.
    pub ticks: usize,
    /// Rows drawn from the arrival stream so far (stream fast-forward
    /// cursor: clean and fault-injected draws consume identical world-RNG
    /// counts, so a fresh stream discards this many rows to resume).
    pub rows_generated: usize,
    /// Access-layer breaker/clock/stats state.
    pub access: AccessState,
    /// Arrival-dependent curator state.
    pub curator: IncrementalState,
    /// Batches in flight.
    pub pending: PendingWork,
    /// Telemetry accumulators.
    pub telemetry: ServeTelemetry,
}

/// One tick's growth of the persisted state — the payload of a delta-log
/// append record. Small state (clock, breakers, in-flight batches,
/// telemetry scalars) rides whole; the curator and the telemetry vectors
/// contribute only what was appended since the last durable record, so
/// the record is O(batch) where [`Checkpoint`] is O(pool).
#[derive(Debug, Clone)]
pub struct TickDelta {
    /// Ticks completed after this delta (absolute, for replay checks).
    pub ticks: usize,
    /// Stream cursor after this delta (absolute).
    pub rows_generated: usize,
    /// Full access-layer state (a handful of counters per service).
    pub access: AccessState,
    /// Curator growth since the last durable record.
    pub curator: IncrementalDelta,
    /// Full in-flight set (bounded by the admission-queue capacity).
    pub pending: PendingWork,
    /// Full admission-queue counters.
    pub shed: SheddingReport,
    /// Telemetry scalar: batches quarantined so far.
    pub quarantined: usize,
    /// Telemetry scalar: quarantined batches recovered so far.
    pub recovered: usize,
    /// Telemetry scalar: quarantined batches dropped so far.
    pub dropped: usize,
    /// Mean posterior entropy of the last ingested batch.
    pub last_entropy: Option<f64>,
    /// Batch statistics appended since the last durable record.
    pub new_batch_stats: Vec<BatchStats>,
    /// Latencies appended since the last durable record.
    pub new_latencies_ms: Vec<u64>,
}

/// Assembles a checkpoint from the service's live state.
pub fn capture(
    ticks: usize,
    rows_generated: usize,
    access: AccessState,
    curator: IncrementalState,
    pending: PendingWork,
    telemetry: ServeTelemetry,
) -> Checkpoint {
    Checkpoint { ticks, rows_generated, access, curator, pending, telemetry }
}

/// Assembles one tick's delta record. `stats_durable` / `latencies_durable`
/// are the telemetry vector lengths at the last durable record; everything
/// past them is appended to the log.
#[allow(clippy::too_many_arguments)]
pub fn capture_delta(
    ticks: usize,
    rows_generated: usize,
    access: AccessState,
    curator: IncrementalDelta,
    pending: PendingWork,
    telemetry: &ServeTelemetry,
    stats_durable: usize,
    latencies_durable: usize,
) -> TickDelta {
    TickDelta {
        ticks,
        rows_generated,
        access,
        curator,
        pending,
        shed: telemetry.shed.clone(),
        quarantined: telemetry.quarantined,
        recovered: telemetry.recovered,
        dropped: telemetry.dropped,
        last_entropy: telemetry.last_entropy,
        new_batch_stats: telemetry.batch_stats[stats_durable..].to_vec(),
        new_latencies_ms: telemetry.latencies_ms[latencies_durable..].to_vec(),
    }
}

/// Applies one replayed delta record onto the accumulated checkpoint.
///
/// # Errors
/// Fails, leaving the checkpoint untouched, on a delta that was not
/// exported against it (see `IncrementalState::apply_delta`).
fn apply_tick_delta(cp: &mut Checkpoint, d: TickDelta) -> CmResult<()> {
    cp.curator.apply_delta(&d.curator)?;
    cp.ticks = d.ticks;
    cp.rows_generated = d.rows_generated;
    cp.access = d.access;
    cp.pending = d.pending;
    cp.telemetry.shed = d.shed;
    cp.telemetry.quarantined = d.quarantined;
    cp.telemetry.recovered = d.recovered;
    cp.telemetry.dropped = d.dropped;
    cp.telemetry.last_entropy = d.last_entropy;
    cp.telemetry.batch_stats.extend(d.new_batch_stats);
    cp.telemetry.latencies_ms.extend(d.new_latencies_ms);
    Ok(())
}

// --- wire encoding -------------------------------------------------------

fn wire_err(e: cm_wire::WireError) -> CmError {
    CmError::new(ErrorKind::InvalidConfig, "snapshot::wire", e.to_string())
}

fn bad_wire(message: impl Into<String>) -> CmError {
    CmError::new(ErrorKind::InvalidConfig, "snapshot::wire", message.into())
}

fn enc_value(w: &mut Writer, value: &FeatureValue) {
    match value {
        FeatureValue::Missing => w.u8(0),
        FeatureValue::Numeric(x) => {
            w.u8(1);
            w.f64b(*x);
        }
        FeatureValue::Categorical(set) => {
            w.u8(2);
            let ids: Vec<u32> = set.iter().collect();
            w.usizev(ids.len());
            for id in ids {
                w.u32v(id);
            }
        }
        FeatureValue::Embedding(e) => {
            w.u8(3);
            w.usizev(e.len());
            for &x in e {
                w.f32b(x);
            }
        }
    }
}

fn dec_value(r: &mut Reader<'_>) -> CmResult<FeatureValue> {
    match r.u8().map_err(wire_err)? {
        0 => Ok(FeatureValue::Missing),
        1 => Ok(FeatureValue::Numeric(r.f64b().map_err(wire_err)?)),
        2 => {
            let n = r.usizev().map_err(wire_err)?;
            let mut set = CatSet::new();
            for _ in 0..n {
                set.insert(r.u32v().map_err(wire_err)?);
            }
            Ok(FeatureValue::Categorical(set))
        }
        3 => {
            let n = r.usizev().map_err(wire_err)?;
            let mut e = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
            for _ in 0..n {
                e.push(r.f32b().map_err(wire_err)?);
            }
            Ok(FeatureValue::Embedding(e))
        }
        t => Err(bad_wire(format!("unknown feature-value tag {t}"))),
    }
}

fn enc_dataset(w: &mut Writer, ds: &ModalityDataset) {
    w.u8(match ds.modality {
        ModalityKind::Text => 0,
        ModalityKind::Image => 1,
        ModalityKind::Video => 2,
    });
    w.usizev(ds.table.len());
    for r in 0..ds.table.len() {
        let row = ds.table.row(r);
        w.usizev(row.len());
        for v in &row {
            enc_value(w, v);
        }
    }
    w.usizev(ds.labels.len());
    for l in &ds.labels {
        w.u8(u8::from(l.is_positive()));
    }
    w.usizev(ds.borderline.len());
    for &b in &ds.borderline {
        w.bool(b);
    }
}

fn dec_dataset(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<ModalityDataset> {
    let modality = match r.u8().map_err(wire_err)? {
        0 => ModalityKind::Text,
        1 => ModalityKind::Image,
        2 => ModalityKind::Video,
        t => return Err(bad_wire(format!("unknown modality tag {t}"))),
    };
    let n_rows = r.usizev().map_err(wire_err)?;
    let mut table = FeatureTable::new(schema.clone());
    for _ in 0..n_rows {
        let n_vals = r.usizev().map_err(wire_err)?;
        let mut values = Vec::with_capacity(n_vals.min(r.remaining() + 1));
        for _ in 0..n_vals {
            values.push(dec_value(r)?);
        }
        table.push_row(&values);
    }
    let n_labels = r.usizev().map_err(wire_err)?;
    let mut labels = Vec::with_capacity(n_labels.min(r.remaining() + 1));
    for _ in 0..n_labels {
        labels.push(match r.u8().map_err(wire_err)? {
            1 => Label::Positive,
            0 => Label::Negative,
            t => return Err(bad_wire(format!("unknown label byte {t}"))),
        });
    }
    let n_border = r.usizev().map_err(wire_err)?;
    let mut borderline = Vec::with_capacity(n_border.min(r.remaining() + 1));
    for _ in 0..n_border {
        borderline.push(r.bool().map_err(wire_err)?);
    }
    Ok(ModalityDataset { modality, table, labels, borderline })
}

fn enc_queued(w: &mut Writer, item: &QueuedBatch) {
    enc_dataset(w, &item.batch);
    w.u64v(item.arrival_ms);
    w.u32v(item.deferrals);
}

fn dec_queued(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<QueuedBatch> {
    Ok(QueuedBatch {
        batch: dec_dataset(r, schema)?,
        arrival_ms: r.u64v().map_err(wire_err)?,
        deferrals: r.u32v().map_err(wire_err)?,
    })
}

fn enc_quarantined(w: &mut Writer, q: &QuarantinedBatch) {
    enc_queued(w, &q.item);
    w.usizev(q.retry_tick);
    w.u32v(q.attempts);
    w.usizev(q.reasons.len());
    for reason in &q.reasons {
        w.str(reason);
    }
}

fn dec_quarantined(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<QuarantinedBatch> {
    let item = dec_queued(r, schema)?;
    let retry_tick = r.usizev().map_err(wire_err)?;
    let attempts = r.u32v().map_err(wire_err)?;
    let n = r.usizev().map_err(wire_err)?;
    let mut reasons = Vec::with_capacity(n.min(r.remaining() + 1));
    for _ in 0..n {
        reasons.push(r.str().map_err(wire_err)?);
    }
    Ok(QuarantinedBatch { item, retry_tick, attempts, reasons })
}

fn enc_pending(w: &mut Writer, p: &PendingWork) {
    w.usizev(p.queue.len());
    for item in &p.queue {
        enc_queued(w, item);
    }
    w.usizev(p.deferred.len());
    for item in &p.deferred {
        enc_queued(w, item);
    }
    w.usizev(p.quarantine.len());
    for q in &p.quarantine {
        enc_quarantined(w, q);
    }
}

fn dec_pending(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<PendingWork> {
    let n_queue = r.usizev().map_err(wire_err)?;
    let mut queue = Vec::with_capacity(n_queue.min(64));
    for _ in 0..n_queue {
        queue.push(dec_queued(r, schema)?);
    }
    let n_def = r.usizev().map_err(wire_err)?;
    let mut deferred = Vec::with_capacity(n_def.min(64));
    for _ in 0..n_def {
        deferred.push(dec_queued(r, schema)?);
    }
    let n_quar = r.usizev().map_err(wire_err)?;
    let mut quarantine = Vec::with_capacity(n_quar.min(64));
    for _ in 0..n_quar {
        quarantine.push(dec_quarantined(r, schema)?);
    }
    Ok(PendingWork { queue, deferred, quarantine })
}

fn enc_service_stats(w: &mut Writer, s: &ServiceStats) {
    w.str(&s.name);
    w.str(&s.mode);
    w.f64b(s.rate);
    for v in [
        s.calls,
        s.faulted,
        s.recovered,
        s.lost,
        s.corrupt_detected,
        s.stale_served,
        s.short_circuited,
        s.probes,
        s.reopened,
        s.retries,
        s.sim_wait_ms,
    ] {
        w.u64v(v);
    }
    w.bool(s.tripped);
}

fn dec_service_stats(r: &mut Reader<'_>) -> CmResult<ServiceStats> {
    let name = r.str().map_err(wire_err)?;
    let mode = r.str().map_err(wire_err)?;
    let rate = r.f64b().map_err(wire_err)?;
    let mut counters = [0u64; 11];
    for c in &mut counters {
        *c = r.u64v().map_err(wire_err)?;
    }
    let tripped = r.bool().map_err(wire_err)?;
    Ok(ServiceStats {
        name,
        mode,
        rate,
        calls: counters[0],
        faulted: counters[1],
        recovered: counters[2],
        lost: counters[3],
        corrupt_detected: counters[4],
        stale_served: counters[5],
        short_circuited: counters[6],
        probes: counters[7],
        reopened: counters[8],
        retries: counters[9],
        sim_wait_ms: counters[10],
        tripped,
    })
}

fn enc_access(w: &mut Writer, a: &AccessState) {
    w.u64v(a.now_ms);
    w.usizev(a.services.len());
    for s in &a.services {
        w.str(&s.name);
        w.u32v(s.consecutive_lost);
        w.bool(s.open);
        w.u64v(s.opened_at_ms);
        match &s.snapshot {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                enc_value(w, v);
            }
        }
        enc_service_stats(w, &s.stats);
    }
}

fn dec_access(r: &mut Reader<'_>) -> CmResult<AccessState> {
    let now_ms = r.u64v().map_err(wire_err)?;
    let n = r.usizev().map_err(wire_err)?;
    let mut services = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = r.str().map_err(wire_err)?;
        let consecutive_lost = r.u32v().map_err(wire_err)?;
        let open = r.bool().map_err(wire_err)?;
        let opened_at_ms = r.u64v().map_err(wire_err)?;
        let snapshot = if r.bool().map_err(wire_err)? { Some(dec_value(r)?) } else { None };
        let stats = dec_service_stats(r)?;
        services.push(ServiceAccessState {
            name,
            consecutive_lost,
            open,
            opened_at_ms,
            snapshot,
            stats,
        });
    }
    Ok(AccessState { now_ms, services })
}

fn enc_warm(w: &mut Writer, warm: &Option<WarmStart>) {
    match warm {
        None => w.bool(false),
        Some(ws) => {
            w.bool(true);
            w.usizev(ws.accuracies.len());
            for &a in &ws.accuracies {
                w.f64b(a);
            }
            w.f64b(ws.class_prior);
        }
    }
}

fn dec_warm(r: &mut Reader<'_>) -> CmResult<Option<WarmStart>> {
    if !r.bool().map_err(wire_err)? {
        return Ok(None);
    }
    let n = r.usizev().map_err(wire_err)?;
    let mut accuracies = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
    for _ in 0..n {
        accuracies.push(r.f64b().map_err(wire_err)?);
    }
    Ok(Some(WarmStart { accuracies, class_prior: r.f64b().map_err(wire_err)? }))
}

fn enc_u32_list(w: &mut Writer, list: &[u32]) {
    w.usizev(list.len());
    for &v in list {
        w.u32v(v);
    }
}

fn dec_u32_list(r: &mut Reader<'_>) -> CmResult<Vec<u32>> {
    let n = r.usizev().map_err(wire_err)?;
    let mut out = Vec::with_capacity(n.min(r.remaining() + 1));
    for _ in 0..n {
        out.push(r.u32v().map_err(wire_err)?);
    }
    Ok(out)
}

fn enc_edges(w: &mut Writer, edges: &[(u32, u32, f32)]) {
    w.usizev(edges.len());
    for &(a, b, weight) in edges {
        w.u32v(a);
        w.u32v(b);
        w.f32b(weight);
    }
}

fn dec_edges(r: &mut Reader<'_>) -> CmResult<Vec<(u32, u32, f32)>> {
    let n = r.usizev().map_err(wire_err)?;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 12 + 1));
    for _ in 0..n {
        out.push((
            r.u32v().map_err(wire_err)?,
            r.u32v().map_err(wire_err)?,
            r.f32b().map_err(wire_err)?,
        ));
    }
    Ok(out)
}

fn enc_graph(w: &mut Writer, g: &Option<OnlineGraphState>) {
    match g {
        None => w.bool(false),
        Some(g) => {
            w.bool(true);
            w.usizev(g.n_rows);
            enc_u32_list(w, &g.anchors);
            w.usizev(g.anchor_members.len());
            for m in &g.anchor_members {
                enc_u32_list(w, m);
            }
            enc_edges(w, &g.edges);
        }
    }
}

fn dec_graph(r: &mut Reader<'_>) -> CmResult<Option<OnlineGraphState>> {
    if !r.bool().map_err(wire_err)? {
        return Ok(None);
    }
    let n_rows = r.usizev().map_err(wire_err)?;
    let anchors = dec_u32_list(r)?;
    let n = r.usizev().map_err(wire_err)?;
    let mut anchor_members = Vec::with_capacity(n.min(r.remaining() + 1));
    for _ in 0..n {
        anchor_members.push(dec_u32_list(r)?);
    }
    let edges = dec_edges(r)?;
    let state = OnlineGraphState { n_rows, anchors, anchor_members, edges };
    state.validate()?;
    Ok(Some(state))
}

fn enc_graph_delta(w: &mut Writer, g: &Option<OnlineGraphDelta>) {
    match g {
        None => w.bool(false),
        Some(d) => {
            w.bool(true);
            w.usizev(d.n_rows);
            enc_edges(w, &d.new_edges);
            w.usizev(d.member_appends.len());
            for (idx, members) in &d.member_appends {
                w.u32v(*idx);
                enc_u32_list(w, members);
            }
            w.usizev(d.new_anchors.len());
            for (anchor, members) in &d.new_anchors {
                w.u32v(*anchor);
                enc_u32_list(w, members);
            }
        }
    }
}

fn dec_graph_delta(r: &mut Reader<'_>) -> CmResult<Option<OnlineGraphDelta>> {
    if !r.bool().map_err(wire_err)? {
        return Ok(None);
    }
    let n_rows = r.usizev().map_err(wire_err)?;
    let new_edges = dec_edges(r)?;
    let n_app = r.usizev().map_err(wire_err)?;
    let mut member_appends = Vec::with_capacity(n_app.min(r.remaining() + 1));
    for _ in 0..n_app {
        let idx = r.u32v().map_err(wire_err)?;
        member_appends.push((idx, dec_u32_list(r)?));
    }
    let n_new = r.usizev().map_err(wire_err)?;
    let mut new_anchors = Vec::with_capacity(n_new.min(r.remaining() + 1));
    for _ in 0..n_new {
        let anchor = r.u32v().map_err(wire_err)?;
        new_anchors.push((anchor, dec_u32_list(r)?));
    }
    let delta = OnlineGraphDelta { n_rows, new_edges, member_appends, new_anchors };
    delta.validate()?;
    Ok(Some(delta))
}

fn enc_votes(w: &mut Writer, votes: &[i8]) {
    w.usizev(votes.len());
    for &v in votes {
        w.u8(v as u8);
    }
}

/// Decodes the row-major votes of `rows` pool rows, rejecting a vector
/// that is not a whole number of votes per row or holds a value other
/// than -1, 0 or 1.
fn dec_votes(r: &mut Reader<'_>, rows: usize) -> CmResult<Vec<i8>> {
    let n = r.usizev().map_err(wire_err)?;
    if n != 0 && n.checked_rem(rows) != Some(0) {
        return Err(bad_wire(format!("{n} votes do not split evenly over {rows} rows")));
    }
    let votes: Vec<i8> = r.take(n).map_err(wire_err)?.iter().map(|&b| b as i8).collect();
    match votes.iter().find(|v| !(-1..=1).contains(*v)) {
        Some(v) => Err(bad_wire(format!("vote {v} is not -1, 0 or 1"))),
        None => Ok(votes),
    }
}

fn enc_incremental_state(w: &mut Writer, s: &IncrementalState) {
    w.usizev(s.n_batches);
    enc_dataset(w, &s.pool);
    enc_votes(w, &s.votes);
    enc_warm(w, &s.em_warm);
    w.usizev(s.em_iterations);
    enc_graph(w, &s.graph);
}

fn dec_incremental_state(
    r: &mut Reader<'_>,
    schema: &Arc<FeatureSchema>,
) -> CmResult<IncrementalState> {
    let n_batches = r.usizev().map_err(wire_err)?;
    let pool = dec_dataset(r, schema)?;
    Ok(IncrementalState {
        n_batches,
        votes: dec_votes(r, pool.len())?,
        pool,
        em_warm: dec_warm(r)?,
        em_iterations: r.usizev().map_err(wire_err)?,
        graph: dec_graph(r)?,
    })
}

fn enc_incremental_delta(w: &mut Writer, d: &IncrementalDelta) {
    w.usizev(d.n_batches);
    enc_dataset(w, &d.new_rows);
    enc_votes(w, &d.new_votes);
    enc_warm(w, &d.em_warm);
    w.usizev(d.em_iterations);
    enc_graph_delta(w, &d.graph);
}

fn dec_incremental_delta(
    r: &mut Reader<'_>,
    schema: &Arc<FeatureSchema>,
) -> CmResult<IncrementalDelta> {
    let n_batches = r.usizev().map_err(wire_err)?;
    let new_rows = dec_dataset(r, schema)?;
    Ok(IncrementalDelta {
        n_batches,
        new_votes: dec_votes(r, new_rows.len())?,
        new_rows,
        em_warm: dec_warm(r)?,
        em_iterations: r.usizev().map_err(wire_err)?,
        graph: dec_graph_delta(r)?,
    })
}

fn enc_batch_stats(w: &mut Writer, s: &BatchStats) {
    w.usizev(s.batch_index);
    w.usizev(s.rows);
    w.usizev(s.total_rows);
    w.f64b(s.coverage);
    w.f64b(s.abstain_rate);
    w.f64b(s.mean_entropy);
    w.usizev(s.em_iterations);
}

fn dec_batch_stats(r: &mut Reader<'_>) -> CmResult<BatchStats> {
    Ok(BatchStats {
        batch_index: r.usizev().map_err(wire_err)?,
        rows: r.usizev().map_err(wire_err)?,
        total_rows: r.usizev().map_err(wire_err)?,
        coverage: r.f64b().map_err(wire_err)?,
        abstain_rate: r.f64b().map_err(wire_err)?,
        mean_entropy: r.f64b().map_err(wire_err)?,
        em_iterations: r.usizev().map_err(wire_err)?,
    })
}

fn enc_shed(w: &mut Writer, s: &SheddingReport) {
    for v in
        [s.offered, s.admitted, s.deferred, s.shed_batches, s.shed_rows, s.peak_depth, s.peak_bytes]
    {
        w.usizev(v);
    }
}

fn dec_shed(r: &mut Reader<'_>) -> CmResult<SheddingReport> {
    let mut vals = [0usize; 7];
    for v in &mut vals {
        *v = r.usizev().map_err(wire_err)?;
    }
    Ok(SheddingReport {
        offered: vals[0],
        admitted: vals[1],
        deferred: vals[2],
        shed_batches: vals[3],
        shed_rows: vals[4],
        peak_depth: vals[5],
        peak_bytes: vals[6],
    })
}

fn enc_opt_f64(w: &mut Writer, v: Option<f64>) {
    match v {
        None => w.bool(false),
        Some(x) => {
            w.bool(true);
            w.f64b(x);
        }
    }
}

fn dec_opt_f64(r: &mut Reader<'_>) -> CmResult<Option<f64>> {
    if r.bool().map_err(wire_err)? {
        Ok(Some(r.f64b().map_err(wire_err)?))
    } else {
        Ok(None)
    }
}

fn enc_telemetry(w: &mut Writer, t: &ServeTelemetry) {
    enc_shed(w, &t.shed);
    w.usizev(t.quarantined);
    w.usizev(t.recovered);
    w.usizev(t.dropped);
    enc_opt_f64(w, t.last_entropy);
    w.usizev(t.batch_stats.len());
    for s in &t.batch_stats {
        enc_batch_stats(w, s);
    }
    w.usizev(t.latencies_ms.len());
    for &l in &t.latencies_ms {
        w.u64v(l);
    }
}

fn dec_telemetry(r: &mut Reader<'_>) -> CmResult<ServeTelemetry> {
    let shed = dec_shed(r)?;
    let quarantined = r.usizev().map_err(wire_err)?;
    let recovered = r.usizev().map_err(wire_err)?;
    let dropped = r.usizev().map_err(wire_err)?;
    let last_entropy = dec_opt_f64(r)?;
    let n_stats = r.usizev().map_err(wire_err)?;
    let mut batch_stats = Vec::with_capacity(n_stats.min(r.remaining() + 1));
    for _ in 0..n_stats {
        batch_stats.push(dec_batch_stats(r)?);
    }
    let n_lat = r.usizev().map_err(wire_err)?;
    let mut latencies_ms = Vec::with_capacity(n_lat.min(r.remaining() + 1));
    for _ in 0..n_lat {
        latencies_ms.push(r.u64v().map_err(wire_err)?);
    }
    Ok(ServeTelemetry {
        shed,
        quarantined,
        recovered,
        dropped,
        last_entropy,
        batch_stats,
        latencies_ms,
    })
}

/// Encodes a complete wire-format file: header + one base frame.
fn encode_base_file(cp: &Checkpoint) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.usizev(cp.ticks);
    payload.usizev(cp.rows_generated);
    enc_access(&mut payload, &cp.access);
    enc_incremental_state(&mut payload, &cp.curator);
    enc_pending(&mut payload, &cp.pending);
    enc_telemetry(&mut payload, &cp.telemetry);
    let mut out = Writer::new();
    write_header(&mut out, LOG_MAGIC, LOG_VERSION);
    append_frame(&mut out, TAG_BASE, payload.as_bytes());
    out.into_bytes()
}

fn dec_base_payload(payload: &[u8], schema: &Arc<FeatureSchema>) -> CmResult<Checkpoint> {
    let mut r = Reader::new(payload);
    let cp = Checkpoint {
        ticks: r.usizev().map_err(wire_err)?,
        rows_generated: r.usizev().map_err(wire_err)?,
        access: dec_access(&mut r)?,
        curator: dec_incremental_state(&mut r, schema)?,
        pending: dec_pending(&mut r, schema)?,
        telemetry: dec_telemetry(&mut r)?,
    };
    if !r.is_empty() {
        return Err(bad_wire(format!("{} trailing bytes after base record", r.remaining())));
    }
    Ok(cp)
}

/// Encodes one delta frame (no header — appended to an existing file).
fn encode_delta_frame(d: &TickDelta) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.usizev(d.ticks);
    payload.usizev(d.rows_generated);
    enc_access(&mut payload, &d.access);
    enc_incremental_delta(&mut payload, &d.curator);
    enc_pending(&mut payload, &d.pending);
    enc_shed(&mut payload, &d.shed);
    payload.usizev(d.quarantined);
    payload.usizev(d.recovered);
    payload.usizev(d.dropped);
    enc_opt_f64(&mut payload, d.last_entropy);
    payload.usizev(d.new_batch_stats.len());
    for s in &d.new_batch_stats {
        enc_batch_stats(&mut payload, s);
    }
    payload.usizev(d.new_latencies_ms.len());
    for &l in &d.new_latencies_ms {
        payload.u64v(l);
    }
    let mut out = Writer::new();
    append_frame(&mut out, TAG_DELTA, payload.as_bytes());
    out.into_bytes()
}

fn dec_delta_payload(payload: &[u8], schema: &Arc<FeatureSchema>) -> CmResult<TickDelta> {
    let mut r = Reader::new(payload);
    let ticks = r.usizev().map_err(wire_err)?;
    let rows_generated = r.usizev().map_err(wire_err)?;
    let access = dec_access(&mut r)?;
    let curator = dec_incremental_delta(&mut r, schema)?;
    let pending = dec_pending(&mut r, schema)?;
    let shed = dec_shed(&mut r)?;
    let quarantined = r.usizev().map_err(wire_err)?;
    let recovered = r.usizev().map_err(wire_err)?;
    let dropped = r.usizev().map_err(wire_err)?;
    let last_entropy = dec_opt_f64(&mut r)?;
    let n_stats = r.usizev().map_err(wire_err)?;
    let mut new_batch_stats = Vec::with_capacity(n_stats.min(r.remaining() + 1));
    for _ in 0..n_stats {
        new_batch_stats.push(dec_batch_stats(&mut r)?);
    }
    let n_lat = r.usizev().map_err(wire_err)?;
    let mut new_latencies_ms = Vec::with_capacity(n_lat.min(r.remaining() + 1));
    for _ in 0..n_lat {
        new_latencies_ms.push(r.u64v().map_err(wire_err)?);
    }
    if !r.is_empty() {
        return Err(bad_wire(format!("{} trailing bytes after delta record", r.remaining())));
    }
    Ok(TickDelta {
        ticks,
        rows_generated,
        access,
        curator,
        pending,
        shed,
        quarantined,
        recovered,
        dropped,
        last_entropy,
        new_batch_stats,
        new_latencies_ms,
    })
}

// --- log recovery --------------------------------------------------------

/// Result of recovering a checkpoint file: the merged state (base + every
/// complete delta) plus enough layout information for the
/// [`CheckpointStore`] to continue appending where the log left off.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The merged, replayed checkpoint state.
    pub checkpoint: Checkpoint,
    /// Bytes of the header + base frame.
    pub base_bytes: usize,
    /// Bytes through the last complete record; anything past this is a
    /// torn tail the caller must truncate before appending.
    pub valid_bytes: usize,
    /// Delta records applied on top of the base.
    pub deltas: usize,
}

/// Recovers a checkpoint from raw file bytes.
///
/// The log replays base + deltas until the first truncated or corrupt
/// frame; the torn tail is *discarded* (reported via `valid_bytes`),
/// recovering to the last durable tick. A torn or corrupt **base** frame
/// is unrecoverable and errors — base rewrites are atomic, so only
/// deliberate corruption produces one. So does a delta frame whose
/// checksum holds but whose payload does not decode or does not apply to
/// the state before it: it was written whole, so it is not a torn tail,
/// and dropping it would silently lose durable ticks.
///
/// # Errors
/// Fails on a bad magic/version header (any file that is not a `CMCK`
/// log, such as a JSON checkpoint from before the log existed), a corrupt
/// base frame, or a checksum-valid record that is malformed (for example
/// a graph edge past the row count, votes that do not split evenly over
/// their rows, or a delta that rewinds the graph).
pub fn load_any(bytes: &[u8], schema: &Arc<FeatureSchema>) -> CmResult<RecoveredLog> {
    let mut r = Reader::new(bytes);
    let version = read_header(&mut r, LOG_MAGIC).map_err(wire_err)?;
    if version != LOG_VERSION {
        return Err(bad_wire(format!(
            "unsupported checkpoint log version {version} (expected {LOG_VERSION})"
        )));
    }
    let base = read_frame(&mut r).map_err(wire_err)?;
    if base.tag != TAG_BASE {
        return Err(bad_wire(format!("first frame has tag {} (expected base)", base.tag)));
    }
    let mut checkpoint = dec_base_payload(base.payload, schema)?;
    let base_bytes = r.pos();
    let mut valid_bytes = base_bytes;
    let mut deltas = 0usize;
    while !r.is_empty() {
        // A torn or corrupt tail record — torn mid-append by a crash, or
        // deliberately bit-flipped — fails the frame checksum and
        // everything from it on is discarded.
        let mut attempt = r.clone();
        let Ok(frame) = read_frame(&mut attempt) else { break };
        if frame.tag != TAG_DELTA {
            break;
        }
        apply_tick_delta(&mut checkpoint, dec_delta_payload(frame.payload, schema)?)?;
        r = attempt;
        valid_bytes = r.pos();
        deltas += 1;
    }
    Ok(RecoveredLog { checkpoint, base_bytes, valid_bytes, deltas })
}

// --- the store -----------------------------------------------------------

/// On-disk checkpoint representation. The `cm-wire` base + delta log is
/// the only one; the enum survives so that callers of
/// [`CheckpointStore::open`] written against the former two-format API
/// keep compiling, and the store ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFormat {
    /// `cm-wire` binary base + append-only delta log.
    Wire,
}

/// When the delta log is folded back into a fresh base snapshot. Both
/// bounds cap *recovery* cost (replay work is proportional to log length);
/// steady-state append cost stays O(batch) regardless.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Rewrite the base after this many delta appends
    /// (`CM_CKPT_COMPACT_TICKS`).
    pub every_ticks: usize,
    /// Rewrite the base when the whole file exceeds this multiple of the
    /// base record's size (`CM_CKPT_COMPACT_FACTOR`).
    pub max_log_factor: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { every_ticks: 32, max_log_factor: 4.0 }
    }
}

/// Owns a checkpoint file: atomic base rewrites, checksummed delta
/// appends, compaction bookkeeping, and torn-tail recovery on open. The
/// only way service code reads or writes checkpointed state.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    policy: CompactionPolicy,
    /// Header + base frame bytes in the current file (0 = no base yet:
    /// the next commit writes one).
    base_bytes: usize,
    /// Valid file length (through the last complete record).
    file_bytes: usize,
    deltas_since_base: usize,
}

impl CheckpointStore {
    /// Opens a checkpoint store over `path`. If the file exists its state
    /// is recovered ([`load_any`]) and any torn tail is truncated away so
    /// later appends start at a record boundary; a missing file yields a
    /// fresh store and `None`. `_format` is ignored (see
    /// [`CheckpointFormat`]).
    ///
    /// # Errors
    /// Propagates recovery errors (a file that is not a `CMCK` log is
    /// refused and left untouched) and filesystem errors.
    pub fn open(
        path: &Path,
        _format: CheckpointFormat,
        policy: CompactionPolicy,
        schema: &Arc<FeatureSchema>,
    ) -> CmResult<(Self, Option<Checkpoint>)> {
        let mut store = CheckpointStore {
            path: path.to_path_buf(),
            policy,
            base_bytes: 0,
            file_bytes: 0,
            deltas_since_base: 0,
        };
        if !path.exists() {
            return Ok((store, None));
        }
        let bytes = std::fs::read(path).map_err(|e| store.io_err("read", &e))?;
        if bytes.is_empty() {
            return Ok((store, None));
        }
        let recovered = load_any(&bytes, schema)?;
        if recovered.valid_bytes < bytes.len() {
            // Drop the torn tail now so the next append starts clean.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| store.io_err("open for truncate", &e))?;
            f.set_len(recovered.valid_bytes as u64).map_err(|e| store.io_err("truncate", &e))?;
        }
        store.base_bytes = recovered.base_bytes;
        store.file_bytes = recovered.valid_bytes;
        store.deltas_since_base = recovered.deltas;
        Ok((store, Some(recovered.checkpoint)))
    }

    fn io_err(&self, op: &str, e: &std::io::Error) -> CmError {
        CmError::new(
            ErrorKind::InvalidConfig,
            "CheckpointStore",
            format!("{op} {}: {e}", self.path.display()),
        )
    }

    /// Whether the next commit must be a full base rewrite: on a fresh
    /// file, and when the compaction policy says the log has grown past
    /// its recovery-cost budget.
    pub fn needs_base(&self) -> bool {
        self.base_bytes == 0
            || self.deltas_since_base >= self.policy.every_ticks
            || self.file_bytes as f64 >= self.base_bytes as f64 * self.policy.max_log_factor
    }

    /// Writes a full base snapshot atomically: encode to a sibling temp
    /// file, then rename into place, so a crash at any instant leaves
    /// either the old complete file or the new one — never a torn base.
    /// Returns the bytes written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn commit_base(&mut self, cp: &Checkpoint) -> CmResult<usize> {
        let bytes = encode_base_file(cp);
        let mut tmp_name = self.path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        std::fs::write(&tmp, &bytes).map_err(|e| self.io_err("write temp", &e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| self.io_err("rename", &e))?;
        self.base_bytes = bytes.len();
        self.file_bytes = bytes.len();
        self.deltas_since_base = 0;
        Ok(bytes.len())
    }

    /// Appends one delta record to the log — O(batch), the steady-state
    /// checkpoint write. A crash mid-append leaves a torn tail that
    /// [`CheckpointStore::open`] detects by checksum and discards.
    /// Returns the bytes written.
    ///
    /// # Errors
    /// Fails if no base has been committed and on filesystem errors.
    pub fn commit_delta(&mut self, delta: &TickDelta) -> CmResult<usize> {
        if self.base_bytes == 0 {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                "CheckpointStore",
                "delta append without a base (call commit_base first)",
            ));
        }
        let frame = encode_delta_frame(delta);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| self.io_err("open for append", &e))?;
        f.write_all(&frame).map_err(|e| self.io_err("append", &e))?;
        self.file_bytes += frame.len();
        self.deltas_since_base += 1;
        Ok(frame.len())
    }

    /// Content digest of the current file (test/debug aid).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn digest(&self) -> CmResult<u64> {
        let bytes = std::fs::read(&self.path).map_err(|e| self.io_err("read", &e))?;
        Ok(fnv1a64(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use cm_faults::ServiceAccessState;
    use cm_featurespace::{FeatureDef, FeatureSet, ServingMode, Vocabulary};
    use cm_pipeline::BatchStats;

    use super::*;

    fn schema() -> Arc<FeatureSchema> {
        Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("x", FeatureSet::A, ServingMode::Servable),
            FeatureDef::categorical(
                "c",
                FeatureSet::A,
                ServingMode::Servable,
                Vocabulary::from_names(["v0", "v1", "v2", "v3", "v4", "v5"]),
            ),
            FeatureDef::embedding("e", 2, FeatureSet::B, ServingMode::Servable),
        ]))
    }

    fn dataset(schema: &Arc<FeatureSchema>) -> ModalityDataset {
        let mut table = FeatureTable::new(schema.clone());
        let mut cats = CatSet::new();
        cats.insert(3);
        cats.insert(5);
        table.push_row(&[
            FeatureValue::Numeric(1.0 / 3.0),
            FeatureValue::Categorical(cats),
            FeatureValue::Embedding(vec![0.1, -2.5]),
        ]);
        table.push_row(&[
            FeatureValue::Missing,
            FeatureValue::Missing,
            FeatureValue::Embedding(vec![std::f32::consts::E, 0.0]),
        ]);
        ModalityDataset {
            modality: ModalityKind::Image,
            table,
            labels: vec![Label::Positive, Label::Negative],
            borderline: vec![false, true],
        }
    }

    fn fixture() -> Checkpoint {
        let schema = schema();
        let ds = dataset(&schema);
        let item = QueuedBatch { batch: ds.clone(), arrival_ms: 120, deferrals: 1 };
        capture(
            7,
            420,
            AccessState {
                now_ms: 910,
                services: vec![ServiceAccessState {
                    name: "img-embed".to_owned(),
                    consecutive_lost: 2,
                    open: true,
                    opened_at_ms: 640,
                    snapshot: Some(FeatureValue::Numeric(0.25)),
                    stats: Default::default(),
                }],
            },
            IncrementalState {
                n_batches: 3,
                pool: ds.clone(),
                votes: vec![1, 0, -1, 1, 0, -1],
                em_warm: Some(WarmStart {
                    accuracies: vec![1.0 / 3.0, 0.7251, 2.0 / 7.0],
                    class_prior: 0.123_456_789,
                }),
                em_iterations: 20,
                graph: Some(OnlineGraphState {
                    n_rows: 5,
                    anchors: vec![0, 3],
                    anchor_members: vec![vec![0, 1, 4], vec![2, 3]],
                    edges: vec![(1, 0, 0.25), (4, 3, 0.125)],
                }),
            },
            PendingWork {
                queue: vec![item.clone()],
                deferred: vec![],
                quarantine: vec![QuarantinedBatch {
                    item,
                    retry_tick: 9,
                    attempts: 1,
                    reasons: vec!["coverage 0.0000 below minimum 0.0200".to_owned()],
                }],
            },
            ServeTelemetry {
                shed: SheddingReport {
                    offered: 5,
                    admitted: 3,
                    shed_rows: 7,
                    ..Default::default()
                },
                quarantined: 1,
                recovered: 0,
                dropped: 0,
                last_entropy: Some(0.631_234),
                batch_stats: vec![BatchStats {
                    batch_index: 0,
                    rows: 2,
                    total_rows: 2,
                    coverage: 0.5,
                    abstain_rate: 1.0 / 7.0,
                    mean_entropy: 0.6,
                    em_iterations: 40,
                }],
                latencies_ms: vec![15, 30],
            },
        )
    }

    fn delta_fixture(base: &Checkpoint) -> TickDelta {
        let schema = schema();
        let ds = dataset(&schema);
        capture_delta(
            base.ticks + 1,
            base.rows_generated + 2,
            AccessState { now_ms: 990, services: base.access.services.clone() },
            IncrementalDelta {
                n_batches: base.curator.n_batches + 1,
                new_rows: ds,
                new_votes: vec![1, -1, 0, 0, 1, -1],
                em_warm: Some(WarmStart { accuracies: vec![0.5, 0.625, 0.75], class_prior: 0.25 }),
                em_iterations: 11,
                graph: Some(OnlineGraphDelta {
                    n_rows: 7,
                    new_edges: vec![(5, 0, 0.5), (6, 3, 0.0625)],
                    member_appends: vec![(0, vec![5]), (1, vec![6])],
                    new_anchors: vec![(6, vec![6])],
                }),
            },
            PendingWork::default(),
            &ServeTelemetry {
                shed: SheddingReport { offered: 6, admitted: 4, ..Default::default() },
                quarantined: 1,
                recovered: 1,
                dropped: 0,
                last_entropy: Some(0.25),
                batch_stats: vec![
                    base.telemetry.batch_stats[0].clone(),
                    BatchStats {
                        batch_index: 1,
                        rows: 2,
                        total_rows: 4,
                        coverage: 1.0,
                        abstain_rate: 0.125,
                        mean_entropy: 0.25,
                        em_iterations: 11,
                    },
                ],
                latencies_ms: vec![15, 30, 45],
            },
            1,
            2,
        )
    }

    #[test]
    fn wire_base_round_trips_bit_exactly() {
        let cp = fixture();
        let bytes = encode_base_file(&cp);
        let rec = load_any(&bytes, &schema()).expect("recover");
        assert_eq!(rec.deltas, 0);
        assert_eq!(rec.valid_bytes, bytes.len());
        assert_eq!(rec.base_bytes, bytes.len());
        // Re-encoding the recovered state reproduces the bytes exactly.
        assert_eq!(encode_base_file(&rec.checkpoint), bytes);
        assert_eq!(rec.checkpoint.curator.votes, cp.curator.votes);
        assert_eq!(
            rec.checkpoint.curator.em_warm.as_ref().map(|w| w.accuracies[0].to_bits()),
            Some((1.0f64 / 3.0).to_bits())
        );
    }

    #[test]
    fn delta_replay_merges_onto_the_base() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let mut bytes = encode_base_file(&cp);
        bytes.extend_from_slice(&encode_delta_frame(&delta));
        let rec = load_any(&bytes, &schema()).expect("recover");
        assert_eq!(rec.deltas, 1);
        assert_eq!(rec.valid_bytes, bytes.len());
        let got = rec.checkpoint;
        assert_eq!(got.ticks, cp.ticks + 1);
        assert_eq!(got.rows_generated, cp.rows_generated + 2);
        assert_eq!(got.curator.n_batches, cp.curator.n_batches + 1);
        assert_eq!(got.curator.pool.len(), cp.curator.pool.len() + 2);
        assert_eq!(got.curator.votes.len(), cp.curator.votes.len() + 6);
        assert_eq!(got.telemetry.batch_stats.len(), 2);
        assert_eq!(got.telemetry.latencies_ms, vec![15, 30, 45]);
        let graph = got.curator.graph.expect("graph");
        assert_eq!(graph.n_rows, 7);
        assert_eq!(graph.anchors, vec![0, 3, 6]);
        assert_eq!(graph.anchor_members, vec![vec![0, 1, 4, 5], vec![2, 3, 6], vec![6]]);
        assert_eq!(graph.edges.len(), 4);
    }

    #[test]
    fn torn_tail_recovers_to_the_previous_record_at_every_offset() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let base = encode_base_file(&cp);
        let frame = encode_delta_frame(&delta);
        let mut full = base.clone();
        full.extend_from_slice(&frame);
        // Reference: what a run that never appended the delta persisted.
        let reference = load_any(&base, &schema()).expect("base only");
        for cut in 0..frame.len() {
            let torn = &full[..base.len() + cut];
            let rec = load_any(torn, &schema()).expect("torn tail must still recover");
            assert_eq!(rec.deltas, 0, "cut at {cut}");
            assert_eq!(rec.valid_bytes, base.len(), "cut at {cut}");
            assert_eq!(
                encode_base_file(&rec.checkpoint),
                encode_base_file(&reference.checkpoint),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_tail_recovers_to_the_previous_record_at_every_offset() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let base = encode_base_file(&cp);
        let frame = encode_delta_frame(&delta);
        for byte in 0..frame.len() {
            let mut bytes = base.clone();
            let mut bad = frame.clone();
            bad[byte] ^= 0x40;
            bytes.extend_from_slice(&bad);
            let rec = load_any(&bytes, &schema()).expect("corrupt tail must still recover");
            assert_eq!(rec.deltas, 0, "flip at {byte}");
            assert_eq!(rec.valid_bytes, base.len(), "flip at {byte}");
        }
    }

    /// Writes `bytes` as a checkpoint file and opens a store on it.
    fn open_bytes(name: &str, bytes: &[u8]) -> CmResult<Option<Checkpoint>> {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write checkpoint");
        let opened = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        );
        let _ = std::fs::remove_file(&path);
        opened.map(|(_, cp)| cp)
    }

    /// Checksum-valid records that no run could have written: decoding or
    /// replaying them must fail the open, not panic and not be dropped as
    /// a torn tail.
    #[test]
    fn malformed_graph_records_fail_the_open() {
        let cp = fixture();
        let mut base = encode_base_file(&cp);
        base.extend_from_slice(&encode_delta_frame(&delta_fixture(&cp)));
        assert!(open_bytes("well_formed.ckpt", &base).expect("well-formed log").is_some());

        type Corrupt<T> = (&'static str, fn(&mut T));
        let bad_bases: [Corrupt<IncrementalState>; 6] = [
            ("edge endpoint", |s| s.graph.as_mut().expect("g").edges.push((5, 0, 0.5))),
            ("anchor id", |s| s.graph.as_mut().expect("g").anchors[1] = 9),
            ("member id", |s| s.graph.as_mut().expect("g").anchor_members[0].push(5)),
            ("member lists", |s| {
                s.graph.as_mut().expect("g").anchor_members.pop();
            }),
            ("dropped vote", |s| {
                s.votes.pop();
            }),
            ("vote value", |s| s.votes[0] = 2),
        ];
        for (what, corrupt) in bad_bases {
            let mut bad = fixture();
            corrupt(&mut bad.curator);
            let err = open_bytes("bad_base.ckpt", &encode_base_file(&bad));
            assert!(err.is_err(), "base with a bad {what} must not open");
        }

        let bad_deltas: [Corrupt<TickDelta>; 8] = [
            ("edge endpoint", |d| d.curator.graph.as_mut().expect("g").new_edges.push((7, 0, 0.5))),
            ("new anchor", |d| d.curator.graph.as_mut().expect("g").new_anchors[0].0 = 8),
            ("anchor index", |d| {
                d.curator.graph.as_mut().expect("g").member_appends.push((2, vec![6]))
            }),
            ("rewinding row count", |d| {
                d.curator.graph = Some(OnlineGraphDelta {
                    n_rows: 4,
                    new_edges: vec![],
                    member_appends: vec![],
                    new_anchors: vec![],
                })
            }),
            ("graph presence", |d| d.curator.graph = None),
            ("dropped vote", |d| {
                d.curator.new_votes.pop();
            }),
            // Whole, but two votes per row against the base's three.
            ("vote width", |d| d.curator.new_votes.truncate(4)),
            ("vote value", |d| d.curator.new_votes[1] = -3),
        ];
        for (what, corrupt) in bad_deltas {
            let mut delta = delta_fixture(&cp);
            corrupt(&mut delta);
            let mut bytes = encode_base_file(&cp);
            bytes.extend_from_slice(&encode_delta_frame(&delta));
            let err = open_bytes("bad_delta.ckpt", &bytes);
            assert!(err.is_err(), "delta with a bad {what} must not open");
        }
    }

    /// A whole-file JSON checkpoint as written before the delta log
    /// existed: an empty run, with no rows, no model and nothing in flight.
    const LEGACY_JSON: &str = r#"{"version": 1, "ticks": 0, "rows_generated": 0,
        "access": {"now_ms": 0, "services": []},
        "curator": {"n_batches": 0, "em_warm": null, "em_iterations": 0, "graph": null,
            "pool": {"modality": "I", "rows": [], "labels": [], "borderline": []}},
        "queue": [], "deferred": [], "quarantine": [],
        "shed": {"offered": 0, "admitted": 0, "deferred": 0, "shed_batches": 0,
            "shed_rows": 0, "peak_depth": 0, "peak_bytes": 0},
        "quarantined": 0, "recovered": 0, "dropped": 0, "last_entropy": null,
        "batch_stats": [], "latencies_ms": []}"#;

    #[test]
    fn store_refuses_json_checkpoints_and_leaves_them_untouched() {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("legacy.json");
        std::fs::write(&path, LEGACY_JSON).expect("write legacy checkpoint");
        let opened = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        );
        let after = std::fs::read(&path).expect("legacy file survives");
        let _ = std::fs::remove_file(&path);
        assert!(opened.is_err(), "a non-CMCK file must fail the open, not be migrated");
        assert_eq!(after, LEGACY_JSON.as_bytes(), "a refused file must not be rewritten");
    }

    #[test]
    fn load_any_rejects_bad_magic_and_version() {
        let cp = fixture();
        let mut bytes = encode_base_file(&cp);
        bytes[0] = b'X';
        assert!(load_any(&bytes, &schema()).is_err());
        let mut w = Writer::new();
        write_header(&mut w, LOG_MAGIC, LOG_VERSION + 1);
        assert!(load_any(w.as_bytes(), &schema()).is_err());
    }

    #[test]
    fn store_compacts_by_tick_count_and_log_size() {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("compact.ckpt");
        let _ = std::fs::remove_file(&path);
        let policy = CompactionPolicy { every_ticks: 2, max_log_factor: 1000.0 };
        let (mut store, none) =
            CheckpointStore::open(&path, CheckpointFormat::Wire, policy, &schema()).expect("open");
        assert!(none.is_none());
        assert!(store.needs_base());
        let cp = fixture();
        store.commit_base(&cp).expect("base");
        assert!(!store.needs_base());
        let delta = delta_fixture(&cp);
        store.commit_delta(&delta).expect("delta 1");
        assert!(!store.needs_base());
        store.commit_delta(&delta).expect("delta 2");
        assert!(store.needs_base(), "every_ticks=2 must force a base rewrite");
        // Size-triggered compaction: a tiny factor trips immediately.
        let policy = CompactionPolicy { every_ticks: 1000, max_log_factor: 1.01 };
        let (mut store, some) =
            CheckpointStore::open(&path, CheckpointFormat::Wire, policy, &schema())
                .expect("reopen");
        assert!(some.is_some());
        store.commit_base(&cp).expect("base");
        store.commit_delta(&delta).expect("delta");
        assert!(store.needs_base(), "log past max_log_factor must force a base rewrite");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_open_truncates_torn_tails() {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let (mut store, _) = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        )
        .expect("open");
        let cp = fixture();
        store.commit_base(&cp).expect("base");
        let delta = delta_fixture(&cp);
        store.commit_delta(&delta).expect("delta");
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        // Simulate a crash mid-append: half a second delta.
        let frame = encode_delta_frame(&delta);
        {
            let mut f =
                std::fs::OpenOptions::new().append(true).open(&path).expect("append handle");
            f.write_all(&frame[..frame.len() / 2]).expect("torn write");
        }
        let (store, cp_back) = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        )
        .expect("reopen");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);
        assert_eq!(cp_back.expect("state").ticks, cp.ticks + 1);
        assert_eq!(store.deltas_since_base, 1);
        let _ = std::fs::remove_file(&path);
    }
}
