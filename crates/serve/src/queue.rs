//! Bounded admission queue with watermark backpressure.
//!
//! Arrival batches are *live traffic*: the world keeps producing them
//! whether or not the service can keep up, so every offered batch must be
//! dispositioned explicitly. The policy, in order:
//!
//! 1. **Shed** when the queue is at capacity or admitting the batch would
//!    push queued bytes past the memory budget ([`cm_shard::MemTracker`]
//!    enforcement — overload becomes a counted [`SheddingReport`] entry,
//!    never an OOM or panic).
//! 2. **Defer** when the queue has reached its high watermark: the batch
//!    is handed back to the caller to re-offer next tick, ahead of new
//!    arrivals. A batch deferred twice is shed — deferral buys one tick of
//!    drain, not unbounded buffering.
//! 3. **Admit** otherwise.
//!
//! Everything here is deterministic bookkeeping; no clocks, no RNG.

use std::collections::VecDeque;

use cm_json::{Json, ToJson};
use cm_orgsim::ModalityDataset;
use cm_shard::{MemBudget, MemTracker};

/// Sizing of the admission queue.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum queued batches; offers beyond this are shed.
    pub capacity: usize,
    /// Depth at which new offers start being deferred.
    pub high_watermark: usize,
    /// Byte budget for queued batch payloads (`CM_MEM_BUDGET` scale).
    pub budget: MemBudget,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self { capacity: 8, high_watermark: 6, budget: MemBudget::default() }
    }
}

/// An arrival batch waiting for (re-)admission or processing.
#[derive(Debug, Clone)]
pub struct QueuedBatch {
    /// The featurized arrival rows.
    pub batch: ModalityDataset,
    /// Simulated time the batch arrived (latency accounting).
    pub arrival_ms: u64,
    /// Times the watermark controller has deferred this batch.
    pub deferrals: u32,
}

/// Disposition of one offered batch.
#[derive(Debug)]
pub enum Admission {
    /// Queued for processing.
    Admitted,
    /// Handed back to re-offer next tick (the batch rides inside).
    Deferred(Box<QueuedBatch>),
    /// Dropped; rows are counted in the [`SheddingReport`].
    Shed,
}

/// Structured overload telemetry — the contract that overload produces a
/// report, not a crash.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SheddingReport {
    /// Batches offered for admission (re-offers of deferred batches count
    /// again).
    pub offered: usize,
    /// Batches admitted.
    pub admitted: usize,
    /// Batches deferred by the watermark controller.
    pub deferred: usize,
    /// Batches shed.
    pub shed_batches: usize,
    /// Rows lost to shedding.
    pub shed_rows: usize,
    /// Peak queue depth.
    pub peak_depth: usize,
    /// Peak queued payload bytes.
    pub peak_bytes: usize,
}

impl ToJson for SheddingReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("offered", self.offered.to_json()),
            ("admitted", self.admitted.to_json()),
            ("deferred", self.deferred.to_json()),
            ("shed_batches", self.shed_batches.to_json()),
            ("shed_rows", self.shed_rows.to_json()),
            ("peak_depth", self.peak_depth.to_json()),
            ("peak_bytes", self.peak_bytes.to_json()),
        ])
    }
}

/// The bounded admission queue. See the module docs for the policy.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: QueueConfig,
    items: VecDeque<QueuedBatch>,
    tracker: MemTracker,
    report: SheddingReport,
}

impl AdmissionQueue {
    /// An empty queue with the given sizing.
    pub fn new(config: QueueConfig) -> Self {
        let tracker = MemTracker::new(config.budget);
        Self { config, items: VecDeque::new(), tracker, report: SheddingReport::default() }
    }

    /// Rebuilds a queue from checkpointed contents and counters.
    ///
    /// # Panics
    /// Panics if the checkpointed items exceed the configured budget —
    /// they were admitted under it, so a mismatch means the config and
    /// checkpoint disagree.
    pub fn restore(config: QueueConfig, items: Vec<QueuedBatch>, report: SheddingReport) -> Self {
        let mut q = Self::new(config);
        for item in items {
            let bytes = item.batch.table.approx_bytes();
            // lint: allow(expect) — documented panic: admitted-under-budget invariant
            q.tracker.charge(bytes, "restored queue batch").expect("checkpoint exceeds budget");
            q.items.push_back(item);
        }
        q.report = report;
        q
    }

    /// Offers one batch; see the module docs for the disposition order.
    pub fn offer(&mut self, mut item: QueuedBatch) -> Admission {
        self.report.offered += 1;
        let bytes = item.batch.table.approx_bytes();
        let over_budget = self.tracker.current().saturating_add(bytes) > self.tracker.budget();
        if self.items.len() >= self.config.capacity || over_budget || item.deferrals >= 1 {
            if self.items.len() < self.config.high_watermark && !over_budget {
                // Pressure cleared while the batch waited; admit it.
            } else {
                self.report.shed_batches += 1;
                self.report.shed_rows += item.batch.len();
                return Admission::Shed;
            }
        } else if self.items.len() >= self.config.high_watermark {
            self.report.deferred += 1;
            item.deferrals += 1;
            return Admission::Deferred(Box::new(item));
        }
        // lint: allow(expect) — within budget by the admission check above
        self.tracker.charge(bytes, "queued batch").expect("admission check missed the budget");
        self.items.push_back(item);
        self.report.admitted += 1;
        self.report.peak_depth = self.report.peak_depth.max(self.items.len());
        self.report.peak_bytes = self.report.peak_bytes.max(self.tracker.current());
        Admission::Admitted
    }

    /// Takes the oldest admitted batch.
    pub fn pop(&mut self) -> Option<QueuedBatch> {
        let item = self.items.pop_front()?;
        self.tracker.release(item.batch.table.approx_bytes());
        Some(item)
    }

    /// Queued batches.
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Queued payload bytes currently charged.
    pub fn queued_bytes(&self) -> usize {
        self.tracker.current()
    }

    /// The overload telemetry so far.
    pub fn report(&self) -> &SheddingReport {
        &self.report
    }

    /// The queued batches, oldest first (checkpoint serialization).
    pub fn items(&self) -> impl Iterator<Item = &QueuedBatch> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, Label, ModalityKind,
        ServingMode,
    };

    use super::*;

    fn batch(rows: usize) -> QueuedBatch {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::numeric(
            "x",
            FeatureSet::A,
            ServingMode::Servable,
        )]));
        let mut table = FeatureTable::new(schema);
        for i in 0..rows {
            table.push_row(&[FeatureValue::Numeric(i as f64)]);
        }
        QueuedBatch {
            batch: ModalityDataset {
                modality: ModalityKind::Image,
                table,
                labels: vec![Label::Negative; rows],
                borderline: vec![false; rows],
            },
            arrival_ms: 0,
            deferrals: 0,
        }
    }

    fn config(capacity: usize, high: usize) -> QueueConfig {
        QueueConfig { capacity, high_watermark: high, budget: MemBudget::bytes(1 << 20) }
    }

    #[test]
    fn admits_until_high_watermark_then_defers_then_sheds() {
        let mut q = AdmissionQueue::new(config(4, 2));
        assert!(matches!(q.offer(batch(3)), Admission::Admitted));
        assert!(matches!(q.offer(batch(3)), Admission::Admitted));
        // At the watermark: defer once...
        let Admission::Deferred(b) = q.offer(batch(3)) else {
            panic!("expected deferral at the high watermark");
        };
        assert_eq!(b.deferrals, 1);
        // ...and a second deferral of the same batch under pressure sheds.
        assert!(matches!(q.offer(*b), Admission::Shed));
        let r = q.report();
        assert_eq!((r.admitted, r.deferred, r.shed_batches, r.shed_rows), (2, 1, 1, 3));
    }

    #[test]
    fn deferred_batch_is_admitted_once_pressure_clears() {
        let mut q = AdmissionQueue::new(config(4, 2));
        q.offer(batch(3));
        q.offer(batch(3));
        let Admission::Deferred(b) = q.offer(batch(3)) else { panic!("expected deferral") };
        q.pop().unwrap();
        q.pop().unwrap();
        assert!(matches!(q.offer(*b), Admission::Admitted));
    }

    #[test]
    fn capacity_and_budget_both_shed() {
        let mut q = AdmissionQueue::new(config(2, 2));
        q.offer(batch(1));
        q.offer(batch(1));
        assert!(matches!(q.offer(batch(1)), Admission::Shed), "over capacity");
        let tiny = QueueConfig { capacity: 8, high_watermark: 8, budget: MemBudget::bytes(1) };
        let mut q = AdmissionQueue::new(tiny);
        assert!(matches!(q.offer(batch(64)), Admission::Shed), "over budget");
        assert_eq!(q.report().shed_batches, 1);
    }

    #[test]
    fn restore_recharges_the_tracker() {
        let mut q = AdmissionQueue::new(config(4, 3));
        q.offer(batch(2));
        q.offer(batch(2));
        let items: Vec<QueuedBatch> = q.items().cloned().collect();
        let restored = AdmissionQueue::restore(config(4, 3), items, q.report().clone());
        assert_eq!(restored.depth(), q.depth());
        assert_eq!(restored.queued_bytes(), q.queued_bytes());
        assert_eq!(restored.report(), q.report());
    }
}
