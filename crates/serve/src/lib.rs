//! Incremental curation service: checkpointed crash recovery,
//! backpressure, and degradation-aware serving.
//!
//! `cm-serve` wraps [`cm_pipeline::IncrementalCurator`] in a serving
//! envelope that makes the batch pipeline survivable as a long-running
//! process:
//!
//! - [`queue`] — a bounded admission queue with watermark backpressure:
//!   overload yields a structured [`SheddingReport`], never an OOM or a
//!   panic (`CM_MEM_BUDGET` bounds queued payload bytes).
//! - [`guards`] — per-batch quality guards (coverage, abstain rate,
//!   posterior-entropy delta) that quarantine suspect batches into a
//!   single-retry queue instead of letting a fault burst pollute the
//!   label-model warm chain.
//! - [`snapshot`] — versioned checkpoints of every piece of
//!   arrival-dependent state; a restarted service resumes **bit-identical**
//!   to an uninterrupted run (the `checkpoint-drift` lint confines
//!   checkpoint construction to that module).
//! - [`service`] — the tick loop that wires it all together over the
//!   fault-injecting access layer and the simulated clock, with
//!   crash-injection (`CM_CRASH_AT`) for recovery drills.

pub mod guards;
pub mod queue;
pub mod service;
pub mod snapshot;

pub use guards::{GuardVerdict, QualityGuards, QuarantinedBatch};
pub use queue::{Admission, AdmissionQueue, QueueConfig, QueuedBatch, SheddingReport};
pub use service::{
    run, CheckpointTickCost, CurationTickCost, RunOutcome, ServeConfig, ServeReport, ServeTiming,
};
pub use snapshot::{
    CheckpointFormat, CheckpointStore, CompactionPolicy, PendingWork, ServeTelemetry, LOG_VERSION,
};
