//! # cm-shard
//!
//! Sharded out-of-core curation: fixed-size column segments streamed under
//! an explicit memory budget, with per-shard sufficient statistics merged
//! deterministically in shard-index order.
//!
//! The resident curation path (`cm-pipeline::curate`) holds the whole
//! unlabeled pool in one [`cm_featurespace::FeatureTable`]. The paper's
//! pools are tens of millions of rows; this crate provides the discipline
//! that lets curation scale past resident memory while staying
//! **bit-identical** to the resident path at any shard size and any
//! `CM_THREADS`:
//!
//! - [`config`] — `CM_SHARD_ROWS` / `CM_MEM_BUDGET` knobs ([`ShardConfig`],
//!   [`MemBudget`]) and the [`MemTracker`] that charges every held
//!   allocation against the budget and records the peak;
//! - [`corpus`] — [`SegmentedCorpus`]: a logical row range assembled from
//!   resident head tables plus an `orgsim` generation stream, emitted as
//!   fixed-size segments (a head that fits one segment is lent as it
//!   is), re-streamable for multi-pass algorithms;
//! - [`knn`] — the segmented similarity scale fit, and
//!   `cm-propagation`'s one k-NN sweep run over a [`SegmentedCorpus`]
//!   under the budget: the resident builder is the same sweep over one
//!   segment, so the edges (and hence propagation scores) match it bit
//!   for bit.
//!
//! Bit-identity rests on the substrates refactored alongside this crate:
//! every reduction the pipeline performs over rows (LF vote counts,
//! anchored rate counts, EM moments, Apriori supports, similarity scale
//! fits) is an explicit associative-merge type whose resident computation
//! is *defined* as the single-segment case, with exact ([`u64`] /
//! `StableSum`) arithmetic making the merge independent of segmentation.

pub mod config;
pub mod corpus;
pub mod knn;

pub use config::{MemBudget, MemTracker, ShardConfig};
pub use corpus::{for_each_pool_segment, SegmentedCorpus, StreamSpec};
pub use knn::{build_graph_sharded, fit_scales_sharded};
