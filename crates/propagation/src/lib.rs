//! Label propagation over the common feature space (paper §4.4).
//!
//! The paper's Expander-based label propagation finds *borderline* examples:
//! data points of the new modality whose categorical signal is too weak for
//! mined LFs, but which sit near labeled old-modality points in the graph
//! induced by Algorithm 1's weights. This crate provides:
//!
//! - [`graph`] — a CSR sparse similarity graph;
//! - [`builder`] — k-NN graph construction, one segment sweep over a
//!   resident table or a segmented corpus (exact for small data,
//!   anchor-based approximate for large pools — single-machine stand-ins
//!   for Expander's distributed build);
//! - [`propagate`] — Zhu–Ghahramani iterative propagation with clamped
//!   seeds, plus an Expander-inspired in-place (Gauss–Seidel) streaming
//!   variant;
//! - [`score_lf`] — turning propagation scores into a threshold LF with
//!   thresholds tuned on the old-modality dev set, the form in which
//!   propagation enters the weak-supervision pipeline.

pub mod builder;
pub mod graph;
pub mod online;
pub mod propagation;
pub mod score_lf;

pub use builder::{GraphBuilder, KnnMethod, MemLedger, SegmentFn, Segments};
/// The parallel configuration the graph builders take, re-exported for
/// crates that build graphs without depending on `cm-par` themselves.
pub use cm_par::ParConfig;
pub use graph::SparseGraph;
pub use online::{target_anchor_count, OnlineGraph, OnlineGraphDelta, OnlineGraphState};
pub use propagation::{propagate, propagate_streaming, PropagationConfig};
pub use score_lf::{tune_score_thresholds, TunedThresholds};
