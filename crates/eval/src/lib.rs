//! Evaluation metrics (paper §6.3).
//!
//! The paper's primary offline metric is the area under the precision-recall
//! curve (AUPRC), reported *relative* to a baseline fully supervised model
//! trained on pre-trained image embeddings. This crate provides:
//!
//! - [`pr`] — PR curves and average-precision AUPRC with tie handling;
//! - [`metrics`] — thresholded precision/recall/F1/accuracy and ROC-AUC;
//! - [`crossover`] — the Figure 5 machinery: finding how many hand-labeled
//!   examples a fully supervised model needs to match the cross-modal
//!   pipeline.

pub mod calibration;
pub mod crossover;
pub mod metrics;
pub mod pr;
pub mod sampling;

pub use calibration::{expected_calibration_error, reliability_curve, ReliabilityBin};
pub use crossover::{find_crossover, CrossoverSeries};
pub use metrics::{roc_auc, BinaryMetrics};
pub use pr::{auprc, pr_curve, PrPoint};
pub use sampling::{estimate_live_metrics, LiveEstimate};
