//! The *common feature space* at the heart of the paper (§3).
//!
//! Organizational resources transform data points of any modality into
//! structured outputs — numeric values, multivalent categorical sets, or
//! pre-trained embeddings. This crate provides the shared vocabulary for the
//! whole pipeline:
//!
//! - [`FeatureValue`] / [`FeatureKind`] — the structured output types
//!   services produce;
//! - [`FeatureSchema`] / [`FeatureDef`] — which features exist, which of the
//!   paper's service groups (sets A–D, §6.2) they belong to, and whether they
//!   are *servable* at inference time (§2.3, §6.4);
//! - [`FeatureTable`] — a columnar store of feature vectors with explicit
//!   missingness (the modality gap means not every feature exists for every
//!   modality);
//! - [`DenseEncoder`] — one-hot / standardized encoding into the shared
//!   layout, emitted as compressed sparse rows for the model substrate;
//! - [`similarity`] — Algorithm 1 graph weights used by label propagation;
//! - [`FrozenTable`] — compiled read-only columnar views (presence bitmaps
//!   plus borrowed contiguous columns) that the hot kernels — the
//!   [`PairKernel`] pair weights, Apriori support counting, LF vote fill —
//!   run against.

pub mod dense;
pub mod error;
pub mod frozen;
pub mod jsonio;
pub mod label;
pub mod schema;
pub mod similarity;
pub mod table;
pub mod value;
pub mod vocab;

pub use dense::{DenseEncoder, DenseLayout};
pub use error::{CmError, CmResult, ErrorKind};
pub use frozen::{Bitmap, FrozenColumn, FrozenTable};
pub use label::{Label, ModalityKind};
pub use schema::{FeatureDef, FeatureSchema, FeatureSet, ServingMode};
pub use similarity::{
    algorithm1_weight, normalized_similarity, DeviationAccumulator, PairKernel, ScaleAccumulator,
    SimilarityConfig,
};
pub use table::{Column, FeatureTable};
pub use value::{CatSet, FeatureKind, FeatureValue};
pub use vocab::Vocabulary;
