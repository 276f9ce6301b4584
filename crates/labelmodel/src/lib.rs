//! Weak supervision substrate (paper §4, Snorkel/Snorkel-Drybell style).
//!
//! Labeling functions ([`lf`]) vote positive / negative / abstain over rows
//! of the common feature space. Votes are collected into a [`LabelMatrix`],
//! whose per-LF agreement structure a [`GenerativeModel`] uses to estimate
//! LF accuracies and emit *probabilistic labels* — the training signal for
//! the discriminative end model. [`diagnostics`] computes the paper's LF
//! quality metrics (coverage, precision, recall, conflict) against a
//! labeled development set.

pub mod anchored;
pub mod diagnostics;
pub mod generative;
pub mod lf;
pub mod matrix;
pub mod patterns;

pub use anchored::{AnchoredModel, LfRates, RateCounts};
pub use diagnostics::{evaluate_lfs, filter_lfs, LfReport, LfSummary};
pub use generative::{
    majority_vote, majority_vote_patterns, EmMoments, GenerativeConfig, GenerativeModel, WarmStart,
};
pub use lf::{
    BoundScoreLf, CategoricalContainsLf, ConjunctionLf, LabelingFunction, NumericThresholdLf,
    Predicate, ThresholdDirection, Vote,
};
pub use matrix::{LabelMatrix, VoteCounts, VoteStats};
pub use patterns::VotePatterns;
