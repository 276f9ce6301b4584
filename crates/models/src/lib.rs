//! Discriminative model substrate (paper §5, §6.3).
//!
//! The paper's TFX pipelines support logistic regression and fully-connected
//! deep networks, trained with a cross-entropy loss modified to accept
//! *probabilistic* labels from the weak-supervision step. This crate
//! implements both model families from scratch:
//!
//! - [`loss`] — noise-aware binary cross-entropy over soft targets, with
//!   optional per-sample weights (class re-weighting under heavy imbalance);
//! - [`optim`] — SGD with momentum and Adam;
//! - [`logistic`] — L2-regularized logistic regression;
//! - [`mlp`] — fully-connected ReLU networks with a sigmoid head, exposing
//!   the penultimate activation (`embed_with`) for intermediate fusion and
//!   the DeViSE adaptation;
//! - [`trainer`] — a unified [`trainer::train_model`] entry point with
//!   mini-batching, shuffling, and early stopping on validation loss.
//!
//! Every training and inference call takes a [`ParConfig`]; nothing here
//! reads `CM_THREADS`.

pub mod logistic;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod trainer;

pub use logistic::{LogisticConfig, LogisticRegression};
pub use mlp::{Mlp, MlpEpochConfig};
pub use optim::{Adam, Optimizer, Sgd};
pub use trainer::{train_model, ModelKind, TrainConfig, TrainedModel};

/// The parallel configuration every training and inference call takes,
/// re-exported so callers need no direct `cm-par` dependency.
pub use cm_par::ParConfig;
