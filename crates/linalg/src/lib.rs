//! Linear algebra kernels for the cross-modal adaptation pipeline.
//!
//! The paper's model substrate (logistic regression and fully-connected
//! networks trained inside TFX) is replaced by a first-party implementation;
//! this crate provides the numeric core: a row-major [`Matrix`], the
//! compressed sparse rows ([`SparseRows`]) that carry the shared feature
//! layout into the models, vector kernels with f64 accumulation, parameter
//! initializers, and summary statistics.
//!
//! Everything is deterministic given a seed: `f32` storage with `f64`
//! accumulation in reductions, which is accurate enough for the workloads in
//! this repository while keeping memory traffic low.

pub mod init;
pub mod matrix;
pub mod rng;
pub mod sparse;
pub mod stable;
pub mod stats;
pub mod vecops;

pub use init::{he_normal, xavier_uniform};
pub use matrix::Matrix;
pub use rng::{Rng, SliceRandom, StdRng};
pub use sparse::SparseRows;
pub use stable::StableSum;
pub use stats::{mean, standardize_columns, variance, ColumnStats};
pub use vecops::{add_assign, argmax, axpy, dot, l2_norm, scale, sigmoid, softmax_in_place};
