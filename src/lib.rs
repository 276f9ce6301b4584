//! # cross-modal
//!
//! A production-quality Rust reproduction of *"Leveraging Organizational
//! Resources to Adapt Models to New Data Modalities"* (Suri et al., VLDB
//! 2020): a pipeline that adapts existing classification tasks to new data
//! modalities in days instead of months by exploiting organizational
//! resources — model-based services, aggregate statistics, and rule-based
//! heuristics — to build a common feature space, weakly supervise the new
//! modality, and train multi-modal models.
//!
//! ## Quick start
//!
//! ```
//! use cross_modal::prelude::*;
//!
//! // A tiny task: labeled text corpus, unlabeled image pool, image test
//! // set, all drawn from a synthetic organizational world.
//! let task = TaskConfig::paper(TaskId::Ct2).scaled(0.01);
//! let data = TaskData::generate(task, 42, None);
//!
//! // Step B: curate probabilistic labels for the image pool from the text
//! // corpus (itemset-mined LFs + label propagation + label model).
//! let curation = curate(&data, &CurationConfig::default());
//! assert_eq!(curation.probabilistic_labels.len(), data.pool.len());
//!
//! // Step C: train the cross-modal early-fusion model and evaluate it.
//! let runner = ScenarioRunner {
//!     data: &data,
//!     model: ModelKind::Logistic,
//!     train: TrainConfig { epochs: 5, ..TrainConfig::default() },
//! };
//! let eval = runner.run(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation)).unwrap();
//! assert!(eval.auprc > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`par`] | deterministic chunked parallel substrate (`CM_THREADS`) |
//! | [`linalg`] | dense matrices, vector kernels, initializers |
//! | [`featurespace`] | the common feature space: schema, columnar tables, similarity |
//! | [`orgsim`] | the synthetic organizational world (data + services) |
//! | [`labelmodel`] | labeling functions, label matrix, label models |
//! | [`mining`] | Apriori itemset mining -> automatic LF generation |
//! | [`propagation`] | similarity graphs and label propagation |
//! | [`shard`] | sharded out-of-core curation (`CM_SHARD_ROWS`, `CM_MEM_BUDGET`) |
//! | [`models`] | logistic regression and MLPs with noise-aware losses |
//! | [`fusion`] | early / intermediate / DeViSE multi-modal training |
//! | [`eval`] | PR curves, AUPRC, cross-over analysis |
//! | [`faults`] | deterministic fault injection + resilient service access (`CM_FAULTS`) |
//! | [`pipeline`] | the end-to-end cross-modal adaptation pipeline |
//! | [`serve`] | incremental curation service: checkpointed recovery, backpressure (`CM_CRASH_AT`) |
//! | [`check`] | declarative experiment specs + span-aware pre-execution validation |

pub use cm_check as check;
pub use cm_eval as eval;
pub use cm_faults as faults;
pub use cm_featurespace as featurespace;
pub use cm_fusion as fusion;
pub use cm_json as json;
pub use cm_labelmodel as labelmodel;
pub use cm_linalg as linalg;
pub use cm_mining as mining;
pub use cm_models as models;
pub use cm_orgsim as orgsim;
pub use cm_par as par;
pub use cm_pipeline as pipeline;
pub use cm_propagation as propagation;
pub use cm_serve as serve;
pub use cm_shard as shard;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use cm_eval::{auprc, find_crossover, CrossoverSeries};
    pub use cm_faults::{AccessPolicy, FaultMode, FaultPlan, FaultSummary};
    pub use cm_featurespace::{
        FeatureSchema, FeatureSet, FeatureTable, FeatureValue, Label, ModalityKind,
    };
    pub use cm_models::{ModelKind, TrainConfig};
    pub use cm_orgsim::{ModalityDataset, TaskConfig, TaskId, World, WorldConfig};
    pub use cm_par::ParConfig;
    pub use cm_pipeline::{
        curate, curate_streamed_with, curate_with_lfs, expert_lfs, CurationConfig, CurationOutput,
        DegradationReport, FusionStrategy, LabelModelKind, LabelSource, Scenario, ScenarioRunner,
        StreamStats, StreamedCuration, TaskData,
    };
    pub use cm_serve::{QualityGuards, QueueConfig, RunOutcome, ServeConfig, ServeReport};
    pub use cm_shard::{MemBudget, MemTracker, ShardConfig};
}
