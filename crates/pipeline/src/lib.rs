//! End-to-end cross-modal adaptation pipeline — the paper's primary
//! contribution (§2.4, Figure 3).
//!
//! Given a task with a labeled old-modality (text) corpus and an unlabeled
//! new-modality (image) pool, the pipeline:
//!
//! 1. **feature generation** ([`data`]) — featurizes every data point into
//!    the common feature space via the organizational-resource registry and
//!    encodes it into the shared model layout (sparse rows);
//! 2. **training data curation** ([`curation`]) — mines labeling functions
//!    from the old-modality corpus (§4.3), optionally augments them with a
//!    label-propagation LF (§4.4), and fits the generative label model to
//!    emit probabilistic labels for the pool;
//! 3. **model training** ([`training`]) — trains early/intermediate/DeViSE
//!    fusion models over any combination of modalities and label sources,
//!    and evaluates AUPRC on the held-out image test set, relative to the
//!    paper's baseline (a fully supervised model on pre-trained image
//!    embeddings alone).
//!
//! [`expert`] carries the hand-written "domain expert" LF suites used by the
//! §6.7.1 comparison, and [`report`] the serializable experiment outputs the
//! bench binaries print.

pub mod active;
pub mod attribution;
pub mod curation;
pub mod data;
pub mod expert;
pub mod incremental;
pub mod report;
pub mod stream;
pub mod training;

pub use active::{apply_review, select_for_review, ReviewStrategy};
pub use attribution::{feature_set_attribution, SetAttribution};
pub use curation::{
    curate, curate_with_lfs, CurationConfig, CurationOutput, LabelModelKind, WsQuality,
};
pub use data::{mask_disallowed_sets, DenseView, TaskData};
pub use expert::{expert_lfs, EXPERT_AUTHORING};
pub use incremental::{
    mean_entropy, BatchPreview, BatchStats, IncrementalConfig, IncrementalCurator,
    IncrementalDelta, IncrementalState,
};
pub use report::{DegradationReport, LfAbstainRates, ModelEval, ScenarioReport, ServingReport};
pub use stream::{curate_streamed_with, StreamStageTiming, StreamStats, StreamedCuration};
pub use training::{FusionStrategy, LabelSource, Scenario, ScenarioRunner};
