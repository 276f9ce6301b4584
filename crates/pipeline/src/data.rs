//! Task data bundles and the shared feature view (pipeline step A, §3).

use std::collections::HashSet;

use cm_faults::{AccessLayer, AccessPolicy, FaultPlan, FaultSummary};
use cm_featurespace::{CmResult, DenseEncoder, FeatureSet, FeatureTable, ModalityKind};
use cm_linalg::SparseRows;
use cm_orgsim::{ModalityDataset, TaskConfig, World, WorldConfig};

/// Everything one task run needs: the world, the Table-1 datasets, and a
/// reservoir of labeled image data for fully supervised comparisons
/// (standing in for the paper's human-curated image labels).
pub struct TaskData {
    /// The generative world.
    pub world: World,
    /// Labeled old-modality corpus.
    pub text: ModalityDataset,
    /// Unlabeled new-modality pool (ground truth retained for diagnostics
    /// only).
    pub pool: ModalityDataset,
    /// Held-out labeled image test set.
    pub test: ModalityDataset,
    /// Labeled image reservoir for fully supervised baselines and Figure 5
    /// sweeps.
    pub labeled_image: ModalityDataset,
    /// Per-service fault statistics when the datasets were generated through
    /// a fault-injecting access layer; `None` on clean generation.
    pub fault_summary: Option<FaultSummary>,
}

impl TaskData {
    /// Generates a task's datasets. `n_labeled_image` sizes the fully
    /// supervised reservoir (defaults to the pool size when `None`).
    pub fn generate(task: TaskConfig, seed: u64, n_labeled_image: Option<usize>) -> Self {
        let n_labeled = n_labeled_image.unwrap_or(task.n_image_unlabeled);
        let world = World::build(WorldConfig::new(task, seed));
        let (text, pool, test) = world.generate_task_datasets(seed ^ 0xD1CE);
        let labeled_image = world.generate(ModalityKind::Image, n_labeled, seed ^ 0xBEEF);
        Self { world, text, pool, test, labeled_image, fault_summary: None }
    }

    /// Generates a task's datasets with new-modality featurization routed
    /// through a fault-injecting resilient access layer.
    ///
    /// The labeled text corpus and the labeled image reservoir are generated
    /// clean — they model *archived* organizational data, featurized before
    /// the faults under study — while the unlabeled pool and the test set
    /// (live traffic) go through the layer. Dataset seeds match
    /// [`TaskData::generate`] exactly, so with a disabled plan the result is
    /// bit-identical to clean generation.
    ///
    /// # Errors
    /// Propagates [`ErrorKind::NotFound`] / [`ErrorKind::InvalidConfig`]
    /// from [`AccessLayer::new`] on a plan naming unknown services, and any
    /// ingestion-boundary error if a corrupted value slips past the layer.
    pub fn generate_with_faults(
        task: TaskConfig,
        seed: u64,
        n_labeled_image: Option<usize>,
        plan: &FaultPlan,
        policy: AccessPolicy,
    ) -> CmResult<Self> {
        let n_labeled = n_labeled_image.unwrap_or(task.n_image_unlabeled);
        let n_pool = task.n_image_unlabeled;
        let n_test = task.n_image_test;
        let n_text = task.n_text_labeled;
        let world = World::build(WorldConfig::new(task, seed));
        // Same per-dataset seeds as `generate_task_datasets(seed ^ 0xD1CE)`.
        let ds = seed ^ 0xD1CE;
        let text = world.generate(ModalityKind::Text, n_text, ds ^ 0x1);
        let mut access = AccessLayer::new(plan, policy, &world.service_descriptors(), seed)?;
        let pool = world.generate_via(ModalityKind::Image, n_pool, ds ^ 0x2, &mut access, 0)?;
        let test = world.generate_via(
            ModalityKind::Image,
            n_test,
            ds ^ 0x3,
            &mut access,
            n_pool as u64,
        )?;
        let labeled_image = world.generate(ModalityKind::Image, n_labeled, seed ^ 0xBEEF);
        let fault_summary = access.is_enabled().then(|| access.summary());
        Ok(Self { world, text, pool, test, labeled_image, fault_summary })
    }

    /// Columns of the shared feature sets in `sets`, in schema order.
    pub fn shared_columns(&self, sets: &[FeatureSet]) -> Vec<usize> {
        self.world.schema().columns_in_sets(sets, false)
    }
}

/// A feature view: an encoder fitted over training tables for a fixed
/// column selection, so every dataset (train, pool, test) is encoded into
/// one layout.
pub struct DenseView {
    encoder: DenseEncoder,
    columns: Vec<usize>,
}

impl DenseView {
    /// Fits the view on `fit_tables`, read in place as one table,
    /// restricted to `columns`.
    ///
    /// # Errors
    /// Returns [`cm_featurespace::ErrorKind::InvalidConfig`] if
    /// `fit_tables` is empty and propagates
    /// [`cm_featurespace::ErrorKind::OutOfBounds`] from the encoder on
    /// column indices outside the schema.
    pub fn fit(fit_tables: &[&FeatureTable], columns: Vec<usize>) -> CmResult<Self> {
        let encoder = DenseEncoder::fit(fit_tables, &columns)?;
        Ok(Self { encoder, columns })
    }

    /// Encodes a table into sparse rows of the view's layout.
    pub fn encode(&self, table: &FeatureTable) -> SparseRows {
        self.encoder.transform(table)
    }

    /// The fitted encoder.
    pub fn encoder(&self) -> &DenseEncoder {
        &self.encoder
    }

    /// The source columns this view encodes.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }
}

/// Masks (marks missing) every slot whose source column's feature set is
/// not allowed — how a single shared layout serves scenarios where text
/// and image use different feature-set ladders (Figure 6's `T + ABC`,
/// `I + AB` steps). A masked slot loses its stored entries and stores its
/// missing indicator once.
pub fn mask_disallowed_sets(
    m: &mut SparseRows,
    view: &DenseView,
    schema: &cm_featurespace::FeatureSchema,
    allowed: &[FeatureSet],
) {
    let allowed_sets: HashSet<FeatureSet> = allowed.iter().copied().collect();
    // Slots come from a fitted encoder, so their source columns are in
    // range unless the schema was swapped out from under the view.
    let masked: Vec<(usize, usize)> = view
        .encoder()
        .layout()
        .slots()
        .iter()
        .filter(|slot| {
            schema.def(slot.source_column).is_some_and(|d| !allowed_sets.contains(&d.set))
        })
        .map(|slot| (slot.offset, slot.missing_indicator))
        .collect();
    if masked.is_empty() {
        return;
    }
    let mut out = SparseRows::with_capacity(m.cols(), m.rows(), m.nnz());
    for r in 0..m.rows() {
        let (idx, val) = m.row(r);
        let mut k = 0;
        for &(start, indicator) in &masked {
            // Entries before the slot pass through; the slot's own,
            // indicator included, are replaced by one hot indicator.
            while k < idx.len() && (idx[k] as usize) < start {
                out.push(idx[k] as usize, val[k]);
                k += 1;
            }
            while k < idx.len() && (idx[k] as usize) <= indicator {
                k += 1;
            }
            out.push(indicator, 1.0);
        }
        for (&c, &v) in idx[k..].iter().zip(&val[k..]) {
            out.push(c as usize, v);
        }
        out.finish_row();
    }
    *m = out;
}

#[cfg(test)]
mod tests {
    use cm_orgsim::TaskId;

    use super::*;

    fn data() -> TaskData {
        TaskData::generate(cm_orgsim::TaskConfig::paper(TaskId::Ct1).scaled(0.01), 3, Some(100))
    }

    #[test]
    fn generate_builds_all_datasets() {
        let d = data();
        assert!(d.text.len() >= 64);
        assert!(d.pool.len() >= 64);
        assert!(d.test.len() >= 64);
        assert_eq!(d.labeled_image.len(), 100);
        assert_eq!(d.text.modality, ModalityKind::Text);
        assert_eq!(d.labeled_image.modality, ModalityKind::Image);
    }

    #[test]
    fn generate_with_faults_disabled_matches_generate() {
        let task = cm_orgsim::TaskConfig::paper(TaskId::Ct1).scaled(0.01);
        let clean = TaskData::generate(task.clone(), 3, Some(100));
        let via = TaskData::generate_with_faults(
            task,
            3,
            Some(100),
            &FaultPlan::disabled(),
            AccessPolicy::default(),
        )
        .unwrap();
        assert!(via.fault_summary.is_none());
        for (a, b) in [
            (&clean.text, &via.text),
            (&clean.pool, &via.pool),
            (&clean.test, &via.test),
            (&clean.labeled_image, &via.labeled_image),
        ] {
            assert_eq!(a.labels, b.labels);
            for r in 0..a.len() {
                assert_eq!(a.table.row(r), b.table.row(r));
            }
        }
    }

    #[test]
    fn generate_with_faults_records_a_summary() {
        let task = cm_orgsim::TaskConfig::paper(TaskId::Ct1).scaled(0.01);
        let plan = FaultPlan::parse("seed=9;topics=unavailable@0.8;keywords=transient(1)").unwrap();
        let d = TaskData::generate_with_faults(task, 3, Some(50), &plan, AccessPolicy::default())
            .unwrap();
        let summary = d.fault_summary.expect("enabled plan must record a summary");
        assert_eq!(summary.seed, 9);
        assert_eq!(summary.services.len(), 2);
        let topics = summary.services.iter().find(|s| s.name == "topics").unwrap();
        assert!(topics.calls > 0);
        assert!(topics.faulted > 0);
    }

    #[test]
    fn shared_columns_exclude_modality_specific() {
        let d = data();
        let cols = d.shared_columns(&FeatureSet::SHARED);
        assert_eq!(cols.len(), 15);
        let emb = d.world.schema().column("img_embedding").unwrap();
        assert!(!cols.contains(&emb));
    }

    #[test]
    fn dense_view_round_trip() {
        let d = data();
        let cols = d.shared_columns(&[FeatureSet::A]);
        let view = DenseView::fit(&[&d.text.table, &d.pool.table], cols.clone()).unwrap();
        let xt = view.encode(&d.text.table);
        let xi = view.encode(&d.pool.table);
        assert_eq!(xt.cols(), xi.cols());
        assert_eq!(xt.rows(), d.text.len());
        assert_eq!(view.columns(), &cols[..]);
    }

    #[test]
    fn masking_blanks_disallowed_sets() {
        let d = data();
        let cols = d.shared_columns(&[FeatureSet::A, FeatureSet::B]);
        let view = DenseView::fit(&[&d.text.table], cols).unwrap();
        let mut x = view.encode(&d.text.table);
        let before = x.to_dense();
        mask_disallowed_sets(&mut x, &view, d.world.schema(), &[FeatureSet::A]);
        let m = x.to_dense();
        // Set-B slots must now be all-missing.
        let schema = d.world.schema();
        let mut changed = false;
        for slot in view.encoder().layout().slots() {
            let set = schema.def(slot.source_column).unwrap().set;
            for r in 0..m.rows() {
                if set == FeatureSet::B {
                    assert_eq!(m[(r, slot.missing_indicator)], 1.0);
                    for c in slot.offset..slot.offset + slot.width {
                        assert_eq!(m[(r, c)], 0.0);
                    }
                } else {
                    for c in slot.offset..=slot.missing_indicator {
                        assert_eq!(m[(r, c)], before[(r, c)]);
                    }
                }
            }
            changed |= set == FeatureSet::B;
        }
        assert!(changed, "fixture must contain set-B columns");
    }
}
