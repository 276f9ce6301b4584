//! Early fusion: one model over the union of all modalities' rows.

use cm_linalg::SparseRows;
use cm_models::{train_model, ModelKind, ParConfig, TrainConfig, TrainedModel};

use crate::{concat_parts, ModalityData};

/// The paper's best-performing strategy (§6.6): merge every modality and
/// label source into a single dataset in the shared layout and train once.
///
/// Early fusion is [`train_model`] over [`concat_parts`], which is how the
/// library trains it with an explicit [`ParConfig`]. This wrapper keeps the
/// signatures the benchmark package (`perfbench/`) calls, so each of its
/// two methods reads `CM_THREADS` once, at its top; they change only with
/// the benchmark.
pub struct EarlyFusionModel {
    model: TrainedModel,
}

impl EarlyFusionModel {
    /// Trains over the concatenation of `parts`.
    ///
    /// # Panics
    /// Panics if `parts` is empty or widths differ.
    pub fn train(
        parts: &[ModalityData],
        kind: &ModelKind,
        config: &TrainConfig,
        validation: Option<(&SparseRows, &[f64])>,
    ) -> Self {
        // lint: allow(par-from-env) — signature pinned by perfbench/src/adapt_e2e.rs
        let par = ParConfig::from_env();
        let (x, y) = concat_parts(parts);
        Self { model: train_model(kind, &x, &y, None, config, validation, &par) }
    }

    /// Positive-class probabilities in the shared layout.
    pub fn predict_proba(&self, x: &SparseRows) -> Vec<f64> {
        // lint: allow(par-from-env) — signature pinned by perfbench/src/adapt_e2e.rs
        self.model.predict_proba(x, &ParConfig::from_env())
    }
}

#[cfg(test)]
mod tests {
    use cm_eval::auprc;

    use super::*;
    use crate::testutil::two_modality_task;

    #[test]
    fn combining_modalities_beats_single_modality() {
        let (old, new, xt, yt) = two_modality_task(600, 3);
        let kind = ModelKind::Mlp { hidden: vec![16] };
        let cfg = TrainConfig { epochs: 30, patience: None, ..Default::default() };
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();

        let both = EarlyFusionModel::train(&[old.clone(), new.clone()], &kind, &cfg, None);
        let old_only = EarlyFusionModel::train(&[old], &kind, &cfg, None);
        let ap_both = auprc(&both.predict_proba(&xt), &pos);
        let ap_old = auprc(&old_only.predict_proba(&xt), &pos);
        // Test rows are new-modality; the old-only model never saw the
        // new modality's specific feature and should do worse.
        assert!(ap_both > ap_old, "early fusion {ap_both} should beat old-only {ap_old}");
        assert!(ap_both > 0.6, "combined AUPRC too low: {ap_both}");
    }

    #[test]
    fn works_with_logistic_family() {
        let (old, new, xt, yt) = two_modality_task(400, 5);
        let cfg = TrainConfig::default();
        let m = EarlyFusionModel::train(&[old, new], &ModelKind::Logistic, &cfg, None);
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();
        assert!(auprc(&m.predict_proba(&xt), &pos) > 0.55);
    }
}
