//! The adapted DeViSE baseline (§5, Figure 4 right).

use cm_linalg::{sigmoid, Matrix};
use cm_models::{train_model, ModelKind, ParConfig, TrainConfig, TrainedModel};

use crate::projection::{LinearProjection, ProjectionConfig};
use crate::ModalityData;

/// DeViSE adapted to the cross-modal setting:
///
/// 1. train model **A** on the existing (old) modalities and freeze it —
///    DeViSE's language-model pre-training;
/// 2. pre-train model **B** on the weakly supervised new-modality data —
///    DeViSE's visual-model pre-training;
/// 3. train a linear projection **P** matching B's pre-head output `Y` to
///    A's pre-head output `X` on the new-modality points;
/// 4. at inference, serve `sigmoid(A.head(P(B.embed(x))))` — B plus P,
///    through A's frozen prediction layer.
pub struct DeViseModel {
    model_a: TrainedModel,
    model_b: TrainedModel,
    projection: LinearProjection,
    input_dim: usize,
}

impl DeViseModel {
    /// Trains the three stages. `old` carries ground-truth labels of the
    /// existing modalities; `new` carries weakly supervised labels of the
    /// target modality. Both are in the shared dense layout. Bit-identical
    /// at any thread count.
    ///
    /// # Panics
    /// Panics if widths differ or either part is empty.
    pub fn train(
        old: &ModalityData,
        new: &ModalityData,
        kind: &ModelKind,
        config: &TrainConfig,
        par: &ParConfig,
    ) -> Self {
        assert_eq!(old.x.cols(), new.x.cols(), "modality width mismatch");
        let input_dim = old.x.cols();
        // Stage 1: frozen old-modality model A.
        let model_a = train_model(kind, &old.x, &old.targets, None, config, None, par);
        // Stage 2: new-modality model B.
        let cfg_b = TrainConfig { seed: config.seed.wrapping_add(1), ..config.clone() };
        let model_b = train_model(kind, &new.x, &new.targets, None, &cfg_b, None, par);
        // Stage 3: project Y (B's embedding) onto X (A's embedding) over
        // the new-modality points.
        let x_emb = model_a.embed(&new.x, par);
        let y_emb = model_b.embed(&new.x, par);
        let projection = LinearProjection::fit(
            &y_emb,
            &x_emb,
            &ProjectionConfig { seed: config.seed.wrapping_add(2), ..Default::default() },
        );
        Self { model_a, model_b, projection, input_dim }
    }

    /// Positive-class probabilities: B → P → A's frozen head.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn predict_proba(&self, x: &Matrix, par: &ParConfig) -> Vec<f64> {
        assert_eq!(x.cols(), self.input_dim, "feature width mismatch");
        let projected = self.projection.project(&self.model_b.embed(x, par));
        projected.rows_iter().map(|row| f64::from(sigmoid(self.model_a.head_logit(row)))).collect()
    }

    /// The frozen old-modality model.
    pub fn model_a(&self) -> &TrainedModel {
        &self.model_a
    }

    /// The new-modality model.
    pub fn model_b(&self) -> &TrainedModel {
        &self.model_b
    }
}

#[cfg(test)]
mod tests {
    use cm_eval::auprc;

    use super::*;
    use crate::testutil::two_modality_task;

    #[test]
    fn devise_learns_but_lags_early_fusion() {
        let par = ParConfig::from_env();
        // §6.6: early fusion beats DeViSE (up to 5.52x, average 2.21x).
        let (old, new, xt, yt) = two_modality_task(600, 21);
        let kind = ModelKind::Mlp { hidden: vec![12] };
        let cfg = TrainConfig { epochs: 25, patience: None, ..Default::default() };
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();

        let devise = DeViseModel::train(&old, &new, &kind, &cfg, &par);
        let ap_devise = auprc(&devise.predict_proba(&xt, &par), &pos);
        let early = crate::EarlyFusionModel::train(&[old.clone(), new.clone()], &kind, &cfg, None);
        let ap_early = auprc(&early.predict_proba(&xt), &pos);

        assert!(ap_devise > 0.35, "DeViSE must still learn: {ap_devise}");
        assert!(
            ap_early >= ap_devise * 0.95,
            "early fusion ({ap_early}) should not lose clearly to DeViSE ({ap_devise})"
        );
    }

    #[test]
    fn probabilities_are_valid() {
        let par = ParConfig::from_env();
        let (old, new, xt, _) = two_modality_task(200, 9);
        let cfg = TrainConfig { epochs: 5, ..Default::default() };
        let m = DeViseModel::train(&old, &new, &ModelKind::Mlp { hidden: vec![6] }, &cfg, &par);
        for p in m.predict_proba(&xt, &par) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn works_with_logistic_models() {
        let par = ParConfig::from_env();
        // For logistic models embed = input, so P maps input to input.
        let (old, new, xt, yt) = two_modality_task(300, 13);
        let cfg = TrainConfig::default();
        let m = DeViseModel::train(&old, &new, &ModelKind::Logistic, &cfg, &par);
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();
        assert!(auprc(&m.predict_proba(&xt, &par), &pos) > 0.4);
    }

    #[test]
    #[should_panic(expected = "modality width mismatch")]
    fn rejects_mismatched_widths() {
        let (old, _, _, _) = two_modality_task(50, 1);
        let bad = ModalityData::new(cm_linalg::Matrix::zeros(10, 3), vec![0.0; 10]);
        DeViseModel::train(
            &old,
            &bad,
            &ModelKind::Logistic,
            &TrainConfig::default(),
            &ParConfig::from_env(),
        );
    }
}
