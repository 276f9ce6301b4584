//! Intermediate fusion: per-modality encoders, concatenated embeddings,
//! jointly trained head.

use cm_linalg::Matrix;
use cm_models::{train_model, ModelKind, ParConfig, TrainConfig, TrainedModel};

use crate::ModalityData;

/// Intermediate fusion (§5): stage one trains an independent model per
/// modality; stage two removes their prediction layers, concatenates the
/// penultimate embeddings of *every* modality model applied to each data
/// point (shared features flow into all of them), and trains a final model
/// on the concatenation. Motivated by small modalities getting overpowered
/// in early fusion.
pub struct IntermediateFusionModel {
    encoders: Vec<TrainedModel>,
    head: TrainedModel,
    input_dim: usize,
}

impl IntermediateFusionModel {
    /// Two-stage training over `parts`, bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `parts` is empty or widths differ.
    pub fn train(
        parts: &[ModalityData],
        kind: &ModelKind,
        config: &TrainConfig,
        validation: Option<(&Matrix, &[f64])>,
        par: &ParConfig,
    ) -> Self {
        assert!(!parts.is_empty(), "need at least one modality");
        let input_dim = parts[0].x.cols();
        for p in parts {
            assert_eq!(p.x.cols(), input_dim, "modality width mismatch");
        }
        // Stage 1: independent per-modality models.
        let encoders: Vec<TrainedModel> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let cfg =
                    TrainConfig { seed: config.seed.wrapping_add(i as u64), ..config.clone() };
                train_model(kind, &p.x, &p.targets, None, &cfg, None, par)
            })
            .collect();
        // Stage 2: embed every row with every encoder, concatenate, train
        // the joint head.
        let total_rows: usize = parts.iter().map(|p| p.x.rows()).sum();
        let embed_dim: usize = encoders.iter().map(|e| e.embed_dim(input_dim)).sum();
        let mut joint = Matrix::zeros(total_rows, embed_dim);
        let mut targets = Vec::with_capacity(total_rows);
        let mut r = 0;
        for part in parts {
            let embeds: Vec<Matrix> = encoders.iter().map(|e| e.embed(&part.x, par)).collect();
            for row_idx in 0..part.x.rows() {
                let out = joint.row_mut(r);
                let mut offset = 0;
                for e in &embeds {
                    let src = e.row(row_idx);
                    out[offset..offset + src.len()].copy_from_slice(src);
                    offset += src.len();
                }
                r += 1;
            }
            targets.extend_from_slice(&part.targets);
        }
        let head_val_x = validation.map(|(vx, _)| {
            let embeds: Vec<Matrix> = encoders.iter().map(|e| e.embed(vx, par)).collect();
            let mut m = Matrix::zeros(vx.rows(), embed_dim);
            for row_idx in 0..vx.rows() {
                let out = m.row_mut(row_idx);
                let mut offset = 0;
                for e in &embeds {
                    let src = e.row(row_idx);
                    out[offset..offset + src.len()].copy_from_slice(src);
                    offset += src.len();
                }
            }
            m
        });
        let head = train_model(
            kind,
            &joint,
            &targets,
            None,
            config,
            head_val_x.as_ref().zip(validation.map(|(_, vy)| vy)),
            par,
        );
        Self { encoders, head, input_dim }
    }

    /// Positive-class probabilities in the shared layout.
    ///
    /// # Panics
    /// Panics if the width differs from training.
    pub fn predict_proba(&self, x: &Matrix, par: &ParConfig) -> Vec<f64> {
        assert_eq!(x.cols(), self.input_dim, "feature width mismatch");
        let embeds: Vec<Matrix> = self.encoders.iter().map(|e| e.embed(x, par)).collect();
        let embed_dim: usize = embeds.iter().map(Matrix::cols).sum();
        let mut joint = Matrix::zeros(x.rows(), embed_dim);
        for r in 0..x.rows() {
            let out = joint.row_mut(r);
            let mut offset = 0;
            for e in &embeds {
                let src = e.row(r);
                out[offset..offset + src.len()].copy_from_slice(src);
                offset += src.len();
            }
        }
        self.head.predict_proba(&joint, par)
    }

    /// Number of per-modality encoders.
    pub fn n_encoders(&self) -> usize {
        self.encoders.len()
    }
}

#[cfg(test)]
mod tests {
    use cm_eval::auprc;

    use super::*;
    use crate::testutil::two_modality_task;

    #[test]
    fn learns_the_task() {
        let par = ParConfig::from_env();
        let (old, new, xt, yt) = two_modality_task(600, 11);
        let kind = ModelKind::Mlp { hidden: vec![12] };
        let cfg = TrainConfig { epochs: 25, patience: None, ..Default::default() };
        let m = IntermediateFusionModel::train(&[old, new], &kind, &cfg, None, &par);
        assert_eq!(m.n_encoders(), 2);
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();
        let ap = auprc(&m.predict_proba(&xt, &par), &pos);
        assert!(ap > 0.55, "AUPRC {ap}");
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_rejects_wrong_width() {
        let par = ParConfig::from_env();
        let (old, new, _, _) = two_modality_task(60, 1);
        let cfg = TrainConfig { epochs: 2, ..Default::default() };
        let m = IntermediateFusionModel::train(
            &[old, new],
            &ModelKind::Mlp { hidden: vec![4] },
            &cfg,
            None,
            &par,
        );
        m.predict_proba(&Matrix::zeros(1, 3), &par);
    }
}
