//! Unified training entry point over both model families.

use cm_linalg::Matrix;
use cm_par::ParConfig;

use crate::logistic::{LogisticConfig, LogisticRegression};
use crate::loss::{class_balance_weights, mean_bce};
use crate::mlp::{Mlp, MlpEpochConfig};

/// Model family selector. The paper's TFX pipelines support exactly these
/// two and deploy whichever performs better per task (§6.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelKind {
    /// Logistic regression.
    Logistic,
    /// Fully-connected network with the given hidden widths.
    Mlp {
        /// Hidden-layer widths.
        hidden: Vec<usize>,
    },
}

/// Training hyperparameters shared by both families.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Epochs (upper bound when early stopping is active).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate (Adam).
    pub lr: f32,
    /// L2 penalty.
    pub l2: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
    /// Early-stopping patience in epochs (MLP only; requires a validation
    /// set at the [`train_model`] call).
    pub patience: Option<usize>,
    /// Re-weight samples to balance classes (heavy imbalance is the norm in
    /// these tasks).
    pub class_balance: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 25,
            batch_size: 64,
            lr: 0.02,
            l2: 1e-4,
            seed: 0,
            patience: Some(5),
            class_balance: true,
        }
    }
}

/// A trained model of either family.
pub enum TrainedModel {
    /// Logistic regression.
    Logistic(LogisticRegression),
    /// Fully-connected network.
    Mlp(Mlp),
}

impl TrainedModel {
    /// Positive-class probabilities.
    pub fn predict_proba(&self, x: &Matrix, par: &ParConfig) -> Vec<f64> {
        match self {
            TrainedModel::Logistic(m) => m.predict_proba(x, par),
            TrainedModel::Mlp(m) => m.predict_proba(x, par),
        }
    }

    /// Pre-head representation: the penultimate activation for MLPs, the
    /// raw input for logistic regression (whose "embedding" is the feature
    /// vector itself).
    pub fn embed(&self, x: &Matrix, par: &ParConfig) -> Matrix {
        match self {
            TrainedModel::Logistic(_) => x.clone(),
            TrainedModel::Mlp(m) => m.embed_with(x, par),
        }
    }

    /// Width of [`TrainedModel::embed`] output.
    pub fn embed_dim(&self, input_dim: usize) -> usize {
        match self {
            TrainedModel::Logistic(_) => input_dim,
            TrainedModel::Mlp(m) => m.embed_dim(),
        }
    }

    /// Applies only the final prediction layer to a pre-head embedding —
    /// what DeViSE reuses from the frozen old-modality model (§5).
    pub fn head_logit(&self, embedding: &[f32]) -> f32 {
        match self {
            TrainedModel::Logistic(m) => cm_linalg::dot(m.weights(), embedding) + m.bias(),
            TrainedModel::Mlp(m) => {
                let (w, b) = m.head_weights();
                cm_linalg::dot(w, embedding) + b
            }
        }
    }
}

/// Trains a model of the requested kind on soft targets.
///
/// `sample_weights` are caller-supplied per-sample weights (e.g. the
/// CrossTrainer-style modality reweighting of `cm-fusion`); they multiply
/// the class-balance weights when `config.class_balance` is on.
/// `validation` enables early stopping for the MLP family: training stops
/// once validation BCE fails to improve for `patience` consecutive epochs,
/// and the best-epoch weights are returned. Every epoch runs on `par`, and
/// the trained weights are bit-identical at any thread count.
///
/// # Panics
/// Panics on shape mismatches or an empty training set.
pub fn train_model(
    kind: &ModelKind,
    x: &Matrix,
    targets: &[f64],
    sample_weights: Option<&[f64]>,
    config: &TrainConfig,
    validation: Option<(&Matrix, &[f64])>,
    par: &ParConfig,
) -> TrainedModel {
    assert!(x.rows() > 0, "empty training set");
    if let Some(w) = sample_weights {
        assert_eq!(w.len(), targets.len(), "sample weight count mismatch");
    }
    let weights: Option<Vec<f64>> = match (config.class_balance, sample_weights) {
        (true, Some(w)) => {
            let mut cb = class_balance_weights(targets);
            for (c, &wi) in cb.iter_mut().zip(w) {
                *c *= wi;
            }
            Some(cb)
        }
        (true, None) => Some(class_balance_weights(targets)),
        (false, Some(w)) => Some(w.to_vec()),
        (false, None) => None,
    };
    let weights_ref = weights.as_deref();
    match kind {
        ModelKind::Logistic => {
            let cfg = LogisticConfig {
                epochs: config.epochs,
                batch_size: config.batch_size,
                lr: config.lr,
                l2: config.l2,
                seed: config.seed,
            };
            TrainedModel::Logistic(LogisticRegression::fit_with(x, targets, weights_ref, &cfg, par))
        }
        ModelKind::Mlp { hidden } => {
            let mut mlp = Mlp::new(x.cols(), hidden, config.lr, config.seed);
            let mut best: Option<(f64, Mlp)> = None;
            let mut since_best = 0usize;
            for epoch in 0..config.epochs {
                mlp.train_epoch_with(
                    x,
                    targets,
                    weights_ref,
                    &MlpEpochConfig {
                        batch_size: config.batch_size,
                        l2: config.l2,
                        shuffle_seed: config.seed.wrapping_add(epoch as u64),
                    },
                    par,
                );
                if let (Some((vx, vy)), Some(patience)) = (validation, config.patience) {
                    let logits = mlp.logits_with(vx, par);
                    let val_loss = mean_bce(&logits, vy, None);
                    let improved = best.as_ref().is_none_or(|(b, _)| val_loss < *b);
                    if improved {
                        best = Some((val_loss, mlp.clone()));
                        since_best = 0;
                    } else {
                        since_best += 1;
                        if since_best >= patience {
                            break;
                        }
                    }
                }
            }
            TrainedModel::Mlp(best.map_or(mlp, |(_, m)| m))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2 == 0;
            let jitter = ((i * 31 % 100) as f32) / 100.0 - 0.5;
            rows.push(vec![if cls { 1.5 } else { -1.5 } + jitter, jitter]);
            y.push(if cls { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    fn accuracy(m: &TrainedModel, x: &Matrix, y: &[f64]) -> f64 {
        let p = m.predict_proba(x, &ParConfig::from_env());
        p.iter().zip(y).filter(|(p, &t)| (**p >= 0.5) == (t >= 0.5)).count() as f64 / y.len() as f64
    }

    #[test]
    fn both_families_fit_separable_data() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(200);
        let cfg = TrainConfig::default();
        let lr = train_model(&ModelKind::Logistic, &x, &y, None, &cfg, None, &par);
        let mlp = train_model(&ModelKind::Mlp { hidden: vec![8] }, &x, &y, None, &cfg, None, &par);
        assert!(accuracy(&lr, &x, &y) > 0.97);
        assert!(accuracy(&mlp, &x, &y) > 0.97);
    }

    #[test]
    fn early_stopping_limits_epochs() {
        let (x, y) = blobs(200);
        let (vx, vy) = blobs(80);
        let cfg = TrainConfig { epochs: 200, patience: Some(2), ..Default::default() };
        // A separable problem converges quickly; the run must finish well
        // before 200 epochs (if it didn't, this test would take visibly
        // long — we assert on behaviour via the returned model instead).
        let m = train_model(
            &ModelKind::Mlp { hidden: vec![8] },
            &x,
            &y,
            None,
            &cfg,
            Some((&vx, &vy)),
            &ParConfig::from_env(),
        );
        assert!(accuracy(&m, &vx, &vy) > 0.95);
    }

    #[test]
    fn embed_shapes_per_family() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(50);
        let cfg = TrainConfig { epochs: 2, ..Default::default() };
        let lr = train_model(&ModelKind::Logistic, &x, &y, None, &cfg, None, &par);
        assert_eq!(lr.embed(&x, &par).shape(), (50, 2));
        assert_eq!(lr.embed_dim(2), 2);
        let mlp =
            train_model(&ModelKind::Mlp { hidden: vec![4, 3] }, &x, &y, None, &cfg, None, &par);
        assert_eq!(mlp.embed(&x, &par).shape(), (50, 3));
        assert_eq!(mlp.embed_dim(2), 3);
    }

    #[test]
    fn class_balance_toggle_changes_model() {
        let par = ParConfig::from_env();
        let (x, mut y) = blobs(100);
        // Make it imbalanced.
        for t in y.iter_mut().take(80) {
            *t = 0.0;
        }
        let balanced = train_model(
            &ModelKind::Logistic,
            &x,
            &y,
            None,
            &TrainConfig { class_balance: true, ..Default::default() },
            None,
            &par,
        );
        let raw = train_model(
            &ModelKind::Logistic,
            &x,
            &y,
            None,
            &TrainConfig { class_balance: false, ..Default::default() },
            None,
            &par,
        );
        let mean =
            |m: &TrainedModel| m.predict_proba(&x, &par).iter().sum::<f64>() / x.rows() as f64;
        assert!(mean(&balanced) > mean(&raw));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training_set() {
        train_model(
            &ModelKind::Logistic,
            &Matrix::zeros(0, 3),
            &[],
            None,
            &TrainConfig::default(),
            None,
            &ParConfig::from_env(),
        );
    }
}
