//! CrossTrainer-style modality reweighting (paper §7.3).
//!
//! "We are exploring domain adaptation as a primitive to help balance
//! between the data modalities under our common feature space" — and the
//! paper cites CrossTrainer (Chen et al., DEEM 2019), which balances a
//! source and target dataset by sweeping a loss weight α. This module
//! implements that primitive for early fusion: the old modality's samples
//! are weighted α and the new modality's `1 − α`, the sweep is scored on a
//! held-out validation slice, and the best α wins. α = 0.5 recovers plain
//! early fusion (up to weight normalization); α → 0 discards the old
//! modality.

use cm_linalg::Matrix;
use cm_models::{train_model, ModelKind, ParConfig, TrainConfig, TrainedModel};

use crate::{concat_parts, ModalityData};

/// Result of the α sweep.
pub struct ReweightedModel {
    /// Model trained at the winning α.
    pub model: TrainedModel,
    /// Winning weight on the *old* modality.
    pub alpha: f64,
    /// `(alpha, validation AUPRC)` for every swept candidate.
    pub sweep: Vec<(f64, f64)>,
}

impl ReweightedModel {
    /// Positive-class probabilities in the shared layout.
    pub fn predict_proba(&self, x: &Matrix, par: &ParConfig) -> Vec<f64> {
        self.model.predict_proba(x, par)
    }
}

/// Trains early-fusion models over `[old, new]` at each candidate α
/// (weighting old rows α and new rows `1 − α`), evaluates AUPRC on the
/// validation slice, and returns the best.
///
/// # Panics
/// Panics if `alphas` is empty, any α is outside `[0, 1]`, shapes
/// mismatch, or the validation slice has no positives.
pub fn reweighted_early_fusion(
    old: &ModalityData,
    new: &ModalityData,
    alphas: &[f64],
    kind: &ModelKind,
    config: &TrainConfig,
    validation: (&Matrix, &[bool]),
    par: &ParConfig,
) -> ReweightedModel {
    assert!(!alphas.is_empty(), "need at least one alpha candidate");
    assert!(alphas.iter().all(|a| (0.0..=1.0).contains(a)), "alpha must be in [0, 1]");
    let (vx, vy) = validation;
    assert!(vy.iter().any(|&p| p), "validation slice has no positives");
    let (x, targets) = concat_parts(&[old.clone(), new.clone()]);
    let n_old = old.x.rows();

    let mut best: Option<(f64, f64, TrainedModel)> = None; // (auprc, alpha, model)
    let mut sweep = Vec::with_capacity(alphas.len());
    for &alpha in alphas {
        // Normalize so total mass is constant across α (2 units split
        // between the modalities), keeping the learning rate comparable.
        let w_old = 2.0 * alpha;
        let w_new = 2.0 * (1.0 - alpha);
        let weights: Vec<f64> =
            (0..x.rows()).map(|r| if r < n_old { w_old } else { w_new }).collect();
        let model = train_model(kind, &x, &targets, Some(&weights), config, None, par);
        let auprc = cm_eval::auprc(&model.predict_proba(vx, par), vy);
        sweep.push((alpha, auprc));
        let better = best.as_ref().is_none_or(|(b, _, _)| auprc > *b);
        if better {
            best = Some((auprc, alpha, model));
        }
    }
    // lint: allow(expect) — the assert above guarantees a winner exists
    let (_, alpha, model) = best.expect("alphas is nonempty");
    ReweightedModel { model, alpha, sweep }
}

#[cfg(test)]
mod tests {
    use cm_models::ModelKind;

    use super::*;
    use crate::testutil::two_modality_task;

    #[test]
    fn sweep_covers_candidates_and_picks_the_best() {
        let (old, new, xt, yt) = two_modality_task(400, 31);
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();
        let cfg = TrainConfig { epochs: 10, patience: None, ..TrainConfig::default() };
        let out = reweighted_early_fusion(
            &old,
            &new,
            &[0.1, 0.5, 0.9],
            &ModelKind::Logistic,
            &cfg,
            (&xt, &pos),
            &ParConfig::from_env(),
        );
        assert_eq!(out.sweep.len(), 3);
        let best_in_sweep =
            out.sweep.iter().cloned().fold(f64::NEG_INFINITY, |acc, (_, a)| acc.max(a));
        let winner = out.sweep.iter().find(|(a, _)| *a == out.alpha).unwrap();
        assert_eq!(winner.1, best_in_sweep);
    }

    #[test]
    fn noisy_old_modality_pushes_alpha_down() {
        // Corrupt the old modality's labels completely; the sweep should
        // prefer a small α (mostly new-modality training).
        let (mut old, new, xt, yt) = two_modality_task(500, 33);
        for t in old.targets.iter_mut() {
            *t = 1.0 - *t; // adversarial labels
        }
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();
        let cfg = TrainConfig { epochs: 10, patience: None, ..TrainConfig::default() };
        let out = reweighted_early_fusion(
            &old,
            &new,
            &[0.1, 0.5, 0.9],
            &ModelKind::Logistic,
            &cfg,
            (&xt, &pos),
            &ParConfig::from_env(),
        );
        assert!(
            out.alpha < 0.5,
            "alpha {} should shrink when the old modality is adversarial",
            out.alpha
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_out_of_range_alpha() {
        let (old, new, xt, yt) = two_modality_task(60, 1);
        let pos: Vec<bool> = yt.iter().map(|&v| v >= 0.5).collect();
        reweighted_early_fusion(
            &old,
            &new,
            &[1.5],
            &ModelKind::Logistic,
            &TrainConfig::default(),
            (&xt, &pos),
            &ParConfig::from_env(),
        );
    }
}
