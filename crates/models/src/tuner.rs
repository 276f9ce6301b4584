//! Hyperparameter grid search — the stand-in for the paper's Vizier
//! black-box optimization service (§6.3).

use cm_linalg::Matrix;
use cm_par::ParConfig;

use crate::loss::mean_bce;
use crate::trainer::{train_model, ModelKind, TrainConfig, TrainedModel};

/// The search space: the cross product of model kinds, learning rates, and
/// L2 strengths.
#[derive(Debug, Clone)]
pub struct TunerGrid {
    /// Model families to try.
    pub kinds: Vec<ModelKind>,
    /// Learning rates to try.
    pub lrs: Vec<f32>,
    /// L2 penalties to try.
    pub l2s: Vec<f32>,
}

impl Default for TunerGrid {
    fn default() -> Self {
        Self {
            kinds: vec![ModelKind::Logistic, ModelKind::Mlp { hidden: vec![32] }],
            lrs: vec![0.005, 0.02],
            l2s: vec![1e-4, 1e-3],
        }
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct TunerTrial {
    /// Model family.
    pub kind: ModelKind,
    /// Learning rate.
    pub lr: f32,
    /// L2 penalty.
    pub l2: f32,
    /// Validation BCE (lower is better).
    pub val_loss: f64,
}

/// Grid-search result: the best model and the full trial log.
pub struct TunerOutcome {
    /// Best model by validation loss.
    pub model: TrainedModel,
    /// Winning configuration.
    pub best: TunerTrial,
    /// All trials, best first.
    pub trials: Vec<TunerTrial>,
}

/// Trains every grid point and returns the model with the lowest validation
/// BCE — the paper's "hyperparameters set by Vizier", reduced to an exact
/// sweep over a small grid.
///
/// # Panics
/// Panics if the grid or the validation set is empty.
pub fn grid_search(
    grid: &TunerGrid,
    x: &Matrix,
    targets: &[f64],
    validation: (&Matrix, &[f64]),
    base: &TrainConfig,
    par: &ParConfig,
) -> TunerOutcome {
    assert!(
        !grid.kinds.is_empty() && !grid.lrs.is_empty() && !grid.l2s.is_empty(),
        "empty tuner grid"
    );
    assert!(validation.0.rows() > 0, "empty validation set");
    let mut best: Option<(TunerTrial, TrainedModel)> = None;
    let mut trials = Vec::new();
    for kind in &grid.kinds {
        for &lr in &grid.lrs {
            for &l2 in &grid.l2s {
                let cfg = TrainConfig { lr, l2, ..base.clone() };
                let model = train_model(kind, x, targets, None, &cfg, Some(validation), par);
                let probs = model.predict_proba(validation.0, par);
                // Convert probabilities back to logits for a stable BCE.
                let logits: Vec<f32> = probs
                    .iter()
                    .map(|&p| {
                        let p = p.clamp(1e-9, 1.0 - 1e-9);
                        (p / (1.0 - p)).ln() as f32
                    })
                    .collect();
                let val_loss = mean_bce(&logits, validation.1, None);
                let trial = TunerTrial { kind: kind.clone(), lr, l2, val_loss };
                trials.push(trial.clone());
                let better = best.as_ref().is_none_or(|(b, _)| trial.val_loss < b.val_loss);
                if better {
                    best = Some((trial, model));
                }
            }
        }
    }
    // The candidate grids are nonempty consts, so a trial always ran.
    // lint: allow(expect)
    let (best, model) = best.expect("grid is nonempty");
    trials.sort_by(|a, b| a.val_loss.total_cmp(&b.val_loss));
    TunerOutcome { model, best, trials }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, offset: f32) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2 == 0;
            let jitter = ((i * 37 % 100) as f32) / 100.0 - 0.5;
            rows.push(vec![if cls { 1.5 } else { -1.5 } + jitter + offset, jitter]);
            y.push(if cls { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn picks_a_working_configuration() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(200, 0.0);
        let (vx, vy) = blobs(80, 0.05);
        let out = grid_search(
            &TunerGrid::default(),
            &x,
            &y,
            (&vx, &vy),
            &TrainConfig { epochs: 10, ..TrainConfig::default() },
            &par,
        );
        assert_eq!(out.trials.len(), 8);
        // Trials are sorted best-first and the winner matches.
        assert_eq!(out.trials[0].val_loss, out.best.val_loss);
        for w in out.trials.windows(2) {
            assert!(w[0].val_loss <= w[1].val_loss);
        }
        // The chosen model separates the validation blobs.
        let p = out.model.predict_proba(&vx, &par);
        let correct = p.iter().zip(&vy).filter(|(p, &t)| (**p >= 0.5) == (t >= 0.5)).count();
        assert!(correct as f64 / vy.len() as f64 > 0.9);
    }

    #[test]
    fn degenerate_grid_of_one_still_works() {
        let (x, y) = blobs(60, 0.0);
        let (vx, vy) = blobs(20, 0.0);
        let grid = TunerGrid { kinds: vec![ModelKind::Logistic], lrs: vec![0.05], l2s: vec![1e-4] };
        let out =
            grid_search(&grid, &x, &y, (&vx, &vy), &TrainConfig::default(), &ParConfig::from_env());
        assert_eq!(out.trials.len(), 1);
        assert!(out.best.val_loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty tuner grid")]
    fn rejects_empty_grid() {
        let (x, y) = blobs(10, 0.0);
        let grid = TunerGrid { kinds: vec![], lrs: vec![0.1], l2s: vec![0.0] };
        grid_search(&grid, &x, &y, (&x, &y), &TrainConfig::default(), &ParConfig::from_env());
    }
}
