//! L2-regularized logistic regression trained by mini-batch gradient
//! descent on the noise-aware loss.

use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_linalg::{dot, sigmoid, Matrix};
use cm_par::ParConfig;

use crate::loss::bce_grad;
use crate::optim::{Adam, Optimizer};

/// Minimum batch items per gradient chunk. The default batch size (64) fits
/// in one chunk, so small-batch training accumulates gradients in exactly
/// the historical order; large batches split into deterministic chunks
/// whose partial gradients fold in chunk index order.
const BATCH_MIN_CHUNK: usize = 256;

/// Below this many matrix cells, `logits_with` stays serial.
const LOGITS_PAR_WORK: usize = 1 << 16;

/// A trained logistic regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
}

/// Hyperparameters for [`LogisticRegression::fit_with`].
#[derive(Debug, Clone)]
pub struct LogisticConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 penalty on weights (not bias).
    pub l2: f32,
    /// Shuffle/init seed.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self { epochs: 20, batch_size: 64, lr: 0.05, l2: 1e-4, seed: 0 }
    }
}

impl LogisticRegression {
    /// Fits on rows of `x` against soft targets, optionally per-sample
    /// weighted.
    ///
    /// Per-batch gradients accumulate in fixed-size chunks whose partial
    /// sums fold in chunk index order, so the fitted weights are
    /// bit-identical for any thread count.
    ///
    /// # Panics
    /// Panics on shape mismatches or an empty training set.
    pub fn fit_with(
        x: &Matrix,
        targets: &[f64],
        sample_weights: Option<&[f64]>,
        config: &LogisticConfig,
        par: &ParConfig,
    ) -> Self {
        assert_eq!(x.rows(), targets.len(), "target count mismatch");
        assert!(x.rows() > 0, "empty training set");
        if let Some(w) = sample_weights {
            assert_eq!(w.len(), targets.len(), "sample weight count mismatch");
        }
        let par = par.clone().with_min_chunk(BATCH_MIN_CHUNK);
        let d = x.cols();
        let mut weights = vec![0.0f32; d];
        let mut bias = 0.0f32;
        let mut opt_w = Adam::new(config.lr, d);
        let mut opt_b = Adam::new(config.lr, 1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..x.rows()).collect();

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size) {
                let folded = cm_par::par_map_reduce(
                    &par,
                    batch.len(),
                    |range| {
                        let mut grad_w = vec![0.0f32; d];
                        let mut grad_b = 0.0f32;
                        let mut wsum = 0.0f32;
                        for &i in &batch[range] {
                            let row = x.row(i);
                            let z = dot(row, &weights) + bias;
                            let w = sample_weights.map_or(1.0, |w| w[i]) as f32;
                            let g = bce_grad(z, targets[i]) * w;
                            cm_linalg::axpy(g, row, &mut grad_w);
                            grad_b += g;
                            wsum += w;
                        }
                        (grad_w, grad_b, wsum)
                    },
                    // lint: allow(merge-float) — chunk-index-order fold is
                    // pinned by par_map_reduce; the serial path replays the
                    // identical merge sequence (serial≡parallel suite)
                    |(mut gw, gb, ws), (cw, cb, cs)| {
                        for (a, b) in gw.iter_mut().zip(&cw) {
                            *a += *b;
                        }
                        (gw, gb + cb, ws + cs)
                    },
                )
                .unwrap_or_else(|e| e.resume());
                let Some((mut grad_w, mut grad_b, wsum)) = folded else { continue };
                if wsum > 0.0 {
                    let inv = 1.0 / wsum;
                    for (gw, &wt) in grad_w.iter_mut().zip(&weights) {
                        *gw = *gw * inv + config.l2 * wt;
                    }
                    grad_b *= inv;
                    opt_w.step(&mut weights, &grad_w);
                    opt_b.step(std::slice::from_mut(&mut bias), &[grad_b]);
                }
            }
        }
        Self { weights, bias }
    }

    /// Decision-function logits. Logits are row-independent, so any
    /// thread count yields the same bits; small inputs stay serial.
    ///
    /// # Panics
    /// Panics if the feature width differs from the fitted width.
    pub fn logits_with(&self, x: &Matrix, par: &ParConfig) -> Vec<f32> {
        assert_eq!(x.cols(), self.weights.len(), "feature width mismatch");
        if x.rows() * x.cols() < LOGITS_PAR_WORK {
            return x.rows_iter().map(|row| dot(row, &self.weights) + self.bias).collect();
        }
        cm_par::par_map(&par.clone().with_min_chunk(BATCH_MIN_CHUNK), x.rows(), |r| {
            dot(x.row(r), &self.weights) + self.bias
        })
        .unwrap_or_else(|e| e.resume())
    }

    /// Positive-class probabilities.
    pub fn predict_proba(&self, x: &Matrix, par: &ParConfig) -> Vec<f64> {
        self.logits_with(x, par).into_iter().map(|z| f64::from(sigmoid(z))).collect()
    }

    /// Learned weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Learned bias.
    pub fn bias(&self) -> f32 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blob pair.
    fn blobs(n: usize) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2 == 0;
            let jitter = ((i * 37 % 100) as f32) / 100.0 - 0.5;
            let center = if cls { 2.0 } else { -2.0 };
            rows.push(vec![center + jitter, -center + jitter * 0.5]);
            y.push(if cls { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn separates_blobs() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(200);
        let model = LogisticRegression::fit_with(&x, &y, None, &LogisticConfig::default(), &par);
        let p = model.predict_proba(&x, &par);
        let correct = p.iter().zip(&y).filter(|(p, &t)| (**p >= 0.5) == (t >= 0.5)).count();
        assert!(correct >= 195, "{correct}/200 correct");
    }

    #[test]
    fn soft_targets_are_honored() {
        let par = ParConfig::from_env();
        // All targets at 0.5 should keep predictions near 0.5.
        let (x, _) = blobs(100);
        let soft = vec![0.5; 100];
        let model = LogisticRegression::fit_with(&x, &soft, None, &LogisticConfig::default(), &par);
        for p in model.predict_proba(&x, &par) {
            assert!((p - 0.5).abs() < 0.15, "p = {p}");
        }
    }

    #[test]
    fn l2_shrinks_weights() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(200);
        let loose = LogisticRegression::fit_with(
            &x,
            &y,
            None,
            &LogisticConfig { l2: 0.0, ..Default::default() },
            &par,
        );
        let tight = LogisticRegression::fit_with(
            &x,
            &y,
            None,
            &LogisticConfig { l2: 1.0, ..Default::default() },
            &par,
        );
        let norm = |m: &LogisticRegression| cm_linalg::l2_norm(m.weights());
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn sample_weights_shift_decision() {
        let par = ParConfig::from_env();
        // Upweighting the positive class pushes probabilities up.
        let (x, y) = blobs(200);
        let w_pos: Vec<f64> = y.iter().map(|&t| if t >= 0.5 { 10.0 } else { 1.0 }).collect();
        let base = LogisticRegression::fit_with(&x, &y, None, &LogisticConfig::default(), &par);
        let up =
            LogisticRegression::fit_with(&x, &y, Some(&w_pos), &LogisticConfig::default(), &par);
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(up.predict_proba(&x, &par)) > mean(base.predict_proba(&x, &par)));
    }

    #[test]
    fn training_is_deterministic() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(100);
        let a = LogisticRegression::fit_with(&x, &y, None, &LogisticConfig::default(), &par);
        let b = LogisticRegression::fit_with(&x, &y, None, &LogisticConfig::default(), &par);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        // Batch 2048 splits into multiple 256-item gradient chunks.
        let (x, y) = blobs(4096);
        let cfg = LogisticConfig { epochs: 3, batch_size: 2048, ..Default::default() };
        let base = LogisticRegression::fit_with(&x, &y, None, &cfg, &ParConfig::threads(1));
        for threads in [2usize, 4, 8] {
            let par = ParConfig::threads(threads);
            let model = LogisticRegression::fit_with(&x, &y, None, &cfg, &par);
            assert_eq!(model.weights(), base.weights(), "threads = {threads}");
            assert_eq!(model.bias().to_bits(), base.bias().to_bits(), "threads = {threads}");
            assert_eq!(model.logits_with(&x, &par), base.logits_with(&x, &par));
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_input() {
        LogisticRegression::fit_with(
            &Matrix::zeros(0, 2),
            &[],
            None,
            &LogisticConfig::default(),
            &ParConfig::from_env(),
        );
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_rejects_wrong_width() {
        let par = ParConfig::from_env();
        let (x, y) = blobs(10);
        let model = LogisticRegression::fit_with(&x, &y, None, &LogisticConfig::default(), &par);
        model.predict_proba(&Matrix::zeros(1, 5), &par);
    }
}
