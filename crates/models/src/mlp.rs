//! Fully-connected ReLU network with a single-logit sigmoid head.

use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_linalg::{dot, sigmoid, xavier_uniform, Matrix};
use cm_par::ParConfig;

use crate::loss::bce_grad;
use crate::optim::{Adam, Optimizer};

/// Minimum batch items per gradient chunk (see `cm-models::logistic`): the
/// default batch size fits in one chunk, preserving historical numerics;
/// large batches split deterministically and fold in chunk index order.
const BATCH_MIN_CHUNK: usize = 256;

/// Below this many rows, forward passes (`logits_with`, `embed_with`) stay
/// serial.
const FORWARD_PAR_ROWS: usize = 1024;

#[derive(Clone)]
struct DenseLayer {
    /// `out x in` weights.
    w: Matrix,
    b: Vec<f32>,
    opt_w: Adam,
    opt_b: Adam,
}

/// A fully-connected binary classifier: ReLU hidden layers, sigmoid output.
///
/// Exposes [`Mlp::embed_with`] — the activation before the final prediction
/// layer — which intermediate fusion concatenates and DeViSE projects (§5).
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    dims: Vec<usize>,
}

/// Hyperparameters for one [`Mlp::train_epoch_with`] call.
#[derive(Debug, Clone)]
pub struct MlpEpochConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 penalty on weights.
    pub l2: f32,
    /// Epoch shuffle seed (vary per epoch).
    pub shuffle_seed: u64,
}

impl Mlp {
    /// Creates a network `input_dim -> hidden... -> 1` with Xavier-uniform
    /// init and per-layer Adam optimizers.
    ///
    /// # Panics
    /// Panics if `input_dim == 0` or any hidden width is 0.
    pub fn new(input_dim: usize, hidden: &[usize], lr: f32, seed: u64) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(hidden.iter().all(|&h| h > 0), "hidden widths must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for win in dims.windows(2) {
            let (fan_in, fan_out) = (win[0], win[1]);
            let w = xavier_uniform(&mut rng, fan_in, fan_out);
            layers.push(DenseLayer {
                w,
                b: vec![0.0; fan_out],
                opt_w: Adam::new(lr, fan_out * fan_in),
                opt_b: Adam::new(lr, fan_out),
            });
        }
        Self { layers, dims }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Width of the penultimate activation returned by [`Mlp::embed_with`].
    pub fn embed_dim(&self) -> usize {
        self.dims[self.dims.len() - 2]
    }

    /// Runs one epoch of mini-batch training on soft targets; returns the
    /// mean training loss.
    ///
    /// Per-batch gradients accumulate in fixed-size sample chunks whose
    /// partial gradient matrices fold in chunk index order, so the updated
    /// weights are bit-identical for any thread count.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn train_epoch_with(
        &mut self,
        x: &Matrix,
        targets: &[f64],
        sample_weights: Option<&[f64]>,
        config: &MlpEpochConfig,
        par: &ParConfig,
    ) -> f64 {
        assert_eq!(x.rows(), targets.len(), "target count mismatch");
        assert_eq!(x.cols(), self.input_dim(), "feature width mismatch");
        if let Some(w) = sample_weights {
            assert_eq!(w.len(), targets.len(), "sample weight count mismatch");
        }
        let par = par.clone().with_min_chunk(BATCH_MIN_CHUNK);
        let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        order.shuffle(&mut rng);

        let mut total_loss = 0.0f64;
        let mut total_weight = 0.0f64;
        for batch in order.chunks(config.batch_size) {
            let this = &*self;
            let folded = cm_par::par_map_reduce(
                &par,
                batch.len(),
                |range| {
                    let mut part = GradPartial::zeros(this);
                    let mut scratch = Scratch {
                        acts: this.dims.iter().map(|&d| vec![0.0; d]).collect(),
                        deltas: this.dims[1..].iter().map(|&d| vec![0.0; d]).collect(),
                    };
                    for &i in &batch[range] {
                        this.accumulate_sample(
                            x,
                            targets,
                            sample_weights,
                            i,
                            &mut part,
                            &mut scratch,
                        );
                    }
                    part
                },
                // lint: allow(merge-float) — chunk-index-order fold is pinned
                // by par_map_reduce; the serial path replays the identical
                // GradPartial::add sequence (serial≡parallel suite)
                GradPartial::add,
            )
            .unwrap_or_else(|e| e.resume());
            let Some(mut part) = folded else { continue };
            total_loss += part.loss;
            total_weight += part.weight;
            if part.batch_weight > 0.0 {
                let inv = 1.0 / part.batch_weight;
                for (l, layer) in self.layers.iter_mut().enumerate() {
                    part.grad_w[l].scale(inv);
                    part.grad_w[l].axpy(config.l2, &layer.w);
                    cm_linalg::scale(&mut part.grad_b[l], inv);
                    layer.opt_w.step(layer.w.as_mut_slice(), part.grad_w[l].as_slice());
                    layer.opt_b.step(&mut layer.b, &part.grad_b[l]);
                }
            }
        }
        if total_weight > 0.0 {
            total_loss / total_weight
        } else {
            0.0
        }
    }

    /// Runs one sample's forward and backward pass, accumulating into the
    /// chunk-local gradient partial.
    fn accumulate_sample(
        &self,
        x: &Matrix,
        targets: &[f64],
        sample_weights: Option<&[f64]>,
        i: usize,
        part: &mut GradPartial,
        scratch: &mut Scratch,
    ) {
        let Scratch { acts, deltas } = scratch;
        let n_layers = self.layers.len();
        acts[0].copy_from_slice(x.row(i));
        // Forward.
        for (l, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(l + 1);
            let a_in = &prev[l];
            let a_out = &mut rest[0];
            for (o, out) in a_out.iter_mut().enumerate() {
                let z = dot(layer.w.row(o), a_in) + layer.b[o];
                *out = if l + 1 == n_layers { z } else { z.max(0.0) };
            }
        }
        let z = acts[n_layers][0];
        let w = sample_weights.map_or(1.0, |w| w[i]) as f32;
        part.loss += f64::from(w) * crate::loss::bce_with_logit(z, targets[i]);
        part.weight += f64::from(w);
        part.batch_weight += w;

        // Backward.
        deltas[n_layers - 1][0] = bce_grad(z, targets[i]) * w;
        for l in (0..n_layers).rev() {
            // Accumulate gradients for layer l.
            for (o, &d) in deltas[l].iter().enumerate() {
                if d != 0.0 {
                    cm_linalg::axpy(d, &acts[l], part.grad_w[l].row_mut(o));
                    part.grad_b[l][o] += d;
                }
            }
            if l > 0 {
                // delta_{l-1} = W_l^T delta_l ∘ relu'(act_l)
                let (d_prev, d_cur) = deltas.split_at_mut(l);
                let d_prev = &mut d_prev[l - 1];
                let d_cur = &d_cur[0];
                d_prev.fill(0.0);
                for (o, &d) in d_cur.iter().enumerate() {
                    if d != 0.0 {
                        cm_linalg::axpy(d, self.layers[l].w.row(o), d_prev);
                    }
                }
                for (dp, &a) in d_prev.iter_mut().zip(&acts[l]) {
                    if a <= 0.0 {
                        *dp = 0.0;
                    }
                }
            }
        }
    }

    /// Forward pass to logits. The forward pass is row-independent, so
    /// any thread count yields the same bits; small inputs stay serial.
    ///
    /// # Panics
    /// Panics if the feature width differs from the input dimension.
    pub fn logits_with(&self, x: &Matrix, par: &ParConfig) -> Vec<f32> {
        assert_eq!(x.cols(), self.input_dim(), "feature width mismatch");
        let forward_chunk = |range: std::ops::Range<usize>| {
            let mut out = Vec::with_capacity(range.len());
            let mut buf_a: Vec<f32> = Vec::new();
            let mut buf_b: Vec<f32> = Vec::new();
            for r in range {
                buf_a.clear();
                buf_a.extend_from_slice(x.row(r));
                for (l, layer) in self.layers.iter().enumerate() {
                    buf_b.clear();
                    for o in 0..layer.w.rows() {
                        let z = dot(layer.w.row(o), &buf_a) + layer.b[o];
                        buf_b.push(if l + 1 == self.layers.len() { z } else { z.max(0.0) });
                    }
                    std::mem::swap(&mut buf_a, &mut buf_b);
                }
                out.push(buf_a[0]);
            }
            out
        };
        if x.rows() < FORWARD_PAR_ROWS {
            return forward_chunk(0..x.rows());
        }
        let chunks =
            cm_par::par_map_chunks(par, x.rows(), forward_chunk).unwrap_or_else(|e| e.resume());
        chunks.into_iter().flatten().collect()
    }

    /// Positive-class probabilities.
    pub fn predict_proba(&self, x: &Matrix, par: &ParConfig) -> Vec<f64> {
        self.logits_with(x, par).into_iter().map(|z| f64::from(sigmoid(z))).collect()
    }

    /// The activation before the final prediction layer, per row.
    /// Row-wise forward passes are independent, so any thread count yields
    /// the same bits; small inputs stay serial.
    ///
    /// # Panics
    /// Panics if the feature width differs from the input dimension.
    pub fn embed_with(&self, x: &Matrix, par: &ParConfig) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "feature width mismatch");
        let mut out = Matrix::zeros(x.rows(), self.embed_dim());
        let embed_rows = |range: std::ops::Range<usize>, rows_out: &mut [f32]| {
            let width = self.embed_dim();
            let mut buf_a: Vec<f32> = Vec::new();
            let mut buf_b: Vec<f32> = Vec::new();
            for (k, r) in range.enumerate() {
                buf_a.clear();
                buf_a.extend_from_slice(x.row(r));
                for layer in &self.layers[..self.layers.len() - 1] {
                    buf_b.clear();
                    for o in 0..layer.w.rows() {
                        let z = dot(layer.w.row(o), &buf_a) + layer.b[o];
                        buf_b.push(z.max(0.0));
                    }
                    std::mem::swap(&mut buf_a, &mut buf_b);
                }
                rows_out[k * width..(k + 1) * width].copy_from_slice(&buf_a);
            }
        };
        if x.rows() < FORWARD_PAR_ROWS || self.embed_dim() == 0 {
            embed_rows(0..x.rows(), out.as_mut_slice());
            return out;
        }
        cm_par::par_chunks_mut(par, out.as_mut_slice(), self.embed_dim(), |start, chunk| {
            embed_rows(start..start + chunk.len() / self.embed_dim(), chunk);
        })
        .unwrap_or_else(|e| e.resume());
        out
    }

    /// Replaces the final prediction layer's input by re-wiring: returns the
    /// final layer's weights (used by DeViSE, which freezes model A and
    /// reuses its head).
    pub fn head_weights(&self) -> (&[f32], f32) {
        // The constructor always appends the prediction head.
        // lint: allow(expect)
        let last = self.layers.last().expect("network has layers");
        (last.w.row(0), last.b[0])
    }
}

/// Chunk-local gradient accumulator for one mini-batch slice; partials
/// fold in chunk index order via [`GradPartial::add`].
/// Per-chunk forward activations and backward deltas, reused across
/// samples.
struct Scratch {
    acts: Vec<Vec<f32>>,
    deltas: Vec<Vec<f32>>,
}

struct GradPartial {
    grad_w: Vec<Matrix>,
    grad_b: Vec<Vec<f32>>,
    batch_weight: f32,
    loss: f64,
    weight: f64,
}

impl GradPartial {
    fn zeros(mlp: &Mlp) -> Self {
        Self {
            grad_w: mlp.layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect(),
            grad_b: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            batch_weight: 0.0,
            loss: 0.0,
            weight: 0.0,
        }
    }

    fn add(mut self, other: Self) -> Self {
        for (a, b) in self.grad_w.iter_mut().zip(&other.grad_w) {
            a.axpy(1.0, b);
        }
        for (a, b) in self.grad_b.iter_mut().zip(&other.grad_b) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
        self.batch_weight += other.batch_weight;
        self.loss += other.loss;
        self.weight += other.weight;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR-ish dataset a linear model cannot fit.
    fn xor(n: usize) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 2) as f32;
            let b = ((i / 2) % 2) as f32;
            let jitter = ((i * 13 % 50) as f32) / 500.0;
            rows.push(vec![a * 2.0 - 1.0 + jitter, b * 2.0 - 1.0 - jitter]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    fn train(mlp: &mut Mlp, x: &Matrix, y: &[f64], epochs: usize) {
        for e in 0..epochs {
            mlp.train_epoch_with(
                x,
                y,
                None,
                &MlpEpochConfig { batch_size: 16, l2: 0.0, shuffle_seed: e as u64 },
                &ParConfig::from_env(),
            );
        }
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor(200);
        let mut mlp = Mlp::new(2, &[16], 0.05, 3);
        train(&mut mlp, &x, &y, 120);
        let p = mlp.predict_proba(&x, &ParConfig::from_env());
        let correct = p.iter().zip(&y).filter(|(p, &t)| (**p >= 0.5) == (t >= 0.5)).count();
        assert!(correct >= 190, "{correct}/200 correct on XOR");
    }

    #[test]
    fn training_loss_decreases() {
        let par = ParConfig::from_env();
        let (x, y) = xor(200);
        let mut mlp = Mlp::new(2, &[8], 0.05, 1);
        let first = mlp.train_epoch_with(
            &x,
            &y,
            None,
            &MlpEpochConfig { batch_size: 16, l2: 0.0, shuffle_seed: 0 },
            &par,
        );
        train(&mut mlp, &x, &y, 60);
        let last = mlp.train_epoch_with(
            &x,
            &y,
            None,
            &MlpEpochConfig { batch_size: 16, l2: 0.0, shuffle_seed: 99 },
            &par,
        );
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn embed_has_declared_shape_and_feeds_head() {
        let par = ParConfig::from_env();
        let (x, y) = xor(40);
        let mut mlp = Mlp::new(2, &[8, 4], 0.05, 2);
        train(&mut mlp, &x, &y, 10);
        let e = mlp.embed_with(&x, &par);
        assert_eq!(e.shape(), (40, 4));
        assert_eq!(mlp.embed_dim(), 4);
        // Head applied to embed must reproduce logits.
        let (hw, hb) = mlp.head_weights();
        let via_head: Vec<f32> = e.rows_iter().map(|r| dot(r, hw) + hb).collect();
        let direct = mlp.logits_with(&x, &par);
        for (a, b) in via_head.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let (x, y) = xor(60);
        let run = || {
            let mut m = Mlp::new(2, &[6], 0.05, 7);
            train(&mut m, &x, &y, 5);
            m.predict_proba(&x, &ParConfig::from_env())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_is_bit_identical_across_thread_counts() {
        // Batch 1024 splits into multiple 256-sample gradient chunks, and
        // 2048 rows crosses the parallel forward-pass threshold.
        let (x, y) = xor(2048);
        let cfg = MlpEpochConfig { batch_size: 1024, l2: 1e-4, shuffle_seed: 3 };
        let run = |par: &ParConfig| {
            let mut m = Mlp::new(2, &[8, 4], 0.05, 7);
            let mut losses = Vec::new();
            for _ in 0..2 {
                losses.push(m.train_epoch_with(&x, &y, None, &cfg, par));
            }
            (losses, m.logits_with(&x, par), m.embed_with(&x, par))
        };
        let (base_loss, base_logits, base_embed) = run(&ParConfig::threads(1));
        for threads in [2usize, 4, 8] {
            let (loss, logits, embed) = run(&ParConfig::threads(threads));
            assert_eq!(loss, base_loss, "threads = {threads}");
            assert_eq!(logits, base_logits, "threads = {threads}");
            assert_eq!(embed.as_slice(), base_embed.as_slice(), "threads = {threads}");
        }
    }

    #[test]
    fn no_hidden_layer_reduces_to_linear() {
        let par = ParConfig::from_env();
        let mut mlp = Mlp::new(3, &[], 0.05, 0);
        assert_eq!(mlp.embed_dim(), 3);
        let x = Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]);
        // embed of a layerless body is the input itself.
        let e = mlp.embed_with(&x, &par);
        assert_eq!(e.row(0), x.row(0));
        let y = [1.0];
        let l = mlp.train_epoch_with(
            &x,
            &y,
            None,
            &MlpEpochConfig { batch_size: 1, l2: 0.0, shuffle_seed: 0 },
            &par,
        );
        assert!(l.is_finite());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn logits_reject_wrong_width() {
        let mlp = Mlp::new(4, &[2], 0.05, 0);
        mlp.logits_with(&Matrix::zeros(1, 3), &ParConfig::from_env());
    }

    #[test]
    #[should_panic(expected = "hidden widths must be positive")]
    fn rejects_zero_width_hidden() {
        Mlp::new(4, &[0], 0.05, 0);
    }

    #[test]
    fn sample_weights_affect_training() {
        let par = ParConfig::from_env();
        let (x, y) = xor(100);
        let w: Vec<f64> = y.iter().map(|&t| if t >= 0.5 { 5.0 } else { 0.2 }).collect();
        let mut a = Mlp::new(2, &[8], 0.05, 5);
        let mut b = Mlp::new(2, &[8], 0.05, 5);
        for e in 0..20 {
            let cfg = MlpEpochConfig { batch_size: 16, l2: 0.0, shuffle_seed: e };
            a.train_epoch_with(&x, &y, None, &cfg, &par);
            b.train_epoch_with(&x, &y, Some(&w), &cfg, &par);
        }
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(b.predict_proba(&x, &par)) > mean(a.predict_proba(&x, &par)));
    }
}
