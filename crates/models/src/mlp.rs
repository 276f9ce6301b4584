//! Fully-connected ReLU network with a single-logit sigmoid head.
//!
//! The input layer reads rows of the shared layout as [`SparseRows`]: its
//! forward dot products and its weight gradients run over a row's stored
//! entries only. Hidden layers, the per-batch Adam + L2 step and the
//! gradient fold stay dense.

use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_linalg::{dot, sigmoid, xavier_uniform, Matrix, SparseRows};
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
        x: &SparseRows,
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
                    let mut scratch =
                        Scratch { acts: this.layer_buffers(), deltas: this.layer_buffers() };
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

    /// One zeroed buffer per layer output (`dims[1..]`).
    fn layer_buffers(&self) -> Vec<Vec<f32>> {
        self.dims[1..].iter().map(|&d| vec![0.0; d]).collect()
    }

    /// Forward pass of row `r` of `x` through the first `depth` layers;
    /// `acts[l]` receives layer `l`'s output. Layer 0 reads the row's
    /// stored entries; every layer but the prediction head applies ReLU.
    fn forward(&self, x: &SparseRows, r: usize, depth: usize, acts: &mut [Vec<f32>]) {
        let n_layers = self.layers.len();
        for (l, layer) in self.layers[..depth].iter().enumerate() {
            let (below, rest) = acts.split_at_mut(l);
            for (o, out) in rest[0].iter_mut().enumerate() {
                let w = layer.w.row(o);
                let z = if l == 0 { x.row_dot(r, w) } else { dot(w, &below[l - 1]) } + layer.b[o];
                *out = if l + 1 == n_layers { z } else { z.max(0.0) };
            }
        }
    }

    /// Runs one sample's forward and backward pass, accumulating into the
    /// chunk-local gradient partial.
    fn accumulate_sample(
        &self,
        x: &SparseRows,
        targets: &[f64],
        sample_weights: Option<&[f64]>,
        i: usize,
        part: &mut GradPartial,
        scratch: &mut Scratch,
    ) {
        let Scratch { acts, deltas } = scratch;
        let n_layers = self.layers.len();
        self.forward(x, i, n_layers, acts);
        let z = acts[n_layers - 1][0];
        let w = sample_weights.map_or(1.0, |w| w[i]) as f32;
        part.loss += f64::from(w) * crate::loss::bce_with_logit(z, targets[i]);
        part.weight += f64::from(w);
        part.batch_weight += w;

        // Backward. Layer l's input is the sparse row for l = 0 and the
        // layer below's output `acts[l - 1]` otherwise.
        deltas[n_layers - 1][0] = bce_grad(z, targets[i]) * w;
        for l in (0..n_layers).rev() {
            // Accumulate gradients for layer l.
            for (o, &d) in deltas[l].iter().enumerate() {
                if d != 0.0 {
                    let grad_row = part.grad_w[l].row_mut(o);
                    if l == 0 {
                        x.row_axpy(i, d, grad_row);
                    } else {
                        cm_linalg::axpy(d, &acts[l - 1], grad_row);
                    }
                    part.grad_b[l][o] += d;
                }
            }
            if l > 0 {
                // delta_{l-1} = W_l^T delta_l ∘ relu'(input of layer l)
                let (d_prev, d_cur) = deltas.split_at_mut(l);
                let d_prev = &mut d_prev[l - 1];
                let d_cur = &d_cur[0];
                d_prev.fill(0.0);
                for (o, &d) in d_cur.iter().enumerate() {
                    if d != 0.0 {
                        cm_linalg::axpy(d, self.layers[l].w.row(o), d_prev);
                    }
                }
                for (dp, &a) in d_prev.iter_mut().zip(&acts[l - 1]) {
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
    pub fn logits_with(&self, x: &SparseRows, par: &ParConfig) -> Vec<f32> {
        assert_eq!(x.cols(), self.input_dim(), "feature width mismatch");
        let n_layers = self.layers.len();
        let forward_chunk = |range: std::ops::Range<usize>| {
            let mut acts = self.layer_buffers();
            range
                .map(|r| {
                    self.forward(x, r, n_layers, &mut acts);
                    acts[n_layers - 1][0]
                })
                .collect::<Vec<f32>>()
        };
        if x.rows() < FORWARD_PAR_ROWS {
            return forward_chunk(0..x.rows());
        }
        let chunks =
            cm_par::par_map_chunks(par, x.rows(), forward_chunk).unwrap_or_else(|e| e.resume());
        chunks.into_iter().flatten().collect()
    }

    /// Positive-class probabilities.
    pub fn predict_proba(&self, x: &SparseRows, par: &ParConfig) -> Vec<f64> {
        self.logits_with(x, par).into_iter().map(|z| f64::from(sigmoid(z))).collect()
    }

    /// The activation before the final prediction layer, per row (the
    /// input row itself, densified, when there is no hidden layer).
    /// Row-wise forward passes are independent, so any thread count yields
    /// the same bits; small inputs stay serial.
    ///
    /// # Panics
    /// Panics if the feature width differs from the input dimension.
    pub fn embed_with(&self, x: &SparseRows, par: &ParConfig) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "feature width mismatch");
        let depth = self.layers.len() - 1;
        if depth == 0 {
            return x.to_dense();
        }
        let width = self.embed_dim();
        let mut out = Matrix::zeros(x.rows(), width);
        let embed_rows = |range: std::ops::Range<usize>, rows_out: &mut [f32]| {
            let mut acts = self.layer_buffers();
            for (r, dst) in range.zip(rows_out.chunks_exact_mut(width)) {
                self.forward(x, r, depth, &mut acts);
                dst.copy_from_slice(&acts[depth - 1]);
            }
        };
        if x.rows() < FORWARD_PAR_ROWS {
            embed_rows(0..x.rows(), out.as_mut_slice());
            return out;
        }
        cm_par::par_chunks_mut(par, out.as_mut_slice(), width, |start, chunk| {
            embed_rows(start..start + chunk.len() / width, chunk);
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

/// Per-chunk forward activations and backward deltas (one buffer per
/// layer output), reused across samples.
struct Scratch {
    acts: Vec<Vec<f32>>,
    deltas: Vec<Vec<f32>>,
}

/// Chunk-local gradient accumulator for one mini-batch slice; partials
/// fold in chunk index order via [`GradPartial::add`].
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
    fn xor(n: usize) -> (SparseRows, Vec<f64>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 2) as f32;
            let b = ((i / 2) % 2) as f32;
            let jitter = ((i * 13 % 50) as f32) / 500.0;
            rows.push(vec![a * 2.0 - 1.0 + jitter, b * 2.0 - 1.0 - jitter]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        (SparseRows::from_dense(&Matrix::from_rows(&rows)), y)
    }

    fn train(mlp: &mut Mlp, x: &SparseRows, y: &[f64], epochs: usize) {
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
        let dense = Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]);
        let x = SparseRows::from_dense(&dense);
        // embed of a layerless body is the input itself.
        let e = mlp.embed_with(&x, &par);
        assert_eq!(e.row(0), dense.row(0));
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
        mlp.logits_with(&SparseRows::new(3), &ParConfig::from_env());
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

    #[test]
    fn sparse_input_matches_the_dense_forward_pass() {
        // A row with no stored entries and one with an explicit zero.
        let dense = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.0, -1.25, 2.0],
            vec![0.0, 3.0, 0.0, 0.0],
        ]);
        let mut x = SparseRows::new(4);
        x.finish_row();
        for (c, v) in [(0, 0.5), (1, 0.0), (2, -1.25), (3, 2.0)] {
            x.push(c, v);
        }
        x.finish_row();
        x.push(1, 3.0);
        x.finish_row();
        let mut mlp = Mlp::new(4, &[5, 3], 0.05, 9);
        let cfg = MlpEpochConfig { batch_size: 2, l2: 1e-3, shuffle_seed: 1 };
        mlp.train_epoch_with(&x, &[1.0, 0.0, 1.0], None, &cfg, &ParConfig::threads(1));
        // Reference: the layers applied densely, as `cm_linalg::dot` reads
        // every column.
        let par = ParConfig::threads(1);
        let logits = mlp.logits_with(&x, &par);
        let embeds = mlp.embed_with(&x, &par);
        for (r, logit) in logits.iter().enumerate() {
            let mut a = dense.row(r).to_vec();
            for (l, layer) in mlp.layers.iter().enumerate() {
                a = (0..layer.w.rows())
                    .map(|o| {
                        let z = dot(layer.w.row(o), &a) + layer.b[o];
                        if l + 1 == mlp.layers.len() {
                            z
                        } else {
                            z.max(0.0)
                        }
                    })
                    .collect();
                if l + 2 == mlp.layers.len() {
                    assert_eq!(embeds.row(r), &a[..], "row {r}");
                }
            }
            assert_eq!(logit.to_bits(), a[0].to_bits(), "row {r}");
        }
    }
}
