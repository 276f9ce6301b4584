//! Multi-modal model training (paper §5, Figure 4).
//!
//! All three strategies operate on matrices in the *shared dense layout*
//! produced by `cm_featurespace::DenseEncoder` over the full schema: every
//! modality's rows are encoded identically, with features a modality lacks
//! encoded as missing (zeros plus indicator). This is exactly the paper's
//! early-fusion representation — "features specific to certain data
//! modalities are left empty for those that do not have these features".
//!
//! - [`EarlyFusionModel`] — concatenate all modalities' rows into one
//!   training set ([`concat_parts`]), train one model. The paper's winner.
//! - [`IntermediateFusionModel`] — train one model per modality, strip the
//!   prediction heads, concatenate the penultimate embeddings, train a
//!   joint head over them.
//! - [`DeViseModel`] — the adapted DeViSE baseline: train and freeze model
//!   A on old modalities, pre-train model B on weakly supervised new data,
//!   learn a linear projection from B's embedding space into A's, and serve
//!   through A's frozen prediction head.

pub mod devise;
pub mod early;
pub mod intermediate;
pub mod projection;
pub mod reweight;

pub use devise::DeViseModel;
pub use early::EarlyFusionModel;
pub use intermediate::IntermediateFusionModel;
pub use projection::LinearProjection;
pub use reweight::{reweighted_early_fusion, ReweightedModel};

use cm_linalg::Matrix;

/// One modality's training contribution: dense rows in the shared layout
/// plus (probabilistic) targets.
#[derive(Debug, Clone)]
pub struct ModalityData {
    /// Dense features (shared layout).
    pub x: Matrix,
    /// Soft targets in `[0, 1]`.
    pub targets: Vec<f64>,
}

impl ModalityData {
    /// Creates a part, validating shapes.
    ///
    /// # Panics
    /// Panics if row and target counts differ.
    pub fn new(x: Matrix, targets: Vec<f64>) -> Self {
        assert_eq!(x.rows(), targets.len(), "target count mismatch");
        Self { x, targets }
    }
}

/// Concatenates parts row-wise into one training set: the early-fusion
/// layout that [`cm_models::train_model`] trains on.
///
/// # Panics
/// Panics if parts is empty or widths differ.
pub fn concat_parts(parts: &[ModalityData]) -> (Matrix, Vec<f64>) {
    assert!(!parts.is_empty(), "need at least one modality");
    let cols = parts[0].x.cols();
    let total: usize = parts.iter().map(|p| p.x.rows()).sum();
    let mut x = Matrix::zeros(total, cols);
    let mut y = Vec::with_capacity(total);
    let mut r = 0;
    for part in parts {
        assert_eq!(part.x.cols(), cols, "modality width mismatch");
        for row in part.x.rows_iter() {
            x.row_mut(r).copy_from_slice(row);
            r += 1;
        }
        y.extend_from_slice(&part.targets);
    }
    (x, y)
}

#[cfg(test)]
pub(crate) mod testutil {
    use cm_linalg::Matrix;

    use super::ModalityData;

    /// Two-modality synthetic task in a 6-wide "shared layout":
    /// cols 0-1 shared signal, col 2 modality-A-specific, col 3
    /// modality-B-specific, cols 4-5 noise. Returns (old, new, test_x,
    /// test_y); the new modality's targets are noisy (weak labels).
    pub fn two_modality_task(
        n: usize,
        seed: u64,
    ) -> (ModalityData, ModalityData, Matrix, Vec<f64>) {
        use cm_linalg::rng::Rng;
        use cm_linalg::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = |modality: u8, n: usize, noisy: bool| {
            let mut rows = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let pos = rng.gen::<f64>() < 0.3;
                let sig = if pos { 1.0 } else { -1.0 };
                let mut row = vec![0.0f32; 6];
                // Shared features carry weak signal; the modality-specific
                // feature is the strong one, so single-modality transfer
                // visibly underperforms.
                row[0] = (sig * 0.4 + rng.gen::<f64>() * 3.0 - 1.5) as f32;
                row[1] = (sig * 0.3 + rng.gen::<f64>() * 3.0 - 1.5) as f32;
                if modality == 0 {
                    row[2] = (sig * 0.9 + rng.gen::<f64>() * 0.4 - 0.2) as f32;
                } else {
                    row[3] = (sig * 0.9 + rng.gen::<f64>() * 0.4 - 0.2) as f32;
                }
                row[4] = rng.gen::<f32>();
                row[5] = rng.gen::<f32>();
                rows.push(row);
                let target = if noisy {
                    // weak label: 15% flipped, expressed as soft prob
                    if rng.gen::<f64>() < 0.15 {
                        if pos {
                            0.2
                        } else {
                            0.8
                        }
                    } else if pos {
                        0.9
                    } else {
                        0.1
                    }
                } else if pos {
                    1.0
                } else {
                    0.0
                };
                y.push(target);
            }
            (Matrix::from_rows(&rows), y)
        };
        let (xo, yo) = gen(0, n, false);
        let (xn, yn) = gen(1, n, true);
        let (xt, yt) = gen(1, n / 2, false);
        (ModalityData::new(xo, yo), ModalityData::new(xn, yn), xt, yt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_stacks_rows_in_order() {
        let a = ModalityData::new(Matrix::from_rows(&[vec![1.0, 2.0]]), vec![1.0]);
        let b =
            ModalityData::new(Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]), vec![0.0, 1.0]);
        let (x, y) = concat_parts(&[a, b]);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.row(0), &[1.0, 2.0]);
        assert_eq!(x.row(2), &[5.0, 6.0]);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn concat_rejects_ragged_parts() {
        let a = ModalityData::new(Matrix::zeros(1, 2), vec![0.0]);
        let b = ModalityData::new(Matrix::zeros(1, 3), vec![0.0]);
        concat_parts(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "target count mismatch")]
    fn part_validates_shapes() {
        ModalityData::new(Matrix::zeros(2, 2), vec![0.0]);
    }
}
