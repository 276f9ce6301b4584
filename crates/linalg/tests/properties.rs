//! Randomized tests for the linear-algebra kernels (seeded, in-tree PRNG).

use cm_linalg::rng::{Rng, StdRng};
use cm_linalg::{dot, softmax_in_place, Matrix};

const CASES: u64 = 48;

fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn vector(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

/// matvec agrees with a plain per-row dot-product loop.
#[test]
fn matvec_matches_dot_product_loop() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3A7 ^ case);
        let a = matrix(&mut rng, 4, 3);
        let x = vector(&mut rng, 3);
        let via_vec = a.matvec(&x);
        assert_eq!(via_vec.len(), a.rows());
        for (i, v) in via_vec.iter().enumerate() {
            let want: f64 = (0..a.cols()).map(|j| f64::from(a[(i, j)]) * f64::from(x[j])).sum();
            assert!((f64::from(*v) - want).abs() < 1e-4, "row {i}: {v} vs {want}");
        }
    }
}

/// dot is symmetric and |dot| obeys Cauchy-Schwarz.
#[test]
fn dot_axioms() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD07 ^ case);
        let x = vector(&mut rng, 6);
        let y = vector(&mut rng, 6);
        let xy = dot(&x, &y);
        let yx = dot(&y, &x);
        assert!((xy - yx).abs() < 1e-4);
        let bound = cm_linalg::l2_norm(&x) * cm_linalg::l2_norm(&y);
        assert!(xy.abs() <= bound * (1.0 + 1e-4) + 1e-5);
    }
}

/// softmax outputs a probability vector and preserves argmax.
#[test]
fn softmax_is_a_distribution() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x50F ^ case);
        let mut x = vector(&mut rng, 5);
        let argmax_before = cm_linalg::argmax(&x);
        softmax_in_place(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(cm_linalg::argmax(&x), argmax_before);
    }
}

/// Frobenius norm is zero iff the matrix is zero; scaling scales it.
#[test]
fn frobenius_scaling() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF20 ^ case);
        let a = matrix(&mut rng, 3, 3);
        let s = rng.gen_range(-4.0f32..4.0);
        let n = a.frobenius_norm();
        let mut b = a.clone();
        b.scale(s);
        assert!((b.frobenius_norm() - s.abs() * n).abs() < 1e-2 * (1.0 + n));
    }
}
