//! Randomized tests for losses and model behaviour (seeded, in-tree PRNG).

use cm_linalg::rng::{Rng, StdRng};
use cm_linalg::Matrix;
use cm_models::loss::{bce_grad, bce_with_logit, class_balance_weights, mean_bce};
use cm_models::{LogisticConfig, LogisticRegression};
use cm_par::ParConfig;

const CASES: u64 = 96;

/// BCE is non-negative, finite, and zero only at perfect confidence.
#[test]
fn bce_is_nonnegative() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xBCE ^ case);
        let z = rng.gen_range(-80.0f32..80.0);
        let q = rng.gen_range(0.0f64..1.0);
        let l = bce_with_logit(z, q);
        assert!(l >= -1e-12, "case {case}");
        assert!(l.is_finite(), "case {case}");
    }
}

/// Gradient matches central finite differences.
#[test]
fn bce_grad_matches_finite_difference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x62AD ^ case);
        let z = rng.gen_range(-8.0f32..8.0);
        let q = rng.gen_range(0.0f64..1.0);
        let eps = 1e-3f32;
        let fd = (bce_with_logit(z + eps, q) - bce_with_logit(z - eps, q)) / (2.0 * f64::from(eps));
        assert!((f64::from(bce_grad(z, q)) - fd).abs() < 1e-4, "case {case}");
    }
}

/// BCE is convex in the logit: midpoint below the chord.
#[test]
fn bce_is_convex() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0F ^ case);
        let z1 = rng.gen_range(-20.0f32..20.0);
        let z2 = rng.gen_range(-20.0f32..20.0);
        let q = rng.gen_range(0.0f64..1.0);
        let mid = bce_with_logit((z1 + z2) / 2.0, q);
        let chord = (bce_with_logit(z1, q) + bce_with_logit(z2, q)) / 2.0;
        // In the saturated (affine) regimes mid == chord up to f32
        // rounding of the logit, so the tolerance scales with the loss.
        assert!(mid <= chord + 1e-6 * (1.0 + mid.abs()), "case {case}");
    }
}

/// Class-balance weights equalize total class mass whenever both
/// classes exist.
#[test]
fn class_balance_equalizes_mass() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xBA1 ^ case);
        let n = rng.gen_range(2..50usize);
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let w = class_balance_weights(&targets);
        assert_eq!(w.len(), targets.len(), "case {case}");
        let pos_mass: f64 = w.iter().zip(&targets).filter(|(_, &t)| t >= 0.5).map(|(w, _)| w).sum();
        let neg_mass: f64 = w.iter().zip(&targets).filter(|(_, &t)| t < 0.5).map(|(w, _)| w).sum();
        if pos_mass > 0.0 && neg_mass > 0.0 {
            assert!((pos_mass - neg_mass).abs() < 1e-6 * (pos_mass + neg_mass), "case {case}");
        }
    }
}

/// Zero-weighted samples do not influence the mean loss.
#[test]
fn zero_weight_samples_are_ignored() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0E16 ^ case);
        let n = rng.gen_range(2..20usize);
        let logits: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        // Weight only the first sample.
        let mut w = vec![0.0; n];
        w[0] = 1.0;
        let weighted = mean_bce(&logits, &targets, Some(&w));
        let single = bce_with_logit(logits[0], targets[0]);
        assert!((weighted - single).abs() < 1e-12, "case {case}");
    }
}

/// Logistic regression on a constant-label problem predicts that label
/// confidently.
#[test]
fn logistic_fits_constant_labels() {
    let par = ParConfig::from_env();
    // Full training per case is slow; a smaller case count keeps the same
    // coverage the proptest version had in practice.
    for case in 0..16 {
        let mut rng = StdRng::seed_from_u64(0x106 ^ case);
        let n = rng.gen_range(8..24usize);
        let rows: Vec<Vec<f32>> =
            (0..n).map(|_| (0..3).map(|_| rng.gen_range(-2.0f32..2.0)).collect()).collect();
        let positive = rng.gen_bool(0.5);
        let x = Matrix::from_rows(&rows);
        let y = vec![if positive { 1.0 } else { 0.0 }; rows.len()];
        let model = LogisticRegression::fit_with(
            &x,
            &y,
            None,
            &LogisticConfig { epochs: 200, lr: 0.1, ..LogisticConfig::default() },
            &par,
        );
        for p in model.predict_proba(&x, &par) {
            if positive {
                assert!(p > 0.6, "case {case}: p = {p}");
            } else {
                assert!(p < 0.4, "case {case}: p = {p}");
            }
        }
    }
}
