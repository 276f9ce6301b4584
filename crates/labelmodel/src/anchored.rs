//! Dev-set-anchored label model.
//!
//! The paper's central trick (§4.2) is that the labeled old-modality corpus
//! serves as a development set for LFs that transfer to the new modality
//! through the common feature space. This model exploits that directly:
//! each LF's *class-conditional vote rates* — `P(vote | y)` for votes in
//! `{+1, -1, 0}` — are estimated on the labeled dev matrix with Laplace
//! smoothing, and posteriors on the unlabeled target matrix follow from
//! Bayes' rule under conditional independence.
//!
//! Compared to the EM-fitted [`crate::GenerativeModel`], anchoring is the
//! right tool under heavy class imbalance: EM with a small fixed prior
//! collapses precision-oriented LF accuracies toward the better-than-random
//! floor (a positive vote can then never overcome the prior), whereas
//! dev-measured rates keep the full likelihood ratio.

use cm_featurespace::Label;

use crate::matrix::LabelMatrix;
use crate::patterns::VotePatterns;

/// Class-conditional vote rates of one LF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfRates {
    /// `P(vote = +1 | y = 1)`.
    pub pos_given_pos: f64,
    /// `P(vote = -1 | y = 1)`.
    pub neg_given_pos: f64,
    /// `P(vote = +1 | y = 0)`.
    pub pos_given_neg: f64,
    /// `P(vote = -1 | y = 0)`.
    pub neg_given_neg: f64,
}

impl LfRates {
    /// Estimates rates from one LF's votes against ground truth, with
    /// Laplace smoothing. Used when an LF's dev evidence lives on a
    /// different slice than the rest (e.g. the label-propagation LF, whose
    /// scores exist only for the held-out tuning slice).
    ///
    /// # Panics
    /// Panics on size mismatch or a single-class label set.
    pub fn estimate(votes: &[i8], labels: &[Label]) -> Self {
        assert_eq!(votes.len(), labels.len(), "vote/label count mismatch");
        let n_pos = labels.iter().filter(|l| l.is_positive()).count();
        let n_neg = labels.len() - n_pos;
        assert!(n_pos > 0 && n_neg > 0, "dev set must contain both classes");
        let mut counts = [[0usize; 2]; 2];
        for (&v, label) in votes.iter().zip(labels) {
            if v == 0 {
                continue;
            }
            counts[usize::from(label.is_positive())][usize::from(v > 0)] += 1;
        }
        let smooth = |c: usize, n: usize| (c as f64 + 0.5) / (n as f64 + 1.5);
        Self {
            pos_given_pos: smooth(counts[1][1], n_pos),
            neg_given_pos: smooth(counts[1][0], n_pos),
            pos_given_neg: smooth(counts[0][1], n_neg),
            neg_given_neg: smooth(counts[0][0], n_neg),
        }
    }

    /// `ln P(vote | y)` for every vote, `(y = 1, y = 0)` per
    /// [`vote_slot`].
    fn log_likelihoods(&self) -> [(f64, f64); 3] {
        [-1, 0, 1].map(|v| (self.likelihood(v, true).ln(), self.likelihood(v, false).ln()))
    }

    /// `P(vote | y)` for an encoded vote.
    fn likelihood(&self, vote: i8, positive: bool) -> f64 {
        let (p, n) = if positive {
            (self.pos_given_pos, self.neg_given_pos)
        } else {
            (self.pos_given_neg, self.neg_given_neg)
        };
        match vote {
            1 => p,
            -1 => n,
            _ => (1.0 - p - n).max(1e-9),
        }
    }
}

/// Mergeable integer sufficient statistic behind [`AnchoredModel::fit`]:
/// per-LF vote counts by dev class and vote sign, plus the class totals.
///
/// All fields are exact integer counts, so merging per-segment
/// accumulators in any order and then rendering rates is bit-identical to
/// fitting on the whole dev matrix at once — the contract the sharded
/// curation layer depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateCounts {
    n_lfs: usize,
    n_pos: usize,
    n_neg: usize,
    /// Per LF: `counts[lf][class][vote sign]` non-abstain vote tallies.
    counts: Vec<[[usize; 2]; 2]>,
}

impl RateCounts {
    /// An empty accumulator for `n_lfs` labeling functions.
    pub fn new(n_lfs: usize) -> Self {
        Self { n_lfs, n_pos: 0, n_neg: 0, counts: vec![[[0; 2]; 2]; n_lfs] }
    }

    /// Folds one dev segment (votes plus ground truth) into the counts.
    ///
    /// # Panics
    /// Panics on row-count or LF-count mismatch.
    pub fn observe(&mut self, dev: &LabelMatrix, labels: &[Label]) {
        assert_eq!(dev.n_rows(), labels.len(), "dev label count mismatch");
        assert_eq!(dev.n_lfs(), self.n_lfs, "LF count mismatch");
        for (r, label) in labels.iter().enumerate() {
            let cls = usize::from(label.is_positive());
            self.n_pos += cls;
            self.n_neg += 1 - cls;
            for (j, &v) in dev.row(r).iter().enumerate() {
                if v != 0 {
                    self.counts[j][cls][usize::from(v > 0)] += 1;
                }
            }
        }
    }

    /// Exact integer merge; associative and commutative.
    ///
    /// # Panics
    /// Panics on LF-count mismatch.
    pub fn merge(&mut self, other: &RateCounts) {
        assert_eq!(self.n_lfs, other.n_lfs, "LF count mismatch");
        self.n_pos += other.n_pos;
        self.n_neg += other.n_neg;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            for cls in 0..2 {
                for sign in 0..2 {
                    a[cls][sign] += b[cls][sign];
                }
            }
        }
    }

    /// Total dev rows observed.
    pub fn n_rows(&self) -> usize {
        self.n_pos + self.n_neg
    }

    /// Renders the counts to a fitted model (Laplace smoothing, dev prior
    /// unless overridden) — the single place rates become floats.
    ///
    /// # Panics
    /// Panics if either class is absent from the observed dev rows.
    pub fn into_model(self, class_prior: Option<f64>) -> AnchoredModel {
        assert!(self.n_pos > 0 && self.n_neg > 0, "dev set must contain both classes");
        let smooth = |c: usize, n: usize| (c as f64 + 0.5) / (n as f64 + 1.5);
        let rates = self
            .counts
            .iter()
            .map(|c| LfRates {
                pos_given_pos: smooth(c[1][1], self.n_pos),
                neg_given_pos: smooth(c[1][0], self.n_pos),
                pos_given_neg: smooth(c[0][1], self.n_neg),
                neg_given_neg: smooth(c[0][0], self.n_neg),
            })
            .collect();
        let prior =
            class_prior.unwrap_or(self.n_pos as f64 / self.n_rows() as f64).clamp(1e-4, 1.0 - 1e-4);
        AnchoredModel::new(rates, prior)
    }
}

/// A vote's slot in [`LfRates::log_likelihoods`]; anything but `±1` is
/// an abstain, as in [`LfRates::likelihood`].
fn vote_slot(vote: i8) -> usize {
    match vote {
        -1 => 0,
        1 => 2,
        _ => 1,
    }
}

/// A label model anchored on a labeled development matrix.
///
/// ```
/// use cm_featurespace::Label;
/// use cm_labelmodel::{AnchoredModel, LabelMatrix};
/// // One LF that fires on 3 of 4 dev positives and 1 of 12 dev negatives.
/// let votes = vec![1, 1, 1, 0,  1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
/// let dev = LabelMatrix::from_votes(16, 1, votes, vec!["lf".into()]);
/// let labels: Vec<Label> = (0..16)
///     .map(|i| if i < 4 { Label::Positive } else { Label::Negative })
///     .collect();
/// let model = AnchoredModel::fit(&dev, &labels, None);
/// // On a new point the LF fires on, the posterior beats the 25% prior.
/// let target = LabelMatrix::from_votes(1, 1, vec![1], vec!["lf".into()]);
/// assert!(model.predict(&target)[0] > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct AnchoredModel {
    rates: Vec<LfRates>,
    class_prior: f64,
    /// `(ln P(y = 1), ln P(y = 0))`.
    log_prior: (f64, f64),
    /// Per LF, [`LfRates::log_likelihoods`]: the `ln` of every vote cell
    /// taken once per model instead of twice per cell. `ln` is a pure
    /// function, so a table entry is the very value a per-cell call
    /// returns, and posteriors keep their bits.
    log_lik: Vec<[(f64, f64); 3]>,
}

impl AnchoredModel {
    /// Estimates vote rates from a dev label matrix and its ground truth.
    /// `class_prior` overrides the dev positive rate when given (e.g. when
    /// the target modality's prior is known to differ).
    ///
    /// # Panics
    /// Panics on size mismatch or an empty/single-class dev set.
    pub fn fit(dev: &LabelMatrix, labels: &[Label], class_prior: Option<f64>) -> Self {
        // The resident fit is the single-segment case of the mergeable
        // [`RateCounts`] path, so sharded fits agree with it by construction.
        let mut counts = RateCounts::new(dev.n_lfs());
        counts.observe(dev, labels);
        counts.into_model(class_prior)
    }

    /// Builds a model from externally estimated rates.
    ///
    /// # Panics
    /// Panics if `class_prior` is outside `(0, 1)`.
    pub fn from_rates(rates: Vec<LfRates>, class_prior: f64) -> Self {
        assert!(class_prior > 0.0 && class_prior < 1.0, "invalid class prior");
        Self::new(rates, class_prior)
    }

    fn new(rates: Vec<LfRates>, class_prior: f64) -> Self {
        Self {
            log_prior: (class_prior.ln(), (1.0 - class_prior).ln()),
            log_lik: rates.iter().map(LfRates::log_likelihoods).collect(),
            rates,
            class_prior,
        }
    }

    /// The per-LF rates.
    pub fn rates(&self) -> &[LfRates] {
        &self.rates
    }

    /// The class prior in use.
    pub fn class_prior(&self) -> f64 {
        self.class_prior
    }

    /// Probabilistic labels for a target matrix. Abstains carry their own
    /// (class-conditional) evidence; rows where every LF abstains still move
    /// off the prior only as far as the abstain rates warrant.
    ///
    /// # Panics
    /// Panics if the LF count differs from the dev matrix.
    pub fn predict(&self, matrix: &LabelMatrix) -> Vec<f64> {
        assert_eq!(matrix.n_lfs(), self.rates.len(), "LF count mismatch");
        (0..matrix.n_rows()).map(|r| self.posterior(matrix.row(r))).collect()
    }

    /// Probabilistic labels for folded vote patterns, one per pattern:
    /// bit-identical to [`AnchoredModel::predict`] on any row with that
    /// vote vector.
    ///
    /// # Panics
    /// Panics if the LF count differs from the dev matrix.
    pub fn predict_patterns(&self, patterns: &VotePatterns) -> Vec<f64> {
        assert_eq!(patterns.n_lfs(), self.rates.len(), "LF count mismatch");
        let mut dense = Vec::with_capacity(patterns.n_lfs());
        (0..patterns.len())
            .map(|p| {
                patterns.dense_into(p, &mut dense);
                self.posterior(&dense)
            })
            .collect()
    }

    /// `P(y = 1 | votes)` for one dense vote vector. Abstains carry
    /// evidence here, so every LF is summed, in LF order.
    fn posterior(&self, votes: &[i8]) -> f64 {
        let (mut log_pos, mut log_neg) = self.log_prior;
        for (&v, lik) in votes.iter().zip(&self.log_lik) {
            let (pos, neg) = lik[vote_slot(v)];
            log_pos += pos;
            log_neg += neg;
        }
        let m = log_pos.max(log_neg);
        let p = (log_pos - m).exp();
        let n = (log_neg - m).exp();
        p / (p + n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dev matrix: LF0 fires + on 80% of positives and 2% of negatives;
    /// LF1 fires - on 60% of negatives and 5% of positives.
    fn dev_fixture(n_pos: usize, n_neg: usize) -> (LabelMatrix, Vec<Label>) {
        let mut votes = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_pos {
            votes.push(if i % 10 < 8 { 1 } else { 0 });
            votes.push(if i % 20 == 0 { -1 } else { 0 });
            labels.push(Label::Positive);
        }
        for i in 0..n_neg {
            votes.push(if i % 50 == 0 { 1 } else { 0 });
            votes.push(if i % 10 < 6 { -1 } else { 0 });
            labels.push(Label::Negative);
        }
        (LabelMatrix::from_votes(n_pos + n_neg, 2, votes, vec!["p".into(), "n".into()]), labels)
    }

    #[test]
    fn rates_match_dev_frequencies() {
        let (m, labels) = dev_fixture(100, 900);
        let model = AnchoredModel::fit(&m, &labels, None);
        let r = &model.rates()[0];
        assert!((r.pos_given_pos - 0.8).abs() < 0.02, "{r:?}");
        assert!((r.pos_given_neg - 0.02).abs() < 0.01, "{r:?}");
        assert!((model.class_prior() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn positive_vote_overcomes_small_prior() {
        // The failure mode that motivates anchoring: with a 4% prior, a
        // high-precision LF firing must push the posterior above 0.5.
        let (m, labels) = dev_fixture(200, 4800);
        let model = AnchoredModel::fit(&m, &labels, None);
        let target =
            LabelMatrix::from_votes(3, 2, vec![1, 0, 0, -1, 0, 0], vec!["p".into(), "n".into()]);
        let probs = model.predict(&target);
        assert!(probs[0] > 0.5, "positive vote posterior {}", probs[0]);
        assert!(probs[1] < model.class_prior(), "negative vote must lower the prior");
        // All-abstain row stays near the prior (abstain carries weak
        // evidence, so "near", not "equal").
        assert!((probs[2] - model.class_prior()).abs() < 0.05);
    }

    #[test]
    fn agreeing_lfs_compound() {
        let (m, labels) = dev_fixture(100, 900);
        let model = AnchoredModel::fit(&m, &labels, None);
        let target = LabelMatrix::from_votes(2, 2, vec![1, 0, 1, -1], vec!["p".into(), "n".into()]);
        let probs = model.predict(&target);
        // A contradicting negative vote must lower the posterior.
        assert!(probs[0] > probs[1]);
    }

    #[test]
    fn prior_override_is_used() {
        let (m, labels) = dev_fixture(100, 900);
        let model = AnchoredModel::fit(&m, &labels, Some(0.3));
        assert_eq!(model.class_prior(), 0.3);
    }

    #[test]
    fn posteriors_are_probabilities() {
        let (m, labels) = dev_fixture(100, 900);
        let model = AnchoredModel::fit(&m, &labels, None);
        for p in model.predict(&m) {
            assert!((0.0..=1.0).contains(&p) && !p.is_nan());
        }
    }

    /// Segment-wise observation plus merge must yield the exact model bits
    /// of a whole-matrix fit, for any partition of the dev rows.
    #[test]
    fn rate_counts_merge_matches_whole_fit() {
        let (m, labels) = dev_fixture(100, 900);
        let whole = AnchoredModel::fit(&m, &labels, None);
        for cuts in [vec![1usize], vec![97, 500], vec![250, 500, 750], vec![1000]] {
            let mut merged = RateCounts::new(m.n_lfs());
            let mut start = 0;
            for end in cuts.iter().copied().chain([labels.len()]) {
                let mut seg_votes = Vec::new();
                for r in start..end {
                    seg_votes.extend_from_slice(m.row(r));
                }
                let seg =
                    LabelMatrix::from_votes(end - start, m.n_lfs(), seg_votes, m.names().to_vec());
                let mut part = RateCounts::new(m.n_lfs());
                part.observe(&seg, &labels[start..end]);
                merged.merge(&part);
                start = end;
            }
            assert_eq!(merged.n_rows(), labels.len());
            let model = merged.into_model(None);
            assert_eq!(model.class_prior().to_bits(), whole.class_prior().to_bits());
            for (a, b) in model.rates().iter().zip(whole.rates()) {
                assert_eq!(a, b, "cuts = {cuts:?}");
            }
        }
    }

    #[test]
    fn rate_counts_merge_is_order_free() {
        let (m, labels) = dev_fixture(40, 160);
        let seg = |start: usize, end: usize| {
            let mut votes = Vec::new();
            for r in start..end {
                votes.extend_from_slice(m.row(r));
            }
            let part_m = LabelMatrix::from_votes(end - start, m.n_lfs(), votes, m.names().to_vec());
            let mut part = RateCounts::new(m.n_lfs());
            part.observe(&part_m, &labels[start..end]);
            part
        };
        let (a, b, c) = (seg(0, 50), seg(50, 120), seg(120, 200));
        let mut fwd = RateCounts::new(m.n_lfs());
        fwd.merge(&a);
        fwd.merge(&b);
        fwd.merge(&c);
        let mut rev = RateCounts::new(m.n_lfs());
        rev.merge(&c);
        rev.merge(&a);
        rev.merge(&b);
        assert_eq!(fwd, rev);
    }

    /// The per-cell formula the log table replaces.
    fn predict_per_cell(model: &AnchoredModel, matrix: &LabelMatrix) -> Vec<f64> {
        (0..matrix.n_rows())
            .map(|r| {
                let mut log_pos = model.class_prior.ln();
                let mut log_neg = (1.0 - model.class_prior).ln();
                for (&v, rates) in matrix.row(r).iter().zip(&model.rates) {
                    log_pos += rates.likelihood(v, true).ln();
                    log_neg += rates.likelihood(v, false).ln();
                }
                let m = log_pos.max(log_neg);
                let p = (log_pos - m).exp();
                let n = (log_neg - m).exp();
                p / (p + n)
            })
            .collect()
    }

    #[test]
    fn log_table_predict_is_bit_equal_to_per_cell_ln() {
        use cm_linalg::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..20 {
            let n_lfs = 1 + case % 9 * 7;
            let n_rows = 300;
            let votes: Vec<i8> = (0..n_rows * n_lfs)
                .map(|_| match rng.gen_range(0..5usize) {
                    0 => 1,
                    1 => -1,
                    _ => 0,
                })
                .collect();
            let names = (0..n_lfs).map(|j| format!("lf{j}")).collect();
            let target = LabelMatrix::from_votes(n_rows, n_lfs, votes, names);
            // Rates from a random dev matrix of the same width.
            let dev_votes: Vec<i8> =
                (0..200 * n_lfs).map(|_| [1, -1, 0, 0][rng.gen_range(0..4usize)]).collect();
            let dev = LabelMatrix::from_votes(200, n_lfs, dev_votes, target.names().to_vec());
            let labels: Vec<Label> = (0..200)
                .map(|i| if i % 7 == 0 { Label::Positive } else { Label::Negative })
                .collect();
            let prior = [None, Some(0.03), Some(0.4)][case % 3];
            let model = AnchoredModel::fit(&dev, &labels, prior);
            let want = predict_per_cell(&model, &target);
            let got = model.predict(&target);
            let by_pattern = model.predict_patterns(&VotePatterns::of_segments(&[&target]));
            let mut ids = VotePatterns::new(n_lfs);
            for r in 0..n_rows {
                assert_eq!(got[r].to_bits(), want[r].to_bits(), "case {case}, row {r}");
                let p = ids.observe(target.row(r));
                assert_eq!(by_pattern[p].to_bits(), want[r].to_bits(), "case {case}, row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class_dev() {
        let m = LabelMatrix::from_votes(2, 1, vec![1, 0], vec!["a".into()]);
        AnchoredModel::fit(&m, &[Label::Positive, Label::Positive], None);
    }

    #[test]
    #[should_panic(expected = "LF count mismatch")]
    fn predict_checks_width() {
        let (m, labels) = dev_fixture(50, 450);
        let model = AnchoredModel::fit(&m, &labels, None);
        let other = LabelMatrix::from_votes(1, 1, vec![1], vec!["x".into()]);
        model.predict(&other);
    }
}
