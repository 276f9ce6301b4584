//! The generative label model: estimates LF accuracies from agreement
//! structure and produces probabilistic labels (§4.1, step 3).
//!
//! This is the conditionally-independent Snorkel model (the one Snorkel
//! Drybell deploys): each LF has an abstain propensity and an accuracy;
//! given the true label, votes are independent. Parameters are fitted with
//! EM; probabilistic labels are the E-step posteriors at convergence.
//!
//! Because a row's posterior depends only on its vote vector, EM runs over
//! [`VotePatterns`] — distinct vectors weighted by their row counts — and
//! every sum a row would contribute is deposited `count` times at once
//! with the exact [`StableSum::add_weighted`]. The fit is bit-identical to
//! a row-by-row pass and costs O(patterns) per iteration.

use cm_linalg::StableSum;
use cm_par::ParConfig;

use crate::matrix::LabelMatrix;
use crate::patterns::VotePatterns;

/// Below this much work the EM fit stays on the serial code path
/// regardless of the requested thread count, so small fits never pay spawn
/// overhead and path selection depends only on input size. The work of a
/// fit is its patterns plus their non-abstain cells; that of row-wise
/// prediction is `rows * LFs`.
const EM_PAR_THRESHOLD: usize = 50_000;

/// Minimum rows per chunk for parallel prediction. Part of the chunk
/// plan, so it must not depend on the thread count.
const EM_MIN_ROWS_PER_CHUNK: usize = 256;

/// Minimum patterns per chunk for the EM steps. Each chunk folds into its
/// own [`EmMoments`] (one accumulator per LF), so chunks must be large
/// enough for the sparse pattern work to outweigh that; like the row
/// chunk it must not depend on the thread count.
const EM_MIN_PATTERNS_PER_CHUNK: usize = 4096;

/// Configuration for [`GenerativeModel::fit_with`].
#[derive(Debug, Clone)]
pub struct GenerativeConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on mean absolute posterior change.
    pub tol: f64,
    /// Class prior `P(y = 1)`. `Some(p)` keeps it fixed (the paper knows
    /// task positive rates from the old modality); `None` re-estimates it
    /// each M-step.
    pub class_prior: Option<f64>,
    /// Initial LF accuracy.
    pub init_accuracy: f64,
    /// Accuracy clamp range, enforcing Snorkel's better-than-random
    /// assumption and numeric safety.
    pub accuracy_bounds: (f64, f64),
}

impl Default for GenerativeConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            class_prior: None,
            init_accuracy: 0.7,
            accuracy_bounds: (0.55, 0.995),
        }
    }
}

/// Mergeable sufficient statistics of one EM iteration: per-LF agreement
/// mass and vote totals (the M-step numerators/denominators), plus the
/// posterior sum (prior update) and absolute posterior delta (convergence),
/// each over rows (a pattern contributes once per row that shares it).
///
/// Float masses live in [`StableSum`] superaccumulators and totals are
/// integers, so `merge` is exact — associative and commutative. Folding
/// per-chunk or per-shard moments in any order and then rendering yields
/// bit-identical parameters to a whole-matrix pass, which is what lets the
/// sharded curation layer fit the label model out of core.
#[derive(Debug, Clone)]
pub struct EmMoments {
    agree: Vec<StableSum>,
    total: Vec<u64>,
    delta: StableSum,
    posterior_sum: StableSum,
    n_rows: u64,
}

impl EmMoments {
    /// An empty accumulator for `n_lfs` labeling functions.
    pub fn new(n_lfs: usize) -> Self {
        Self {
            agree: vec![StableSum::new(); n_lfs],
            total: vec![0; n_lfs],
            delta: StableSum::new(),
            posterior_sum: StableSum::new(),
            n_rows: 0,
        }
    }

    /// Folds `count` rows sharing one vote pattern into the moments:
    /// `cells` are the pattern's non-abstain `(lf, vote)` cells, `fresh`
    /// this iteration's E-step posterior for it, `previous` the posterior
    /// it replaces. Bit-identical to folding the rows one at a time.
    ///
    /// # Panics
    /// Panics if a cell's LF index is out of range.
    pub fn observe_pattern(&mut self, cells: &[(u32, i8)], count: u64, fresh: f64, previous: f64) {
        self.n_rows += count;
        add_copies(&mut self.delta, (fresh - previous).abs(), count);
        add_copies(&mut self.posterior_sum, fresh, count);
        for &(j, v) in cells {
            self.total[j as usize] += count;
            add_copies(&mut self.agree[j as usize], if v > 0 { fresh } else { 1.0 - fresh }, count);
        }
    }

    /// Exact merge of another accumulator into this one.
    ///
    /// # Panics
    /// Panics if the LF counts differ.
    pub fn merge(&mut self, other: &EmMoments) {
        assert_eq!(self.total.len(), other.total.len(), "LF count mismatch");
        for (a, b) in self.agree.iter_mut().zip(&other.agree) {
            a.merge(b);
        }
        for (t, o) in self.total.iter_mut().zip(&other.total) {
            *t += *o;
        }
        self.delta.merge(&other.delta);
        self.posterior_sum.merge(&other.posterior_sum);
        self.n_rows += other.n_rows;
    }

    /// Rows folded in so far.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// The M-step accuracy estimate for LF `j`, or `None` if it abstained
    /// everywhere (its accuracy then stays at the previous value).
    pub fn accuracy(&self, j: usize) -> Option<f64> {
        (self.total[j] > 0).then(|| self.agree[j].value() / self.total[j] as f64)
    }

    /// Mean posterior (the re-estimated class prior), or `None` on zero rows.
    pub fn mean_posterior(&self) -> Option<f64> {
        (self.n_rows > 0).then(|| self.posterior_sum.value() / self.n_rows as f64)
    }

    /// Mean absolute posterior change this iteration (convergence metric),
    /// or `None` on zero rows.
    pub fn mean_delta(&self) -> Option<f64> {
        (self.n_rows > 0).then(|| self.delta.value() / self.n_rows as f64)
    }
}

/// Adds `count` copies of `x`, in deposits of at most `u32::MAX` copies.
fn add_copies(sum: &mut StableSum, x: f64, mut count: u64) {
    while count > 0 {
        let step = count.min(u64::from(u32::MAX));
        sum.add_weighted(x, step as u32);
        count -= step;
    }
}

/// A fitted generative label model.
#[derive(Debug, Clone)]
pub struct GenerativeModel {
    accuracies: Vec<f64>,
    class_prior: f64,
    iterations: usize,
}

/// Parameters carried from one fit into the next: the warm start of a
/// mini-batch EM refit in the incremental curation loop. Seeding the next
/// fit from the previous posterior's parameters means a handful of refit
/// iterations keep tracking the vote distribution instead of re-deriving
/// it from scratch on every arrival batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Per-LF accuracies from the previous fit (clamped to the new fit's
    /// accuracy bounds before use).
    pub accuracies: Vec<f64>,
    /// Class prior from the previous fit.
    pub class_prior: f64,
}

impl GenerativeModel {
    /// Fits the model on a label matrix with EM.
    ///
    /// Produces bit-identical parameters and posteriors for any thread
    /// count: every float reduction lives in an exact [`StableSum`]
    /// superaccumulator (via [`EmMoments`]), so neither the chunk plan nor
    /// the worker count can perturb a single bit. The matrix is folded
    /// into [`VotePatterns`] and fitted cold with
    /// [`GenerativeModel::fit_patterns`].
    ///
    /// # Panics
    /// Panics if the matrix has no LFs.
    pub fn fit_with(matrix: &LabelMatrix, config: &GenerativeConfig, par: &ParConfig) -> Self {
        Self::fit_patterns(&VotePatterns::of_segments(&[matrix]), config, None, par)
    }

    /// Fits the model on folded vote patterns — the entry point for
    /// row-partitioned (out-of-core) and incremental fits.
    ///
    /// Each EM iteration makes one fused E+M pass over the patterns: a
    /// pattern's posterior is recomputed from the current parameters and
    /// folded into [`EmMoments`] once, weighted by its row count. Every
    /// sum is exact, so the result equals a row-by-row pass bit for bit,
    /// for any pattern numbering, chunk plan, and thread count. Pattern
    /// counts do not depend on how the rows were partitioned, so fitting
    /// `VotePatterns::of_segments(&[a, b, c])` equals
    /// `fit_with(&concat(a, b, c), ..)` at every shard size.
    ///
    /// `warm` starts the EM iteration from the given `(accuracies,
    /// prior)` instead of `config.init_accuracy`; with `None` this is the
    /// cold fit. The incremental serving loop passes the previous batch's
    /// parameters here together with a small `config.max_iters`, turning
    /// the full EM into a mini-batch refit. A fixed `config.class_prior`
    /// still wins over the warm start's prior (the caller pinned it on
    /// purpose).
    ///
    /// # Panics
    /// Panics if there are no LFs or the warm start's accuracy count
    /// differs from the LF count.
    pub fn fit_patterns(
        patterns: &VotePatterns,
        config: &GenerativeConfig,
        warm: Option<&WarmStart>,
        par: &ParConfig,
    ) -> Self {
        let n_lfs = patterns.n_lfs();
        assert!(n_lfs > 0, "cannot fit a generative model with zero LFs");
        let (lo, hi) = config.accuracy_bounds;
        assert!(lo > 0.5 && hi < 1.0 && lo < hi, "invalid accuracy bounds");
        let mut accuracies = match warm {
            Some(w) => {
                assert_eq!(w.accuracies.len(), n_lfs, "warm start LF count mismatch");
                w.accuracies.iter().map(|a| a.clamp(lo, hi)).collect()
            }
            None => vec![config.init_accuracy.clamp(lo, hi); n_lfs],
        };
        let mut prior = config
            .class_prior
            .or(warm.map(|w| w.class_prior))
            .unwrap_or(0.5)
            .clamp(1e-4, 1.0 - 1e-4);

        // Size-only gate on the pattern table: small fits run the serial
        // plan, big ones run the caller's plan. Exact accumulation makes
        // the choice invisible in the output either way.
        let par = if patterns.len() + patterns.n_cells() < EM_PAR_THRESHOLD {
            ParConfig::serial().with_min_chunk(EM_MIN_PATTERNS_PER_CHUNK)
        } else {
            par.clone().with_min_chunk(EM_MIN_PATTERNS_PER_CHUNK)
        };

        // Every row of a pattern shares its posterior, so the previous
        // posterior the convergence delta needs is per pattern too.
        let mut posteriors = vec![0.5f64; patterns.len()];
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // Fused E+M pass: per-chunk fresh posteriors plus moment
            // partials, merged exactly.
            let logs = LogParams::new(&accuracies, prior);
            let chunks = cm_par::par_map_chunks(&par, patterns.len(), |range| {
                let mut fresh = Vec::with_capacity(range.len());
                let mut part = EmMoments::new(n_lfs);
                for p in range {
                    let cells = patterns.cells(p);
                    let q = logs.posterior(sparse(cells));
                    part.observe_pattern(cells, patterns.count(p), q, posteriors[p]);
                    fresh.push(q);
                }
                (fresh, part)
            })
            .unwrap_or_else(|e| e.resume());
            let mut moments = EmMoments::new(n_lfs);
            let mut offset = 0usize;
            for (fresh, part) in chunks {
                posteriors[offset..offset + fresh.len()].copy_from_slice(&fresh);
                offset += fresh.len();
                moments.merge(&part);
            }
            for (j, acc) in accuracies.iter_mut().enumerate() {
                if let Some(a) = moments.accuracy(j) {
                    *acc = a.clamp(lo, hi);
                }
            }
            if config.class_prior.is_none() {
                if let Some(p) = moments.mean_posterior() {
                    prior = p.clamp(1e-4, 1.0 - 1e-4);
                }
            }
            let delta = moments.mean_delta().unwrap_or(0.0);
            if delta < config.tol && iter > 0 {
                break;
            }
        }
        Self { accuracies, class_prior: prior, iterations }
    }

    /// Estimated LF accuracies.
    pub fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    /// Estimated (or fixed) class prior.
    pub fn class_prior(&self) -> f64 {
        self.class_prior
    }

    /// EM iterations run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The fitted parameters, packaged to seed the next refit.
    pub fn warm_start(&self) -> WarmStart {
        WarmStart { accuracies: self.accuracies.clone(), class_prior: self.class_prior }
    }

    /// Reconstruct a model from previously fitted parameters (checkpoint
    /// restore). The model predicts exactly as the original did.
    pub fn from_params(accuracies: Vec<f64>, class_prior: f64, iterations: usize) -> Self {
        assert!(!accuracies.is_empty(), "model needs at least one LF accuracy");
        GenerativeModel { accuracies, class_prior, iterations }
    }

    /// Probabilistic labels for a (possibly different) label matrix.
    /// Rows where every LF abstains get the class prior. Posteriors are
    /// row-independent, so any thread count yields the same bits; small
    /// matrices stay serial.
    ///
    /// # Panics
    /// Panics if the LF count differs from the fitted matrix.
    pub fn predict_with(&self, matrix: &LabelMatrix, par: &ParConfig) -> Vec<f64> {
        assert_eq!(matrix.n_lfs(), self.accuracies.len(), "LF count mismatch");
        let logs = LogParams::new(&self.accuracies, self.class_prior);
        let row = |r: usize| logs.posterior(dense(matrix.row(r)));
        if matrix.n_rows() * matrix.n_lfs() < EM_PAR_THRESHOLD {
            return (0..matrix.n_rows()).map(row).collect();
        }
        cm_par::par_map(&par.clone().with_min_chunk(EM_MIN_ROWS_PER_CHUNK), matrix.n_rows(), row)
            .unwrap_or_else(|e| e.resume())
    }

    /// Probabilistic labels for folded vote patterns, one per pattern:
    /// bit-identical to [`GenerativeModel::predict_with`] on any row with that
    /// vote vector.
    ///
    /// # Panics
    /// Panics if the LF count differs from the fitted model's.
    pub fn predict_patterns(&self, patterns: &VotePatterns) -> Vec<f64> {
        assert_eq!(patterns.n_lfs(), self.accuracies.len(), "LF count mismatch");
        let logs = LogParams::new(&self.accuracies, self.class_prior);
        (0..patterns.len()).map(|p| logs.posterior(sparse(patterns.cells(p)))).collect()
    }
}

/// A dense vote row as `(lf, vote)` cells, abstains included.
fn dense(votes: &[i8]) -> impl Iterator<Item = (usize, i8)> + '_ {
    votes.iter().copied().enumerate()
}

/// A pattern's non-abstain cells as `(lf, vote)` pairs.
fn sparse(cells: &[(u32, i8)]) -> impl Iterator<Item = (usize, i8)> + '_ {
    cells.iter().map(|&(j, v)| (j as usize, v))
}

/// One parameter set's log-likelihood terms, taken once instead of once
/// per vote cell: `(ln a, ln(1 - a))` per LF and the same for the prior.
/// `ln` is a pure function, so a table entry is the very value a per-cell
/// call would return, and posteriors keep their bits.
struct LogParams {
    prior: f64,
    log_prior: (f64, f64),
    lfs: Vec<(f64, f64)>,
}

impl LogParams {
    fn new(accuracies: &[f64], prior: f64) -> Self {
        Self {
            prior,
            log_prior: (prior.ln(), (1.0 - prior).ln()),
            lfs: accuracies.iter().map(|&a| (a.ln(), (1.0 - a).ln())).collect(),
        }
    }

    /// `P(y = 1 | votes)` under the independent model. Abstains
    /// contribute nothing, so a dense row and its sparse pattern cells
    /// (both in LF order) run the same float operations and give the same
    /// bits.
    fn posterior(&self, votes: impl Iterator<Item = (usize, i8)>) -> f64 {
        let (mut log_pos, mut log_neg) = self.log_prior;
        let mut any = false;
        for (j, v) in votes {
            let (log_a, log_not_a) = self.lfs[j];
            match v {
                1 => {
                    any = true;
                    log_pos += log_a;
                    log_neg += log_not_a;
                }
                -1 => {
                    any = true;
                    log_pos += log_not_a;
                    log_neg += log_a;
                }
                _ => {}
            }
        }
        if !any {
            return self.prior;
        }
        let m = log_pos.max(log_neg);
        let pos = (log_pos - m).exp();
        let neg = (log_neg - m).exp();
        pos / (pos + neg)
    }
}

/// Majority-vote baseline: mean of non-abstain votes mapped to `[0, 1]`;
/// rows with no votes get 0.5.
pub fn majority_vote(matrix: &LabelMatrix) -> Vec<f64> {
    (0..matrix.n_rows()).map(|r| majority(matrix.row(r).iter().copied())).collect()
}

/// [`majority_vote`] for folded vote patterns, one label per pattern:
/// equal to [`majority_vote`] on any row with that vote vector.
pub fn majority_vote_patterns(patterns: &VotePatterns) -> Vec<f64> {
    (0..patterns.len()).map(|p| majority(patterns.cells(p).iter().map(|&(_, v)| v))).collect()
}

/// One row's majority vote; abstains (`0`) count for neither side.
fn majority(votes: impl Iterator<Item = i8>) -> f64 {
    let (mut n, mut sum) = (0usize, 0i32);
    for v in votes.filter(|&v| v != 0) {
        n += 1;
        sum += i32::from(v);
    }
    if n == 0 || sum == 0 {
        0.5
    } else if sum > 0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use cm_linalg::rng::Rng;
    use cm_linalg::rng::StdRng;

    use super::*;

    /// The per-row posterior the log table replaced: `ln` per vote cell.
    fn posterior_for_row(votes: &[i8], accuracies: &[f64], prior: f64) -> f64 {
        let mut log_pos = prior.ln();
        let mut log_neg = (1.0 - prior).ln();
        let mut any = false;
        for (&v, &a) in votes.iter().zip(accuracies) {
            match v {
                1 => {
                    any = true;
                    log_pos += a.ln();
                    log_neg += (1.0 - a).ln();
                }
                -1 => {
                    any = true;
                    log_pos += (1.0 - a).ln();
                    log_neg += a.ln();
                }
                _ => {}
            }
        }
        if !any {
            return prior;
        }
        let m = log_pos.max(log_neg);
        let pos = (log_pos - m).exp();
        let neg = (log_neg - m).exp();
        pos / (pos + neg)
    }

    /// The row-wise fold the pattern fold replaced: one row, one deposit.
    fn observe_row(m: &mut EmMoments, votes: &[i8], fresh: f64, previous: f64) {
        assert_eq!(votes.len(), m.total.len(), "LF count mismatch");
        m.n_rows += 1;
        m.delta.add((fresh - previous).abs());
        m.posterior_sum.add(fresh);
        for (j, &v) in votes.iter().enumerate() {
            if v != 0 {
                m.total[j] += 1;
                m.agree[j].add(if v > 0 { fresh } else { 1.0 - fresh });
            }
        }
    }

    /// Oracle: the row-by-row EM loop, one posterior and one moment
    /// deposit per row per iteration. The pattern-folded
    /// [`GenerativeModel::fit_patterns`] must reproduce it bit for bit.
    fn fit_rowwise(
        segments: &[&LabelMatrix],
        config: &GenerativeConfig,
        warm: Option<&WarmStart>,
        par: &ParConfig,
    ) -> GenerativeModel {
        let n_lfs = segments[0].n_lfs();
        let (lo, hi) = config.accuracy_bounds;
        let total_rows: usize = segments.iter().map(|m| m.n_rows()).sum();
        let mut accuracies: Vec<f64> = match warm {
            Some(w) => w.accuracies.iter().map(|a| a.clamp(lo, hi)).collect(),
            None => vec![config.init_accuracy.clamp(lo, hi); n_lfs],
        };
        let mut prior = config
            .class_prior
            .or(warm.map(|w| w.class_prior))
            .unwrap_or(0.5)
            .clamp(1e-4, 1.0 - 1e-4);
        let par = if total_rows * n_lfs < EM_PAR_THRESHOLD {
            ParConfig::serial().with_min_chunk(EM_MIN_ROWS_PER_CHUNK)
        } else {
            par.clone().with_min_chunk(EM_MIN_ROWS_PER_CHUNK)
        };
        let mut posteriors: Vec<Vec<f64>> =
            segments.iter().map(|m| vec![0.5f64; m.n_rows()]).collect();
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let mut moments = EmMoments::new(n_lfs);
            for (seg, post) in segments.iter().zip(posteriors.iter_mut()) {
                let chunks = cm_par::par_map_chunks(&par, seg.n_rows(), |range| {
                    let mut fresh = Vec::with_capacity(range.len());
                    let mut part = EmMoments::new(n_lfs);
                    for r in range {
                        let q = posterior_for_row(seg.row(r), &accuracies, prior);
                        observe_row(&mut part, seg.row(r), q, post[r]);
                        fresh.push(q);
                    }
                    (fresh, part)
                })
                .unwrap_or_else(|e| e.resume());
                let mut offset = 0usize;
                for (fresh, part) in chunks {
                    post[offset..offset + fresh.len()].copy_from_slice(&fresh);
                    offset += fresh.len();
                    moments.merge(&part);
                }
            }
            for (j, acc) in accuracies.iter_mut().enumerate() {
                if let Some(a) = moments.accuracy(j) {
                    *acc = a.clamp(lo, hi);
                }
            }
            if config.class_prior.is_none() {
                if let Some(p) = moments.mean_posterior() {
                    prior = p.clamp(1e-4, 1.0 - 1e-4);
                }
            }
            let delta = moments.mean_delta().unwrap_or(0.0);
            if delta < config.tol && iter > 0 {
                break;
            }
        }
        GenerativeModel { accuracies, class_prior: prior, iterations }
    }

    /// Row-aligned cuts of `m` into separate matrices.
    fn split_rows(m: &LabelMatrix, cuts: &[usize]) -> Vec<LabelMatrix> {
        let mut segs = Vec::new();
        let mut start = 0;
        for &end in cuts.iter().chain([&m.n_rows()]) {
            let mut votes = Vec::new();
            for r in start..end {
                votes.extend_from_slice(m.row(r));
            }
            segs.push(LabelMatrix::from_votes(end - start, m.n_lfs(), votes, m.names().to_vec()));
            start = end;
        }
        segs
    }

    /// The folded fit against the row-wise oracle, bit for bit: sparse
    /// and dense votes, cold and warm starts, fixed and learned priors,
    /// several segment cuts, and 1, 2 and 4 threads.
    #[test]
    fn folded_fit_matches_rowwise_oracle_bitwise() {
        // Twelve LFs at 90% propensity give thousands of patterns, past
        // the parallel gate; two sparse LFs give a handful.
        let dense_specs: Vec<(f64, f64)> = (0..12).map(|j| (0.6 + 0.03 * j as f64, 0.9)).collect();
        let cases = [
            ("abstain-heavy", synthetic(3000, 0.2, &[(0.9, 0.05), (0.7, 0.1), (0.8, 0.02)], 31).0),
            ("dense", synthetic(8000, 0.35, &dense_specs, 32).0),
        ];
        for (name, m) in &cases {
            let folded = VotePatterns::of_segments(&[m]);
            if *name == "dense" {
                let work = folded.len() + folded.n_cells();
                assert!(work >= EM_PAR_THRESHOLD && folded.len() > EM_MIN_PATTERNS_PER_CHUNK);
            }
            let cold =
                GenerativeModel::fit_with(m, &GenerativeConfig::default(), &ParConfig::serial());
            let warms = [None, Some(cold.warm_start())];
            for class_prior in [None, Some(0.3)] {
                let config = GenerativeConfig { class_prior, ..GenerativeConfig::default() };
                for warm in &warms {
                    for cuts in [vec![], vec![1], vec![1500, 1501, 2900]] {
                        let segs = split_rows(m, &cuts);
                        let refs: Vec<&LabelMatrix> = segs.iter().collect();
                        for threads in [1usize, 2, 4] {
                            let par = ParConfig::threads(threads);
                            let oracle = fit_rowwise(&refs, &config, warm.as_ref(), &par);
                            let fit = GenerativeModel::fit_patterns(
                                &VotePatterns::of_segments(&refs),
                                &config,
                                warm.as_ref(),
                                &par,
                            );
                            let at = format!(
                                "{name}, prior {class_prior:?}, warm {}, cuts {cuts:?}, \
                                 threads {threads}",
                                warm.is_some()
                            );
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(fit.accuracies()), bits(oracle.accuracies()), "{at}");
                            assert_eq!(fit.class_prior().to_bits(), oracle.class_prior().to_bits());
                            assert_eq!(fit.iterations(), oracle.iterations(), "{at}");
                            let rows: Vec<f64> = (0..m.n_rows())
                                .map(|r| {
                                    posterior_for_row(
                                        m.row(r),
                                        oracle.accuracies(),
                                        oracle.class_prior(),
                                    )
                                })
                                .collect();
                            assert_eq!(bits(&fit.predict_with(m, &par)), bits(&rows), "{at}");
                            let by_pattern = fit.predict_patterns(&folded);
                            let mut ids = VotePatterns::new(m.n_lfs());
                            let gathered: Vec<f64> = (0..m.n_rows())
                                .map(|r| by_pattern[ids.observe(m.row(r))])
                                .collect();
                            assert_eq!(bits(&gathered), bits(&rows), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// Builds a synthetic label matrix: `n` rows with true labels at the
    /// given positive rate, and LFs with the given accuracies/propensities.
    fn synthetic(
        n: usize,
        pos_rate: f64,
        lf_specs: &[(f64, f64)], // (accuracy, propensity)
        seed: u64,
    ) -> (LabelMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes = Vec::with_capacity(n * lf_specs.len());
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen::<f64>() < pos_rate;
            truth.push(y);
            for &(acc, prop) in lf_specs {
                let v = if rng.gen::<f64>() >= prop {
                    0
                } else {
                    let correct = rng.gen::<f64>() < acc;
                    match (y, correct) {
                        (true, true) | (false, false) => 1,
                        _ => -1,
                    }
                };
                votes.push(v);
            }
        }
        let names = (0..lf_specs.len()).map(|i| format!("lf{i}")).collect();
        (LabelMatrix::from_votes(n, lf_specs.len(), votes, names), truth)
    }

    #[test]
    fn em_recovers_accuracy_ordering() {
        let (m, _) = synthetic(5000, 0.3, &[(0.95, 0.8), (0.7, 0.8), (0.6, 0.8)], 1);
        let model =
            GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &ParConfig::from_env());
        let acc = model.accuracies();
        assert!(acc[0] > acc[1], "acc {acc:?}");
        assert!(acc[1] > acc[2], "acc {acc:?}");
        assert!((acc[0] - 0.95).abs() < 0.08, "acc0 {}", acc[0]);
    }

    #[test]
    fn posterior_beats_majority_vote_with_unequal_lfs() {
        let par = ParConfig::from_env();
        let (m, truth) = synthetic(8000, 0.4, &[(0.95, 0.9), (0.56, 0.9), (0.56, 0.9)], 2);
        let model = GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &par);
        let probs = model.predict_with(&m, &par);
        let mv = majority_vote(&m);
        let err = |pred: &[f64]| -> f64 {
            pred.iter()
                .zip(&truth)
                .filter(|(p, _)| **p != 0.5)
                .map(|(p, &t)| if (*p >= 0.5) == t { 0.0 } else { 1.0 })
                .sum::<f64>()
        };
        assert!(
            err(&probs) < err(&mv),
            "generative err {} !< majority err {}",
            err(&probs),
            err(&mv)
        );
    }

    #[test]
    fn prior_estimation_tracks_true_rate() {
        let (m, truth) = synthetic(10_000, 0.15, &[(0.9, 0.9), (0.85, 0.9)], 3);
        let model =
            GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &ParConfig::from_env());
        let true_rate = truth.iter().filter(|&&t| t).count() as f64 / truth.len() as f64;
        assert!(
            (model.class_prior() - true_rate).abs() < 0.05,
            "prior {} vs true {}",
            model.class_prior(),
            true_rate
        );
    }

    #[test]
    fn fixed_prior_is_respected() {
        let (m, _) = synthetic(1000, 0.3, &[(0.9, 0.9)], 4);
        let cfg = GenerativeConfig { class_prior: Some(0.2), ..Default::default() };
        let model = GenerativeModel::fit_with(&m, &cfg, &ParConfig::from_env());
        assert_eq!(model.class_prior(), 0.2);
    }

    #[test]
    fn all_abstain_rows_get_prior() {
        let par = ParConfig::from_env();
        let m = LabelMatrix::from_votes(2, 1, vec![0, 1], vec!["a".into()]);
        let cfg = GenerativeConfig { class_prior: Some(0.25), ..Default::default() };
        let model = GenerativeModel::fit_with(&m, &cfg, &par);
        let probs = model.predict_with(&m, &par);
        assert_eq!(probs[0], 0.25);
        // A single positive vote lifts the posterior above the prior (the
        // degenerate 2-row matrix can't push it past 0.5).
        assert!(probs[1] > probs[0]);
    }

    #[test]
    fn majority_vote_ties_and_empty() {
        let m =
            LabelMatrix::from_votes(3, 2, vec![1, -1, 1, 0, 0, 0], vec!["a".into(), "b".into()]);
        let mv = majority_vote(&m);
        assert_eq!(mv, vec![0.5, 1.0, 0.5]);
        assert_eq!(majority_vote_patterns(&VotePatterns::of_segments(&[&m])), mv);
    }

    #[test]
    fn fit_is_deterministic() {
        let par = ParConfig::from_env();
        let (m, _) = synthetic(2000, 0.3, &[(0.9, 0.8), (0.7, 0.8)], 5);
        let a = GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &par);
        let b = GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &par);
        assert_eq!(a.accuracies(), b.accuracies());
        assert_eq!(a.predict_with(&m, &par), b.predict_with(&m, &par));
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        // 20k rows x 3 LFs = 60k cells, above the parallel threshold.
        let (m, _) = synthetic(20_000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 11);
        let cfg = GenerativeConfig::default();
        let base = GenerativeModel::fit_with(&m, &cfg, &ParConfig::threads(1));
        let base_probs = base.predict_with(&m, &ParConfig::threads(1));
        for threads in [2usize, 4, 8] {
            let par = ParConfig::threads(threads);
            let model = GenerativeModel::fit_with(&m, &cfg, &par);
            assert_eq!(model.accuracies(), base.accuracies(), "threads = {threads}");
            assert_eq!(
                model.class_prior().to_bits(),
                base.class_prior().to_bits(),
                "threads = {threads}"
            );
            assert_eq!(model.iterations(), base.iterations(), "threads = {threads}");
            let probs = model.predict_with(&m, &par);
            assert_eq!(probs, base_probs, "threads = {threads}");
        }
    }

    /// The out-of-core contract: fitting segment-by-segment must reproduce
    /// the whole-matrix fit bit for bit, for any cut pattern and any
    /// thread count.
    #[test]
    fn fit_segments_matches_whole_fit_bitwise() {
        let (m, _) = synthetic(20_000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 11);
        let cfg = GenerativeConfig::default();
        let whole = GenerativeModel::fit_with(&m, &cfg, &ParConfig::threads(2));
        for cuts in [vec![1usize], vec![8192], vec![4999, 10_000, 15_000], vec![m.n_rows()]] {
            let segs = split_rows(&m, &cuts);
            for threads in [1usize, 2, 4] {
                let refs: Vec<&LabelMatrix> = segs.iter().collect();
                let model = GenerativeModel::fit_patterns(
                    &VotePatterns::of_segments(&refs),
                    &cfg,
                    None,
                    &ParConfig::threads(threads),
                );
                assert_eq!(
                    model.accuracies(),
                    whole.accuracies(),
                    "cuts = {cuts:?}, threads = {threads}"
                );
                assert_eq!(model.class_prior().to_bits(), whole.class_prior().to_bits());
                assert_eq!(model.iterations(), whole.iterations());
            }
        }
    }

    #[test]
    fn em_moments_merge_is_order_free() {
        let (m, _) = synthetic(300, 0.3, &[(0.9, 0.8), (0.7, 0.6)], 13);
        let part = |start: usize, end: usize| {
            let mut p = EmMoments::new(m.n_lfs());
            for r in start..end {
                // Any deterministic (fresh, previous) pair exercises all
                // accumulator fields.
                let q = 0.25 + 0.5 * (r % 7) as f64 / 7.0;
                observe_row(&mut p, m.row(r), q, 0.5);
            }
            p
        };
        let (a, b, c) = (part(0, 100), part(100, 170), part(170, 300));
        let mut fwd = EmMoments::new(m.n_lfs());
        fwd.merge(&a);
        fwd.merge(&b);
        fwd.merge(&c);
        let mut rev = EmMoments::new(m.n_lfs());
        rev.merge(&c);
        rev.merge(&a);
        rev.merge(&b);
        assert_eq!(fwd.n_rows(), 300);
        assert_eq!(fwd.n_rows(), rev.n_rows());
        for j in 0..m.n_lfs() {
            assert_eq!(fwd.accuracy(j).map(f64::to_bits), rev.accuracy(j).map(f64::to_bits));
        }
        assert_eq!(fwd.mean_posterior().map(f64::to_bits), rev.mean_posterior().map(f64::to_bits));
        assert_eq!(fwd.mean_delta().map(f64::to_bits), rev.mean_delta().map(f64::to_bits));
    }

    #[test]
    fn observe_pattern_equals_its_rows_one_by_one() {
        let votes = [1i8, 0, -1, 1];
        let cells = [(0u32, 1i8), (2, -1), (3, 1)];
        for count in [0u64, 1, 7, 300] {
            let (fresh, previous) = (0.3 + 1e-9 * count as f64, 0.71);
            let mut rows = EmMoments::new(4);
            for _ in 0..count {
                observe_row(&mut rows, &votes, fresh, previous);
            }
            let mut folded = EmMoments::new(4);
            folded.observe_pattern(&cells, count, fresh, previous);
            assert_eq!(folded.n_rows(), rows.n_rows());
            for j in 0..4 {
                assert_eq!(
                    folded.accuracy(j).map(f64::to_bits),
                    rows.accuracy(j).map(f64::to_bits)
                );
            }
            assert_eq!(
                folded.mean_posterior().map(f64::to_bits),
                rows.mean_posterior().map(f64::to_bits)
            );
            assert_eq!(folded.mean_delta().map(f64::to_bits), rows.mean_delta().map(f64::to_bits));
        }
    }

    #[test]
    #[should_panic(expected = "zero LFs")]
    fn fit_rejects_empty_lf_set() {
        let m = LabelMatrix::from_votes(1, 0, vec![], vec![]);
        GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &ParConfig::from_env());
    }

    #[test]
    #[should_panic(expected = "LF count mismatch")]
    fn predict_rejects_mismatched_matrix() {
        let par = ParConfig::from_env();
        let (m, _) = synthetic(100, 0.3, &[(0.9, 0.9)], 6);
        let model = GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &par);
        let (m2, _) = synthetic(100, 0.3, &[(0.9, 0.9), (0.8, 0.9)], 7);
        model.predict_with(&m2, &par);
    }

    /// A warm start built from the cold-start constants must reproduce the
    /// cold fit bit for bit — the warm path is the cold path with
    /// different initial numbers, not a different algorithm.
    #[test]
    fn warm_start_at_cold_init_matches_cold_fit_bitwise() {
        let (m, _) = synthetic(5000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 17);
        let cfg = GenerativeConfig::default();
        let (lo, hi) = cfg.accuracy_bounds;
        let warm = WarmStart {
            accuracies: vec![cfg.init_accuracy.clamp(lo, hi); m.n_lfs()],
            class_prior: 0.5,
        };
        for threads in [1usize, 4] {
            let par = ParConfig::threads(threads);
            let cold = GenerativeModel::fit_with(&m, &cfg, &par);
            let warmed = GenerativeModel::fit_patterns(
                &VotePatterns::of_segments(&[&m]),
                &cfg,
                Some(&warm),
                &par,
            );
            assert_eq!(cold.accuracies(), warmed.accuracies(), "threads = {threads}");
            assert_eq!(cold.class_prior().to_bits(), warmed.class_prior().to_bits());
            assert_eq!(cold.iterations(), warmed.iterations());
        }
    }

    /// Refitting from a converged model's own parameters converges almost
    /// immediately and lands near where it started: the mini-batch refit
    /// contract the serving loop relies on.
    #[test]
    fn warm_started_refit_converges_faster_and_stays_close() {
        let (m, _) = synthetic(20_000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 11);
        let cfg = GenerativeConfig::default();
        let par = ParConfig::threads(2);
        let cold = GenerativeModel::fit_with(&m, &cfg, &par);
        let warm = cold.warm_start();
        let refit = GenerativeModel::fit_patterns(
            &VotePatterns::of_segments(&[&m]),
            &cfg,
            Some(&warm),
            &par,
        );
        assert!(
            refit.iterations() < cold.iterations(),
            "warm refit took {} iterations, cold fit {}",
            refit.iterations(),
            cold.iterations()
        );
        for (a, b) in cold.accuracies().iter().zip(refit.accuracies()) {
            assert!((a - b).abs() < 1e-3, "accuracy drifted: {a} vs {b}");
        }
        assert!((cold.class_prior() - refit.class_prior()).abs() < 1e-3);
    }

    /// A model rebuilt from its exported parameters predicts identically —
    /// the checkpoint restore contract.
    #[test]
    fn from_params_round_trips_predictions() {
        let par = ParConfig::from_env();
        let (m, _) = synthetic(3000, 0.2, &[(0.9, 0.7), (0.8, 0.5), (0.6, 0.3)], 8);
        let model = GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &par);
        let rebuilt = GenerativeModel::from_params(
            model.accuracies().to_vec(),
            model.class_prior(),
            model.iterations(),
        );
        assert_eq!(model.predict_with(&m, &par), rebuilt.predict_with(&m, &par));
        assert_eq!(model.warm_start(), rebuilt.warm_start());
    }

    #[test]
    #[should_panic(expected = "warm start LF count mismatch")]
    fn warm_start_rejects_wrong_lf_count() {
        let (m, _) = synthetic(100, 0.3, &[(0.9, 0.9), (0.8, 0.8)], 6);
        let warm = WarmStart { accuracies: vec![0.7], class_prior: 0.5 };
        GenerativeModel::fit_patterns(
            &VotePatterns::of_segments(&[&m]),
            &GenerativeConfig::default(),
            Some(&warm),
            &ParConfig::serial(),
        );
    }

    #[test]
    fn posteriors_are_probabilities() {
        let par = ParConfig::from_env();
        let (m, _) = synthetic(3000, 0.2, &[(0.9, 0.7), (0.8, 0.5), (0.6, 0.3)], 8);
        let model = GenerativeModel::fit_with(&m, &GenerativeConfig::default(), &par);
        for p in model.predict_with(&m, &par) {
            assert!((0.0..=1.0).contains(&p), "posterior {p} out of range");
            assert!(!p.is_nan());
        }
    }
}
