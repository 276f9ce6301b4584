//! The label matrix: LF votes over a dataset, plus aggregate vote
//! statistics (coverage, overlap, conflict — Snorkel's standard
//! diagnostics).

use cm_featurespace::{FeatureTable, FrozenTable};
use cm_par::ParConfig;

use crate::lf::{LabelingFunction, Vote};

/// `n_rows * n_lfs` work above which LF application and vote statistics
/// fan out across `cm-par`. The paper applies LFs with MapReduce for the
/// same reason (§6.3). Depends only on the matrix shape, so the code path
/// never varies with the thread count.
const PAR_THRESHOLD: usize = 50_000;

/// Minimum rows per parallel chunk; fixed per call site so chunked folds
/// group identically at every thread count.
const MIN_ROWS_PER_CHUNK: usize = 512;

/// Aggregate vote statistics over a [`LabelMatrix`], computed in one pass.
///
/// Counts are folded across row chunks **in chunk index order** (the
/// `cm-par` determinism contract), so every field is bit-identical between
/// serial and parallel runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VoteStats {
    /// Fraction of rows where at least one LF does not abstain.
    pub coverage: f64,
    /// Fraction of rows labeled by two or more LFs.
    pub overlap: f64,
    /// Fraction of rows with at least one positive and one negative vote.
    pub conflict: f64,
}

/// Integer partials behind [`VoteStats`]: the explicitly mergeable
/// sufficient statistic for coverage/overlap/conflict.
///
/// Summing counts is exact, which is what makes the derived ratios
/// reduction-order-proof — within a matrix (chunk partials folded in
/// chunk index order) and across matrix *segments* (per-segment counts
/// merged in segment order by the sharded curation layer). Merging is
/// associative and commutative, so any partition of the rows yields the
/// same [`VoteStats`] bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteCounts {
    /// Rows where at least one LF does not abstain.
    pub covered: usize,
    /// Rows labeled by two or more LFs.
    pub overlapped: usize,
    /// Rows with at least one positive and one negative vote.
    pub conflicted: usize,
    /// Rows counted (the ratio denominator).
    pub n_rows: usize,
}

impl VoteCounts {
    /// Exact integer merge of two partial counts.
    #[must_use]
    pub fn merge(self, other: VoteCounts) -> VoteCounts {
        VoteCounts {
            covered: self.covered + other.covered,
            overlapped: self.overlapped + other.overlapped,
            conflicted: self.conflicted + other.conflicted,
            n_rows: self.n_rows + other.n_rows,
        }
    }
}

impl VoteStats {
    /// The ratios a merged count renders to: each statistic is one
    /// integer-over-integer division, so counts merged from any
    /// segmentation produce identical stats. Zero rows yields the
    /// all-zero default.
    pub fn from_counts(counts: VoteCounts) -> VoteStats {
        if counts.n_rows == 0 {
            return VoteStats::default();
        }
        let n = counts.n_rows as f64;
        VoteStats {
            coverage: counts.covered as f64 / n,
            overlap: counts.overlapped as f64 / n,
            conflict: counts.conflicted as f64 / n,
        }
    }
}

/// Dense `n_rows x n_lfs` matrix of vote encodings (`+1/-1/0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMatrix {
    n_rows: usize,
    n_lfs: usize,
    votes: Vec<i8>,
    names: Vec<String>,
}

impl LabelMatrix {
    /// Applies every LF to every row of `table`.
    ///
    /// LF application parallelizes across row chunks through the `cm-par`
    /// substrate when the workload is large enough to pay for it; votes
    /// are pure per-row writes, so the matrix is bit-identical at every
    /// thread count.
    ///
    /// # Panics
    /// Re-raises a worker panic (an LF panicking on a row behaves exactly
    /// as it would serially).
    pub fn apply_with(
        table: &FeatureTable,
        lfs: &[Box<dyn LabelingFunction>],
        par: &ParConfig,
    ) -> Self {
        let n_rows = table.len();
        let n_lfs = lfs.len();
        let names = lfs.iter().map(|lf| lf.name().to_owned()).collect();
        let mut votes = vec![0i8; n_rows * n_lfs];
        apply_into(table, lfs, &mut votes, par);
        Self { n_rows, n_lfs, votes, names }
    }

    /// Applies every LF to `table`, appending the votes in place — the
    /// zero-copy segment path of the curation engine. Bit-identical to
    /// [`LabelMatrix::apply_with`] on `table`, without the intermediate
    /// segment matrix: same freeze, same parallel threshold, same chunking
    /// over the same rows, writing straight into this matrix's buffer.
    ///
    /// # Panics
    /// Panics unless `lfs` matches this matrix's columns; re-raises a
    /// worker panic like [`LabelMatrix::apply_with`].
    pub fn apply_append_with(
        &mut self,
        table: &FeatureTable,
        lfs: &[Box<dyn LabelingFunction>],
        par: &ParConfig,
    ) {
        let names = lfs.iter().map(|lf| lf.name());
        assert!(names.eq(self.names.iter().map(String::as_str)), "segment LF column mismatch");
        let base = self.votes.len();
        self.votes.resize(base + table.len() * self.n_lfs, 0);
        apply_into(table, lfs, &mut self.votes[base..], par);
        self.n_rows += table.len();
    }

    /// Builds a matrix from raw encodings (row-major).
    ///
    /// # Panics
    /// Panics if the data length or any encoding is invalid.
    pub fn from_votes(n_rows: usize, n_lfs: usize, votes: Vec<i8>, names: Vec<String>) -> Self {
        assert_eq!(votes.len(), n_rows * n_lfs, "vote matrix shape mismatch");
        assert_eq!(names.len(), n_lfs, "LF name count mismatch");
        assert!(votes.iter().all(|v| (-1..=1).contains(v)), "votes must be in {{-1, 0, 1}}");
        Self { n_rows, n_lfs, votes, names }
    }

    /// Number of data points.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of labeling functions.
    pub fn n_lfs(&self) -> usize {
        self.n_lfs
    }

    /// LF names in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The vote of LF `lf` on row `row`.
    #[inline]
    pub fn vote(&self, row: usize, lf: usize) -> Vote {
        Vote::from_i8(self.votes[row * self.n_lfs + lf])
    }

    /// Raw encoded votes of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[i8] {
        &self.votes[row * self.n_lfs..(row + 1) * self.n_lfs]
    }

    /// Non-abstain votes over the whole matrix.
    pub fn n_votes_cast(&self) -> usize {
        self.votes.iter().map(|&v| usize::from(v != 0)).sum()
    }

    /// Coverage, overlap, and conflict in one parallel pass. Chunk counts
    /// are integers folded in chunk index order, so the resulting ratios
    /// are bit-identical at every thread count — the regression test below
    /// pins them.
    ///
    /// # Panics
    /// Re-raises a worker panic.
    pub fn vote_stats_with(&self, par: &ParConfig) -> VoteStats {
        VoteStats::from_counts(self.vote_counts_with(par))
    }

    /// The mergeable [`VoteCounts`] sufficient statistic for this matrix.
    /// Integer counts, so the result is exact and merging per-segment
    /// counts reproduces the whole-matrix counts for any row partition.
    ///
    /// # Panics
    /// Re-raises a worker panic.
    pub fn vote_counts_with(&self, par: &ParConfig) -> VoteCounts {
        if self.n_rows == 0 {
            return VoteCounts::default();
        }
        let count_rows = |range: std::ops::Range<usize>| {
            let mut c = VoteCounts { n_rows: range.len(), ..VoteCounts::default() };
            for r in range {
                let row = self.row(r);
                let labeled = row.iter().filter(|&&v| v != 0).count();
                c.covered += usize::from(labeled >= 1);
                c.overlapped += usize::from(labeled >= 2);
                c.conflicted +=
                    usize::from(row.iter().any(|&v| v > 0) && row.iter().any(|&v| v < 0));
            }
            c
        };
        let work = self.n_rows.saturating_mul(self.n_lfs.max(1));
        if work < PAR_THRESHOLD {
            count_rows(0..self.n_rows)
        } else {
            let par = par.clone().with_min_chunk(MIN_ROWS_PER_CHUNK);
            match cm_par::par_map_reduce(&par, self.n_rows, count_rows, VoteCounts::merge) {
                Ok(c) => c.unwrap_or_default(),
                Err(e) => e.resume(),
            }
        }
    }

    /// Per-LF coverage: fraction of rows the LF labels.
    pub fn lf_coverage(&self, lf: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let n = (0..self.n_rows).filter(|&r| self.row(r)[lf] != 0).count();
        n as f64 / self.n_rows as f64
    }

    /// Rows labeled by at least one LF (the trainable subset).
    pub fn covered_rows(&self) -> Vec<usize> {
        (0..self.n_rows).filter(|&r| self.row(r).iter().any(|&v| v != 0)).collect()
    }

    /// A copy of the matrix with the `drop` columns removed (indices into
    /// the current column order; duplicates and out-of-range indices are
    /// ignored). Used to excise degraded LFs before the label model fits,
    /// since an all-abstain column still shifts generative posteriors.
    pub fn without_columns(&self, drop: &[usize]) -> LabelMatrix {
        // The kept count is known up front, so the vote buffer allocates
        // its exact final capacity.
        let keep = kept_columns(self.n_lfs, drop);
        let mut votes = Vec::with_capacity(self.n_rows * keep.len());
        for r in 0..self.n_rows {
            let row = self.row(r);
            votes.extend(keep.iter().map(|&i| row[i]));
        }
        LabelMatrix {
            n_rows: self.n_rows,
            n_lfs: keep.len(),
            votes,
            names: keep.iter().map(|&i| self.names[i].clone()).collect(),
        }
    }

    /// An empty matrix over `names` with buffer space for `n_rows` rows
    /// reserved up front — the destination for segment appends
    /// ([`LabelMatrix::apply_append_with`]), which then fill one
    /// allocation in place instead of gathering per-segment matrices and
    /// copying them all again at the end.
    pub fn with_row_capacity(n_rows: usize, names: Vec<String>) -> LabelMatrix {
        let n_lfs = names.len();
        LabelMatrix { n_rows: 0, n_lfs, votes: Vec::with_capacity(n_rows * n_lfs), names }
    }

    /// Removes every row, keeping the columns and the vote buffer's
    /// capacity: a segment buffer reused across appends.
    pub fn clear(&mut self) {
        self.votes.clear();
        self.n_rows = 0;
    }

    /// Approximate resident size in bytes (vote buffer dominates); used by
    /// the sharded driver's memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.votes.len() * std::mem::size_of::<i8>()
            + self.names.iter().map(|n| n.len() + std::mem::size_of::<String>()).sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

/// The columns of `0..n_lfs` not in `drop` (duplicates and out-of-range
/// indices ignored), in order. A boolean mask makes this O(n_lfs +
/// |drop|) instead of O(n_lfs * |drop|).
pub(crate) fn kept_columns(n_lfs: usize, drop: &[usize]) -> Vec<usize> {
    let mut dropped = vec![false; n_lfs];
    for &i in drop {
        if i < n_lfs {
            dropped[i] = true;
        }
    }
    (0..n_lfs).filter(|&i| !dropped[i]).collect()
}

/// The one vote-fill path every application goes through: `votes` holds
/// exactly `table.len()` rows of `lfs.len()` votes (a fresh buffer or the
/// tail of a preallocated one — the chunking sees only the slice, so the
/// bits cannot differ between callers).
fn apply_into(
    table: &FeatureTable,
    lfs: &[Box<dyn LabelingFunction>],
    votes: &mut [i8],
    par: &ParConfig,
) {
    let n_rows = table.len();
    let width = lfs.len();
    if width == 0 {
        return;
    }
    // Freeze once per matrix: every LF then reads contiguous columns
    // instead of dispatching through the schema per row.
    let frozen = FrozenTable::freeze(table);
    let work = n_rows.saturating_mul(lfs.len());
    if work < PAR_THRESHOLD || n_rows < 2 {
        fill_votes(&frozen, lfs, votes, 0);
    } else {
        let par = par.clone().with_min_chunk(MIN_ROWS_PER_CHUNK);
        if let Err(e) = cm_par::par_chunks_mut(&par, votes, width, |start, chunk| {
            fill_votes(&frozen, lfs, chunk, start);
        }) {
            e.resume();
        }
    }
}

/// Fills whole rows of the vote buffer whose first row is `start` (the
/// shape `cm_par::par_chunks_mut` hands out; the serial path passes the
/// whole buffer at row 0).
fn fill_votes(
    frozen: &FrozenTable<'_>,
    lfs: &[Box<dyn LabelingFunction>],
    chunk: &mut [i8],
    start: usize,
) {
    for (i, rec) in chunk.chunks_exact_mut(lfs.len()).enumerate() {
        for (j, lf) in lfs.iter().enumerate() {
            rec[j] = lf.vote_frozen(frozen, start + i).as_i8();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, ServingMode,
        Vocabulary,
    };

    use super::*;
    use crate::lf::CategoricalContainsLf;

    fn table(n: usize) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::A,
            ServingMode::Servable,
            Vocabulary::from_names(["x", "y"]),
        )]));
        let mut t = FeatureTable::new(schema);
        for i in 0..n {
            t.push_row(&[FeatureValue::Categorical(CatSet::single((i % 2) as u32))]);
        }
        t
    }

    fn lfs() -> Vec<Box<dyn LabelingFunction>> {
        vec![
            Box::new(CategoricalContainsLf::new(0, vec![0], false, Vote::Positive)),
            Box::new(CategoricalContainsLf::new(0, vec![1], false, Vote::Negative)),
        ]
    }

    #[test]
    fn apply_collects_votes() {
        let t = table(4);
        let m = LabelMatrix::apply_with(&t, &lfs(), &ParConfig::from_env());
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_lfs(), 2);
        assert_eq!(m.vote(0, 0), Vote::Positive);
        assert_eq!(m.vote(0, 1), Vote::Abstain);
        assert_eq!(m.vote(1, 0), Vote::Abstain);
        assert_eq!(m.vote(1, 1), Vote::Negative);
    }

    #[test]
    fn coverage_overlap_conflict() {
        // LF0 labels even rows +, LF1 labels odd rows -: full coverage,
        // no overlap, no conflict.
        let par = ParConfig::from_env();
        let m = LabelMatrix::apply_with(&table(10), &lfs(), &par);
        let stats = m.vote_stats_with(&par);
        assert_eq!(stats.coverage, 1.0);
        assert_eq!(stats.overlap, 0.0);
        assert_eq!(stats.conflict, 0.0);
        assert_eq!(m.lf_coverage(0), 0.5);
    }

    #[test]
    fn conflict_detected() {
        let m = LabelMatrix::from_votes(2, 2, vec![1, -1, 0, 0], vec!["a".into(), "b".into()]);
        let stats = m.vote_stats_with(&ParConfig::from_env());
        assert_eq!(stats.conflict, 0.5);
        assert_eq!(stats.overlap, 0.5);
        assert_eq!(stats.coverage, 0.5);
        assert_eq!(m.covered_rows(), vec![0]);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // 30k rows x 2 LFs crosses the parallel threshold.
        let t = table(30_000);
        let serial = {
            let mut votes = vec![0i8; 30_000 * 2];
            fill_votes(&FrozenTable::freeze(&t), &lfs(), &mut votes, 0);
            LabelMatrix::from_votes(30_000, 2, votes, vec!["a".into(), "b".into()])
        };
        for threads in [1usize, 2, 4, 8] {
            let m_par = LabelMatrix::apply_with(&t, &lfs(), &ParConfig::threads(threads));
            assert_eq!(m_par.votes, serial.votes, "threads = {threads}");
        }
    }

    /// Regression test for the float-reduction-order hazard in the old
    /// scoped-thread statistics path: chunk partials must be folded in
    /// chunk index order, and the summed statistic is pinned exactly.
    ///
    /// Vote pattern over 40 000 rows (80k work, above the parallel
    /// threshold), by `row % 8`: 0 => both abstain; 1,2 => one positive
    /// vote; 3,4 => one negative vote; 5,6 => two agreeing votes;
    /// 7 => conflicting votes. Exact statistics: coverage 7/8,
    /// overlap 3/8, conflict 1/8.
    #[test]
    fn vote_stats_are_pinned_and_thread_count_invariant() {
        let n = 40_000usize;
        let mut votes = Vec::with_capacity(n * 2);
        for r in 0..n {
            let pair: [i8; 2] = match r % 8 {
                0 => [0, 0],
                1 | 2 => [1, 0],
                3 | 4 => [0, -1],
                5 | 6 => [1, 1],
                _ => [1, -1],
            };
            votes.extend_from_slice(&pair);
        }
        let m = LabelMatrix::from_votes(n, 2, votes, vec!["a".into(), "b".into()]);
        let serial = m.vote_stats_with(&ParConfig::serial());
        assert_eq!(serial.coverage, 0.875);
        assert_eq!(serial.overlap, 0.375);
        assert_eq!(serial.conflict, 0.125);
        let summed = serial.coverage + serial.overlap + serial.conflict;
        assert_eq!(summed.to_bits(), 1.375f64.to_bits());
        for threads in [2usize, 4, 8] {
            let par = m.vote_stats_with(&ParConfig::threads(threads));
            assert_eq!(par, serial, "threads = {threads}");
            let par_summed = par.coverage + par.overlap + par.conflict;
            assert_eq!(par_summed.to_bits(), summed.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_votes_checks_shape() {
        LabelMatrix::from_votes(2, 2, vec![0; 3], vec!["a".into(), "b".into()]);
    }

    #[test]
    #[should_panic(expected = "votes must be in")]
    fn from_votes_checks_encoding() {
        LabelMatrix::from_votes(1, 1, vec![5], vec!["a".into()]);
    }

    #[test]
    fn without_columns_keeps_the_rest_in_order() {
        let m = LabelMatrix::from_votes(
            3,
            3,
            vec![1, 0, -1, 0, 0, 1, 1, 0, 0],
            vec!["a".into(), "b".into(), "c".into()],
        );
        let reduced = m.without_columns(&[1]);
        assert_eq!(reduced.n_lfs(), 2);
        assert_eq!(reduced.names(), &["a".to_owned(), "c".to_owned()]);
        assert_eq!(reduced.row(0), &[1, -1]);
        assert_eq!(reduced.row(1), &[0, 1]);
        assert_eq!(reduced.row(2), &[1, 0]);
        // Out-of-range and duplicate drops are ignored.
        let same = m.without_columns(&[7, 7]);
        assert_eq!(same.row(0), m.row(0));
        assert_eq!(same.n_lfs(), 3);
    }

    /// Any partition of the rows into segments must merge to the same
    /// counts (and therefore the same stats bits) as the whole matrix —
    /// the associative-merge contract `cm-shard` relies on.
    #[test]
    fn vote_counts_merge_over_any_partition_matches_whole() {
        let n = 40_000usize;
        let mut votes = Vec::with_capacity(n * 2);
        for r in 0..n {
            let pair: [i8; 2] = match r % 8 {
                0 => [0, 0],
                1 | 2 => [1, 0],
                3 | 4 => [0, -1],
                5 | 6 => [1, 1],
                _ => [1, -1],
            };
            votes.extend_from_slice(&pair);
        }
        let m = LabelMatrix::from_votes(n, 2, votes, vec!["a".into(), "b".into()]);
        let whole = m.vote_counts_with(&ParConfig::serial());
        assert_eq!(whole.n_rows, n);
        for cuts in [vec![1, 2, 3], vec![512], vec![9973, 20_000], vec![n]] {
            let mut merged = VoteCounts::default();
            let mut start = 0;
            for end in cuts.iter().copied().chain([n]) {
                let seg_votes = m.votes[start * 2..end * 2].to_vec();
                let seg = LabelMatrix::from_votes(end - start, 2, seg_votes, m.names.clone());
                merged = merged.merge(seg.vote_counts_with(&ParConfig::serial()));
                start = end;
            }
            assert_eq!(merged, whole, "cuts = {cuts:?}");
            assert_eq!(VoteStats::from_counts(merged), m.vote_stats_with(&ParConfig::serial()));
        }
    }

    /// Votes are pure per-row values, so appending segment by segment into
    /// one preallocated buffer equals applying to the whole table, on the
    /// serial path (100 rows) and across the parallel threshold (30k rows).
    #[test]
    fn segment_appends_match_whole_apply() {
        for (n, cuts) in [(100usize, [1usize, 37]), (30_000, [1, 9973])] {
            let t = table(n);
            let par = ParConfig::threads(4);
            let whole = LabelMatrix::apply_with(&t, &lfs(), &par);
            let mut appended =
                LabelMatrix::with_row_capacity(whole.n_rows(), whole.names().to_vec());
            for (start, end) in [(0, cuts[0]), (cuts[0], cuts[1]), (cuts[1], n)] {
                let seg = t.gather(&(start..end).collect::<Vec<_>>());
                appended.apply_append_with(&seg, &lfs(), &par);
            }
            assert_eq!(appended, whole, "n = {n}");
        }
    }

    #[test]
    fn empty_matrix_statistics() {
        let m = LabelMatrix::from_votes(0, 1, vec![], vec!["a".into()]);
        assert_eq!(m.vote_stats_with(&ParConfig::from_env()), VoteStats::default());
    }
}
