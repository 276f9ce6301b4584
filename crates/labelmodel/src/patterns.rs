//! [`VotePatterns`]: a label matrix folded into its distinct vote vectors
//! and their row counts.
//!
//! Under the conditionally-independent generative model a row's
//! posterior depends only on its vote vector, so the EM fit and every
//! posterior need one evaluation per *pattern*, weighted by how many rows
//! share it. The same holds for the anchored model, majority vote and
//! the coverage/conflict counts. Pool rows repeat patterns heavily (a few
//! LFs, mostly abstaining), so the folded form is far smaller than the
//! matrix: 10^6 pool rows of 71 LFs fold into about 33k patterns.

use std::collections::HashMap;

use crate::matrix::{kept_columns, LabelMatrix, VoteCounts};

/// Distinct vote vectors with their multiplicities. Patterns are numbered
/// in first-occurrence order and stored sparsely: the non-abstain
/// `(lf, vote)` cells of each, in LF order.
#[derive(Debug, Clone)]
pub struct VotePatterns {
    n_lfs: usize,
    /// CSR offsets into `cells`, one more than the pattern count.
    offsets: Vec<usize>,
    cells: Vec<(u32, i8)>,
    counts: Vec<u64>,
    /// Dense vote vector → pattern id (lookups only, never iterated).
    index: HashMap<Box<[i8]>, u32>,
}

impl VotePatterns {
    /// No patterns over `n_lfs` labeling functions.
    pub fn new(n_lfs: usize) -> Self {
        Self {
            n_lfs,
            offsets: vec![0],
            cells: Vec::new(),
            counts: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Folds every row of a row-partitioned label matrix, segment by
    /// segment.
    ///
    /// # Panics
    /// Panics if the segments disagree on LF count.
    pub fn of_segments(segments: &[&LabelMatrix]) -> Self {
        let n_lfs = segments.first().map_or(0, |m| m.n_lfs());
        assert!(segments.iter().all(|m| m.n_lfs() == n_lfs), "segments disagree on LF count");
        let mut patterns = Self::new(n_lfs);
        for m in segments {
            for r in 0..m.n_rows() {
                patterns.observe(m.row(r));
            }
        }
        patterns
    }

    /// Counts one row with this dense vote vector and returns its pattern
    /// id, numbering a vector not seen before next.
    ///
    /// # Panics
    /// Panics if the vector's width differs from the LF count.
    pub fn observe(&mut self, votes: &[i8]) -> usize {
        let id = self.intern(votes);
        self.add_rows(id, 1);
        id
    }

    /// The id of this dense vote vector, numbering it next (with no rows
    /// yet) when it has not been seen.
    fn intern(&mut self, votes: &[i8]) -> usize {
        assert_eq!(votes.len(), self.n_lfs, "LF count mismatch");
        if let Some(&id) = self.index.get(votes) {
            return id as usize;
        }
        let id = self.counts.len();
        self.index.insert(votes.into(), id as u32);
        self.cells
            .extend(votes.iter().enumerate().filter(|(_, &v)| v != 0).map(|(j, &v)| (j as u32, v)));
        self.offsets.push(self.cells.len());
        self.counts.push(0);
        id
    }

    /// Counts `rows` more rows of an existing pattern.
    pub fn add_rows(&mut self, pattern: usize, rows: u64) {
        self.counts[pattern] += rows;
    }

    /// Labeling functions per vote vector.
    pub fn n_lfs(&self) -> usize {
        self.n_lfs
    }

    /// Distinct patterns.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no row has been folded in.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Non-abstain cells over all patterns.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Rows sharing pattern `p`.
    pub fn count(&self, p: usize) -> u64 {
        self.counts[p]
    }

    /// The non-abstain `(lf, vote)` cells of pattern `p`, in LF order.
    pub fn cells(&self, p: usize) -> &[(u32, i8)] {
        &self.cells[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Whether at least one LF votes in pattern `p`.
    pub fn covers(&self, p: usize) -> bool {
        self.offsets[p + 1] > self.offsets[p]
    }

    /// Abstaining LFs in pattern `p`.
    pub fn abstains(&self, p: usize) -> usize {
        self.n_lfs - (self.offsets[p + 1] - self.offsets[p])
    }

    /// Writes pattern `p`'s dense vote vector into `out` (cleared first).
    pub fn dense_into(&self, p: usize, out: &mut Vec<i8>) {
        out.clear();
        out.resize(self.n_lfs, 0);
        for &(j, v) in self.cells(p) {
            out[j as usize] = v;
        }
    }

    /// Per LF, the rows on which it votes (does not abstain): exact
    /// integer counts, each pattern weighted by its rows.
    pub fn votes_per_lf(&self) -> Vec<u64> {
        let mut voting = vec![0u64; self.n_lfs];
        for (p, &count) in self.counts.iter().enumerate() {
            for &(j, _) in self.cells(p) {
                voting[j as usize] += count;
            }
        }
        voting
    }

    /// Coverage, overlap and conflict counts over the folded rows: the
    /// same integers [`LabelMatrix::vote_counts`] gives on the matrix.
    pub fn vote_counts(&self) -> VoteCounts {
        let mut c = VoteCounts::default();
        for (p, &count) in self.counts.iter().enumerate() {
            let cells = self.cells(p);
            let rows = count as usize;
            c.n_rows += rows;
            c.covered += rows * usize::from(!cells.is_empty());
            c.overlapped += rows * usize::from(cells.len() >= 2);
            let conflicted = cells.iter().any(|&(_, v)| v > 0) && cells.iter().any(|&(_, v)| v < 0);
            c.conflicted += rows * usize::from(conflicted);
        }
        c
    }

    /// These patterns with the `drop` columns removed (indices into the
    /// current column order; duplicates and out-of-range indices are
    /// ignored), and per pattern here its id there. Patterns that differ
    /// only in dropped columns merge, their row counts summed.
    ///
    /// Walking the patterns in id order numbers the projected ones in
    /// first-occurrence order of their rows too, so the result equals
    /// folding [`LabelMatrix::without_columns`] of the original matrix.
    pub fn without_columns(&self, drop: &[usize]) -> (VotePatterns, Vec<u32>) {
        let keep = kept_columns(self.n_lfs, drop);
        let mut projected = VotePatterns::new(keep.len());
        let mut dense = Vec::with_capacity(self.n_lfs);
        let mut row = Vec::with_capacity(keep.len());
        let remap = (0..self.len())
            .map(|p| {
                self.dense_into(p, &mut dense);
                row.clear();
                row.extend(keep.iter().map(|&i| dense[i]));
                let id = projected.intern(&row);
                projected.add_rows(id, self.counts[p]);
                id as u32
            })
            .collect();
        (projected, remap)
    }

    /// Approximate resident bytes: the stored keys, index entries, cells,
    /// offsets and counts. Capacity slack is not counted, as in the other
    /// `approx_bytes` figures the sharded driver charges.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.cells.len() * std::mem::size_of::<(u32, i8)>()
            + self.counts.len() * std::mem::size_of::<u64>()
            + self.index.len() * (std::mem::size_of::<(Box<[i8]>, u32)>() + self.n_lfs)
    }

    /// The most [`VotePatterns::approx_bytes`] can grow by when `rows`
    /// more rows holding `cells` non-abstain votes between them are
    /// observed: every row a new pattern.
    pub fn growth_bound(&self, rows: usize, cells: usize) -> usize {
        let per_pattern = std::mem::size_of::<usize>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<(Box<[i8]>, u32)>()
            + self.n_lfs;
        rows * per_pattern + cells * std::mem::size_of::<(u32, i8)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[[i8; 3]]) -> LabelMatrix {
        let votes = rows.iter().flatten().copied().collect();
        LabelMatrix::from_votes(rows.len(), 3, votes, vec!["a".into(), "b".into(), "c".into()])
    }

    #[test]
    fn folds_rows_in_first_occurrence_order() {
        let m = matrix(&[[1, 0, 0], [0, 0, 0], [1, 0, 0], [0, -1, 1], [0, 0, 0], [1, 0, 0]]);
        let p = VotePatterns::of_segments(&[&m]);
        assert_eq!(p.len(), 3);
        assert_eq!((p.count(0), p.count(1), p.count(2)), (3, 2, 1));
        assert_eq!(p.cells(0), &[(0, 1)]);
        assert!(p.cells(1).is_empty() && !p.covers(1) && p.abstains(1) == 3);
        assert_eq!(p.cells(2), &[(1, -1), (2, 1)]);
        let mut dense = Vec::new();
        p.dense_into(2, &mut dense);
        assert_eq!(dense, vec![0, -1, 1]);
    }

    /// Asserts two pattern tables are equal: ids, cells and counts.
    fn assert_same(a: &VotePatterns, b: &VotePatterns) {
        assert_eq!((a.n_lfs(), a.len()), (b.n_lfs(), b.len()));
        for p in 0..a.len() {
            assert_eq!((a.cells(p), a.count(p)), (b.cells(p), b.count(p)), "pattern {p}");
        }
    }

    #[test]
    fn projection_merges_like_folding_the_reduced_matrix() {
        let rows = [[1, 0, 1], [1, 0, 0], [0, -1, 1], [1, 0, 1], [0, -1, 0], [0, 0, 1]];
        let m = matrix(&rows);
        let whole = VotePatterns::of_segments(&[&m]);
        for drop in [vec![], vec![2], vec![0, 2], vec![1, 1, 7], vec![0, 1, 2]] {
            let (projected, remap) = whole.without_columns(&drop);
            let reduced = m.without_columns(&drop);
            assert_same(&projected, &VotePatterns::of_segments(&[&reduced]));
            // Every row's pattern maps to its reduced row's pattern.
            let mut dense = Vec::new();
            let mut ids = VotePatterns::new(whole.n_lfs());
            for r in 0..m.n_rows() {
                let p = ids.observe(m.row(r));
                projected.dense_into(remap[p] as usize, &mut dense);
                assert_eq!(dense, reduced.row(r), "drop {drop:?}, row {r}");
            }
        }
        // Dropping column 2 merges [1,0,1] with [1,0,0] and [0,-1,1] with
        // [0,-1,0].
        assert_eq!(whole.without_columns(&[2]).0.len(), 3);
    }

    #[test]
    fn counts_match_the_matrix() {
        let rows = [[1, 0, -1], [1, 0, 0], [0, 0, 0], [1, -1, 1], [1, 0, -1], [0, 1, 1]];
        let m = matrix(&rows);
        let p = VotePatterns::of_segments(&[&m]);
        assert_eq!(p.vote_counts(), m.vote_counts_with(&cm_par::ParConfig::serial()));
        let voting: Vec<u64> =
            (0..3).map(|c| (0..m.n_rows()).filter(|&r| m.row(r)[c] != 0).count() as u64).collect();
        assert_eq!(p.votes_per_lf(), voting);
    }

    #[test]
    fn growth_bound_covers_all_distinct_rows() {
        // Eight LFs, every row a new pattern: the worst case the bound is
        // priced at, exact whatever the rows' abstains.
        let n_lfs = 8;
        let mut p = VotePatterns::new(n_lfs);
        p.observe(&[1; 8]);
        let before = p.approx_bytes();
        let rows = 200;
        let votes: Vec<Vec<i8>> = (0..rows)
            .map(|r| {
                (0..n_lfs)
                    .map(|j| ((r + 1) >> j & 1) as i8 * if j % 3 == 0 { -1 } else { 1 })
                    .collect()
            })
            .collect();
        let cells = votes.iter().flatten().filter(|&&v| v != 0).count();
        assert!(cells < rows * n_lfs);
        let bound = p.growth_bound(rows, cells);
        for v in &votes {
            p.observe(v);
        }
        assert_eq!(p.len(), rows + 1);
        assert_eq!(p.approx_bytes() - before, bound);
        // Repeated rows add no bytes.
        let after = p.approx_bytes();
        p.observe(&[1; 8]);
        assert_eq!(p.approx_bytes(), after);
    }

    #[test]
    fn segments_fold_like_the_whole() {
        let rows = [[1, 0, 0], [0, 0, 0], [1, 0, 0], [0, -1, 1], [0, 0, 0]];
        let whole = VotePatterns::of_segments(&[&matrix(&rows)]);
        let (a, b) = (matrix(&rows[..2]), matrix(&rows[2..]));
        let split = VotePatterns::of_segments(&[&a, &b]);
        assert_eq!(split.len(), whole.len());
        for p in 0..whole.len() {
            assert_eq!(split.cells(p), whole.cells(p));
            assert_eq!(split.count(p), whole.count(p));
        }
    }
}
