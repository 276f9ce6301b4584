//! [`VotePatterns`]: a label matrix folded into its distinct vote vectors
//! and their row counts.
//!
//! Under the conditionally-independent generative model a row's
//! posterior depends only on its vote vector, so the EM fit and every
//! posterior need one evaluation per *pattern*, weighted by how many rows
//! share it. Pool rows repeat patterns heavily (a few LFs, mostly
//! abstaining), so the folded form is far smaller than the matrix.

use std::collections::HashMap;

use crate::matrix::LabelMatrix;

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
        assert_eq!(votes.len(), self.n_lfs, "LF count mismatch");
        let id = match self.index.get(votes) {
            Some(&id) => id as usize,
            None => {
                let id = self.counts.len();
                self.index.insert(votes.into(), id as u32);
                self.cells.extend(
                    votes.iter().enumerate().filter(|(_, &v)| v != 0).map(|(j, &v)| (j as u32, v)),
                );
                self.offsets.push(self.cells.len());
                self.counts.push(0);
                id
            }
        };
        self.add_rows(id, 1);
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
