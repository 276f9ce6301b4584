//! Compressed sparse rows: the shared feature layout as the models read it.

use crate::matrix::Matrix;

/// Row-compressed sparse `f32` matrix (CSR) of a fixed width.
///
/// Row `r` stores its entries at `offsets[r]..offsets[r + 1]` of the
/// `indices`/`values` arrays. Within a row, indices are strictly ascending,
/// so walking a row visits its columns in the order a dense row would. A
/// stored entry may hold an explicit zero; an absent one reads as `+0.0`.
///
/// Rows are built in place: [`SparseRows::push`] appends entries to the
/// open row, [`SparseRows::finish_row`] closes it.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    cols: usize,
    /// `rows + 1` row boundaries; the last is where the open row starts.
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseRows {
    /// An empty matrix of width `cols` with room for `rows` rows and `nnz`
    /// stored entries.
    ///
    /// # Panics
    /// Panics if `cols` does not fit a `u32` column index.
    pub fn with_capacity(cols: usize, rows: usize, nnz: usize) -> Self {
        assert!(u32::try_from(cols).is_ok(), "sparse width {cols} exceeds u32 indices");
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self { cols, offsets, indices: Vec::with_capacity(nnz), values: Vec::with_capacity(nnz) }
    }

    /// An empty matrix of width `cols`.
    pub fn new(cols: usize) -> Self {
        Self::with_capacity(cols, 0, 0)
    }

    /// Appends entry `(col, value)` to the open row.
    ///
    /// # Panics
    /// Panics if `col` is out of range or not above the open row's last
    /// stored column.
    #[inline]
    pub fn push(&mut self, col: usize, value: f32) {
        assert!(col < self.cols, "column {col} out of range for width {}", self.cols);
        // The width fits a u32 (checked at construction), so `col` does.
        let col = col as u32;
        if self.indices.len() > self.open_start() {
            let last = self.indices[self.indices.len() - 1];
            assert!(last < col, "column {col} does not ascend past {last} within the row");
        }
        self.indices.push(col);
        self.values.push(value);
    }

    /// Closes the open row (possibly with no stored entries).
    #[inline]
    pub fn finish_row(&mut self) {
        self.offsets.push(self.indices.len());
    }

    #[inline]
    fn open_start(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// The sparse form of a dense matrix: every entry except exact zeros
    /// (of either sign) is stored.
    pub fn from_dense(m: &Matrix) -> Self {
        let nnz = m.as_slice().iter().filter(|&&v| v != 0.0).count();
        let mut out = Self::with_capacity(m.cols(), m.rows(), nnz);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    out.push(c, v);
                }
            }
            out.finish_row();
        }
        out
    }

    /// The dense form: stored entries in place, `+0.0` elsewhere.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            let (idx, val) = self.row(r);
            let dense = out.row_mut(r);
            for (&c, &v) in idx.iter().zip(val) {
                dense[c as usize] = v;
            }
        }
        out
    }

    /// Stacks `parts` row-wise, in order.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the widths differ.
    pub fn concat(parts: &[&SparseRows]) -> Self {
        assert!(!parts.is_empty(), "need at least one part to concatenate");
        let cols = parts[0].cols;
        let rows = parts.iter().map(|p| p.rows()).sum();
        let nnz = parts.iter().map(|p| p.nnz()).sum();
        let mut out = Self::with_capacity(cols, rows, nnz);
        for part in parts {
            assert_eq!(part.cols, cols, "sparse width mismatch in concat");
            let base = out.indices.len();
            out.indices.extend_from_slice(&part.indices[..part.nnz()]);
            out.values.extend_from_slice(&part.values[..part.nnz()]);
            out.offsets.extend(part.offsets[1..].iter().map(|&o| base + o));
        }
        out
    }

    /// Number of finished rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Width.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries over the finished rows.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.open_start()
    }

    /// Row `r`'s stored `(indices, values)`, indices strictly ascending.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let span = self.offsets[r]..self.offsets[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Dot product of row `r` with a dense vector, accumulated in `f64`
    /// over the stored entries in ascending column order.
    ///
    /// This is bit-identical to [`crate::dot`] over the dense row whenever
    /// `w` is finite: an absent entry's product is `±0`, and adding `±0`
    /// to a sum that starts at `+0.0` changes no bit.
    ///
    /// # Panics
    /// Panics if `w.len() != self.cols()`.
    #[inline]
    pub fn row_dot(&self, r: usize, w: &[f32]) -> f32 {
        assert_eq!(w.len(), self.cols, "dot length mismatch");
        let (idx, val) = self.row(r);
        let mut acc = 0.0f64;
        for (&c, &v) in idx.iter().zip(val) {
            acc += f64::from(v) * f64::from(w[c as usize]);
        }
        acc as f32
    }

    /// `y += alpha * row r` over the stored entries; bit-identical to
    /// [`crate::axpy`] over the dense row for finite `alpha` whenever no
    /// element of `y` is `-0.0` (accumulators that start at `+0.0` never
    /// are).
    ///
    /// # Panics
    /// Panics if `y.len() != self.cols()`.
    #[inline]
    pub fn row_axpy(&self, r: usize, alpha: f32, y: &mut [f32]) {
        assert_eq!(y.len(), self.cols, "axpy length mismatch");
        let (idx, val) = self.row(r);
        for (&c, &v) in idx.iter().zip(val) {
            y[c as usize] += alpha * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 1.5, 0.0, -2.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![-0.0, 0.25, 3.0, 0.0],
        ])
    }

    #[test]
    fn from_dense_drops_exact_zeros_and_round_trips() {
        let m = dense();
        let s = SparseRows::from_dense(&m);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (3, 4, 4));
        assert_eq!(s.row(0), (&[1u32, 3][..], &[1.5f32, -2.0][..]));
        assert_eq!(s.row(1), (&[][..], &[][..]));
        assert_eq!(s.row(2), (&[1u32, 2][..], &[0.25f32, 3.0][..]));
        let back = s.to_dense();
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a, b, "values equal up to the sign of zero");
        }
    }

    #[test]
    fn explicit_zeros_survive_to_dense() {
        let mut s = SparseRows::new(3);
        s.push(0, -0.0);
        s.push(2, 0.0);
        s.finish_row();
        assert_eq!(s.nnz(), 2);
        let d = s.to_dense();
        assert_eq!(d.row(0)[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn concat_stacks_rows_in_order() {
        let a = SparseRows::from_dense(&Matrix::from_rows(&[vec![1.0, 0.0]]));
        let b = SparseRows::from_dense(&Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 2.0]]));
        let c = SparseRows::concat(&[&a, &b]);
        assert_eq!(c.rows(), 3);
        assert_eq!(
            c.to_dense(),
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0], vec![0.0, 2.0]])
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn concat_rejects_ragged_parts() {
        SparseRows::concat(&[&SparseRows::new(2), &SparseRows::new(3)]);
    }

    #[test]
    #[should_panic(expected = "does not ascend")]
    fn push_rejects_descending_columns() {
        let mut s = SparseRows::new(4);
        s.push(2, 1.0);
        s.push(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "does not ascend")]
    fn push_rejects_duplicate_columns() {
        let mut s = SparseRows::new(4);
        s.push(2, 1.0);
        s.push(2, 1.0);
    }

    #[test]
    fn a_new_row_may_restart_low() {
        let mut s = SparseRows::new(4);
        s.push(3, 1.0);
        s.finish_row();
        s.push(0, 1.0);
        s.finish_row();
        assert_eq!(s.rows(), 2);
    }

    #[test]
    fn row_kernels_match_dense_kernels_bitwise() {
        let m = dense();
        let s = SparseRows::from_dense(&m);
        let w = [0.3f32, -1.7, 2.9, 1e-3];
        for r in 0..m.rows() {
            assert_eq!(s.row_dot(r, &w).to_bits(), crate::dot(m.row(r), &w).to_bits());
            let mut a = vec![0.0f32, 0.5, -0.25, 1.0];
            let mut b = a.clone();
            s.row_axpy(r, 0.7, &mut a);
            crate::axpy(0.7, m.row(r), &mut b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
        }
    }
}
