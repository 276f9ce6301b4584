//! A minimal row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Row-major dense `f32` matrix.
///
/// Rows are contiguous, so per-example access patterns (the common case in
/// mini-batch training) are cache-friendly. All dimensions are checked with
/// panics; shape errors here are always programming bugs, not data errors.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has length {}, expected {cols}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Iterator over rows.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        self.rows_iter().map(|row| crate::vecops::dot(row, x)).collect()
    }

    /// Transposed matrix-vector product `self^T * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t shape mismatch");
        let mut out = vec![0.0f32; self.cols];
        for (row, &xi) in self.rows_iter().zip(x) {
            if xi == 0.0 {
                continue;
            }
            crate::vecops::axpy(xi, row, &mut out);
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self += s * other` (SAXPY over the whole matrix).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        crate::vecops::l2_norm(&self.data)
    }

    /// Fills the matrix with zeros, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_populates_by_position() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0, 2.0], vec![0.0, 3.0, 1.0]]);
        let x = vec![2.0, 1.0, 0.5];
        assert_eq!(a.matvec(&x), vec![2.0, 3.5]);
    }

    #[test]
    fn matvec_t_is_transpose_matvec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let x = vec![1.0, -1.0];
        let direct = a.matvec_t(&x);
        let via_transpose = a.transpose().matvec(&x);
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_and_scale_compose() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[12.0, 24.0]);
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        m.fill_zero();
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }
}
