//! A minimal row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use cm_par::ParConfig;

/// Multiply-accumulate count above which `matmul` fans out across the
/// `cm-par` substrate. Depends only on shapes, so the serial/parallel
/// choice — and the result, which is bit-identical either way because
/// every output row is computed independently — never varies with the
/// thread count.
const MATMUL_PAR_FLOPS: usize = 1 << 20;

/// Output rows computed together per pass over `other` in the blocked
/// matmul kernel. Four rows re-use each `other` row four times from
/// registers/L1 instead of refetching it per row, which is the entire win:
/// the per-element arithmetic is untouched.
const MATMUL_ROW_BLOCK: usize = 4;

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

    /// Matrix product `self * other`.
    ///
    /// Uses a row-blocked ikj kernel: the inner loop streams over
    /// contiguous memory in both the output rows and the `other` row, and
    /// [`MATMUL_ROW_BLOCK`] output rows share each fetched `other` row.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with(other, &ParConfig::from_env())
    }

    /// [`Matrix::matmul`] with an explicit parallel configuration. Output
    /// rows are independent, so the product is bit-identical at every
    /// thread count.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`, or re-raises a worker
    /// panic.
    pub fn matmul_with(&self, other: &Matrix, par: &ParConfig) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if out.cols == 0 {
            return out;
        }
        let flops = self.rows * self.cols * other.cols;
        if flops >= MATMUL_PAR_FLOPS {
            let unit = out.cols;
            if let Err(e) = cm_par::par_chunks_mut(par, &mut out.data, unit, |start, chunk| {
                matmul_rows(self, start, other, chunk);
            }) {
                e.resume();
            }
        } else {
            matmul_rows(self, 0, other, &mut out.data);
        }
        out
    }

    /// Unblocked serial reference product, retained as the differential-
    /// test oracle for the blocked kernel. Every output element is a
    /// single accumulator updated in ascending-`k` order, skipping zero
    /// `a` entries — exactly the chain the blocked kernel must reproduce.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            matmul_row(self.row(i), other, out.row_mut(i));
        }
        out
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

/// A contiguous run of GEMM output rows starting at row `start`:
/// full blocks of [`MATMUL_ROW_BLOCK`] rows go through the blocked kernel,
/// the remainder through the single-row kernel. Grouping does not touch
/// the per-element arithmetic, so any chunking (serial or parallel)
/// produces bit-identical output.
fn matmul_rows(a: &Matrix, start: usize, other: &Matrix, out_chunk: &mut [f32]) {
    let unit = other.cols;
    for (blk_idx, blk) in out_chunk.chunks_mut(unit * MATMUL_ROW_BLOCK).enumerate() {
        let row0 = start + blk_idx * MATMUL_ROW_BLOCK;
        if blk.len() == unit * MATMUL_ROW_BLOCK {
            let (o0, rest) = blk.split_at_mut(unit);
            let (o1, rest) = rest.split_at_mut(unit);
            let (o2, o3) = rest.split_at_mut(unit);
            matmul_block4(
                [a.row(row0), a.row(row0 + 1), a.row(row0 + 2), a.row(row0 + 3)],
                other,
                o0,
                o1,
                o2,
                o3,
            );
        } else {
            for (i, out_row) in blk.chunks_exact_mut(unit).enumerate() {
                matmul_row(a.row(row0 + i), other, out_row);
            }
        }
    }
}

/// Four GEMM output rows at once: per `k`, the fetched `other` row feeds
/// all four output rows. Each output element still owns a single
/// accumulator updated in ascending-`k` order with the same `a != 0.0`
/// gate as [`matmul_row`] — removing one row's updates from the loop does
/// not change another row's accumulation chain, so every element is
/// bit-identical to the unblocked kernel.
fn matmul_block4(
    a: [&[f32]; MATMUL_ROW_BLOCK],
    other: &Matrix,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    // `k` indexes four row slices and `other`'s rows in lockstep.
    #[allow(clippy::needless_range_loop)]
    for k in 0..a[0].len() {
        let (a0, a1, a2, a3) = (a[0][k], a[1][k], a[2][k], a[3][k]);
        let b_row = other.row(k);
        let n = b_row.len();
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            // Hoisted reslices let the compiler drop bounds checks and
            // vectorize across j (independent accumulators per element).
            let (o0, o1) = (&mut o0[..n], &mut o1[..n]);
            let (o2, o3) = (&mut o2[..n], &mut o3[..n]);
            for j in 0..n {
                let b = b_row[j];
                o0[j] += a0 * b;
                o1[j] += a1 * b;
                o2[j] += a2 * b;
                o3[j] += a3 * b;
            }
        } else {
            // Some rows skip this k (zero gate); update the rest alone.
            for (av, o) in [(a0, &mut *o0), (a1, &mut *o1), (a2, &mut *o2), (a3, &mut *o3)] {
                if av != 0.0 {
                    for (ov, &b) in o.iter_mut().zip(b_row) {
                        *ov += av * b;
                    }
                }
            }
        }
    }
}

/// One GEMM output row: `out_row = a_row * other` with the ikj kernel, so
/// the inner loop streams over contiguous memory in both the output row
/// and the `other` row.
fn matmul_row(a_row: &[f32], other: &Matrix, out_row: &mut [f32]) {
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = other.row(k);
        for (o, &b) in out_row.iter_mut().zip(b_row) {
            *o += a * b;
        }
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
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn blocked_matmul_matches_reference_exactly() {
        // Odd shapes exercise the remainder path; the modular fill plants
        // zeros in `a` to exercise the zero-gate mixed path.
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (4, 4, 4), (7, 13, 9), (66, 31, 17), (8, 1, 5)] {
            let a = Matrix::from_fn(m, k, |r, c| {
                let v = (r * 31 + c * 17) % 7;
                if v == 3 {
                    0.0
                } else {
                    v as f32 - 2.5
                }
            });
            let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 5) % 11) as f32 * 0.37 - 1.0);
            let blocked = a.matmul_with(&b, &ParConfig::serial());
            let reference = a.matmul_reference(&b);
            assert_eq!(blocked, reference, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial() {
        // 128 x 128 x 128 = 2M MACs, above the parallel threshold.
        let a = Matrix::from_fn(128, 128, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(128, 128, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.25);
        let serial = a.matmul_with(&b, &ParConfig::serial());
        for threads in [2usize, 4, 8] {
            let par = a.matmul_with(&b, &ParConfig::threads(threads));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn matvec_matches_matmul() {
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
