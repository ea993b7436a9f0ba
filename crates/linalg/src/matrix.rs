//! A dense row-major `f64` matrix.
//!
//! The matrix sizes used across the workspace are small-to-medium (topic-word
//! tables of `K x 38`, LSTM weight blocks of a few hundred squared, BPMF
//! factor matrices of `N x D`), so a straightforward dense representation with
//! cache-friendly row-major loops is the right tool. No BLAS, no generics —
//! predictable, easy to audit numerics.

use serde::{Deserialize, Serialize};

/// Multiply-add count above which `matmul`/`matvec` fan out across the
/// global worker pool. Below it the spawn cost dwarfs the arithmetic.
const PAR_FLOP_CUTOFF: usize = 1 << 18;

/// Output rows per parallel block. Fixed (never derived from the thread
/// count) so chunk boundaries are a pure function of the shapes.
const PAR_ROW_CHUNK: usize = 16;

/// Inner-dimension tile: `K_TILE` rows of the right operand stay cache-hot
/// while a block of output rows consumes them.
const K_TILE: usize = 64;

/// Probes up to 16 evenly spaced elements of a row segment; the zero-skip
/// branch in the matmul kernel is only enabled when at least half the
/// probes hit zeros. On dense data the always-taken branch costs more than
/// the multiplications it saves.
fn segment_probe_sparse(seg: &[f64]) -> bool {
    if seg.is_empty() {
        return false;
    }
    // Odd stride so the sample pattern cannot alias with even-periodic
    // sparsity structure.
    let stride = ((seg.len() / 16) | 1).max(1);
    let mut zeros = 0usize;
    let mut total = 0usize;
    let mut i = 0;
    while i < seg.len() {
        zeros += usize::from(seg[i] == 0.0);
        total += 1;
        i += stride;
    }
    2 * zeros >= total
}

/// Dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to the value at `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] += v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Fills every cell with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Overwrites this matrix with `other`'s contents in place, reusing the
    /// existing buffer (the allocation-free alternative to `clone`).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Cache-blocked over the inner dimension (a tile of `other`'s rows
    /// stays hot while a block of output rows consumes it) and parallelized
    /// across output-row blocks above [`PAR_FLOP_CUTOFF`]. Per output cell
    /// the inner-dimension accumulation order is the plain ascending-`k`
    /// order, so blocked, parallel and naive i-k-j results are bit-identical
    /// for finite inputs, at any thread count.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.rows == 0 || self.cols == 0 || other.cols == 0 {
            return out;
        }
        let n = other.cols;
        let pool = hlm_par::Pool::global();
        let flops = self.rows * self.cols * n;
        if flops >= PAR_FLOP_CUTOFF && pool.threads() > 1 && self.rows > 1 {
            hlm_par::par_for_each_init(
                &pool,
                &mut out.data,
                PAR_ROW_CHUNK * n,
                |_| (),
                |(), block_idx, out_block| {
                    self.mul_rows_into(other, block_idx * PAR_ROW_CHUNK, out_block);
                },
            );
        } else {
            self.mul_rows_into(other, 0, &mut out.data);
        }
        out
    }

    /// Computes output rows `row0..` of `self * other` into `out_block`
    /// (`out_block.len()` must be a multiple of `other.cols`): the k-tiled
    /// i-k-j kernel shared by the serial and parallel paths.
    fn mul_rows_into(&self, other: &Matrix, row0: usize, out_block: &mut [f64]) {
        let n = other.cols;
        let n_rows = out_block.len() / n;
        let mut k0 = 0;
        while k0 < self.cols {
            let k1 = (k0 + K_TILE).min(self.cols);
            for (r, out_row) in out_block.chunks_exact_mut(n).enumerate().take(n_rows) {
                let a_seg = &self.row(row0 + r)[k0..k1];
                // Zero entries of A contribute nothing either way; skipping
                // them only pays when the segment is actually sparse —
                // probing first avoids a mispredicting branch on dense data.
                let skip_zeros = segment_probe_sparse(a_seg);
                for (k, &a_ik) in a_seg.iter().enumerate() {
                    if skip_zeros && a_ik == 0.0 {
                        continue;
                    }
                    crate::vector::axpy(out_row, a_ik, other.row(k0 + k));
                }
            }
            k0 = k1;
        }
    }

    /// Matrix product with a transposed right operand: `self * other^T`,
    /// where `other` is `m x k` with `k == self.cols()`. Both operands are
    /// walked along rows, so every inner product is two sequential streams —
    /// the fast path for Gram-style products without materializing a
    /// transpose.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        if self.rows == 0 || other.rows == 0 {
            return out;
        }
        let n = other.rows;
        let pool = hlm_par::Pool::global();
        let flops = self.rows * self.cols * n;
        let nt_kernel = |row0: usize, out_block: &mut [f64]| {
            for (r, out_row) in out_block.chunks_exact_mut(n).enumerate() {
                let a_row = self.row(row0 + r);
                for (o, b_row) in out_row.iter_mut().zip(other.iter_rows()) {
                    *o = crate::vector::dot(a_row, b_row);
                }
            }
        };
        if flops >= PAR_FLOP_CUTOFF && pool.threads() > 1 && self.rows > 1 {
            hlm_par::par_for_each_init(
                &pool,
                &mut out.data,
                PAR_ROW_CHUNK * n,
                |_| (),
                |(), block_idx, out_block| nt_kernel(block_idx * PAR_ROW_CHUNK, out_block),
            );
        } else {
            nt_kernel(0, &mut out.data);
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Row results are independent dot products, so the parallel path (taken
    /// above [`PAR_FLOP_CUTOFF`]) is bit-identical to the serial one.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let pool = hlm_par::Pool::global();
        if self.rows * self.cols >= PAR_FLOP_CUTOFF && pool.threads() > 1 {
            let n_chunks = hlm_par::chunk_count(self.rows, PAR_ROW_CHUNK);
            let blocks = pool.run(n_chunks, |c| {
                let (lo, hi) = hlm_par::chunk_bounds(self.rows, PAR_ROW_CHUNK, c);
                (lo..hi)
                    .map(|r| crate::vector::dot(self.row(r), v))
                    .collect::<Vec<f64>>()
            });
            return blocks.concat();
        }
        self.iter_rows()
            .map(|row| crate::vector::dot(row, v))
            .collect()
    }

    /// Vector-matrix product `v^T * self`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vecmat dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(r).iter()) {
                *o += vr * m;
            }
        }
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "element-wise op shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Returns the matrix scaled by `alpha`.
    pub fn scale(&self, alpha: f64) -> Matrix {
        let data = self.data.iter().map(|&x| x * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place scaling by `alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds the outer product `alpha * a * b^T` in place.
    ///
    /// # Panics
    /// Panics if shapes disagree with `(a.len(), b.len())`.
    pub fn add_outer(&mut self, alpha: f64, a: &[f64], b: &[f64]) {
        assert_eq!(self.rows, a.len(), "add_outer row mismatch");
        assert_eq!(self.cols, b.len(), "add_outer col mismatch");
        for (i, &ai) in a.iter().enumerate() {
            let s = alpha * ai;
            if s == 0.0 {
                continue;
            }
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &bj) in row.iter_mut().zip(b.iter()) {
                *o += s * bj;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Normalizes each row to sum to one.
    ///
    /// Rows whose sum is zero are left untouched.
    pub fn normalize_rows(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let s: f64 = row.iter().sum();
            if s != 0.0 {
                row.iter_mut().for_each(|x| *x /= s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 1.0], &[1.0, 0.0]);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn normalize_rows_handles_zero_rows() {
        let mut m = Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0]]);
        m.normalize_rows();
        assert_eq!(m.row(0), &[0.5, 0.5]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).row(0), &[2.0, 2.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.row(0), &[7.0, 10.0]);
    }

    /// Reference naive i-k-j product without blocking, skipping or
    /// parallelism.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                for j in 0..b.cols() {
                    out.add_at(i, j, a.get(i, k) * b.get(k, j));
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_bitwise() {
        // 70x130 * 130x90 crosses both the K_TILE boundary and the parallel
        // flop cutoff; with ~30% zeros the sparsity probe takes both paths.
        let a = Matrix::from_fn(70, 130, |i, j| {
            if (i * 131 + j * 7) % 10 < 3 {
                0.0
            } else {
                ((i * 31 + j) as f64).sin()
            }
        });
        let b = Matrix::from_fn(130, 90, |i, j| ((i + 3 * j) as f64).cos());
        let expect = naive_matmul(&a, &b);
        assert_eq!(a.matmul(&b), expect);
    }

    #[test]
    fn matmul_is_thread_count_independent() {
        let a = Matrix::from_fn(64, 96, |i, j| ((i * 17 + j * 5) as f64).sin());
        let b = Matrix::from_fn(96, 64, |i, j| ((i + j * 11) as f64).cos());
        hlm_par::set_threads(1);
        let serial = a.matmul(&b);
        let serial_nt = a.matmul_nt(&b.transpose());
        let serial_mv = a.matvec(&b.col(0));
        for threads in [2, 7] {
            hlm_par::set_threads(threads);
            assert_eq!(a.matmul(&b), serial, "{threads} threads");
            assert_eq!(a.matmul_nt(&b.transpose()), serial_nt, "{threads} threads");
            assert_eq!(a.matvec(&b.col(0)), serial_mv, "{threads} threads");
        }
        hlm_par::set_threads(0);
    }

    #[test]
    fn matmul_nt_matches_matmul_of_transpose() {
        let a = Matrix::from_fn(9, 13, |i, j| (i * 13 + j) as f64 * 0.25);
        let b = Matrix::from_fn(7, 13, |i, j| ((i + j) as f64).sqrt());
        let via_transpose = a.matmul(&b.transpose());
        let direct = a.matmul_nt(&b);
        assert_eq!(direct.shape(), (9, 7));
        for i in 0..9 {
            for j in 0..7 {
                assert!((direct.get(i, j) - via_transpose.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparsity_probe_detects_density() {
        assert!(segment_probe_sparse(&[0.0; 32]));
        assert!(!segment_probe_sparse(&[1.0; 32]));
        assert!(!segment_probe_sparse(&[]));
        let mostly_zero: Vec<f64> = (0..64)
            .map(|i| if i % 4 == 0 { 1.0 } else { 0.0 })
            .collect();
        assert!(segment_probe_sparse(&mostly_zero));
    }

    proptest! {
        #[test]
        fn transpose_preserves_frobenius(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let m = Matrix::from_fn(rows, cols, |_, _| next());
            let t = m.transpose();
            prop_assert!((m.frobenius_norm() - t.frobenius_norm()).abs() < 1e-12);
        }

        #[test]
        fn matmul_identity_is_noop(rows in 1usize..5, cols in 1usize..5) {
            let m = Matrix::from_fn(rows, cols, |i, j| (i * 7 + j * 3) as f64);
            let prod = m.matmul(&Matrix::identity(cols));
            prop_assert_eq!(prod, m);
        }

        #[test]
        fn matvec_agrees_with_matmul(rows in 1usize..5, cols in 1usize..5) {
            let m = Matrix::from_fn(rows, cols, |i, j| (i + 2 * j) as f64 * 0.5);
            let v: Vec<f64> = (0..cols).map(|j| j as f64 - 1.0).collect();
            let as_mat = Matrix::from_fn(cols, 1, |i, _| v[i]);
            let prod = m.matmul(&as_mat);
            let mv = m.matvec(&v);
            for (i, &mvi) in mv.iter().enumerate() {
                prop_assert!((prod.get(i, 0) - mvi).abs() < 1e-12);
            }
        }
    }
}
