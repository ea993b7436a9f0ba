//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! Used by the multivariate-normal and Wishart samplers (BPMF Gibbs sweeps)
//! and anywhere a small SPD system needs solving. The decomposition stores the
//! lower-triangular factor `L` with `A = L Lᵀ`.

use crate::matrix::Matrix;

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the decomposition broke down.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} non-positive)",
            self.pivot
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor of an SPD matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Decomposes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is stale.
    ///
    /// # Errors
    /// Returns [`NotPositiveDefinite`] when a pivot is non-positive.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn decompose(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Decomposes `a + jitter * I`, escalating jitter by 10x up to
    /// `max_tries` times. This is the pragmatic fallback the Gibbs samplers
    /// use when accumulated covariance estimates drift slightly indefinite.
    ///
    /// # Errors
    /// Returns the final [`NotPositiveDefinite`] if all attempts fail.
    pub fn decompose_with_jitter(
        a: &Matrix,
        mut jitter: f64,
        max_tries: usize,
    ) -> Result<Self, NotPositiveDefinite> {
        match Self::decompose(a) {
            Ok(c) => return Ok(c),
            Err(e) if max_tries == 0 => return Err(e),
            Err(_) => {}
        }
        let n = a.rows();
        let mut last_err = NotPositiveDefinite { pivot: 0 };
        for _ in 0..max_tries {
            let mut aj = a.clone();
            for i in 0..n {
                aj.add_at(i, i, jitter);
            }
            match Self::decompose(&aj) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// The lower-triangular factor `L`.
    pub(crate) fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.forward_substitute(b);
        self.backward_substitute(&y)
    }

    /// Solves `L y = b` (forward substitution).
    pub(crate) fn forward_substitute(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve dimension mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                sum -= self.l.get(i, k) * yk;
            }
            y[i] = sum / self.l.get(i, i);
        }
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    pub fn backward_substitute(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve dimension mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l.get(k, i) * xk;
            }
            x[i] = sum / self.l.get(i, i);
        }
        x
    }

    /// Inverse of the original matrix, computed column by column.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e);
            for (r, &v) in col.iter().enumerate() {
                inv.set(r, c, v);
            }
            e[c] = 0.0;
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd_3x3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn reconstructs_original() {
        let a = spd_3x3();
        let ch = Cholesky::decompose(&a).unwrap();
        let l = ch.factor();
        let rebuilt = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rebuilt.get(i, j) - a.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_3x3();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let ch = Cholesky::decompose(&a).unwrap();
        let x = ch.solve(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd_3x3();
        let inv = Cholesky::decompose(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn jitter_rescues_near_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        assert!(Cholesky::decompose(&a).is_err());
        let ch = Cholesky::decompose_with_jitter(&a, 1e-8, 10).unwrap();
        assert!(ch.factor().is_finite());
    }

    proptest! {
        #[test]
        fn random_spd_roundtrip(seed in 0u64..500, n in 1usize..6) {
            // Build SPD as B Bᵀ + n*I from a pseudorandom B.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let b = Matrix::from_fn(n, n, |_, _| next());
            let mut a = b.matmul(&b.transpose());
            for i in 0..n { a.add_at(i, i, n as f64); }
            let ch = Cholesky::decompose(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 1.0).collect();
            let rhs = a.matvec(&x_true);
            let x = ch.solve(&rhs);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-6);
            }
        }
    }
}
