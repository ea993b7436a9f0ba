//! Dense linear algebra, special functions and probability distributions.
//!
//! This crate is the numeric substrate for the hidden-layer-models workspace.
//! Everything here is implemented from scratch on top of `std` and the `rand`
//! RNG core:
//!
//! * [`Matrix`] — a small dense row-major `f64` matrix with the operations the
//!   model crates need (products, transposes, row/column views).
//! * [`Cholesky`] — decomposition of symmetric positive-definite matrices with
//!   solve / inverse / log-determinant, used by the BPMF Gibbs sampler and the
//!   multivariate normal sampler.
//! * [`special`] — log-gamma, digamma, erf, normal CDF and quantile,
//!   log-sum-exp and softmax.
//! * [`dist`] — random distributions (normal, gamma, beta, Dirichlet,
//!   categorical with alias tables, Wishart, multivariate normal) built
//!   directly on any [`rand::Rng`].
//! * [`vector`] — free functions over `&[f64]` slices: dot products, norms,
//!   Euclidean and cosine distances.
//!
//! # Example
//!
//! ```
//! use hlm_linalg::{Matrix, vector};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = a.matmul(&a.transpose());
//! assert_eq!(b.get(0, 0), 5.0);
//! assert!(vector::cosine_distance(&[1.0, 0.0], &[1.0, 0.0]) < 1e-12);
//! ```

pub mod cholesky;
pub mod dist;
pub(crate) mod matrix;
pub(crate) mod sparse;
pub mod special;
pub mod svd;
pub mod vector;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use sparse::SparseDelta;
pub use svd::{truncated_svd, TruncatedSvd};
