#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-heavy numerical kernels

//! Dense linear algebra substrate for the Low-Rank Mechanism reproduction.
//!
//! The LRM paper (Yuan et al., VLDB 2012) was evaluated in Matlab; this crate
//! provides the numerical kernels the paper relies on, implemented from
//! scratch:
//!
//! * a dense row-major [`Matrix`] with the usual arithmetic,
//! * structure-aware workload operators ([`operator`]): the [`MatrixOp`]
//!   trait with dense, CSR-sparse, and implicit interval (range/prefix)
//!   implementations, so structured workloads never have to densify,
//! * cache-blocked and multi-threaded matrix multiplication ([`ops`]),
//! * LU / Cholesky / Householder-QR factorizations ([`decomp`]),
//! * symmetric eigendecomposition (cyclic Jacobi and tridiagonal QL),
//! * singular value decomposition (one-sided Jacobi and a Gram-matrix
//!   fast path) together with numerical-rank detection — the paper calls
//!   the singular values of the workload `W` its "eigenvalues".
//!
//! Everything is `f64`; the matrices involved in the paper's experiments are
//! at most a few thousand rows/columns, for which dense kernels are the right
//! tool.
//!
//! # Example
//!
//! ```
//! use lrm_linalg::{Matrix, decomp::svd::Svd};
//!
//! let a = Matrix::from_rows(&[&[4.0, 0.0], &[3.0, -5.0]]);
//! let svd = Svd::compute(&a).unwrap();
//! let reconstructed = svd.reconstruct();
//! assert!(a.approx_eq(&reconstructed, 1e-10));
//! ```

pub mod decomp;
pub mod error;
pub mod io;
pub mod matrix;
pub mod operator;
pub mod ops;
pub mod vector;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use operator::{ColumnClasses, CsrOp, DenseOp, IntervalsOp, MatrixOp};

/// Machine epsilon for `f64`, re-exported for tolerance computations.
pub const EPS: f64 = f64::EPSILON;
