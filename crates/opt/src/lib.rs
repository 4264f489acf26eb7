#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-heavy numerical kernels

//! Optimization routines for the Low-Rank Mechanism reproduction.
//!
//! Every routine here exists because the paper calls for it. The ALM
//! pieces ([`l1`], [`nesterov`], [`alm`], [`warm`]) serve the pure-ε (L1)
//! decomposition only: `lrm_core` solves the approximate-DP (L2) program
//! in closed form from its dual.
//!
//! * [`l1`] — Euclidean projection onto the L1 ball (Duchi et al., paper
//!   ref \[10\]); Formula (11) of the paper decouples into one such
//!   projection per column of `L`.
//! * [`l2`] — Euclidean projection onto the L2 ball (a radial rescale),
//!   with which `lrm_core` re-asserts `Δ₂ ≤ 1` on an approximate-DP
//!   strategy before its noise is calibrated.
//! * [`nesterov`] — Nesterov's accelerated projected-gradient method with
//!   backtracking Lipschitz search, i.e. the paper's **Algorithm 2**.
//! * [`alm`] — penalty/multiplier scheduling for the inexact Augmented
//!   Lagrangian method of the paper's **Algorithm 1** (refs \[5, 18\]).
//! * [`spg`] — the nonmonotone spectral projected gradient method of
//!   Birgin, Martínez & Raydan (paper ref \[2\]), used by the Matrix
//!   Mechanism implementation in **Appendix B**.
//! * [`lse`] — log-sum-exp smoothing of `max(·)` with the numerically
//!   robust gradient from **Appendix B** (after d'Aspremont et al., ref
//!   \[7\]).
//! * [`deadline`] — cooperative compile deadlines: a thread-local token
//!   the iterative solvers poll once per iteration, so a serving runtime
//!   can abandon an over-budget compile without threading a deadline
//!   parameter through every solver signature.
//! * [`warm`] — warm-start seeds for Algorithm 1: a cached `(B, L)`
//!   decomposition re-projected onto a (possibly different) target rank
//!   replaces the Lemma 3 SVD initializer when a similar workload has
//!   already been solved.
//! * [`telemetry`] — per-iteration solver telemetry: a thread-local
//!   observer (same scoping pattern as [`deadline`]) the ALM outer loop
//!   reports each iteration's data-independent convergence state to, so
//!   a tracing layer can record solver behavior without `lrm-opt`
//!   depending on one.

pub mod alm;
pub mod deadline;
pub mod l1;
pub mod l2;
pub mod lse;
pub mod nesterov;
pub mod spg;
pub mod telemetry;
pub mod warm;

pub use alm::{AlmSchedule, AlmState};
pub use deadline::Deadline;
pub use l1::{project_columns_l1, project_l1_ball, ColumnRadii};
pub use l2::{project_columns_l2, project_l2_ball};
pub use lse::SmoothMax;
pub use nesterov::{nesterov_projected, NesterovConfig, NesterovResult};
pub use spg::{spg_minimize, SpgConfig, SpgResult};
pub use telemetry::AlmIteration;
pub use warm::WarmStart;
