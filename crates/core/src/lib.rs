#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-heavy numerical kernels

//! The Low-Rank Mechanism (LRM) and every baseline the paper evaluates.
//!
//! This crate is the reproduction of the paper's primary contribution:
//!
//! * [`decomposition`] — the workload matrix decomposition `W ≈ B·L` of
//!   Section 4, solved by the inexact Augmented Lagrangian method of
//!   Section 5 (**Algorithm 1**, with **Algorithm 2** as the inner
//!   `L`-solver);
//! * [`lrm`] — the Low-Rank Mechanism `M_P(Q, D) = B(Lx + Lap(Δ/ε)^r)`
//!   (Eq. 6);
//! * [`baselines`] — Noise-on-Data (Eq. 4), Noise-on-Results (Eq. 5), the
//!   Matrix Mechanism as implemented in **Appendix B**, the Wavelet
//!   Mechanism (Privelet, ref \[28\]) and the Hierarchical Mechanism
//!   (Hay et al., ref \[15\]);
//! * [`bounds`] — Lemma 3's upper bound, Lemma 4's Hardt–Talwar lower
//!   bound, Theorem 2's `O(C²r)` approximation ratio and Theorem 3's
//!   relaxed-decomposition error bound;
//! * [`mechanism`] — the common [`mechanism::Mechanism`] interface with
//!   closed-form expected errors (all mechanisms here publish
//!   `linear map · Laplace vector`, so exact error formulas exist);
//! * [`engine`] — the serving layer: the [`engine::MechanismKind`]
//!   registry, the compile-once/answer-many [`engine::Engine`] with its
//!   fingerprint-keyed strategy cache, and budget-tracked
//!   [`engine::Session`]s.

pub mod baselines;
pub mod bounds;
pub mod decomposition;
pub mod engine;
pub mod error;
pub mod extensions;
pub mod lrm;
pub mod mechanism;

pub use decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
pub use engine::{
    BatchAnswer, CompileMeta, CompileOptions, CompiledMechanism, Engine, EngineBuilder,
    EngineError, MechanismKind, NoiseFlavor, Session,
};
pub use error::CoreError;
pub use lrm::LowRankMechanism;
pub use mechanism::Mechanism;
