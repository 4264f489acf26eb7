#![warn(missing_docs)]
//! # lrm — Low-Rank Mechanism for batch queries under differential privacy
//!
//! A from-scratch Rust reproduction of *“Low-Rank Mechanism: Optimizing
//! Batch Queries under Differential Privacy”* (Yuan, Zhang, Winslett, Xiao,
//! Yang, Hao — VLDB 2012), including every substrate the paper depends on:
//!
//! * [`linalg`] — dense linear algebra (GEMM, LU/Cholesky/QR, symmetric
//!   eigendecomposition, SVD);
//! * [`opt`] — L1-ball projection, Nesterov's projected gradient
//!   (paper Algorithm 2), augmented-Lagrangian scheduling (Algorithm 1),
//!   nonmonotone spectral projected gradient, log-sum-exp smoothing
//!   (Appendix B);
//! * [`dp`] — Laplace noise, sensitivity arithmetic, privacy budgets and
//!   the sequential-composition [`DurableLedger`](lrm_dp::DurableLedger);
//! * [`workload`] — the paper's WDiscrete / WRange / WRelated workload
//!   generators plus synthetic stand-ins for the Search Logs / Net Trace /
//!   Social Network datasets, each workload carrying a content
//!   [`Fingerprint`](lrm_workload::Fingerprint);
//! * [`core`] — the Low-Rank Mechanism itself, all baselines the paper
//!   evaluates (Laplace/NOD/NOR, Matrix Mechanism, Wavelet, Hierarchical),
//!   closed-form error analysis, the paper's optimality bounds — and the
//!   serving [`Engine`](lrm_core::engine::Engine) described below;
//! * [`eval`] — the experiment harness that regenerates every figure of the
//!   paper's evaluation section;
//! * [`server`] — the concurrent batch-serving runtime: a [`QuerySpec`]
//!   front door over a [`Schema`], a coalescing scheduler that merges
//!   compatible concurrent requests into one strategy + one noise draw,
//!   per-tenant budget ledgers, and a worker pool over the engine's
//!   strategy cache.
//!
//! [`QuerySpec`]: lrm_server::QuerySpec
//! [`Schema`]: lrm_workload::Schema
//!
//! ## Quickstart: compile once, answer many, never over-spend
//!
//! Strategy search (Algorithm 1) is the expensive, *data-independent* step;
//! answering is microseconds. The API is shaped around that: an
//! [`Engine`](lrm_core::engine::Engine) compiles a workload into a strategy
//! (cached by the workload's content fingerprint — recompiles are O(1)
//! lookups), and a [`Session`](lrm_core::engine::Session) serves releases
//! while a ledger debits every ε and refuses over-spends with a typed
//! error.
//!
//! ```
//! use lrm::prelude::*;
//! use rand::SeedableRng;
//!
//! // A workload of three correlated queries over four unit counts
//! // (the running example from Section 1 of the paper).
//! let w = Workload::from_rows(&[
//!     &[1.0, 1.0, 1.0, 1.0], // q1 = total
//!     &[1.0, 1.0, 0.0, 0.0], // q2 = NY + NJ
//!     &[0.0, 0.0, 1.0, 1.0], // q3 = CA + WA
//! ]).unwrap();
//! let data = vec![82_700.0, 19_000.0, 67_000.0, 5_900.0];
//!
//! // Compile once — data-independent, so it consumes no privacy budget.
//! let engine = Engine::builder().build();
//! let compiled = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
//! assert_eq!(compiled.meta().label, "LRM");
//!
//! // Serve releases under a tracked total of ε = 1.
//! let mut session = compiled.session(Epsilon::new(1.0).unwrap());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let half = Epsilon::new(0.5).unwrap();
//!
//! let first = session.answer(&data, half, &mut rng).unwrap();
//! assert_eq!(first.answers.len(), 3);
//! assert!((first.eps_remaining - 0.5).abs() < 1e-12);
//!
//! let second = session.answer(&data, half, &mut rng).unwrap();
//! assert!(second.eps_remaining < 1e-12);
//!
//! // A third release would exceed ε = 1: the ledger refuses, typed.
//! assert!(matches!(
//!     session.answer(&data, half, &mut rng),
//!     Err(EngineError::Budget(BudgetError::Exhausted { .. }))
//! ));
//!
//! // Recompiling the same workload is a cache hit — no decomposition.
//! let again = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
//! assert_eq!(again.meta().cache, CacheOutcome::MemoryHit);
//!
//! // Don't know which mechanism fits? Ask for the panel argmin (free:
//! // it compares closed-form errors of public quantities only).
//! let best = engine.compile_best_default(&w).unwrap();
//! let lm = engine.compile_default(&w, MechanismKind::Laplace).unwrap();
//! assert!(best.meta().expected_avg_error <= lm.meta().expected_avg_error);
//! ```

pub use lrm_core as core;
pub use lrm_dp as dp;
pub use lrm_eval as eval;
pub use lrm_linalg as linalg;
pub use lrm_opt as opt;
pub use lrm_server as server;
pub use lrm_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use lrm_core::baselines::{
        HierarchicalMechanism, MatrixMechanism, NoiseOnData, NoiseOnResults, WaveletMechanism,
    };
    pub use lrm_core::decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
    pub use lrm_core::engine::{
        BatchAnswer, CacheOutcome, CacheStats, CompileMeta, CompileOptions, CompiledMechanism,
        Engine, EngineBuilder, EngineError, MechanismKind, Session,
    };
    pub use lrm_core::extensions::CompensatedLowRankMechanism;
    pub use lrm_core::lrm::LowRankMechanism;
    pub use lrm_core::mechanism::Mechanism;
    pub use lrm_core::CoreError;
    pub use lrm_dp::budget::Epsilon;
    pub use lrm_dp::{BudgetError, DpError, DurableLedger};
    pub use lrm_linalg::operator::{CsrOp, DenseOp, IntervalsOp, MatrixOp};
    pub use lrm_linalg::Matrix;
    pub use lrm_server::{
        AdmissionError, QuerySpec, Release, Server, ServerBuilder, ServerError, ServerReport,
        SpecError, TenantSpend, Ticket, TicketSet,
    };
    pub use lrm_workload::datasets::Dataset;
    pub use lrm_workload::error::WorkloadError;
    pub use lrm_workload::generators::{WDiscrete, WRange, WRelated, WorkloadGenerator};
    pub use lrm_workload::schema::{Attribute, Schema};
    pub use lrm_workload::workload::{Fingerprint, Workload, WorkloadStructure};
}
