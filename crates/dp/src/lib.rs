#![warn(missing_docs)]
//! Differential-privacy primitives for the Low-Rank Mechanism reproduction.
//!
//! * [`budget`] — the ε privacy budget type with validation and
//!   sequential-composition arithmetic, plus the approximate-DP
//!   [`Budget`] `(ε, δ)` pair.
//! * [`ledger`] — the [`BudgetLedger`], which debits a fixed total
//!   (ε and, for approximate DP, δ) per release and refuses over-spends
//!   with a typed [`BudgetError`].
//! * [`durable`] + [`journal`] — the [`DurableLedger`], the one
//!   thread-safe ledger the `lrm-server` tenants spend through: lock-free
//!   (ε, δ) spend columns that keep the one-slack over-spend bound under
//!   contention, a two-phase debit protocol (intent → settle/abort), and
//!   an optional CRC-framed write-ahead journal (`LRMJ`, v2 with
//!   δ-carrying frames) under which a tenant's spend survives process
//!   restarts and a kill at any instant can only waste budget, never
//!   refund it.
//! * [`error`] — the typed [`DpError`] every constructor in this crate
//!   reports.
//! * [`laplace`] — Laplace distribution sampling (inverse-CDF), the noise
//!   primitive of every pure ε-DP mechanism in the paper (Eq. 3).
//! * [`gaussian`] — Gaussian distribution sampling (Box–Muller) with
//!   *analytic* (ε, δ) calibration by privacy-profile inversion, the
//!   noise primitive of the approximate-DP regime (journal extension of
//!   the paper, arXiv:1502.07526).
//! * [`sensitivity`] — L1 **and L2** sensitivity arithmetic: the workload
//!   sensitivity `Δ' = max_j Σ_i |W_ij|` used by noise-on-results
//!   (Eq. 5), the decomposition sensitivity `Δ(B, L)` of Definition 2,
//!   the Gaussian counterpart `Δ₂ = max_j ‖W_:j‖₂`, and the
//!   [`SensitivityNorm`] compatibility axis every strategy key carries.
//! * [`rng`] — deterministic seed derivation so that every experiment in
//!   the harness is reproducible bit-for-bit, including `substream`
//!   lanes for coalesced-batch noise top-ups.

pub mod budget;
pub mod durable;
pub mod error;
pub mod gaussian;
pub mod journal;
pub mod laplace;
pub mod ledger;
pub mod rng;
pub mod sensitivity;

pub use budget::{Budget, Epsilon};
pub use durable::{DurableError, DurableLedger, ResumeSummary};
pub use error::DpError;
pub use gaussian::{gaussian_profile_delta, Gaussian};
pub use laplace::Laplace;
pub use ledger::{BudgetError, BudgetLedger};
pub use sensitivity::SensitivityNorm;
