#![warn(missing_docs)]
//! Experiment harness regenerating every figure of the LRM paper's
//! evaluation (Section 6).
//!
//! One module — and one binary — per figure:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 2 (γ sweep) | [`experiments::fig2`] | `fig2_gamma` |
//! | Fig. 3 (r sweep) | [`experiments::fig3`] | `fig3_rank` |
//! | Fig. 4 (n sweep, WDiscrete) | [`experiments::fig4`] | `fig4_wdiscrete_n` |
//! | Fig. 5 (n sweep, WRange) | [`experiments::fig5`] | `fig5_wrange_n` |
//! | Fig. 6 (n sweep, WRelated) | [`experiments::fig6`] | `fig6_wrelated_n` |
//! | Fig. 7 (m sweep, WRange) | [`experiments::fig7`] | `fig7_wrange_m` |
//! | Fig. 8 (m sweep, WRelated) | [`experiments::fig8`] | `fig8_wrelated_m` |
//! | Fig. 9 (s sweep, WRelated) | [`experiments::fig9`] | `fig9_rank_s` |
//!
//! Each binary accepts `--full` (the paper's exact parameter grid — slow),
//! `--trials K` (Monte-Carlo repetitions; the paper uses 20), `--seed S`
//! and `--csv DIR`. Without `--full` a scaled-down grid with the same
//! qualitative shape runs in minutes on a laptop; `EXPERIMENTS.md` records
//! both.
//!
//! Every cell reports the **analytic** expected average squared error
//! (closed form; see `lrm_core::mechanism::Mechanism::expected_error`) and
//! the **empirical** mean over the trials, which doubles as a continuous
//! cross-check of the implementations.

pub mod cli;
pub mod experiments;
pub mod mechanisms;
pub mod params;
pub mod progress;
pub mod report;
pub mod runner;

pub use experiments::ExperimentContext;
pub use mechanisms::MechanismKind;
pub use report::{write_csv, TableWriter, Verdict};
pub use runner::{run_cell, CellOutcome, CellSpec};
