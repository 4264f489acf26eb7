//! Extensions beyond the paper's core design.
//!
//! * [`data_aware`] — the direction sketched in the paper's conclusion
//!   ("further optimize LRM by utilizing also the correlations between
//!   data values"): spend part of the budget on the decomposition
//!   residual so the relaxed Formula-8 decomposition answers without
//!   structural bias.

pub mod data_aware;

pub use data_aware::CompensatedLowRankMechanism;
