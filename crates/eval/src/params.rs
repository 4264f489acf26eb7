//! Parameter grids — Table 1 of the paper, plus the scaled-down defaults
//! used when `--full` is not given.
//!
//! The paper's Table 1 (defaults in bold in the original; the bold marks
//! are not recoverable from the text, so DESIGN.md §4 fixes defaults that
//! sit inside every sweep):
//!
//! | param | values |
//! |---|---|
//! | γ | 1e-4, 1e-3, 1e-2, **1e-2**, 1e-1, 1, 10 |
//! | r | {0.8, 1.0, **1.2**, 1.4, 1.7, 2.1, 2.5, 3.0, 3.6} × rank(W) |
//! | n | 128, 256, **512**, 1024, 2048, 4096, 8192 |
//! | m | 64, 128, **256**, 512, 1024 |
//! | s | {0.1, **0.2**, 0.3, …, 1.0} × min(m, n) |

/// The three privacy budgets evaluated throughout the paper.
pub const EPSILONS: [f64; 3] = [1.0, 0.1, 0.01];

/// The single ε used in Figs. 4–9.
pub const EPSILON_MAIN: f64 = 0.1;

/// γ grid (Fig. 2).
pub const GAMMAS: [f64; 6] = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// r-ratio grid (Fig. 3).
pub const RANK_RATIOS: [f64; 9] = [0.8, 1.0, 1.2, 1.4, 1.7, 2.1, 2.5, 3.0, 3.6];

/// Domain-size grid (Figs. 4–6), full paper scale.
pub const DOMAIN_SIZES_FULL: [usize; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];

/// Domain-size grid, scaled-down default.
pub const DOMAIN_SIZES_QUICK: [usize; 5] = [128, 256, 512, 1024, 2048];

/// Query-count grid (Figs. 7–8), full paper scale.
pub const QUERY_SIZES_FULL: [usize; 5] = [64, 128, 256, 512, 1024];

/// Query-count grid, scaled-down default.
pub const QUERY_SIZES_QUICK: [usize; 4] = [32, 64, 128, 256];

/// s-ratio grid (Fig. 9).
pub const S_RATIOS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Default γ (DESIGN.md §4).
pub const DEFAULT_GAMMA: f64 = 0.01;

/// Default r-ratio (Section 6.1 recommends rank(W)…1.2·rank(W)).
pub const DEFAULT_RANK_RATIO: f64 = 1.2;

/// Default domain size for the m/γ/r sweeps.
pub const DEFAULT_DOMAIN_FULL: usize = 1024;

/// Scaled-down default domain size.
pub const DEFAULT_DOMAIN_QUICK: usize = 256;

/// Default query count for the n/γ/r sweeps.
pub const DEFAULT_QUERIES_FULL: usize = 256;

/// Scaled-down default query count.
pub const DEFAULT_QUERIES_QUICK: usize = 64;

/// Default s-ratio for WRelated.
pub const DEFAULT_S_RATIO: f64 = 0.2;

/// Nesterov iterations per L-step (Algorithm 2) in the figure harness.
/// The library default of 10 is sized for serving; the figures pin 40 so
/// that their results do not move with that default.
pub const PAPER_NESTEROV_ITERS: usize = 40;

/// Monte-Carlo trials per cell (the paper runs 20).
pub const DEFAULT_TRIALS: usize = 20;

/// Largest domain the Matrix Mechanism is attempted on by default: its
/// Appendix-B solver needs an `n×n` eigendecomposition per PSD projection,
/// which is the "enormous computational overhead" the paper criticizes.
pub const MM_DOMAIN_CAP_QUICK: usize = 512;

/// MM domain cap under `--full`.
pub const MM_DOMAIN_CAP_FULL: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sit_inside_grids() {
        assert!(GAMMAS.contains(&DEFAULT_GAMMA));
        assert!(RANK_RATIOS.contains(&DEFAULT_RANK_RATIO));
        assert!(DOMAIN_SIZES_FULL.contains(&DEFAULT_DOMAIN_FULL));
        assert!(DOMAIN_SIZES_QUICK.contains(&DEFAULT_DOMAIN_QUICK));
        assert!(QUERY_SIZES_FULL.contains(&DEFAULT_QUERIES_FULL));
        assert!(QUERY_SIZES_QUICK.contains(&DEFAULT_QUERIES_QUICK));
        assert!(S_RATIOS.contains(&DEFAULT_S_RATIO));
        assert!(EPSILONS.contains(&EPSILON_MAIN));
    }

    #[test]
    fn grids_are_sorted() {
        assert!(GAMMAS.windows(2).all(|w| w[0] < w[1]));
        assert!(RANK_RATIOS.windows(2).all(|w| w[0] < w[1]));
        assert!(DOMAIN_SIZES_FULL.windows(2).all(|w| w[0] < w[1]));
        assert!(QUERY_SIZES_FULL.windows(2).all(|w| w[0] < w[1]));
        assert!(S_RATIOS.windows(2).all(|w| w[0] < w[1]));
    }
}
