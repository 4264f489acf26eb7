//! Per-figure experiment drivers.

pub mod ablations;
pub mod chaos;
pub mod evented;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod serving;
mod sweep;
pub mod warm_start;

use crate::params;
use lrm_core::decomposition::DecompositionConfig;
use lrm_core::engine::Engine;
use std::path::PathBuf;
use std::sync::Arc;

pub use sweep::{run_domain_sweep, run_query_sweep, SweepPlan};

/// Shared experiment configuration, usually parsed from CLI arguments.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Run the paper's exact parameter grid (slow) instead of the
    /// scaled-down default.
    pub full: bool,
    /// Monte-Carlo repetitions per cell (the paper uses 20).
    pub trials: usize,
    /// Master seed for workload generation and noise.
    pub seed: u64,
    /// When set, CSV files are written under this directory.
    pub csv_dir: Option<PathBuf>,
    /// Suppress table printing (used by tests and benches).
    pub quiet: bool,
    /// The serving engine all cells compile through. Shared (`Arc`) so
    /// clones of the context reuse one strategy cache within a figure;
    /// the figure drivers call [`Engine::clear_cache`] once a workload's
    /// cells are done, so a full grid run never retains every strategy it
    /// ever built.
    pub engine: Arc<Engine>,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            full: false,
            trials: params::DEFAULT_TRIALS,
            seed: 20120827, // VLDB 2012 opening day
            csv_dir: None,
            quiet: false,
            engine: Arc::new(Engine::default()),
        }
    }
}

impl ExperimentContext {
    /// Parses `--full`, `--trials K`, `--seed S`, `--csv DIR`, `--quiet`
    /// from an iterator of arguments (excluding the program name).
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut ctx = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => ctx.full = true,
                "--quiet" => ctx.quiet = true,
                "--trials" => {
                    let v = args
                        .next()
                        .ok_or_else(|| "--trials needs a value".to_string())?;
                    ctx.trials = v
                        .parse()
                        .map_err(|_| format!("invalid --trials value: {v}"))?;
                }
                "--seed" => {
                    let v = args.next().ok_or_else(|| "--seed needs a value".to_string())?;
                    ctx.seed = v.parse().map_err(|_| format!("invalid --seed value: {v}"))?;
                }
                "--csv" => {
                    let v = args.next().ok_or_else(|| "--csv needs a directory".to_string())?;
                    ctx.csv_dir = Some(PathBuf::from(v));
                }
                other => return Err(format!("unknown argument: {other} (try --full, --trials K, --seed S, --csv DIR, --quiet)")),
            }
        }
        Ok(ctx)
    }

    /// Domain-size grid for Figs. 4–6.
    pub fn domain_sizes(&self) -> Vec<usize> {
        if self.full {
            params::DOMAIN_SIZES_FULL.to_vec()
        } else {
            params::DOMAIN_SIZES_QUICK.to_vec()
        }
    }

    /// Query-count grid for Figs. 7–8.
    pub fn query_sizes(&self) -> Vec<usize> {
        if self.full {
            params::QUERY_SIZES_FULL.to_vec()
        } else {
            params::QUERY_SIZES_QUICK.to_vec()
        }
    }

    /// Default query count for the n sweeps.
    pub fn default_queries(&self) -> usize {
        if self.full {
            params::DEFAULT_QUERIES_FULL
        } else {
            params::DEFAULT_QUERIES_QUICK
        }
    }

    /// Default domain size for the m/γ/r sweeps.
    pub fn default_domain(&self) -> usize {
        if self.full {
            params::DEFAULT_DOMAIN_FULL
        } else {
            params::DEFAULT_DOMAIN_QUICK
        }
    }

    /// The engine the harness compiles every mechanism through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Largest domain MM is attempted on (Appendix B is O(n³) per step).
    pub fn mm_domain_cap(&self) -> usize {
        if self.full {
            params::MM_DOMAIN_CAP_FULL
        } else {
            params::MM_DOMAIN_CAP_QUICK
        }
    }

    /// LRM solver budgets adapted to problem size: the figure grids span
    /// two orders of magnitude in `m·n`, and the full-accuracy budgets
    /// that polish a 3×4 example would take hours at n = 8192.
    pub fn lrm_config_for(
        &self,
        gamma: f64,
        rank_ratio: f64,
        m: usize,
        n: usize,
    ) -> DecompositionConfig {
        let size = m * n;
        let base = crate::mechanisms::lrm_config(gamma, rank_ratio);
        if size <= 1 << 14 {
            base
        } else if size <= 1 << 18 {
            DecompositionConfig {
                max_outer_iters: 80,
                inner_alternations: 4,
                ..base
            }
        } else {
            DecompositionConfig {
                max_outer_iters: 50,
                inner_alternations: 3,
                nesterov: lrm_opt::NesterovConfig {
                    max_iters: 25,
                    ..lrm_opt::NesterovConfig::default()
                },
                ..base
            }
        }
    }
}

/// Serializes this crate's tests that densify a structured workload or
/// assert on a delta of the process-global
/// [`densification_count`](lrm_linalg::operator::densification_count):
/// the test threads share that count, so a densifying test running
/// beside a counting one would show up in the other's delta.
#[cfg(test)]
pub(crate) fn densification_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the unit it guards stays valid.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let ctx = ExperimentContext::from_args(
            [
                "--full", "--trials", "5", "--seed", "42", "--csv", "/tmp/x", "--quiet",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(ctx.full);
        assert_eq!(ctx.trials, 5);
        assert_eq!(ctx.seed, 42);
        assert_eq!(ctx.csv_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert!(ctx.quiet);

        assert!(ExperimentContext::from_args(["--bogus".to_string()].into_iter()).is_err());
        assert!(ExperimentContext::from_args(
            ["--trials".to_string(), "x".to_string()].into_iter()
        )
        .is_err());
    }

    #[test]
    fn grids_scale_with_full() {
        let quick = ExperimentContext::default();
        let full = ExperimentContext {
            full: true,
            ..ExperimentContext::default()
        };
        assert!(full.domain_sizes().len() > quick.domain_sizes().len());
        assert!(full.default_queries() > quick.default_queries());
        assert!(full.mm_domain_cap() >= quick.mm_domain_cap());
    }

    #[test]
    fn lrm_budgets_shrink_with_size() {
        let ctx = ExperimentContext::default();
        let small = ctx.lrm_config_for(0.01, 1.2, 8, 16);
        let large = ctx.lrm_config_for(0.01, 1.2, 1024, 8192);
        assert!(small.max_outer_iters > large.max_outer_iters);
        assert!(small.nesterov.max_iters > large.nesterov.max_iters);
    }
}
