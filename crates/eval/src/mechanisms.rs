//! Mechanism selection for the harness.
//!
//! The registry itself lives in [`lrm_core::engine`]; this module only
//! re-exports it and names the paper's figure panels, plus the LRM
//! configuration shorthand the experiments share.

use crate::params::PAPER_NESTEROV_ITERS;
use lrm_core::decomposition::{DecompositionConfig, TargetRank};
use lrm_opt::NesterovConfig;

pub use lrm_core::engine::{CompileOptions, MechanismKind};

/// The five mechanisms of Figs. 4–6, in the paper's legend order.
pub const FIG4_SET: [MechanismKind; 5] = [
    MechanismKind::MatrixMechanism,
    MechanismKind::Laplace,
    MechanismKind::Wavelet,
    MechanismKind::Hierarchical,
    MechanismKind::Lrm,
];

/// The four mechanisms of Figs. 7–9 (MM excluded "because of its poor
/// performance", Section 6.2).
pub const FIG7_SET: [MechanismKind; 4] = [
    MechanismKind::Laplace,
    MechanismKind::Wavelet,
    MechanismKind::Hierarchical,
    MechanismKind::Lrm,
];

/// LRM configuration with the harness defaults for a given (γ, r-ratio):
/// the library defaults at the paper's inner budget.
pub fn lrm_config(gamma: f64, rank_ratio: f64) -> DecompositionConfig {
    DecompositionConfig {
        gamma,
        target_rank: TargetRank::RatioOfRank(rank_ratio),
        nesterov: NesterovConfig {
            max_iters: PAPER_NESTEROV_ITERS,
            ..NesterovConfig::default()
        },
        ..DecompositionConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use lrm_core::Mechanism as _;
    use lrm_dp::Epsilon;
    use lrm_workload::generators::{WRange, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn figure_panels_compile_through_the_engine() {
        let ctx = ExperimentContext {
            quiet: true,
            ..ExperimentContext::default()
        };
        let w = WRange
            .generate(6, 8, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let options = CompileOptions::with_decomposition(lrm_config(0.01, 1.2));
        let eps = Epsilon::new(1.0).unwrap();
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        for kind in FIG4_SET {
            let compiled = ctx.engine().compile(&w, kind, &options).unwrap();
            assert_eq!(compiled.meta().label, kind.label());
            let mut rng = lrm_dp::rng::derive_rng(1, 2);
            let y = compiled.answer(&x, eps, &mut rng).unwrap();
            assert_eq!(y.len(), 6, "{}", kind.label());
            assert!(compiled.expected_error(eps, Some(&x)) > 0.0);
        }
    }

    #[test]
    fn figure_sets_match_paper() {
        assert_eq!(FIG4_SET.len(), 5);
        assert_eq!(FIG7_SET.len(), 4);
        assert!(!FIG7_SET.contains(&MechanismKind::MatrixMechanism));
    }
}
