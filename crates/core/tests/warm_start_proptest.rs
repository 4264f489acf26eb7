//! Property tests for the warm-started ALM solver: seeding from an
//! arbitrary prior decomposition — same workload, a perturbed neighbor,
//! or a different rank — never weakens the convergence contract the cold
//! solver guarantees.

use lrm_core::decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
use lrm_dp::SensitivityNorm;
use lrm_opt::WarmStart;
use lrm_workload::Workload;
use proptest::prelude::*;

/// Strategy: a small random workload (entries bounded away from the
/// degenerate all-zero case by the +1 diagonal bump).
fn workload(
    mr: std::ops::Range<usize>,
    nr: std::ops::Range<usize>,
) -> impl Strategy<Value = Workload> {
    (mr, nr).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-3.0f64..3.0, m * n).prop_map(move |mut data| {
            for i in 0..m.min(n) {
                data[i * n + i] += 1.0;
            }
            let matrix = lrm_linalg::Matrix::from_vec(m, n, data).unwrap();
            Workload::new(matrix).unwrap()
        })
    })
}

fn config() -> DecompositionConfig {
    DecompositionConfig {
        target_rank: TargetRank::RatioOfRank(1.0),
        polish_iters: 0,
        ..DecompositionConfig::default()
    }
}

/// The clamped feasibility tolerance the solver converges under.
fn gamma_eff(w: &Workload, cfg: &DecompositionConfig) -> f64 {
    cfg.gamma
        .min(0.02 * w.op().frobenius_sq().sqrt())
        .max(1e-10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A warm-started compile of a perturbed neighbor satisfies exactly
    /// the tolerances the cold compile of the same workload does: the
    /// sensitivity constraint and, whenever the cold run converged, the
    /// same residual bound.
    #[test]
    fn warm_start_meets_the_cold_convergence_contract(
        w in workload(3..7, 4..10),
        bump_row in 0usize..3,
        bump_col in 0usize..4,
    ) {
        let cfg = config();
        let seed_dec = WorkloadDecomposition::compute(&w, &cfg).unwrap();

        // A near-duplicate: one entry nudged.
        let mut m = w.op().to_dense();
        let (rows, cols) = m.shape();
        let (i, j) = (bump_row % rows, bump_col % cols);
        m.set(i, j, m.get(i, j) + 0.5);
        let wb = Workload::new(m).unwrap();

        let cold = WorkloadDecomposition::compute(&wb, &cfg).unwrap();
        let seed = WarmStart::new(seed_dec.b().clone(), seed_dec.l().clone());
        let warm = WorkloadDecomposition::compute_with_init_flavored(&wb, &cfg, SensitivityNorm::L1, Some(&seed)).unwrap();

        // Identical feasibility contract, identical sensitivity bound.
        prop_assert!(warm.sensitivity() <= 1.0 + 1e-9);
        let tol = gamma_eff(&wb, &cfg);
        if cold.stats().converged {
            prop_assert!(
                warm.stats().converged,
                "cold converged (residual {}) but warm did not (residual {})",
                cold.stats().residual,
                warm.stats().residual
            );
            prop_assert!(warm.stats().residual <= tol + 1e-9);
        }
        // Factors are always finite and well-shaped.
        prop_assert_eq!(warm.l().cols(), wb.domain_size());
        prop_assert!(warm.b().as_slice().iter().all(|x| x.is_finite()));
        prop_assert!(warm.l().as_slice().iter().all(|x| x.is_finite()));
    }

    /// Seeding across ranks (truncation and padding) preserves the same
    /// contract.
    #[test]
    fn rank_reprojected_seeds_preserve_the_contract(
        w in workload(4..7, 6..10),
        target in 1usize..6,
    ) {
        let cfg = config();
        let seed_dec = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        let seed = WarmStart::new(seed_dec.b().clone(), seed_dec.l().clone());

        let cfg_r = DecompositionConfig {
            target_rank: TargetRank::Exact(target),
            ..config()
        };
        let warm = WorkloadDecomposition::compute_with_init_flavored(&w, &cfg_r, SensitivityNorm::L1, Some(&seed)).unwrap();
        prop_assert_eq!(warm.rank(), target);
        prop_assert!(warm.sensitivity() <= 1.0 + 1e-9);
        prop_assert!(warm.stats().residual.is_finite());
        // When the target rank can represent W and the cold run converges,
        // the warm run must too.
        let cold = WorkloadDecomposition::compute(&w, &cfg_r).unwrap();
        if cold.stats().converged {
            prop_assert!(
                warm.stats().converged,
                "cold converged (residual {}) but warm did not (residual {})",
                cold.stats().residual,
                warm.stats().residual
            );
        }
    }
}
