//! Property tests for solving Algorithm 1 over the distinct columns of
//! `W`: on workloads with repeated columns the decomposition is expanded
//! back to all `n` columns with `L` constant within each class, `Δ₁ ≤ 1`
//! over every column, the full-domain residual inside the clamped γ, and
//! no structured operator ever densified. (The L2 program is solved from
//! its dual; `l2_dual.rs` holds its properties.)
//!
//! The densification counter is process-global, so this binary holds only
//! tests that never densify.

use lrm_core::decomposition::{DecompositionConfig, WorkloadDecomposition};
use lrm_dp::SensitivityNorm;
use lrm_linalg::operator::densification_count;
use lrm_linalg::{ops, CsrOp, Matrix};
use lrm_opt::WarmStart;
use lrm_workload::Workload;
use proptest::prelude::*;

/// Strategy: two interval workloads over the same `cells · width`
/// buckets with every endpoint on the cell grid, so each cell repeats one
/// column `width` times (and cells no interval touches share the zero
/// column).
fn grid_interval_pair() -> impl Strategy<Value = (Workload, Workload)> {
    (2usize..9, 2usize..6, 1usize..12).prop_flat_map(|(cells, width, rows)| {
        let ends = || proptest::collection::vec((0..cells, 0..cells), rows);
        (ends(), ends()).prop_map(move |(a, b)| {
            let workload = |pairs: Vec<(usize, usize)>| {
                let intervals = pairs
                    .into_iter()
                    .map(|(a, b)| (a.min(b) * width, (a.max(b) + 1) * width - 1))
                    .collect();
                Workload::from_intervals(cells * width, intervals).unwrap()
            };
            (workload(a), workload(b))
        })
    })
}

/// Strategy: a sparse or dense workload whose `n` columns are copies of a
/// few random base columns.
fn repeated_columns(sparse: bool) -> impl Strategy<Value = Workload> {
    (1usize..8, 2usize..20, 1usize..5).prop_flat_map(move |(rows, cols, bases)| {
        (
            proptest::collection::vec(-2.0f64..2.0, rows * bases),
            proptest::collection::vec(0..bases, cols),
        )
            .prop_map(move |(cells, pick)| {
                let w = Matrix::from_fn(rows, cols, |i, j| cells[i * bases + pick[j]]);
                if sparse {
                    Workload::from_csr(CsrOp::from_dense(&w)).unwrap()
                } else {
                    Workload::new(w).unwrap()
                }
            })
    })
}

/// `‖W − B·L‖_F` against the workload's own rows.
fn full_residual(w: &Workload, d: &WorkloadDecomposition) -> f64 {
    let bl = ops::matmul(d.b(), d.l()).unwrap();
    let mut row = vec![0.0; w.domain_size()];
    let mut sq = 0.0;
    for i in 0..w.num_queries() {
        w.op().fill_row(i, &mut row);
        sq += row
            .iter()
            .zip(bl.row(i))
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
    }
    sq.sqrt()
}

fn check_merged(w: &Workload, seed: Option<&WarmStart>) -> Result<(), TestCaseError> {
    let cfg = DecompositionConfig::default();
    let classes = w.op().column_classes();
    let before = densification_count();
    let d = WorkloadDecomposition::compute_with_init_flavored(w, &cfg, SensitivityNorm::L1, seed)
        .unwrap();
    prop_assert_eq!(densification_count(), before, "the compile densified W");
    prop_assert_eq!(d.stats().solved_cols, classes.count());
    prop_assert_eq!(d.l().cols(), w.domain_size());

    // L is constant within each class of identical columns.
    let class_of = classes.class_of();
    let mut first = vec![usize::MAX; classes.count()];
    for (j, &c) in class_of.iter().enumerate() {
        if first[c] == usize::MAX {
            first[c] = j;
            continue;
        }
        for i in 0..d.l().rows() {
            prop_assert_eq!(d.l().get(i, j).to_bits(), d.l().get(i, first[c]).to_bits());
        }
    }

    // Δ₁ ≤ 1 over all n columns.
    prop_assert!(d.sensitivity() <= 1.0 + 1e-9, "Δ = {}", d.sensitivity());

    // The full-domain τ is the one reported, and meets the clamped γ.
    let tau = full_residual(w, &d);
    prop_assert!(
        (tau - d.stats().residual).abs() <= 1e-9 * (1.0 + tau),
        "reported τ {} vs full-domain {}",
        d.stats().residual,
        tau
    );
    let gamma_eff = cfg.gamma.min(0.02 * w.op().frobenius_sq().sqrt());
    prop_assert!(tau <= gamma_eff + 1e-9, "τ {} > γ_eff {}", tau, gamma_eff);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interval_workloads_solve_over_their_column_classes(
        (w, neighbor) in grid_interval_pair(),
    ) {
        prop_assert!(w.op().column_classes().count() < w.domain_size());
        check_merged(&w, None)?;
        // A seed from a neighbor over the same domain, class-averaged.
        let cold =
            WorkloadDecomposition::compute(&neighbor, &DecompositionConfig::default()).unwrap();
        let seed = WarmStart::new(cold.b().clone(), cold.l().clone());
        check_merged(&w, Some(&seed))?;
    }

    #[test]
    fn sparse_workloads_solve_over_their_column_classes(w in repeated_columns(true)) {
        check_merged(&w, None)?;
    }

    #[test]
    fn dense_workloads_solve_over_their_column_classes(w in repeated_columns(false)) {
        check_merged(&w, None)?;
    }
}
