//! Property tests for the L2 (Gaussian) program solved from its dual: on
//! interval, CSR and dense workloads — with more rows than column
//! classes, all-zero column classes and rank-deficient `W` among them —
//! the strategy sits between the dual bound `t²` and `(1 + gap)·t²`, is
//! L2-feasible over all `n` columns, fits `W` exactly, and gives every
//! column of a class the same column of `L` (zero on dead classes).
//!
//! The densification counter is process-global, so this binary holds only
//! tests that never densify.

use lrm_core::decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
use lrm_core::CoreError;
use lrm_dp::SensitivityNorm;
use lrm_linalg::operator::densification_count;
use lrm_linalg::{ops, CsrOp, Matrix};
use lrm_opt::WarmStart;
use lrm_workload::Workload;
use proptest::prelude::*;
use std::time::Duration;

/// The relative gap the solver certifies.
const GAP: f64 = 1e-4;

fn decompose(w: &Workload) -> WorkloadDecomposition {
    WorkloadDecomposition::compute_flavored(w, &DecompositionConfig::default(), SensitivityNorm::L2)
        .unwrap()
}

/// Strategy: an interval workload over `cells · width` buckets with every
/// endpoint on the cell grid — up to three times as many rows as cells,
/// and cells no interval touches form an all-zero column class.
fn grid_intervals() -> impl Strategy<Value = Workload> {
    (2usize..9, 1usize..5, 1usize..25).prop_flat_map(|(cells, width, rows)| {
        proptest::collection::vec((0..cells, 0..cells), rows).prop_map(move |pairs| {
            let intervals = pairs
                .into_iter()
                .map(|(a, b)| (a.min(b) * width, (a.max(b) + 1) * width - 1))
                .collect();
            Workload::from_intervals(cells * width, intervals).unwrap()
        })
    })
}

/// Strategy: a sparse or dense workload whose `n` columns are copies of a
/// few random base columns or of the zero column; with more rows than
/// bases, `W` is rank-deficient.
fn repeated_columns(sparse: bool) -> impl Strategy<Value = Workload> {
    (1usize..9, 2usize..20, 1usize..5).prop_flat_map(move |(rows, cols, bases)| {
        (
            proptest::collection::vec(-2.0f64..2.0, rows * bases),
            proptest::collection::vec(0..bases + 1, cols),
        )
            .prop_map(move |(cells, pick)| {
                let w = Matrix::from_fn(rows, cols, |i, j| {
                    if pick[j] == bases {
                        0.0
                    } else {
                        cells[i * bases + pick[j]]
                    }
                });
                if sparse {
                    Workload::from_csr(CsrOp::from_dense(&w)).unwrap()
                } else {
                    Workload::new(w).unwrap()
                }
            })
    })
}

/// Strategy: a dense rank-2 workload `A·C` with distinct columns and up
/// to 8 rows.
fn low_rank() -> impl Strategy<Value = Workload> {
    (3usize..9, 3usize..12).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(-2.0f64..2.0, rows * 2),
            proptest::collection::vec(-2.0f64..2.0, 2 * cols),
        )
            .prop_map(move |(a, c)| {
                let w = Matrix::from_fn(rows, cols, |i, j| {
                    a[i * 2] * c[j] + a[i * 2 + 1] * c[cols + j]
                });
                Workload::new(w).unwrap()
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

fn check_dual(w: &Workload) -> Result<(), TestCaseError> {
    let before = densification_count();
    let d = decompose(w);
    prop_assert_eq!(densification_count(), before, "the compile densified W");
    let stats = d.stats();
    prop_assert!(!stats.warm_started);
    let bound = stats.dual_bound.expect("an L2 compile carries its bound");
    let gap = stats.duality_gap.expect("an L2 compile carries its gap");
    prop_assert!(
        gap <= GAP,
        "gap {} after {} steps",
        gap,
        stats.outer_iterations
    );

    // t² ≤ Φ·Δ₂² ≤ (1 + gap)·t², and the bound is below the identity
    // strategy's Φ·Δ₂² = ‖W‖²_F.
    let cost = d.scale() * d.sensitivity().powi(2);
    prop_assert!(
        bound <= cost * (1.0 + 1e-9) + 1e-12,
        "t² {} > Φ·Δ₂² {}",
        bound,
        cost
    );
    prop_assert!(
        cost <= (1.0 + gap) * bound * (1.0 + 1e-9) + 1e-12,
        "Φ·Δ₂² {} above (1 + {})·t² {}",
        cost,
        gap,
        bound
    );
    let w_fro_sq = w.op().frobenius_sq();
    prop_assert!(bound <= w_fro_sq * (1.0 + 1e-9) + 1e-12);

    // Δ₂ ≤ 1 over all n columns.
    prop_assert_eq!(d.l().cols(), w.domain_size());
    prop_assert!(d.sensitivity() <= 1.0 + 1e-9, "Δ₂ = {}", d.sensitivity());

    // B·L = W: the reported τ is the full-domain one, and it is tiny.
    let tau = full_residual(w, &d);
    prop_assert!(
        (tau - stats.residual).abs() <= 1e-9 * (1.0 + tau),
        "reported τ {} vs full-domain {}",
        stats.residual,
        tau
    );
    prop_assert!(tau <= 1e-9 * (1.0 + w_fro_sq.sqrt()), "τ = {}", tau);

    // L is bit-constant within each class, and zero on dead classes.
    let classes = w.op().column_classes();
    prop_assert_eq!(stats.solved_cols, classes.count());
    let mut zero_col = vec![true; w.domain_size()];
    let mut row = vec![0.0; w.domain_size()];
    for i in 0..w.num_queries() {
        w.op().fill_row(i, &mut row);
        for (z, &v) in zero_col.iter_mut().zip(&row) {
            *z &= v == 0.0;
        }
    }
    let mut first = vec![usize::MAX; classes.count()];
    for (j, &c) in classes.class_of().iter().enumerate() {
        if first[c] == usize::MAX {
            first[c] = j;
        }
        for i in 0..d.l().rows() {
            prop_assert_eq!(d.l().get(i, j).to_bits(), d.l().get(i, first[c]).to_bits());
            if zero_col[j] {
                prop_assert_eq!(d.l().get(i, j), 0.0);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interval_workloads_meet_the_dual_certificate(w in grid_intervals()) {
        check_dual(&w)?;
    }

    #[test]
    fn sparse_workloads_meet_the_dual_certificate(w in repeated_columns(true)) {
        check_dual(&w)?;
    }

    #[test]
    fn dense_workloads_meet_the_dual_certificate(w in repeated_columns(false)) {
        check_dual(&w)?;
    }

    #[test]
    fn rank_deficient_workloads_meet_the_dual_certificate(w in low_rank()) {
        check_dual(&w)?;
        prop_assert_eq!(decompose(&w).rank(), 2);
    }
}

#[test]
fn identity_costs_n() {
    let n = 6;
    let w = Workload::new(Matrix::identity(n)).unwrap();
    let d = decompose(&w);
    let cost = d.scale() * d.sensitivity().powi(2);
    assert!((cost - n as f64).abs() <= 1e-9, "Φ·Δ₂² = {cost}");
    assert!((d.stats().dual_bound.unwrap() - n as f64).abs() <= 1e-9);
}

#[test]
fn single_total_query_costs_one() {
    let w = Workload::from_intervals(10, vec![(0, 9)]).unwrap();
    let d = decompose(&w);
    assert_eq!(d.rank(), 1);
    assert!((d.scale() - 1.0).abs() <= 1e-9, "Φ = {}", d.scale());
    assert!((d.sensitivity() - 1.0).abs() <= 1e-12);
}

#[test]
fn a_zero_workload_compiles_to_zero_factors() {
    let w = Workload::from_csr(CsrOp::from_row_entries(3, 5, &[vec![], vec![], vec![]])).unwrap();
    let d = decompose(&w);
    assert_eq!(d.scale(), 0.0);
    assert_eq!(d.sensitivity(), 0.0);
    assert_eq!(d.stats().residual, 0.0);
}

#[test]
fn seeds_are_ignored() {
    let w = Workload::from_intervals(16, vec![(0, 7), (4, 11), (0, 15)]).unwrap();
    let cold = decompose(&w);
    let seed = WarmStart::new(cold.b().clone(), cold.l().clone());
    let seeded = WorkloadDecomposition::compute_with_init_flavored(
        &w,
        &DecompositionConfig::default(),
        SensitivityNorm::L2,
        Some(&seed),
    )
    .unwrap();
    assert!(!seeded.stats().warm_started);
    assert_eq!(seeded.b(), cold.b());
    assert_eq!(seeded.l(), cold.l());
}

#[test]
fn a_target_rank_below_rank_w_is_refused() {
    let w = Workload::from_intervals(16, vec![(0, 7), (4, 11), (0, 15)]).unwrap();
    let cfg = DecompositionConfig {
        target_rank: TargetRank::Exact(2),
        ..DecompositionConfig::default()
    };
    let err = WorkloadDecomposition::compute_flavored(&w, &cfg, SensitivityNorm::L2).unwrap_err();
    assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    // At or above rank(W) the strategy is the same exact one.
    let cfg = DecompositionConfig {
        target_rank: TargetRank::Exact(3),
        ..cfg
    };
    let d = WorkloadDecomposition::compute_flavored(&w, &cfg, SensitivityNorm::L2).unwrap();
    assert_eq!(d.rank(), 3);
}

#[test]
fn an_expired_deadline_abandons_the_solve() {
    let w = Workload::from_intervals(16, vec![(0, 7), (4, 11), (0, 15)]).unwrap();
    let deadline = lrm_opt::deadline::Deadline::after(Duration::ZERO);
    let result = lrm_opt::deadline::with_deadline(deadline, || {
        WorkloadDecomposition::compute_flavored(
            &w,
            &DecompositionConfig::default(),
            SensitivityNorm::L2,
        )
    });
    assert_eq!(result.unwrap_err(), CoreError::DeadlineExceeded);
}
