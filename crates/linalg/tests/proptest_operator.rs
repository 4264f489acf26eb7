//! Property-based agreement tests: every structured [`MatrixOp`]
//! implementation must match the dense reference to 1e-10 on all the
//! products the LRM pipeline uses.

use lrm_linalg::operator::{op_logical_eq, ColumnClasses, CsrOp, DenseOp, IntervalsOp, MatrixOp};
use lrm_linalg::{ops, Matrix};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a sparse `r×c` matrix (entries zeroed with high probability).
fn sparse_matrix(
    r: std::ops::Range<usize>,
    c: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (r, c).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((-10.0f64..10.0, 0u8..4), rows * cols).prop_map(move |cells| {
            let data = cells
                .into_iter()
                .map(|(v, keep)| if keep == 0 { v } else { 0.0 })
                .collect();
            Matrix::from_vec(rows, cols, data).unwrap()
        })
    })
}

/// Strategy: inclusive intervals over a domain of size `n`, plus `n`.
fn intervals(
    rows: std::ops::Range<usize>,
    n: std::ops::Range<usize>,
) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    n.prop_flat_map(move |cols| {
        proptest::collection::vec((0..cols, 0..cols), rows.clone()).prop_map(move |pairs| {
            (
                cols,
                pairs
                    .into_iter()
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect(),
            )
        })
    })
}

/// Strategy: an `r×n` matrix whose columns are drawn from a few base
/// columns, so classes of repeated columns are common. Entries include
/// `-0.0`, which must not merge with `+0.0`.
fn repeated_columns(
    r: std::ops::Range<usize>,
    n: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (r, n, 1usize..6).prop_flat_map(|(rows, cols, bases)| {
        (
            proptest::collection::vec(0u8..4, rows * bases),
            proptest::collection::vec(0..bases, cols),
        )
            .prop_map(move |(cells, pick)| {
                let value = |code: u8| [0.0, 1.0, -0.0, 2.5][code as usize];
                Matrix::from_fn(rows, cols, |i, j| value(cells[i * bases + pick[j]]))
            })
    })
}

/// Column classes by comparing whole dense columns bit for bit.
fn reference_classes(a: &Matrix) -> ColumnClasses {
    let mut ids: HashMap<Vec<u64>, usize> = HashMap::new();
    let labels = (0..a.cols())
        .map(|j| {
            let bits: Vec<u64> = a.col(j).iter().map(|v| v.to_bits()).collect();
            let next = ids.len();
            *ids.entry(bits).or_insert(next)
        })
        .collect();
    ColumnClasses::from_labels(labels)
}

fn dense_of(op: &dyn MatrixOp) -> Matrix {
    let (m, n) = op.shape();
    let mut out = Matrix::zeros(m, n);
    let mut buf = vec![0.0; n];
    for i in 0..m {
        op.fill_row(i, &mut buf);
        out.row_mut(i).copy_from_slice(&buf);
    }
    out
}

/// Asserts every operator product agrees with the dense reference.
fn assert_matches_dense(
    op: &dyn MatrixOp,
    reference: &Matrix,
    x: &[f64],
    y: &[f64],
    k: usize,
) -> Result<(), TestCaseError> {
    let (m, n) = reference.shape();
    prop_assert_eq!(op.shape(), (m, n));

    // matvec / matvec_t.
    let got = op.matvec(x);
    let want = ops::mul_vec(reference, x).unwrap();
    for (g, w) in got.iter().zip(want.iter()) {
        prop_assert!((g - w).abs() < 1e-10, "matvec {} vs {}", g, w);
    }
    let got_t = op.matvec_t(y);
    let want_t = ops::tr_mul_vec(reference, y).unwrap();
    for (g, w) in got_t.iter().zip(want_t.iter()) {
        prop_assert!((g - w).abs() < 1e-10, "matvec_t {} vs {}", g, w);
    }

    // SpMM in all four orientations the solver uses.
    let rhs = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    prop_assert!(op
        .apply_right(&rhs)
        .approx_eq(&ops::matmul(reference, &rhs).unwrap(), 1e-10));
    let lhs = Matrix::from_fn(k, m, |i, j| ((i * 5 + j) % 13) as f64 - 6.0);
    prop_assert!(op
        .apply_left(&lhs)
        .approx_eq(&ops::matmul(&lhs, reference).unwrap(), 1e-10));
    let rt = Matrix::from_fn(k, n, |i, j| ((i + j * 2) % 9) as f64 - 4.0);
    prop_assert!(op
        .mul_tr(&rt)
        .approx_eq(&ops::mul_tr(reference, &rt).unwrap(), 1e-10));
    let lt = Matrix::from_fn(m, k, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
    prop_assert!(op
        .tr_mul(&lt)
        .approx_eq(&ops::tr_mul(&lt, reference).unwrap(), 1e-10));

    // Norms, column sums, Grams, residual assembly.
    prop_assert!((op.frobenius_sq() - reference.squared_sum()).abs() < 1e-10);
    let cs = op.col_abs_sums();
    for (g, w) in cs.iter().zip(reference.col_abs_sums().iter()) {
        prop_assert!((g - w).abs() < 1e-10, "col_abs_sums {} vs {}", g, w);
    }
    let mut acc = Matrix::from_fn(m, n, |i, j| ((i + j) % 5) as f64 - 2.0);
    let mut want_acc = acc.clone();
    op.add_to(&mut acc);
    want_acc.axpy(1.0, reference).unwrap();
    prop_assert!(acc.approx_eq(&want_acc, 1e-10));

    let (g, rows_side) = op.gram_small();
    let want_g = if rows_side {
        ops::mul_tr(reference, reference).unwrap()
    } else {
        ops::gram(reference)
    };
    prop_assert!(g.approx_eq(&want_g, 1e-9 * (1.0 + reference.squared_sum())));
    prop_assert!(op.gram_cols().approx_eq(
        &ops::gram(reference),
        1e-9 * (1.0 + reference.squared_sum())
    ));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn csr_agrees_with_dense(
        a in sparse_matrix(1..12, 1..12),
        x_seed in -5.0f64..5.0,
    ) {
        let op = CsrOp::from_dense(&a);
        let (m, n) = a.shape();
        let x: Vec<f64> = (0..n).map(|j| x_seed + j as f64 * 0.71).collect();
        let y: Vec<f64> = (0..m).map(|i| -x_seed + i as f64 * 0.37).collect();
        assert_matches_dense(&op, &a, &x, &y, 3)?;
        // And the dense wrapper agrees with itself.
        assert_matches_dense(&DenseOp::new(a.clone()), &a, &x, &y, 3)?;
    }

    #[test]
    fn intervals_agree_with_dense(
        (n, ivs) in intervals(1..14, 1..40),
        x_seed in -5.0f64..5.0,
    ) {
        let op = IntervalsOp::new(n, ivs);
        let reference = dense_of(&op);
        let m = op.rows();
        let x: Vec<f64> = (0..n).map(|j| x_seed + j as f64 * 0.29).collect();
        let y: Vec<f64> = (0..m).map(|i| -x_seed + i as f64 * 0.53).collect();
        assert_matches_dense(&op, &reference, &x, &y, 4)?;
    }

    #[test]
    fn representations_are_logically_equal(
        (n, ivs) in intervals(1..10, 1..24),
    ) {
        let implicit = IntervalsOp::new(n, ivs);
        let reference = dense_of(&implicit);
        let csr = CsrOp::from_dense(&reference);
        let dense = DenseOp::new(reference.clone());
        prop_assert!(op_logical_eq(&implicit, &csr));
        prop_assert!(op_logical_eq(&implicit, &dense));
        prop_assert!(op_logical_eq(&csr, &dense));
    }

    #[test]
    fn interval_column_classes_match_dense_reference(
        (n, ivs) in intervals(1..12, 1..48),
    ) {
        let op = IntervalsOp::new(n, ivs);
        let want = reference_classes(&dense_of(&op));
        prop_assert_eq!(op.column_classes(), want.clone());
        // The generic row-refinement default agrees too.
        prop_assert_eq!(DenseOp::new(dense_of(&op)).column_classes(), want);
    }

    #[test]
    fn csr_and_dense_column_classes_match_dense_reference(
        a in repeated_columns(1..8, 1..30),
    ) {
        let want = reference_classes(&a);
        prop_assert_eq!(CsrOp::from_dense(&a).column_classes(), want.clone());
        prop_assert_eq!(DenseOp::new(a.clone()).column_classes(), want.clone());
        let sizes: usize = want.sizes().iter().sum();
        prop_assert_eq!(sizes, a.cols());
    }
}
