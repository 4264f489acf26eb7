//! Property-based tests for the optimization toolkit.

use lrm_linalg::Matrix;
use lrm_opt::{nesterov_projected, project_columns_l1, project_l1_ball, NesterovConfig, SmoothMax};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Projection output is feasible, idempotent, and no farther from the
    /// input than any sampled feasible point (optimality certificate by
    /// the obtuse-angle criterion).
    #[test]
    fn l1_projection_properties(
        v in proptest::collection::vec(-20.0f64..20.0, 1..12),
        radius in 0.1f64..10.0,
    ) {
        let mut p = v.clone();
        project_l1_ball(&mut p, radius);
        let norm1: f64 = p.iter().map(|x| x.abs()).sum();
        prop_assert!(norm1 <= radius + 1e-9, "infeasible: {norm1} > {radius}");

        // Idempotence up to round-off (the first projection can land a few
        // ulps outside the ball, making the second one a near-no-op).
        let mut pp = p.clone();
        project_l1_ball(&mut pp, radius);
        for (a, b) in p.iter().zip(pp.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "projection not idempotent: {a} vs {b}");
        }

        // Optimality: ⟨v − p, q − p⟩ ≤ 0 for feasible q (here: vertices
        // of the ball — the extreme points suffice for polytopes).
        for i in 0..v.len() {
            for &sign in &[1.0, -1.0] {
                let mut q = vec![0.0; v.len()];
                q[i] = sign * radius;
                let inner: f64 = v
                    .iter()
                    .zip(p.iter())
                    .zip(q.iter())
                    .map(|((vi, pi), qi)| (vi - pi) * (qi - pi))
                    .sum();
                prop_assert!(inner <= 1e-7, "obtuse-angle violated: {inner}");
            }
        }
    }

    /// Projection never increases the norm and shrinkage is monotone in
    /// the radius.
    #[test]
    fn l1_projection_monotone_in_radius(
        v in proptest::collection::vec(-20.0f64..20.0, 1..10),
        r1 in 0.1f64..5.0,
        dr in 0.0f64..5.0,
    ) {
        let r2 = r1 + dr;
        let mut p1 = v.clone();
        project_l1_ball(&mut p1, r1);
        let mut p2 = v.clone();
        project_l1_ball(&mut p2, r2);
        let n1: f64 = p1.iter().map(|x| x.abs()).sum();
        let n2: f64 = p2.iter().map(|x| x.abs()).sum();
        prop_assert!(n1 <= n2 + 1e-9);
    }

    /// Column projection makes every column feasible and leaves already
    /// feasible columns untouched.
    #[test]
    fn column_projection_feasible(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut l = Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        });
        let before = l.clone();
        project_columns_l1(&mut l, 1.0);
        for (j, sum) in l.col_abs_sums().iter().enumerate() {
            prop_assert!(*sum <= 1.0 + 1e-9, "column {j} infeasible: {sum}");
        }
        for j in 0..cols {
            let before_sum: f64 = before.col(j).iter().map(|x| x.abs()).sum();
            if before_sum <= 1.0 {
                prop_assert_eq!(l.col(j), before.col(j), "feasible column {} changed", j);
            }
        }
    }

    /// Nesterov on a strongly convex quadratic converges to the projected
    /// target (which is the constrained optimum).
    #[test]
    fn nesterov_finds_projected_target(
        rows in 1usize..4,
        cols in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let c = Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0
        });
        let mut expected = c.clone();
        project_columns_l1(&mut expected, 1.0);
        let result = nesterov_projected(
            |x| 0.5 * (x - &c).squared_sum(),
            |x| (0.5 * (x - &c).squared_sum(), x - &c),
            |x| { project_columns_l1(x, 1.0); },
            Matrix::zeros(rows, cols),
            &NesterovConfig { max_iters: 500, ..NesterovConfig::default() },
        );
        prop_assert!(
            result.x.approx_eq(&expected, 1e-4),
            "Nesterov result differs from projection"
        );
    }

    /// Smooth max brackets the true max uniformly.
    #[test]
    fn smooth_max_brackets(
        v in proptest::collection::vec(-100.0f64..100.0, 1..20),
        mu in 0.01f64..2.0,
    ) {
        let sm = SmoothMax::new(mu);
        let f = sm.value(&v);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(f >= max - 1e-9);
        prop_assert!(f <= max + mu * (v.len() as f64).ln() + 1e-9);
        // Gradient is a probability vector.
        let g = sm.gradient(&v);
        let sum: f64 = g.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(g.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }
}
