//! Euclidean projection onto the L2 ball.
//!
//! The approximate-DP variant of the decomposition constrains every
//! column of `L` by its **Euclidean** norm (`∀j ‖L_:j‖₂ ≤ 1`), because
//! the Gaussian mechanism's noise is calibrated against L2 sensitivity
//! (journal extension of the paper, arXiv:1502.07526). Its strategy is
//! built feasible in closed form; this projection only re-asserts the
//! constraint before noise is calibrated against it. Unlike the L1 case
//! there is no sorting involved: the projection onto an L2 ball is a pure
//! radial rescale, `O(r)` per column.

use crate::l1::ColumnRadii;
use lrm_linalg::Matrix;

/// Projects `v` in place onto the L2 ball of the given `radius`:
/// `argmin_w ‖w − v‖₂ s.t. ‖w‖₂ ≤ radius` — i.e. rescale by
/// `radius/‖v‖₂` when infeasible.
///
/// Returns `true` when the input was already feasible (no change made).
///
/// # Panics
/// Panics if `radius` is negative or NaN.
pub fn project_l2_ball(v: &mut [f64], radius: f64) -> bool {
    assert!(
        radius >= 0.0 && radius.is_finite(),
        "L2 ball radius must be non-negative and finite, got {radius}"
    );
    let norm2: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm2 <= radius {
        return true;
    }
    if radius == 0.0 {
        v.iter_mut().for_each(|x| *x = 0.0);
        return false;
    }
    let scale = radius / norm2;
    v.iter_mut().for_each(|x| *x *= scale);
    false
}

/// Projects every **column** of `l` onto the L2 ball of its radius — the
/// constraint set of the approximate-DP decomposition at radius 1 (the
/// L2 twin of [`crate::l1::project_columns_l1`]).
///
/// Returns the number of columns that required projection.
///
/// # Panics
/// Panics if a slice of radii is shorter than the number of columns.
pub fn project_columns_l2(l: &mut Matrix, radii: impl ColumnRadii) -> usize {
    let (rows, cols) = l.shape();
    let mut col_buf = vec![0.0; rows];
    let mut projected = 0;
    for j in 0..cols {
        for i in 0..rows {
            col_buf[i] = l.get(i, j);
        }
        if !project_l2_ball(&mut col_buf, radii.radius(j)) {
            projected += 1;
            l.set_col(j, &col_buf);
        }
    }
    projected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm2(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    #[test]
    fn feasible_point_untouched() {
        let mut v = vec![0.3, -0.4, 0.5];
        let orig = v.clone();
        assert!(project_l2_ball(&mut v, 1.0));
        assert_eq!(v, orig);
    }

    #[test]
    fn projection_lands_on_boundary_preserving_direction() {
        let mut v = vec![3.0, -4.0];
        assert!(!project_l2_ball(&mut v, 1.0));
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        // Direction preserved: (3, -4)/5 = (0.6, -0.8).
        assert!((v[0] - 0.6).abs() < 1e-12);
        assert!((v[1] + 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_zeroes_vector() {
        let mut v = vec![1.0, -2.0];
        project_l2_ball(&mut v, 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn idempotent() {
        let mut v = vec![4.0, -2.0, 7.0];
        project_l2_ball(&mut v, 1.5);
        let once = v.clone();
        assert!(project_l2_ball(&mut v, 1.5));
        assert_eq!(v, once);
    }

    #[test]
    fn l2_ball_contains_l1_ball() {
        // Any L1-feasible point is L2-feasible (‖·‖₂ ≤ ‖·‖₁), so the L2
        // projection must leave the L1 projection's output untouched.
        let mut v = vec![2.0, -3.0, 0.5, 1.0];
        crate::l1::project_l1_ball(&mut v, 1.0);
        assert!(project_l2_ball(&mut v, 1.0));
    }

    #[test]
    fn column_projection() {
        let mut l = Matrix::from_rows(&[&[3.0, 0.1], &[4.0, 0.2]]);
        let changed = project_columns_l2(&mut l, 1.0);
        assert_eq!(changed, 1); // only column 0 was infeasible
        let c0 = [l.get(0, 0), l.get(1, 0)];
        assert!((norm2(&c0) - 1.0).abs() < 1e-12);
        assert!((l.get(0, 1) - 0.1).abs() < 1e-15);
        assert!((l.get(1, 1) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn column_projection_per_column_radius() {
        let mut l = Matrix::from_rows(&[&[3.0, 3.0], &[4.0, 4.0]]);
        let radii = [1.0, 5.0];
        let changed = project_columns_l2(&mut l, radii.as_slice());
        assert_eq!(changed, 1); // column 1 sits on its radius of 5
        assert!((norm2(&[l.get(0, 0), l.get(1, 0)]) - 1.0).abs() < 1e-12);
        assert_eq!((l.get(0, 1), l.get(1, 1)), (3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn negative_radius_panics() {
        let mut v = vec![1.0];
        project_l2_ball(&mut v, -1.0);
    }
}
