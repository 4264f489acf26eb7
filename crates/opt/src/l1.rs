//! Euclidean projection onto the L1 ball.
//!
//! This is the projection step of the paper's Algorithm 2 (Formula 11):
//! the constraint set `∀j Σ_i |L_ij| ≤ 1` is a product of per-column L1
//! balls, so projecting `L` amounts to `n` independent r-dimensional
//! projections. The algorithm is the sort-based method of Duchi,
//! Shalev-Shwartz, Singer & Chandra (ICML 2008) — the paper's ref \[10\] —
//! running in `O(r log r)` per column.

use lrm_linalg::Matrix;

/// Projects `v` in place onto the L1 ball of the given `radius`:
/// `argmin_w ‖w − v‖₂ s.t. ‖w‖₁ ≤ radius`.
///
/// Returns `true` when the input was already feasible (no change made).
///
/// # Panics
/// Panics if `radius` is negative or NaN.
pub fn project_l1_ball(v: &mut [f64], radius: f64) -> bool {
    project_l1_ball_with(v, radius, &mut Vec::new())
}

/// [`project_l1_ball`] with a caller-owned sort buffer, so projecting many
/// columns allocates once.
fn project_l1_ball_with(v: &mut [f64], radius: f64, mags: &mut Vec<f64>) -> bool {
    assert!(
        radius >= 0.0 && radius.is_finite(),
        "L1 ball radius must be non-negative and finite, got {radius}"
    );
    let norm1: f64 = v.iter().map(|x| x.abs()).sum();
    if norm1 <= radius {
        return true;
    }
    if radius == 0.0 {
        v.iter_mut().for_each(|x| *x = 0.0);
        return false;
    }

    // Duchi et al.: sort |v| descending, find the pivot rho, soft-threshold.
    mags.clear();
    mags.extend(v.iter().map(|x| x.abs()));
    mags.sort_unstable_by(|a, b| b.partial_cmp(a).expect("no NaN in projection input"));
    let mut cumsum = 0.0;
    let mut theta = 0.0;
    for (j, &u) in mags.iter().enumerate() {
        cumsum += u;
        let candidate = (cumsum - radius) / (j as f64 + 1.0);
        if u - candidate > 0.0 {
            theta = candidate;
        } else {
            break;
        }
    }
    for x in v.iter_mut() {
        let mag = (x.abs() - theta).max(0.0);
        *x = mag.copysign(*x);
    }
    false
}

/// The ball radius of each column in a per-column projection: one `f64`
/// for every column, or a slice with one radius per column.
pub trait ColumnRadii: Copy {
    /// The radius of column `j`.
    fn radius(self, j: usize) -> f64;
}

impl ColumnRadii for f64 {
    fn radius(self, _j: usize) -> f64 {
        self
    }
}

impl ColumnRadii for &[f64] {
    fn radius(self, j: usize) -> f64 {
        self[j]
    }
}

/// Projects every **column** of `l` onto the L1 ball of its radius — the
/// full constraint set of Formula (7)/(8) in the paper at radius 1.
///
/// Returns the number of columns that required projection.
///
/// # Panics
/// Panics if a slice of radii is shorter than the number of columns.
pub fn project_columns_l1(l: &mut Matrix, radii: impl ColumnRadii) -> usize {
    let (rows, cols) = l.shape();
    let mut col_buf = vec![0.0; rows];
    let mut mags = Vec::with_capacity(rows);
    let mut projected = 0;
    for j in 0..cols {
        for i in 0..rows {
            col_buf[i] = l.get(i, j);
        }
        if !project_l1_ball_with(&mut col_buf, radii.radius(j), &mut mags) {
            projected += 1;
            l.set_col(j, &col_buf);
        }
    }
    projected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm1(v: &[f64]) -> f64 {
        v.iter().map(|x| x.abs()).sum()
    }

    #[test]
    fn feasible_point_untouched() {
        let mut v = vec![0.2, -0.3, 0.1];
        let orig = v.clone();
        assert!(project_l1_ball(&mut v, 1.0));
        assert_eq!(v, orig);
    }

    #[test]
    fn projection_lands_on_boundary() {
        let mut v = vec![3.0, -4.0, 1.0];
        assert!(!project_l1_ball(&mut v, 1.0));
        assert!((norm1(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preserves_signs_and_order() {
        // θ = 3.5 here, so the result is (1.5, -0.5, 0).
        let mut v = vec![5.0, -4.0, 0.5];
        project_l1_ball(&mut v, 2.0);
        assert!((v[0] - 1.5).abs() < 1e-12);
        assert!((v[1] + 0.5).abs() < 1e-12);
        assert_eq!(v[2], 0.0);
        assert!(v[0] > 0.0 && v[1] < 0.0); // signs preserved
        assert!(v[0] >= -v[1]); // larger magnitude stays larger
    }

    #[test]
    fn known_projection() {
        // Project (2, 0) onto the unit L1 ball → (1, 0).
        let mut v = vec![2.0, 0.0];
        project_l1_ball(&mut v, 1.0);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert_eq!(v[1], 0.0);

        // Project (1, 1) onto the unit L1 ball → (0.5, 0.5).
        let mut w = vec![1.0, 1.0];
        project_l1_ball(&mut w, 1.0);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_zeroes_vector() {
        let mut v = vec![1.0, -2.0];
        project_l1_ball(&mut v, 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn sparsifies_small_entries() {
        // Soft-thresholding drives small coordinates to exactly zero.
        let mut v = vec![10.0, 0.01, -0.02];
        project_l1_ball(&mut v, 1.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
        assert!((v[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_in_2d() {
        // Dense grid search over the ball boundary/interior as an oracle.
        let targets = [
            [1.7, 0.3],
            [-0.9, 2.4],
            [0.2, -0.1],
            [3.0, 3.0],
            [-1.0, -1.0],
        ];
        for t in targets {
            let mut v = t.to_vec();
            project_l1_ball(&mut v, 1.0);
            let proj_dist = (v[0] - t[0]).powi(2) + (v[1] - t[1]).powi(2);
            // Oracle: sample candidate feasible points.
            let steps = 400;
            let mut best = f64::INFINITY;
            for i in 0..=steps {
                let a = -1.0 + 2.0 * i as f64 / steps as f64;
                for j in 0..=steps {
                    let b = -1.0 + 2.0 * j as f64 / steps as f64;
                    if a.abs() + b.abs() <= 1.0 {
                        let d = (a - t[0]).powi(2) + (b - t[1]).powi(2);
                        best = best.min(d);
                    }
                }
            }
            assert!(
                proj_dist <= best + 1e-4,
                "projection of {t:?} not optimal: {proj_dist} vs oracle {best}"
            );
        }
    }

    #[test]
    fn idempotent() {
        let mut v = vec![4.0, -2.0, 7.0, 0.0, -1.0];
        project_l1_ball(&mut v, 1.5);
        let once = v.clone();
        assert!(project_l1_ball(&mut v, 1.5));
        assert_eq!(v, once);
    }

    #[test]
    fn column_projection() {
        let mut l = Matrix::from_rows(&[&[2.0, 0.1], &[2.0, 0.2]]);
        let changed = project_columns_l1(&mut l, 1.0);
        assert_eq!(changed, 1); // only column 0 was infeasible
        let sums = l.col_abs_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn column_projection_per_column_radius() {
        let mut l = Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 0.2]]);
        let radii = [1.0, 4.0];
        let changed = project_columns_l1(&mut l, radii.as_slice());
        assert_eq!(changed, 1); // column 1 fits its radius of 4
        let sums = l.col_abs_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 2.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn negative_radius_panics() {
        let mut v = vec![1.0];
        project_l1_ball(&mut v, -1.0);
    }
}
