//! Warm-start seeding for the ALM solver of **Algorithm 1**.
//!
//! The Lemma 3 SVD construction is a fine *cold* initializer, but when a
//! near-duplicate workload has already been decomposed (the same
//! dashboard panel at 33 cuts vs 34), its `(B, L)` factors are a far
//! better starting point: the ALM outer loop spends most of its
//! iterations rediscovering structure the cached factors already carry.
//! This module holds the seed container and the **rank re-projection**
//! that lets a cached decomposition of nearby rank seed a different
//! target rank:
//!
//! * truncating keeps the `target_rank` directions with the largest
//!   contribution to `B·L` (measured as `‖b_i‖₂·‖l_i‖₂` per direction);
//! * padding appends low-amplitude deterministic fill rows — all-zero
//!   rows are stationary points of the alternating `B`/`L` updates, so
//!   zero padding would waste the extra rank;
//! * either way the columns of the result are re-projected onto the L1
//!   ball so the seed is feasible (`Δ(B, L) ≤ 1`) from iteration one.

use crate::l1::project_columns_l1;
use lrm_linalg::Matrix;

/// A warm-start initializer for Algorithm 1: the factors of a previously
/// computed decomposition, possibly for a *different* workload (and a
/// different query count `m`) over the same domain size `n`.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Seed `B` (`m_seed × r_seed`). Only usable directly when its shape
    /// matches the target problem exactly; otherwise the solver discards
    /// it and refits `B` from the re-projected `L` (the closed-form
    /// least-squares fit is the β→∞ limit of the paper's Eq. 9).
    pub b: Matrix,
    /// Seed `L` (`r_seed × n`). Must match the target domain size `n`.
    pub l: Matrix,
}

impl WarmStart {
    /// Wraps seed factors. Panics if the inner dimensions disagree — the
    /// pair must come from one decomposition.
    pub fn new(b: Matrix, l: Matrix) -> Self {
        assert_eq!(
            b.cols(),
            l.rows(),
            "warm-start factors must share an inner dimension"
        );
        Self { b, l }
    }

    /// Inner dimension `r_seed` of the seed.
    pub fn rank(&self) -> usize {
        self.l.rows()
    }

    /// Domain size `n` the seed was computed over.
    pub fn domain_size(&self) -> usize {
        self.l.cols()
    }

    /// Re-projects the seed `L` onto `target_rank` rows (see the
    /// [module docs](self) for the truncation/padding policy) and
    /// re-projects every column onto the unit L1 ball. The result is a
    /// feasible `target_rank × n` starting `L` for the pure ε-DP
    /// (Laplace, L1-sensitivity) decomposition.
    pub fn reproject_l(&self, target_rank: usize) -> Matrix {
        assert!(target_rank > 0, "target rank must be at least 1");
        let (r_seed, n) = self.l.shape();
        let mut l = Matrix::zeros(target_rank, n);

        // Rank directions ordered by their contribution to B·L:
        // ‖b_i·l_iᵀ‖_F = ‖b_i‖₂·‖l_i‖₂.
        let mut order: Vec<(f64, usize)> = (0..r_seed)
            .map(|i| {
                let l_norm: f64 = self.l.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
                let b_norm: f64 = self.b.col(i).iter().map(|v| v * v).sum::<f64>().sqrt();
                (l_norm * b_norm, i)
            })
            .collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        let copied = r_seed.min(target_rank);
        for (dst, &(_, src)) in order.iter().take(copied).enumerate() {
            l.set_row(dst, self.l.row(src));
        }

        // Surplus rows (target_rank > r_seed) and dead copied rows get a
        // low-amplitude deterministic fill — the same LCG idiom as the
        // Lemma 3 surplus padding — so every direction is alive.
        let amp = 1.0 / (2.0 * (target_rank as f64) * (n as f64)).sqrt();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut fill = |row: &mut [f64]| {
            for v in row.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                *v = amp * unit;
            }
        };
        for i in 0..target_rank {
            let dead = l.row(i).iter().all(|&v| v.abs() < 1e-300);
            if dead {
                fill(l.row_mut(i));
            }
        }

        project_columns_l1(&mut l, 1.0);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(m: usize, r: usize, n: usize) -> WarmStart {
        // Direction i has magnitude (r - i): importance order is 0, 1, …
        let b = Matrix::from_fn(m, r, |_, j| (r - j) as f64);
        let l = Matrix::from_fn(r, n, |i, j| {
            if j == i % n {
                (r - i) as f64 * 0.1
            } else {
                0.0
            }
        });
        WarmStart::new(b, l)
    }

    #[test]
    fn same_rank_round_trips_up_to_projection() {
        let s = seed(5, 3, 8);
        let l = s.reproject_l(3);
        assert_eq!(l.shape(), (3, 8));
        // Columns feasible.
        assert!(l.max_col_abs_sum() <= 1.0 + 1e-12);
    }

    #[test]
    fn truncation_keeps_the_heaviest_directions() {
        let s = seed(5, 4, 8);
        let l = s.reproject_l(2);
        assert_eq!(l.shape(), (2, 8));
        // Directions 0 and 1 carried the largest ‖b‖·‖l‖ products; their
        // support columns (0 and 1) must be the ones populated.
        assert!(l.get(0, 0).abs() > 0.0);
        assert!(l.get(1, 1).abs() > 0.0);
    }

    #[test]
    fn padding_fills_surplus_rows_with_live_directions() {
        let s = seed(5, 2, 8);
        let l = s.reproject_l(5);
        assert_eq!(l.shape(), (5, 8));
        for i in 0..5 {
            let row_mass: f64 = l.row(i).iter().map(|v| v.abs()).sum();
            assert!(row_mass > 0.0, "row {i} is dead");
        }
        assert!(l.max_col_abs_sum() <= 1.0 + 1e-12);
    }

    #[test]
    fn dead_seed_rows_are_revived() {
        let b = Matrix::filled(4, 3, 1.0);
        let mut l = Matrix::zeros(3, 6);
        l.set(0, 2, 0.5); // rows 1, 2 are dead
        let s = WarmStart::new(b, l);
        let out = s.reproject_l(3);
        for i in 0..3 {
            let row_mass: f64 = out.row(i).iter().map(|v| v.abs()).sum();
            assert!(row_mass > 0.0, "row {i} is dead");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn mismatched_factors_rejected() {
        let _ = WarmStart::new(Matrix::zeros(4, 3), Matrix::zeros(2, 6));
    }
}
