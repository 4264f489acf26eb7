//! Nesterov's accelerated projected-gradient method — the paper's
//! **Algorithm 2** ("Nesterov's Projection Gradient Method").
//!
//! Minimizes a smooth convex function `G` over a convex set given only a
//! projection oracle. The Lipschitz constant `ω` is discovered by the
//! doubling line search of Algorithm 2 (line 6-13), the momentum sequence
//! is the classic `δ(t) = (1 + √(1+4δ(t−1)²))/2`, and the stopping rule is
//! the paper's `‖S − L(t)‖_F < χ` with `χ = numel · 10⁻¹²` (line 2).
//!
//! It runs the L-step of the pure-ε (L1) decomposition only; the
//! approximate-DP (L2) program is solved from its dual in `lrm_core`.
//! Inside Algorithm 1's L-step, `χ` rarely ends a solve: the iteration
//! cap does. Algorithm 1 only asks for an approximate subproblem solve,
//! and on serving-sized batches caps from 5 to 40 give the same median
//! error, so `lrm_core`'s decomposition caps each L-step at 10
//! iterations (20 in its polish phase).

use lrm_linalg::{ops, Matrix};

/// Configuration for [`nesterov_projected`].
#[derive(Debug, Clone)]
pub struct NesterovConfig {
    /// Hard cap on accelerated iterations.
    pub max_iters: usize,
    /// Per-entry stopping tolerance; the paper uses `10⁻¹²` scaled by the
    /// number of entries (Algorithm 2, line 2).
    pub tol_per_entry: f64,
    /// Initial Lipschitz estimate `ω(0)`; the paper uses 1.
    pub initial_lipschitz: f64,
    /// Cap on doubling steps inside one line search.
    pub max_backtracks: usize,
}

impl Default for NesterovConfig {
    fn default() -> Self {
        Self {
            max_iters: 200,
            tol_per_entry: 1e-12,
            initial_lipschitz: 1.0,
            max_backtracks: 60,
        }
    }
}

/// Outcome of a [`nesterov_projected`] run.
#[derive(Debug, Clone)]
pub struct NesterovResult {
    /// The final (feasible) iterate.
    pub x: Matrix,
    /// Objective value at the final iterate.
    pub objective: f64,
    /// Accelerated iterations performed.
    pub iterations: usize,
    /// Whether the `‖S − L‖_F < χ` criterion fired (as opposed to the
    /// iteration cap).
    pub converged: bool,
    /// Final Lipschitz estimate (useful as a warm start for the next call).
    pub lipschitz: f64,
}

/// Runs Algorithm 2 of the paper.
///
/// * `objective` — smooth convex `G`;
/// * `value_and_gradient` — `(G, ∇G)` at one point, in one call: the
///   extrapolation point needs both, and they usually share most of their
///   work (a quadratic's `G` and `∇G` share one matrix product);
/// * `project` — in-place Euclidean projection onto the feasible set;
/// * `x0` — starting point (projected before use).
pub fn nesterov_projected(
    objective: impl Fn(&Matrix) -> f64,
    value_and_gradient: impl Fn(&Matrix) -> (f64, Matrix),
    project: impl Fn(&mut Matrix),
    x0: Matrix,
    cfg: &NesterovConfig,
) -> NesterovResult {
    let numel = (x0.rows() * x0.cols()) as f64;
    let chi = numel * cfg.tol_per_entry;

    let mut x_prev = {
        let mut x = x0;
        project(&mut x);
        x
    };
    let mut x_curr = x_prev.clone();
    let mut omega = cfg.initial_lipschitz.max(f64::MIN_POSITIVE);
    let mut delta_prev = 0.0_f64; // δ(t−2)
    let mut delta_curr = 1.0_f64; // δ(t−1)

    for t in 1..=cfg.max_iters {
        // Cooperative compile deadline: return the current (feasible)
        // iterate early — a truncated inner solve is just a looser
        // inexact step for the ALM outer loop, which aborts itself.
        if crate::deadline::expired() {
            return NesterovResult {
                objective: objective(&x_curr),
                x: x_curr,
                iterations: t - 1,
                converged: false,
                lipschitz: omega,
            };
        }
        // Extrapolation point S = L(t) + α (L(t) − L(t−1)).
        let alpha = (delta_prev - 1.0) / delta_curr;
        let mut s = x_curr.clone();
        if t > 1 && alpha != 0.0 {
            for (sv, &pv) in s.as_mut_slice().iter_mut().zip(x_prev.as_slice()) {
                *sv += alpha * (*sv - pv);
            }
        }
        let (f_s, g_s) = value_and_gradient(&s);

        // Backtracking: find ω with G(U) ≤ G(S) + ⟨∇G(S), U−S⟩ + ω/2 ‖U−S‖².
        let mut accepted: Option<(Matrix, f64)> = None;
        let mut omega_try = omega;
        for _ in 0..cfg.max_backtracks {
            let mut u = s.clone();
            u.axpy(-1.0 / omega_try, &g_s).expect("shapes agree");
            project(&mut u);

            let step = &u - &s;
            let step_norm = step.frobenius_norm();
            if step_norm < chi {
                // Paper's convergence test (Algorithm 2, line 9-10).
                return NesterovResult {
                    objective: objective(&u),
                    x: u,
                    iterations: t,
                    converged: true,
                    lipschitz: omega_try,
                };
            }
            let f_u = objective(&u);
            let quad = f_s
                + ops::frob_inner(&g_s, &step).expect("shapes agree")
                + 0.5 * omega_try * step_norm * step_norm;
            if f_u <= quad + 1e-12 * quad.abs().max(1.0) {
                accepted = Some((u, f_u));
                break;
            }
            omega_try *= 2.0;
        }
        let (x_new, _f_new) = accepted.unwrap_or_else(|| {
            // Line search exhausted; take the last (tiny) step anyway.
            let mut u = s.clone();
            u.axpy(-1.0 / omega_try, &g_s).expect("shapes agree");
            project(&mut u);
            let f = objective(&u);
            (u, f)
        });
        omega = omega_try;

        x_prev = std::mem::replace(&mut x_curr, x_new);
        let delta_next = 0.5 * (1.0 + (1.0 + 4.0 * delta_curr * delta_curr).sqrt());
        delta_prev = delta_curr;
        delta_curr = delta_next;
    }

    NesterovResult {
        objective: objective(&x_curr),
        x: x_curr,
        iterations: cfg.max_iters,
        converged: false,
        lipschitz: omega,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1::project_columns_l1;

    /// Unconstrained quadratic: G(x) = ½‖x − c‖².
    #[test]
    fn converges_to_unconstrained_minimum() {
        let c = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let res = nesterov_projected(
            |x| 0.5 * (x - &c).squared_sum(),
            |x| (0.5 * (x - &c).squared_sum(), x - &c),
            |_x| {},
            Matrix::zeros(2, 2),
            &NesterovConfig::default(),
        );
        assert!(res.converged);
        assert!(res.x.approx_eq(&c, 1e-6), "got {:?}", res.x);
    }

    /// Constrained: minimize ½‖x − c‖² over per-column L1 balls. The
    /// solution is exactly the column-wise projection of c.
    #[test]
    fn converges_to_projection_under_l1_constraint() {
        let c = Matrix::from_rows(&[&[2.0, 0.2], &[-2.0, 0.1]]);
        let mut expected = c.clone();
        project_columns_l1(&mut expected, 1.0);

        let res = nesterov_projected(
            |x| 0.5 * (x - &c).squared_sum(),
            |x| (0.5 * (x - &c).squared_sum(), x - &c),
            |x| {
                project_columns_l1(x, 1.0);
            },
            Matrix::zeros(2, 2),
            &NesterovConfig::default(),
        );
        assert!(res.x.approx_eq(&expected, 1e-6));
        // Feasibility of the result.
        assert!(res.x.max_col_abs_sum() <= 1.0 + 1e-9);
    }

    /// Ill-conditioned quadratic — the backtracking search must discover a
    /// much larger Lipschitz constant than the initial guess.
    #[test]
    fn line_search_finds_lipschitz_constant() {
        // G(x) = ½ xᵀ D x with D = diag(1, 1000).
        let d = [1.0, 1000.0];
        let objective =
            |x: &Matrix| 0.5 * (d[0] * x.get(0, 0).powi(2) + d[1] * x.get(1, 0).powi(2));
        let gradient =
            |x: &Matrix| Matrix::from_rows(&[&[d[0] * x.get(0, 0)], &[d[1] * x.get(1, 0)]]);
        let res = nesterov_projected(
            objective,
            |x| (objective(x), gradient(x)),
            |_x| {},
            Matrix::from_rows(&[&[1.0], &[1.0]]),
            &NesterovConfig {
                max_iters: 2000,
                ..NesterovConfig::default()
            },
        );
        assert!(res.lipschitz >= 500.0, "ω = {}", res.lipschitz);
        // FISTA's O(L/t²) guarantee gives ~1e-3 here; it does much better
        // in practice but full 1e-8 accuracy is not guaranteed.
        assert!(res.objective < 1e-4, "objective = {}", res.objective);
    }

    /// The objective never increases much across accepted iterations
    /// (FISTA is not strictly monotone, but must descend overall).
    #[test]
    fn overall_descent() {
        let c = Matrix::from_fn(4, 6, |i, j| ((i * 6 + j) as f64 * 0.37).sin() * 3.0);
        let f0 = 0.5 * c.squared_sum(); // objective at x0 = 0
        let res = nesterov_projected(
            |x| 0.5 * (x - &c).squared_sum(),
            |x| (0.5 * (x - &c).squared_sum(), x - &c),
            |x| {
                project_columns_l1(x, 0.5);
            },
            Matrix::zeros(4, 6),
            &NesterovConfig::default(),
        );
        assert!(res.objective <= f0);
        assert!(res.x.max_col_abs_sum() <= 0.5 + 1e-9);
    }

    #[test]
    fn iteration_cap_respected() {
        // Ill-conditioned so that three iterations cannot possibly converge.
        let d = [1.0, 1000.0];
        let objective =
            |x: &Matrix| 0.5 * (d[0] * x.get(0, 0).powi(2) + d[1] * x.get(1, 0).powi(2));
        let gradient =
            |x: &Matrix| Matrix::from_rows(&[&[d[0] * x.get(0, 0)], &[d[1] * x.get(1, 0)]]);
        let res = nesterov_projected(
            objective,
            |x| (objective(x), gradient(x)),
            |_x| {},
            Matrix::filled(2, 1, 1.0),
            &NesterovConfig {
                max_iters: 3,
                ..NesterovConfig::default()
            },
        );
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }
}
