//! Workload matrix decomposition — Sections 4 and 5 of the paper.
//!
//! Finds `B ∈ R^{m×r}`, `L ∈ R^{r×n}` minimizing `tr(BᵀB)` subject to
//! `‖W − B·L‖_F ≤ γ` and `∀j Σ_i |L_ij| ≤ 1` (Formulas 7/8), via the
//! inexact Augmented Lagrangian method of **Algorithm 1**:
//!
//! * the Lagrangian subproblem
//!   `J(B,L) = ½tr(BᵀB) + ⟨π, W−BL⟩ + β/2‖W−BL‖²_F`
//!   is bi-convex and solved by alternating
//!   - the closed-form `B` update `B = (βW + π)Lᵀ(βLLᵀ + I)⁻¹` (Eq. 9,
//!     a Cholesky solve — the system is SPD by construction), and
//!   - Nesterov's projected gradient on
//!     `G(L) = β/2·tr(LᵀBᵀBL) − tr((βW+π)ᵀBL)` (Formula 10,
//!     **Algorithm 2**) with per-column L1-ball projection (Formula 11);
//! * the outer loop doubles β every 10 iterations and updates
//!   `π ← π + β(W − BL)`, stopping when `‖W−BL‖_F ≤ γ` or β saturates.
//!
//! Initialization uses the feasible construction from the Lemma 3 proof:
//! `B₀ = √ρ·U·Σ`, `L₀ = V/√ρ` (ρ = number of singular values used), which
//! is feasible because each column `v` of `V` has `‖v‖₁ ≤ √ρ·‖v‖₂ ≤ √ρ`.
//! The solver therefore starts at the Lemma 3 upper bound and improves
//! monotonically in practice.

use crate::error::CoreError;
use lrm_dp::{sensitivity, Budget, Gaussian, SensitivityNorm};
use lrm_linalg::decomp::Cholesky;
use lrm_linalg::operator::MatrixOp;
use lrm_linalg::{ops, Matrix};
use lrm_opt::{
    nesterov_projected, project_columns_l1, project_columns_l2, AlmSchedule, AlmState,
    NesterovConfig, WarmStart,
};
use lrm_workload::{Workload, WorkloadStructure};

/// Projects every column of `l` onto the unit-radius ball of the given
/// sensitivity norm — the feasible set of the pure-ε (L1/Laplace) or
/// approximate-DP (L2/Gaussian) decomposition respectively.
fn project_columns(l: &mut Matrix, radius: f64, norm: SensitivityNorm) {
    match norm {
        SensitivityNorm::L1 => {
            project_columns_l1(l, radius);
        }
        SensitivityNorm::L2 => {
            project_columns_l2(l, radius);
        }
    }
}

/// `max_j ‖L_:j‖` under the given norm — the sensitivity the feasibility
/// safety check re-asserts before privacy accounting trusts `Δ ≤ 1`.
fn max_col_norm(l: &Matrix, norm: SensitivityNorm) -> f64 {
    match norm {
        SensitivityNorm::L1 => l.max_col_abs_sum(),
        SensitivityNorm::L2 => sensitivity::l2_sensitivity(l),
    }
}

/// How to choose the inner dimension `r` of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetRank {
    /// `r = max(1, round(ratio · rank(W)))` — the paper's Fig. 3
    /// parameterization; the recommended ratio is 1.0–1.2 (Section 6.1).
    RatioOfRank(f64),
    /// An explicit `r`.
    Exact(usize),
}

impl TargetRank {
    /// Resolves to a concrete `r` for the given workload.
    pub fn resolve(&self, workload: &Workload) -> Result<usize, CoreError> {
        match *self {
            TargetRank::RatioOfRank(ratio) => {
                if !(ratio > 0.0 && ratio.is_finite()) {
                    return Err(CoreError::InvalidArgument(format!(
                        "rank ratio must be positive, got {ratio}"
                    )));
                }
                let rank = workload.rank().max(1);
                Ok(((ratio * rank as f64).round() as usize).max(1))
            }
            TargetRank::Exact(r) => {
                if r == 0 {
                    return Err(CoreError::InvalidArgument(
                        "decomposition rank r must be at least 1".into(),
                    ));
                }
                Ok(r)
            }
        }
    }
}

/// Configuration of Algorithm 1.
#[derive(Debug, Clone)]
pub struct DecompositionConfig {
    /// Inner dimension `r`; default `1.2 · rank(W)` per Section 6.1
    /// ("a good value for r is between rank(W) and 1.2·rank(W)").
    pub target_rank: TargetRank,
    /// Relaxation tolerance γ on `‖W − BL‖_F` (Formula 8). The paper's
    /// Fig. 2 shows accuracy is flat over γ ∈ [1e-4, 10] while larger γ is
    /// faster; 0.01 is the default grid point.
    pub gamma: f64,
    /// β schedule (β₀ = 1, ×2 every 10 outer iterations, as in the paper).
    pub schedule: AlmSchedule,
    /// Cap on outer (multiplier) iterations.
    pub max_outer_iters: usize,
    /// B/L alternations per subproblem solve ("approximately solve", line
    /// 3-6 of Algorithm 1).
    pub inner_alternations: usize,
    /// Relative change threshold that ends the inner loop early.
    pub inner_tol: f64,
    /// Budget for the Nesterov `L`-solver (Algorithm 2).
    pub nesterov: NesterovConfig,
    /// Extra outer iterations run after `τ ≤ γ` first holds, to let τ
    /// collapse further at (almost) no cost in Φ. This is what keeps the
    /// data-dependent structural error `‖(W−BL)x‖²` negligible — the
    /// behaviour behind the flat γ-curves of the paper's Fig. 2.
    pub polish_iters: usize,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        Self {
            target_rank: TargetRank::RatioOfRank(1.2),
            gamma: 0.01,
            schedule: AlmSchedule::default(),
            max_outer_iters: 120,
            inner_alternations: 4,
            inner_tol: 1e-7,
            nesterov: NesterovConfig {
                max_iters: 40,
                ..NesterovConfig::default()
            },
            polish_iters: 30,
        }
    }
}

impl DecompositionConfig {
    /// Validates configuration parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.gamma >= 0.0 && self.gamma.is_finite()) {
            return Err(CoreError::InvalidArgument(format!(
                "gamma must be non-negative and finite, got {}",
                self.gamma
            )));
        }
        if self.max_outer_iters == 0 || self.inner_alternations == 0 {
            return Err(CoreError::InvalidArgument(
                "iteration budgets must be at least 1".into(),
            ));
        }
        self.schedule
            .validate()
            .map_err(CoreError::InvalidArgument)?;
        Ok(())
    }
}

/// Solver diagnostics.
#[derive(Debug, Clone)]
pub struct DecompositionStats {
    /// Outer (multiplier) iterations performed.
    pub outer_iterations: usize,
    /// Final `‖W − BL‖_F`.
    pub residual: f64,
    /// Final penalty β.
    pub final_beta: f64,
    /// Whether the `residual ≤ γ` criterion fired (vs. β saturation or the
    /// iteration cap).
    pub converged: bool,
    /// `tr(BᵀB)` at the initializer (the Lemma 3 construction), for
    /// measuring how much the optimizer improved on it.
    pub initial_scale: f64,
    /// True when the solver never reached `τ ≤ γ` and the result is the
    /// (feasible) Lemma 3 initializer instead of the last ALM iterate.
    pub fell_back_to_initializer: bool,
    /// True when the run started from a caller-supplied warm-start seed
    /// (a cached decomposition) instead of the Lemma 3 construction.
    pub warm_started: bool,
}

/// The decomposition `W ≈ B·L` produced by Algorithm 1.
#[derive(Debug, Clone)]
pub struct WorkloadDecomposition {
    b: Matrix,
    l: Matrix,
    /// `W − B·L`, kept for the structural-error term of Theorem 3.
    residual_matrix: Matrix,
    /// Which column norm bounds the sensitivity of `L` — L1 for the
    /// paper's pure-ε (Laplace) mechanism, L2 for the approximate-DP
    /// (Gaussian) variant. The norm is part of the strategy's identity:
    /// an L1-feasible `L` says nothing about Gaussian calibration.
    norm: SensitivityNorm,
    stats: DecompositionStats,
}

impl WorkloadDecomposition {
    /// Runs Algorithm 1 on the workload.
    ///
    /// Every product involving `W` goes through the workload's
    /// [`MatrixOp`]: `W·Lᵀ` and `Bᵀ·W` are structured operator products,
    /// the residual is assembled as `−(B·L) + W` without materializing
    /// `W`, and the Lemma 3 initializer consumes the operator-aware SVD.
    /// For sparse/implicit workloads the dense `m×n` matrix therefore
    /// never exists — only the multiplier π and the residual are dense
    /// (they are genuinely dense objects of the algorithm), and the
    /// GEMMs against π are skipped outright while π is still zero, which
    /// covers every outer iteration of a run that converges before the
    /// first multiplier update.
    pub fn compute(workload: &Workload, config: &DecompositionConfig) -> Result<Self, CoreError> {
        Self::compute_with_init_flavored(workload, config, SensitivityNorm::L1, None)
    }

    /// Runs Algorithm 1 with the feasible set chosen by `norm`: per-column
    /// **L1** balls for the paper's pure-ε (Laplace) mechanism, per-column
    /// **L2** balls for the approximate-DP (Gaussian) variant. The L2 ball
    /// contains the L1 ball, so the Gaussian program optimizes over a
    /// strictly larger feasible set — everything else (the ALM outer loop,
    /// the convergence contract, the polish phase) is shared code.
    pub fn compute_flavored(
        workload: &Workload,
        config: &DecompositionConfig,
        norm: SensitivityNorm,
    ) -> Result<Self, CoreError> {
        Self::compute_with_init_flavored(workload, config, norm, None)
    }

    /// Runs Algorithm 1 from a warm-start seed instead of the Lemma 3
    /// construction: the seed `L` is re-projected onto the target rank
    /// (feasible by construction, see [`WarmStart::reproject_l`]) and `B`
    /// is either taken from the seed (when its shape matches exactly) or
    /// refit in closed form — the β→∞ limit of Eq. 9, which is the best
    /// `B` for the seeded `L` and works across different query counts
    /// `m`. Everything after the initializer — the outer loop, the
    /// convergence criteria, the polish phase, the safety fallbacks — is
    /// the identical code path as [`Self::compute`], so a warm-started
    /// decomposition meets exactly the same feasibility and convergence
    /// contract as a cold one; only the starting point (and therefore
    /// the recorded `outer_iterations`) differs.
    ///
    /// A seed over the wrong domain size (or a failing closed-form
    /// refit) is ignored and the run falls back to the cold initializer;
    /// `stats().warm_started` reports what actually happened.
    pub fn compute_with_init(
        workload: &Workload,
        config: &DecompositionConfig,
        init: Option<&WarmStart>,
    ) -> Result<Self, CoreError> {
        Self::compute_with_init_flavored(workload, config, SensitivityNorm::L1, init)
    }

    /// [`Self::compute_flavored`] from a warm-start seed. The seed is
    /// re-projected onto the **target** norm's feasible set
    /// ([`WarmStart::reproject_l`] / [`WarmStart::reproject_l_l2`]), which
    /// is what lets an L1-optimized neighbor seed — never serve — an L2
    /// compile: the factors carry over, the feasible set does not.
    pub fn compute_with_init_flavored(
        workload: &Workload,
        config: &DecompositionConfig,
        norm: SensitivityNorm,
        init: Option<&WarmStart>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let op = workload.op().as_ref();
        let (m, n) = op.shape();
        let w_fro = op.frobenius_sq().sqrt();
        let r = config.target_rank.resolve(workload)?;

        // --- Initialization: warm-start seed, else Lemma 3. ---
        let warm_init = init
            .filter(|seed| seed.domain_size() == n && seed.rank() > 0)
            .and_then(|seed| {
                let l = match norm {
                    SensitivityNorm::L1 => seed.reproject_l(r),
                    SensitivityNorm::L2 => seed.reproject_l_l2(r),
                };
                // Always refit B against the *new* workload (the β→∞
                // limit of Eq. 9) instead of trusting the seed's B: the
                // seed was fit to a similar-but-different W, and carrying
                // its B verbatim would bake the old workload into the
                // warm-start multiplier below. The refit also makes seeds
                // portable across query counts m.
                let b = refit_b(op, &l).ok()?;
                if b.has_non_finite() || l.has_non_finite() {
                    return None;
                }
                Some((b, l))
            });
        let warm_started = warm_init.is_some();
        let (mut b, mut l) = match warm_init {
            Some(pair) => pair,
            None => lemma3_initializer(workload, r),
        };
        debug_assert_eq!(b.shape(), (m, r));
        debug_assert_eq!(l.shape(), (r, n));
        let initial_scale = b.squared_sum();

        let mut residual = residual_of(op, &b, &l);

        // A warm seed must resume the ALM trajectory, not replay it: with
        // (near-)exact inner solves the iterates depend only on (β, π),
        // so a fresh π = 0 would let the first β₀ subproblem walk the
        // seed straight back to the high-residual regime the cold run
        // climbs out of, forgetting the seed entirely. Reconstruct the
        // multiplier from the seed's own KKT condition instead — at an
        // ALM optimum `∂(½tr(BᵀB) − ⟨π, BL⟩)/∂B = 0` gives `B = π·Lᵀ`,
        // solved (ridge-stabilized) by `π = B·(LLᵀ)⁻¹·L`. The convergence
        // criteria are untouched; only the starting multiplier differs.
        let mut alm = None;
        if warm_started {
            if let Ok(pi0) = kkt_multiplier(&b, &l) {
                alm = AlmState::with_multiplier(pi0, config.schedule.clone()).ok();
            }
        }
        let mut alm = match alm {
            Some(state) => state,
            None => {
                AlmState::new(m, n, config.schedule.clone()).map_err(CoreError::InvalidArgument)?
            }
        };
        let mut stats = DecompositionStats {
            outer_iterations: 0,
            residual: residual.frobenius_norm(),
            final_beta: alm.beta(),
            converged: stats_converged(residual.frobenius_norm(), config.gamma),
            initial_scale,
            fell_back_to_initializer: false,
            warm_started,
        };
        if stats.converged && initial_scale == 0.0 {
            // Zero workload: (B, L) = (0, 0) is already optimal.
            return Ok(Self {
                b,
                l,
                residual_matrix: residual,
                norm,
                stats,
            });
        }

        let mut lipschitz_warm_start = config.nesterov.initial_lipschitz;

        // γ far beyond a few percent of ‖W‖_F would let the loop stop at a
        // meaningless early iterate (the paper never operates there: its
        // γ ≤ 10 against ‖W‖_F in the hundreds). Clamp the *stopping*
        // threshold; the caller's γ still defines `converged`.
        let gamma_eff = config.gamma.min(0.02 * w_fro).max(1e-10);
        // Once τ ≤ γ first fires we keep iterating for a bounded number of
        // polish rounds: the ALM trajectory collapses τ by further orders
        // of magnitude at almost no cost in Φ (which is what makes the
        // paper's Fig. 2 flat in γ — the structural error ‖(W−BL)x‖²
        // becomes negligible even for large-count databases). We track the
        // best feasible iterate seen and return it.
        let polish_floor = 1e-5 * (1.0 + w_fro);
        let mut polish_remaining: Option<usize> = None;
        let mut polish_stall = 0usize;
        let mut best: Option<(Matrix, Matrix, Matrix, f64, f64)> = None; // (B, L, res, τ, Φ)
        let mut phi_at_first_feasible = f64::INFINITY;

        for _outer in 0..config.max_outer_iters {
            // Cooperative per-batch compile deadline (see
            // `lrm_opt::deadline`): an over-budget ALM run is abandoned
            // with a typed error so the serving layer can answer the
            // batch with a non-iterative fallback at the same ε. Checked
            // once per outer iteration; the Nesterov inner loop polls the
            // same token and truncates itself, bounding the overshoot to
            // roughly one inner alternation.
            lrm_testing::failpoint!("core::alm::stall");
            if lrm_opt::deadline::expired() {
                return Err(CoreError::DeadlineExceeded);
            }
            let beta = alm.beta();
            let pi = alm.multiplier();
            // Both updates target βW + π. W stays behind the operator; the
            // π GEMMs are skipped while π is still exactly zero (true for
            // every iteration before the first multiplier update — i.e.
            // the whole run, when the initializer already satisfies τ ≤ γ).
            let pi_is_zero = pi.max_abs() == 0.0;
            // Dense workloads materialize βW + π once per outer iteration
            // and run the fused GEMMs — the exact pre-operator arithmetic,
            // kept because the β=1 ALM phase is chaotic enough that a
            // different-but-equivalent rounding can change which attractor
            // a borderline run lands in. Structured workloads use the
            // split products; βW + π for them would BE the densification
            // this refactor removes.
            let fused_bw_pi: Option<Matrix> = if workload.structure() == WorkloadStructure::Dense {
                let mut bw_pi = workload.matrix().scale(beta);
                bw_pi += pi;
                Some(bw_pi)
            } else {
                None
            };

            // --- Inner loop: alternate B (Eq. 9) and L (Algorithm 2). ---
            // During the polish phase the subproblems are solved harder:
            // ALM's multiplier converges superlinearly only under
            // (near-)exact solves, and exactness is what collapses τ the
            // final orders of magnitude.
            let (alternations, nesterov_cfg) = if polish_remaining.is_some() {
                (
                    config.inner_alternations * 2,
                    NesterovConfig {
                        max_iters: config.nesterov.max_iters * 2,
                        ..config.nesterov.clone()
                    },
                )
            } else {
                (config.inner_alternations, config.nesterov.clone())
            };
            for _inner in 0..alternations {
                // (βW + π)·Lᵀ — the Eq. 9 right-hand side. Structured
                // path: W·Lᵀ is a structured operator product and the
                // dense π·Lᵀ GEMM is skipped while π = 0.
                let rhs_b = if let Some(bw_pi) = &fused_bw_pi {
                    ops::mul_tr(bw_pi, &l)?
                } else {
                    let mut rhs = op.mul_tr(&l);
                    rhs.map_inplace(|x| x * beta);
                    if !pi_is_zero {
                        rhs += &ops::mul_tr(pi, &l)?;
                    }
                    rhs
                };
                let b_new = update_b(&rhs_b, &l, beta)?;

                // Bᵀ(βW + π) — the Formula 10 linear term, same split.
                let bt_target = if let Some(bw_pi) = &fused_bw_pi {
                    ops::tr_mul(&b_new, bw_pi)?
                } else {
                    let mut t = op.tr_mul(&b_new);
                    t.map_inplace(|x| x * beta);
                    if !pi_is_zero {
                        t += &ops::tr_mul(&b_new, pi)?;
                    }
                    t
                };
                let (l_new, lipschitz) = update_l(
                    &bt_target,
                    &b_new,
                    &l,
                    beta,
                    norm,
                    &nesterov_cfg,
                    lipschitz_warm_start,
                );
                lipschitz_warm_start = (lipschitz * 0.5).max(1e-6);

                let change = relative_change(&b, &b_new) + relative_change(&l, &l_new);
                b = b_new;
                l = l_new;
                if change < config.inner_tol {
                    break;
                }
            }

            residual = residual_of(op, &b, &l);
            let mut tau = residual.frobenius_norm();

            // Warm runs check feasibility through the β→∞ refit lens every
            // iteration (cold runs only at the very end): the ALM iterate's
            // B lags the penalty schedule by design, so its τ can hover
            // just above γ for many outer iterations while the *optimal* B
            // for the current L has long been feasible. The tolerance is
            // identical — only which B is measured differs — and the same
            // Φ guard as the final refit keeps the swap from trading scale
            // for residual.
            if warm_started && tau > gamma_eff {
                if let Ok(refit) = refit_b(op, &l) {
                    let refit_residual = residual_of(op, &refit, &l);
                    let refit_tau = refit_residual.frobenius_norm();
                    let phi_ok = refit.squared_sum() <= b.squared_sum() * 1.05 + 1e-12;
                    if refit_tau <= gamma_eff && phi_ok {
                        b = refit;
                        residual = refit_residual;
                        tau = refit_tau;
                    }
                }
            }
            stats.outer_iterations += 1;
            stats.residual = tau;
            stats.final_beta = alm.beta();
            // Data-independent by construction: τ is a property of the
            // workload factorization alone (see lrm_opt::telemetry).
            lrm_opt::telemetry::observe(lrm_opt::AlmIteration {
                outer: stats.outer_iterations,
                residual: tau,
                beta: alm.beta(),
            });

            // Algorithm 1, line 8: τ ≤ γ (plus the polish rounds) or a
            // saturated β end the optimization.
            if tau <= gamma_eff {
                stats.converged = true;
                match polish_remaining {
                    None => {
                        polish_remaining = Some(config.polish_iters);
                        phi_at_first_feasible = b.squared_sum();
                        best = Some((
                            b.clone(),
                            l.clone(),
                            residual.clone(),
                            tau,
                            phi_at_first_feasible,
                        ));
                    }
                    Some(ref mut left) => {
                        let phi = b.squared_sum();
                        // Accept strictly smaller τ as long as Φ has not
                        // drifted meaningfully above the first feasible Φ.
                        if phi <= phi_at_first_feasible * 1.05 {
                            if let Some((_, _, _, best_tau, _)) = best {
                                if tau < best_tau * 0.97 {
                                    best = Some((b.clone(), l.clone(), residual.clone(), tau, phi));
                                    polish_stall = 0;
                                } else {
                                    polish_stall += 1;
                                }
                            }
                        } else {
                            polish_stall += 1;
                        }
                        if *left == 0 || polish_stall >= 5 {
                            break;
                        }
                        *left -= 1;
                    }
                }
                // τ small enough that the structural term is negligible
                // for any realistic data scale: stop polishing.
                if tau <= polish_floor {
                    break;
                }
            } else if let Some(ref mut left) = polish_remaining {
                // Fell back out of feasibility during polish; allow the
                // remaining budget to recover, else return the stored best.
                if *left == 0 {
                    break;
                }
                *left -= 1;
            }
            if alm.beta_saturated() {
                break;
            }
            alm.advance(&residual);

            // Alternating minimization can kill a direction for good: once
            // row i of L hits exactly zero (column-wise soft-thresholding
            // does this), Eq. 9 zeroes column i of B, and then the gradient
            // of Formula 10 w.r.t. row i vanishes identically — neither
            // update can revive it, no matter how large π grows. Re-seed
            // dead rows with the residual's leading right-singular
            // directions so the lost rank is spent where it reduces the
            // constraint violation most.
            if tau > gamma_eff {
                revive_dead_directions(&mut b, &mut l, &residual, norm);
            }
        }
        let had_feasible = best.is_some();
        if let Some((best_b, best_l, best_res, best_tau, _)) = best {
            b = best_b;
            l = best_l;
            residual = best_res;
            stats.residual = best_tau;
        }
        // Final exact refit of B: the β→∞ limit of Eq. 9 is the plain
        // least-squares fit B = W·Lᵀ(LLᵀ)⁻¹, which realizes the *minimum*
        // residual any B can achieve for the found L (the projection of W
        // off rowspace(L)) at a negligible Φ increase. This is what drives
        // τ the last orders of magnitude down and keeps the Theorem-3
        // structural term out of sight for any γ — the paper's flat Fig. 2.
        if let Ok(refit) = refit_b(op, &l) {
            let refit_residual = residual_of(op, &refit, &l);
            let refit_tau = refit_residual.frobenius_norm();
            // Guard: far from convergence the LS fit chases the residual
            // with an enormous Φ; only accept a cheap improvement.
            let phi_ok = refit.squared_sum() <= b.squared_sum() * 1.05 + 1e-12;
            if refit_tau < stats.residual && phi_ok {
                b = refit;
                residual = refit_residual;
                stats.residual = refit_tau;
            }
        }
        if !had_feasible && stats.residual > 0.02 * w_fro {
            // The ALM iterate is still far from W (e.g. an undersized r or
            // an exhausted budget on a hard instance). When the Lemma 3
            // initializer was essentially exact (r ≥ rank(W)), fall back
            // to it: its Φ = ρ·Σλ² is worse than a converged solve but its
            // residual is ~zero, so the mechanism's error stays bounded by
            // Lemma 3 instead of blowing up through the data-dependent
            // structural term. A final iterate within 2% of ‖W‖_F is kept
            // even if it missed the literal γ — the paper's Algorithm 1
            // likewise returns the last ALM iterate on exhaustion.
            let (init_b, init_l) = lemma3_initializer(workload, r);
            let init_residual = residual_of(op, &init_b, &init_l);
            let init_tau = init_residual.frobenius_norm();
            if init_tau < stats.residual && init_tau <= 1e-6 * (1.0 + w_fro) {
                b = init_b;
                l = init_l;
                residual = init_residual;
                stats.residual = init_tau;
                stats.fell_back_to_initializer = true;
            }
        }
        stats.converged = stats_converged(stats.residual, config.gamma);

        // Numerical safety: the Nesterov projection guarantees feasibility,
        // but re-assert it so downstream privacy accounting can rely on
        // Δ(B, L) ≤ 1 — measured in the norm this decomposition's
        // mechanism actually calibrates noise against.
        let over = max_col_norm(&l, norm);
        if over > 1.0 + 1e-9 {
            project_columns(&mut l, 1.0, norm);
            residual = residual_of(op, &b, &l);
            stats.residual = residual.frobenius_norm();
        }

        Ok(Self {
            b,
            l,
            residual_matrix: residual,
            norm,
            stats,
        })
    }

    /// Assembles a decomposition from explicit factors under sensitivity
    /// `norm` (used when the strategy store loads cached factors from
    /// disk). The residual must be `W − B·L` for the workload it will
    /// answer — the loader recomputes it rather than trusting storage.
    pub fn from_parts_with_norm(
        b: Matrix,
        l: Matrix,
        residual: Matrix,
        norm: SensitivityNorm,
    ) -> Self {
        let stats = DecompositionStats {
            outer_iterations: 0,
            residual: residual.frobenius_norm(),
            final_beta: 0.0,
            converged: true,
            initial_scale: b.squared_sum(),
            fell_back_to_initializer: false,
            warm_started: false,
        };
        Self {
            b,
            l,
            residual_matrix: residual,
            norm,
            stats,
        }
    }

    /// The `m×r` factor `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The `r×n` factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Inner dimension `r`.
    pub fn rank(&self) -> usize {
        self.b.cols()
    }

    /// Solver diagnostics.
    pub fn stats(&self) -> &DecompositionStats {
        &self.stats
    }

    /// `W − B·L`.
    pub fn residual_matrix(&self) -> &Matrix {
        &self.residual_matrix
    }

    /// The paper's query scale `Φ(B, L) = tr(BᵀB)` (Definition 1).
    pub fn scale(&self) -> f64 {
        sensitivity::query_scale(&self.b)
    }

    /// The sensitivity norm this decomposition's feasible set (and
    /// therefore its noise calibration) is defined in.
    pub fn norm(&self) -> SensitivityNorm {
        self.norm
    }

    /// The query sensitivity `Δ(B, L) = max_j ‖L_:j‖` under this
    /// decomposition's [`norm`](Self::norm) (the paper's Definition 2 for
    /// L1; the Gaussian variant's L2 twin); ≤ 1 by construction.
    pub fn sensitivity(&self) -> f64 {
        match self.norm {
            SensitivityNorm::L1 => sensitivity::l1_sensitivity(&self.l),
            SensitivityNorm::L2 => sensitivity::l2_sensitivity(&self.l),
        }
    }

    /// Lemma 1: expected squared noise error `2·Φ·Δ²/ε²` of the Laplace
    /// release. An L2 decomposition cannot be released at a pure-ε budget
    /// at all, so it reports `+∞` here — use
    /// [`Self::expected_noise_error_budget`].
    pub fn expected_noise_error(&self, eps: f64) -> f64 {
        match self.norm {
            SensitivityNorm::L1 => {
                let delta = self.sensitivity();
                2.0 * self.scale() * delta * delta / (eps * eps)
            }
            SensitivityNorm::L2 => f64::INFINITY,
        }
    }

    /// Expected squared noise error under an (ε, δ) budget: the Lemma 1
    /// Laplace formula for L1 decompositions (pure ε-DP also satisfies
    /// every (ε, δ), at unchanged noise), or `σ²·Φ` for L2 decompositions
    /// with σ from the analytic Gaussian calibration. An L2 decomposition
    /// under a pure (δ = 0) budget reports `+∞`: no finite Gaussian noise
    /// achieves ε-DP.
    pub fn expected_noise_error_budget(&self, budget: Budget) -> f64 {
        match self.norm {
            SensitivityNorm::L1 => self.expected_noise_error(budget.eps().value()),
            SensitivityNorm::L2 => {
                let delta2 = self.sensitivity();
                if delta2 == 0.0 {
                    return 0.0;
                }
                match Gaussian::calibrated(delta2, budget) {
                    Ok(g) => sensitivity::linear_gaussian_error(&self.b, g.sigma()),
                    Err(_) => f64::INFINITY,
                }
            }
        }
    }

    /// Structural error `‖(W − BL)·x‖²` of the relaxed decomposition
    /// (the data-dependent term of Theorem 3).
    pub fn structural_error(&self, x: &[f64]) -> Result<f64, CoreError> {
        let residual_answers = ops::mul_vec(&self.residual_matrix, x)?;
        Ok(residual_answers.iter().map(|v| v * v).sum())
    }
}

fn stats_converged(residual: f64, gamma: f64) -> bool {
    // "τ is sufficiently small": we treat γ as that threshold; for γ = 0 a
    // tiny numerical floor stands in.
    residual <= gamma.max(1e-10)
}

/// `W − B·L`, assembled as `−(B·L) + W` so the workload operator never has
/// to densify: the only `m×n` buffer is the residual itself (which the
/// Theorem-3 structural term genuinely needs). Bit-identical to the dense
/// `w − bl` (IEEE subtraction is `a + (−b)`).
pub(crate) fn residual_of(op: &dyn MatrixOp, b: &Matrix, l: &Matrix) -> Matrix {
    let mut out = ops::matmul(b, l).expect("decomposition shapes agree");
    out.map_inplace(|x| -x);
    op.add_to(&mut out);
    out
}

fn relative_change(old: &Matrix, new: &Matrix) -> f64 {
    let denom = old.frobenius_norm().max(1e-12);
    (new - old).frobenius_norm() / denom
}

/// The multiplier a warm-start seed would have ended with: at an ALM
/// optimum the B-stationarity of the Lagrangian gives `B = π·Lᵀ`, whose
/// ridge-stabilized solution is `π = B·(LLᵀ + δI)⁻¹·L`. For `W = B·L`
/// this makes the seed an exact fixed point of the Eq. 9 update at any β
/// — which is precisely what "resuming" the trajectory means.
fn kkt_multiplier(b: &Matrix, l: &Matrix) -> Result<Matrix, CoreError> {
    let r = l.rows();
    let base = ops::mul_tr(l, l)?; // L·Lᵀ, r×r
    let mean_eig = (base.trace()? / r as f64).max(1e-300);
    let b_norm = b.frobenius_norm().max(1e-300);
    // When the seed's L has near-dead directions, LLᵀ is nearly singular
    // and the tiniest ridge lets π blow up along the noise directions —
    // injecting a multiplier with ‖π‖ ≫ ‖B‖ makes the first subproblem
    // *diverge* instead of resume (healthy seeds measure ‖π‖/‖B‖ well
    // under 1). Escalate the ridge until the solve stops amplifying; a
    // stronger ridge only damps the weak directions, so the fixed-point
    // property is preserved exactly where it is trustworthy.
    for ridge_rel in [1e-12, 1e-8, 1e-5, 1e-2] {
        let mut sys = base.clone();
        let ridge = mean_eig * ridge_rel;
        for i in 0..r {
            let v = sys.get(i, i) + ridge;
            sys.set(i, i, v);
        }
        let chol = Cholesky::compute(&sys)?;
        let x = chol.solve_right(b)?; // B·(LLᵀ + δI)⁻¹, m×r
        let pi = ops::matmul(&x, l)?;
        if pi.frobenius_norm() <= 4.0 * b_norm {
            return Ok(pi);
        }
    }
    Err(CoreError::InvalidArgument(
        "seed factors too ill-conditioned for a multiplier warm start".into(),
    ))
}

/// The β→∞ limit of Eq. 9: the ridge-stabilized least-squares refit
/// `B = W·Lᵀ·(LLᵀ + δI)⁻¹`, used as the final step of the solver.
fn refit_b(op: &dyn MatrixOp, l: &Matrix) -> Result<Matrix, CoreError> {
    let r = l.rows();
    let rhs = op.mul_tr(l); // W·Lᵀ, m×r
    let mut sys = ops::mul_tr(l, l)?; // L·Lᵀ, r×r
    let ridge = (sys.trace()? / r as f64).max(1e-300) * 1e-12;
    for i in 0..r {
        let v = sys.get(i, i) + ridge;
        sys.set(i, i, v);
    }
    let chol = Cholesky::compute(&sys)?;
    Ok(chol.solve_right(&rhs)?)
}

/// Eq. 9: `B = (βW + π)·Lᵀ·(β·LLᵀ + I)⁻¹`, via a Cholesky solve of the SPD
/// system from the right. The caller supplies `rhs = (βW + π)·Lᵀ`, already
/// split into a structured `W·Lᵀ` product and a (skippable) `π·Lᵀ` GEMM.
fn update_b(rhs: &Matrix, l: &Matrix, beta: f64) -> Result<Matrix, CoreError> {
    let r = l.rows();
    let mut sys = ops::mul_tr(l, l)?; // L·Lᵀ, r×r
    sys = sys.scale(beta);
    sys += &Matrix::identity(r);
    let chol = Cholesky::compute(&sys)?;
    Ok(chol.solve_right(rhs)?)
}

/// Algorithm 2 on Formula 10:
/// `G(L) = β/2·tr(LᵀBᵀBL) − tr((βW+π)ᵀBL)`,
/// `∂G/∂L = β·BᵀB·L − Bᵀ(βW + π)`,
/// subject to per-column balls in the decomposition's sensitivity norm
/// (L1 per Formula 11; L2 for the Gaussian variant — a radial rescale, so
/// Algorithm 2 is otherwise unchanged). The caller supplies
/// `bt_target = Bᵀ(βW + π)` (structured `Bᵀ·W` product plus skippable
/// `Bᵀ·π` GEMM). Returns the new `L` and the discovered Lipschitz
/// estimate (used to warm-start the next call).
fn update_l(
    bt_target: &Matrix,
    b: &Matrix,
    l0: &Matrix,
    beta: f64,
    norm: SensitivityNorm,
    nesterov: &NesterovConfig,
    lipschitz_warm_start: f64,
) -> (Matrix, f64) {
    let btb = ops::gram(b); // BᵀB, r×r

    let objective = |l: &Matrix| -> f64 {
        let btbl = ops::matmul(&btb, l).expect("shapes agree");
        0.5 * beta * ops::frob_inner(l, &btbl).expect("shapes agree")
            - ops::frob_inner(bt_target, l).expect("shapes agree")
    };
    let gradient = |l: &Matrix| -> Matrix {
        let mut g = ops::matmul(&btb, l).expect("shapes agree");
        g = g.scale(beta);
        g -= bt_target;
        g
    };
    let project = move |l: &mut Matrix| {
        project_columns(l, 1.0, norm);
    };

    let cfg = NesterovConfig {
        initial_lipschitz: lipschitz_warm_start,
        ..nesterov.clone()
    };
    let result = nesterov_projected(objective, gradient, project, l0.clone(), &cfg);
    (result.x, result.lipschitz)
}

/// Detects rows of `L` whose direction has died (row of `L` and matching
/// column of `B` both ≈ 0) and re-seeds them with the top right-singular
/// vectors of the residual `W − BL`, scaled small enough that the
/// re-projected columns stay feasible. Returns the number of revived rows.
fn revive_dead_directions(
    b: &mut Matrix,
    l: &mut Matrix,
    residual: &Matrix,
    norm: SensitivityNorm,
) -> usize {
    let r = l.rows();
    let l_scale = l.max_abs().max(1e-12);
    let b_scale = b.max_abs().max(1e-12);
    let dead: Vec<usize> = (0..r)
        .filter(|&i| {
            let row_max = l.row(i).iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            let col_max = b.col(i).iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            row_max < 1e-9 * l_scale && col_max < 1e-9 * b_scale
        })
        .collect();
    if dead.is_empty() {
        return 0;
    }

    // Top right-singular directions of the residual via power iteration
    // with deflation (cheap: O(mn) per iteration, few dead rows).
    let mut deflated: Vec<Vec<f64>> = Vec::new();
    for &row_idx in &dead {
        if let Some(direction) = top_right_singular_vector(residual, &deflated) {
            // Small amplitude: the per-column L1 re-projection below keeps
            // the whole L feasible; the next B update rebalances magnitude.
            let amp = 0.05;
            let seeded: Vec<f64> = direction.iter().map(|v| v * amp).collect();
            l.set_row(row_idx, &seeded);
            deflated.push(direction);
        }
    }
    project_columns(l, 1.0, norm);
    dead.len()
}

/// Power iteration for the leading right-singular vector of `residual`,
/// orthogonalized against already-used directions. Returns a unit vector,
/// or `None` when the residual is numerically zero in the remaining space.
fn top_right_singular_vector(residual: &Matrix, deflated: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = residual.cols();
    // Deterministic start.
    let mut v: Vec<f64> = (0..n)
        .map(|j| if j % 2 == 0 { 1.0 } else { -0.5 } / (n as f64).sqrt())
        .collect();
    for _ in 0..12 {
        // Orthogonalize against deflated directions.
        for d in deflated {
            let proj = ops::dot(&v, d);
            for (vi, di) in v.iter_mut().zip(d.iter()) {
                *vi -= proj * di;
            }
        }
        let rv = ops::mul_vec(residual, &v).expect("shapes agree");
        let mut next = ops::tr_mul_vec(residual, &rv).expect("shapes agree");
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-14 {
            return None;
        }
        for x in next.iter_mut() {
            *x /= norm;
        }
        v = next;
    }
    Some(v)
}

/// The Lemma 3 construction: `B = √ρ·U·Σ`, `L = V/√ρ`, padded with zeros
/// when `r` exceeds the number of non-zero singular values and truncated
/// when `r` is smaller (then `B·L` is the best rank-`r` approximation of
/// `W`, appropriately for the relaxed Formula 8).
///
/// When `r` exceeds ρ, the extra rows of `L` are seeded with a small
/// deterministic orthogonal-ish fill (and the columns re-projected) so the
/// optimizer can actually use the extra dimensions — all-zero padding is a
/// stationary point of the alternating updates.
fn lemma3_initializer(workload: &Workload, r: usize) -> (Matrix, Matrix) {
    let (m, n) = (workload.num_queries(), workload.domain_size());
    let svd = workload.svd();
    let nonzero = svd.nonzero_singular_values();
    let rho = nonzero.len().min(r);

    let mut b = Matrix::zeros(m, r);
    let mut l = Matrix::zeros(r, n);
    if rho == 0 {
        return (b, l); // zero workload
    }
    let sqrt_rho = (rho as f64).sqrt();
    for k in 0..rho {
        let sigma = svd.singular_values[k];
        // B column k = √ρ · σ_k · u_k.
        let u_col = svd.u.col(k);
        let b_col: Vec<f64> = u_col.iter().map(|v| v * sigma * sqrt_rho).collect();
        b.set_col(k, &b_col);
        // L row k = v_kᵀ / √ρ.
        let v_row = svd.vt.row(k);
        let l_row: Vec<f64> = v_row.iter().map(|v| v / sqrt_rho).collect();
        l.set_row(k, &l_row);
    }

    if r > rho {
        // Deterministic low-amplitude fill for the surplus rows.
        let amp = 1.0 / (2.0 * (r as f64) * (n as f64)).sqrt();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        for i in rho..r {
            for j in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                l.set(i, j, amp * unit);
            }
        }
        project_columns_l1(&mut l, 1.0);
    }
    (b, l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_workload::generators::{WDiscrete, WRange, WRelated, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn decompose_default(w: &Workload) -> WorkloadDecomposition {
        WorkloadDecomposition::compute(w, &DecompositionConfig::default()).unwrap()
    }

    #[test]
    fn feasibility_on_intro_example() {
        let w = Workload::from_rows(&[
            &[1.0, 1.0, 1.0, 1.0],
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 1.0],
        ])
        .unwrap();
        let d = decompose_default(&w);
        assert!(d.sensitivity() <= 1.0 + 1e-9, "Δ = {}", d.sensitivity());
        assert!(
            d.stats().residual <= 0.011,
            "residual {} exceeds γ",
            d.stats().residual
        );
    }

    #[test]
    fn beats_or_matches_lemma3_initializer() {
        // The optimizer starts at the Lemma 3 construction; it must never
        // return something worse.
        let w = WRange
            .generate(24, 32, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let d = decompose_default(&w);
        assert!(
            d.scale() <= d.stats().initial_scale * (1.0 + 1e-6),
            "scale {} worse than init {}",
            d.scale(),
            d.stats().initial_scale
        );
    }

    #[test]
    fn improves_on_low_rank_workloads() {
        // For a genuinely low-rank workload the optimizer should improve
        // noticeably over the generic NOD-style scale.
        let gen = WRelated { base_queries: 3 };
        let w = gen.generate(20, 30, &mut StdRng::seed_from_u64(6)).unwrap();
        let d = decompose_default(&w);
        assert_eq!(d.rank(), 4); // 1.2 · 3 rounded
        assert!(d.sensitivity() <= 1.0 + 1e-9);
        // Lemma 1 error with Δ ≤ 1 is 2Φ/ε²; NOD's is 2‖W‖_F²·Δ_W²… the
        // relevant sanity check is simply Φ being finite and positive.
        assert!(d.scale() > 0.0 && d.scale().is_finite());
    }

    #[test]
    fn residual_meets_gamma_on_full_rank() {
        let w = WDiscrete::default()
            .generate(10, 12, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let cfg = DecompositionConfig {
            gamma: 0.05,
            ..DecompositionConfig::default()
        };
        let d = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        assert!(
            d.stats().residual <= 0.05 + 1e-9 || d.stats().final_beta >= 1e10,
            "residual {} with β {}",
            d.stats().residual,
            d.stats().final_beta
        );
        assert!(d.sensitivity() <= 1.0 + 1e-9);
    }

    #[test]
    fn rank_resolution() {
        let gen = WRelated { base_queries: 5 };
        let w = gen.generate(16, 20, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(TargetRank::RatioOfRank(1.0).resolve(&w).unwrap(), 5);
        assert_eq!(TargetRank::RatioOfRank(1.2).resolve(&w).unwrap(), 6);
        assert_eq!(TargetRank::RatioOfRank(2.0).resolve(&w).unwrap(), 10);
        assert_eq!(TargetRank::Exact(3).resolve(&w).unwrap(), 3);
        assert!(TargetRank::Exact(0).resolve(&w).is_err());
        assert!(TargetRank::RatioOfRank(-1.0).resolve(&w).is_err());
    }

    #[test]
    fn undersized_rank_still_feasible() {
        // r < rank(W): the equality constraint cannot be met; the solver
        // must still return a feasible-in-L, finite decomposition (the
        // relaxed Formula 8 regime; Fig. 3's ratio-0.8 points).
        let w = WRange
            .generate(12, 16, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let cfg = DecompositionConfig {
            target_rank: TargetRank::RatioOfRank(0.5),
            max_outer_iters: 40,
            ..DecompositionConfig::default()
        };
        let d = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        assert!(d.sensitivity() <= 1.0 + 1e-9);
        assert!(d.stats().residual.is_finite());
        assert!(d.stats().residual > 0.05); // genuinely cannot hit γ

        // Structural error is consistent with the stored residual.
        let x = vec![1.0; 16];
        let s = d.structural_error(&x).unwrap();
        assert!(s.is_finite());
    }

    #[test]
    fn zero_workload_short_circuits() {
        let w = Workload::new(Matrix::zeros(3, 4)).unwrap();
        let d = decompose_default(&w);
        assert_eq!(d.scale(), 0.0);
        assert_eq!(d.stats().residual, 0.0);
        assert!(d.stats().converged);
    }

    #[test]
    fn config_validation() {
        let w = Workload::from_rows(&[&[1.0, 0.0]]).unwrap();
        let bad_gamma = DecompositionConfig {
            gamma: f64::NAN,
            ..DecompositionConfig::default()
        };
        assert!(WorkloadDecomposition::compute(&w, &bad_gamma).is_err());
        let bad_iters = DecompositionConfig {
            max_outer_iters: 0,
            ..DecompositionConfig::default()
        };
        assert!(WorkloadDecomposition::compute(&w, &bad_iters).is_err());
    }

    #[test]
    fn deterministic() {
        let w = WRange
            .generate(10, 14, &mut StdRng::seed_from_u64(10))
            .unwrap();
        let d1 = decompose_default(&w);
        let d2 = decompose_default(&w);
        assert_eq!(d1.b(), d2.b());
        assert_eq!(d1.l(), d2.l());
    }

    /// A dashboard-style panel over `n` bins: `cuts` equal ranges, four
    /// quarter rollups, and the grand total — the workload family whose
    /// near-duplicates motivate warm starts.
    fn panel(n: usize, cuts: usize) -> Workload {
        let mut iv = Vec::with_capacity(cuts + 5);
        for c in 0..cuts {
            iv.push((c * n / cuts, (c + 1) * n / cuts - 1));
        }
        for q in 0..4 {
            iv.push((q * n / 4, (q + 1) * n / 4 - 1));
        }
        iv.push((0, n - 1));
        Workload::from_intervals(n, iv).unwrap()
    }

    #[test]
    fn warm_start_saves_iterations_on_a_near_duplicate() {
        // The motivating production case: the same range panel with one
        // extra cut. Seeding from the neighbor's factors must meet the
        // identical convergence contract in fewer outer iterations.
        let cfg = DecompositionConfig {
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let wa = panel(64, 15);
        let wb = panel(64, 16);
        let cold_a = WorkloadDecomposition::compute(&wa, &cfg).unwrap();
        let cold_b = WorkloadDecomposition::compute(&wb, &cfg).unwrap();
        assert!(!cold_b.stats().warm_started);

        let seed = WarmStart::new(cold_a.b().clone(), cold_a.l().clone());
        let warm_b = WorkloadDecomposition::compute_with_init(&wb, &cfg, Some(&seed)).unwrap();
        assert!(warm_b.stats().warm_started);
        assert_eq!(warm_b.stats().converged, cold_b.stats().converged);
        assert!(warm_b.sensitivity() <= 1.0 + 1e-9);
        // Same tolerance as cold: both residuals sit under the clamped γ.
        let gamma_eff = cfg.gamma.min(0.02 * wb.op().frobenius_sq().sqrt());
        assert!(warm_b.stats().residual <= gamma_eff + 1e-12);
        assert!(
            warm_b.stats().outer_iterations < cold_b.stats().outer_iterations,
            "warm {} vs cold {} iterations",
            warm_b.stats().outer_iterations,
            cold_b.stats().outer_iterations
        );
    }

    #[test]
    fn warm_start_reprojects_across_ranks() {
        // A cached rank-4 decomposition seeding a rank-6 target (and vice
        // versa) still produces a feasible, converged result.
        let w = Workload::from_intervals(24, vec![(0, 5), (6, 11), (12, 17), (18, 23)]).unwrap();
        let cfg4 = DecompositionConfig {
            target_rank: TargetRank::Exact(4),
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let cfg6 = DecompositionConfig {
            target_rank: TargetRank::Exact(6),
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let d4 = WorkloadDecomposition::compute(&w, &cfg4).unwrap();
        let seed = WarmStart::new(d4.b().clone(), d4.l().clone());

        let up = WorkloadDecomposition::compute_with_init(&w, &cfg6, Some(&seed)).unwrap();
        assert!(up.stats().warm_started);
        assert_eq!(up.rank(), 6);
        assert!(up.sensitivity() <= 1.0 + 1e-9);

        let d6 = WorkloadDecomposition::compute(&w, &cfg6).unwrap();
        let seed6 = WarmStart::new(d6.b().clone(), d6.l().clone());
        let down = WorkloadDecomposition::compute_with_init(&w, &cfg4, Some(&seed6)).unwrap();
        assert!(down.stats().warm_started);
        assert_eq!(down.rank(), 4);
        assert!(down.sensitivity() <= 1.0 + 1e-9);
    }

    #[test]
    fn mismatched_domain_seed_falls_back_to_cold() {
        let w = Workload::from_intervals(16, vec![(0, 7), (8, 15)]).unwrap();
        let other = Workload::from_intervals(32, vec![(0, 15), (16, 31)]).unwrap();
        let cfg = DecompositionConfig::default();
        let d = WorkloadDecomposition::compute(&other, &cfg).unwrap();
        let seed = WarmStart::new(d.b().clone(), d.l().clone());
        let got = WorkloadDecomposition::compute_with_init(&w, &cfg, Some(&seed)).unwrap();
        assert!(!got.stats().warm_started, "wrong-n seed must be ignored");
        assert!(got.sensitivity() <= 1.0 + 1e-9);
    }

    #[test]
    fn scale_times_sensitivity_invariance() {
        // Lemma 2: rescaling (B, L) → (αB, L/α) keeps Φ·Δ² constant; our
        // solver pins Δ ≤ 1, so Φ·Δ² ≤ Φ. Verify the reported error uses
        // the actual Δ.
        let w = WRange
            .generate(8, 10, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let d = decompose_default(&w);
        let eps = 0.5;
        let expected = 2.0 * d.scale() * d.sensitivity().powi(2) / (eps * eps);
        assert!((d.expected_noise_error(eps) - expected).abs() < 1e-9 * expected.max(1.0));
    }

    #[test]
    fn l2_flavor_is_l2_feasible_and_meets_the_same_gamma() {
        let w = WRange
            .generate(12, 16, &mut StdRng::seed_from_u64(21))
            .unwrap();
        let cfg = DecompositionConfig::default();
        let d1 = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        let d2 = WorkloadDecomposition::compute_flavored(&w, &cfg, SensitivityNorm::L2).unwrap();
        assert_eq!(d1.norm(), SensitivityNorm::L1);
        assert_eq!(d2.norm(), SensitivityNorm::L2);
        // Feasible in the L2 norm and converged under the same contract.
        assert!(d2.sensitivity() <= 1.0 + 1e-9, "Δ₂ = {}", d2.sensitivity());
        assert!(d2.stats().converged, "residual {}", d2.stats().residual);
        // The L2 ball contains the L1 ball: the Gaussian program optimizes
        // over a larger feasible set, so its scale should not blow up past
        // the Laplace program's (deterministic solver — no flake margin
        // needed beyond heuristic slack).
        assert!(
            d2.scale() <= d1.scale() * 1.25 + 1e-9,
            "Φ₂ {} vs Φ₁ {}",
            d2.scale(),
            d1.scale()
        );
    }

    #[test]
    fn l2_flavor_noise_error_needs_a_delta() {
        let w = WRange
            .generate(8, 12, &mut StdRng::seed_from_u64(22))
            .unwrap();
        let d = WorkloadDecomposition::compute_flavored(
            &w,
            &DecompositionConfig::default(),
            SensitivityNorm::L2,
        )
        .unwrap();
        // No finite Gaussian noise achieves pure ε-DP.
        assert!(d.expected_noise_error(1.0).is_infinite());
        let eps = lrm_dp::Epsilon::new(1.0).unwrap();
        assert!(d
            .expected_noise_error_budget(Budget::pure(eps))
            .is_infinite());
        // A looser δ needs less noise.
        let tight = d.expected_noise_error_budget(Budget::approx(eps, 1e-9).unwrap());
        let loose = d.expected_noise_error_budget(Budget::approx(eps, 1e-3).unwrap());
        assert!(tight.is_finite() && tight > 0.0);
        assert!(loose < tight, "loose {loose} vs tight {tight}");
        // And the error is exactly σ²·Φ.
        let budget = Budget::approx(eps, 1e-6).unwrap();
        let sigma = Gaussian::calibrated(d.sensitivity(), budget)
            .unwrap()
            .sigma();
        let err = d.expected_noise_error_budget(budget);
        assert!((err - sigma * sigma * d.scale()).abs() <= 1e-9 * err);
    }

    #[test]
    fn l1_seed_warm_starts_an_l2_compile() {
        // Cross-flavor seeding: an L1-optimized neighbor seeds the L2
        // program; the result is a fresh, L2-feasible, converged
        // decomposition — the seed is never served.
        let cfg = DecompositionConfig {
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let w = panel(64, 15);
        let l1 = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        let seed = WarmStart::new(l1.b().clone(), l1.l().clone());
        let l2 = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg,
            SensitivityNorm::L2,
            Some(&seed),
        )
        .unwrap();
        assert!(l2.stats().warm_started);
        assert_eq!(l2.norm(), SensitivityNorm::L2);
        assert!(l2.sensitivity() <= 1.0 + 1e-9);
        assert!(l2.stats().converged);
    }
}
