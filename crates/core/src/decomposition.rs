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
//!
//! When `W` repeats columns (grid-snapped range batches do, heavily), the
//! solver runs over one weighted column per class of identical columns and
//! expands `L` back to all `n` columns (see `merged_workload`): the merged
//! program has the full program's optimum, Φ, τ and Δ, at `k/n` of the
//! cost per `L` step. A merged workload with more rows than columns is
//! solved over its `k×k` QR factor (see `compress_rows`), the same program
//! at `k/m` of the cost of every row-side product.

use crate::error::CoreError;
use lrm_dp::{sensitivity, Budget, Gaussian, SensitivityNorm};
use lrm_linalg::decomp::{Cholesky, Qr, Svd};
use lrm_linalg::operator::{ColumnClasses, CsrOp, MatrixOp};
use lrm_linalg::{ops, Matrix};
use lrm_opt::{
    nesterov_projected, project_columns_l1, project_columns_l2, AlmSchedule, AlmState, ColumnRadii,
    NesterovConfig, WarmStart,
};
use lrm_workload::{Workload, WorkloadStructure};

/// Projects every column of `l` onto its ball of the given sensitivity
/// norm — the feasible set of the pure-ε (L1/Laplace) or approximate-DP
/// (L2/Gaussian) decomposition respectively.
fn project_columns(l: &mut Matrix, radii: impl ColumnRadii, norm: SensitivityNorm) {
    match norm {
        SensitivityNorm::L1 => {
            project_columns_l1(l, radii);
        }
        SensitivityNorm::L2 => {
            project_columns_l2(l, radii);
        }
    }
}

/// The feasible set of `L` in one solve: per-column balls in `norm`, of
/// radius 1 over the full domain or `√d_c` over merged column classes.
#[derive(Debug, Clone, Copy)]
struct Feasible<'a> {
    norm: SensitivityNorm,
    radii: &'a [f64],
}

impl Feasible<'_> {
    fn project(self, l: &mut Matrix) {
        project_columns(l, self.radii, self.norm);
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
    /// Budget for the Nesterov `L`-solver (Algorithm 2). Algorithm 1 only
    /// asks for an approximate solve of each subproblem, and the cap, not
    /// the `χ` test, ends most inner solves at any budget from 5 to 40,
    /// while the L-step is most of a compile's time. Those budgets give
    /// the same median expected error on serving-sized batches, so the
    /// default caps at 10 iterations (20 in polish).
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
                max_iters: 10,
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
    /// Columns the ALM solved over: the number of distinct columns of `W`
    /// (its column classes), `n` when no two columns are identical.
    pub solved_cols: usize,
    /// Nesterov (Algorithm 2) iterations summed over every L-step of the
    /// solve — the bulk of a compile's work.
    pub nesterov_iterations: usize,
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

    /// [`Self::compute_flavored`] from a warm-start seed instead of the
    /// Lemma 3 construction: the seed `L` is re-projected onto the target
    /// rank and the norm's feasible set ([`WarmStart::reproject_l`] /
    /// [`WarmStart::reproject_l_l2`]) and `B` is refit in closed form —
    /// the β→∞ limit of Eq. 9, which is the best `B` for the seeded `L`
    /// and works across different query counts `m`. Everything after the
    /// initializer — the outer loop, the convergence criteria, the polish
    /// phase, the safety fallbacks — is the identical code path as
    /// [`Self::compute`], so a warm-started decomposition meets exactly
    /// the same feasibility and convergence contract as a cold one; only
    /// the starting point (and therefore the recorded `outer_iterations`)
    /// differs.
    ///
    /// A seed over the wrong domain size (or a failing closed-form
    /// refit) is ignored and the run falls back to the cold initializer;
    /// `stats().warm_started` reports what actually happened.
    pub fn compute_with_init_flavored(
        workload: &Workload,
        config: &DecompositionConfig,
        norm: SensitivityNorm,
        init: Option<&WarmStart>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let op = workload.op().as_ref();
        let n = op.cols();
        let seed = init.filter(|seed| seed.domain_size() == n && seed.rank() > 0);
        let reproject = |seed: &WarmStart, r: usize| match norm {
            SensitivityNorm::L1 => seed.reproject_l(r),
            SensitivityNorm::L2 => seed.reproject_l_l2(r),
        };
        let classes = op.column_classes();
        if classes.is_trivial() {
            let r = config.target_rank.resolve(workload)?;
            let seed_l = seed.map(|seed| reproject(seed, r));
            let unit = vec![1.0; n];
            let feasible = Feasible { norm, radii: &unit };
            let solved = Self::solve(workload, r, config, feasible, seed_l, n)?;
            return Ok(Self::assert_feasible(op, solved, norm));
        }

        // Identical columns of W: solve over one weighted column per
        // class (see `merged_workload`) and expand L back to n columns.
        // Φ, τ and Δ of the expansion equal those of the merged solve, so
        // the convergence contract is the full-domain one.
        let (merged, q) = compress_rows(merged_workload(workload, &classes));
        let r = config.target_rank.resolve(&merged)?;
        let radii: Vec<f64> = classes.sizes().iter().map(|&d| (d as f64).sqrt()).collect();
        let feasible = Feasible {
            norm,
            radii: &radii,
        };
        // The seed is made feasible on the full domain first; averaging
        // its columns within each class keeps it inside the (convex)
        // ball, which the `√d_c` weighting turns into radius `√d_c`.
        let seed_l = seed.map(|seed| {
            let l = merge_columns(&reproject(seed, r), &classes, &radii);
            condition_seed(&merged, r, feasible, l)
        });
        let mut solved = Self::solve(&merged, r, config, feasible, seed_l, n)?;
        if let Some(q) = q {
            solved.b = ops::matmul(&q, &solved.b)?;
        }
        solved.l = expand_columns(&solved.l, &classes, &radii);
        solved.residual = residual_of(op, &solved.b, &solved.l);
        solved.stats.residual = solved.residual.frobenius_norm();
        solved.stats.converged = stats_converged(solved.stats.residual, config.gamma);
        Ok(Self::assert_feasible(op, solved, norm))
    }

    /// Algorithm 1 on `workload` at inner dimension `r`, over the feasible
    /// set `feasible`, from the (already feasible) seed `L` if given, else
    /// from the Lemma 3 construction. `domain_size` is the `n` of the
    /// workload being decomposed, which `workload` has fewer columns than
    /// when it is the merged one.
    fn solve(
        workload: &Workload,
        r: usize,
        config: &DecompositionConfig,
        feasible: Feasible<'_>,
        seed_l: Option<Matrix>,
        domain_size: usize,
    ) -> Result<Solved, CoreError> {
        let op = workload.op().as_ref();
        let (m, n) = op.shape();
        let w_fro = op.frobenius_sq().sqrt();

        // --- Initialization: warm-start seed, else Lemma 3. ---
        let warm_init = seed_l.and_then(|l| {
            // Always refit B against the *new* workload (the β→∞ limit of
            // Eq. 9) instead of trusting the seed's B: the seed was fit to
            // a similar-but-different W, and carrying its B verbatim would
            // bake the old workload into the warm-start multiplier below.
            // The refit also makes seeds portable across query counts m.
            let b = refit_b(op, &l).ok()?;
            if b.has_non_finite() || l.has_non_finite() {
                return None;
            }
            // A seed whose refit costs more scale than the Lemma 3
            // construction (near-dead rows of L make LLᵀ nearly singular
            // and B huge) is a worse start than a cold one.
            if b.squared_sum() > lemma3_scale(workload, r) {
                return None;
            }
            Some((b, l))
        });
        let warm_started = warm_init.is_some();
        let (mut b, mut l) = match warm_init {
            Some(pair) => pair,
            None => lemma3_initializer(workload, r, feasible.radii),
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
            solved_cols: n,
            nesterov_iterations: 0,
        };
        if stats.converged && initial_scale == 0.0 {
            // Zero workload: (B, L) = (0, 0) is already optimal.
            return Ok(Solved {
                b,
                l,
                residual,
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
                let (l_new, lipschitz, iterations) = update_l(
                    &bt_target,
                    &b_new,
                    &l,
                    beta,
                    feasible,
                    &nesterov_cfg,
                    lipschitz_warm_start,
                );
                lipschitz_warm_start = (lipschitz * 0.5).max(1e-6);
                stats.nesterov_iterations += iterations;

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
            // for residual. Over merged column classes with r ≥ k, any
            // full-rank L refits W exactly, so the lens would accept the
            // seed itself before Φ was optimized at all; there it stays off
            // and the ALM iterate decides.
            let merged = n < domain_size;
            if warm_started && tau > gamma_eff && !(merged && r >= n) {
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
                revive_dead_directions(&mut b, &mut l, &residual, feasible);
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
            let (init_b, init_l) = lemma3_initializer(workload, r, feasible.radii);
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

        Ok(Solved {
            b,
            l,
            residual,
            stats,
        })
    }

    /// Numerical safety: the Nesterov projection guarantees feasibility,
    /// but re-assert it so downstream privacy accounting can rely on
    /// Δ(B, L) ≤ 1 — measured in the norm this decomposition's mechanism
    /// actually calibrates noise against, over all `n` columns.
    fn assert_feasible(op: &dyn MatrixOp, solved: Solved, norm: SensitivityNorm) -> Self {
        let Solved {
            b,
            mut l,
            mut residual,
            mut stats,
        } = solved;
        let over = max_col_norm(&l, norm);
        if over > 1.0 + 1e-9 {
            project_columns(&mut l, 1.0, norm);
            residual = residual_of(op, &b, &l);
            stats.residual = residual.frobenius_norm();
        }
        Self {
            b,
            l,
            residual_matrix: residual,
            norm,
            stats,
        }
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
            solved_cols: l.cols(),
            nesterov_iterations: 0,
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

/// The factors and diagnostics of one Algorithm 1 run, before the final
/// feasibility re-assertion.
struct Solved {
    b: Matrix,
    l: Matrix,
    residual: Matrix,
    stats: DecompositionStats,
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
/// Algorithm 2 is otherwise unchanged) of the radii `feasible` sets. The
/// caller supplies `bt_target = Bᵀ(βW + π)` (structured `Bᵀ·W` product
/// plus skippable `Bᵀ·π` GEMM). Returns the new `L`, the discovered Lipschitz
/// estimate (used to warm-start the next call) and the iterations run.
fn update_l(
    bt_target: &Matrix,
    b: &Matrix,
    l0: &Matrix,
    beta: f64,
    feasible: Feasible<'_>,
    nesterov: &NesterovConfig,
    lipschitz_warm_start: f64,
) -> (Matrix, f64, usize) {
    let btb = ops::gram(b); // BᵀB, r×r

    // G and ∇G share the product BᵀB·L.
    let value = |l: &Matrix, btbl: &Matrix| -> f64 {
        0.5 * beta * ops::frob_inner(l, btbl).expect("shapes agree")
            - ops::frob_inner(bt_target, l).expect("shapes agree")
    };
    let objective = |l: &Matrix| value(l, &ops::matmul(&btb, l).expect("shapes agree"));
    let value_and_gradient = |l: &Matrix| -> (f64, Matrix) {
        let mut g = ops::matmul(&btb, l).expect("shapes agree");
        let f = value(l, &g);
        g.map_inplace(|x| x * beta);
        g -= bt_target;
        (f, g)
    };
    let project = move |l: &mut Matrix| feasible.project(l);

    let cfg = NesterovConfig {
        initial_lipschitz: lipschitz_warm_start,
        ..nesterov.clone()
    };
    let result = nesterov_projected(objective, value_and_gradient, project, l0.clone(), &cfg);
    (result.x, result.lipschitz, result.iterations)
}

/// Detects rows of `L` whose direction has died (row of `L` and matching
/// column of `B` both ≈ 0) and re-seeds them with the top right-singular
/// vectors of the residual `W − BL`, scaled small enough that the
/// re-projected columns stay feasible. Returns the number of revived rows.
fn revive_dead_directions(
    b: &mut Matrix,
    l: &mut Matrix,
    residual: &Matrix,
    feasible: Feasible<'_>,
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
    feasible.project(l);
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
/// deterministic orthogonal-ish fill (and the columns re-projected onto
/// L1 balls of the given per-column radii) so the optimizer can actually
/// use the extra dimensions — all-zero padding is a stationary point of
/// the alternating updates.
fn lemma3_initializer(workload: &Workload, r: usize, radii: &[f64]) -> (Matrix, Matrix) {
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
        project_columns_l1(&mut l, radii);
    }
    (b, l)
}

/// `Φ = tr(BᵀB) = ρ·Σ_{k<ρ} σ_k²` of the Lemma 3 construction at rank `r`
/// (ρ = the number of singular values it uses), read off the cached SVD.
fn lemma3_scale(workload: &Workload, r: usize) -> f64 {
    let nonzero = workload.svd().nonzero_singular_values();
    let rho = nonzero.len().min(r);
    rho as f64 * nonzero[..rho].iter().map(|s| s * s).sum::<f64>()
}

/// The workload over one column per class of identical columns: column
/// `c` is the class's column scaled by `√d_c`, i.e. `W' = W·Eᵀ` for the
/// `k×n` matrix `E` with `E_cj = 1/√d_c` on the columns of class `c`.
/// `E` has orthonormal rows and `W = W'·E`, so `W'` has the singular
/// values of `W`, and for `L = L'·E` ([`expand_columns`]):
/// `‖W − B·L‖_F = ‖W' − B·L'‖_F`, while column `j` of `L` has `1/√d_c`
/// times the norm of column `c` of `L'` — a ball of radius `√d_c` on `L'`
/// is the unit ball on `L`. Built row by row; a dense `W` gives a dense
/// `W'`, a structured one a sparse `W'`.
fn merged_workload(workload: &Workload, classes: &ColumnClasses) -> Workload {
    let op = workload.op().as_ref();
    let (m, n) = op.shape();
    let k = classes.count();
    let mut first = vec![usize::MAX; k];
    for (j, &c) in classes.class_of().iter().enumerate().rev() {
        first[c] = j;
    }
    let scale: Vec<f64> = classes.sizes().iter().map(|&d| (d as f64).sqrt()).collect();
    let mut buf = vec![0.0; n];
    let mut merged_row = |i: usize| {
        op.fill_row(i, &mut buf);
        first
            .iter()
            .zip(scale.iter())
            .map(|(&j, &s)| buf[j] * s)
            .collect::<Vec<f64>>()
    };
    let merged = if workload.structure() == WorkloadStructure::Dense {
        let mut w = Matrix::zeros(m, k);
        for i in 0..m {
            w.row_mut(i).copy_from_slice(&merged_row(i));
        }
        Workload::new(w)
    } else {
        let entries: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|i| merged_row(i).into_iter().enumerate().collect())
            .collect();
        Workload::from_csr(CsrOp::from_row_entries(m, k, &entries))
    };
    merged.expect("a finite workload merges to a finite workload")
}

/// A mapped warm seed `L'` for the merged `workload`, with the directions
/// that would make its start worse than a cold one dropped.
///
/// Over merged classes a seed often carries near-dead directions: tiny
/// singular values of `L'`, from surplus rows padded in for a larger rank
/// or from columns averaged into the new classes. With `r ≥ k` they make
/// `L'L'ᵀ` nearly singular, and the closed-form refit of `B` that starts
/// the solve blows up along them past the Lemma 3 scale `Φ = ρ·Σσ²` —
/// where the solver's seed guard runs the compile cold. Instead, `L'` is
/// rotated into its singular basis (rows `σ_i·v_iᵀ`, which leaves every
/// `B·L'` reachable) and its weakest rows are zeroed, one more at a
/// time, until the refit fits the Lemma 3 scale; the zeroed rows are dead
/// directions the outer loop revives from the residual. A seed that fits
/// already, or in no such form, is returned as is (and the guard decides).
fn condition_seed(workload: &Workload, r: usize, feasible: Feasible<'_>, l: Matrix) -> Matrix {
    let op = workload.op().as_ref();
    let scale = lemma3_scale(workload, r);
    let fits =
        |l: &Matrix| refit_b(op, l).is_ok_and(|b| !b.has_non_finite() && b.squared_sum() <= scale);
    if l.has_non_finite() || fits(&l) {
        return l;
    }
    let Ok(svd) = Svd::compute(&l) else {
        return l;
    };
    let live = svd.singular_values.iter().filter(|&&s| s > 0.0).count();
    (1..live)
        .rev()
        .map(|keep| {
            let mut kept = Matrix::zeros(r, l.cols());
            for (i, &sigma) in svd.singular_values[..keep].iter().enumerate() {
                let row: Vec<f64> = svd.vt.row(i).iter().map(|v| v * sigma).collect();
                kept.set_row(i, &row);
            }
            feasible.project(&mut kept);
            kept
        })
        .find(fits)
        .unwrap_or(l)
}

/// Compresses a merged workload `W'` with more rows than columns to its
/// `k×k` factor `R` of `W' = Q·R` (thin Householder QR, `Q` with
/// orthonormal columns), returned with `Q`; any other workload comes back
/// as is. It is the same program: `B = Q·B_R` has the `Φ = tr(BᵀB)` and
/// `τ = ‖W' − B·L‖_F` of `B_R` against `R`, and a part of `B` outside the
/// range of `Q` only adds to Φ. The ALM over `W'` keeps every `B` and `π`
/// in that range too (`B = Q·B_R`, `π = Q·π_R`), so the two runs differ
/// only in rounding and in the basis the Lemma 3 initializer picks inside
/// repeated singular values — while every product on the row side
/// (Eq. 9, `BᵀB`, `Bᵀ·W`, the residual) shrinks from `m` to `k` rows.
/// Built row by row.
fn compress_rows(merged: Workload) -> (Workload, Option<Matrix>) {
    let op = merged.op().as_ref();
    let (m, k) = op.shape();
    if m <= k {
        return (merged, None);
    }
    let mut w = Matrix::zeros(m, k);
    for i in 0..m {
        op.fill_row(i, w.row_mut(i));
    }
    let qr = Qr::compute(&w).expect("m > k");
    let r = Workload::new(qr.r()).expect("a finite workload has a finite R");
    (r, Some(qr.q()))
}

/// `L' = L·Eᵀ` (see [`merged_workload`]): column `c` of the result is the
/// sum of the columns of class `c`, divided by `√d_c` — `√d_c` times
/// their average.
fn merge_columns(l: &Matrix, classes: &ColumnClasses, radii: &[f64]) -> Matrix {
    let mut merged = Matrix::zeros(l.rows(), classes.count());
    for i in 0..l.rows() {
        let out = merged.row_mut(i);
        for (&v, &c) in l.row(i).iter().zip(classes.class_of()) {
            out[c] += v;
        }
        for (o, &s) in out.iter_mut().zip(radii) {
            *o /= s;
        }
    }
    merged
}

/// `L = L'·E` (see [`merged_workload`]): column `j` of the result is
/// column `c(j)` of `l` divided by `√d_c`.
fn expand_columns(l: &Matrix, classes: &ColumnClasses, radii: &[f64]) -> Matrix {
    let mut expanded = Matrix::zeros(l.rows(), classes.cols());
    for i in 0..l.rows() {
        let row = l.row(i);
        for (o, &c) in expanded.row_mut(i).iter_mut().zip(classes.class_of()) {
            *o = row[c] / radii[c];
        }
    }
    expanded
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
        let warm_b = WorkloadDecomposition::compute_with_init_flavored(
            &wb,
            &cfg,
            SensitivityNorm::L1,
            Some(&seed),
        )
        .unwrap();
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

    /// `good`'s factors with every row of `L` but the first shrunk 10⁹×.
    fn near_dead_seed(good: &WorkloadDecomposition) -> WarmStart {
        let mut weak = good.l().clone();
        for i in 1..weak.rows() {
            let row: Vec<f64> = weak.row(i).iter().map(|v| v * 1e-9).collect();
            weak.set_row(i, &row);
        }
        WarmStart::new(good.b().clone(), weak)
    }

    #[test]
    fn seed_refitting_above_the_lemma3_scale_runs_cold() {
        // A seed whose L has near-dead rows: the closed-form refit of B
        // divides by their tiny norms, so its Φ dwarfs the Lemma 3
        // construction's and the compile must run cold instead.
        let cfg = DecompositionConfig {
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let w = WRelated { base_queries: 4 }
            .generate(12, 16, &mut StdRng::seed_from_u64(12))
            .unwrap();
        let good = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        let seed = near_dead_seed(&good);
        let got = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg,
            SensitivityNorm::L1,
            Some(&seed),
        )
        .unwrap();
        assert!(!got.stats().warm_started, "a near-dead seed must not start");
        assert_eq!(got.b(), good.b());
        assert_eq!(got.l(), good.l());

        // The healthy seed itself still starts warm.
        let seed = WarmStart::new(good.b().clone(), good.l().clone());
        let warm = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg,
            SensitivityNorm::L1,
            Some(&seed),
        )
        .unwrap();
        assert!(warm.stats().warm_started);
    }

    #[test]
    fn merged_seeds_drop_their_near_dead_directions() {
        // Over merged column classes the same kind of seed keeps only its
        // live direction: its refit then fits the Lemma 3 scale, and the
        // compile starts warm and meets the cold contract.
        let cfg = DecompositionConfig {
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let w = panel(64, 16);
        let good = WorkloadDecomposition::compute(&w, &cfg).unwrap();
        let seed = near_dead_seed(&good);
        let got = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg,
            SensitivityNorm::L1,
            Some(&seed),
        )
        .unwrap();
        assert!(got.stats().warm_started);
        assert_eq!(got.stats().converged, good.stats().converged);
        assert!(got.sensitivity() <= 1.0 + 1e-9);
        let gamma_eff = cfg.gamma.min(0.02 * w.op().frobenius_sq().sqrt());
        assert!(got.stats().residual <= gamma_eff + 1e-12);
    }

    #[test]
    fn repeated_columns_are_solved_once_per_class() {
        // A 16-cut panel over 64 buckets repeats every column 4 times; a
        // workload without repeated columns is solved over all n.
        let w = panel(64, 16);
        let d = decompose_default(&w);
        assert_eq!(d.stats().solved_cols, 16);
        assert_eq!(d.l().cols(), 64);
        let distinct = WRelated { base_queries: 3 }
            .generate(10, 12, &mut StdRng::seed_from_u64(13))
            .unwrap();
        assert_eq!(decompose_default(&distinct).stats().solved_cols, 12);
    }

    #[test]
    fn row_compression_solves_the_program_of_the_merged_workload() {
        // 21 rows over 16 column classes: the solve runs over the 16×16
        // factor R of W' = Q·R and reaches the optimum Φ of the ALM over
        // W' itself, with Q·B_R as feasible for W' as B_R is for R.
        let w = panel(64, 16);
        let classes = w.op().column_classes();
        let merged = merged_workload(&w, &classes);
        let (compressed, q) = compress_rows(merged.clone());
        let q = q.expect("more rows than classes");
        assert_eq!(compressed.op().shape(), (16, 16));
        let qr = ops::matmul(&q, &compressed.matrix()).unwrap();
        let mut row = vec![0.0; 16];
        for i in 0..21 {
            merged.op().fill_row(i, &mut row);
            for (a, b) in qr.row(i).iter().zip(&row) {
                assert!((a - b).abs() <= 1e-12, "Q·R = W'");
            }
        }

        let cfg = DecompositionConfig::default();
        let radii: Vec<f64> = classes.sizes().iter().map(|&d| (d as f64).sqrt()).collect();
        let feasible = Feasible {
            norm: SensitivityNorm::L1,
            radii: &radii,
        };
        let r = cfg.target_rank.resolve(&merged).unwrap();
        let full = WorkloadDecomposition::solve(&merged, r, &cfg, feasible, None, 64).unwrap();
        let small = WorkloadDecomposition::solve(&compressed, r, &cfg, feasible, None, 64).unwrap();
        let phi = full.b.squared_sum();
        assert!((small.b.squared_sum() - phi).abs() <= 1e-9 * phi);
        let b = ops::matmul(&q, &small.b).unwrap();
        assert!(
            (b.squared_sum() - phi).abs() <= 1e-9 * phi,
            "Φ(Q·B_R) = Φ(B_R)"
        );
        let tau = residual_of(merged.op().as_ref(), &b, &small.l).frobenius_norm();
        assert!(
            (tau - small.stats.residual).abs() <= 1e-9,
            "τ over W' = τ over R"
        );
        assert!(tau <= 1e-6 && full.stats.residual <= 1e-6);
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

        let up = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg6,
            SensitivityNorm::L1,
            Some(&seed),
        )
        .unwrap();
        assert!(up.stats().warm_started);
        assert_eq!(up.rank(), 6);
        assert!(up.sensitivity() <= 1.0 + 1e-9);

        let d6 = WorkloadDecomposition::compute(&w, &cfg6).unwrap();
        let seed6 = WarmStart::new(d6.b().clone(), d6.l().clone());
        let down = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg4,
            SensitivityNorm::L1,
            Some(&seed6),
        )
        .unwrap();
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
        let got = WorkloadDecomposition::compute_with_init_flavored(
            &w,
            &cfg,
            SensitivityNorm::L1,
            Some(&seed),
        )
        .unwrap();
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
        // An L1-optimized seed is re-projected onto the L2 ball; the
        // result is a fresh, L2-feasible, converged decomposition.
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
