//! Privacy-budget accounting by sequential composition.
//!
//! Sequential composition (the same theorem behind [`Epsilon::split`]): the
//! releases `M₁(x), …, M_k(x)` with budgets `ε₁, …, ε_k` jointly satisfy
//! `(Σεᵢ)`-DP. A [`BudgetLedger`] enforces the contrapositive — it holds a
//! fixed total and *debits* every release, refusing any debit that would
//! push the cumulative spend past the total, so a serving loop can never
//! silently exceed its advertised guarantee.

use crate::budget::{Budget, Epsilon};
use crate::error::DpError;
use std::fmt;

/// Relative slack absorbing f64 rounding so that, e.g., ten debits of ε/10
/// sum to exactly ε instead of being rejected by the last few ulps.
/// Shared with [`crate::DurableLedger`], whose lock-free spend columns
/// must refuse and clamp with exactly these semantics.
pub(crate) const RELATIVE_SLACK: f64 = 1e-9;

/// A sequential-composition ledger over a fixed total ε (and, under
/// approximate DP, a fixed total δ).
///
/// Sequential composition holds coordinate-wise for (ε, δ): releases with
/// budgets `(ε₁, δ₁), …, (ε_k, δ_k)` jointly satisfy `(Σεᵢ, Σδᵢ)`-DP, so
/// the ledger tracks both columns and refuses a debit that would overflow
/// *either*. A ledger opened with [`BudgetLedger::new`] holds δ-total 0
/// and therefore refuses every approximate-DP debit.
///
/// ```
/// use lrm_dp::{BudgetLedger, Epsilon};
///
/// let mut ledger = BudgetLedger::new(Epsilon::new(1.0).unwrap());
/// let half = Epsilon::new(0.5).unwrap();
/// ledger.debit(half).unwrap();
/// ledger.debit(half).unwrap();
/// assert!(ledger.is_exhausted());
/// assert!(ledger.debit(half).is_err()); // over-spend refused, typed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLedger {
    total: f64,
    spent: f64,
    delta_total: f64,
    delta_spent: f64,
    debits: usize,
}

impl BudgetLedger {
    /// Opens a pure ε-DP ledger holding `total` as the overall guarantee
    /// (δ-total 0: approximate-DP debits are refused).
    pub fn new(total: Epsilon) -> Self {
        Self {
            total: total.value(),
            spent: 0.0,
            delta_total: 0.0,
            delta_spent: 0.0,
            debits: 0,
        }
    }

    /// Opens a ledger enforcing an overall (ε, δ) guarantee.
    pub fn with_budget(total: Budget) -> Self {
        Self {
            total: total.eps().value(),
            spent: 0.0,
            delta_total: total.delta(),
            delta_spent: 0.0,
            debits: 0,
        }
    }

    /// Reconstructs a ledger from a [`crate::DurableLedger`]'s spend
    /// columns, for reporting; spends are clamped into `[0, total]`,
    /// matching [`BudgetLedger::debit`]'s own clamp.
    pub(crate) fn restore(
        total: f64,
        spent: f64,
        delta_total: f64,
        delta_spent: f64,
        debits: usize,
    ) -> Self {
        Self {
            total,
            spent: spent.clamp(0.0, total),
            delta_total,
            delta_spent: delta_spent.clamp(0.0, delta_total),
            debits,
        }
    }

    /// The fixed total ε this ledger enforces.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Cumulative ε debited so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available, never negative.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Number of successful debits.
    pub fn debits(&self) -> usize {
        self.debits
    }

    /// Whether the remaining budget is (numerically) zero.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() <= self.total * RELATIVE_SLACK
    }

    /// The remaining budget as an [`Epsilon`], if any is left.
    pub fn remaining_epsilon(&self) -> Result<Epsilon, DpError> {
        Epsilon::new(self.remaining())
    }

    /// Checks whether `eps` could be debited without actually debiting.
    ///
    /// An exhausted ledger refuses *every* debit, including ones smaller
    /// than the rounding slack — otherwise a stream of sub-slack "dust"
    /// debits could keep releasing forever while `spent` stays clamped at
    /// `total`. With this guard the true cumulative spend can exceed the
    /// advertised total by at most one slack (`total × 1e-9`) over the
    /// ledger's whole lifetime.
    pub fn check(&self, eps: Epsilon) -> Result<(), BudgetError> {
        if self.is_exhausted() || eps.value() > self.remaining() + self.total * RELATIVE_SLACK {
            return Err(BudgetError::Exhausted {
                requested: eps.value(),
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Debits `eps`, returning the remaining budget; refuses (leaving the
    /// ledger untouched) when the debit would exceed the total.
    pub fn debit(&mut self, eps: Epsilon) -> Result<f64, BudgetError> {
        self.check(eps)?;
        // The slack can let `spent` creep a few ulps past `total`; clamp so
        // `remaining`/`spent` never misreport the guarantee.
        self.spent = (self.spent + eps.value()).min(self.total);
        self.debits += 1;
        Ok(self.remaining())
    }

    /// The fixed total δ this ledger enforces (0 for a pure ε-DP ledger).
    pub fn delta_total(&self) -> f64 {
        self.delta_total
    }

    /// Cumulative δ debited so far.
    pub fn delta_spent(&self) -> f64 {
        self.delta_spent
    }

    /// δ budget still available, never negative.
    pub fn delta_remaining(&self) -> f64 {
        (self.delta_total - self.delta_spent).max(0.0)
    }

    /// Whether the remaining δ budget is (numerically) zero. A pure ε-DP
    /// ledger (δ-total 0) reports `true`: it has no δ to spend.
    pub fn is_delta_exhausted(&self) -> bool {
        self.delta_remaining() <= self.delta_total * RELATIVE_SLACK
    }

    /// Checks whether an (ε, δ) debit could go through without debiting.
    ///
    /// The ε column uses [`BudgetLedger::check`] unchanged; the δ column
    /// applies the same dust guard — once δ is exhausted, *every*
    /// positive-δ debit is refused, so sub-slack δ dust cannot compose
    /// past the advertised total. A pure (δ = 0) debit never consults the
    /// δ column, so pure traffic still flows through a δ-exhausted ledger.
    pub fn check_budget(&self, budget: Budget) -> Result<(), BudgetError> {
        self.check(budget.eps())?;
        let delta = budget.delta();
        if delta > 0.0
            && (self.is_delta_exhausted()
                || delta > self.delta_remaining() + self.delta_total * RELATIVE_SLACK)
        {
            return Err(BudgetError::DeltaExhausted {
                requested: delta,
                remaining: self.delta_remaining(),
            });
        }
        Ok(())
    }

    /// Debits an (ε, δ) budget atomically: both columns move or neither
    /// does. Returns the remaining ε (the δ remainder is available via
    /// [`BudgetLedger::delta_remaining`]).
    pub fn debit_budget(&mut self, budget: Budget) -> Result<f64, BudgetError> {
        self.check_budget(budget)?;
        self.spent = (self.spent + budget.eps().value()).min(self.total);
        self.delta_spent = (self.delta_spent + budget.delta()).min(self.delta_total);
        self.debits += 1;
        Ok(self.remaining())
    }
}

impl fmt::Display for BudgetLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta_total > 0.0 {
            write!(
                f,
                "(ε,δ)-ledger: spent ε {:.6}/{:.6}, δ {:.3e}/{:.3e} over {} release(s)",
                self.spent, self.total, self.delta_spent, self.delta_total, self.debits
            )
        } else {
            write!(
                f,
                "ε-ledger: spent {:.6}/{:.6} over {} release(s)",
                self.spent, self.total, self.debits
            )
        }
    }
}

/// Typed failure of a ledger operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetError {
    /// A debit was refused because it would exceed the ledger's ε total.
    Exhausted {
        /// The ε the caller asked to spend.
        requested: f64,
        /// The ε actually left in the ledger.
        remaining: f64,
    },
    /// A debit was refused because it would exceed the ledger's δ total
    /// (its ε component would have fit).
    DeltaExhausted {
        /// The δ the caller asked to spend.
        requested: f64,
        /// The δ actually left in the ledger.
        remaining: f64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, only ε={remaining} remains"
            ),
            BudgetError::DeltaExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested δ={requested}, only δ={remaining} remains"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn tracks_spend_and_remaining() {
        let mut ledger = BudgetLedger::new(eps(1.0));
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.remaining(), 1.0);
        assert!(!ledger.is_exhausted());

        let remaining = ledger.debit(eps(0.25)).unwrap();
        assert!((remaining - 0.75).abs() < 1e-15);
        assert_eq!(ledger.debits(), 1);
    }

    #[test]
    fn two_halves_equal_one_whole() {
        // Sequential composition accounting: two releases at ε/2 leave the
        // ledger in the same state as one release at ε.
        let mut split = BudgetLedger::new(eps(1.0));
        split.debit(eps(0.5)).unwrap();
        split.debit(eps(0.5)).unwrap();

        let mut whole = BudgetLedger::new(eps(1.0));
        whole.debit(eps(1.0)).unwrap();

        assert_eq!(split.spent(), whole.spent());
        assert_eq!(split.remaining(), whole.remaining());
        assert!(split.is_exhausted() && whole.is_exhausted());
    }

    #[test]
    fn refuses_over_spend_without_mutating() {
        let mut ledger = BudgetLedger::new(eps(1.0));
        ledger.debit(eps(0.75)).unwrap();
        let err = ledger.debit(eps(0.5)).unwrap_err();
        match err {
            BudgetError::Exhausted {
                requested,
                remaining,
            } => {
                assert_eq!(requested, 0.5);
                assert!((remaining - 0.25).abs() < 1e-15);
            }
            other => panic!("expected ε exhaustion, got {other:?}"),
        }
        // The refused debit left the ledger untouched.
        assert!((ledger.spent() - 0.75).abs() < 1e-15);
        assert_eq!(ledger.debits(), 1);
        // A debit that does fit still goes through.
        ledger.debit(eps(0.25)).unwrap();
        assert!(ledger.is_exhausted());
    }

    #[test]
    fn float_dust_does_not_block_the_last_release() {
        // 10 × ε/10 must consume exactly ε despite f64 rounding.
        let mut ledger = BudgetLedger::new(eps(1.0));
        let share = eps(1.0 / 10.0);
        for _ in 0..10 {
            ledger.debit(share).unwrap();
        }
        assert!(ledger.is_exhausted());
        assert!(ledger.spent() <= ledger.total());
        assert!(ledger.debit(share).is_err());
    }

    #[test]
    fn exhausted_ledger_refuses_dust_debits() {
        // Debits below the rounding slack must not leak through an
        // exhausted ledger: ε=1e-9 dust released in a loop would compose
        // to an unbounded true spend while `spent` stays clamped at total.
        let mut ledger = BudgetLedger::new(eps(1.0));
        ledger.debit(eps(1.0)).unwrap();
        assert!(ledger.is_exhausted());
        assert!(ledger.debit(eps(1e-9)).is_err());
        assert!(ledger.debit(eps(1e-15)).is_err());
        assert_eq!(ledger.debits(), 1);
    }

    #[test]
    fn check_is_side_effect_free() {
        let ledger = BudgetLedger::new(eps(0.2));
        assert!(ledger.check(eps(0.2)).is_ok());
        assert!(ledger.check(eps(0.3)).is_err());
        assert_eq!(ledger.spent(), 0.0);
    }

    #[test]
    fn remaining_epsilon_round_trips() {
        let mut ledger = BudgetLedger::new(eps(1.0));
        ledger.debit(eps(0.4)).unwrap();
        let rest = ledger.remaining_epsilon().unwrap();
        assert!((rest.value() - 0.6).abs() < 1e-12);
        ledger.debit(rest).unwrap();
        assert!(ledger.remaining_epsilon().is_err());
    }

    #[test]
    fn display_mentions_spend() {
        let mut ledger = BudgetLedger::new(eps(1.0));
        ledger.debit(eps(0.5)).unwrap();
        let s = ledger.to_string();
        assert!(s.contains("0.5") && s.contains("1 release"), "{s}");
    }

    fn budget(e: f64, d: f64) -> Budget {
        Budget::new(eps(e), d).unwrap()
    }

    #[test]
    fn tracks_both_columns() {
        let mut ledger = BudgetLedger::with_budget(budget(1.0, 1e-5));
        ledger.debit_budget(budget(0.25, 4e-6)).unwrap();
        assert!((ledger.spent() - 0.25).abs() < 1e-15);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-20);
        assert!((ledger.delta_remaining() - 6e-6).abs() < 1e-20);
        assert_eq!(ledger.debits(), 1);
        assert!(!ledger.is_delta_exhausted());
    }

    #[test]
    fn delta_over_spend_refused_atomically() {
        let mut ledger = BudgetLedger::with_budget(budget(1.0, 1e-6));
        // ε fits, δ does not: neither column may move.
        let err = ledger.debit_budget(budget(0.1, 2e-6)).unwrap_err();
        match err {
            BudgetError::DeltaExhausted {
                requested,
                remaining,
            } => {
                assert_eq!(requested, 2e-6);
                assert_eq!(remaining, 1e-6);
            }
            other => panic!("expected δ exhaustion, got {other:?}"),
        }
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.delta_spent(), 0.0);
        assert_eq!(ledger.debits(), 0);
    }

    #[test]
    fn pure_ledger_refuses_any_delta() {
        let mut ledger = BudgetLedger::new(eps(1.0));
        assert_eq!(ledger.delta_total(), 0.0);
        assert!(ledger.is_delta_exhausted());
        assert!(ledger.debit_budget(budget(0.1, 1e-12)).is_err());
        // Pure debits via the budget API still flow.
        ledger.debit_budget(budget(0.1, 0.0)).unwrap();
        assert_eq!(ledger.debits(), 1);
    }

    #[test]
    fn pure_traffic_survives_delta_exhaustion() {
        let mut ledger = BudgetLedger::with_budget(budget(1.0, 1e-6));
        ledger.debit_budget(budget(0.1, 1e-6)).unwrap();
        assert!(ledger.is_delta_exhausted());
        // δ dust refused after exhaustion…
        assert!(ledger.debit_budget(budget(0.1, 1e-18)).is_err());
        // …but δ=0 debits keep flowing against the remaining ε.
        ledger.debit_budget(budget(0.2, 0.0)).unwrap();
        assert!((ledger.spent() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn delta_dust_sums_exactly() {
        // 10 × δ/10 must consume exactly δ despite f64 rounding.
        let mut ledger = BudgetLedger::with_budget(budget(1.0, 1e-5));
        for _ in 0..10 {
            ledger.debit_budget(budget(0.05, 1e-6)).unwrap();
        }
        assert!(ledger.is_delta_exhausted());
        assert!(ledger.delta_spent() <= ledger.delta_total());
        assert!(ledger.debit_budget(budget(0.05, 1e-6)).is_err());
    }

    #[test]
    fn budget_display_mentions_delta_columns() {
        let mut ledger = BudgetLedger::with_budget(budget(1.0, 1e-5));
        ledger.debit_budget(budget(0.5, 5e-6)).unwrap();
        let s = ledger.to_string();
        assert!(s.contains("δ"), "{s}");
        assert!(s.contains("(ε,δ)-ledger"), "{s}");
    }
}
