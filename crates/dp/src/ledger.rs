//! The vocabulary of budget refusals: [`BudgetError`] and the rounding
//! slack every ledger check applies.
//!
//! The rule itself, sequential composition in both the ε and the δ
//! column, is enforced by [`crate::DurableLedger`]; the tests here pin
//! that rule on an in-memory ledger.

use std::fmt;

/// Relative slack absorbing f64 rounding so that, e.g., ten debits of ε/10
/// sum to exactly ε instead of being rejected by the last few ulps.
pub(crate) const RELATIVE_SLACK: f64 = 1e-9;

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
    use crate::budget::{Budget, Epsilon};
    use crate::durable::{DurableError, DurableLedger};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn budget(e: f64, d: f64) -> Budget {
        Budget::new(eps(e), d).unwrap()
    }

    fn refusal(result: Result<f64, DurableError>) -> BudgetError {
        match result {
            Err(DurableError::Budget(e)) => e,
            other => panic!("expected a budget refusal, got {other:?}"),
        }
    }

    #[test]
    fn tracks_spend_and_remaining() {
        let ledger = DurableLedger::in_memory(eps(1.0));
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
        let split = DurableLedger::in_memory(eps(1.0));
        split.debit(eps(0.5)).unwrap();
        split.debit(eps(0.5)).unwrap();

        let whole = DurableLedger::in_memory(eps(1.0));
        whole.debit(eps(1.0)).unwrap();

        assert_eq!(split.spent(), whole.spent());
        assert_eq!(split.remaining(), whole.remaining());
        assert!(split.is_exhausted() && whole.is_exhausted());
    }

    #[test]
    fn refuses_over_spend_without_mutating() {
        let ledger = DurableLedger::in_memory(eps(1.0));
        ledger.debit(eps(0.75)).unwrap();
        match refusal(ledger.debit(eps(0.5))) {
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
        assert!((ledger.remaining() - 0.25).abs() < 1e-15);
        assert_eq!(ledger.debits(), 1);
        // A debit that does fit still goes through.
        ledger.debit(eps(0.25)).unwrap();
        assert!(ledger.is_exhausted());
    }

    #[test]
    fn float_dust_does_not_block_the_last_release() {
        // 10 × ε/10 must consume exactly ε despite f64 rounding.
        let ledger = DurableLedger::in_memory(eps(1.0));
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
        let ledger = DurableLedger::in_memory(eps(1.0));
        ledger.debit(eps(1.0)).unwrap();
        assert!(ledger.is_exhausted());
        assert!(ledger.debit(eps(1e-9)).is_err());
        assert!(ledger.debit(eps(1e-15)).is_err());
        assert_eq!(ledger.debits(), 1);
    }

    #[test]
    fn check_is_side_effect_free() {
        let ledger = DurableLedger::in_memory(eps(0.2));
        assert!(ledger.check(eps(0.2)).is_ok());
        assert!(ledger.check(eps(0.3)).is_err());
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.remaining(), 0.2);
    }

    #[test]
    fn display_mentions_spend() {
        let ledger = DurableLedger::in_memory(eps(1.0));
        ledger.debit(eps(0.5)).unwrap();
        let s = ledger.to_string();
        assert!(s.contains("0.5") && s.contains("1 release"), "{s}");
        assert!(s.starts_with("ε-ledger"), "{s}");
    }

    #[test]
    fn tracks_both_columns() {
        let ledger = DurableLedger::in_memory_budget(budget(1.0, 1e-5));
        ledger.debit_budget(budget(0.25, 4e-6)).unwrap();
        assert!((ledger.spent() - 0.25).abs() < 1e-15);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-20);
        assert!((ledger.delta_remaining() - 6e-6).abs() < 1e-20);
        assert_eq!(ledger.debits(), 1);
        assert!(!ledger.is_delta_exhausted());
    }

    #[test]
    fn delta_over_spend_refused_atomically() {
        let ledger = DurableLedger::in_memory_budget(budget(1.0, 1e-6));
        // ε fits, δ does not: neither column may move.
        match refusal(ledger.debit_budget(budget(0.1, 2e-6))) {
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
        assert_eq!(ledger.remaining(), 1.0);
        assert_eq!(ledger.delta_spent(), 0.0);
        assert_eq!(ledger.debits(), 0);
    }

    #[test]
    fn pure_traffic_survives_delta_exhaustion() {
        let ledger = DurableLedger::in_memory_budget(budget(1.0, 1e-6));
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
        let ledger = DurableLedger::in_memory_budget(budget(1.0, 1e-5));
        for _ in 0..10 {
            ledger.debit_budget(budget(0.05, 1e-6)).unwrap();
        }
        assert!(ledger.is_delta_exhausted());
        assert!(ledger.delta_spent() <= ledger.delta_total());
        assert!(ledger.debit_budget(budget(0.05, 1e-6)).is_err());
    }

    #[test]
    fn budget_display_mentions_delta_columns() {
        let ledger = DurableLedger::in_memory_budget(budget(1.0, 1e-5));
        ledger.debit_budget(budget(0.5, 5e-6)).unwrap();
        let s = ledger.to_string();
        assert!(s.contains("δ"), "{s}");
        assert!(s.contains("(ε,δ)-ledger"), "{s}");
    }
}
