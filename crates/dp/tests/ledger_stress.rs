//! Concurrency audit for the budget ledger.
//!
//! The [`DurableLedger`] documents a lifetime over-spend bound of one
//! rounding slack (`total × 1e-9`) for the sequential rule; these tests
//! prove that the bound holds when many threads debit one tenant
//! concurrently — through the atomic (CAS) reserve path and the
//! two-phase reserve-then-settle protocol, in *both* the ε and δ
//! columns. Every test runs twice: once on an in-memory ledger and once
//! on a ledger journaled to a temp file. A journaled run then reopens
//! its journal and checks that the replayed spend equals what was
//! settled plus what was reserved but never resolved, and that this
//! replayed spend keeps the one-slack bound.
//!
//! There is no loom in this offline workspace, so the tests shake
//! interleavings the pedestrian way: many threads, many iterations,
//! mixed debit sizes, and yields between attempts — and they assert on
//! the *granted* amounts each thread actually observed, not on the
//! ledger's (clamped) internal counter, so a lost-update bug cannot hide
//! behind the clamp.

use lrm_dp::{Budget, BudgetError, DurableError, DurableLedger, Epsilon};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The ledger's documented lifetime over-spend bound.
const RELATIVE_SLACK: f64 = 1e-9;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn budget(e: f64, d: f64) -> Budget {
    Budget::new(eps(e), d).unwrap()
}

/// Where a test ledger keeps its accounting.
#[derive(Debug, Clone, Copy)]
enum Mode {
    InMemory,
    Journaled,
}

const MODES: [Mode; 2] = [Mode::InMemory, Mode::Journaled];

/// A ledger under test plus, when journaled, its journal file.
struct Subject {
    ledger: DurableLedger,
    grant: Budget,
    journal: Option<PathBuf>,
}

impl Subject {
    fn open(mode: Mode, grant: Budget) -> Self {
        match mode {
            Mode::InMemory => Self {
                ledger: DurableLedger::in_memory_budget(grant),
                grant,
                journal: None,
            },
            Mode::Journaled => {
                static N: AtomicUsize = AtomicUsize::new(0);
                let path = std::env::temp_dir().join(format!(
                    "lrm_ledger_stress_{}_{}.epsj",
                    std::process::id(),
                    N.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                let (ledger, _) = DurableLedger::open_budget(&path, grant).unwrap();
                Self {
                    ledger,
                    grant,
                    journal: Some(path),
                }
            }
        }
    }

    /// Closes the ledger as a crash would and, for a journaled ledger,
    /// reopens the journal: the replayed spend must equal `settled` plus
    /// `unsettled` (intents reserved but neither settled nor aborted),
    /// clamped to the grant, in both columns — and that sum must keep
    /// the one-slack over-spend bound.
    fn reopen_and_check(self, settled: (f64, f64), unsettled: (f64, f64)) {
        let (total, delta_total) = (self.grant.eps().value(), self.grant.delta());
        let committed = (settled.0 + unsettled.0, settled.1 + unsettled.1);
        assert!(
            committed.0 <= total * (1.0 + RELATIVE_SLACK) + 1e-12,
            "ε over-spend: committed {} > total {total} + slack",
            committed.0
        );
        assert!(
            committed.1 <= delta_total * (1.0 + RELATIVE_SLACK) + 1e-18,
            "δ over-spend: committed {} > total {delta_total} + slack",
            committed.1
        );
        let Some(path) = self.journal else {
            return;
        };
        let debits = self.ledger.debits();
        drop(self.ledger);
        let (reopened, summary) = DurableLedger::open_budget(&path, self.grant).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(!summary.corrupted);
        let close = |got: f64, want: f64, scale: f64| (got - want).abs() <= scale * 1e-9;
        assert!(
            close(summary.spent, committed.0.min(total), total),
            "replayed ε {} vs settled + unsettled {}",
            summary.spent,
            committed.0
        );
        assert!(
            close(
                summary.delta_spent,
                committed.1.min(delta_total),
                delta_total
            ),
            "replayed δ {} vs settled + unsettled {}",
            summary.delta_spent,
            committed.1
        );
        assert!(close(summary.recovered_pending, unsettled.0, total));
        assert!(close(
            summary.recovered_pending_delta,
            unsettled.1,
            delta_total
        ));
        assert_eq!(reopened.debits(), debits);
    }
}

/// Runs `work(t)` on `threads` threads behind a spin barrier, so they
/// actually contend, and collects what each returns.
fn contend<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let started = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (started, work) = (&started, &work);
                s.spawn(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < threads {
                        std::hint::spin_loop();
                    }
                    work(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Hammers one ledger from `threads` threads, each attempting every
/// debit in `sizes` repeatedly (`rounds` passes), and returns the ε each
/// thread was actually granted.
fn hammer(ledger: &DurableLedger, threads: usize, rounds: usize, sizes: &[f64]) -> Vec<f64> {
    contend(threads, |t| {
        let mut granted = 0.0;
        for round in 0..rounds {
            for i in 0..sizes.len() {
                // Stagger the order per thread so different sizes
                // collide at the boundary.
                let size = sizes[(i + t + round) % sizes.len()];
                match ledger.debit(eps(size)) {
                    Ok(_) => granted += size,
                    Err(DurableError::Budget(BudgetError::Exhausted { .. })) => {}
                    Err(e) => panic!("pure ε debit failed oddly: {e:?}"),
                }
                if (i + t) % 3 == 0 {
                    std::thread::yield_now();
                }
            }
        }
        granted
    })
}

#[test]
fn concurrent_debits_never_exceed_one_slack() {
    let total = 1.0;
    for mode in MODES {
        let subject = Subject::open(mode, Budget::pure(eps(total)));
        let granted = hammer(&subject.ledger, 16, 50, &[0.01, 0.003, 0.0007]);
        let granted_sum: f64 = granted.iter().sum();
        // The bound under test: everything actually granted, summed
        // across all threads, stays within the documented one-slack
        // envelope.
        assert!(
            granted_sum <= total * (1.0 + RELATIVE_SLACK) + 1e-12,
            "{mode:?}: over-spend: granted {granted_sum} > total {total} + slack"
        );
        // The run must have actually driven the ledger to the boundary —
        // the leftover must be too small for even the smallest debit — or
        // the test proved nothing about contention at exhaustion.
        assert!(
            granted_sum >= total - 0.0007,
            "{mode:?}: ledger never reached exhaustion (granted {granted_sum}); \
             the boundary was not exercised"
        );
        subject.reopen_and_check((granted_sum, 0.0), (0.0, 0.0));
    }
}

#[test]
fn dust_debits_stay_blocked_under_contention() {
    // Exhaust, then have many threads fling sub-slack dust at the ledger:
    // not one grain may leak through (the sequential ledger's dust guard
    // must hold on the lock-free path too).
    for mode in MODES {
        let subject = Subject::open(mode, Budget::pure(eps(1.0)));
        let ledger = &subject.ledger;
        ledger.debit(eps(1.0)).unwrap();
        let leaked: usize = contend(8, |_| {
            (0..1000)
                .filter(|_| ledger.debit(eps(1e-12)).is_ok())
                .count()
        })
        .into_iter()
        .sum();
        assert_eq!(
            leaked, 0,
            "{mode:?}: {leaked} dust debits leaked through exhaustion"
        );
        assert_eq!(ledger.debits(), 1);
        subject.reopen_and_check((1.0, 0.0), (0.0, 0.0));
    }
}

#[test]
fn successful_debit_count_matches_ledger() {
    // The debit counter is part of the audit trail: it must agree with the
    // number of grants the callers observed.
    for mode in MODES {
        let subject = Subject::open(mode, Budget::pure(eps(1.0)));
        let ledger = &subject.ledger;
        let grants: usize = contend(12, |_| {
            (0..100)
                .filter(|_| ledger.debit(eps(0.004)).is_ok())
                .count()
        })
        .into_iter()
        .sum();
        assert_eq!(ledger.debits(), grants);
        // 250 × 0.004 = 1.0 exactly fills the budget.
        assert_eq!(grants, 250, "{mode:?}");
        assert!(ledger.is_exhausted());
        subject.reopen_and_check((grants as f64 * 0.004, 0.0), (0.0, 0.0));
    }
}

/// What one thread of [`hammer_budget`] did to the ledger: the (ε, δ) it
/// settled and the (ε, δ) it reserved but left unresolved.
#[derive(Default)]
struct Outcome {
    settled: (f64, f64),
    unsettled: (f64, f64),
}

/// Hammers one (ε, δ) ledger through the two-phase atomic reserve path:
/// every thread runs `begin_budget` → settle, aborts every
/// `abort_every`-th successful reservation and, with `abandon_every`,
/// leaves every such reservation unresolved (a release a crash cut
/// short). Aborted reservations grant nothing and must refund both
/// columns exactly.
fn hammer_budget(
    ledger: &DurableLedger,
    threads: usize,
    rounds: usize,
    sizes: &[(f64, f64)],
    abort_every: usize,
    abandon_every: Option<usize>,
) -> Outcome {
    let outcomes = contend(threads, |t| {
        let mut out = Outcome::default();
        let mut reservations = 0usize;
        for round in 0..rounds {
            for i in 0..sizes.len() {
                let (e, d) = sizes[(i + t + round) % sizes.len()];
                match ledger.begin_budget(budget(e, d)) {
                    Ok(id) => {
                        reservations += 1;
                        if abandon_every.is_some_and(|k| reservations.is_multiple_of(k)) {
                            out.unsettled.0 += e;
                            out.unsettled.1 += d;
                        } else if reservations.is_multiple_of(abort_every) {
                            ledger.abort(id);
                        } else {
                            ledger.settle(id);
                            out.settled.0 += e;
                            out.settled.1 += d;
                        }
                    }
                    Err(DurableError::Budget(
                        BudgetError::Exhausted { .. } | BudgetError::DeltaExhausted { .. },
                    )) => {}
                    Err(e) => panic!("reservation failed oddly: {e:?}"),
                }
                if (i + t) % 3 == 0 {
                    std::thread::yield_now();
                }
            }
        }
        out
    });
    outcomes
        .into_iter()
        .fold(Outcome::default(), |acc, o| Outcome {
            settled: (acc.settled.0 + o.settled.0, acc.settled.1 + o.settled.1),
            unsettled: (
                acc.unsettled.0 + o.unsettled.0,
                acc.unsettled.1 + o.unsettled.1,
            ),
        })
}

#[test]
fn atomic_reserve_bounds_both_columns_under_contention() {
    let (total_eps, total_delta) = (1.0, 1e-5);
    let sizes = [(0.01, 1.1e-7), (0.003, 2.9e-8), (0.0007, 8e-9)];
    for mode in MODES {
        let subject = Subject::open(mode, budget(total_eps, total_delta));
        let ledger = &subject.ledger;
        let out = hammer_budget(ledger, 16, 60, &sizes, 7, None);
        let (eps_sum, delta_sum) = out.settled;
        assert!(
            eps_sum <= total_eps * (1.0 + RELATIVE_SLACK) + 1e-12,
            "{mode:?}: ε over-spend: settled {eps_sum} > total {total_eps} + slack"
        );
        assert!(
            delta_sum <= total_delta * (1.0 + RELATIVE_SLACK) + 1e-18,
            "{mode:?}: δ over-spend: settled {delta_sum} > total {total_delta} + slack"
        );
        // One of the columns must have been driven to its boundary — the
        // leftover too small for even the smallest request — or the race
        // at exhaustion was never exercised.
        assert!(
            ledger.remaining() < 0.0007 || ledger.delta_remaining() < 8e-9,
            "{mode:?}: neither column reached its boundary (ε {eps_sum}, δ {delta_sum})"
        );
        // Everything reserved was either settled or refunded: no intent
        // may stay pending once the threads are done.
        assert_eq!(ledger.pending(), 0);
        assert!(ledger.debits() > 0);
        subject.reopen_and_check(out.settled, (0.0, 0.0));
    }
}

#[test]
fn unresolved_reservations_count_as_spent_under_contention() {
    // A crash cuts some releases short between reserve and settle: the
    // reservations they hold must stay spent — in memory while the
    // process lives, and in the journal's replay after it dies — and
    // settled plus unresolved must keep the one-slack bound.
    let (total_eps, total_delta) = (1.0, 1e-5);
    let sizes = [(0.01, 1.1e-7), (0.003, 2.9e-8), (0.0007, 8e-9)];
    for mode in MODES {
        let subject = Subject::open(mode, budget(total_eps, total_delta));
        let ledger = &subject.ledger;
        let out = hammer_budget(ledger, 16, 60, &sizes, 7, Some(5));
        assert!(
            ledger.pending() > 0,
            "{mode:?}: nothing was left unresolved"
        );
        let committed = (
            out.settled.0 + out.unsettled.0,
            out.settled.1 + out.unsettled.1,
        );
        assert!(
            (total_eps - ledger.remaining() - committed.0.min(total_eps)).abs() < 1e-9,
            "{mode:?}: ε held {} vs settled + unresolved {}",
            total_eps - ledger.remaining(),
            committed.0
        );
        assert!(
            (total_delta - ledger.delta_remaining() - committed.1.min(total_delta)).abs()
                < 1e-9 * total_delta,
            "{mode:?}: δ held {} vs settled + unresolved {}",
            total_delta - ledger.delta_remaining(),
            committed.1
        );
        // Settled spend excludes what the unresolved intents hold.
        assert!((ledger.spent() - out.settled.0).abs() < 1e-9);
        assert!((ledger.delta_spent() - out.settled.1).abs() < 1e-9 * total_delta);
        subject.reopen_and_check(out.settled, out.unsettled);
    }
}

#[test]
fn aborted_reservations_refund_exactly() {
    // Reserve-then-abort in a tight contended loop must leave the ledger
    // exactly where it started: the refund subtracts the post-clamp
    // applied amounts, not the requested ones.
    for mode in MODES {
        let subject = Subject::open(mode, budget(1.0, 1e-6));
        let ledger = &subject.ledger;
        contend(8, |_| {
            for _ in 0..500 {
                if let Ok(id) = ledger.begin_budget(budget(0.01, 3e-9)) {
                    ledger.abort(id);
                }
            }
        });
        assert!(
            ledger.spent().abs() < 1e-12,
            "{mode:?}: ε leaked: {}",
            ledger.spent()
        );
        assert!(
            ledger.delta_spent().abs() < 1e-18,
            "{mode:?}: δ leaked: {}",
            ledger.delta_spent()
        );
        assert_eq!(ledger.debits(), 0);
        assert_eq!(ledger.pending(), 0);
        // The refunded budget is fully grantable again.
        ledger.debit_budget(budget(1.0, 1e-6)).unwrap();
        subject.reopen_and_check((1.0, 1e-6), (0.0, 0.0));
    }
}

#[test]
fn delta_dust_stays_blocked_under_contention() {
    // Exhaust the δ column, then fling sub-slack δ dust from many
    // threads: the δ dust guard must hold on the atomic path even while
    // the ε column still has room.
    for mode in MODES {
        let subject = Subject::open(mode, budget(10.0, 1e-6));
        let ledger = &subject.ledger;
        ledger.debit_budget(budget(0.1, 1e-6)).unwrap();
        assert!(ledger.is_delta_exhausted());
        let leaked: usize = contend(8, |_| {
            (0..1000)
                .filter(|_| ledger.debit_budget(budget(1e-4, 1e-18)).is_ok())
                .count()
        })
        .into_iter()
        .sum();
        assert_eq!(
            leaked, 0,
            "{mode:?}: {leaked} δ dust debits leaked through exhaustion"
        );
        // A δ refusal must not have bled the ε column either.
        assert!((ledger.spent() - 0.1).abs() < 1e-12);
        assert_eq!(ledger.debits(), 1);
        subject.reopen_and_check((0.1, 1e-6), (0.0, 0.0));
    }
}

proptest! {
    /// Property form of the audit: for arbitrary totals and debit-size
    /// menus, the contended grant total stays within one slack of the
    /// advertised budget.
    #[test]
    fn over_spend_bound_holds_for_arbitrary_sizes(
        total in 0.05f64..4.0,
        sizes in proptest::collection::vec(1e-4f64..0.2, 1..4),
        threads in 2usize..9,
    ) {
        let scaled: Vec<f64> = sizes.iter().map(|s| s * total).collect();
        let rounds = 1 + (2.0 / (scaled.iter().sum::<f64>() * threads as f64)).ceil() as usize;
        for mode in MODES {
            let subject = Subject::open(mode, Budget::pure(eps(total)));
            let granted: f64 =
                hammer(&subject.ledger, threads, rounds.min(50), &scaled).iter().sum();
            prop_assert!(
                granted <= total * (1.0 + RELATIVE_SLACK) + 1e-12,
                "{:?}: granted {} vs total {}", mode, granted, total
            );
            subject.reopen_and_check((granted, 0.0), (0.0, 0.0));
        }
    }

    /// The same property through the two-phase atomic reserve path, over
    /// both columns at once, with a deterministic sprinkling of aborts:
    /// settled ε and settled δ each stay within one slack of their
    /// advertised totals, for arbitrary budget menus.
    #[test]
    fn atomic_reserve_bound_holds_for_arbitrary_budgets(
        total_eps in 0.05f64..4.0,
        total_delta in 1e-7f64..1e-4,
        sizes in proptest::collection::vec((1e-3f64..0.3, 1e-3f64..0.3), 1..4),
        threads in 2usize..7,
        abort_every in 3usize..12,
    ) {
        let scaled: Vec<(f64, f64)> = sizes
            .iter()
            .map(|(e, d)| (e * total_eps, d * total_delta))
            .collect();
        let per_round: f64 = scaled.iter().map(|s| s.0).sum::<f64>() * threads as f64;
        let rounds = 1 + (2.0 / per_round).ceil() as usize;
        for mode in MODES {
            let subject = Subject::open(mode, budget(total_eps, total_delta));
            let out = hammer_budget(
                &subject.ledger, threads, rounds.min(40), &scaled, abort_every, None,
            );
            let (eps_sum, delta_sum) = out.settled;
            prop_assert!(
                eps_sum <= total_eps * (1.0 + RELATIVE_SLACK) + 1e-12,
                "{:?}: settled ε {} vs total {}", mode, eps_sum, total_eps
            );
            prop_assert!(
                delta_sum <= total_delta * (1.0 + RELATIVE_SLACK) + 1e-15,
                "{:?}: settled δ {} vs total {}", mode, delta_sum, total_delta
            );
            prop_assert_eq!(subject.ledger.pending(), 0);
            subject.reopen_and_check(out.settled, (0.0, 0.0));
        }
    }
}
