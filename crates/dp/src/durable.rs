//! The (ε, δ)-budget ledger: [`DurableLedger`].
//!
//! Sequential composition: releases `M₁(x), …, M_k(x)` with budgets
//! `(ε₁, δ₁), …, (ε_k, δ_k)` jointly satisfy `(Σεᵢ, Σδᵢ)`-DP (the same
//! theorem behind [`Epsilon::split`]). A [`DurableLedger`] enforces the
//! contrapositive: it holds a fixed (ε, δ) total, debits every release
//! in both columns, and refuses any debit that would push *either*
//! column past its total, so no caller can silently exceed its
//! advertised guarantee. A ledger opened with
//! [`in_memory`](DurableLedger::in_memory) holds δ-total 0 and refuses
//! every approximate-DP debit.
//!
//! Two guards make the rule exact under f64 rounding, per column:
//!
//! * **one slack:** a debit may exceed what remains by at most one
//!   relative slack (`total × 1e-9`), so ten debits of ε/10 sum to ε;
//!   the spend is clamped at the total;
//! * **dust:** an exhausted column refuses *every* debit, however
//!   small, so sub-slack dust cannot keep releasing while the spend
//!   stays clamped.
//!
//! Together they bound the true cumulative spend by the total plus one
//! slack over the ledger's whole lifetime. A pure (δ = 0) debit never
//! consults the δ column, so pure traffic still flows through a
//! δ-exhausted ledger.
//!
//! Many threads may share one ledger. Each debit runs a two-phase
//! protocol, optionally over a write-ahead journal ([`crate::journal`]):
//!
//! 1. [`begin_budget`](DurableLedger::begin_budget) *reserves* the
//!    budget and, with a journal, appends a fsync'd `Intent` record —
//!    only after this may noise be drawn;
//! 2. [`settle`](DurableLedger::settle) finalizes the debit once the
//!    noisy answer is (about to be) released;
//! 3. [`abort`](DurableLedger::abort) refunds a reservation whose
//!    noise was never released.
//!
//! [`in_memory`](DurableLedger::in_memory) opens the ledger without a
//! journal (process-lifetime durability) and
//! [`open_budget`](DurableLedger::open_budget) opens it over a journal
//! file; the protocol and its guarantees are otherwise identical, so
//! callers never branch on durability.
//!
//! # Lock-free spend accounting
//!
//! Each spend column (ε, and δ under approximate DP) lives in an
//! `AtomicU64` holding f64 bits, and a reservation is one CAS loop that
//! applies the rule above atomically:
//!
//! 1. load the current spend, evaluate the exact sequential predicate
//!    (dust guard + one-slack headroom) against it;
//! 2. on pass, CAS the clamped new spend in; a lost race simply reloads
//!    and re-checks.
//!
//! Every successful CAS is therefore a sequential debit executed at its
//! linearization point, so any concurrent history is equivalent to some
//! sequential one and keeps the one-slack bound and the dust guard. A
//! both-column reservation takes ε first and δ second; a δ refusal
//! rolls back exactly the ε amount that was applied (post-clamp), so a
//! refused approximate debit leaves both columns untouched at
//! quiescence.
//!
//! Admission checks and refused reservations never take a lock. Only
//! the settlement bookkeeping — the pending-intent map, the next intent
//! id and the journal — sits behind one mutex, which a successful
//! reservation takes to record its intent.
//!
//! # Conservative by construction
//!
//! Every failure resolves toward *more* spent budget, never less, in
//! **both** columns:
//!
//! * a journal replay counts unsettled intents as spent — a kill
//!   between intent and settle wastes the reserved (ε, δ) at worst;
//! * [`settle`](DurableLedger::settle) debits locally even when its
//!   journal append fails (the on-disk intent already replays as
//!   spent, so local and durable views agree);
//! * [`abort`](DurableLedger::abort) refunds only when the `Abort`
//!   record is durably appended; if the append fails, the reservation
//!   is kept forever (budget lost, guarantee intact);
//! * a journal with damage before its final frame opens fully
//!   exhausted — ε *and* δ.

use crate::budget::{Budget, Epsilon};
use crate::journal::{LedgerJournal, Record};
use crate::ledger::{BudgetError, RELATIVE_SLACK};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A thread-safe, optionally journal-backed two-phase budget ledger.
///
/// The type is a cheap `Arc` handle: clones share the same ledger, so a
/// scheduler thread can admission-[`check`](DurableLedger::check) while
/// workers reserve and settle around each release.
///
/// ```
/// use lrm_dp::{DurableLedger, Epsilon};
///
/// let ledger = DurableLedger::in_memory(Epsilon::new(1.0).unwrap());
/// let half = Epsilon::new(0.5).unwrap();
/// let handle = ledger.clone(); // same ledger, another thread's handle
/// let id = ledger.begin(half).unwrap(); // reserve before drawing noise
/// ledger.settle(id); // the release happened
/// handle.debit(half).unwrap(); // begin + settle in one call
/// assert!(ledger.is_exhausted());
/// assert!(handle.begin(half).is_err());
/// ```
#[derive(Clone)]
pub struct DurableLedger {
    inner: Arc<Inner>,
}

struct Inner {
    total: f64,
    delta_total: f64,
    /// f64 bits of the cumulative ε spend (reservations included).
    spent_bits: AtomicU64,
    /// f64 bits of the cumulative δ spend (reservations included).
    delta_spent_bits: AtomicU64,
    /// Settled debits.
    debits: AtomicUsize,
    /// Settlement bookkeeping only — the spend columns above never hide
    /// behind this lock. A refused reservation never takes it.
    settle: Mutex<Settlement>,
}

struct Settlement {
    /// Intent id → the (ε, δ) actually applied to the columns at
    /// reservation (post-clamp), so an abort refunds exactly what was
    /// taken.
    pending: HashMap<u64, (f64, f64)>,
    next_id: u64,
    journal: Option<LedgerJournal>,
}

/// What [`DurableLedger::open`] found on disk (the default: nothing — a
/// fresh grant).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResumeSummary {
    /// Whether a prior journal with the same total was honored (false
    /// for a fresh ledger or a total change, which resets the grant).
    pub resumed: bool,
    /// Whether the journal had damage before its final frame; the
    /// ledger opened fully exhausted.
    pub corrupted: bool,
    /// Complete records replayed.
    pub replayed: usize,
    /// Settled ε spend after recovery (includes recovered intents).
    pub spent: f64,
    /// Settled δ spend after recovery (includes recovered intents).
    pub delta_spent: f64,
    /// ε from unsettled intents folded into the spend — reserved by a
    /// previous process but never released.
    pub recovered_pending: f64,
    /// δ from unsettled intents folded into the spend.
    pub recovered_pending_delta: f64,
}

/// Failure of a durable-ledger operation.
#[derive(Debug)]
pub enum DurableError {
    /// The debit was refused by budget accounting.
    Budget(BudgetError),
    /// The journal append failed; nothing was reserved and no noise
    /// may be drawn for this debit.
    Io(io::Error),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Budget(e) => write!(f, "{e}"),
            DurableError::Io(e) => write!(f, "budget journal append failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Budget(e) => Some(e),
            DurableError::Io(e) => Some(e),
        }
    }
}

impl From<BudgetError> for DurableError {
    fn from(e: BudgetError) -> Self {
        DurableError::Budget(e)
    }
}

/// One lock-free check-and-debit over a single spend column: [`admits`]
/// and the debit clamp, applied atomically. Returns the amount actually
/// applied (post-clamp) on success, the remaining budget observed at
/// refusal otherwise.
fn column_reserve(bits: &AtomicU64, total: f64, amount: f64) -> Result<f64, f64> {
    let mut cur = bits.load(Ordering::Acquire);
    loop {
        let spent = f64::from_bits(cur);
        admits(spent, total, amount)?;
        let new_spent = (spent + amount).min(total);
        match bits.compare_exchange_weak(
            cur,
            new_spent.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Ok(new_spent - spent),
            Err(actual) => cur = actual,
        }
    }
}

/// Refunds an amount previously applied by [`column_reserve`]. Only ever
/// *reduces* spend, so it cannot weaken the over-spend bound; the floor
/// at zero guards the (unreachable in practice) case of refunding more
/// than the column holds.
fn column_rollback(bits: &AtomicU64, applied: f64) {
    if applied <= 0.0 {
        return;
    }
    let mut cur = bits.load(Ordering::Acquire);
    loop {
        let new_spent = (f64::from_bits(cur) - applied).max(0.0);
        match bits.compare_exchange_weak(
            cur,
            new_spent.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Side-effect-free evaluation of one column's admission predicate.
fn column_check(bits: &AtomicU64, total: f64, amount: f64) -> Result<(), f64> {
    admits(f64::from_bits(bits.load(Ordering::Acquire)), total, amount)
}

/// The sequential rule for one column at spend `spent`: an exhausted
/// column refuses *every* debit (the dust guard), otherwise one slack of
/// headroom absorbs f64 rounding. A refusal carries the remaining
/// budget.
fn admits(spent: f64, total: f64, amount: f64) -> Result<(), f64> {
    let remaining = (total - spent).max(0.0);
    if remaining <= total * RELATIVE_SLACK || amount > remaining + total * RELATIVE_SLACK {
        return Err(remaining);
    }
    Ok(())
}

impl DurableLedger {
    /// A pure ε-DP ledger with no journal: same two-phase API,
    /// process-lifetime durability.
    pub fn in_memory(total: Epsilon) -> Self {
        Self::in_memory_budget(Budget::pure(total))
    }

    /// An (ε, δ) ledger with no journal.
    pub fn in_memory_budget(total: Budget) -> Self {
        Self::from_state(total.eps().value(), total.delta(), 0.0, 0.0, 0, 0, None)
    }

    fn from_state(
        total: f64,
        delta_total: f64,
        spent: f64,
        delta_spent: f64,
        debits: usize,
        next_id: u64,
        journal: Option<LedgerJournal>,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                total,
                delta_total,
                spent_bits: AtomicU64::new(spent.to_bits()),
                delta_spent_bits: AtomicU64::new(delta_spent.to_bits()),
                debits: AtomicUsize::new(debits),
                settle: Mutex::new(Settlement {
                    pending: HashMap::new(),
                    next_id,
                    journal,
                }),
            }),
        }
    }

    /// Opens (creating if absent) the journal at `path` for a pure
    /// ε-DP grant. See [`DurableLedger::open_budget`].
    pub fn open(path: &Path, total: Epsilon) -> io::Result<(Self, ResumeSummary)> {
        Self::open_budget(path, Budget::pure(total))
    }

    /// Opens (creating if absent) the journal at `path`, replays it,
    /// and compacts it.
    ///
    /// If the journal's recorded (ε, δ) total equals `total`,
    /// accounting resumes where the previous process stopped —
    /// unsettled intents are folded into the settled spend of both
    /// columns (conservative). A different total in *either* column is
    /// an explicit re-grant and resets the spend to zero. A corrupted
    /// journal opens the ledger fully exhausted. An ε-only (v1)
    /// journal resumes under a pure grant exactly as before; under an
    /// approximate-DP grant its δ-total of 0 differs from the new
    /// grant, so the grant resets — a v1 history can never be
    /// mistaken for δ spend.
    pub fn open_budget(path: &Path, total: Budget) -> io::Result<(Self, ResumeSummary)> {
        let rep = LedgerJournal::replay_file(path)?;
        let pending_sum: f64 = rep.pending.values().map(|(e, _)| e).sum();
        let pending_delta: f64 = rep.pending.values().map(|(_, d)| d).sum();
        let total_eps = total.eps().value();
        let total_delta = total.delta();
        let (resumed, settled, settled_delta, debits) = if rep.corrupted {
            (true, total_eps, total_delta, rep.debits)
        } else {
            match rep.total {
                Some(t) if t == total_eps && rep.total_delta == total_delta => (
                    true,
                    (rep.settled + pending_sum).min(total_eps),
                    (rep.settled_delta + pending_delta).min(total_delta),
                    rep.debits,
                ),
                _ => (false, 0.0, 0.0, 0),
            }
        };
        let journal = LedgerJournal::create_compacted(
            path,
            total_eps,
            total_delta,
            settled,
            settled_delta,
            debits,
        )?;
        let recovered = resumed && !rep.corrupted;
        let summary = ResumeSummary {
            resumed: resumed && rep.records > 0,
            corrupted: rep.corrupted,
            replayed: rep.records,
            spent: settled,
            delta_spent: settled_delta,
            recovered_pending: if recovered { pending_sum } else { 0.0 },
            recovered_pending_delta: if recovered { pending_delta } else { 0.0 },
        };
        let ledger = Self::from_state(
            total_eps,
            total_delta,
            settled,
            settled_delta,
            debits as usize,
            rep.next_id,
            Some(journal),
        );
        Ok((ledger, summary))
    }

    /// Locks the settlement bookkeeping, recovering from poisoning: a
    /// panic in one worker must not turn every later budget operation
    /// into a second panic — the spend columns themselves are atomics
    /// and always valid.
    fn settlement(&self) -> MutexGuard<'_, Settlement> {
        self.inner.settle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reserves both columns of `budget` atomically (ε first, δ second;
    /// a δ refusal rolls back the applied ε), returning the post-clamp
    /// amounts applied to each column.
    fn reserve(&self, budget: Budget) -> Result<(f64, f64), BudgetError> {
        let inner = &*self.inner;
        let eps = budget.eps().value();
        let delta = budget.delta();
        // Fail fast on the δ column before churning ε: purely advisory
        // (the authoritative δ check is the CAS below), but it spares
        // the ε rollback in the common δ-exhausted refusal.
        self.check_delta(delta)?;
        let applied_eps =
            column_reserve(&inner.spent_bits, inner.total, eps).map_err(|remaining| {
                BudgetError::Exhausted {
                    requested: eps,
                    remaining,
                }
            })?;
        if delta == 0.0 {
            return Ok((applied_eps, 0.0));
        }
        match column_reserve(&inner.delta_spent_bits, inner.delta_total, delta) {
            Ok(applied_delta) => Ok((applied_eps, applied_delta)),
            Err(remaining) => {
                column_rollback(&inner.spent_bits, applied_eps);
                Err(BudgetError::DeltaExhausted {
                    requested: delta,
                    remaining,
                })
            }
        }
    }

    /// Side-effect-free admission check: could `eps` be reserved right
    /// now? Live reservations count as spent.
    ///
    /// Under contention this is advisory — another thread may spend the
    /// budget between a successful `check` and the later
    /// [`begin_budget`](DurableLedger::begin_budget), which is why the
    /// reservation re-validates atomically. Use `check` to fail fast at
    /// admission, never as a reservation.
    pub fn check(&self, eps: Epsilon) -> Result<(), BudgetError> {
        column_check(&self.inner.spent_bits, self.inner.total, eps.value()).map_err(|remaining| {
            BudgetError::Exhausted {
                requested: eps.value(),
                remaining,
            }
        })
    }

    /// Side-effect-free admission check over both (ε, δ) columns. A pure
    /// (δ = 0) budget never consults the δ column, so pure traffic still
    /// flows through a δ-exhausted ledger.
    pub fn check_budget(&self, budget: Budget) -> Result<(), BudgetError> {
        self.check(budget.eps())?;
        self.check_delta(budget.delta())
    }

    /// The δ half of [`check_budget`](DurableLedger::check_budget); a
    /// zero δ always passes.
    fn check_delta(&self, delta: f64) -> Result<(), BudgetError> {
        if delta == 0.0 {
            return Ok(());
        }
        column_check(&self.inner.delta_spent_bits, self.inner.delta_total, delta).map_err(
            |remaining| BudgetError::DeltaExhausted {
                requested: delta,
                remaining,
            },
        )
    }

    /// Phase one of a pure ε-DP debit. See
    /// [`DurableLedger::begin_budget`].
    pub fn begin(&self, eps: Epsilon) -> Result<u64, DurableError> {
        self.begin_budget(Budget::pure(eps))
    }

    /// Phase one of a debit: reserves the (ε, δ) budget and durably
    /// records the intent. Only after this returns `Ok` may noise be
    /// drawn for the release it covers. On `Err`, nothing is reserved
    /// and nothing may be released.
    ///
    /// The reservation itself is lock-free; only recording the intent
    /// takes the settlement mutex, and a refused reservation returns
    /// before ever touching it.
    pub fn begin_budget(&self, budget: Budget) -> Result<u64, DurableError> {
        let applied = self.reserve(budget)?;
        let mut settlement = self.settlement();
        let id = settlement.next_id;
        if let Some(journal) = &mut settlement.journal {
            // An append failure may still have torn bytes onto disk;
            // replay drops a torn tail, consistent with "no noise was
            // drawn for this debit".
            let intent = Record::Intent {
                id,
                eps: budget.eps().value(),
                delta: budget.delta(),
            };
            if let Err(e) = journal.append(&intent) {
                column_rollback(&self.inner.spent_bits, applied.0);
                column_rollback(&self.inner.delta_spent_bits, applied.1);
                return Err(DurableError::Io(e));
            }
        }
        settlement.next_id += 1;
        settlement.pending.insert(id, applied);
        Ok(id)
    }

    /// Phase two, success path: finalizes debit `id` and returns the
    /// remaining ε budget. Must be called *before* the noisy answer
    /// escapes the process. Never refuses — admission happened at
    /// [`begin_budget`](DurableLedger::begin_budget). Unknown (or
    /// already-settled) ids only report the remainder, so a supervisor
    /// replaying work cannot double-debit.
    pub fn settle(&self, id: u64) -> f64 {
        let mut settlement = self.settlement();
        if settlement.pending.remove(&id).is_some() {
            self.inner.debits.fetch_add(1, Ordering::Relaxed);
            if let Some(journal) = &mut settlement.journal {
                // Tolerated on failure: the on-disk intent replays as
                // spent, which is exactly the local state.
                let _ = journal.append(&Record::Settle { id });
            }
        }
        drop(settlement);
        self.remaining()
    }

    /// Phase two, failure path: refunds debit `id` whose noise was
    /// never released, returning exactly the post-clamp amounts its
    /// reservation applied. With a journal, the refund only happens if
    /// the `Abort` record is durably appended; otherwise the
    /// reservation is kept forever (conservative — the on-disk intent
    /// would replay as spent). Aborting an unknown id is a no-op.
    pub fn abort(&self, id: u64) {
        let mut settlement = self.settlement();
        let Some((eps, delta)) = settlement.pending.remove(&id) else {
            return;
        };
        let refund = match &mut settlement.journal {
            Some(journal) => journal.append(&Record::Abort { id }).is_ok(),
            None => true,
        };
        if refund {
            column_rollback(&self.inner.spent_bits, eps);
            column_rollback(&self.inner.delta_spent_bits, delta);
        }
    }

    /// Single-phase debit: `begin` + immediate `settle`, returning the
    /// remaining ε budget.
    pub fn debit(&self, eps: Epsilon) -> Result<f64, DurableError> {
        self.debit_budget(Budget::pure(eps))
    }

    /// Single-phase (ε, δ) debit: `begin_budget` + immediate `settle`,
    /// returning the remaining ε (the δ remainder is available via
    /// [`DurableLedger::delta_remaining`]).
    pub fn debit_budget(&self, budget: Budget) -> Result<f64, DurableError> {
        let id = self.begin_budget(budget)?;
        Ok(self.settle(id))
    }

    /// Intents reserved but not yet settled or aborted.
    pub fn pending(&self) -> usize {
        self.settlement().pending.len()
    }

    /// Settled (ε, δ) spend: the spend columns minus what live intents
    /// hold. Read under the settlement lock, so no intent settles or
    /// aborts mid-read; a reservation still on its way to the lock shows
    /// as spent for that instant (over-reports, never under-reports).
    /// One call reads both columns consistently, where
    /// [`spent`](DurableLedger::spent) and
    /// [`delta_spent`](DurableLedger::delta_spent) each lock once.
    pub fn settled(&self) -> (f64, f64) {
        let settlement = self.settlement();
        let (eps, delta) = settlement
            .pending
            .values()
            .fold((0.0, 0.0), |(e, d), &(pe, pd)| (e + pe, d + pd));
        (
            (self.committed() - eps).max(0.0),
            (self.delta_committed() - delta).max(0.0),
        )
    }

    /// Cumulative ε spend *including* live reservations — what admission
    /// sees, and what a crash would replay as spent.
    fn committed(&self) -> f64 {
        f64::from_bits(self.inner.spent_bits.load(Ordering::Acquire))
    }

    /// Cumulative δ spend including live reservations.
    fn delta_committed(&self) -> f64 {
        f64::from_bits(self.inner.delta_spent_bits.load(Ordering::Acquire))
    }

    /// The fixed total ε.
    pub fn total(&self) -> f64 {
        self.inner.total
    }

    /// The fixed total δ (0 for a pure ε-DP ledger).
    pub fn delta_total(&self) -> f64 {
        self.inner.delta_total
    }

    /// Settled (released) ε spend — excludes live reservations, which
    /// still bind admission through [`remaining`](DurableLedger::remaining).
    /// Equals `total − remaining` whenever no intent is pending.
    pub fn spent(&self) -> f64 {
        self.settled().0
    }

    /// Settled (released) δ spend — excludes live reservations.
    pub fn delta_spent(&self) -> f64 {
        self.settled().1
    }

    /// ε budget available for new reservations (live reservations count
    /// as spent), never negative.
    pub fn remaining(&self) -> f64 {
        (self.inner.total - self.committed()).max(0.0)
    }

    /// δ budget available for new reservations, never negative.
    pub fn delta_remaining(&self) -> f64 {
        (self.inner.delta_total - self.delta_committed()).max(0.0)
    }

    /// Number of settled debits.
    pub fn debits(&self) -> usize {
        self.inner.debits.load(Ordering::Relaxed)
    }

    /// Whether settled spend and live reservations have (numerically)
    /// exhausted the ε budget.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() <= self.inner.total * RELATIVE_SLACK
    }

    /// Whether the remaining δ budget is (numerically) zero. A pure ε-DP
    /// ledger (δ-total 0) reports `true`: it has no δ to spend.
    pub fn is_delta_exhausted(&self) -> bool {
        self.delta_remaining() <= self.inner.delta_total * RELATIVE_SLACK
    }
}

impl fmt::Debug for DurableLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (spent, delta_spent) = self.settled();
        f.debug_struct("DurableLedger")
            .field("total", &self.inner.total)
            .field("spent", &spent)
            .field("delta_total", &self.inner.delta_total)
            .field("delta_spent", &delta_spent)
            .field("debits", &self.debits())
            .field("pending", &self.pending())
            .finish()
    }
}

/// The settled accounting, e.g. `ε-ledger: spent 0.500000/1.000000 over
/// 1 release(s)`; an (ε, δ) ledger adds its δ column.
impl fmt::Display for DurableLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (spent, delta_spent) = self.settled();
        let (total, delta_total) = (self.inner.total, self.inner.delta_total);
        let debits = self.debits();
        if delta_total > 0.0 {
            write!(
                f,
                "(ε,δ)-ledger: spent ε {spent:.6}/{total:.6}, δ {delta_spent:.3e}/{delta_total:.3e} over {debits} release(s)"
            )
        } else {
            write!(
                f,
                "ε-ledger: spent {spent:.6}/{total:.6} over {debits} release(s)"
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn budget(e: f64, d: f64) -> Budget {
        Budget::new(eps(e), d).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lrm_durable_{name}_{}.epsj", std::process::id()))
    }

    #[test]
    fn clones_share_state() {
        let a = DurableLedger::in_memory(eps(1.0));
        let b = a.clone();
        a.debit(eps(0.25)).unwrap();
        b.debit(eps(0.25)).unwrap();
        assert!((a.spent() - 0.5).abs() < 1e-15);
        assert_eq!(a.debits(), 2);
        assert_eq!(b.debits(), 2);
    }

    #[test]
    fn check_then_debit_round_trip() {
        let l = DurableLedger::in_memory(eps(0.2));
        assert!(l.check(eps(0.2)).is_ok());
        assert!(l.check(eps(0.3)).is_err());
        l.debit(eps(0.2)).unwrap();
        assert!(l.is_exhausted());
        assert!(matches!(
            l.debit(eps(0.1)),
            Err(DurableError::Budget(BudgetError::Exhausted { .. }))
        ));
    }

    #[test]
    fn two_phase_reserve_settle_abort() {
        let l = DurableLedger::in_memory_budget(budget(1.0, 1e-5));
        let id = l.begin_budget(budget(0.7, 4e-6)).unwrap();
        assert_eq!(l.pending(), 1);
        // The live reservation counts as spent for concurrent checks.
        assert!(l.check(eps(0.5)).is_err());
        assert!(l.check_budget(budget(0.1, 7e-6)).is_err());
        l.abort(id);
        assert_eq!(l.pending(), 0);
        assert_eq!(l.debits(), 0);
        assert!(l.check(eps(0.5)).is_ok());
        assert!((l.spent()).abs() < 1e-15);
        assert!((l.delta_spent()).abs() < 1e-20);

        let id = l.begin_budget(budget(0.7, 4e-6)).unwrap();
        let remaining = l.settle(id);
        assert!((remaining - 0.3).abs() < 1e-12);
        assert!((l.delta_remaining() - 6e-6).abs() < 1e-18);
        assert_eq!(l.debits(), 1);
        // Settling twice (or an unknown id) is a harmless report.
        assert!((l.settle(id) - 0.3).abs() < 1e-12);
        assert_eq!(l.debits(), 1);
        l.abort(9999);
        assert!((l.spent() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn in_memory_two_phase_debit() {
        let ledger = DurableLedger::in_memory(eps(1.0));
        let id = ledger.begin(eps(0.4)).unwrap();
        // Reserved ε gates admission before it is settled.
        assert!(ledger.check(eps(0.7)).is_err());
        assert!(ledger.check(eps(0.6)).is_ok());
        let remaining = ledger.settle(id);
        assert!((remaining - 0.6).abs() < 1e-12);
        assert_eq!(ledger.debits(), 1);
    }

    #[test]
    fn abort_refunds_in_memory() {
        let ledger = DurableLedger::in_memory(eps(1.0));
        let id = ledger.begin(eps(0.9)).unwrap();
        assert!(ledger.begin(eps(0.5)).is_err());
        ledger.abort(id);
        assert!(ledger.begin(eps(0.5)).is_ok());
    }

    #[test]
    fn settle_of_unknown_id_is_a_noop() {
        let ledger = DurableLedger::in_memory(eps(1.0));
        let before = ledger.spent();
        ledger.settle(42);
        ledger.abort(42);
        assert_eq!(ledger.spent(), before);
        assert_eq!(ledger.debits(), 0);
    }

    #[test]
    fn delta_refusal_rolls_back_the_eps_column() {
        let l = DurableLedger::in_memory_budget(budget(1.0, 1e-6));
        // ε fits, δ does not: neither column may hold anything after.
        let err = l.debit_budget(budget(0.1, 2e-6)).unwrap_err();
        assert!(matches!(
            err,
            DurableError::Budget(BudgetError::DeltaExhausted { .. })
        ));
        assert_eq!(l.spent(), 0.0);
        assert_eq!(l.delta_spent(), 0.0);
        assert_eq!(l.debits(), 0);
        // Pure traffic still flows after δ exhaustion.
        l.debit_budget(budget(0.1, 1e-6)).unwrap();
        assert!(l.is_delta_exhausted());
        assert!(l.debit_budget(budget(0.1, 1e-18)).is_err());
        l.debit_budget(budget(0.2, 0.0)).unwrap();
        assert!((l.spent() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn pure_ledger_refuses_any_delta() {
        let l = DurableLedger::in_memory(eps(1.0));
        assert_eq!(l.delta_total(), 0.0);
        assert!(l.is_delta_exhausted());
        assert!(l.debit_budget(budget(0.1, 1e-12)).is_err());
        l.debit_budget(budget(0.1, 0.0)).unwrap();
        assert_eq!(l.debits(), 1);
    }

    #[test]
    fn survives_a_poisoned_settlement_lock() {
        let l = DurableLedger::in_memory(eps(1.0));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.inner.settle.lock().unwrap();
            panic!("poison the settlement lock");
        })
        .join();
        // The ledger stays usable and consistent after the panic.
        let id = l.begin_budget(budget(0.5, 0.0)).unwrap();
        l.settle(id);
        assert!((l.spent() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn display_and_debug_render() {
        let l = DurableLedger::in_memory(eps(1.0));
        l.debit(eps(0.5)).unwrap();
        assert!(l.to_string().contains("1 release"));
        assert!(format!("{l:?}").contains("DurableLedger"));
    }

    #[test]
    fn durable_spend_survives_reopen() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, summary) = DurableLedger::open(&path, eps(2.0)).unwrap();
            assert!(!summary.resumed);
            ledger.debit(eps(0.5)).unwrap();
            ledger.debit(eps(0.25)).unwrap();
        }
        let (ledger, summary) = DurableLedger::open(&path, eps(2.0)).unwrap();
        assert!(summary.resumed);
        assert!(!summary.corrupted);
        assert!((summary.spent - 0.75).abs() < 1e-12);
        assert!((ledger.spent() - 0.75).abs() < 1e-12);
        assert_eq!(ledger.debits(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsettled_intent_counts_as_spent_after_reopen() {
        let path = tmp("pending");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = DurableLedger::open(&path, eps(1.0)).unwrap();
            let _id = ledger.begin(eps(0.5)).unwrap();
            // Process "dies" here: intent durably recorded, never settled.
        }
        let (ledger, summary) = DurableLedger::open(&path, eps(1.0)).unwrap();
        assert!((summary.recovered_pending - 0.5).abs() < 1e-12);
        assert!((ledger.spent() - 0.5).abs() < 1e-12);
        // The recovered spend gates new debits.
        assert!(ledger.begin(eps(0.75)).is_err());
        assert!(ledger.begin(eps(0.5)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn aborted_intent_is_refunded_after_reopen() {
        let path = tmp("abort");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = DurableLedger::open(&path, eps(1.0)).unwrap();
            let id = ledger.begin(eps(0.5)).unwrap();
            ledger.abort(id);
        }
        let (ledger, _) = DurableLedger::open(&path, eps(1.0)).unwrap();
        assert_eq!(ledger.spent(), 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn total_change_resets_the_grant() {
        let path = tmp("regrant");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = DurableLedger::open(&path, eps(1.0)).unwrap();
            ledger.debit(eps(0.8)).unwrap();
        }
        let (ledger, summary) = DurableLedger::open(&path, eps(3.0)).unwrap();
        assert!(!summary.resumed);
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.total(), 3.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_journal_opens_exhausted() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = DurableLedger::open(&path, eps(1.0)).unwrap();
            ledger.debit(eps(0.1)).unwrap();
            ledger.debit(eps(0.1)).unwrap();
        }
        // Flip a bit in the first record (not the final frame).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, summary) = DurableLedger::open(&path, eps(1.0)).unwrap();
        assert!(summary.corrupted);
        assert!(ledger.is_exhausted());
        assert!(ledger.begin(eps(0.05)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_spend_survives_reopen() {
        let path = tmp("delta_reopen");
        let _ = std::fs::remove_file(&path);
        let grant = budget(2.0, 1e-5);
        {
            let (ledger, summary) = DurableLedger::open_budget(&path, grant).unwrap();
            assert!(!summary.resumed);
            ledger.debit_budget(budget(0.5, 4e-6)).unwrap();
        }
        let (ledger, summary) = DurableLedger::open_budget(&path, grant).unwrap();
        assert!(summary.resumed);
        assert!((summary.delta_spent - 4e-6).abs() < 1e-18);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-18);
        assert_eq!(ledger.delta_total(), 1e-5);
        // The recovered δ spend gates new δ debits.
        assert!(ledger.debit_budget(budget(0.1, 7e-6)).is_err());
        assert!(ledger.debit_budget(budget(0.1, 6e-6)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsettled_delta_intent_counts_as_spent_after_reopen() {
        // The "torn tail never refunds δ" replay property end to end: a
        // process dies after the δ intent is durably recorded but before
        // settle; the δ must be charged on resume.
        let path = tmp("delta_pending");
        let _ = std::fs::remove_file(&path);
        let grant = budget(1.0, 1e-5);
        {
            let (ledger, _) = DurableLedger::open_budget(&path, grant).unwrap();
            let _id = ledger.begin_budget(budget(0.5, 4e-6)).unwrap();
            // Process "dies" here.
        }
        let (ledger, summary) = DurableLedger::open_budget(&path, grant).unwrap();
        assert!((summary.recovered_pending_delta - 4e-6).abs() < 1e-18);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-18);
        assert!(ledger.begin_budget(budget(0.1, 7e-6)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_grant_change_resets() {
        // Same ε total, different δ total: the grant must reset rather
        // than resume a ledger whose δ column means something else.
        let path = tmp("delta_regrant");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = DurableLedger::open_budget(&path, budget(1.0, 1e-5)).unwrap();
            ledger.debit_budget(budget(0.5, 4e-6)).unwrap();
        }
        let (ledger, summary) = DurableLedger::open_budget(&path, budget(1.0, 1e-4)).unwrap();
        assert!(!summary.resumed);
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.delta_spent(), 0.0);
        assert_eq!(ledger.delta_total(), 1e-4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_journal_under_approx_grant_resets_not_resumes() {
        // A PR-7-era ε-only journal (δ-total 0) reopened under an
        // approximate-DP grant differs in the δ column, so it must
        // reset — v1 history can never masquerade as δ spend.
        let path = tmp("v1_under_approx");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = DurableLedger::open(&path, eps(1.0)).unwrap();
            ledger.debit(eps(0.5)).unwrap();
        }
        let (ledger, summary) = DurableLedger::open_budget(&path, budget(1.0, 1e-6)).unwrap();
        assert!(!summary.resumed);
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.delta_total(), 1e-6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_journal_exhausts_delta_too() {
        let path = tmp("delta_corrupt");
        let _ = std::fs::remove_file(&path);
        let grant = budget(1.0, 1e-5);
        {
            let (ledger, _) = DurableLedger::open_budget(&path, grant).unwrap();
            ledger.debit_budget(budget(0.1, 1e-6)).unwrap();
            ledger.debit_budget(budget(0.1, 1e-6)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, summary) = DurableLedger::open_budget(&path, grant).unwrap();
        assert!(summary.corrupted);
        assert!(ledger.is_exhausted());
        assert_eq!(ledger.delta_remaining(), 0.0);
        assert!(ledger.begin_budget(budget(0.01, 1e-9)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn abort_refunds_delta() {
        let ledger = DurableLedger::in_memory_budget(budget(1.0, 1e-6));
        let id = ledger.begin_budget(budget(0.5, 1e-6)).unwrap();
        assert!(ledger.check_budget(budget(0.1, 1e-9)).is_err());
        ledger.abort(id);
        assert_eq!(ledger.delta_remaining(), 1e-6);
        assert!(ledger.check_budget(budget(0.1, 1e-7)).is_ok());
    }
}
