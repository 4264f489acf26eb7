//! Per-tenant budget ledgers, optionally journaled.
//!
//! Every tenant (analyst) owns one [`DurableLedger`]: the scheduler
//! admission-checks against it (fail fast, advisory, lock-free) and a
//! worker runs the two-phase debit protocol around every release — an
//! intent is reserved (and, with a journal, durably recorded) *before*
//! noise is drawn, the debit settles *before* the tenant's answer slice
//! leaves the server, and an intent whose noise was never released is
//! aborted (refunded only if the abort is durably recorded). With a
//! state directory configured, each tenant's ledger is backed by a
//! fsync'd write-ahead journal ([`lrm_dp::journal`]): a crash replays
//! every unsettled intent as spent, so the server can over-charge a
//! tenant across a kill but can never under-charge one. Without one,
//! the same ledger runs with no journal and lives as long as the
//! process. A slice that fails settlement is never released: withholding
//! it is privacy-free (nothing about the data is observable from a
//! response that never arrives), so a refused debit spends nothing.
//!
//! Grants and releases are full (ε, δ) [`Budget`]s: pure tenants carry
//! δ = 0 and behave exactly as before, Gaussian tenants reserve, settle,
//! and recover *both* columns through the same two-phase protocol — a
//! crash replays unsettled δ as spent just like unsettled ε.

use lrm_dp::{Budget, BudgetError, DurableError, DurableLedger, Epsilon, ResumeSummary};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// The tenant registry: a concurrent map of tenant id → budget ledger.
#[derive(Debug, Default)]
pub(crate) struct TenantLedgers {
    ledgers: RwLock<HashMap<String, DurableLedger>>,
    /// Journal directory; `None` runs every ledger without a journal
    /// (durability for the process lifetime only).
    dir: Option<PathBuf>,
    /// Ledger journals replayed on registration (restart resumes).
    replays: AtomicU64,
}

/// One tenant's budget position, reported in the
/// [`ServerReport`](crate::server::ServerReport).
///
/// `spent`, `delta_spent` and `releases` count *settled* releases only.
/// An intent reserved but not yet settled or aborted is left out here,
/// though it already binds admission and a crash would replay it as
/// spent. Once no release is in flight, nothing is reserved and these
/// figures are the tenant's whole spend — except for a release whose
/// worker died between noise and settlement, whose reservation stays
/// held (never refunded) until a restart replays it as spent.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpend {
    /// Tenant id.
    pub tenant: String,
    /// The total ε this tenant registered with.
    pub total: f64,
    /// Cumulative ε of this tenant's settled releases.
    pub spent: f64,
    /// The total δ this tenant registered with (`0` for pure grants).
    pub delta_total: f64,
    /// Cumulative δ of this tenant's settled releases.
    pub delta_spent: f64,
    /// Number of settled releases.
    pub releases: usize,
}

impl TenantLedgers {
    /// A registry journaling under `dir` (`None` = in-memory ledgers).
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            ledgers: RwLock::new(HashMap::new()),
            dir,
            replays: AtomicU64::new(0),
        }
    }

    /// Registers (or resets) a tenant with a fresh pure-ε budget,
    /// resuming its durable journal when one exists with the same total.
    pub fn register(&self, tenant: &str, total: Epsilon) -> Result<ResumeSummary, AdmissionError> {
        self.register_budget(tenant, Budget::pure(total))
    }

    /// Registers (or resets) a tenant with a fresh (ε, δ) budget,
    /// resuming its durable journal when one exists with the same totals
    /// (a grant whose ε *or* δ total changed resets instead of resuming).
    /// Without a state directory the ledger has no journal and the
    /// summary reports a fresh grant.
    pub fn register_budget(
        &self,
        tenant: &str,
        total: Budget,
    ) -> Result<ResumeSummary, AdmissionError> {
        let ledger_error = |e: std::io::Error| AdmissionError::Ledger {
            tenant: tenant.to_string(),
            reason: e.to_string(),
        };
        let (ledger, resume) = match &self.dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(ledger_error)?;
                let path = dir.join(ledger_file_name(tenant));
                let (ledger, summary) =
                    DurableLedger::open_budget(&path, total).map_err(ledger_error)?;
                if summary.resumed {
                    self.replays.fetch_add(1, Ordering::Relaxed);
                }
                (ledger, summary)
            }
            None => (
                DurableLedger::in_memory_budget(total),
                ResumeSummary::default(),
            ),
        };
        self.ledgers
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(tenant.to_string(), ledger);
        Ok(resume)
    }

    /// The tenant's ledger handle, if registered.
    pub fn get(&self, tenant: &str) -> Option<DurableLedger> {
        self.ledgers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
            .cloned()
    }

    /// Advisory admission check (reservations count as spent). Both the
    /// ε and δ components of `budget` must fit the tenant's remainder.
    pub fn check_budget(&self, tenant: &str, budget: Budget) -> Result<(), AdmissionError> {
        let ledger = self
            .get(tenant)
            .ok_or_else(|| AdmissionError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        ledger.check_budget(budget).map_err(AdmissionError::Budget)
    }

    /// Phase one of a settlement: durably reserves `budget` (both
    /// components) for one release. Only after this returns `Ok` may
    /// noise be drawn for the tenant's slice. In a cross-ε batch every
    /// member begins at its *own* budget — the shared base draw never
    /// changes what a member pays.
    pub fn begin_budget(&self, tenant: &str, budget: Budget) -> Result<u64, AdmissionError> {
        let ledger = self
            .get(tenant)
            .ok_or_else(|| AdmissionError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        ledger.begin_budget(budget).map_err(|e| match e {
            DurableError::Budget(b) => AdmissionError::Budget(b),
            DurableError::Io(io) => AdmissionError::Ledger {
                tenant: tenant.to_string(),
                reason: io.to_string(),
            },
        })
    }

    /// Phase two, success path: finalizes intent `id` and returns the
    /// remaining `(ε, δ)` budget. Never refuses (admission happened at
    /// `begin_budget`).
    pub fn settle(&self, tenant: &str, id: u64) -> (f64, f64) {
        match self.get(tenant) {
            Some(ledger) => {
                let eps_remaining = ledger.settle(id);
                (eps_remaining, ledger.delta_remaining())
            }
            None => (0.0, 0.0),
        }
    }

    /// Phase two, failure path: refunds intent `id` (only if the abort
    /// is durably recorded — otherwise the reservation is kept, which is
    /// conservative).
    pub fn abort(&self, tenant: &str, id: u64) {
        if let Some(ledger) = self.get(tenant) {
            ledger.abort(id);
        }
    }

    /// Single-phase debit: `begin` + immediate `settle`; returns the
    /// remaining ε budget. The serving path always uses the two phases
    /// explicitly (intent before noise); this shorthand serves tests.
    #[cfg(test)]
    pub fn debit(&self, tenant: &str, eps: Epsilon) -> Result<f64, AdmissionError> {
        let id = self.begin_budget(tenant, Budget::pure(eps))?;
        Ok(self.settle(tenant, id).0)
    }

    /// Ledger journals replayed on registration so far.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Point-in-time budget positions of every tenant, sorted by id.
    pub fn snapshot(&self) -> Vec<TenantSpend> {
        let mut spends: Vec<TenantSpend> = self
            .ledgers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(tenant, ledger)| {
                let l = ledger.snapshot();
                TenantSpend {
                    tenant: tenant.clone(),
                    total: l.total(),
                    spent: l.spent(),
                    delta_total: l.delta_total(),
                    delta_spent: l.delta_spent(),
                    releases: l.debits(),
                }
            })
            .collect();
        spends.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        spends
    }
}

/// Journal file name for one tenant: a sanitized prefix for operator
/// readability plus an FNV-1a hash of the exact id for uniqueness
/// (distinct tenants whose names sanitize identically get distinct
/// files).
fn ledger_file_name(tenant: &str) -> String {
    let safe: String = tenant
        .chars()
        .take(32)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{safe}-{h:016x}.epsj")
}

/// Typed admission/settlement failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The request names a tenant that was never registered.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: String,
    },
    /// The tenant's remaining budget cannot cover the request.
    Budget(BudgetError),
    /// The tenant's durable budget journal failed an I/O operation; the
    /// request is refused (nothing was reserved, no noise is drawn).
    Ledger {
        /// The affected tenant id.
        tenant: String,
        /// The underlying I/O failure.
        reason: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant {tenant:?}")
            }
            AdmissionError::Budget(e) => write!(f, "{e}"),
            AdmissionError::Ledger { tenant, reason } => {
                write!(f, "budget journal for tenant {tenant:?} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::Budget(e) => Some(e),
            AdmissionError::UnknownTenant { .. } | AdmissionError::Ledger { .. } => None,
        }
    }
}

/// Sliding-window budget burn rates: every settled release drops one
/// `(when, ε, δ)` sample per tenant; [`BurnTracker::report`] reduces
/// the samples still inside the window to a per-second rate and an
/// estimated time-to-exhaustion. Pure accounting over already-debited
/// grants — no query data, no noise, nothing the ledgers don't already
/// publish.
/// One tenant's recent spend samples: `(when, ε, δ)` per release.
type SpendSamples = VecDeque<(Instant, f64, f64)>;

#[derive(Debug)]
pub(crate) struct BurnTracker {
    window: Duration,
    samples: Mutex<HashMap<String, SpendSamples>>,
}

impl BurnTracker {
    /// A tracker averaging spend over the trailing `window`.
    pub(crate) fn new(window: Duration) -> Self {
        Self {
            window: window.max(Duration::from_millis(1)),
            samples: Mutex::new(HashMap::new()),
        }
    }

    /// Records one settled release for `tenant`.
    pub(crate) fn record(&self, tenant: &str, budget: Budget) {
        let now = Instant::now();
        let mut samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let queue = samples.entry(tenant.to_string()).or_default();
        queue.push_back((now, budget.eps().value(), budget.delta()));
        while queue
            .front()
            .is_some_and(|(t, _, _)| now.duration_since(*t) > self.window)
        {
            queue.pop_front();
        }
    }

    /// Reduces to per-tenant telemetry, one entry per ledger `spends`
    /// row (tenants with no in-window releases report zero rates).
    pub(crate) fn report(&self, spends: &[TenantSpend]) -> Vec<TenantTelemetry> {
        let now = Instant::now();
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let horizon = self.window.as_secs_f64();
        spends
            .iter()
            .map(|spend| {
                let (eps_in_window, delta_in_window) = samples
                    .get(&spend.tenant)
                    .map(|queue| {
                        queue
                            .iter()
                            .filter(|(t, _, _)| now.duration_since(*t) <= self.window)
                            .fold((0.0, 0.0), |(e, d), (_, se, sd)| (e + se, d + sd))
                    })
                    .unwrap_or((0.0, 0.0));
                let eps_burn_per_sec = eps_in_window / horizon;
                let delta_burn_per_sec = delta_in_window / horizon;
                TenantTelemetry {
                    tenant: spend.tenant.clone(),
                    eps_spent: spend.spent,
                    eps_remaining: (spend.total - spend.spent).max(0.0),
                    delta_spent: spend.delta_spent,
                    delta_remaining: (spend.delta_total - spend.delta_spent).max(0.0),
                    window: self.window,
                    eps_burn_per_sec,
                    delta_burn_per_sec,
                    eps_exhaustion: exhaustion(spend.total - spend.spent, eps_burn_per_sec),
                    delta_exhaustion: exhaustion(
                        spend.delta_total - spend.delta_spent,
                        delta_burn_per_sec,
                    ),
                }
            })
            .collect()
    }
}

/// `remaining / rate` as a duration; `None` when the burn rate is ~0
/// (no exhaustion in sight — avoids infinities in reports). Capped at
/// about 30 years so the duration always constructs.
fn exhaustion(remaining: f64, rate_per_sec: f64) -> Option<Duration> {
    const CAP_SECS: f64 = 1e9;
    if rate_per_sec <= f64::EPSILON {
        return None;
    }
    Some(Duration::from_secs_f64(
        (remaining.max(0.0) / rate_per_sec).min(CAP_SECS),
    ))
}

/// One tenant's privacy-budget telemetry, reported in the
/// [`ServerReport`](crate::server::ServerReport): the ledger position
/// plus the trailing-window burn rate and the time-to-exhaustion it
/// implies at that pace.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTelemetry {
    /// Tenant id.
    pub tenant: String,
    /// Cumulative ε granted.
    pub eps_spent: f64,
    /// ε still grantable.
    pub eps_remaining: f64,
    /// Cumulative δ granted (`0` for pure grants).
    pub delta_spent: f64,
    /// δ still grantable.
    pub delta_remaining: f64,
    /// The trailing window the rates below average over.
    pub window: Duration,
    /// ε granted per second over the trailing window.
    pub eps_burn_per_sec: f64,
    /// δ granted per second over the trailing window.
    pub delta_burn_per_sec: f64,
    /// At the current ε burn rate, when the remaining ε runs out
    /// (`None` when the tenant is idle in the window).
    pub eps_exhaustion: Option<Duration>,
    /// At the current δ burn rate, when the remaining δ runs out
    /// (`None` when idle or on a pure server).
    pub delta_exhaustion: Option<Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn pure(v: f64) -> Budget {
        Budget::pure(eps(v))
    }

    #[test]
    fn register_check_debit_cycle() {
        let tenants = TenantLedgers::default();
        tenants.register("acme", eps(1.0)).unwrap();
        assert!(tenants.check_budget("acme", pure(0.5)).is_ok());
        assert!((tenants.debit("acme", eps(0.5)).unwrap() - 0.5).abs() < 1e-15);
        assert!(tenants.check_budget("acme", pure(0.6)).is_err());
        assert!(matches!(
            tenants.debit("acme", eps(0.6)),
            Err(AdmissionError::Budget(BudgetError::Exhausted { .. }))
        ));
    }

    #[test]
    fn unknown_tenant_is_typed() {
        let tenants = TenantLedgers::default();
        assert_eq!(
            tenants.check_budget("ghost", pure(0.1)),
            Err(AdmissionError::UnknownTenant {
                tenant: "ghost".into()
            })
        );
        assert!(tenants.get("ghost").is_none());
    }

    #[test]
    fn snapshot_sorted_and_accurate() {
        let tenants = TenantLedgers::default();
        tenants.register("zeta", eps(2.0)).unwrap();
        tenants.register("alpha", eps(1.0)).unwrap();
        tenants.debit("zeta", eps(0.5)).unwrap();
        let snap = tenants.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].tenant, "alpha");
        assert_eq!(snap[0].spent, 0.0);
        assert_eq!(snap[1].tenant, "zeta");
        assert!((snap[1].spent - 0.5).abs() < 1e-15);
        assert_eq!(snap[1].releases, 1);
        assert_eq!(snap[1].delta_total, 0.0);
        assert_eq!(snap[1].delta_spent, 0.0);
    }

    #[test]
    fn re_register_resets_the_budget() {
        let tenants = TenantLedgers::default();
        tenants.register("acme", eps(0.5)).unwrap();
        tenants.debit("acme", eps(0.5)).unwrap();
        assert!(tenants.check_budget("acme", pure(0.1)).is_err());
        tenants.register("acme", eps(1.0)).unwrap();
        assert!(tenants.check_budget("acme", pure(0.1)).is_ok());
    }

    #[test]
    fn two_phase_reservation_gates_admission() {
        let tenants = TenantLedgers::default();
        tenants.register("acme", eps(1.0)).unwrap();
        let id = tenants.begin_budget("acme", pure(0.7)).unwrap();
        // The live reservation counts as spent for concurrent checks.
        assert!(tenants.check_budget("acme", pure(0.5)).is_err());
        tenants.abort("acme", id);
        assert!(tenants.check_budget("acme", pure(0.5)).is_ok());
        let id = tenants.begin_budget("acme", pure(0.7)).unwrap();
        let (remaining, delta_remaining) = tenants.settle("acme", id);
        assert!((remaining - 0.3).abs() < 1e-12);
        assert_eq!(delta_remaining, 0.0);
    }

    #[test]
    fn approx_grants_track_both_columns() {
        let tenants = TenantLedgers::default();
        let grant = Budget::approx(eps(1.0), 1e-5).unwrap();
        tenants.register_budget("acme", grant).unwrap();
        let release = Budget::approx(eps(0.25), 1e-6).unwrap();
        let id = tenants.begin_budget("acme", release).unwrap();
        let (eps_remaining, delta_remaining) = tenants.settle("acme", id);
        assert!((eps_remaining - 0.75).abs() < 1e-12);
        assert!((delta_remaining - 9e-6).abs() < 1e-18);

        // δ exhaustion refuses even when ε would fit.
        let delta_hog = Budget::approx(eps(0.1), 9.5e-6).unwrap();
        assert!(matches!(
            tenants.check_budget("acme", delta_hog),
            Err(AdmissionError::Budget(_))
        ));

        let snap = tenants.snapshot();
        assert!((snap[0].delta_total - 1e-5).abs() < 1e-18);
        assert!((snap[0].delta_spent - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn durable_registry_resumes_spend_across_instances() {
        let dir = std::env::temp_dir().join(format!(
            "lrm_tenants_resume_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let tenants = TenantLedgers::new(Some(dir.clone()));
            let r = tenants.register("acme", eps(1.0)).unwrap();
            assert!(!r.resumed);
            tenants.debit("acme", eps(0.25)).unwrap();
            // A second tenant with a hostile name shares the directory.
            tenants.register("../acme", eps(1.0)).unwrap();
            tenants.debit("../acme", eps(0.5)).unwrap();
            assert_eq!(tenants.replays(), 0);
        }
        let tenants = TenantLedgers::new(Some(dir.clone()));
        let r = tenants.register("acme", eps(1.0)).unwrap();
        assert!(r.resumed);
        assert!((r.spent - 0.25).abs() < 1e-12);
        let r2 = tenants.register("../acme", eps(1.0)).unwrap();
        assert!((r2.spent - 0.5).abs() < 1e-12);
        assert_eq!(tenants.replays(), 2);
        assert!(tenants.check_budget("acme", pure(0.8)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_file_names_are_unique_and_safe() {
        let a = ledger_file_name("../../etc/passwd");
        let b = ledger_file_name(".././etc/passwd");
        assert_ne!(a, b);
        assert!(!a.contains('/') && !a.contains(".."));
        assert!(a.ends_with(".epsj"));
    }

    #[test]
    fn burn_tracker_rates_and_exhaustion() {
        let tracker = BurnTracker::new(Duration::from_secs(10));
        for _ in 0..4 {
            tracker.record("acme", Budget::approx(eps(0.25), 1e-7).unwrap());
        }
        let spends = vec![
            TenantSpend {
                tenant: "acme".into(),
                total: 2.0,
                spent: 1.0,
                delta_total: 1e-5,
                delta_spent: 4e-7,
                releases: 4,
            },
            TenantSpend {
                tenant: "idle".into(),
                total: 1.0,
                spent: 0.0,
                delta_total: 0.0,
                delta_spent: 0.0,
                releases: 0,
            },
        ];
        let telemetry = tracker.report(&spends);
        assert_eq!(telemetry.len(), 2);
        let acme = &telemetry[0];
        assert_eq!(acme.tenant, "acme");
        assert!((acme.eps_remaining - 1.0).abs() < 1e-12);
        // 4 × 0.25 ε inside a 10 s window → 0.1 ε/s → exhaustion in
        // about 10 s for the remaining 1.0 ε.
        assert!((acme.eps_burn_per_sec - 0.1).abs() < 1e-9);
        let eta = acme.eps_exhaustion.expect("burning tenant has an ETA");
        assert!((eta.as_secs_f64() - 10.0).abs() < 0.5, "eta {eta:?}");
        assert!(acme.delta_exhaustion.is_some());
        let idle = &telemetry[1];
        assert_eq!(idle.eps_burn_per_sec, 0.0);
        assert!(idle.eps_exhaustion.is_none());
        assert!(idle.delta_exhaustion.is_none());
    }

    #[test]
    fn burn_tracker_evicts_samples_past_the_window() {
        let tracker = BurnTracker::new(Duration::from_millis(20));
        tracker.record("acme", pure(0.5));
        std::thread::sleep(Duration::from_millis(40));
        tracker.record("acme", pure(0.25));
        let spends = vec![TenantSpend {
            tenant: "acme".into(),
            total: 1.0,
            spent: 0.75,
            delta_total: 0.0,
            delta_spent: 0.0,
            releases: 2,
        }];
        let telemetry = tracker.report(&spends);
        // Only the second release is still inside the 20 ms window.
        let expected = 0.25 / 0.020;
        assert!(
            (telemetry[0].eps_burn_per_sec - expected).abs() / expected < 0.5,
            "rate {} vs expected {expected}",
            telemetry[0].eps_burn_per_sec
        );
    }
}
