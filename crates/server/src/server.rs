//! The serving runtime: scheduler, worker pool, sessions-at-scale.
//!
//! Request lifecycle (one batch, end to end):
//!
//! 1. **spec + admit** — a client hands [`Client::submit`] a
//!    [`QuerySpec`]. On the client's thread the budget's noise model is
//!    checked against the server's, the spec is validated and translated
//!    against the server's [`Schema`] into structured rows (never
//!    densified), the tenant must exist, and — with
//!    [`ServerBuilder::max_queue_depth`] set — the request reserves one
//!    queue slot or is shed synchronously with
//!    [`ServerError::Overloaded`]. Each failure is a typed synchronous
//!    error; nothing was enqueued.
//! 2. **budget check** — the coalescing scheduler thread checks the
//!    tenant's ledger (typed [`ServerError::Admission`] on an
//!    already-insufficient budget; advisory, see step 6) and refuses
//!    quarantined shapes.
//! 3. **coalesce** — compatible submissions (same schema and structural
//!    class — see [`coalesce`](crate::coalesce)) arriving within the
//!    bounded window are collected into one open batch. On a pure-DP
//!    server the per-release ε is part of the batch key; on a Gaussian
//!    server only the δ-class is — members at *different* ε coalesce
//!    (see step 5). The batch closes when its estimated combined rank
//!    stops growing and the batch pays for its compile (see
//!    [`ServerBuilder::rank_close`]), when the window
//!    elapses, or at the `max_batch` ceiling. A lone spec falls through
//!    as a single-request batch.
//! 4. **compile / cache** — a worker claims the oldest closed batch from
//!    the one FIFO flush queue, concatenates it into one combined
//!    structured workload and compiles it through the shared [`Engine`]:
//!    repeated workloads are O(1) cache hits, and the whole batch shares
//!    a single strategy.
//! 5. **noise** — pure mode: one [`Mechanism::answer`] call for the whole
//!    batch, one Laplace draw per strategy column, not per member.
//!    Gaussian mode: one *base* draw calibrated at the weakest
//!    (largest-ε) member budget, replayed identically for every member
//!    from the batch's lane-0 stream, plus an independent per-member
//!    residual top-up (lane `k + 1`) of variance `σ_member² − σ_base²` —
//!    Gaussian noise is closed under addition, so each member's slice
//!    carries exactly its own (ε, δ) calibration while the whole batch
//!    shares a single strategy and data pass.
//! 6. **slice + settle** — each member's answer is the contiguous slice
//!    of (its copy of) the batch answer its rows occupy. The settlement
//!    is two-phase: an *intent* durably reserves the member's own
//!    (ε, δ) budget **before** any noise is drawn, and the debit settles
//!    immediately before the slice is released. If concurrent traffic
//!    exhausted the tenant between admission and the intent, the slice
//!    is withheld and the request fails with the same typed budget error
//!    — never an over-spend. A crash between intent and settle replays
//!    the intent as spent (wasted budget at worst, never unaccounted
//!    noise).
//!
//! Completions arrive on the classic blocking [`Ticket`] (one channel
//! per request) or on the evented [`TicketSet`] completion queue
//! ([`Client::submit_budget_into`]) that lets one client thread drive
//! tens of thousands of in-flight requests.
//!
//! The runtime is plain `std::thread::scope` + `mpsc` channels (like the
//! SpMM kernels in `lrm-linalg`): no async runtime, no unbounded queues
//! that outlive [`Server::serve`].
//!
//! # Failure containment
//!
//! * **Durable (ε, δ)-ledgers** — with [`ServerBuilder::state_dir`]
//!   configured, every tenant ledger is a fsync'd write-ahead journal
//!   carrying both budget columns; registration resumes the recorded
//!   spend across restarts, and the noise-epoch file keeps batch indices
//!   (the noise-stream labels) disjoint across restarts even under a
//!   pinned seed.
//! * **Worker supervision** — a panic while answering a batch is caught;
//!   the not-yet-responded members fail with
//!   [`ServerError::Quarantined`], their workload shapes enter a
//!   quarantine set refused at admission from then on, and the worker
//!   keeps its pool slot (a logical respawn) until its panic budget is
//!   spent — and even then the last live worker never retires, so the
//!   pool never goes empty.
//! * **Compile deadlines** — with [`ServerBuilder::compile_deadline`]
//!   set, a compile that overruns is abandoned cooperatively and the
//!   batch is answered by the guaranteed-fast noise-on-data baseline in
//!   the server's own noise flavor — Laplace at the same ε on a pure
//!   server, Gaussian at the same (ε, δ) on an approximate one
//!   ([`Release::degraded`] is set). Nothing is cached for the shape,
//!   so its next batch compiles again.
//! * **Bounded admission** — with [`ServerBuilder::max_queue_depth`]
//!   set, submissions beyond the cap are shed synchronously with
//!   [`ServerError::Overloaded`] instead of growing the queue without
//!   bound; `retry_after` scales with the backlog.

use crate::coalesce::{combine, BatchKey, RankTracker};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::spec::{shape_hash, PreparedSpec, QuerySpec, SpecError};
use crate::tenants::{AdmissionError, BurnTracker, Intent, TenantLedgers, TenantSpend};
use crate::tickets::{Responder, TicketSet};
use lrm_core::engine::{
    CacheStats, CompileOptions, CompiledMechanism, Engine, MechanismKind, NoiseFlavor,
};
use lrm_core::error::CoreError;
use lrm_core::mechanism::Mechanism;
use lrm_dp::rng::{derive_rng, substream};
use lrm_dp::{Budget, Epsilon, ResumeSummary};
use lrm_workload::{Schema, Workload, WorkloadError};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Sliding window over which per-tenant budget burn rates are measured;
/// the [`ServerReport`]'s [`tenants`](ServerReport::tenants) rows quote
/// each tenant's ε/δ spend per second over it.
pub(crate) const BURN_WINDOW: Duration = Duration::from_secs(10);

/// Builder for [`Server`].
#[derive(Debug)]
pub struct ServerBuilder {
    schema: Schema,
    data: Vec<f64>,
    engine: Engine,
    mechanism: MechanismKind,
    options: CompileOptions,
    coalesce_window: Duration,
    max_batch: usize,
    rank_close: bool,
    workers: usize,
    seed: u64,
    state_dir: Option<PathBuf>,
    compile_deadline: Option<Duration>,
    max_queue_depth: Option<usize>,
    worker_panic_budget: u64,
    coalesce_across_eps: bool,
}

impl ServerBuilder {
    /// Starts a builder over the private database `data`, bucketized by
    /// `schema` (row-major flattened; `data.len()` must equal
    /// `schema.domain_size()`).
    ///
    /// The noise seed defaults to fresh OS entropy (see
    /// [`ServerBuilder::seed`]): out of the box every server instance
    /// draws an unpredictable, never-repeating family of noise streams.
    pub fn new(schema: Schema, data: Vec<f64>) -> Self {
        Self {
            schema,
            data,
            engine: Engine::default(),
            mechanism: MechanismKind::Lrm,
            options: CompileOptions::default(),
            coalesce_window: Duration::from_millis(10),
            max_batch: 8,
            rank_close: true,
            workers: 2,
            seed: entropy_seed(),
            state_dir: None,
            compile_deadline: None,
            max_queue_depth: None,
            worker_panic_budget: 8,
            coalesce_across_eps: true,
        }
    }

    /// Uses a pre-configured engine (reference ε, compile defaults, disk
    /// spill). The engine's strategy cache is shared by every batch.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The mechanism every batch compiles to (default
    /// [`MechanismKind::Lrm`]).
    pub fn mechanism(mut self, kind: MechanismKind) -> Self {
        self.mechanism = kind;
        self
    }

    /// Compile options for the batch strategies.
    pub fn compile_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// How long an open batch waits for compatible companions before it
    /// is flushed (default 10 ms). Zero disables coalescing: every
    /// submission flushes immediately as a single-request batch.
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.coalesce_window = window;
        self
    }

    /// Largest number of requests one batch may coalesce (default 8); a
    /// full batch flushes without waiting out the window. `1` disables
    /// coalescing.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Whether the scheduler closes a batch as soon as its estimated
    /// combined rank stops growing and compiling it costs no more than
    /// compiling its members alone (default `true`).
    ///
    /// An open batch tracks an upper bound ρ on the rank of its combined
    /// workload — distinct interval boundary points, or distinct CSR
    /// rows. A member that adds nothing to that bound cannot change the
    /// strategy the batch compiles to: the batch's shared structure is
    /// saturated, and holding it open only adds window latency and makes
    /// the combined fingerprint less likely to repeat (fewer exact cache
    /// hits). Closing at saturation replaces `max_batch` as the primary
    /// close trigger — the cap stays as a hard ceiling — and fixes the
    /// measured BENCH_5 throughput inversion past `max_batch` 16 at
    /// n = 256. The solver runs over a workload's distinct columns and
    /// its row space, both bounded by ρ, so a compile costs ~ρ³ plus a
    /// fixed amount: a saturated batch that still costs more than its
    /// members would alone stays open, since every further member it
    /// takes in shares the compile at no extra ALM cost.
    pub fn rank_close(mut self, enabled: bool) -> Self {
        self.rank_close = enabled;
        self
    }

    /// Worker threads answering batches (default 2).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Master seed for the per-batch noise streams (batch `i` draws from
    /// `derive_rng(seed, i)`).
    ///
    /// **For reproducible experiments and tests only.** The seed is the
    /// whole secret behind the noise: anyone who knows it (and a
    /// release's [`batch_index`](Release::batch_index)) can regenerate
    /// every Laplace draw and subtract it, voiding the ε-DP guarantee.
    /// Production servers must keep the default (fresh OS entropy per
    /// builder) or supply their own secret, uniformly random value —
    /// never a constant baked into code or config shared with clients.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Directory for the server's durable state: per-tenant ε-budget
    /// journals (`ledgers/`) and the noise-epoch file. Restarting a
    /// server over the same directory resumes tenant spend
    /// (conservatively — unsettled intents replay as spent) and keeps
    /// noise-stream labels disjoint. Without it, both live for the
    /// process only. Compiled strategies persist through the engine's
    /// own store (see [`ServerBuilder::engine`]).
    pub fn state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Cooperative per-batch compile deadline (default: none). A compile
    /// that overruns is abandoned at the next solver-iteration check and
    /// the batch is answered by the noise-on-data baseline at the same
    /// budget, with [`Release::degraded`] set. An abandoned compile
    /// caches nothing, so the shape's next batch compiles again.
    pub fn compile_deadline(mut self, deadline: Duration) -> Self {
        self.compile_deadline = Some(deadline);
        self
    }

    /// Bounds the submitted-but-unanswered queue (default: unbounded).
    /// [`Client::submit`] sheds requests beyond the cap synchronously
    /// with [`ServerError::Overloaded`] — load stays visible to the
    /// client instead of accumulating as unbounded latency. A request
    /// reserves its slot atomically at submission, so concurrent
    /// submitters never hold more than `depth` requests in the queue.
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = Some(depth.max(1));
        self
    }

    /// How many contained panics one worker absorbs before retiring its
    /// pool slot (default 8). The last live worker never retires,
    /// whatever the budget says: the pool must never go empty.
    pub fn worker_panic_budget(mut self, budget: u64) -> Self {
        self.worker_panic_budget = budget.max(1);
        self
    }

    /// Whether a Gaussian server coalesces submissions at *different* ε
    /// into one batch within a δ-class (default `true`). Disabling it
    /// restores ε to the batch key — the ε-fragmented scheduling a pure
    /// server is stuck with — which exists as the comparison baseline
    /// for the cross-ε throughput claim. No effect on pure servers,
    /// whose Laplace draws are scale-exact and always key on ε.
    pub fn coalesce_across_eps(mut self, enabled: bool) -> Self {
        self.coalesce_across_eps = enabled;
        self
    }

    /// Validates and finishes the builder.
    pub fn build(self) -> Result<Server, ServerError> {
        if self.data.len() != self.schema.domain_size() {
            return Err(ServerError::Workload(WorkloadError::DomainMismatch {
                expected: self.schema.domain_size(),
                got: self.data.len(),
            }));
        }
        if self.data.iter().any(|v| !v.is_finite()) {
            return Err(ServerError::Workload(WorkloadError::NonFinite));
        }
        if self.max_batch == 0 {
            return Err(ServerError::Core(CoreError::InvalidArgument(
                "max_batch must be at least 1".into(),
            )));
        }
        if self.workers == 0 {
            return Err(ServerError::Core(CoreError::InvalidArgument(
                "the worker pool needs at least one thread".into(),
            )));
        }
        if self.options.flavor == NoiseFlavor::ApproxDp && !self.mechanism.supports_approx() {
            return Err(ServerError::Core(CoreError::InvalidArgument(format!(
                "mechanism {:?} has no Gaussian calibration; an approximate-DP \
                 server needs one of the L2-capable kinds",
                self.mechanism
            ))));
        }
        // With durable state, claim a fresh noise epoch before anything
        // else: batch indices label noise streams (`derive_rng(seed,
        // index)`), and restarting at index 0 under a pinned seed would
        // re-release the exact Laplace draws of the previous process for
        // freshly-debited ε. The epoch file makes every restart's index
        // range disjoint. Refusing to build on epoch-file I/O failure is
        // the conservative choice.
        let batch_start = match &self.state_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| ServerError::State {
                    reason: format!("state dir {}: {e}", dir.display()),
                })?;
                let epoch = next_noise_epoch(dir).map_err(|e| ServerError::State {
                    reason: format!("noise epoch file: {e}"),
                })?;
                // A durable server also arms the flight recorder: a
                // crash dumps the last window of spans/events under
                // `state_dir/flightrec/` next to the ledgers the
                // post-mortem will want to read.
                lrm_obs::flightrec::arm(dir.join("flightrec"));
                epoch << 32
            }
            None => 0,
        };
        Ok(Server {
            schema: self.schema,
            data: self.data,
            engine: self.engine,
            mechanism: self.mechanism,
            options: self.options,
            coalesce_window: self.coalesce_window,
            max_batch: self.max_batch,
            rank_close: self.rank_close,
            workers: self.workers,
            seed: self.seed,
            compile_deadline: self.compile_deadline,
            max_queue_depth: self.max_queue_depth,
            worker_panic_budget: self.worker_panic_budget,
            coalesce_across_eps: self.coalesce_across_eps,
            tenants: TenantLedgers::new(self.state_dir.as_ref().map(|d| d.join("ledgers"))),
            burn: BurnTracker::new(BURN_WINDOW),
            quarantine: RwLock::new(HashSet::new()),
            batch_counter: AtomicU64::new(batch_start),
        })
    }
}

/// Reads the previous noise epoch under `dir`, durably records the next
/// one, and returns it. Epoch 0 is never returned: the first run of a
/// durable server already starts at epoch 1, so its indices are disjoint
/// from any non-durable run's (which start at 0).
fn next_noise_epoch(dir: &Path) -> std::io::Result<u64> {
    use std::io::Write as _;
    let path = dir.join("noise_epoch");
    let prev = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let next = prev
        .checked_add(1)
        .ok_or_else(|| std::io::Error::other("noise epoch counter overflow"))?;
    let mut file = std::fs::File::create(&path)?;
    write!(file, "{next}")?;
    file.sync_all()?;
    Ok(next)
}

/// The batch-serving runtime. See the [module docs](self) for the request
/// lifecycle; construct via [`Server::builder`], register tenants, then
/// drive traffic through [`Server::serve`].
pub struct Server {
    schema: Schema,
    data: Vec<f64>,
    engine: Engine,
    mechanism: MechanismKind,
    options: CompileOptions,
    coalesce_window: Duration,
    max_batch: usize,
    rank_close: bool,
    workers: usize,
    seed: u64,
    compile_deadline: Option<Duration>,
    max_queue_depth: Option<usize>,
    worker_panic_budget: u64,
    coalesce_across_eps: bool,
    tenants: TenantLedgers,
    /// Sliding-window ε/δ burn rates per tenant (settled debits only).
    burn: BurnTracker,
    /// Workload shapes that crashed a worker; refused at admission.
    quarantine: RwLock<HashSet<u64>>,
    /// Lifetime batch counter. The batch index labels the noise stream
    /// (`derive_rng(seed, index)`), so it must never reset while the
    /// server lives: tenant ledgers span [`Server::serve`] calls, and a
    /// repeated index would re-release the same Laplace draws for
    /// freshly-debited ε — breaking sequential composition. With a
    /// state directory, the counter starts at `epoch << 32` so indices
    /// stay disjoint across *process* restarts too.
    batch_counter: AtomicU64,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("domain_size", &self.schema.domain_size())
            .field("mechanism", &self.mechanism)
            .field("coalesce_window", &self.coalesce_window)
            .field("max_batch", &self.max_batch)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a [`ServerBuilder`] over `schema` and the private database
    /// `data`.
    pub fn builder(schema: Schema, data: Vec<f64>) -> ServerBuilder {
        ServerBuilder::new(schema, data)
    }

    /// Registers (or resets) a tenant with a total pure-ε budget.
    ///
    /// With a [state directory](ServerBuilder::state_dir) this opens the
    /// tenant's durable journal and panics on I/O failure; use
    /// [`Server::try_register_tenant`] to handle that case.
    pub fn register_tenant(&self, tenant: &str, total: Epsilon) {
        self.tenants
            .register(tenant, total)
            .expect("tenant budget journal failed to open");
    }

    /// Registers (or resets) a tenant with a total (ε, δ) budget — the
    /// grant a Gaussian server debits both columns of per release.
    /// Panics on journal I/O failure; use
    /// [`Server::try_register_tenant_budget`] to handle that case.
    pub fn register_tenant_budget(&self, tenant: &str, total: Budget) {
        self.tenants
            .register_budget(tenant, total)
            .expect("tenant budget journal failed to open");
    }

    /// Registers (or resets) a tenant, reporting what its durable
    /// journal (if any) recorded: whether a prior spend was resumed,
    /// whether the journal was damaged (the ledger opens fully
    /// exhausted), and how much ε unsettled intents recovered as spent.
    pub fn try_register_tenant(
        &self,
        tenant: &str,
        total: Epsilon,
    ) -> Result<ResumeSummary, ServerError> {
        self.try_register_tenant_budget(tenant, Budget::pure(total))
    }

    /// [`Server::try_register_tenant`] for an (ε, δ) grant: the resume
    /// report additionally carries the recovered δ columns.
    pub fn try_register_tenant_budget(
        &self,
        tenant: &str,
        total: Budget,
    ) -> Result<ResumeSummary, ServerError> {
        self.tenants
            .register_budget(tenant, total)
            .map_err(ServerError::Admission)
    }

    /// The schema requests are translated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared engine (e.g. for cache statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Point-in-time budget positions and burn rates of every
    /// registered tenant, sorted by id.
    pub fn tenant_spend(&self) -> Vec<TenantSpend> {
        let mut spends = self.tenants.snapshot();
        self.burn.report(&mut spends);
        spends
    }

    /// Runs the runtime: spawns the coalescing scheduler and the worker
    /// pool, hands `f` a [`Client`] to drive traffic through, and shuts
    /// everything down (draining every in-flight batch) when `f` returns.
    /// Returns `f`'s result plus the [`ServerReport`] for the run.
    pub fn serve<R>(&self, f: impl FnOnce(&Client<'_>) -> R) -> (R, ServerReport) {
        let metrics = ServerMetrics::default();
        let live_workers = AtomicUsize::new(self.workers);
        let (sub_tx, sub_rx) = mpsc::channel::<Submission>();
        // The flush queue: the scheduler is its only sender, and the
        // workers share its receiver. `recv` hands out every buffered
        // job before it reports the scheduler's hang-up, so each flushed
        // batch is claimed before the last worker exits.
        let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
        let jobs = Mutex::new(job_rx);

        let result = std::thread::scope(|s| {
            let m = &metrics;
            let live = &live_workers;
            let jobs = &jobs;
            s.spawn(move || self.scheduler_loop(m, sub_rx, job_tx));
            for _ in 0..self.workers {
                s.spawn(move || self.worker_loop(m, jobs, live));
            }
            let client = Client {
                server: self,
                metrics: m,
                tx: sub_tx,
            };
            f(&client)
            // `client` (the last submission sender) drops here: the
            // scheduler flushes its open batches and exits, dropping the
            // flush queue's sender; the workers drain the queue, and the
            // scope joins them all.
        });

        metrics
            .ledger_replays
            .store(self.tenants.replays(), Ordering::Relaxed);
        let report = ServerReport {
            metrics: metrics.snapshot(),
            cache: self.engine.cache_stats(),
            tenants: self.tenant_spend(),
        };
        (result, report)
    }

    /// The coalescing scheduler: groups admissible submissions by
    /// [`BatchKey`] within the bounded window and sends closed batches to
    /// the workers' flush queue. It returns (dropping `jobs`, which tells
    /// the workers the admission stream is over) once every client has
    /// hung up and every open batch is flushed.
    fn scheduler_loop(
        &self,
        metrics: &ServerMetrics,
        rx: Receiver<Submission>,
        jobs: Sender<BatchJob>,
    ) {
        let mut open: HashMap<BatchKey, OpenBatch> = HashMap::new();
        let mut next_seq: u64 = 0;
        loop {
            let now = Instant::now();
            let due = Self::due_batches(&mut open, now);
            for batch in due {
                self.flush(metrics, &jobs, batch, CloseReason::Window);
            }
            let msg = match open.values().map(|b| b.deadline).min() {
                Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(now)),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(sub) => {
                    if let Err(e) = self.tenants.check_budget(&sub.tenant, sub.budget) {
                        metrics
                            .rejected_admission
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        respond(metrics, sub, Err(ServerError::Admission(e)));
                        continue;
                    }
                    let shape = shape_hash(&sub.prepared);
                    if self
                        .quarantine
                        .read()
                        .unwrap_or_else(|e| e.into_inner())
                        .contains(&shape)
                    {
                        metrics
                            .failed
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        respond(metrics, sub, Err(ServerError::Quarantined { shape }));
                        continue;
                    }
                    // The key was computed on the submit path.
                    let key = sub.key;
                    let batch = open.entry(key).or_insert_with(|| {
                        let seq = next_seq;
                        next_seq += 1;
                        OpenBatch {
                            seq,
                            deadline: Instant::now() + self.coalesce_window,
                            rank: RankTracker::default(),
                            submissions: Vec::new(),
                        }
                    });
                    let rank_grew = batch.rank.admit(&sub.prepared);
                    batch.submissions.push(sub);
                    // Rank-growth close: a member that adds no new rank
                    // element means the batch's shared structure is
                    // saturated — flush now (the member still rides along
                    // and shares the noise draw), once the batch costs no
                    // more to compile than its members would alone. The
                    // cap stays as a hard ceiling.
                    let saturated = self.rank_close
                        && !rank_grew
                        && batch.submissions.len() > 1
                        && batch.rank.pays();
                    let at_ceiling = batch.submissions.len() >= self.max_batch;
                    if at_ceiling || saturated || self.coalesce_window.is_zero() {
                        // With a zero window `saturated` is impossible
                        // (every batch flushes at length 1), so the
                        // remaining immediate flush is a Window close.
                        let reason = if at_ceiling {
                            CloseReason::MaxBatch
                        } else if saturated {
                            CloseReason::RankGrowth
                        } else {
                            CloseReason::Window
                        };
                        let batch = open.remove(&key).expect("batch just touched");
                        self.flush(metrics, &jobs, batch, reason);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Shutdown: flush every open batch (in opening order)
                    // so no accepted request is ever dropped.
                    let mut rest: Vec<OpenBatch> = open.drain().map(|(_, b)| b).collect();
                    rest.sort_by_key(|b| b.seq);
                    for batch in rest {
                        self.flush(metrics, &jobs, batch, CloseReason::ShutdownDrain);
                    }
                    break;
                }
            }
        }
    }

    /// Removes and returns the open batches whose window has elapsed, in
    /// opening order (so batch indices stay deterministic).
    fn due_batches(open: &mut HashMap<BatchKey, OpenBatch>, now: Instant) -> Vec<OpenBatch> {
        let due_keys: Vec<BatchKey> = open
            .iter()
            .filter(|(_, b)| b.deadline <= now)
            .map(|(k, _)| *k)
            .collect();
        let mut due: Vec<OpenBatch> = due_keys
            .into_iter()
            .map(|k| open.remove(&k).expect("key just listed"))
            .collect();
        due.sort_by_key(|b| b.seq);
        due
    }

    /// Hands a closed batch to the worker pool via the flush queue. The
    /// index comes from the server-lifetime [`Server::batch_counter`], so
    /// no noise stream is ever repeated, however many `serve` runs this
    /// server hosts.
    fn flush(
        &self,
        metrics: &ServerMetrics,
        jobs: &Sender<BatchJob>,
        batch: OpenBatch,
        reason: CloseReason,
    ) {
        let requests = batch.submissions.len() as u64;
        let rows: usize = batch
            .submissions
            .iter()
            .map(|s| s.prepared.num_queries())
            .sum();
        // The batch key fixes the flavor (δ bits are in the key), so the
        // first member speaks for the batch; the distinct-ε count is what
        // tells a cross-ε Gaussian batch from an ordinary coalesced one.
        let gaussian = !batch.submissions[0].budget.is_pure();
        let distinct_eps = batch
            .submissions
            .iter()
            .map(|s| s.budget.eps().value().to_bits())
            .collect::<HashSet<u64>>()
            .len() as u64;
        metrics.batch_flushed(requests, rows as u64, gaussian, distinct_eps);
        let closed = match reason {
            CloseReason::RankGrowth => &metrics.rank_closed_batches,
            CloseReason::Window => &metrics.window_closed_batches,
            CloseReason::MaxBatch => &metrics.ceiling_closed_batches,
            CloseReason::ShutdownDrain => &metrics.drain_closed_batches,
        };
        closed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let index = self
            .batch_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // The batch gets its own trace: members keep their request
        // traces, and the close event records why the batch stopped
        // coalescing plus its composition.
        let trace = lrm_obs::next_trace_id();
        lrm_obs::event!(in trace; "batch.close",
            batch = index,
            reason = reason.label(),
            requests = requests,
            rows = rows,
            gaussian = gaussian,
            distinct_eps = distinct_eps,
        );
        let job = BatchJob {
            index,
            trace,
            flushed_at: Instant::now(),
            submissions: batch.submissions,
        };
        // The workers' receiver lives in `serve` until after the scope
        // joins, so this send cannot fail; were it to, dropping the job
        // would still resolve every member's ticket with `Shutdown`.
        let _ = jobs.send(job);
    }

    /// A supervised worker: answer batches until the scheduler hangs up,
    /// containing panics. A panic while answering fails the batch's
    /// not-yet-responded members with [`ServerError::Quarantined`],
    /// quarantines their workload shapes (refused at admission from then
    /// on — the shape, not the tenant, is what crashed the worker), and
    /// keeps this pool slot running (a logical respawn). A worker that
    /// spends its panic budget retires — unless it is the last live
    /// worker, which soldiers on: the pool must never go empty while the
    /// scheduler can still flush batches at it.
    fn worker_loop(
        &self,
        metrics: &ServerMetrics,
        jobs: &Mutex<Receiver<BatchJob>>,
        live_workers: &AtomicUsize,
    ) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut panics: u64 = 0;
        loop {
            // One idle worker blocks in `recv` while the others wait for
            // the lock; the guard drops before the batch is answered.
            let next = jobs.lock().unwrap_or_else(|e| e.into_inner()).recv();
            let Ok(mut job) = next else {
                break;
            };
            // AssertUnwindSafe: on panic we only touch `job.submissions`
            // (a plain Vec the answer loop shrinks with `remove(0)`, so
            // exactly the unresponded members remain) and shared state
            // whose own locks handle poisoning.
            let outcome = catch_unwind(AssertUnwindSafe(|| self.answer_batch(metrics, &mut job)));
            if outcome.is_ok() {
                continue;
            }
            panics += 1;
            metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
            while !job.submissions.is_empty() {
                let sub = job.submissions.remove(0);
                let shape = shape_hash(&sub.prepared);
                if self
                    .quarantine
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(shape)
                {
                    metrics.quarantined_shapes.fetch_add(1, Ordering::Relaxed);
                }
                metrics.failed.fetch_add(1, Ordering::Relaxed);
                respond(metrics, sub, Err(ServerError::Quarantined { shape }));
            }
            if panics >= self.worker_panic_budget {
                let retired = live_workers
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n > 1).then(|| n - 1)
                    })
                    .is_ok();
                if retired {
                    break;
                }
                // Last worker standing: reset the budget and keep going.
                panics = 0;
            }
        }
    }

    /// Compile → intents → one noisy release → slice → settle, for one
    /// batch. Takes the job by `&mut` so that if this method panics (a
    /// worker fault), the supervisor in [`Server::worker_loop`] finds
    /// exactly the not-yet-responded members still in
    /// `job.submissions`.
    fn answer_batch(&self, metrics: &ServerMetrics, job: &mut BatchJob) {
        let claimed_at = Instant::now();
        let trace = job.trace;
        let _serve_span = lrm_obs::span!(in trace; "batch.serve",
            batch = job.index,
            requests = job.submissions.len(),
        );
        lrm_testing::failpoint!("server::worker::panic");
        let combined = {
            let specs: Vec<&PreparedSpec> = job.submissions.iter().map(|s| &s.prepared).collect();
            combine(self.schema.domain_size(), &specs)
        };
        let (workload, spans) = match combined {
            Ok(v) => v,
            Err(e) => return self.fail_batch(metrics, job, ServerError::Workload(e)),
        };
        let mut compile_span = lrm_obs::span!(in trace; "batch.compile",
            batch = job.index,
            rows = workload.num_queries(),
        );
        // While tracing is on, the ALM outer loop reports each
        // iteration's (τ, β) through the solver-telemetry observer —
        // data-independent by construction (τ is a workload property).
        let compiled = if lrm_obs::enabled() {
            lrm_opt::telemetry::with_observer(
                std::rc::Rc::new(move |it: lrm_opt::AlmIteration| {
                    lrm_obs::event!(in trace; "alm.iteration",
                        outer = it.outer,
                        tau = it.residual,
                        beta = it.beta,
                    );
                }),
                || self.compile_batch(&workload),
            )
        } else {
            self.compile_batch(&workload)
        };
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => return self.fail_batch(metrics, job, e),
        };
        {
            let meta = compiled.meta();
            compile_span.record("cache", cache_label(meta.cache));
            compile_span.record("mechanism", meta.label);
            compile_span.record("compile_seconds", meta.compile_seconds);
            compile_span.record("degraded", meta.degraded);
            if let Some(rank) = meta.strategy_rank {
                compile_span.record("strategy_rank", rank);
            }
            if let Some(iters) = meta.alm_iterations {
                compile_span.record("alm_iterations", iters);
            }
            if let Some(iters) = meta.nesterov_iterations {
                compile_span.record("nesterov_iterations", iters);
            }
            if let Some(cols) = meta.solved_cols {
                compile_span.record("solved_cols", cols);
            }
            if let Some(gap) = meta.duality_gap {
                compile_span.record("duality_gap", gap);
            }
            if let Some(warm) = &meta.warm_start {
                compile_span.record("warm_seed_fingerprint", warm.seed_fingerprint);
                compile_span.record("warm_profile_distance", warm.profile_distance);
            }
        }
        drop(compile_span);
        let compile_done = Instant::now();
        let degraded = compiled.meta().degraded;
        // Phase one: durably reserve every member's own (ε, δ) budget
        // BEFORE any noise is drawn. From here on a crash can only waste
        // reserved budget (the intent replays as spent) — never release
        // unaccounted noise. In a cross-ε batch this is where the
        // shared base draw stops mattering for accounting: each member
        // pays exactly what it asked for.
        let intents: Vec<Result<Intent, AdmissionError>> = job
            .submissions
            .iter()
            .map(|sub| self.tenants.begin_budget(&sub.tenant, sub.budget))
            .collect();
        // Noise for the whole batch, from the batch's own deterministic
        // streams — skipped entirely if no intent was granted (no
        // release will happen, so no noise may exist).
        let noise_started = Instant::now();
        let noise = if intents.iter().any(Result::is_ok) {
            let _noise_span = lrm_obs::span!(in trace; "batch.noise", batch = job.index);
            match self.draw_batch_noise(&compiled, job, &intents) {
                Ok(n) => Some(n),
                Err(e) => {
                    // The noise never leaves the process: refund every
                    // reservation (durably, or keep it — conservative).
                    for intent in intents.iter().flatten() {
                        intent.abort();
                    }
                    return self.fail_batch(metrics, job, ServerError::Core(e));
                }
            }
        } else {
            None
        };
        let noise_done = Instant::now();
        let batch_size = job.submissions.len();
        // The crash window the fault harness aims at: noise exists,
        // settlements have not landed. The durable intents above are
        // what make a kill here safe.
        lrm_testing::failpoint!("server::settle::crash");
        let mut spans = spans.into_iter();
        let mut intents = intents.into_iter();
        let mut member = 0usize;
        while !job.submissions.is_empty() {
            // `remove(0)`, not `drain(..)`: a panic mid-loop must leave
            // the unresponded members in the job for the supervisor
            // (Drain's drop would discard them, hanging their tickets).
            let sub = job.submissions.remove(0);
            let span = spans.next().expect("one span per member");
            let k = member;
            member += 1;
            match intents.next().expect("one intent per member") {
                Ok(intent) => {
                    let (eps_remaining, delta_remaining) = intent.settle();
                    self.burn.record(&sub.tenant, sub.budget);
                    metrics.answered.fetch_add(1, Ordering::Relaxed);
                    if degraded {
                        metrics.degraded_releases.fetch_add(1, Ordering::Relaxed);
                    }
                    let noise = noise
                        .as_ref()
                        .expect("noise was drawn: this member's intent was granted");
                    let answers = match noise {
                        BatchNoise::Shared(a) => a[span].to_vec(),
                        BatchNoise::PerMember(per) => per[k]
                            .as_ref()
                            .expect("per-member noise exists for every granted intent")[span]
                            .to_vec(),
                    };
                    // Data-independent error bound only (`x = None`): the
                    // structural residual ‖(W − BL)x‖² is an exact,
                    // un-noised statistic of the private database, and
                    // this number goes out to tenants without any budget
                    // debit — it must never depend on the data. Computed
                    // per member: in a cross-ε batch each member's noise
                    // is calibrated to its own budget.
                    let expected_avg_error =
                        compiled.expected_average_error_budget(sub.budget, None);
                    let release = Release {
                        answers,
                        eps_spent: sub.budget.eps(),
                        eps_remaining,
                        delta_spent: sub.budget.delta(),
                        delta_remaining,
                        mechanism: compiled.meta().label,
                        expected_avg_error,
                        batch_index: job.index,
                        batch_size,
                        degraded,
                    };
                    let request_trace = sub.trace;
                    let submitted_at = sub.submitted_at;
                    let budget = sub.budget;
                    respond(metrics, sub, Ok(release));
                    if lrm_obs::enabled() {
                        // The client-observed latency, decomposed into
                        // the pipeline's phases. `total_ns` is the sum
                        // of the five components by construction;
                        // settle covers the two gaps around the noise
                        // draw (intents + slicing + settlement).
                        let responded_at = Instant::now();
                        let coalesce_ns = ns_between(submitted_at, job.flushed_at);
                        let queue_ns = ns_between(job.flushed_at, claimed_at);
                        let compile_ns = ns_between(claimed_at, compile_done);
                        let noise_ns = ns_between(noise_started, noise_done);
                        let settle_ns = ns_between(compile_done, noise_started)
                            + ns_between(noise_done, responded_at);
                        lrm_obs::event!(in request_trace; "request.complete",
                            batch = job.index,
                            coalesce_ns = coalesce_ns,
                            queue_ns = queue_ns,
                            compile_ns = compile_ns,
                            noise_ns = noise_ns,
                            settle_ns = settle_ns,
                            total_ns =
                                coalesce_ns + queue_ns + compile_ns + noise_ns + settle_ns,
                            eps = budget.eps().value(),
                            delta = budget.delta(),
                            degraded = degraded,
                        );
                    }
                }
                Err(e) => {
                    metrics.rejected_settlement.fetch_add(1, Ordering::Relaxed);
                    respond(metrics, sub, Err(ServerError::Admission(e)));
                }
            }
        }
    }

    /// Draws the batch's noise from its deterministic streams.
    ///
    /// Pure batches keep the original single-draw discipline: one
    /// [`Mechanism::answer`] call on stream `job.index` — every member's
    /// ε is bit-identical (it is in the batch key), so the one Laplace
    /// draw is correctly scaled for all of them.
    ///
    /// Gaussian batches share one *base* draw calibrated at the weakest
    /// (largest-ε) member budget and give each member an independent
    /// residual top-up: member `k` re-derives the identical base stream
    /// (lane 0 of `job.index`) and adds its own top-up stream (lane
    /// `k + 1`), so its slice carries exactly the variance its own
    /// (ε, δ) demands. Members whose intent was refused draw nothing —
    /// no noise may exist for a release that will not happen.
    fn draw_batch_noise(
        &self,
        compiled: &CompiledMechanism,
        job: &BatchJob,
        intents: &[Result<Intent, AdmissionError>],
    ) -> Result<BatchNoise, CoreError> {
        let first = job.submissions[0].budget;
        if first.is_pure() {
            let mut rng = derive_rng(self.seed, job.index);
            return compiled
                .answer(&self.data, first.eps(), &mut rng)
                .map(BatchNoise::Shared);
        }
        let base = job
            .submissions
            .iter()
            .map(|s| s.budget)
            .max_by(|a, b| a.eps().value().total_cmp(&b.eps().value()))
            .expect("batches are never empty");
        let mut per_member = Vec::with_capacity(job.submissions.len());
        for (k, (sub, intent)) in job.submissions.iter().zip(intents).enumerate() {
            if intent.is_err() {
                per_member.push(None);
                continue;
            }
            // Fresh lane-0 rng per member: every member replays the
            // *identical* base draw, which is what lets their slices
            // share one data pass without sharing a calibration.
            let mut base_rng = derive_rng(self.seed, substream(job.index, 0));
            let mut topup_rng = derive_rng(self.seed, substream(job.index, k as u64 + 1));
            let answers = compiled.answer_with_topup(
                &self.data,
                base,
                sub.budget,
                &mut base_rng,
                &mut topup_rng,
            )?;
            per_member.push(Some(answers));
        }
        Ok(BatchNoise::PerMember(per_member))
    }

    /// Compiles the combined workload, under the configured deadline if
    /// any. A deadline overrun abandons the compile (nothing is cached)
    /// and answers with the guaranteed-fast noise-on-data baseline at
    /// the same budget, marked degraded — availability degrades to a
    /// worse error bound, never to a privacy change. The fallback
    /// compiles under the server's own noise flavor, so a Gaussian
    /// server degrades to Gaussian count noise, never to Laplace.
    fn compile_batch(&self, workload: &Workload) -> Result<CompiledMechanism, ServerError> {
        match self.compile_deadline {
            None => self
                .engine
                .compile(workload, self.mechanism, &self.options)
                .map_err(ServerError::Core),
            Some(budget) => match self.engine.compile_with_deadline(
                workload,
                self.mechanism,
                &self.options,
                budget,
            ) {
                Ok(c) => Ok(c),
                Err(CoreError::DeadlineExceeded) => self
                    .engine
                    .compile(workload, MechanismKind::Laplace, &self.options)
                    .map(CompiledMechanism::mark_degraded)
                    .map_err(ServerError::Core),
                Err(e) => Err(ServerError::Core(e)),
            },
        }
    }

    /// Fails every member of a batch with the same error.
    fn fail_batch(&self, metrics: &ServerMetrics, job: &mut BatchJob, error: ServerError) {
        for sub in job.submissions.drain(..) {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            respond(metrics, sub, Err(error.clone()));
        }
    }
}

/// A fresh unpredictable seed from OS entropy.
///
/// The vendored `rand` has no `OsRng`, so this taps the standard
/// library's SipHash keys: each [`RandomState`] is derived from
/// per-thread keys initialized from operating-system randomness, which
/// is exactly the "secret, uniformly random" requirement the noise seed
/// carries (see [`ServerBuilder::seed`]).
///
/// [`RandomState`]: std::collections::hash_map::RandomState
fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

/// Records the request's exit from the queue and delivers its outcome
/// through whatever responder the submission carries (blocking ticket or
/// ticket-set completion queue). Rejections emit a `request.reject`
/// trace event here — the one place every asynchronous failure path
/// funnels through.
fn respond(metrics: &ServerMetrics, sub: Submission, outcome: Result<Release, ServerError>) {
    if let Err(e) = &outcome {
        let trace = sub.trace;
        lrm_obs::event!(in trace; "request.reject", reason = error_label(e));
    }
    metrics.dequeued(sub.submitted_at.elapsed());
    sub.responder.send(outcome);
}

/// Nanoseconds from `a` to `b` (0 if `b` is not after `a`) — the unit
/// every phase field of a `request.complete` event is quoted in.
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Static label of a cache outcome for span payloads.
fn cache_label(outcome: lrm_core::engine::CacheOutcome) -> &'static str {
    match outcome {
        lrm_core::engine::CacheOutcome::Miss => "miss",
        lrm_core::engine::CacheOutcome::WarmStart => "warm_start",
        lrm_core::engine::CacheOutcome::MemoryHit => "memory_hit",
        lrm_core::engine::CacheOutcome::DiskHit => "disk_hit",
    }
}

/// Static label of an error variant for `request.reject` events — the
/// variant only, never its payload (a payload can carry tenant-chosen
/// strings).
fn error_label(e: &ServerError) -> &'static str {
    match e {
        ServerError::Spec(_) => "spec",
        ServerError::Admission(_) => "admission",
        ServerError::Workload(_) => "workload",
        ServerError::Core(_) => "core",
        ServerError::Shutdown => "shutdown",
        ServerError::Quarantined { .. } => "quarantined",
        ServerError::Overloaded { .. } => "overloaded",
        ServerError::State { .. } => "state",
        ServerError::NoiseModel { .. } => "noise_model",
    }
}

/// Why the scheduler closed a batch; recorded on the `batch.close`
/// event and in the per-reason [`MetricsSnapshot`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// The estimated combined rank stopped growing (see
    /// [`ServerBuilder::rank_close`]).
    RankGrowth,
    /// The coalescing window elapsed (or was zero).
    Window,
    /// The batch hit the `max_batch` ceiling.
    MaxBatch,
    /// Shutdown: the scheduler drained its open batches.
    ShutdownDrain,
}

impl CloseReason {
    fn label(self) -> &'static str {
        match self {
            CloseReason::RankGrowth => "rank_growth",
            CloseReason::Window => "window",
            CloseReason::MaxBatch => "max_batch",
            CloseReason::ShutdownDrain => "shutdown_drain",
        }
    }
}

/// One admitted request traveling through the runtime.
struct Submission {
    tenant: String,
    prepared: PreparedSpec,
    budget: Budget,
    /// The batch key, computed once on the submit path.
    key: BatchKey,
    /// The request's trace id, allocated at dispatch; every event this
    /// request produces (`request.submit` / `.reject` / `.complete`)
    /// carries it.
    trace: u64,
    submitted_at: Instant,
    responder: Responder,
}

/// A closed batch on its way to a worker. Per-member budgets live on the
/// submissions; the batch key guarantees they agree wherever the noise
/// model requires it (ε for pure batches, δ for Gaussian ones).
struct BatchJob {
    index: u64,
    /// The batch's own trace id (members keep their request traces);
    /// `batch.close` and the worker-side spans attach here.
    trace: u64,
    /// When the scheduler closed the batch — the coalesce/queue phase
    /// boundary in every member's latency decomposition.
    flushed_at: Instant,
    submissions: Vec<Submission>,
}

/// The drawn noise of one batch, shaped by its noise model.
enum BatchNoise {
    /// Pure batch: one Laplace release of the combined workload; every
    /// member slices the same vector.
    Shared(Vec<f64>),
    /// Gaussian batch: member `k`'s own full-batch release (the shared
    /// base draw plus `k`'s residual top-up); `None` for members whose
    /// intent was refused.
    PerMember(Vec<Option<Vec<f64>>>),
}

/// A batch still collecting companions in the scheduler.
struct OpenBatch {
    seq: u64,
    deadline: Instant,
    /// Running combined-rank estimate for the rank-growth close.
    rank: RankTracker,
    submissions: Vec<Submission>,
}

/// The submission handle [`Server::serve`] passes to its closure. Clone
/// it freely — one per client thread — every clone feeds the same
/// scheduler.
pub struct Client<'a> {
    server: &'a Server,
    metrics: &'a ServerMetrics,
    tx: Sender<Submission>,
}

impl Clone for Client<'_> {
    fn clone(&self) -> Self {
        Self {
            server: self.server,
            metrics: self.metrics,
            tx: self.tx.clone(),
        }
    }
}

impl fmt::Debug for Client<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client<'_> {
    /// Submits a spec on behalf of `tenant`, requesting one release at
    /// pure ε. Shorthand for [`Client::submit_budget`] with
    /// [`Budget::pure`] — only valid against a pure-DP server.
    pub fn submit(
        &self,
        tenant: &str,
        spec: &QuerySpec,
        eps: Epsilon,
    ) -> Result<Ticket, ServerError> {
        self.submit_budget(tenant, spec, Budget::pure(eps))
    }

    /// Submits a spec on behalf of `tenant`, requesting one release at
    /// `budget`. The noise-model check, spec translation, tenant lookup
    /// and the queue-depth cap fail synchronously; everything later
    /// (budget, compile, answer) arrives through the returned [`Ticket`].
    ///
    /// The budget's flavor must match the server's: a Gaussian server
    /// only grants (ε, δ) releases with δ > 0, a pure server only
    /// δ = 0 ones. Mismatches fail with [`ServerError::NoiseModel`]
    /// before anything is enqueued.
    pub fn submit_budget(
        &self,
        tenant: &str,
        spec: &QuerySpec,
        budget: Budget,
    ) -> Result<Ticket, ServerError> {
        self.enqueue(tenant, spec, budget, || {
            let (tx, rx) = mpsc::channel();
            (Ticket { rx }, Responder::channel(tx))
        })
    }

    /// Submits a spec whose completion is delivered into `set` — the
    /// evented path: one driver thread submits until its in-flight
    /// window is full, then harvests with [`TicketSet::wait_any`] /
    /// [`TicketSet::poll`]. Returns the set token identifying this
    /// submission's completion. Synchronous failures (noise model, spec,
    /// tenant, overload, shutdown) are returned here and never enter the
    /// set.
    pub fn submit_budget_into(
        &self,
        tenant: &str,
        spec: &QuerySpec,
        budget: Budget,
        set: &TicketSet,
    ) -> Result<u64, ServerError> {
        self.enqueue(tenant, spec, budget, || set.register())
    }

    /// Both submit flavors: the synchronous checks (noise model, spec
    /// translation, tenant existence, the queue-depth cap), then the
    /// hand-off to the scheduler. `responder` builds the completion path
    /// only once the request is admitted. If the scheduler is gone
    /// (shutdown), the queue slot is released and the responder defused
    /// — the caller gets the error synchronously, so nothing flows
    /// through the completion path.
    fn enqueue<T>(
        &self,
        tenant: &str,
        spec: &QuerySpec,
        budget: Budget,
        responder: impl FnOnce() -> (T, Responder),
    ) -> Result<T, ServerError> {
        let server = self.server;
        let flavor = server.options.flavor;
        let mismatched = match flavor {
            NoiseFlavor::PureDp => !budget.is_pure(),
            NoiseFlavor::ApproxDp => budget.is_pure(),
        };
        if mismatched {
            return Err(ServerError::NoiseModel {
                flavor,
                delta: budget.delta(),
            });
        }
        let prepared = spec.compile(&server.schema).map_err(ServerError::Spec)?;
        if server.tenants.get(tenant).is_none() {
            return Err(ServerError::Admission(AdmissionError::UnknownTenant {
                tenant: tenant.to_string(),
            }));
        }
        // Bounded admission: reserve a queue slot in one step, or shed
        // synchronously at the cap instead of growing the queue without
        // bound. A shed request never enters the queue accounting (no
        // submit, no latency sample). `retry_after` is one coalescing
        // window per `max_batch`-sized batch already queued.
        if let Err(depth) = self.metrics.enqueue(server.max_queue_depth) {
            let batches_ahead = (depth / server.max_batch as u64).clamp(1, 64);
            let window = server.coalesce_window.max(Duration::from_millis(1));
            return Err(ServerError::Overloaded {
                retry_after: window * batches_ahead as u32,
            });
        }
        let key = BatchKey::of(&prepared, budget, server.coalesce_across_eps);
        let trace = lrm_obs::next_trace_id();
        lrm_obs::event!(in trace; "request.submit",
            tenant = tenant.to_string(),
            rows = prepared.num_queries(),
            eps = budget.eps().value(),
            delta = budget.delta(),
        );
        let (handle, responder) = responder();
        let sub = Submission {
            tenant: tenant.to_string(),
            prepared,
            budget,
            key,
            trace,
            submitted_at: Instant::now(),
            responder,
        };
        if let Err(mpsc::SendError(sub)) = self.tx.send(sub) {
            // Scheduler gone (shutdown mid-submit); roll the queue
            // accounting back without recording a latency sample — the
            // request never entered the queue, and a synthetic zero
            // would drag p50/p99 down.
            self.metrics.enqueue_rolled_back();
            let trace = sub.trace;
            lrm_obs::event!(in trace; "request.reject", reason = "shutdown");
            sub.responder.defuse();
            return Err(ServerError::Shutdown);
        }
        Ok(handle)
    }
}

/// A pending response. [`Ticket::wait`] blocks until the batch containing
/// the request is answered (or the request is rejected).
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Release, ServerError>>,
}

impl Ticket {
    /// Blocks for the outcome.
    pub fn wait(self) -> Result<Release, ServerError> {
        self.rx.recv().unwrap_or(Err(ServerError::Shutdown))
    }

    /// Non-blocking poll: `None` while the request is still in flight;
    /// `Some(Err(ServerError::Shutdown))` if the runtime went away
    /// without responding (so a polling client terminates, like
    /// [`Ticket::wait`] does, instead of spinning forever).
    pub fn try_wait(&self) -> Option<Result<Release, ServerError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServerError::Shutdown)),
        }
    }

    /// Bounded wait: blocks up to `timeout` for the outcome. `None`
    /// means the request is *still in flight* (the ticket stays valid —
    /// wait again); `Some(Err(ServerError::Shutdown))` means the runtime
    /// went away without responding.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Release, ServerError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServerError::Shutdown)),
        }
    }
}

/// One granted release: the tenant's slice of a batch answer plus the
/// accounting that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// Noisy answers for exactly the queries this tenant's spec asked.
    pub answers: Vec<f64>,
    /// The ε debited from the tenant for this release.
    pub eps_spent: Epsilon,
    /// The tenant's remaining ε after the debit.
    pub eps_remaining: f64,
    /// The δ debited from the tenant for this release (`0` for pure
    /// releases).
    pub delta_spent: f64,
    /// The tenant's remaining δ after the debit (`0` on pure servers).
    pub delta_remaining: f64,
    /// Label of the strategy that answered the batch.
    pub mechanism: &'static str,
    /// Closed-form expected average squared *noise* error of this
    /// member's release at its own budget (members of a cross-ε batch
    /// carry different bounds). Deliberately data-independent: it omits
    /// the structural residual `‖(W − BL)x‖²`, which is an exact
    /// statistic of the private database and cannot be published without
    /// spending budget.
    pub expected_avg_error: f64,
    /// Index of the batch this release was sliced from (also the noise
    /// stream label: a pure batch drew from `derive_rng(seed,
    /// batch_index)`, a Gaussian batch from that index's substream
    /// lanes). Harmless on its own — reconstructing the noise
    /// additionally requires the master seed, which is secret OS entropy
    /// unless an experiment pinned it (see [`ServerBuilder::seed`]).
    pub batch_index: u64,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// Whether this release came from the degraded-mode fallback: the
    /// configured mechanism blew its compile deadline, so the batch was
    /// answered by the Laplace baseline at the same ε. The privacy
    /// accounting is identical — only the expected error is worse.
    pub degraded: bool,
}

impl Release {
    /// Whether this release shared its batch with other requests.
    pub fn coalesced(&self) -> bool {
        self.batch_size > 1
    }
}

/// Everything a [`Server::serve`] run can report about itself.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Scheduler/worker counters and latency percentiles.
    pub metrics: MetricsSnapshot,
    /// The shared engine's compiled-strategy cache counters.
    pub cache: CacheStats,
    /// Per-tenant budget positions at shutdown, with each tenant's ε/δ
    /// spend per second over the trailing 10 s and the estimated
    /// time-to-exhaustion that rate implies.
    pub tenants: Vec<TenantSpend>,
}

/// Typed failure of a serving request (or of server construction).
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The spec failed translation against the schema.
    Spec(SpecError),
    /// Admission or settlement refused the request (unknown tenant /
    /// budget exhausted).
    Admission(AdmissionError),
    /// Workload assembly rejected the batch.
    Workload(WorkloadError),
    /// Strategy compilation or answering failed.
    Core(CoreError),
    /// The runtime shut down before the request completed.
    Shutdown,
    /// The request's workload shape previously crashed a worker and is
    /// quarantined: the server refuses it at admission rather than
    /// letting it take down another pool slot.
    Quarantined {
        /// The quarantined shape's identity hash.
        shape: u64,
    },
    /// The request was shed at submission: the queue is at its depth
    /// cap (see [`ServerBuilder::max_queue_depth`]). Nothing was
    /// admitted and no budget was touched.
    Overloaded {
        /// A resubmission hint scaled to the backlog: one coalescing
        /// window per `max_batch`-sized batch already queued ahead (at
        /// least one window, at most 64).
        retry_after: Duration,
    },
    /// The server's durable state (noise-epoch file or state directory)
    /// failed an I/O operation at build time.
    State {
        /// What failed.
        reason: String,
    },
    /// The request's budget flavor does not match the server's noise
    /// model: a Gaussian server needs δ > 0 on every release, a pure
    /// server refuses any δ. Refused synchronously at submission —
    /// nothing was enqueued and no budget was touched.
    NoiseModel {
        /// The server's configured noise flavor.
        flavor: NoiseFlavor,
        /// The δ the refused request carried.
        delta: f64,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Spec(e) => write!(f, "{e}"),
            ServerError::Admission(e) => write!(f, "{e}"),
            ServerError::Workload(e) => write!(f, "{e}"),
            ServerError::Core(e) => write!(f, "{e}"),
            ServerError::Shutdown => write!(f, "the serving runtime shut down"),
            ServerError::Quarantined { shape } => {
                write!(
                    f,
                    "workload shape {shape:#018x} is quarantined after crashing a worker"
                )
            }
            ServerError::Overloaded { retry_after } => {
                write!(f, "server overloaded: retry after {retry_after:?}")
            }
            ServerError::State { reason } => {
                write!(f, "durable server state failed: {reason}")
            }
            ServerError::NoiseModel { flavor, delta } => match flavor {
                NoiseFlavor::ApproxDp => write!(
                    f,
                    "this server serves approximate-DP (Gaussian) releases: \
                     submit an (ε, δ) budget with δ > 0, not δ = {delta}"
                ),
                NoiseFlavor::PureDp => write!(
                    f,
                    "this server serves pure-DP (Laplace) releases and cannot \
                     debit δ = {delta}: submit a pure ε budget"
                ),
            },
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Spec(e) => Some(e),
            ServerError::Admission(e) => Some(e),
            ServerError::Workload(e) => Some(e),
            ServerError::Core(e) => Some(e),
            ServerError::Shutdown
            | ServerError::Quarantined { .. }
            | ServerError::Overloaded { .. }
            | ServerError::State { .. }
            | ServerError::NoiseModel { .. } => None,
        }
    }
}

impl From<SpecError> for ServerError {
    fn from(e: SpecError) -> Self {
        ServerError::Spec(e)
    }
}

impl From<AdmissionError> for ServerError {
    fn from(e: AdmissionError) -> Self {
        ServerError::Admission(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_workload::Attribute;

    #[test]
    fn try_wait_distinguishes_in_flight_from_shutdown() {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { rx };
        assert_eq!(ticket.try_wait(), None); // still in flight
        tx.send(Ok(Release {
            answers: vec![1.0],
            eps_spent: Epsilon::new(0.5).unwrap(),
            eps_remaining: 0.5,
            delta_spent: 0.0,
            delta_remaining: 0.0,
            mechanism: "test",
            expected_avg_error: 0.0,
            batch_index: 0,
            batch_size: 1,
            degraded: false,
        }))
        .unwrap();
        assert!(matches!(ticket.try_wait(), Some(Ok(_))));

        let (tx, rx) = mpsc::channel::<Result<Release, ServerError>>();
        let ticket = Ticket { rx };
        drop(tx); // runtime gone without responding
        assert_eq!(ticket.try_wait(), Some(Err(ServerError::Shutdown)));
    }

    #[test]
    fn default_seed_is_fresh_entropy_per_builder() {
        let schema = || Schema::single(Attribute::new("v", 0.0, 4.0, 4).unwrap());
        let a = ServerBuilder::new(schema(), vec![0.0; 4]);
        let b = ServerBuilder::new(schema(), vec![0.0; 4]);
        // Not the old hard-coded constant, and not shared across
        // instances: a client cannot predict the noise stream.
        assert_ne!(a.seed, 0xC0A1_E5CE);
        assert_ne!(a.seed, b.seed);
    }
}
