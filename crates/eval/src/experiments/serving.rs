//! Multi-tenant load harness for the `lrm-server` runtime: the coalescing
//! server against a baseline scheduler on the same trace.
//!
//! The trace is the adaptive-serving scenario the paper's premise implies:
//! many tenants concurrently submit *correlated* batch specs — range
//! panels and prefix histograms snapped to a coarse boundary grid, so the
//! combined workload of any batch has rank ≤ cuts + 1 however many specs
//! coalesce — and every request asks for one release.
//!
//! Under pure ε-DP (the default) every request uses the same ε. The
//! coalescing run answers each batch through **one** compiled strategy
//! and **one** noise draw per strategy column; the baseline run
//! (`coalesce_window = 0`, `max_batch = 1`) compiles and answers every
//! request alone.
//!
//! With a positive [`ServingConfig::noise_delta`] every release is
//! (ε, δ)-DP through the Gaussian calibration (arXiv:1502.07526) and
//! requests draw their ε from [`ServingConfig::eps_levels`] round-robin.
//! The baseline is then [`ServingMode::Fragmented`]: the same window and
//! batch cap, but batches keyed on ε as a Laplace scheduler's must be.
//! The coalescing run keys on the δ-class only — one base draw at the
//! batch's largest ε serves every member, and stricter members add an
//! independent variance top-up — so the comparison isolates what
//! cross-ε coalescing buys.
//!
//! Throughput, per-query error against the exact answers, client-observed
//! latency, ledger over-spend (from the grants each client actually
//! observed, not the clamped ledger counter), and the global
//! densification counter are recorded per run. One sub-second run swings
//! with the host's scheduling, so a comparison runs [`SERVING_PAIRS`]
//! interleaved pairs, alternating which mode goes first, and pools each
//! mode's runs ([`ServingRunStats::pooled`]); [`ServingReport::gate`]
//! turns the pooled pair into a [`Verdict`].

use crate::experiments::scaling::scaling_lrm_config;
use crate::report::{TableWriter, Verdict};
use lrm_core::engine::{CompileOptions, Engine, MechanismKind, NoiseFlavor};
use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, Epsilon};
use lrm_linalg::operator::densification_count;
use lrm_server::{QuerySpec, Release, Server, ServerError, ServerReport};
use lrm_workload::{Attribute, Schema};
use rand::Rng;
use std::time::{Duration, Instant};

/// Interleaved coalesced/baseline pairs one comparison runs. Gated on one
/// pair, the n = 1024 default failed the strictly-faster check in one of
/// eight runs on a 2-core box (the rest read speedups of 1.27–1.58);
/// pooled throughput over several pairs is what the gate can trust.
pub const SERVING_PAIRS: usize = 5;

/// Load-harness configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Histogram buckets `n` (unit-width, values `0..n`).
    pub buckets: usize,
    /// Boundary cuts the spec predicates snap to (`buckets` must be a
    /// multiple; combined workload rank stays ≤ cuts + 1).
    pub cuts: usize,
    /// Number of tenants (requests round-robin across them).
    pub tenants: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client thread submits.
    pub requests_per_client: usize,
    /// Requests a client submits before it starts waiting on tickets
    /// (in-flight window; bursts are what give the scheduler something
    /// to coalesce).
    pub burst: usize,
    /// Queries per range-panel spec.
    pub spec_queries: usize,
    /// Coalescing window of the coalescing run.
    pub window: Duration,
    /// Batch-size cap of the coalescing run.
    pub max_batch: usize,
    /// Worker threads (both runs).
    pub workers: usize,
    /// Per-release ε (identical for every request in both runs).
    pub eps_request: f64,
    /// Per-tenant total ε. Sized so tenants exhaust mid-run and the
    /// rejection path is exercised: grants per tenant =
    /// `floor(budget / eps_request)`, identical in both runs.
    pub tenant_budget: f64,
    /// Master seed (trace, data, and noise streams all derive from it).
    pub seed: u64,
    /// Suppress the summary table.
    pub quiet: bool,
    /// Per-release δ. `0` (the default) runs the pure ε-DP Laplace
    /// pipeline; `> 0` switches every server in the harness to the
    /// Gaussian calibration and every release to (ε, δ)-DP.
    pub noise_delta: f64,
    /// Per-tenant total δ (only read when `noise_delta > 0`).
    pub tenant_delta: f64,
    /// Per-release ε levels, assigned round-robin across the trace.
    /// Empty (the default) means every request uses `eps_request` — the
    /// pure harness's behavior. A mixed-ε trace is what separates
    /// cross-ε coalescing from ε-keyed scheduling.
    pub eps_levels: Vec<f64>,
    /// Whether the servers keep the rank-growth batch-close rule (the
    /// production default). The Gaussian comparison turns it off — in
    /// *both* runs — because it closes batches on a property orthogonal
    /// to scheduler keying, which is the variable under measurement.
    pub rank_close: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            buckets: 1024,
            cuts: 32,
            tenants: 8,
            clients: 4,
            requests_per_client: 64,
            burst: 16,
            spec_queries: 16,
            window: Duration::from_millis(20),
            max_batch: 16,
            workers: 3,
            eps_request: 0.25,
            tenant_budget: 6.0,
            seed: 20120827,
            quiet: false,
            noise_delta: 0.0,
            tenant_delta: 0.0,
            eps_levels: Vec::new(),
            rank_close: true,
        }
    }
}

impl ServingConfig {
    /// The pinned CI smoke configuration: small domain, bounded request
    /// count, budgets that exhaust mid-run.
    pub fn smoke() -> Self {
        Self {
            buckets: 256,
            requests_per_client: 24,
            burst: 16,
            tenant_budget: 2.5,
            quiet: false,
            ..Self::default()
        }
    }

    /// The pinned mixed-ε Gaussian configuration: three ε levels
    /// round-robin, δ on every release, budgets that exhaust mid-run in
    /// *both* columns' shadow (ε binds; δ leaves head-room so the
    /// refusal path is the ledger's, not an artifact).
    pub fn gaussian_smoke() -> Self {
        Self {
            noise_delta: 1e-6,
            tenant_delta: 1e-4,
            eps_levels: vec![0.1, 0.25, 0.5],
            rank_close: false,
            ..Self::smoke()
        }
    }

    /// Whether this configuration runs the Gaussian ((ε, δ)-DP) pipeline.
    pub fn is_gaussian(&self) -> bool {
        self.noise_delta > 0.0
    }

    /// The per-release ε of request `index` of the trace.
    fn eps_for(&self, index: usize) -> f64 {
        if self.eps_levels.is_empty() {
            self.eps_request
        } else {
            self.eps_levels[index % self.eps_levels.len()]
        }
    }

    /// The per-release budget of request `index` of the trace.
    fn budget_for(&self, index: usize) -> Budget {
        let eps = Epsilon::new(self.eps_for(index)).expect("positive eps");
        if self.is_gaussian() {
            Budget::approx(eps, self.noise_delta).expect("valid delta")
        } else {
            Budget::pure(eps)
        }
    }

    pub(crate) fn tenant_name(t: usize) -> String {
        format!("tenant{t:02}")
    }
}

/// One request of the pre-generated trace.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// Tenant index (round-robin).
    pub tenant: usize,
    /// The spec submitted.
    pub spec: QuerySpec,
    /// The release budget requested (ε from the round-robin level
    /// assignment; δ from [`ServingConfig::noise_delta`]).
    pub budget: Budget,
    /// Exact (noise-free) answers, for error measurement.
    pub exact: Vec<f64>,
}

/// The fixed trace both runs replay: schema, private data, and each
/// client thread's request list.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The serving schema.
    pub schema: Schema,
    /// The private unit-count vector.
    pub data: Vec<f64>,
    /// One request list per client thread.
    pub per_client: Vec<Vec<TraceRequest>>,
}

/// Generates the mixed multi-tenant trace: ~3/4 range panels, ~1/4 prefix
/// histograms, all snapped to the boundary grid.
pub fn build_trace(cfg: &ServingConfig) -> Trace {
    assert!(
        cfg.cuts >= 2 && cfg.buckets.is_multiple_of(cfg.cuts),
        "buckets must be a positive multiple of cuts"
    );
    let schema = Schema::single(
        Attribute::new("value", 0.0, cfg.buckets as f64, cfg.buckets).expect("valid attribute"),
    );
    let mut data_rng = derive_rng(cfg.seed, 0xda7a);
    let data: Vec<f64> = (0..cfg.buckets)
        .map(|_| data_rng.gen_range(0..1000) as f64)
        .collect();

    let step = cfg.buckets / cfg.cuts;
    let boundary = |k: usize| (k * step) as f64;
    let mut per_client = Vec::with_capacity(cfg.clients);
    let mut request_index = 0usize;
    for client in 0..cfg.clients {
        let mut rng = derive_rng(cfg.seed, 0xc11e_0000 + client as u64);
        let mut requests = Vec::with_capacity(cfg.requests_per_client);
        for r in 0..cfg.requests_per_client {
            let spec = if r % 4 == 3 {
                // A prefix histogram panel.
                let thresholds: Vec<f64> = (0..cfg.spec_queries)
                    .map(|_| boundary(rng.gen_range(1..=cfg.cuts)))
                    .collect();
                QuerySpec::Prefixes {
                    attr: 0,
                    thresholds,
                }
            } else {
                // A range panel.
                let ranges: Vec<(f64, f64)> = (0..cfg.spec_queries)
                    .map(|_| {
                        let lo = rng.gen_range(0..cfg.cuts);
                        let hi = rng.gen_range(lo + 1..=cfg.cuts);
                        (boundary(lo), boundary(hi))
                    })
                    .collect();
                QuerySpec::Ranges { attr: 0, ranges }
            };
            let exact = spec
                .compile(&schema)
                .expect("trace specs are valid")
                .to_workload()
                .expect("trace specs are non-empty")
                .answer(&data)
                .expect("domain matches");
            requests.push(TraceRequest {
                tenant: request_index % cfg.tenants,
                spec,
                budget: cfg.budget_for(request_index),
                exact,
            });
            request_index += 1;
        }
        per_client.push(requests);
    }
    Trace {
        schema,
        data,
        per_client,
    }
}

/// Which serving policy a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingMode {
    /// The coalescing scheduler (bounded window + batch cap). On a
    /// Gaussian configuration this includes cross-ε coalescing: batches
    /// key on the δ-class and mix ε levels.
    Coalescing,
    /// Per-query serving: zero window, `max_batch = 1`.
    Baseline,
    /// The ε-keyed scheduler baseline for Gaussian runs: same window and
    /// batch cap as [`ServingMode::Coalescing`], but
    /// `coalesce_across_eps(false)` — batches fragment by ε exactly as a
    /// pure scheduler's would.
    Fragmented,
}

impl ServingMode {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ServingMode::Coalescing => "coalescing",
            ServingMode::Baseline => "per-query baseline",
            ServingMode::Fragmented => "eps-fragmented",
        }
    }
}

/// Measured outcome of one run over the trace.
#[derive(Debug, Clone)]
pub struct ServingRunStats {
    /// Which policy ran.
    pub mode: &'static str,
    /// Wall-clock seconds of the whole serve (submission to drain).
    pub wall_seconds: f64,
    /// Requests granted a release.
    pub answered: u64,
    /// Requests refused with a typed budget error.
    pub rejected: u64,
    /// Granted requests per second.
    pub requests_per_second: f64,
    /// Mean squared per-query error of the released answers.
    pub mean_squared_error: f64,
    /// Batches answered.
    pub batches: u64,
    /// Batches that coalesced ≥ 2 requests.
    pub coalesced_batches: u64,
    /// Mean requests per batch.
    pub mean_occupancy: f64,
    /// Peak submitted-but-unanswered requests.
    pub peak_queue_depth: u64,
    /// Median client-observed submit→completion latency, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile client-observed submit→completion latency,
    /// milliseconds.
    pub p99_latency_ms: f64,
    /// Whether any tenant's *observed grants* exceeded its registered
    /// budget by more than the ledger's one-slack bound (must be false).
    pub overspend: bool,
    /// Whether any tenant's observed δ grants exceeded its registered
    /// δ total (always false on pure runs; must be false on Gaussian
    /// ones).
    pub delta_overspend: bool,
    /// Gaussian batches whose members spanned ≥ 2 distinct ε — batches
    /// that exist only because of cross-ε coalescing.
    pub cross_eps_batches: u64,
    /// Operator densifications during the run (must be 0).
    pub densifications: u64,
}

impl ServingRunStats {
    /// Folds several runs of one mode into one record: counts and wall
    /// time add up, throughput is Σ answered ÷ Σ wall, the MSE is the
    /// runs' mean weighted by granted requests (every trace request asks
    /// the same number of queries), occupancy is weighted by batches,
    /// the peak depth is the largest, each latency percentile is the
    /// median of the runs', and an over-spend in any run marks the pool.
    pub fn pooled(runs: &[ServingRunStats]) -> ServingRunStats {
        let sum = |f: fn(&ServingRunStats) -> u64| runs.iter().map(f).sum::<u64>();
        let median = |f: fn(&ServingRunStats) -> f64| {
            let mut v: Vec<f64> = runs.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let wall_seconds: f64 = runs.iter().map(|r| r.wall_seconds).sum();
        let answered = sum(|r| r.answered);
        let batches = sum(|r| r.batches);
        ServingRunStats {
            mode: runs[0].mode,
            wall_seconds,
            answered,
            rejected: sum(|r| r.rejected),
            requests_per_second: answered as f64 / wall_seconds.max(1e-9),
            mean_squared_error: runs
                .iter()
                .map(|r| r.mean_squared_error * r.answered as f64)
                .sum::<f64>()
                / answered.max(1) as f64,
            batches,
            coalesced_batches: sum(|r| r.coalesced_batches),
            mean_occupancy: runs
                .iter()
                .map(|r| r.mean_occupancy * r.batches as f64)
                .sum::<f64>()
                / batches.max(1) as f64,
            peak_queue_depth: runs.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0),
            p50_latency_ms: median(|r| r.p50_latency_ms),
            p99_latency_ms: median(|r| r.p99_latency_ms),
            overspend: runs.iter().any(|r| r.overspend),
            delta_overspend: runs.iter().any(|r| r.delta_overspend),
            cross_eps_batches: sum(|r| r.cross_eps_batches),
            densifications: sum(|r| r.densifications),
        }
    }
}

/// What one driver thread observed while replaying its share of the
/// trace.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClientOutcome {
    granted_per_tenant: Vec<f64>,
    granted_delta_per_tenant: Vec<f64>,
    answered: u64,
    rejected: u64,
    queries: u64,
    sq_err: f64,
    /// Client-observed submit-to-completion latency of every granted
    /// request, in microseconds: the clock starts just before the
    /// submit call and stops when the driver observes the completion,
    /// so a front end's own delays (thread wakeups, harvest loops) are
    /// charged to it.
    latencies_us: Vec<u64>,
}

impl ClientOutcome {
    pub(crate) fn new(cfg: &ServingConfig) -> Self {
        Self {
            granted_per_tenant: vec![0.0; cfg.tenants],
            granted_delta_per_tenant: vec![0.0; cfg.tenants],
            ..Self::default()
        }
    }

    /// Accounts one request's outcome: its grant, answer error and
    /// latency, or a typed budget refusal.
    pub(crate) fn record(
        &mut self,
        req: &TraceRequest,
        outcome: Result<Release, ServerError>,
        latency: Duration,
    ) {
        match outcome {
            Ok(release) => {
                self.latencies_us.push(latency.as_micros() as u64);
                self.granted_per_tenant[req.tenant] += release.eps_spent.value();
                self.granted_delta_per_tenant[req.tenant] += release.delta_spent;
                self.answered += 1;
                self.queries += release.answers.len() as u64;
                self.sq_err += release
                    .answers
                    .iter()
                    .zip(&req.exact)
                    .map(|(a, e)| (a - e) * (a - e))
                    .sum::<f64>();
            }
            Err(ServerError::Admission(_)) => self.rejected += 1,
            Err(e) => panic!("unexpected serving failure: {e}"),
        }
    }

    fn absorb(&mut self, other: ClientOutcome) {
        for (total, g) in self
            .granted_per_tenant
            .iter_mut()
            .zip(other.granted_per_tenant)
        {
            *total += g;
        }
        for (total, g) in self
            .granted_delta_per_tenant
            .iter_mut()
            .zip(other.granted_delta_per_tenant)
        {
            *total += g;
        }
        self.answered += other.answered;
        self.rejected += other.rejected;
        self.queries += other.queries;
        self.sq_err += other.sq_err;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Builds one run's server over a fresh engine (every run starts with a
/// cold strategy cache) and registers every tenant's budget. `mode`
/// picks the window, batch cap and ε-keying.
pub(crate) fn build_server(cfg: &ServingConfig, trace: &Trace, mode: ServingMode) -> Server {
    let (window, max_batch) = match mode {
        ServingMode::Coalescing | ServingMode::Fragmented => (cfg.window, cfg.max_batch),
        ServingMode::Baseline => (Duration::ZERO, 1),
    };
    let mut options = CompileOptions::with_decomposition(scaling_lrm_config());
    if cfg.is_gaussian() {
        options.flavor = NoiseFlavor::ApproxDp;
    }
    let server = Server::builder(trace.schema.clone(), trace.data.clone())
        .engine(Engine::builder().build())
        .mechanism(MechanismKind::Lrm)
        .compile_options(options)
        .coalesce_window(window)
        .max_batch(max_batch)
        .workers(cfg.workers)
        .coalesce_across_eps(mode != ServingMode::Fragmented)
        .rank_close(cfg.rank_close)
        .seed(cfg.seed)
        .build()
        .expect("valid server configuration");
    let budget_eps = Epsilon::new(cfg.tenant_budget).expect("positive budget");
    let budget = if cfg.is_gaussian() {
        Budget::approx(budget_eps, cfg.tenant_delta).expect("valid tenant delta")
    } else {
        Budget::pure(budget_eps)
    };
    for t in 0..cfg.tenants {
        server.register_tenant_budget(&ServingConfig::tenant_name(t), budget);
    }
    server
}

/// Runs `drive` — one `serve` of a [`build_server`] server, returning
/// what its driver threads observed — and folds the outcomes and the
/// server report into one run's stats, checking the observed grants
/// against the registered budgets. The report comes back for callers
/// that read more of it.
pub(crate) fn serve_trace(
    cfg: &ServingConfig,
    mode: &'static str,
    drive: impl FnOnce() -> (Vec<ClientOutcome>, ServerReport),
) -> (ServingRunStats, ServerReport) {
    let densify_before = densification_count();
    let t0 = Instant::now();
    let (outcomes, report) = drive();
    let wall_seconds = t0.elapsed().as_secs_f64();
    let densifications = densification_count() - densify_before;

    let mut total = ClientOutcome::new(cfg);
    for outcome in outcomes {
        total.absorb(outcome);
    }
    let overspend = total
        .granted_per_tenant
        .iter()
        .any(|&g| g > cfg.tenant_budget * (1.0 + 1e-9) + 1e-12);
    let delta_overspend = total
        .granted_delta_per_tenant
        .iter()
        .any(|&g| g > cfg.tenant_delta * (1.0 + 1e-9) + 1e-18);
    let mut latencies = total.latencies_us;
    latencies.sort_unstable();
    let percentile_ms = |q: f64| match latencies.len() {
        0 => 0.0,
        len => latencies[((len - 1) as f64 * q).ceil() as usize] as f64 / 1e3,
    };

    let stats = ServingRunStats {
        mode,
        wall_seconds,
        answered: total.answered,
        rejected: total.rejected,
        requests_per_second: total.answered as f64 / wall_seconds.max(1e-9),
        mean_squared_error: total.sq_err / total.queries.max(1) as f64,
        batches: report.metrics.batches,
        coalesced_batches: report.metrics.coalesced_batches,
        mean_occupancy: report.metrics.mean_occupancy,
        peak_queue_depth: report.metrics.peak_queue_depth,
        p50_latency_ms: percentile_ms(0.50),
        p99_latency_ms: percentile_ms(0.99),
        overspend,
        delta_overspend,
        cross_eps_batches: report.metrics.cross_eps_batches,
        densifications,
    };
    (stats, report)
}

/// Replays the trace against one server configuration, one thread per
/// trace client.
pub fn run_serving_mode(cfg: &ServingConfig, trace: &Trace, mode: ServingMode) -> ServingRunStats {
    let server = build_server(cfg, trace, mode);
    let (stats, _) = serve_trace(cfg, mode.label(), || {
        server.serve(|client| {
            std::thread::scope(|s| {
                let handles: Vec<_> = trace
                    .per_client
                    .iter()
                    .map(|requests| {
                        let client = client.clone();
                        s.spawn(move || drive_client(&client, requests, cfg))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            })
        })
    });
    stats
}

/// One client thread: submit in bursts, wait the burst out, accumulate
/// grants and errors.
fn drive_client(
    client: &lrm_server::Client<'_>,
    requests: &[TraceRequest],
    cfg: &ServingConfig,
) -> ClientOutcome {
    let mut out = ClientOutcome::new(cfg);
    for chunk in requests.chunks(cfg.burst.max(1)) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|req| {
                let tenant = ServingConfig::tenant_name(req.tenant);
                let start = Instant::now();
                let ticket = client
                    .submit_budget(&tenant, &req.spec, req.budget)
                    .expect("trace specs and tenants are valid");
                (start, ticket)
            })
            .collect();
        for (req, (start, ticket)) in chunk.iter().zip(tickets) {
            out.record(req, ticket.wait(), start.elapsed());
        }
    }
    out
}

/// Interleaved runs of one trace: the coalescing server against its
/// baseline — per-query serving on a pure trace, the ε-keyed scheduler
/// on a Gaussian one — each mode's runs pooled into one record.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Configuration echo.
    pub config: ServingConfig,
    /// The pooled coalescing runs (cross-ε on a Gaussian trace).
    pub coalesced: ServingRunStats,
    /// The pooled baseline runs: [`ServingMode::Baseline`] on a pure
    /// trace, [`ServingMode::Fragmented`] on a Gaussian one.
    pub baseline: ServingRunStats,
}

impl ServingReport {
    /// Coalescing throughput over baseline throughput (granted requests
    /// per second, pooled over each mode's runs).
    pub fn speedup(&self) -> f64 {
        self.coalesced.requests_per_second / self.baseline.requests_per_second.max(1e-12)
    }

    /// Baseline per-query MSE over coalesced per-query MSE (> 1 means
    /// coalescing also answered more accurately).
    pub fn error_ratio(&self) -> f64 {
        self.baseline.mean_squared_error / self.coalesced.mean_squared_error.max(1e-300)
    }

    /// The acceptance gate: strictly higher coalescing throughput, zero
    /// ε or δ over-spend and zero densifications in either run, and the
    /// coalescer actually coalesced. On a Gaussian trace the coalescing
    /// run must also have mixed ε levels in a batch and the ε-keyed
    /// baseline never. Latency is reported, not gated.
    pub fn gate(&self) -> Verdict {
        let (c, b) = (&self.coalesced, &self.baseline);
        let mut v = Verdict::default();
        v.check("coalesced_strictly_faster", self.speedup() > 1.0)
            .check("no_eps_overspend", !c.overspend && !b.overspend)
            .check(
                "no_delta_overspend",
                !c.delta_overspend && !b.delta_overspend,
            )
            .check(
                "no_densification",
                c.densifications == 0 && b.densifications == 0,
            )
            .check("coalesced_a_batch", c.coalesced_batches > 0);
        if self.config.is_gaussian() {
            v.check("coalesced_across_eps", c.cross_eps_batches > 0)
                .check("baseline_never_mixed_eps", b.cross_eps_batches == 0);
        }
        v.metric("speedup", self.speedup(), "ratio").metric(
            "error_ratio",
            self.error_ratio(),
            "ratio",
        );
        for (name, run) in [("coalesced", c), ("baseline", b)] {
            for (metric, value, unit) in [
                ("throughput_rps", run.requests_per_second, "1/s"),
                ("mse", run.mean_squared_error, "sq_count"),
                ("p50_ms", run.p50_latency_ms, "ms"),
                ("p99_ms", run.p99_latency_ms, "ms"),
                ("batches", run.batches as f64, "count"),
                ("coalesced_batches", run.coalesced_batches as f64, "count"),
                ("cross_eps_batches", run.cross_eps_batches as f64, "count"),
            ] {
                v.metric(format!("{name}.{metric}"), value, unit);
            }
        }
        v
    }
}

/// Runs the comparison: the same trace through the coalescing server and
/// its baseline (per-query on a pure trace, ε-keyed on a Gaussian one),
/// [`SERVING_PAIRS`] times each, alternating which mode runs first, and
/// pools each mode's runs.
pub fn run_serving_bench(cfg: &ServingConfig) -> ServingReport {
    let baseline_mode = if cfg.is_gaussian() {
        assert!(
            cfg.eps_levels.len() > 1,
            "a single-ε trace cannot separate cross-ε coalescing from ε-keying"
        );
        ServingMode::Fragmented
    } else {
        ServingMode::Baseline
    };
    let trace = build_trace(cfg);
    let modes = [ServingMode::Coalescing, baseline_mode];
    let mut runs: [Vec<ServingRunStats>; 2] = Default::default();
    for pair in 0..SERVING_PAIRS {
        for arm in [pair % 2, 1 - pair % 2] {
            runs[arm].push(run_serving_mode(cfg, &trace, modes[arm]));
        }
    }
    let [coalesced, baseline] = runs.map(|r| ServingRunStats::pooled(&r));

    if !cfg.quiet {
        let title = if cfg.is_gaussian() {
            format!(
                "Gaussian cross-ε coalescing — ε ∈ {:?}, δ = {:e}",
                cfg.eps_levels, cfg.noise_delta
            )
        } else {
            format!("Serving load harness — ε = {} per release", cfg.eps_request)
        };
        let mut table = TableWriter::new(format!(
            "{title}, {} clients × {} requests, {} tenants, {SERVING_PAIRS} pooled pairs",
            cfg.clients, cfg.requests_per_client, cfg.tenants
        ));
        table.header(&[
            "mode",
            "wall s",
            "req/s",
            "mse",
            "batches",
            "coalesced",
            "cross-ε",
            "occupancy",
            "p99 ms",
        ]);
        for run in [&coalesced, &baseline] {
            table.row(vec![
                run.mode.to_string(),
                format!("{:.3}", run.wall_seconds),
                format!("{:.1}", run.requests_per_second),
                format!("{:.3e}", run.mean_squared_error),
                run.batches.to_string(),
                run.coalesced_batches.to_string(),
                run.cross_eps_batches.to_string(),
                format!("{:.2}", run.mean_occupancy),
                format!("{:.1}", run.p99_latency_ms),
            ]);
        }
        println!("{}", table.render());
    }

    ServingReport {
        config: cfg.clone(),
        coalesced,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServingConfig {
        ServingConfig {
            buckets: 64,
            cuts: 8,
            tenants: 2,
            clients: 2,
            requests_per_client: 8,
            burst: 8,
            spec_queries: 4,
            max_batch: 4,
            workers: 2,
            tenant_budget: 1.5, // 6 grants per tenant out of 8 requests
            quiet: true,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn trace_is_deterministic_and_mixed() {
        let cfg = tiny();
        let a = build_trace(&cfg);
        let b = build_trace(&cfg);
        assert_eq!(a.data, b.data);
        assert_eq!(a.per_client.len(), 2);
        for (ra, rb) in a.per_client[0].iter().zip(&b.per_client[0]) {
            assert_eq!(ra.spec, rb.spec);
            assert_eq!(ra.exact, rb.exact);
        }
        // Both spec families appear.
        let specs: Vec<_> = a.per_client.iter().flatten().collect();
        assert!(specs
            .iter()
            .any(|r| matches!(r.spec, QuerySpec::Ranges { .. })));
        assert!(specs
            .iter()
            .any(|r| matches!(r.spec, QuerySpec::Prefixes { .. })));
        // Tenants round-robin.
        assert!(specs.iter().any(|r| r.tenant == 0));
        assert!(specs.iter().any(|r| r.tenant == 1));
    }

    #[test]
    fn bench_runs_and_reports() {
        let _guard = crate::experiments::densification_guard();
        let cfg = tiny();
        let report = run_serving_bench(&cfg);

        // Grant counts are mode-independent: floor(1.5 / 0.25) = 6 per
        // tenant, 2 tenants, so 12 answered + 4 rejected in every run.
        let pairs = SERVING_PAIRS as u64;
        assert_eq!(report.coalesced.answered, 12 * pairs);
        assert_eq!(report.baseline.answered, 12 * pairs);
        assert_eq!(report.coalesced.rejected, 4 * pairs);
        assert_eq!(report.baseline.rejected, 4 * pairs);

        // The hard invariants of the harness.
        assert!(!report.coalesced.overspend);
        assert!(!report.baseline.overspend);
        assert_eq!(report.coalesced.densifications, 0);
        assert_eq!(report.baseline.densifications, 0);
        assert!(report.coalesced.coalesced_batches > 0);
        assert_eq!(report.baseline.coalesced_batches, 0);
        assert!(report.baseline.batches >= 16 * pairs);
        assert!(report.coalesced.batches < report.baseline.batches);
        assert!(report.coalesced.mean_squared_error.is_finite());
        assert!(report.coalesced.mean_squared_error > 0.0);
        assert_eq!(report.coalesced.mode, "coalescing");
        assert_eq!(report.baseline.mode, "per-query baseline");
        // Every granted request was timed by its client.
        assert!(report.coalesced.p99_latency_ms >= report.coalesced.p50_latency_ms);
        assert!(report.coalesced.p50_latency_ms > 0.0);
    }

    /// A Gaussian comparison on one scripted arrival schedule: a single
    /// driver submits the trace in round-robin client order, `max_batch`
    /// requests at a time, and waits each round out before the next. A
    /// round's submissions reach the scheduler long before its window
    /// ends, and every admission check sees the ledgers the rounds before
    /// it left, so both runs' batches depend on the trace alone — not on
    /// how two independently timed runs happened to interleave.
    fn run_scripted_bench(cfg: &ServingConfig) -> ServingReport {
        let trace = build_trace(cfg);
        let run = |mode: ServingMode| {
            let server = build_server(cfg, &trace, mode);
            serve_trace(cfg, mode.label(), || drive(&server, &trace, cfg)).0
        };
        ServingReport {
            config: cfg.clone(),
            coalesced: run(ServingMode::Coalescing),
            baseline: run(ServingMode::Fragmented),
        }
    }

    fn drive(
        server: &Server,
        trace: &Trace,
        cfg: &ServingConfig,
    ) -> (Vec<ClientOutcome>, ServerReport) {
        let longest = trace.per_client.iter().map(Vec::len).max().unwrap_or(0);
        let order: Vec<&TraceRequest> = (0..longest)
            .flat_map(|i| trace.per_client.iter().filter_map(move |reqs| reqs.get(i)))
            .collect();
        server.serve(|client| {
            let mut outcome = ClientOutcome::new(cfg);
            for round in order.chunks(cfg.max_batch) {
                let start = Instant::now();
                let tickets: Vec<_> = round
                    .iter()
                    .map(|req| {
                        let tenant = ServingConfig::tenant_name(req.tenant);
                        client
                            .submit_budget(&tenant, &req.spec, req.budget)
                            .expect("trace specs and tenants are valid")
                    })
                    .collect();
                for (req, ticket) in round.iter().zip(tickets) {
                    outcome.record(req, ticket.wait(), start.elapsed());
                }
            }
            vec![outcome]
        })
    }

    #[test]
    fn gaussian_bench_runs_and_holds_its_invariants() {
        let _guard = crate::experiments::densification_guard();
        let report = run_scripted_bench(&ServingConfig {
            window: Duration::from_millis(200),
            tenant_budget: 1.6,
            noise_delta: 1e-6,
            tenant_delta: 1e-4,
            eps_levels: vec![0.1, 0.25],
            ..tiny()
        });

        // The cross-ε run actually mixed ε inside batches; the
        // fragmented run never did.
        assert!(report.coalesced.cross_eps_batches > 0);
        assert_eq!(report.baseline.cross_eps_batches, 0);
        // ε-keying can only fragment: never fewer batches.
        assert!(report.baseline.batches >= report.coalesced.batches);
        // Privacy invariants hold in both runs.
        assert!(!report.coalesced.overspend && !report.baseline.overspend);
        assert!(!report.coalesced.delta_overspend && !report.baseline.delta_overspend);
        assert_eq!(report.coalesced.densifications, 0);
        assert_eq!(report.baseline.densifications, 0);
        // Both runs released real answers with finite error.
        assert!(report.coalesced.answered > 0);
        assert!(report.baseline.answered > 0);
        assert!(report.coalesced.mean_squared_error.is_finite());
        assert!(report.coalesced.mean_squared_error > 0.0);
        assert_eq!(report.baseline.mode, "eps-fragmented");
    }

    #[test]
    fn pooling_adds_counts_and_divides_total_answers_by_total_wall() {
        let run = |answered: u64, wall_seconds: f64, mse: f64, p99: f64| ServingRunStats {
            mode: "run",
            wall_seconds,
            answered,
            rejected: 1,
            requests_per_second: answered as f64 / wall_seconds,
            mean_squared_error: mse,
            batches: 2,
            coalesced_batches: 1,
            mean_occupancy: 2.0,
            peak_queue_depth: answered,
            p50_latency_ms: p99 / 2.0,
            p99_latency_ms: p99,
            overspend: false,
            delta_overspend: false,
            cross_eps_batches: 0,
            densifications: 0,
        };
        let mut slow = run(10, 4.0, 3.0, 9.0);
        slow.overspend = true;
        let pooled =
            ServingRunStats::pooled(&[run(10, 1.0, 1.0, 1.0), slow, run(20, 1.0, 1.0, 5.0)]);
        // 40 answers over 6 s, not the runs' mean rate (≈ 8.8/s).
        assert_eq!(pooled.requests_per_second, 40.0 / 6.0);
        assert_eq!(
            (pooled.answered, pooled.rejected, pooled.batches),
            (40, 3, 6)
        );
        assert_eq!(pooled.mean_squared_error, (10.0 + 30.0 + 20.0) / 40.0);
        assert_eq!(pooled.p99_latency_ms, 5.0);
        assert_eq!(pooled.peak_queue_depth, 20);
        assert!(pooled.overspend && !pooled.delta_overspend);
    }

    /// A report that violates exactly one condition fails exactly that
    /// named check, on the pure and the Gaussian gate alike; the
    /// cross-ε checks bind only on a Gaussian trace, and no gate reads
    /// latency.
    #[test]
    fn gate_fails_exactly_the_violated_check() {
        let run = |rps: f64, coalesced_batches: u64| ServingRunStats {
            mode: "run",
            wall_seconds: 1.0,
            answered: 10,
            rejected: 2,
            requests_per_second: rps,
            mean_squared_error: 1.0,
            batches: 4,
            coalesced_batches,
            mean_occupancy: 2.5,
            peak_queue_depth: 8,
            p50_latency_ms: 1.0,
            p99_latency_ms: 2.0,
            overspend: false,
            delta_overspend: false,
            cross_eps_batches: 0,
            densifications: 0,
        };
        let pure = ServingReport {
            config: ServingConfig::smoke(),
            coalesced: run(2.0, 3),
            baseline: run(1.0, 0),
        };
        let mut gaussian = ServingReport {
            config: ServingConfig::gaussian_smoke(),
            ..pure.clone()
        };
        gaussian.coalesced.cross_eps_batches = 2;

        type Break = fn(&mut ServingReport);
        let cases: [(Option<&str>, bool, Break); 9] = [
            (Some("coalesced_strictly_faster"), false, |r| {
                r.baseline.requests_per_second = r.coalesced.requests_per_second
            }),
            (Some("no_eps_overspend"), false, |r| {
                r.baseline.overspend = true
            }),
            (Some("no_eps_overspend"), false, |r| {
                r.coalesced.overspend = true
            }),
            (Some("no_delta_overspend"), false, |r| {
                r.baseline.delta_overspend = true
            }),
            (Some("no_densification"), false, |r| {
                r.coalesced.densifications = 1
            }),
            (Some("coalesced_a_batch"), false, |r| {
                r.coalesced.coalesced_batches = 0
            }),
            (Some("coalesced_across_eps"), true, |r| {
                r.coalesced.cross_eps_batches = 0
            }),
            (Some("baseline_never_mixed_eps"), true, |r| {
                r.baseline.cross_eps_batches = 1
            }),
            (None, false, |r| r.coalesced.p99_latency_ms = 1e9),
        ];
        assert!(pure.gate().passed());
        assert!(gaussian.gate().passed());
        for (check, gaussian_only, breaks) in cases {
            for base in [&pure, &gaussian] {
                let mut report = base.clone();
                breaks(&mut report);
                let expected: Vec<String> = match check {
                    Some(_) if gaussian_only && !base.config.is_gaussian() => vec![],
                    Some(name) => vec![name.to_string()],
                    None => vec![],
                };
                assert_eq!(
                    report.gate().failed,
                    expected,
                    "gaussian = {}",
                    base.config.is_gaussian()
                );
            }
        }
    }
}
