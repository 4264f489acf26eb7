//! Multi-tenant load harness for the `lrm-server` runtime: the coalescing
//! server against a per-query baseline on the same trace, at equal ε.
//!
//! The trace is the adaptive-serving scenario the paper's premise implies:
//! many tenants concurrently submit *correlated* batch specs — range
//! panels and prefix histograms snapped to a coarse boundary grid, so the
//! combined workload of any batch has rank ≤ cuts + 1 however many specs
//! coalesce — and every request asks for one release at the same ε.
//! The coalescing run answers each batch through **one** compiled
//! strategy and **one** noise draw per strategy column; the baseline run
//! (`coalesce_window = 0`, `max_batch = 1`) compiles and answers every
//! request alone. Throughput, per-query error against the exact answers,
//! ledger over-spend (from the grants each client actually observed, not
//! the clamped ledger counter), and the global densification counter are
//! all recorded into a `BENCH_5.json`-style report.
//!
//! The same machinery also drives the **approximate-DP** comparison (see
//! [`crate::experiments::gaussian`]): with a positive
//! [`ServingConfig::noise_delta`] every release is (ε, δ)-DP through the
//! Gaussian calibration, requests draw their ε from
//! [`ServingConfig::eps_levels`] round-robin,
//! and [`ServingMode::Fragmented`] gives the ε-keyed scheduler baseline
//! that cross-ε coalescing is measured against.

use crate::experiments::scaling::scaling_lrm_config;
use crate::report::TableWriter;
use lrm_core::engine::{CompileOptions, Engine, MechanismKind, NoiseFlavor};
use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, Epsilon};
use lrm_linalg::operator::densification_count;
use lrm_server::{QuerySpec, Release, Server, ServerError, ServerReport};
use lrm_workload::{Attribute, Schema};
use rand::Rng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

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
    /// Individual queries released.
    pub queries_answered: u64,
    /// Granted requests per second.
    pub requests_per_second: f64,
    /// Released queries per second.
    pub queries_per_second: f64,
    /// Mean squared per-query error of the released answers.
    pub mean_squared_error: f64,
    /// Batches answered.
    pub batches: u64,
    /// Batches that coalesced ≥ 2 requests.
    pub coalesced_batches: u64,
    /// Mean requests per batch.
    pub mean_occupancy: f64,
    /// Largest batch.
    pub max_occupancy: u64,
    /// Strategy-cache misses (full compiles).
    pub cache_misses: u64,
    /// Strategy-cache memory hits.
    pub cache_hits: u64,
    /// Peak submitted-but-unanswered requests.
    pub peak_queue_depth: u64,
    /// Median submit→response latency, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile submit→response latency, milliseconds.
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

/// Per-thread accumulation while driving the trace.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClientOutcome {
    granted_per_tenant: Vec<f64>,
    granted_delta_per_tenant: Vec<f64>,
    answered: u64,
    rejected: u64,
    queries: u64,
    sq_err: f64,
}

impl ClientOutcome {
    pub(crate) fn new(cfg: &ServingConfig) -> Self {
        Self {
            granted_per_tenant: vec![0.0; cfg.tenants],
            granted_delta_per_tenant: vec![0.0; cfg.tenants],
            ..Self::default()
        }
    }

    /// Accounts one request's outcome: its grant and answer error, or a
    /// typed budget refusal.
    pub(crate) fn record(&mut self, req: &TraceRequest, outcome: Result<Release, ServerError>) {
        match outcome {
            Ok(release) => {
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
}

/// Replays the trace against one server configuration.
pub fn run_serving_mode(cfg: &ServingConfig, trace: &Trace, mode: ServingMode) -> ServingRunStats {
    run_serving_mode_with(cfg, trace, mode, |server| {
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
                    .collect::<Vec<ClientOutcome>>()
            })
        })
    })
}

/// [`run_serving_mode`] with the trace replayed by `drive`: one `serve`
/// of the server, returning what its clients observed.
pub(crate) fn run_serving_mode_with(
    cfg: &ServingConfig,
    trace: &Trace,
    mode: ServingMode,
    drive: impl FnOnce(&Server) -> (Vec<ClientOutcome>, ServerReport),
) -> ServingRunStats {
    let (window, max_batch) = match mode {
        ServingMode::Coalescing | ServingMode::Fragmented => (cfg.window, cfg.max_batch),
        ServingMode::Baseline => (Duration::ZERO, 1),
    };
    let mut options = CompileOptions::with_decomposition(scaling_lrm_config());
    if cfg.is_gaussian() {
        options.flavor = NoiseFlavor::ApproxDp;
    }
    // A fresh engine per run: all modes start with a cold strategy cache.
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

    let densify_before = densification_count();
    let t0 = Instant::now();
    let (outcomes, report) = drive(&server);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let densifications = densification_count() - densify_before;

    let mut granted = vec![0.0f64; cfg.tenants];
    let mut granted_delta = vec![0.0f64; cfg.tenants];
    let mut answered = 0u64;
    let mut rejected = 0u64;
    let mut queries = 0u64;
    let mut sq_err = 0.0f64;
    for o in &outcomes {
        for (g, total) in o.granted_per_tenant.iter().zip(granted.iter_mut()) {
            *total += g;
        }
        for (g, total) in o
            .granted_delta_per_tenant
            .iter()
            .zip(granted_delta.iter_mut())
        {
            *total += g;
        }
        answered += o.answered;
        rejected += o.rejected;
        queries += o.queries;
        sq_err += o.sq_err;
    }
    let overspend = granted
        .iter()
        .any(|&g| g > cfg.tenant_budget * (1.0 + 1e-9) + 1e-12);
    let delta_overspend = granted_delta
        .iter()
        .any(|&g| g > cfg.tenant_delta * (1.0 + 1e-9) + 1e-18);

    ServingRunStats {
        mode: mode.label(),
        wall_seconds,
        answered,
        rejected,
        queries_answered: queries,
        requests_per_second: answered as f64 / wall_seconds.max(1e-9),
        queries_per_second: queries as f64 / wall_seconds.max(1e-9),
        mean_squared_error: if queries > 0 {
            sq_err / queries as f64
        } else {
            0.0
        },
        batches: report.metrics.batches,
        coalesced_batches: report.metrics.coalesced_batches,
        mean_occupancy: report.metrics.mean_occupancy,
        max_occupancy: report.metrics.max_occupancy,
        cache_misses: report.cache.misses,
        cache_hits: report.cache.memory_hits,
        peak_queue_depth: report.metrics.peak_queue_depth,
        p50_latency_ms: report.metrics.p50_latency.as_secs_f64() * 1e3,
        p99_latency_ms: report.metrics.p99_latency.as_secs_f64() * 1e3,
        overspend,
        delta_overspend,
        cross_eps_batches: report.metrics.cross_eps_batches,
        densifications,
    }
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
                client
                    .submit_budget(&tenant, &req.spec, req.budget)
                    .expect("trace specs and tenants are valid")
            })
            .collect();
        for (req, ticket) in chunk.iter().zip(tickets) {
            out.record(req, ticket.wait());
        }
    }
    out
}

/// The two-run comparison the `load_sim` binary reports.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Configuration echo for the report.
    pub config: ServingConfig,
    /// The coalescing run.
    pub coalesced: ServingRunStats,
    /// The per-query baseline run.
    pub baseline: ServingRunStats,
}

impl ServingReport {
    /// Coalescing throughput over baseline throughput (granted requests
    /// per second).
    pub fn speedup(&self) -> f64 {
        self.coalesced.requests_per_second / self.baseline.requests_per_second.max(1e-12)
    }

    /// Baseline per-query MSE over coalesced per-query MSE (> 1 means
    /// coalescing also answered more accurately at equal ε).
    pub fn error_ratio(&self) -> f64 {
        self.baseline.mean_squared_error / self.coalesced.mean_squared_error.max(1e-300)
    }

    /// The acceptance gate: strictly higher coalescing throughput, zero
    /// over-spend, zero densifications, and the coalescer actually
    /// coalesced.
    pub fn passes_smoke(&self) -> bool {
        self.speedup() > 1.0
            && !self.coalesced.overspend
            && !self.baseline.overspend
            && !self.coalesced.delta_overspend
            && !self.baseline.delta_overspend
            && self.coalesced.densifications == 0
            && self.baseline.densifications == 0
            && self.coalesced.coalesced_batches > 0
    }

    /// Serializes the report in the repo's `BENCH_*.json` style.
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": 1,");
        let _ = writeln!(out, "  \"label\": \"{label}\",");
        let _ = writeln!(
            out,
            "  \"config\": {{ \"buckets\": {}, \"cuts\": {}, \"tenants\": {}, \"clients\": {}, \"requests_per_client\": {}, \"burst\": {}, \"spec_queries\": {}, \"window_ms\": {}, \"max_batch\": {}, \"workers\": {}, \"eps_request\": {}, \"tenant_budget\": {}, \"seed\": {} }},",
            self.config.buckets,
            self.config.cuts,
            self.config.tenants,
            self.config.clients,
            self.config.requests_per_client,
            self.config.burst,
            self.config.spec_queries,
            self.config.window.as_secs_f64() * 1e3,
            self.config.max_batch,
            self.config.workers,
            self.config.eps_request,
            self.config.tenant_budget,
            self.config.seed,
        );
        let _ = writeln!(
            out,
            "  \"units\": {{ \"throughput\": \"granted requests (and queries) per second\", \"error\": \"mean squared per-query error vs exact answers at eps_request\" }},"
        );
        let _ = writeln!(out, "  \"runs\": [");
        for (i, run) in [&self.coalesced, &self.baseline].into_iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"mode\": \"{}\", \"wall_seconds\": {:.6}, \"answered\": {}, \"rejected\": {}, \"queries_answered\": {}, \"requests_per_second\": {:.3}, \"queries_per_second\": {:.3}, \"mean_squared_error\": {:.6e}, \"batches\": {}, \"coalesced_batches\": {}, \"cross_eps_batches\": {}, \"mean_occupancy\": {:.3}, \"max_occupancy\": {}, \"cache_misses\": {}, \"cache_hits\": {}, \"peak_queue_depth\": {}, \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}, \"overspend\": {}, \"delta_overspend\": {}, \"densifications\": {} }}{}",
                run.mode,
                run.wall_seconds,
                run.answered,
                run.rejected,
                run.queries_answered,
                run.requests_per_second,
                run.queries_per_second,
                run.mean_squared_error,
                run.batches,
                run.coalesced_batches,
                run.cross_eps_batches,
                run.mean_occupancy,
                run.max_occupancy,
                run.cache_misses,
                run.cache_hits,
                run.peak_queue_depth,
                run.p50_latency_ms,
                run.p99_latency_ms,
                run.overspend,
                run.delta_overspend,
                run.densifications,
                if i == 0 { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"comparison\": {{ \"throughput_speedup\": {:.3}, \"error_ratio_baseline_over_coalesced\": {:.3}, \"strictly_faster\": {}, \"passes_smoke\": {} }}",
            self.speedup(),
            self.error_ratio(),
            self.speedup() > 1.0,
            self.passes_smoke(),
        );
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: &Path, label: &str) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json(label))
    }
}

/// Runs the full comparison: the same trace through the coalescing server
/// and the per-query baseline.
pub fn run_serving_bench(cfg: &ServingConfig) -> ServingReport {
    let trace = build_trace(cfg);
    let coalesced = run_serving_mode(cfg, &trace, ServingMode::Coalescing);
    let baseline = run_serving_mode(cfg, &trace, ServingMode::Baseline);

    if !cfg.quiet {
        let mut table = TableWriter::new(format!(
            "Serving load harness — {} clients × {} requests, {} tenants, ε = {} per release",
            cfg.clients, cfg.requests_per_client, cfg.tenants, cfg.eps_request
        ));
        table.header(&[
            "mode",
            "wall s",
            "req/s",
            "mse",
            "batches",
            "coalesced",
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
        // tenant, 2 tenants, so 12 answered + 4 rejected in both runs.
        assert_eq!(report.coalesced.answered, 12);
        assert_eq!(report.baseline.answered, 12);
        assert_eq!(report.coalesced.rejected, 4);
        assert_eq!(report.baseline.rejected, 4);

        // The hard invariants of the harness.
        assert!(!report.coalesced.overspend);
        assert!(!report.baseline.overspend);
        assert_eq!(report.coalesced.densifications, 0);
        assert_eq!(report.baseline.densifications, 0);
        assert!(report.coalesced.coalesced_batches > 0);
        assert_eq!(report.baseline.coalesced_batches, 0);
        assert!(report.baseline.batches >= 16);
        assert!(report.coalesced.batches < report.baseline.batches);
        assert!(report.coalesced.mean_squared_error.is_finite());
        assert!(report.coalesced.mean_squared_error > 0.0);

        let json = report.to_json("test");
        assert!(json.contains("\"runs\""));
        assert!(json.contains("\"throughput_speedup\""));
        assert!(json.contains("\"mode\": \"coalescing\""));
        assert!(json.contains("\"mode\": \"per-query baseline\""));
    }
}
