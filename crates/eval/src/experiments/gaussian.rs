//! Cross-ε coalescing under approximate DP: the δ-class scheduler
//! against an ε-keyed one on the same mixed-ε Gaussian trace (ISSUE 8
//! tentpole measurement, `BENCH_8.json`).
//!
//! The pure serving bench ([`crate::experiments::serving`]) measures
//! coalescing against *per-query* serving; the question here is sharper:
//! given that you coalesce, what does the Gaussian mechanism's closure
//! under addition buy you? A Laplace scheduler must key batches on ε —
//! one noise scale per data pass — so a mixed-ε trace fragments its
//! windows. A Gaussian scheduler keys on the δ-class only: one base draw
//! calibrated at the batch's largest ε serves every member, and stricter
//! members add an independent variance top-up. Both runs here use the
//! same window, the same batch cap, the same (ε, δ)-ledgers, and the
//! same mixed-ε trace; the only difference is
//! [`coalesce_across_eps`](lrm_server::server::ServerBuilder::coalesce_across_eps).
//!
//! The acceptance gate: strictly higher throughput for cross-ε
//! coalescing, at least one cross-ε batch (the fragmented run must have
//! none), zero ε *or* δ over-spend anywhere, zero densifications.

use crate::experiments::serving::{
    build_trace, run_serving_mode, ServingConfig, ServingMode, ServingRunStats,
};
use crate::report::TableWriter;
use std::fmt::Write as _;
use std::path::Path;

/// The two-run comparison the `gaussian` binary reports.
#[derive(Debug, Clone)]
pub struct GaussianReport {
    /// Configuration echo (must have `noise_delta > 0`).
    pub config: ServingConfig,
    /// The cross-ε (δ-class keyed) coalescing run.
    pub coalesced: ServingRunStats,
    /// The ε-keyed fragmented run.
    pub fragmented: ServingRunStats,
}

impl GaussianReport {
    /// Cross-ε throughput over ε-fragmented throughput (granted
    /// requests per second).
    pub fn speedup(&self) -> f64 {
        self.coalesced.requests_per_second / self.fragmented.requests_per_second.max(1e-12)
    }

    /// The acceptance gate (see module docs).
    pub fn passes_smoke(&self) -> bool {
        self.speedup() > 1.0
            && self.coalesced.cross_eps_batches > 0
            && self.fragmented.cross_eps_batches == 0
            && !self.coalesced.overspend
            && !self.fragmented.overspend
            && !self.coalesced.delta_overspend
            && !self.fragmented.delta_overspend
            && self.coalesced.densifications == 0
            && self.fragmented.densifications == 0
    }

    /// Serializes the report in the repo's `BENCH_*.json` style.
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": 1,");
        let _ = writeln!(out, "  \"label\": \"{label}\",");
        let levels = self
            .config
            .eps_levels
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "  \"config\": {{ \"buckets\": {}, \"cuts\": {}, \"tenants\": {}, \"clients\": {}, \"requests_per_client\": {}, \"burst\": {}, \"spec_queries\": {}, \"window_ms\": {}, \"max_batch\": {}, \"workers\": {}, \"eps_levels\": [{}], \"noise_delta\": {:e}, \"tenant_budget\": {}, \"tenant_delta\": {:e}, \"seed\": {} }},",
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
            levels,
            self.config.noise_delta,
            self.config.tenant_budget,
            self.config.tenant_delta,
            self.config.seed,
        );
        let _ = writeln!(
            out,
            "  \"units\": {{ \"throughput\": \"granted (eps, delta) releases per second\", \"error\": \"mean squared per-query error vs exact answers at each release's own budget\" }},"
        );
        let _ = writeln!(out, "  \"runs\": [");
        for (i, run) in [&self.coalesced, &self.fragmented].into_iter().enumerate() {
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
            "  \"comparison\": {{ \"throughput_speedup\": {:.3}, \"strictly_faster\": {}, \"cross_eps_batches\": {}, \"passes_smoke\": {} }}",
            self.speedup(),
            self.speedup() > 1.0,
            self.coalesced.cross_eps_batches,
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

/// Runs the full comparison: the same mixed-ε Gaussian trace through the
/// cross-ε coalescing server and the ε-fragmented one.
pub fn run_gaussian_bench(cfg: &ServingConfig) -> GaussianReport {
    assert!(
        cfg.is_gaussian(),
        "the gaussian bench needs noise_delta > 0"
    );
    assert!(
        cfg.eps_levels.len() > 1,
        "a single-ε trace cannot separate cross-ε coalescing from ε-keying"
    );
    let trace = build_trace(cfg);
    let coalesced = run_serving_mode(cfg, &trace, ServingMode::Coalescing);
    let fragmented = run_serving_mode(cfg, &trace, ServingMode::Fragmented);

    if !cfg.quiet {
        let mut table = TableWriter::new(format!(
            "Gaussian cross-ε coalescing — {} clients × {} requests, {} tenants, ε ∈ {{{:?}}}, δ = {:e}",
            cfg.clients, cfg.requests_per_client, cfg.tenants, cfg.eps_levels, cfg.noise_delta
        ));
        table.header(&[
            "mode",
            "wall s",
            "req/s",
            "mse",
            "batches",
            "cross-ε",
            "occupancy",
            "p99 ms",
        ]);
        for run in [&coalesced, &fragmented] {
            table.row(vec![
                run.mode.to_string(),
                format!("{:.3}", run.wall_seconds),
                format!("{:.1}", run.requests_per_second),
                format!("{:.3e}", run.mean_squared_error),
                run.batches.to_string(),
                run.cross_eps_batches.to_string(),
                format!("{:.2}", run.mean_occupancy),
                format!("{:.1}", run.p99_latency_ms),
            ]);
        }
        println!("{}", table.render());
    }

    GaussianReport {
        config: cfg.clone(),
        coalesced,
        fragmented,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serving::{run_serving_mode_with, ClientOutcome, Trace, TraceRequest};
    use std::time::Duration;

    /// [`run_gaussian_bench`] on one scripted arrival schedule: a single
    /// driver submits the trace in round-robin client order, `max_batch`
    /// requests at a time, and waits each round out before the next. A
    /// round's submissions reach the scheduler long before its window
    /// ends, and every admission check sees the ledgers the rounds before
    /// it left, so both runs' batches depend on the trace alone — not on
    /// how two independently timed runs happened to interleave.
    fn run_scripted_bench(cfg: &ServingConfig) -> GaussianReport {
        let trace = build_trace(cfg);
        let run =
            |mode| run_serving_mode_with(cfg, &trace, mode, |server| drive(server, &trace, cfg));
        GaussianReport {
            config: cfg.clone(),
            coalesced: run(ServingMode::Coalescing),
            fragmented: run(ServingMode::Fragmented),
        }
    }

    fn drive(
        server: &lrm_server::Server,
        trace: &Trace,
        cfg: &ServingConfig,
    ) -> (Vec<ClientOutcome>, lrm_server::ServerReport) {
        let longest = trace.per_client.iter().map(Vec::len).max().unwrap_or(0);
        let order: Vec<&TraceRequest> = (0..longest)
            .flat_map(|i| trace.per_client.iter().filter_map(move |reqs| reqs.get(i)))
            .collect();
        server.serve(|client| {
            let mut outcome = ClientOutcome::new(cfg);
            for round in order.chunks(cfg.max_batch) {
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
                    outcome.record(req, ticket.wait());
                }
            }
            vec![outcome]
        })
    }

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
            window: Duration::from_millis(20),
            tenant_budget: 1.6,
            noise_delta: 1e-6,
            tenant_delta: 1e-4,
            eps_levels: vec![0.1, 0.25],
            quiet: true,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn gaussian_bench_runs_and_holds_its_invariants() {
        let _guard = crate::experiments::densification_guard();
        let report = run_scripted_bench(&ServingConfig {
            window: Duration::from_millis(200),
            ..tiny()
        });

        // The cross-ε run actually mixed ε inside batches; the
        // fragmented run never did.
        assert!(report.coalesced.cross_eps_batches > 0);
        assert_eq!(report.fragmented.cross_eps_batches, 0);
        // ε-keying can only fragment: never fewer batches.
        assert!(report.fragmented.batches >= report.coalesced.batches);
        // Privacy invariants hold in both runs.
        assert!(!report.coalesced.overspend && !report.fragmented.overspend);
        assert!(!report.coalesced.delta_overspend && !report.fragmented.delta_overspend);
        assert_eq!(report.coalesced.densifications, 0);
        assert_eq!(report.fragmented.densifications, 0);
        // Both runs released real answers with finite error.
        assert!(report.coalesced.answered > 0);
        assert!(report.fragmented.answered > 0);
        assert!(report.coalesced.mean_squared_error.is_finite());
        assert!(report.coalesced.mean_squared_error > 0.0);

        let json = report.to_json("test");
        assert!(json.contains("\"cross_eps_batches\""));
        assert!(json.contains("\"delta_overspend\""));
        assert!(json.contains("\"mode\": \"coalescing\""));
        assert!(json.contains("\"mode\": \"eps-fragmented\""));
    }

    #[test]
    #[should_panic(expected = "noise_delta")]
    fn pure_configs_are_rejected() {
        let cfg = ServingConfig {
            noise_delta: 0.0,
            ..tiny()
        };
        run_gaussian_bench(&cfg);
    }
}
