//! Multi-tenant serving load harness: the coalescing `lrm-server` against
//! a per-query baseline on the same trace, at equal ε.
//!
//! ```text
//! load_sim [--n N] [--cuts C] [--tenants T] [--clients K] [--requests R]
//!          [--burst B] [--spec-queries Q] [--window-ms W] [--max-batch M]
//!          [--workers P] [--eps E] [--tenant-budget EB] [--seed S] [--quiet]
//! load_sim --smoke [--budget-seconds S] [--quiet]
//! load_sim --evented [--quiet]
//! ```
//!
//! Every run prints one result line (see `lrm_eval::report::Verdict`) and
//! exits 1 if and only if a check failed, each failed check named on
//! stderr as `FAIL: <check>`. The default run gates the comparison on
//! the given configuration: strictly higher coalescing throughput, zero
//! ε or δ over-spend, zero densifications, and at least one coalesced
//! batch ([`ServingReport::gate`](lrm_eval::experiments::serving::ServingReport::gate)).
//!
//! `--smoke` runs the CI regression gate on pinned small configurations
//! in four passes, checks prefixed by the pass:
//!
//! 1. `pure.` — that same gate on [`ServingConfig::smoke`]. The smoke
//!    runs in its own process, which is what makes the global
//!    densification counter assertable.
//! 2. `gaussian.` — the mixed-ε Gaussian gate on
//!    [`ServingConfig::gaussian_smoke`]: cross-ε (δ-class) coalescing
//!    must strictly beat the ε-keyed scheduler, mix ε levels in at least
//!    one batch (the ε-keyed run in none), with zero ε or δ over-spend.
//! 3. `evented.` — the evented front-end gate ([`EventedConfig::smoke`]):
//!    ≥ 10⁴ requests concurrently in flight from a handful of driver
//!    threads over the sharded scheduler, with strictly higher throughput
//!    *and* strictly lower p99 than the thread-per-client blocking driver
//!    at equal ε. `--evented` runs this pass alone.
//! 4. `obs.` — the observability overhead gate: the pinned coalescing
//!    configuration runs in interleaved pairs, once with tracing disabled
//!    and once streaming every span and event through a JSON-lines
//!    subscriber into a sink, and the traced runs together must reach at
//!    least 95% of the untraced runs' throughput.
//!
//! The whole smoke must also finish within `--budget-seconds` (default
//! 150). Set `LRM_TRACE=<path>` on any invocation to capture the full
//! request-lifecycle trace (and the binary's own progress events) as
//! JSON lines at that path.

use lrm_eval::cli::GateArgs;
use lrm_eval::experiments::evented::{run_evented_bench, EventedConfig};
use lrm_eval::experiments::serving::{
    build_trace, run_serving_bench, run_serving_mode, ServingConfig, ServingMode,
};
use lrm_eval::Verdict;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced/untraced pairs of the observability overhead gate: one pair of
/// sub-second runs differs by ±10% on scheduling noise alone.
const OBS_PAIRS: usize = 20;

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "load_sim";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let mut cfg = ServingConfig::default();
    let args = match GateArgs::parse(
        BIN,
        std::env::args().skip(1),
        &["--evented"],
        true,
        "--smoke, --evented, --n, --cuts, --tenants, --clients, --requests, --burst, \
         --spec-queries, --window-ms, --max-batch, --workers, --eps, --tenant-budget, \
         --seed, --quiet, --budget-seconds",
        |flag, v| {
            match flag {
                "--n" => cfg.buckets = v.value(flag)?,
                "--cuts" => cfg.cuts = v.value(flag)?,
                "--tenants" => cfg.tenants = v.value(flag)?,
                "--clients" => cfg.clients = v.value(flag)?,
                "--requests" => cfg.requests_per_client = v.value(flag)?,
                "--burst" => cfg.burst = v.value(flag)?,
                "--spec-queries" => cfg.spec_queries = v.value(flag)?,
                "--window-ms" => cfg.window = Duration::from_secs_f64(v.value::<f64>(flag)? / 1e3),
                "--max-batch" => cfg.max_batch = v.value(flag)?,
                "--workers" => cfg.workers = v.value(flag)?,
                "--eps" => cfg.eps_request = v.value(flag)?,
                "--tenant-budget" => cfg.tenant_budget = v.value(flag)?,
                "--seed" => cfg.seed = v.value(flag)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let quiet = args.quiet;
    let evented = || {
        let mut cfg = EventedConfig::smoke();
        cfg.serving.quiet = quiet;
        run_evented_bench(&cfg).gate()
    };

    if args.has("--evented") && !args.smoke {
        return evented().finish(BIN);
    }
    if !args.smoke {
        cfg.quiet = quiet;
        return run_serving_bench(&cfg).gate().finish(BIN);
    }

    let t0 = Instant::now();
    let mut verdict = Verdict::default();
    for (pass, cfg) in [
        ("pure", ServingConfig::smoke()),
        ("gaussian", ServingConfig::gaussian_smoke()),
    ] {
        let cfg = ServingConfig { quiet, ..cfg };
        verdict.merge(pass, run_serving_bench(&cfg).gate());
    }
    verdict.merge("evented", evented());
    verdict.merge("obs", obs_overhead_gate());
    let elapsed = t0.elapsed().as_secs_f64();
    let budget = args.budget_seconds.unwrap_or(150.0);
    verdict
        .check("within_budget", elapsed <= budget)
        .metric("wall_seconds", elapsed, "s");
    verdict.finish(BIN)
}

/// The pinned coalescing trace in interleaved pairs on identical
/// configurations — once with tracing fully disabled (the
/// one-relaxed-load fast path) and once streaming every span and event
/// through a JsonLines subscriber into a sink, alternating which goes
/// first. The traced runs together must hold at least 95% of the
/// untraced runs' throughput.
fn obs_overhead_gate() -> Verdict {
    let cfg = ServingConfig {
        quiet: true,
        ..ServingConfig::smoke()
    };
    let trace = build_trace(&cfg);
    let prior = lrm_obs::uninstall();
    // (granted requests, wall seconds) per arm: [untraced, traced].
    let mut arms = [(0u64, 0.0f64); 2];
    for pair in 0..OBS_PAIRS {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if traced {
                lrm_obs::install(Arc::new(lrm_obs::JsonLines::new(std::io::sink())));
            }
            let run = run_serving_mode(&cfg, &trace, ServingMode::Coalescing);
            lrm_obs::uninstall();
            let arm = &mut arms[usize::from(traced)];
            arm.0 += run.answered;
            arm.1 += run.wall_seconds;
        }
    }
    if let Some(prior) = prior {
        lrm_obs::install(prior);
    }
    let [untraced, traced] = arms.map(|(answered, wall)| answered as f64 / wall.max(1e-9));
    let mut v = Verdict::default();
    v.check("tracing_costs_at_most_5pct", traced >= 0.95 * untraced)
        .metric("untraced_rps", untraced, "1/s")
        .metric("traced_rps", traced, "1/s");
    v
}
