//! Warm-start benchmark: iteration-count reduction and
//! compile-latency percentiles on a near-duplicate panel trace, cold vs
//! warmed vs restarted-with-store.
//!
//! ```text
//! warm_start [--n N] [--shapes K] [--cuts C] [--seed S]
//!            [--store-dir DIR] [--quiet]
//! warm_start --smoke [--budget-seconds S] [--quiet]
//! ```
//!
//! Every run prints one result line (see `lrm_eval::report::Verdict`) and
//! exits 1 if and only if a check of
//! [`WarmStartReport::gate`](lrm_eval::experiments::warm_start::WarmStartReport::gate)
//! failed, each named on stderr as `FAIL: <check>`: (a) every
//! near-duplicate after the first **warm-starts** and converges in
//! **strictly fewer** ALM iterations than its cold baseline (median
//! reduction ≥ 30%), (b) a restarted engine over the same strategy store
//! answers the whole prior working set with **zero** full recompiles
//! (exact disk hits only) and warm-starts a shape it has never seen from
//! a decomposition those disk hits reloaded, and (c) a restarted
//! *server* replays the working set end to end with zero engine cache
//! misses. `--smoke` runs the gate on the pinned CI configuration and
//! also fails past `--budget-seconds` (default 150).

use lrm_eval::cli::GateArgs;
use lrm_eval::experiments::warm_start::{run_warm_start_bench, WarmStartConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "warm_start";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let mut cfg = WarmStartConfig::default();
    let args = match GateArgs::parse(
        BIN,
        std::env::args().skip(1),
        &[],
        true,
        "--smoke, --n, --shapes, --cuts, --seed, --store-dir, --quiet, --budget-seconds",
        |flag, v| {
            match flag {
                "--n" => cfg.buckets = v.value(flag)?,
                "--shapes" => cfg.shapes = v.value(flag)?,
                "--cuts" => cfg.cuts = v.value(flag)?,
                "--seed" => cfg.seed = v.value(flag)?,
                "--store-dir" => cfg.store_dir = Some(v.value::<PathBuf>(flag)?),
                _ => return Ok(false),
            }
            Ok(true)
        },
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.smoke {
        cfg = WarmStartConfig::smoke();
    }
    cfg.quiet = args.quiet;

    let t0 = Instant::now();
    let mut verdict = run_warm_start_bench(&cfg).gate();
    if args.smoke {
        let elapsed = t0.elapsed().as_secs_f64();
        verdict
            .check(
                "within_budget",
                elapsed <= args.budget_seconds.unwrap_or(150.0),
            )
            .metric("wall_seconds", elapsed, "s");
    }
    verdict.finish(BIN)
}
