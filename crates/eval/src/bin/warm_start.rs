//! Warm-start benchmark: iteration-count reduction and
//! compile-latency percentiles on a near-duplicate panel trace, cold vs
//! warmed vs restarted-with-store (`BENCH_6.json`).
//!
//! ```text
//! warm_start [--n N] [--shapes K] [--cuts C] [--seed S]
//!            [--store-dir DIR] [--out PATH] [--quiet]
//! warm_start --smoke [--budget-seconds S] [--quiet]
//! ```
//!
//! `--smoke` runs the CI regression gate on a pinned small configuration
//! and fails unless (a) every near-duplicate after the first **warm-
//! starts** and converges in **strictly fewer** ALM iterations than its
//! cold baseline (median reduction ≥ 30%), (b) a restarted engine over
//! the same strategy store answers the whole prior working set with
//! **zero** full recompiles (exact disk hits only) and warm-starts a
//! shape it has never seen from a decomposition those disk hits
//! reloaded, and (c) a restarted
//! *server* replays the working set end to end with zero engine cache
//! misses.

use lrm_eval::experiments::warm_start::{run_warm_start_bench, WarmStartConfig};
use lrm_eval::fail;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    cfg: WarmStartConfig,
    out: Option<PathBuf>,
    smoke: bool,
    budget_seconds: f64,
    /// Shaping flags seen on the command line; `--smoke` is a pinned
    /// configuration and refuses these rather than silently ignoring
    /// them (same contract as `scaling_sweep` and `load_sim`).
    shaping_flags: Vec<&'static str>,
    saw_budget: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cfg: WarmStartConfig::default(),
        out: None,
        smoke: false,
        budget_seconds: 150.0,
        shaping_flags: Vec::new(),
        saw_budget: false,
    };
    fn next_parse<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let v = args.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag}: {v}"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--quiet" => out.cfg.quiet = true,
            "--n" => {
                out.shaping_flags.push("--n");
                out.cfg.buckets = next_parse("--n", &mut args)?;
            }
            "--shapes" => {
                out.shaping_flags.push("--shapes");
                out.cfg.shapes = next_parse("--shapes", &mut args)?;
            }
            "--cuts" => {
                out.shaping_flags.push("--cuts");
                out.cfg.cuts = next_parse("--cuts", &mut args)?;
            }
            "--seed" => {
                out.shaping_flags.push("--seed");
                out.cfg.seed = next_parse("--seed", &mut args)?;
            }
            "--store-dir" => {
                out.shaping_flags.push("--store-dir");
                let v = args.next().ok_or("--store-dir needs a path")?;
                out.cfg.store_dir = Some(PathBuf::from(v));
            }
            "--out" => {
                out.shaping_flags.push("--out");
                let v = args.next().ok_or("--out needs a path")?;
                out.out = Some(PathBuf::from(v));
            }
            "--budget-seconds" => {
                out.saw_budget = true;
                out.budget_seconds = next_parse("--budget-seconds", &mut args)?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --smoke, --n, --shapes, --cuts, --seed, --store-dir, --out, --quiet, --budget-seconds)"
                ))
            }
        }
    }
    Ok(out)
}

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "warm_start";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            fail!(BIN, "warm_start: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        if !args.shaping_flags.is_empty() {
            fail!(
                BIN,
                "warm_start: --smoke runs a pinned configuration and does not accept {}",
                args.shaping_flags.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let cfg = WarmStartConfig {
            quiet: args.cfg.quiet,
            ..WarmStartConfig::smoke()
        };
        let t0 = Instant::now();
        let report = run_warm_start_bench(&cfg);
        let elapsed = t0.elapsed().as_secs_f64();
        println!(
            "smoke: median iteration reduction {:.1}%, restart {} disk hits / {} misses, \
             server replay {} answered / {} misses",
            report.median_reduction * 100.0,
            report.restart_disk_hits,
            report.restart_misses,
            report.server_answered,
            report.server_misses,
        );
        let mut failed = false;
        if report.median_reduction < 0.30 {
            fail!(
                BIN,
                "FAIL: median warm-start iteration reduction {:.1}% is below the 30% gate",
                report.median_reduction * 100.0
            );
            failed = true;
        }
        for s in report.shapes.iter().skip(1) {
            if !s.warm_started {
                fail!(BIN,
                    "FAIL: the boundary-{} near-duplicate did not warm-start from the similarity index",
                    s.nudge
                );
                failed = true;
            } else if s.warm_iterations >= s.cold_iterations {
                fail!(BIN,
                    "FAIL: the boundary-{} near-duplicate took {} warm iterations, not strictly fewer than {} cold",
                    s.nudge, s.warm_iterations, s.cold_iterations
                );
                failed = true;
            }
        }
        if report.restart_misses != 0 || report.restart_disk_hits != cfg.shapes as u64 {
            fail!(BIN,
                "FAIL: a restarted engine recompiled the working set ({} disk hits, {} misses over {} shapes)",
                report.restart_disk_hits, report.restart_misses, cfg.shapes
            );
            failed = true;
        }
        if !report.restart_warm_start {
            fail!(
                BIN,
                "FAIL: a restarted engine did not warm-start a new shape from the store"
            );
            failed = true;
        }
        if report.server_misses != 0 || report.server_answered != cfg.shapes as u64 {
            fail!(BIN,
                "FAIL: a restarted server replayed the working set with {} answered and {} cache misses",
                report.server_answered, report.server_misses
            );
            failed = true;
        }
        if elapsed > args.budget_seconds {
            fail!(
                BIN,
                "FAIL: smoke took {elapsed:.1}s > budget {:.1}s",
                args.budget_seconds
            );
            failed = true;
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if args.saw_budget {
        fail!(BIN, "warm_start: --budget-seconds only applies to --smoke");
        return ExitCode::FAILURE;
    }
    let report = run_warm_start_bench(&args.cfg);
    let label = format!(
        "warm-start benchmark, {} near-duplicate {}-cut panels (single-boundary nudges) over n = {}, cold vs warmed vs restarted-with-store",
        report.config.shapes, report.config.cuts, report.config.buckets,
    );
    if let Some(path) = &args.out {
        if let Err(e) = report.write(path, &label) {
            fail!(BIN, "warm_start: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    } else {
        println!("{}", report.to_json(&label));
    }
    if report.passes_smoke() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
