//! Crash–restart fault-injection gate for the fault-contained serving
//! runtime.
//!
//! ```text
//! chaos [--cycles N] [--seed S] [--state-dir DIR] [--quiet]
//! chaos --smoke [--quiet]
//! ```
//!
//! Each cycle builds a fresh server over one shared durable state
//! directory, injects one fault from the fixed rotation (worker panic,
//! compile stall, settle crash, torn ε-journal),
//! drives real traffic, and shuts down; the run fails unless every
//! invariant holds across all cycles — no tenant over-spend in either
//! ledger column, no duplicate noise release, no starved cycle, no
//! unresolved ticket, and degraded releases within 2× the compile
//! deadline. `--smoke` runs the pinned CI configuration (one full fault
//! rotation plus the verification reopen), then repeats the failpoint
//! faults on a Gaussian (ε, δ) server — a settle crash must replay its
//! intent as spent in *both* the ε and δ columns.
//!
//! The failpoint-driven faults need a `debug_assertions` build (the
//! default `cargo run` dev profile); in release builds the harness still
//! exercises restarts and file damage and says so.

use lrm_eval::experiments::chaos::{run_chaos, ChaosConfig};
use lrm_eval::fail;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cfg: ChaosConfig,
    smoke: bool,
    /// Shaping flags seen on the command line; `--smoke` is a pinned
    /// configuration and refuses these rather than silently ignoring
    /// them (same contract as `load_sim`).
    shaping_flags: Vec<&'static str>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cfg: ChaosConfig::default(),
        smoke: false,
        shaping_flags: Vec::new(),
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
            "--cycles" => {
                out.shaping_flags.push("--cycles");
                out.cfg.cycles = next_parse("--cycles", &mut args)?;
            }
            "--seed" => {
                out.shaping_flags.push("--seed");
                out.cfg.seed = next_parse("--seed", &mut args)?;
            }
            "--state-dir" => {
                out.shaping_flags.push("--state-dir");
                let v = args.next().ok_or("--state-dir needs a path")?;
                out.cfg.state_dir = Some(PathBuf::from(v));
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --smoke, --cycles N, --seed S, --state-dir DIR, --quiet)"
                ))
            }
        }
    }
    Ok(out)
}

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "chaos";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            fail!(BIN, "chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = if args.smoke {
        if !args.shaping_flags.is_empty() {
            fail!(
                BIN,
                "chaos: --smoke runs a pinned configuration and does not accept {}",
                args.shaping_flags.join(", ")
            );
            return ExitCode::FAILURE;
        }
        ChaosConfig {
            quiet: args.cfg.quiet,
            ..ChaosConfig::smoke()
        }
    } else {
        args.cfg
    };

    if !cfg!(debug_assertions) {
        fail!(
            BIN,
            "chaos: release build — failpoint faults are no-ops; \
             running restarts and file-damage faults only"
        );
    }
    let report = run_chaos(&cfg);
    println!("{}", report.summary());
    let mut passed = report.passes();

    if args.smoke {
        // Second pass: the failpoint faults against a Gaussian server,
        // where every crash–restart invariant binds on both (ε, δ)
        // ledger columns.
        let gaussian_cfg = ChaosConfig {
            quiet: cfg.quiet,
            ..ChaosConfig::gaussian_smoke()
        };
        let gaussian = run_chaos(&gaussian_cfg);
        println!("gaussian: {}", gaussian.summary());
        passed &= gaussian.passes();
    }

    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
