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
//! drives real traffic, and shuts down. The run prints one result line
//! (see `lrm_eval::report::Verdict`) and exits 1 if and only if an
//! invariant of
//! [`ChaosReport::gate`](lrm_eval::experiments::chaos::ChaosReport::gate)
//! failed across the cycles, each named on stderr as `FAIL: <check>` —
//! no tenant over-spend in either ledger column, no duplicate noise
//! release, no starved cycle, no unresolved ticket, and degraded releases
//! within 2× the compile deadline. `--smoke` runs the pinned CI
//! configuration (one full fault rotation plus the verification reopen,
//! checks prefixed `pure.`), then repeats the failpoint faults on a
//! Gaussian (ε, δ) server (`gaussian.`) — a settle crash must replay its
//! intent as spent in *both* the ε and δ columns.
//!
//! The failpoint-driven faults need a `debug_assertions` build (the
//! default `cargo run` dev profile); in release builds the harness still
//! exercises restarts and file damage and says so.

use lrm_eval::cli::GateArgs;
use lrm_eval::experiments::chaos::{run_chaos, ChaosConfig};
use lrm_eval::{fail, Verdict};
use std::path::PathBuf;
use std::process::ExitCode;

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "chaos";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let mut cfg = ChaosConfig::default();
    let args = match GateArgs::parse(
        BIN,
        std::env::args().skip(1),
        &[],
        false,
        "--smoke, --cycles N, --seed S, --state-dir DIR, --quiet",
        |flag, v| {
            match flag {
                "--cycles" => cfg.cycles = v.value(flag)?,
                "--seed" => cfg.seed = v.value(flag)?,
                "--state-dir" => cfg.state_dir = Some(v.value::<PathBuf>(flag)?),
                _ => return Ok(false),
            }
            Ok(true)
        },
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };

    if !cfg!(debug_assertions) {
        fail!(
            BIN,
            "chaos: release build — failpoint faults are no-ops; \
             running restarts and file-damage faults only"
        );
    }
    if !args.smoke {
        cfg.quiet = args.quiet;
        return run_chaos(&cfg).gate().finish(BIN);
    }
    // Second pass: the failpoint faults against a Gaussian server, where
    // every crash–restart invariant binds on both (ε, δ) ledger columns.
    let mut verdict = Verdict::default();
    for (pass, cfg) in [
        ("pure", ChaosConfig::smoke()),
        ("gaussian", ChaosConfig::gaussian_smoke()),
    ] {
        let cfg = ChaosConfig {
            quiet: args.quiet,
            ..cfg
        };
        verdict.merge(pass, run_chaos(&cfg).gate());
    }
    verdict.finish(BIN)
}
