//! Domain-scaling sweep: structured (sparse/implicit) vs forced-dense
//! workload path through `Engine::compile(MechanismKind::Lrm)`.
//!
//! ```text
//! scaling_sweep [--family prefix|range|coarse] [--queries M] [--dense-cap N]
//!               [--sizes N1,N2,...] [--seed S] [--quiet]
//! scaling_sweep --smoke [--budget-seconds S] [--quiet]
//! ```
//!
//! Every run prints one result line (see `lrm_eval::report::Verdict`) and
//! exits 1 if and only if a check of
//! [`ScalingReport::gate`](lrm_eval::experiments::scaling::ScalingReport::gate)
//! failed, each named on stderr as `FAIL: <check>`: no structured
//! compile may densify its workload — the implicit fast path must not
//! silently fall back to a dense `W`.
//!
//! `--smoke` runs the CI regression gate: one n = 4096 prefix compile on
//! the structured path, which must also finish within a wall-time budget
//! (`--budget-seconds`, default 120 s), so a regression to densification
//! or dense-path costs fails the job rather than just slowing it down.
//! The smoke runs in its own process, which is what makes the global
//! densification counter assertable.

use lrm_eval::cli::GateArgs;
use lrm_eval::experiments::scaling::{run_scaling_sweep, ScalingConfig, ScalingFamily};
use lrm_eval::info;
use std::process::ExitCode;

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "scaling_sweep";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let mut cfg = ScalingConfig::default();
    let args = match GateArgs::parse(
        BIN,
        std::env::args().skip(1),
        &[],
        true,
        "--smoke, --family, --queries, --dense-cap, --sizes, --seed, --quiet, \
         --budget-seconds",
        |flag, v| {
            match flag {
                "--family" => {
                    cfg.family = match v.value::<String>(flag)?.as_str() {
                        "prefix" => ScalingFamily::Prefix,
                        "range" => ScalingFamily::Range,
                        "coarse" => ScalingFamily::RangeCoarse,
                        other => return Err(format!("unknown family: {other}")),
                    }
                }
                "--queries" => cfg.queries = v.value(flag)?,
                "--dense-cap" => cfg.dense_cap = v.value(flag)?,
                "--sizes" => {
                    cfg.domain_sizes = v
                        .value::<String>(flag)?
                        .split(',')
                        .map(|s| s.trim().parse().map_err(|_| format!("bad size: {s}")))
                        .collect::<Result<_, _>>()?
                }
                "--seed" => cfg.seed = v.value(flag)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.smoke {
        // CI gate: n = 4096 prefix, structured path only, modest m so the
        // whole run stays well inside the budget on one CPU.
        cfg = ScalingConfig {
            domain_sizes: vec![4096],
            queries: 64,
            family: ScalingFamily::Prefix,
            dense_cap: 0,
            ..ScalingConfig::default()
        };
    }
    cfg.quiet = args.quiet;

    let report = run_scaling_sweep(&cfg);
    if !args.smoke {
        match report.structured_strictly_faster_from(1024) {
            Some(verdict) => info!(
                BIN,
                "structured strictly faster than dense at every measured n >= 1024: {verdict}"
            ),
            None => info!(BIN, "no dense comparison at n >= 1024 (dense path capped)"),
        }
    }
    report
        .gate(
            args.budget_seconds
                .unwrap_or(if args.smoke { 120.0 } else { f64::INFINITY }),
        )
        .finish(BIN)
}
