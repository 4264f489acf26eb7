//! Warm-start benchmark (`BENCH_6.json`): iteration-count
//! reduction and compile-latency percentiles on a near-duplicate trace,
//! cold process vs warmed cache vs restarted-with-store.
//!
//! The trace is the production pattern ISSUE 6 names: the same dashboard
//! panel re-submitted over and over with one cut boundary moved each
//! time. Every variant has the same row count and the same rank — only
//! one breakpoint differs — which is exactly the near-duplicate the
//! engine's similarity index is built to exploit. Four measured stages:
//!
//! 1. **cold** — every shape compiled in a *fresh* engine: the per-shape
//!    ALM iteration baseline, no reuse of any kind.
//! 2. **warmed** — the shapes compiled in sequence through one engine
//!    backed by a strategy store: the first is a cold miss, every later
//!    one seeds from its nearest cached neighbor via the similarity
//!    index.
//! 3. **restarted engine** — a brand-new engine over the same store
//!    directory recompiles the whole working set: every shape must come
//!    back as an exact disk hit (zero ALM iterations, zero full
//!    recompiles), and a *new* near-duplicate must warm-start from a
//!    decomposition those disk hits reloaded.
//! 4. **restarted server** — a fresh `lrm-server` over a fresh engine on
//!    the same store answers the prior working set end to end, one
//!    request per batch: the report must show zero cache misses.
//!
//! The headline numbers — median per-shape iteration reduction (the
//! acceptance gate is ≥ 30%) and P99 compile latency per stage — plus
//! the restart invariants make up [`WarmStartReport::gate`]'s verdict.

use crate::report::{TableWriter, Verdict};
use lrm_core::decomposition::DecompositionConfig;
use lrm_core::engine::{CacheOutcome, CompileOptions, Engine, MechanismKind};
use lrm_dp::Epsilon;
use lrm_server::{QuerySpec, Server};
use lrm_workload::{Attribute, Schema, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct WarmStartConfig {
    /// Histogram buckets `n` (unit-width, values `0..n`).
    pub buckets: usize,
    /// Number of near-duplicate panel shapes in the working set: the
    /// snapped base panel plus `shapes - 1` single-boundary nudges.
    pub shapes: usize,
    /// Cuts of the panel; shape `i > 0` moves the `i`-th cut boundary
    /// one bucket to the right.
    pub cuts: usize,
    /// Master seed for the server stage's noise streams.
    pub seed: u64,
    /// Strategy-store directory. `None` uses a per-process temp dir,
    /// cleaned before and after the run.
    pub store_dir: Option<PathBuf>,
    /// Suppress the summary table.
    pub quiet: bool,
}

impl Default for WarmStartConfig {
    fn default() -> Self {
        Self {
            buckets: 256,
            shapes: 10,
            cuts: 32,
            seed: 20120827,
            store_dir: None,
            quiet: false,
        }
    }
}

impl WarmStartConfig {
    /// The pinned CI smoke configuration: fewer shapes, same domain.
    pub fn smoke() -> Self {
        Self {
            shapes: 6,
            ..Self::default()
        }
    }
}

/// The compile configuration every stage shares: the default
/// convergence-driven solver (γ = 0.01) without the fixed polish tail,
/// so the recorded iteration counts are exactly the work convergence
/// demanded.
fn compile_options() -> CompileOptions {
    CompileOptions::with_decomposition(DecompositionConfig {
        polish_iters: 0,
        ..DecompositionConfig::default()
    })
}

/// The panel's interval rows: `cuts` equal ranges, four quarter rollups,
/// and the total — the shape family of the engine's warm-start tests.
/// `nudge = 0` is the snapped base panel; `nudge = k > 0` moves the
/// boundary between ranges `k-1` and `k` one bucket to the right, the
/// near-duplicate a re-published dashboard produces.
fn panel_rows(n: usize, cuts: usize, nudge: usize) -> Vec<(usize, usize)> {
    assert!(nudge < cuts, "a nudge names an interior cut boundary");
    assert!(n / cuts >= 2, "nudged ranges need at least two buckets");
    let mut rows: Vec<(usize, usize)> = (0..cuts)
        .map(|c| (c * n / cuts, (c + 1) * n / cuts - 1))
        .collect();
    if nudge > 0 {
        rows[nudge - 1].1 += 1;
        rows[nudge].0 += 1;
    }
    for q in 0..4 {
        rows.push((q * n / 4, (q + 1) * n / 4 - 1));
    }
    rows.push((0, n - 1));
    rows
}

fn panel_workload(n: usize, cuts: usize, nudge: usize) -> Workload {
    Workload::from_intervals(n, panel_rows(n, cuts, nudge)).expect("panel rows are valid")
}

/// The same panel as a serving spec (value ranges over unit buckets), so
/// the server stage produces bit-identical workload fingerprints.
fn panel_spec(n: usize, cuts: usize, nudge: usize) -> QuerySpec {
    QuerySpec::Ranges {
        attr: 0,
        ranges: panel_rows(n, cuts, nudge)
            .into_iter()
            .map(|(lo, hi)| (lo as f64, (hi + 1) as f64))
            .collect(),
    }
}

/// One stage's aggregate over the working set.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage label.
    pub stage: &'static str,
    /// Compiles performed.
    pub compiles: usize,
    /// Total ALM outer iterations across the stage (0 when every compile
    /// was a cache or store hit).
    pub total_iterations: usize,
    /// Median compile latency, milliseconds.
    pub p50_compile_ms: f64,
    /// 99th-percentile compile latency, milliseconds.
    pub p99_compile_ms: f64,
}

fn stage_stats(stage: &'static str, iterations: &[usize], latencies_ms: &[f64]) -> StageStats {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    StageStats {
        stage,
        compiles: latencies_ms.len(),
        total_iterations: iterations.iter().sum(),
        p50_compile_ms: pct(0.50),
        p99_compile_ms: pct(0.99),
    }
}

/// Per-shape cold-vs-warm comparison.
#[derive(Debug, Clone)]
pub struct ShapeOutcome {
    /// Which cut boundary this variant nudges (0 = the snapped base).
    pub nudge: usize,
    /// ALM iterations of the cold (fresh-engine) compile.
    pub cold_iterations: usize,
    /// ALM iterations of the warm-path compile (the first shape is the
    /// cold seed donor).
    pub warm_iterations: usize,
    /// Whether the warm path actually seeded from a cached neighbor.
    pub warm_started: bool,
    /// `(cold - warm) / cold`, the iteration reduction.
    pub reduction: f64,
}

/// The whole benchmark outcome.
#[derive(Debug, Clone)]
pub struct WarmStartReport {
    /// Configuration echo.
    pub config: WarmStartConfig,
    /// Aggregates for the cold / warmed / restarted-engine stages.
    pub stages: Vec<StageStats>,
    /// Per-shape comparison rows.
    pub shapes: Vec<ShapeOutcome>,
    /// Median iteration reduction over the warm-started shapes.
    pub median_reduction: f64,
    /// Restarted engine: exact disk hits when recompiling the working set.
    pub restart_disk_hits: u64,
    /// Restarted engine: cache misses (must be 0).
    pub restart_misses: u64,
    /// Whether a *new* near-duplicate warm-started from a store-loaded
    /// seed after the restart.
    pub restart_warm_start: bool,
    /// Restarted server: requests answered over the prior working set.
    pub server_answered: u64,
    /// Restarted server: engine cache misses during the replay (must
    /// be 0 — "zero full recompiles").
    pub server_misses: u64,
}

impl WarmStartReport {
    /// The acceptance gate: ≥ 30% median iteration reduction; every
    /// near-duplicate after the first warm-starts and takes strictly
    /// fewer iterations than its cold compile; strictly less warm work
    /// in total than those shapes took cold; and both restarts answer
    /// the working set with zero full recompiles, the restarted engine
    /// warm-starting a shape it has never seen.
    pub fn gate(&self) -> Verdict {
        let mut v = Verdict::default();
        v.check("median_reduction_30pct", self.median_reduction >= 0.30);
        for s in self.shapes.iter().skip(1) {
            v.check(format!("boundary{}_warm_started", s.nudge), s.warm_started);
            if s.warm_started {
                v.check(
                    format!("boundary{}_fewer_iterations", s.nudge),
                    s.warm_iterations < s.cold_iterations,
                );
            }
        }
        // Below the warm-started shapes' cold total, hence also below the
        // whole working set's.
        let warm_shapes = || self.shapes.iter().filter(|s| s.warm_started);
        let warm: usize = warm_shapes().map(|s| s.warm_iterations).sum();
        let cold: usize = warm_shapes().map(|s| s.cold_iterations).sum();
        let shapes = self.shapes.len() as u64;
        v.check("warm_total_below_cold", warm < cold)
            .check(
                "restarted_engine_no_recompile",
                self.restart_misses == 0 && self.restart_disk_hits == shapes,
            )
            .check("restarted_engine_warm_starts", self.restart_warm_start)
            .check(
                "restarted_server_no_recompile",
                self.server_misses == 0 && self.server_answered == shapes,
            )
            .metric("median_reduction", self.median_reduction, "fraction");
        for s in &self.stages {
            for (metric, value, unit) in [
                ("iterations", s.total_iterations as f64, "iters"),
                ("p50_compile_ms", s.p50_compile_ms, "ms"),
                ("p99_compile_ms", s.p99_compile_ms, "ms"),
            ] {
                v.metric(format!("{}.{metric}", s.stage), value, unit);
            }
        }
        v.metric("restart.disk_hits", self.restart_disk_hits as f64, "count")
            .metric("restart.misses", self.restart_misses as f64, "count")
            .metric("server.answered", self.server_answered as f64, "count")
            .metric("server.misses", self.server_misses as f64, "count");
        v
    }
}

/// Runs the four-stage benchmark.
pub fn run_warm_start_bench(cfg: &WarmStartConfig) -> WarmStartReport {
    assert!(cfg.shapes >= 2, "the trace needs at least two shapes");
    assert!(
        cfg.shapes < cfg.cuts,
        "each shape past the first nudges a distinct interior boundary"
    );
    let n = cfg.buckets;
    let options = compile_options();
    let store_dir = cfg.store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("lrm_bench6_store_{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    let workloads: Vec<Workload> = (0..cfg.shapes)
        .map(|i| panel_workload(n, cfg.cuts, i))
        .collect();

    // Stage 1 — cold: a fresh engine per shape, no reuse of any kind.
    let mut cold_iters = Vec::with_capacity(cfg.shapes);
    let mut cold_ms = Vec::with_capacity(cfg.shapes);
    for w in &workloads {
        let engine = Engine::builder().build();
        let t0 = Instant::now();
        let compiled = engine
            .compile(w, MechanismKind::Lrm, &options)
            .expect("panel workloads compile");
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cold_iters.push(
            compiled
                .meta()
                .alm_iterations
                .expect("LRM records iterations"),
        );
    }

    // Stage 2 — warmed: one store-backed engine, shapes in sequence.
    let mut warm_iters = Vec::with_capacity(cfg.shapes);
    let mut warm_started = Vec::with_capacity(cfg.shapes);
    let mut warm_ms = Vec::with_capacity(cfg.shapes);
    {
        let engine = Engine::builder().spill_dir(&store_dir).build();
        for w in &workloads {
            let t0 = Instant::now();
            let compiled = engine
                .compile(w, MechanismKind::Lrm, &options)
                .expect("panel workloads compile");
            warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            warm_iters.push(
                compiled
                    .meta()
                    .alm_iterations
                    .expect("LRM records iterations"),
            );
            warm_started.push(compiled.meta().cache == CacheOutcome::WarmStart);
        }
    }

    // Stage 3 — restarted engine: a fresh process stand-in over the same
    // store answers the working set from disk and warm-starts a shape it
    // has never seen.
    let mut restart_ms = Vec::with_capacity(cfg.shapes);
    let (restart_stats, restart_warm_start) = {
        let engine = Engine::builder().spill_dir(&store_dir).build();
        for w in &workloads {
            let t0 = Instant::now();
            engine
                .compile(w, MechanismKind::Lrm, &options)
                .expect("panel workloads compile");
            restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let stats = engine.cache_stats();
        let unseen = panel_workload(n, cfg.cuts, cfg.shapes);
        let compiled = engine
            .compile(&unseen, MechanismKind::Lrm, &options)
            .expect("panel workloads compile");
        (stats, compiled.meta().cache == CacheOutcome::WarmStart)
    };

    // Stage 4 — restarted server: the serving runtime over yet another
    // fresh engine on the same store replays the working set end to end.
    // With one request per batch, every batch is a working-set shape and
    // so a disk hit.
    let schema =
        Schema::single(Attribute::new("value", 0.0, n as f64, n).expect("valid attribute"));
    let data: Vec<f64> = (0..n).map(|i| ((i * 13) % 97) as f64).collect();
    let server = Server::builder(schema, data)
        .engine(Engine::builder().spill_dir(&store_dir).build())
        .mechanism(MechanismKind::Lrm)
        .compile_options(options)
        .max_batch(1)
        .workers(2)
        .seed(cfg.seed)
        .build()
        .expect("valid server configuration");
    let budget = Epsilon::new(cfg.shapes as f64).expect("positive budget");
    server.register_tenant("dashboard", budget);
    let eps = Epsilon::new(0.5).expect("positive eps");
    let (answered, server_report) = server.serve(|client| {
        let tickets: Vec<_> = (0..cfg.shapes)
            .map(|i| {
                client
                    .submit("dashboard", &panel_spec(n, cfg.cuts, i), eps)
                    .expect("working-set specs are valid")
            })
            .collect();
        tickets.into_iter().filter_map(|t| t.wait().ok()).count() as u64
    });

    if cfg.store_dir.is_none() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    let shapes: Vec<ShapeOutcome> = (0..cfg.shapes)
        .map(|i| ShapeOutcome {
            nudge: i,
            cold_iterations: cold_iters[i],
            warm_iterations: warm_iters[i],
            warm_started: warm_started[i],
            reduction: (cold_iters[i].saturating_sub(warm_iters[i])) as f64
                / (cold_iters[i].max(1)) as f64,
        })
        .collect();
    let mut reductions: Vec<f64> = shapes
        .iter()
        .filter(|s| s.warm_started)
        .map(|s| s.reduction)
        .collect();
    reductions.sort_by(|a, b| a.partial_cmp(b).expect("finite reductions"));
    let median_reduction = if reductions.is_empty() {
        0.0
    } else {
        reductions[reductions.len() / 2]
    };

    let report = WarmStartReport {
        config: cfg.clone(),
        stages: vec![
            stage_stats("cold", &cold_iters, &cold_ms),
            stage_stats("warmed", &warm_iters, &warm_ms),
            stage_stats("restarted_engine", &[], &restart_ms),
        ],
        shapes,
        median_reduction,
        restart_disk_hits: restart_stats.disk_hits,
        restart_misses: restart_stats.misses,
        restart_warm_start,
        server_answered: answered,
        server_misses: server_report.cache.misses,
    };

    if !cfg.quiet {
        let mut table = TableWriter::new(format!(
            "Warm-start benchmark — {} near-duplicate {}-cut panels over n = {}",
            cfg.shapes, cfg.cuts, cfg.buckets
        ));
        table.header(&["stage", "compiles", "iters", "p50 ms", "p99 ms"]);
        for s in &report.stages {
            table.row(vec![
                s.stage.to_string(),
                s.compiles.to_string(),
                s.total_iterations.to_string(),
                format!("{:.1}", s.p50_compile_ms),
                format!("{:.1}", s.p99_compile_ms),
            ]);
        }
        println!("{}", table.render());
        println!(
            "median iteration reduction {:.1}% | restart: {} disk hits, {} misses | server replay: {} answered, {} misses",
            report.median_reduction * 100.0,
            report.restart_disk_hits,
            report.restart_misses,
            report.server_answered,
            report.server_misses,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_rows_and_specs_agree() {
        let n = 64;
        let rows = panel_rows(n, 16, 0);
        assert_eq!(rows.len(), 16 + 4 + 1);
        assert_eq!(*rows.last().unwrap(), (0, 63));
        // A nudge moves exactly one boundary, keeping the rows contiguous.
        let nudged = panel_rows(n, 16, 3);
        assert_eq!(nudged[2], (rows[2].0, rows[2].1 + 1));
        assert_eq!(nudged[3], (rows[3].0 + 1, rows[3].1));
        assert_ne!(
            panel_workload(n, 16, 3).fingerprint(),
            panel_workload(n, 16, 0).fingerprint()
        );
        // The spec translates back to exactly the same rows.
        let schema = Schema::single(Attribute::new("v", 0.0, n as f64, n).unwrap());
        let prepared = panel_spec(n, 16, 3).compile(&schema).unwrap();
        let w = prepared.to_workload().unwrap();
        assert_eq!(w.fingerprint(), panel_workload(n, 16, 3).fingerprint());
    }

    #[test]
    fn tiny_bench_passes_its_own_gate() {
        // A scaled-down run of the real four-stage benchmark: the gate
        // the CI smoke enforces must hold at this size too.
        let cfg = WarmStartConfig {
            buckets: 64,
            shapes: 3,
            cuts: 16,
            quiet: true,
            store_dir: Some(
                std::env::temp_dir().join(format!("lrm_bench6_test_{}", std::process::id())),
            ),
            ..WarmStartConfig::default()
        };
        let _ = std::fs::remove_dir_all(cfg.store_dir.as_ref().unwrap());
        let report = run_warm_start_bench(&cfg);
        let _ = std::fs::remove_dir_all(cfg.store_dir.as_ref().unwrap());

        assert!(report.shapes.iter().skip(1).all(|s| s.warm_started));
        assert_eq!(report.restart_misses, 0);
        assert_eq!(report.restart_disk_hits, 3);
        assert!(report.restart_warm_start);
        assert_eq!(report.server_misses, 0);
        assert_eq!(report.server_answered, 3);
        assert!(report.median_reduction > 0.0);
    }

    /// A report that violates exactly one condition fails exactly that
    /// named check.
    #[test]
    fn gate_fails_exactly_the_violated_check() {
        let shape = |nudge: usize, cold: usize, warm: usize| ShapeOutcome {
            nudge,
            cold_iterations: cold,
            warm_iterations: warm,
            warm_started: nudge > 0,
            reduction: (cold - warm) as f64 / cold as f64,
        };
        let passing = WarmStartReport {
            config: WarmStartConfig::smoke(),
            stages: vec![stage_stats("cold", &[40, 40, 40], &[1.0, 2.0, 3.0])],
            shapes: vec![shape(0, 40, 40), shape(1, 40, 10), shape(2, 40, 12)],
            median_reduction: 0.7,
            restart_disk_hits: 3,
            restart_misses: 0,
            restart_warm_start: true,
            server_answered: 3,
            server_misses: 0,
        };
        assert!(passing.gate().passed());

        type Break = fn(&mut WarmStartReport);
        let cases: [(&str, Break); 9] = [
            ("median_reduction_30pct", |r| r.median_reduction = 0.29),
            ("boundary2_warm_started", |r| {
                r.shapes[2].warm_started = false
            }),
            ("boundary1_fewer_iterations", |r| {
                r.shapes[1].warm_iterations = 40
            }),
            // The per-shape checks skip the first shape (the warm
            // stage's cold seed), so only the total sees it.
            ("warm_total_below_cold", |r| {
                r.shapes[0].warm_started = true;
                r.shapes[0].warm_iterations = 200;
            }),
            ("restarted_engine_no_recompile", |r| r.restart_misses = 1),
            ("restarted_engine_no_recompile", |r| r.restart_disk_hits = 2),
            ("restarted_engine_warm_starts", |r| {
                r.restart_warm_start = false
            }),
            ("restarted_server_no_recompile", |r| r.server_misses = 1),
            ("restarted_server_no_recompile", |r| r.server_answered = 2),
        ];
        for (check, breaks) in cases {
            let mut report = passing.clone();
            breaks(&mut report);
            assert_eq!(report.gate().failed, vec![check.to_string()]);
        }
    }
}
