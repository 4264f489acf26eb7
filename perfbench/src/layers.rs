//! Per-layer attribution. Two sources, neither of which adds a span to
//! the program: the spans and events the server already emits (read
//! through an in-memory `lrm_obs` subscriber), and timings of public
//! calls made from outside the server.
//!
//! Span durations are the server's own; they and the isolated timings
//! are on the wall clock.

use crate::drive::{Run, WORKERS};
use crate::mix::Inputs;
use lrm_core::decomposition::{DecompositionConfig, WorkloadDecomposition};
use lrm_dp::{DurableLedger, SensitivityNorm};
use lrm_linalg::decomp::Svd;
use lrm_obs::{Record, Value};
use lrm_server::PreparedRows;
use lrm_workload::Workload;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Cache outcomes, in the order of the `cache` labels on `batch.compile`.
const OUTCOMES: [&str; 4] = ["miss", "warm_start", "memory_hit", "disk_hit"];

/// Batch close reasons, in the order of the `reason` labels on
/// `batch.close`, with the metric suffix each is reported under.
const CLOSES: [(&str, &str); 4] = [
    ("rank_growth", "rank_growth"),
    ("window", "window"),
    ("max_batch", "max_batch"),
    ("shutdown_drain", "drain"),
];

/// Compile spans of one cache outcome.
#[derive(Debug, Clone, Copy, Default)]
struct CompileTotals {
    /// Spans seen.
    count: u64,
    /// Σ span duration, ns.
    ns: u64,
    /// Σ ALM outer iterations, over the spans that report them.
    iterations: u64,
    /// Spans that reported `alm_iterations`.
    with_iterations: u64,
}

/// Everything the traced segments add up to.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// `request.complete` events.
    completes: u64,
    /// Σ coalesce / queue / compile / noise / settle phase, ns.
    phase_ns: [u64; 5],
    /// Compile spans by cache outcome (see [`OUTCOMES`]).
    compiles: [CompileTotals; 4],
    /// Σ `batch.serve` duration, ns.
    serve_ns: u64,
    /// `batch.noise` spans and their Σ duration, ns.
    noise_spans: u64,
    /// See `noise_spans`.
    noise_ns: u64,
    /// Server-reported batches, close counters, peaks.
    batches: u64,
    /// Σ requests over batches (for the occupancy mean).
    batch_requests: f64,
    /// Close counters (see [`CLOSES`]), from the server report.
    closes: [u64; 4],
    /// Highest server-side in-flight depth.
    peak_in_flight: u64,
    /// Batches claimed from another shard's queue.
    stolen_batches: u64,
    /// Σ wall seconds of the traced serves.
    wall_s: f64,
    /// Σ driver time inside the submit call, ns, and the submit count.
    submit_ns: u64,
    /// See `submit_ns`.
    submits: u64,
    /// Distinct member shapes submitted, summed over segments.
    shapes: u64,
}

impl LayerTotals {
    /// Folds one traced serve (its records and its report) in, returning
    /// every way the trace disagrees with the server's own counters.
    pub fn absorb(&mut self, records: &[Record], run: &Run) -> Vec<String> {
        let mut problems = Vec::new();
        let mut closes_seen = [0u64; 4];
        let mut compiles_seen = [0u64; 4];
        let mut completes = 0u64;
        for record in records {
            match (record, record.name()) {
                (Record::Event(_), "request.complete") => {
                    let phases = [
                        "coalesce_ns",
                        "queue_ns",
                        "compile_ns",
                        "noise_ns",
                        "settle_ns",
                    ]
                    .map(|k| u64_field(record, k));
                    let total = u64_field(record, "total_ns");
                    if phases.iter().sum::<u64>() != total {
                        problems.push(format!(
                            "request.complete phases {phases:?} do not sum to total_ns {total}"
                        ));
                    }
                    completes += 1;
                    for (sum, p) in self.phase_ns.iter_mut().zip(phases) {
                        *sum += p;
                    }
                }
                (Record::Span(span), "batch.compile") => {
                    let label = str_field(record, "cache");
                    let Some(k) = OUTCOMES.iter().position(|o| *o == label) else {
                        problems.push(format!(
                            "batch.compile without a known cache label: {label:?}"
                        ));
                        continue;
                    };
                    compiles_seen[k] += 1;
                    let c = &mut self.compiles[k];
                    c.count += 1;
                    c.ns += span.dur_ns;
                    if let Some(Value::U64(iters)) = record.field("alm_iterations") {
                        c.iterations += iters;
                        c.with_iterations += 1;
                    }
                }
                (Record::Span(span), "batch.serve") => self.serve_ns += span.dur_ns,
                (Record::Span(span), "batch.noise") => {
                    self.noise_spans += 1;
                    self.noise_ns += span.dur_ns;
                }
                (Record::Event(_), "batch.close") => {
                    let reason = str_field(record, "reason");
                    match CLOSES.iter().position(|(r, _)| *r == reason) {
                        Some(k) => closes_seen[k] += 1,
                        None => {
                            problems.push(format!("batch.close with unknown reason {reason:?}"))
                        }
                    }
                }
                _ => {}
            }
        }
        let m = &run.report.metrics;
        let closes = [
            m.rank_closed_batches,
            m.window_closed_batches,
            m.ceiling_closed_batches,
            m.drain_closed_batches,
        ];
        if closes_seen != closes {
            problems.push(format!(
                "batch.close reasons {closes_seen:?} differ from the report's close counters {closes:?}"
            ));
        }
        // A fresh engine per segment, so its counters are this serve's deltas.
        let c = &run.report.cache;
        let stats = [c.misses, c.warm_hits, c.memory_hits, c.disk_hits];
        if compiles_seen != stats {
            problems.push(format!(
                "batch.compile outcomes {compiles_seen:?} differ from the cache counters {stats:?}"
            ));
        }
        if completes != run.tally.granted {
            problems.push(format!(
                "{completes} request.complete events for {} granted releases",
                run.tally.granted
            ));
        }
        self.completes += completes;
        for (sum, k) in self.closes.iter_mut().zip(closes) {
            *sum += k;
        }
        self.batches += m.batches;
        self.batch_requests += m.mean_occupancy * m.batches as f64;
        self.peak_in_flight = self.peak_in_flight.max(m.peak_queue_depth);
        self.stolen_batches += m.stolen_batches;
        self.wall_s += run.wall_s;
        self.submit_ns += run.tally.submit_ns;
        self.submits += run.tally.attempted;
        self.shapes += run.tally.shape_keys.iter().collect::<HashSet<_>>().len() as u64;
        problems
    }

    /// The per-layer metrics the totals give, as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let per_request = |ns: u64| ratio(ns as f64 / 1e6, self.completes as f64);
        for (name, ns) in ["coalesce", "queue", "compile", "noise", "settle"]
            .iter()
            .zip(self.phase_ns)
        {
            out.push((format!("server.{name}_ms"), per_request(ns), "ms"));
        }
        out.push((
            "server.submit_us".into(),
            ratio(self.submit_ns as f64 / 1e3, self.submits as f64),
            "us",
        ));
        out.push(("server.batches".into(), self.batches as f64, "count"));
        out.push((
            "server.occupancy".into(),
            ratio(self.batch_requests, self.batches as f64),
            "req/batch",
        ));
        for ((_, suffix), k) in CLOSES.iter().zip(self.closes) {
            out.push((format!("server.close.{suffix}"), k as f64, "count"));
        }
        out.push((
            "server.peak_in_flight".into(),
            self.peak_in_flight as f64,
            "count",
        ));
        out.push((
            "server.stolen_batches".into(),
            self.stolen_batches as f64,
            "count",
        ));
        out.push((
            "server.worker_busy_share".into(),
            ratio(self.serve_ns as f64 / 1e9, WORKERS as f64 * self.wall_s),
            "fraction",
        ));
        let total: u64 = self.compiles.iter().map(|c| c.count).sum();
        for (name, c) in OUTCOMES.iter().zip(&self.compiles) {
            out.push((format!("core.compiles.{name}"), c.count as f64, "count"));
        }
        let [miss, warm, memory, disk] = self.compiles;
        out.push((
            "core.hit_ratio".into(),
            ratio((memory.count + disk.count) as f64, total as f64),
            "fraction",
        ));
        out.push((
            "core.alm_compiles_per_shape".into(),
            ratio((miss.count + warm.count) as f64, self.shapes as f64),
            "ratio",
        ));
        for (name, c) in OUTCOMES.iter().zip(&self.compiles).take(3) {
            out.push((
                format!("core.compile_ms.{name}"),
                ratio(c.ns as f64 / 1e6, c.count as f64),
                "ms",
            ));
        }
        for (name, c) in [("miss", miss), ("warm_start", warm)] {
            out.push((
                format!("opt.alm_iters.{name}"),
                ratio(c.iterations as f64, c.with_iterations as f64),
                "iters",
            ));
        }
        out.push((
            "opt.ms_per_iter".into(),
            ratio(
                (miss.ns + warm.ns) as f64 / 1e6,
                (miss.iterations + warm.iterations) as f64,
            ),
            "ms",
        ));
        out.push((
            "dp.noise_ms".into(),
            ratio(self.noise_ns as f64 / 1e6, self.noise_spans as f64),
            "ms",
        ));
        out
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn u64_field(record: &Record, key: &str) -> u64 {
    match record.field(key) {
        Some(Value::U64(v)) => *v,
        _ => 0,
    }
}

fn str_field(record: &Record, key: &str) -> String {
    match record.field(key) {
        Some(Value::Str(s)) => s.to_string(),
        _ => String::new(),
    }
}

/// Workloads combined from this many sampled requests, as a batch of the
/// default `max_batch` would be.
const SAMPLE_BATCH: usize = 8;

/// Stream the isolated timings draw their fixed sample from.
const SAMPLE_STREAM: u64 = 0x5a3b1e;

/// Times public calls of the layers below the server on a fixed sample
/// of this mix's inputs, isolated from the scheduler. `journal_dir` is
/// a scratch directory on the state-dir filesystem.
pub fn isolated_timings(
    inputs: &Inputs,
    journal_dir: &Path,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut out = Vec::new();
    let shape = &inputs.shape;
    // Combined workloads: decomposition, SVD, and the ALM's GEMM shape.
    let batches = if shape.spec_queries > 1 { 3 } else { 8 };
    let specs = inputs.sample_specs(batches * SAMPLE_BATCH, SAMPLE_STREAM);
    let mut workloads = Vec::new();
    for batch in specs.chunks(SAMPLE_BATCH) {
        let mut intervals = Vec::new();
        for spec in batch {
            let prepared = spec.compile(&inputs.schema).map_err(|e| e.to_string())?;
            match prepared.rows() {
                PreparedRows::Intervals(rows) => intervals.extend_from_slice(rows),
                PreparedRows::Sparse(_) => return Err("sampled spec is not interval-shaped".into()),
            }
        }
        workloads
            .push(Workload::from_intervals(shape.buckets, intervals).map_err(|e| e.to_string())?);
    }
    let config = DecompositionConfig::default();
    let norm = if shape.is_gaussian() {
        SensitivityNorm::L2
    } else {
        SensitivityNorm::L1
    };
    let (mut decompose_s, mut svd_s, mut flops, mut gemm_s) = (0.0, 0.0, 0.0, 0.0);
    for w in &workloads {
        let t = Instant::now();
        let d =
            WorkloadDecomposition::compute_flavored(w, &config, norm).map_err(|e| e.to_string())?;
        decompose_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        Svd::compute_op(&**w.op()).map_err(|e| e.to_string())?;
        svd_s += t.elapsed().as_secs_f64();
        // B (m × r) · L (r × n), repeated until the clock has something
        // to measure.
        let (b, l) = (d.b(), d.l());
        let t = Instant::now();
        let mut reps = 0u64;
        while reps < 16 || t.elapsed().as_secs_f64() < 0.05 {
            std::hint::black_box(lrm_linalg::ops::matmul(b, l).map_err(|e| e.to_string())?);
            reps += 1;
        }
        gemm_s += t.elapsed().as_secs_f64();
        flops += 2.0 * (b.rows() * b.cols() * l.cols()) as f64 * reps as f64;
    }
    let k = workloads.len() as f64;
    out.push(("core.decompose_ms".into(), decompose_s / k * 1e3, "ms"));
    out.push(("linalg.svd_ms".into(), svd_s / k * 1e3, "ms"));
    out.push(("linalg.gemm_gflops".into(), flops / gemm_s / 1e9, "GFLOP/s"));

    // Ledger journal: one intent + settle pair per release member.
    std::fs::create_dir_all(journal_dir).map_err(|e| e.to_string())?;
    let (ledger, _) =
        DurableLedger::open_budget(&journal_dir.join("probe.lrmj"), shape.tenant_budget())
            .map_err(|e| e.to_string())?;
    let release = shape.release_budget(0);
    const PAIRS: u32 = 200;
    let t = Instant::now();
    for _ in 0..PAIRS {
        let id = ledger.begin_budget(release).map_err(|e| e.to_string())?;
        ledger.settle(id);
    }
    out.push((
        "dp.journal_op_us".into(),
        t.elapsed().as_secs_f64() / PAIRS as f64 * 1e6,
        "us",
    ));

    // Spec translation and workload fingerprinting, on fresh workloads
    // (a fingerprint is cached once computed).
    let specs = inputs.sample_specs(2_000, SAMPLE_STREAM + 1);
    let t = Instant::now();
    let prepared: Vec<_> = specs
        .iter()
        .map(|s| s.compile(&inputs.schema))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let compile_s = t.elapsed().as_secs_f64();
    let fresh: Vec<Workload> = prepared
        .iter()
        .map(|p| p.to_workload())
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    for w in &fresh {
        std::hint::black_box(w.fingerprint());
    }
    let fingerprint_s = t.elapsed().as_secs_f64();
    let n = specs.len() as f64;
    out.push(("workload.spec_compile_us".into(), compile_s / n * 1e6, "us"));
    out.push((
        "workload.fingerprint_us".into(),
        fingerprint_s / n * 1e6,
        "us",
    ));
    Ok(out)
}
