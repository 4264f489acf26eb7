//! Serving benchmark for `lrm-server`.
//!
//! One run drives an unmodified [`lrm_server::Server`] through its public
//! API with one of three named traffic mixes (see [`mix`]), checks that
//! every answer is correct, and prints one JSON result as its last line.
//! An untraced run (`--trace 0`) reports the client's view; a traced run
//! (`--trace 1`) reports where the time went, layer by layer (see
//! [`layers`]). End-to-end timings run on the wall clock, with the time
//! the hypervisor stole taken out (see [`host`]).
//!
//! ```text
//! lrm-perfbench --workload grid-panels --seed 1 --seconds 30 --trace 0 --state DIR
//! ```
//!
//! `--state DIR` is a scratch directory for the servers' durable state;
//! it is removed when the run ends.

mod drive;
mod host;
mod layers;
mod mix;

use drive::{deploy, drive, Run, DRIVER_THREADS, RSS_TURNS, WORKERS};
use layers::LayerTotals;
use lrm_obs::json::{push_f64, push_str};
use mix::{Inputs, Mix};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: lrm-perfbench --workload <grid-panels|panel-refresh|c10k-gaussian> \
                     --seed <u64> --seconds <s> --trace <0|1> --state <dir>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 61;

/// Pause before each timed set-up (see [`time_setups`]).
const SETUP_SPACING: Duration = Duration::from_millis(50);

/// Band the pooled realized-MSE ÷ expected-error ratio must fall in.
const MSE_RATIO_BAND: (f64, f64) = (0.5, 2.0);

/// Order of the untraced (false) and traced (true) segments of a traced
/// run: ABBA, so drift over the run cancels out of the overhead ratio.
const TRACE_SEGMENTS: [bool; 4] = [false, true, true, false];

#[derive(Debug)]
struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
    state: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut mix, mut seed, mut seconds, mut trace, mut state) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                mix = Some(Mix::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--state" => state = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mix: mix.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state: state.ok_or("--state is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lrm-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let _ = std::fs::remove_dir_all(&args.state);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lrm-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("lrm-perfbench: check failed: {problem}");
    }
    println!("{}", outcome.record);
    println!("{}", outcome.result_line());
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}

/// A metric as `(name, value, unit)`.
type Metric = (String, f64, &'static str);

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Failed correctness checks; a run with any reports no numbers.
    problems: Vec<String>,
    /// The descriptive record printed before the result line.
    record: String,
}

impl Outcome {
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// and the metrics by name and unit (none when a check failed).
    fn result_line(&self) -> String {
        let correct = self.problems.is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        if correct {
            for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_str(&mut out, name);
                out.push_str(": {\"value\": ");
                push_f64(&mut out, *value);
                out.push_str(", \"unit\": ");
                push_str(&mut out, unit);
                out.push('}');
            }
        }
        out.push_str("}}");
        out
    }
}

/// A flat JSON object builder for the descriptive record.
#[derive(Default)]
struct Obj(Vec<String>);

impl Obj {
    fn raw(mut self, key: &str, json: String) -> Self {
        let mut field = String::new();
        push_str(&mut field, key);
        field.push_str(": ");
        field.push_str(&json);
        self.0.push(field);
        self
    }
    fn num(self, key: &str, v: f64) -> Self {
        let mut s = String::new();
        push_f64(&mut s, v);
        self.raw(key, s)
    }
    fn int(self, key: &str, v: impl Into<u64>) -> Self {
        self.raw(key, v.into().to_string())
    }
    fn text(self, key: &str, v: &str) -> Self {
        let mut s = String::new();
        push_str(&mut s, v);
        self.raw(key, s)
    }
    fn list(self, key: &str, items: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<String> = items.into_iter().collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }
    fn done(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

fn json_num(v: f64) -> String {
    let mut s = String::new();
    push_f64(&mut s, v);
    s
}

fn json_str(v: &str) -> String {
    let mut s = String::new();
    push_str(&mut s, v);
    s
}

/// Nearest-rank percentile of ascending `sorted` (`q` in (0, 1]).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The correctness checks every serve must pass.
fn check(run: &Run, inputs: &Inputs) -> Vec<String> {
    let mut problems = Vec::new();
    let t = &run.tally;
    if t.wrong_answer_counts > 0 {
        problems.push(format!(
            "{} releases carried a different answer count than their spec",
            t.wrong_answer_counts
        ));
    }
    // What the clients were granted must be what the ledgers debited:
    // any accounting drift — an over- or under-debit, a lost settlement —
    // shows as a difference. Both sides are sums of the same per-release
    // amounts, in different orders.
    let total = inputs.shape.tenant_budget();
    let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-15;
    for (tenant, seen) in t.grants.iter().enumerate() {
        let name = drive::tenant_name(tenant);
        let Some(ledger) = run.report.tenants.iter().find(|s| s.tenant == name) else {
            problems.push(format!("{name} is missing from the server report"));
            continue;
        };
        if !same(seen.eps, ledger.spent)
            || !same(seen.delta, ledger.delta_spent)
            || seen.releases != ledger.releases as u64
        {
            problems.push(format!(
                "{name}: clients saw {} releases for ε {}, δ {}; the ledger debited {} for ε {}, δ {}",
                seen.releases, seen.eps, seen.delta, ledger.releases, ledger.spent, ledger.delta_spent
            ));
        }
        if seen.eps > total.eps().value() * (1.0 + 1e-9)
            || seen.delta > total.delta() * (1.0 + 1e-9)
        {
            problems.push(format!(
                "{name} was granted ε {}, δ {} over its total",
                seen.eps, seen.delta
            ));
        }
    }
    if run.densifications > 0 {
        problems.push(format!("{} operator densifications", run.densifications));
    }
    if t.duplicate_completions > 0 {
        problems.push(format!(
            "{} tickets resolved twice",
            t.duplicate_completions
        ));
    }
    if t.granted == 0 {
        problems.push("no request was granted".into());
    }
    problems
}

/// The accuracy of a set of serves.
struct Accuracy {
    /// The `expected_err` metric: the median over released queries of the
    /// release's expected error bound, taken per ε level and averaged over
    /// the levels, so that the levels' shares of the releases (which
    /// timing decides) do not move it.
    ///
    /// The median, not the mean: now and then a batch compiles to a
    /// strategy whose bound is hundreds of times the typical one, and one
    /// such batch moved a run's mean 13× (551 against 41 on a grid-panels
    /// seed). Those releases are counted in `outliers` instead.
    expected_err: f64,
    /// The same per-level mean, for comparison.
    mean: f64,
    /// Released queries whose bound exceeds [`OUTLIER_FACTOR`] × their
    /// level's median.
    outliers: usize,
    /// Realized MSE ÷ expected error, checked against [`MSE_RATIO_BAND`].
    /// Normalized per release before pooling: a batch whose strategy is
    /// far noisier than the rest would otherwise carry the pooled ratio
    /// alone, and one heavy-tailed noise draw then reads as a
    /// miscalibration (raw pooling gave 0.22 on one grid-panels seed).
    mse_ratio: f64,
}

/// A released query's bound is an outlier beyond this many × its level's
/// median.
const OUTLIER_FACTOR: f64 = 10.0;

/// Pools the accuracy of the serves, adding a problem when the realized
/// error leaves [`MSE_RATIO_BAND`].
fn accuracy(runs: &[&Run], problems: &mut Vec<String>) -> Accuracy {
    let normalized: f64 = runs.iter().map(|r| r.tally.normalized_sq_err).sum();
    let queries: u64 = runs.iter().map(|r| r.tally.queries).sum();
    let mut levels: Vec<Vec<f64>> = Vec::new();
    for run in runs {
        levels.resize(run.tally.expected_err.len(), Vec::new());
        for (all, bounds) in levels.iter_mut().zip(&run.tally.expected_err) {
            all.extend(bounds);
        }
    }
    levels.retain(|bounds| !bounds.is_empty());
    let k = levels.len() as f64;
    let (mut expected_err, mut mean, mut outliers) = (0.0, 0.0, 0);
    for bounds in &levels {
        let mid = median(bounds);
        expected_err += mid / k;
        mean += bounds.iter().sum::<f64>() / bounds.len() as f64 / k;
        outliers += bounds.iter().filter(|&&b| b > OUTLIER_FACTOR * mid).count();
    }
    let mse_ratio = normalized / queries as f64;
    let (lo, hi) = MSE_RATIO_BAND;
    if !(lo..=hi).contains(&mse_ratio) {
        problems.push(format!(
            "realized MSE is {mse_ratio} × the expected error bound, outside [{lo}, {hi}]"
        ));
    }
    Accuracy {
        expected_err,
        mean,
        outliers,
        mse_ratio,
    }
}

/// The latency percentiles of a serve: p50, the mix's tail percentile,
/// the sample count and how many samples lie beyond it.
fn latency(mut sorted: Vec<f64>, q: f64) -> (f64, f64, usize, usize) {
    sorted.sort_by(f64::total_cmp);
    let tail = percentile(&sorted, q);
    let beyond = sorted.iter().filter(|&&l| l > tail).count();
    (percentile(&sorted, 0.5), tail, sorted.len(), beyond)
}

/// How the host treated a serve: its wall time, the share of it the
/// hypervisor stole, what remained, and how much of the machine's CPU
/// the process used in what remained.
fn serve_record(run: &Run) -> Obj {
    Obj::default()
        .num("wall_s", run.wall_s)
        .num("steal_share", run.steal_share())
        .num("busy_s", run.busy_s())
        .num("cpu_share", run.cpu_share)
}

/// Ends a run that cannot finish: reports `problem` as a failed check
/// and exits 1 without waiting for the server.
pub fn abandon(attempted: u64, failed: u64, problem: &str) -> ! {
    let outcome = Outcome {
        attempted,
        failed,
        metrics: Vec::new(),
        problems: vec![problem.to_string()],
        record: String::new(),
    };
    eprintln!("lrm-perfbench: check failed: {problem}");
    println!("{}", outcome.result_line());
    std::process::exit(1);
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The mix's configuration and measured input properties.
fn describe(args: &Args, inputs: &Inputs, runs: &[&Run]) -> Obj {
    let s = &inputs.shape;
    let config = Obj::default()
        .int("buckets", s.buckets as u64)
        .int("cuts", s.cuts as u64)
        .int("spec_queries", s.spec_queries as u64)
        .int("tenants", s.tenants as u64)
        .int("virtual_clients", s.clients as u64)
        .list("eps_levels", s.eps_levels.iter().map(|&e| json_num(e)))
        .num("delta", s.delta)
        .int("library", s.library.unwrap_or(0) as u64)
        .int("workers", WORKERS as u64)
        .int("driver_threads", DRIVER_THREADS as u64)
        .text("loop", "closed: each virtual client waits for its release")
        .text("compile_options", "CompileOptions::default()");
    // Per serve (the serves of a traced run replay the same inputs), then
    // averaged over the serves.
    let (mut repeat_share, mut distinct_shapes, mut rows_per_spec) = (0.0, 0.0, 0.0);
    for run in runs {
        let keys = &run.tally.shape_keys;
        let distinct = keys.iter().collect::<HashSet<_>>().len();
        repeat_share += (keys.len() - distinct) as f64 / keys.len() as f64;
        distinct_shapes += distinct as f64;
        rows_per_spec += run.tally.rows_submitted as f64 / keys.len() as f64;
    }
    let k = runs.len() as f64;
    let input = Obj::default()
        .num("repeat_share", repeat_share / k)
        .num("distinct_shapes", distinct_shapes / k)
        .num("rows_per_spec", rows_per_spec / k)
        .int("in_flight_depth", s.clients as u64)
        .int(
            "peak_in_flight",
            runs.iter()
                .map(|r| r.report.metrics.peak_queue_depth)
                .max()
                .unwrap_or(0),
        );
    Obj::default()
        .text("workload", args.mix.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .raw("trace", args.trace.to_string())
        .raw("config", config.done())
        .raw("input", input.done())
}

/// Times `count` set-ups, each on a fresh state directory that is
/// removed with its server, into `setups`. A set-up is mostly fsync
/// waits, and the disk's latency drifts over seconds (the medians of 30
/// set-ups in one burst before and after a serve differed up to 4×), so
/// the set-ups are spaced [`SETUP_SPACING`] apart.
fn time_setups(
    args: &Args,
    inputs: &Inputs,
    count: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..count {
        std::thread::sleep(SETUP_SPACING);
        let dir = args.state.join(format!("setup-{}", setups.len()));
        let (server, seconds) = deploy(inputs, args.seed, &dir)?;
        setups.push(seconds);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// `--trace 0`: the end-to-end metrics, from one untraced serve. Half
/// the [`SETUP_REPEATS`] timed set-ups run before the serve and half
/// after it, so that `setup_s` samples the host at both ends of the run.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.mix, args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    time_setups(args, &inputs, SETUP_REPEATS / 2, &mut setups)?;
    let (server, seconds) = deploy(&inputs, args.seed, &args.state.join("serve"))?;
    setups.push(seconds);
    let run = drive(&server, &inputs, args.seconds)?;
    drop(server);
    time_setups(args, &inputs, SETUP_REPEATS - setups.len(), &mut setups)?;
    let mut problems = check(&run, &inputs);
    let acc = accuracy(&[&run], &mut problems);
    let t = &run.tally;
    let q = inputs.shape.tail_quantile;
    let (p50, tail, samples, beyond) = latency(run.latencies_ms(), q);
    let rss = match run.rss_mib {
        Some(mib) => mib,
        None => peak_rss_mib()?,
    };
    let metrics: Vec<Metric> = vec![
        ("throughput_rps".into(), run.throughput_rps(), "1/s"),
        ("p50_ms".into(), p50, "ms"),
        ("tail_ms".into(), tail, "ms"),
        ("expected_err".into(), acc.expected_err, "sq_count"),
        (
            "granted_share".into(),
            t.granted as f64 / t.attempted as f64,
            "fraction",
        ),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), rss, "MiB"),
    ];
    let c = &run.report.cache;
    let record = describe(args, &inputs, &[&run])
        .raw(
            "tail",
            Obj::default()
                .num("quantile", q)
                .int("samples", samples as u64)
                .int("beyond", beyond as u64)
                .done(),
        )
        .raw("serve", serve_record(&run).done())
        .raw(
            "rss",
            Obj::default()
                .int("at_releases", (RSS_TURNS * inputs.shape.clients) as u64)
                .raw("reached", run.rss_mib.is_some().to_string())
                .num("end_mib", peak_rss_mib()?)
                .done(),
        )
        .raw(
            "accuracy",
            Obj::default()
                .num("mse_ratio", acc.mse_ratio)
                .list(
                    "band",
                    [json_num(MSE_RATIO_BAND.0), json_num(MSE_RATIO_BAND.1)],
                )
                .num("expected_err_mean", acc.mean)
                .int("expected_err_outliers", acc.outliers as u64)
                .done(),
        )
        .list("setup_s_samples", setups.iter().map(|&s| json_num(s)))
        .raw(
            "cache",
            Obj::default()
                .int("miss", c.misses)
                .int("warm_start", c.warm_hits)
                .int("memory_hit", c.memory_hits)
                .int("disk_hit", c.disk_hits)
                .done(),
        )
        .list("problems", problems.iter().map(|p| json_str(p)));
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed(),
        metrics,
        problems,
        record: Obj::default().raw("record", record.done()).done(),
    })
}

/// `--trace 1`: the per-layer metrics, from four serves of a quarter of
/// the run time each, untraced–traced–traced–untraced, each on a fresh
/// server.
/// The traced ones are attributed from their trace; the untraced ones
/// give the tracing overhead. The isolated layer timings follow.
fn traced(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.mix, args.seed);
    let segment = args.seconds / 4.0;
    let mut totals = LayerTotals::default();
    let mut problems = Vec::new();
    let mut runs = Vec::new();
    let mut throughput = [Vec::new(), Vec::new()];
    for (i, traced) in TRACE_SEGMENTS.into_iter().enumerate() {
        let dir = args.state.join(format!("segment-{i}"));
        let (server, _) = deploy(&inputs, args.seed, &dir)?;
        let memory = Arc::new(lrm_obs::Memory::default());
        if traced {
            lrm_obs::install(memory.clone());
        }
        let run = drive(&server, &inputs, segment)?;
        if traced {
            lrm_obs::uninstall();
            problems.extend(totals.absorb(&memory.take(), &run));
        }
        throughput[traced as usize].push(run.throughput_rps());
        problems.extend(check(&run, &inputs));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        runs.push(run);
    }
    let run_refs: Vec<&Run> = runs.iter().collect();
    let mse_ratio = accuracy(&run_refs, &mut problems).mse_ratio;
    // Overhead = untraced ÷ traced throughput, per ABBA half.
    let [untraced, traced] = &throughput;
    let halves = [untraced[0] / traced[0], untraced[1] / traced[1]];
    let overhead = untraced.iter().sum::<f64>() / traced.iter().sum::<f64>();
    let mut metrics = totals.metrics();
    metrics.extend(layers::isolated_timings(
        &inputs,
        &args.state.join("journal"),
    )?);
    metrics.push(("obs.trace_overhead".into(), overhead, "ratio"));
    let record = describe(args, &inputs, &run_refs)
        .raw(
            "trace_overhead",
            Obj::default()
                .num("ratio", overhead)
                .list("halves", halves.iter().map(|&h| json_num(h)))
                .num("spread", (halves[0] - halves[1]).abs())
                .list("untraced_rps", untraced.iter().map(|&r| json_num(r)))
                .list("traced_rps", traced.iter().map(|&r| json_num(r)))
                .done(),
        )
        .list("serves", runs.iter().map(|r| serve_record(r).done()))
        .num("mse_ratio", mse_ratio)
        .list("problems", problems.iter().map(|p| json_str(p)));
    Ok(Outcome {
        attempted: runs.iter().map(|r| r.tally.attempted).sum(),
        failed: runs.iter().map(|r| r.tally.failed()).sum(),
        metrics,
        problems,
        record: Obj::default().raw("record", record.done()).done(),
    })
}
