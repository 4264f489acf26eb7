//! Text expositions of a [`ServerReport`]: Prometheus text format and a
//! single JSON document.
//!
//! Both render the full [`MetricsSnapshot`] — every counter, the
//! per-shard gauges, and the **raw latency histogram buckets** (so a
//! scraper can re-derive any percentile, not just the three the
//! snapshot pre-computes) — plus the engine cache counters and the
//! per-tenant budget telemetry ([`TenantTelemetry`]): ε/δ spent and
//! remaining, the trailing-window burn rate, and the estimated
//! time-to-exhaustion.
//!
//! Everything exposed here is data-independent (counts, timings,
//! budget positions); the same rule the trace payloads obey.

use crate::metrics::MetricsSnapshot;
use crate::server::ServerReport;
use crate::tenants::TenantTelemetry;
use lrm_obs::json::{push_f64, push_str};
use std::fmt::Write as _;

/// Renders the report in the Prometheus text exposition format
/// (`text/plain; version=0.0.4`): `# HELP`/`# TYPE` headers, counters
/// and gauges under the `lrm_` prefix, the latency histogram as
/// cumulative `le`-labeled buckets, and one labeled gauge family per
/// tenant-telemetry column.
pub fn prometheus(report: &ServerReport) -> String {
    let mut out = String::with_capacity(4096);
    let m = &report.metrics;
    for (name, help, value) in counter_rows(m) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(
        out,
        "# HELP lrm_batch_mean_occupancy Mean requests per batch."
    );
    let _ = writeln!(out, "# TYPE lrm_batch_mean_occupancy gauge");
    let _ = writeln!(
        out,
        "lrm_batch_mean_occupancy {}",
        fmt_f64(m.mean_occupancy)
    );
    let _ = writeln!(
        out,
        "# HELP lrm_shard_queue_depth Submitted-but-unanswered requests per scheduler shard."
    );
    let _ = writeln!(out, "# TYPE lrm_shard_queue_depth gauge");
    for (shard, depth) in m.shard_depths.iter().enumerate() {
        let _ = writeln!(out, "lrm_shard_queue_depth{{shard=\"{shard}\"}} {depth}");
    }
    let _ = writeln!(
        out,
        "# HELP lrm_shard_peak_queue_depth Peak queue depth each shard ever held."
    );
    let _ = writeln!(out, "# TYPE lrm_shard_peak_queue_depth gauge");
    for (shard, depth) in m.shard_peak_depths.iter().enumerate() {
        let _ = writeln!(
            out,
            "lrm_shard_peak_queue_depth{{shard=\"{shard}\"}} {depth}"
        );
    }
    push_prometheus_histogram(&mut out, m);
    push_prometheus_tenants(&mut out, &report.telemetry);
    out
}

/// The counter families of a [`MetricsSnapshot`], in declaration order.
fn counter_rows(m: &MetricsSnapshot) -> Vec<(&'static str, &'static str, u64)> {
    vec![
        (
            "lrm_requests_submitted_total",
            "Requests that entered the queue.",
            m.submitted,
        ),
        (
            "lrm_requests_answered_total",
            "Requests answered with a release.",
            m.answered,
        ),
        (
            "lrm_requests_rejected_admission_total",
            "Requests refused at admission (unknown tenant / budget).",
            m.rejected_admission,
        ),
        (
            "lrm_requests_rejected_settlement_total",
            "Requests refused at settlement (budget spent concurrently).",
            m.rejected_settlement,
        ),
        (
            "lrm_requests_failed_total",
            "Requests failed by a compile/answer error.",
            m.failed,
        ),
        (
            "lrm_requests_shed_total",
            "Requests shed at the queue-depth cap.",
            m.shed,
        ),
        (
            "lrm_batches_total",
            "Batches flushed to the worker pool.",
            m.batches,
        ),
        (
            "lrm_batches_coalesced_total",
            "Batches with two or more members.",
            m.coalesced_batches,
        ),
        (
            "lrm_batches_single_total",
            "Single-request batches.",
            m.single_batches,
        ),
        (
            "lrm_batch_rows_total",
            "Workload rows answered across all batches.",
            m.batch_rows,
        ),
        (
            "lrm_batch_max_occupancy",
            "Largest batch observed.",
            m.max_occupancy,
        ),
        (
            "lrm_peak_queue_depth",
            "Peak queue depth across all shards.",
            m.peak_queue_depth,
        ),
        (
            "lrm_batches_closed_rank_total",
            "Batches closed by the rank-growth rule.",
            m.rank_closed_batches,
        ),
        (
            "lrm_batches_closed_window_total",
            "Batches closed by the coalescing window.",
            m.window_closed_batches,
        ),
        (
            "lrm_batches_closed_ceiling_total",
            "Batches closed at the max_batch ceiling.",
            m.ceiling_closed_batches,
        ),
        (
            "lrm_batches_closed_drain_total",
            "Batches flushed by the shutdown drain.",
            m.drain_closed_batches,
        ),
        (
            "lrm_batches_laplace_total",
            "Batches answered with Laplace noise.",
            m.laplace_batches,
        ),
        (
            "lrm_batches_gaussian_total",
            "Batches answered with Gaussian noise.",
            m.gaussian_batches,
        ),
        (
            "lrm_batches_cross_eps_total",
            "Gaussian batches spanning distinct per-release eps.",
            m.cross_eps_batches,
        ),
        (
            "lrm_batches_stolen_total",
            "Batches claimed from another shard's flush queue.",
            m.stolen_batches,
        ),
        (
            "lrm_worker_respawns_total",
            "Worker panics contained and recovered.",
            m.worker_respawns,
        ),
        (
            "lrm_quarantined_shapes_total",
            "Workload shapes quarantined after crashing a worker.",
            m.quarantined_shapes,
        ),
        (
            "lrm_degraded_releases_total",
            "Releases answered by the degraded-mode fallback.",
            m.degraded_releases,
        ),
        (
            "lrm_ledger_replays_total",
            "Tenant journals replayed at registration.",
            m.ledger_replays,
        ),
    ]
}

/// The submit→response latency histogram as cumulative Prometheus
/// buckets. The snapshot's raw pairs are `(floor_us, count)` per
/// occupied log-scale bucket; the `le` upper bound of each cumulative
/// line is the *next* occupied bucket's floor (every sample in between
/// is below it, the buckets between are empty), and the final bucket is
/// `+Inf` as the format requires.
fn push_prometheus_histogram(out: &mut String, m: &MetricsSnapshot) {
    const NAME: &str = "lrm_request_latency_seconds";
    let _ = writeln!(out, "# HELP {NAME} Submit-to-response latency.");
    let _ = writeln!(out, "# TYPE {NAME} histogram");
    let buckets: Vec<(u64, u64)> = m.histogram_buckets().collect();
    let mut cumulative = 0u64;
    for (i, &(_, count)) in buckets.iter().enumerate() {
        cumulative += count;
        match buckets.get(i + 1) {
            Some(&(next_floor, _)) => {
                let le = next_floor as f64 / 1e6;
                let _ = writeln!(out, "{NAME}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            None => {
                let _ = writeln!(out, "{NAME}_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
    }
    if buckets.is_empty() {
        let _ = writeln!(out, "{NAME}_bucket{{le=\"+Inf\"}} 0");
    }
    let _ = writeln!(out, "{NAME}_sum {}", fmt_f64(m.latency_sum.as_secs_f64()));
    let _ = writeln!(out, "{NAME}_count {}", m.latency_samples());
}

/// Extracts one gauge column from a tenant's telemetry (`None` = skip).
type TenantGauge = fn(&TenantTelemetry) -> Option<f64>;

/// One labeled gauge family per tenant-telemetry column. Exhaustion
/// gauges are only written for tenants that are actually burning (a
/// missing sample is Prometheus's idiom for "not applicable").
fn push_prometheus_tenants(out: &mut String, telemetry: &[TenantTelemetry]) {
    let families: [(&str, &str, TenantGauge); 8] = [
        ("lrm_tenant_eps_spent", "Cumulative eps granted.", |t| {
            Some(t.eps_spent)
        }),
        ("lrm_tenant_eps_remaining", "Eps still grantable.", |t| {
            Some(t.eps_remaining)
        }),
        ("lrm_tenant_delta_spent", "Cumulative delta granted.", |t| {
            Some(t.delta_spent)
        }),
        (
            "lrm_tenant_delta_remaining",
            "Delta still grantable.",
            |t| Some(t.delta_remaining),
        ),
        (
            "lrm_tenant_eps_burn_per_sec",
            "Eps granted per second over the trailing window.",
            |t| Some(t.eps_burn_per_sec),
        ),
        (
            "lrm_tenant_delta_burn_per_sec",
            "Delta granted per second over the trailing window.",
            |t| Some(t.delta_burn_per_sec),
        ),
        (
            "lrm_tenant_eps_exhaustion_seconds",
            "Estimated seconds until eps runs out at the current burn rate.",
            |t| t.eps_exhaustion.map(|d| d.as_secs_f64()),
        ),
        (
            "lrm_tenant_delta_exhaustion_seconds",
            "Estimated seconds until delta runs out at the current burn rate.",
            |t| t.delta_exhaustion.map(|d| d.as_secs_f64()),
        ),
    ];
    for (name, help, value) in families {
        let rows: Vec<(&TenantTelemetry, f64)> = telemetry
            .iter()
            .filter_map(|t| value(t).map(|v| (t, v)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (t, v) in rows {
            let _ = writeln!(
                out,
                "{name}{{tenant=\"{}\"}} {}",
                label_escape(&t.tenant),
                fmt_f64(v)
            );
        }
    }
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A float in Prometheus exposition form (`NaN`/`+Inf`/`-Inf` spelled
/// the way the format wants them).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders the report as one JSON document:
/// `{"metrics":{…,"latency":{…,"buckets":[[floor_us,count],…]}},
/// "cache":{…},"tenants":[{…}]}`. Durations are microseconds
/// (`*_us`) or seconds (`*_seconds`) as named; non-finite floats
/// serialize as `null` (reusing `lrm_obs`'s JSON writer).
pub fn json(report: &ServerReport) -> String {
    let mut out = String::with_capacity(4096);
    let m = &report.metrics;
    out.push_str("{\"metrics\":{");
    for (i, (name, _, value)) in counter_rows(m).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Drop the exposition prefix/suffix: `lrm_batches_total` is the
        // JSON key `batches`.
        let key = name.trim_start_matches("lrm_").trim_end_matches("_total");
        push_str(&mut out, key);
        let _ = write!(out, ":{value}");
    }
    out.push_str(",\"batch_mean_occupancy\":");
    push_f64(&mut out, m.mean_occupancy);
    out.push_str(",\"shard_queue_depths\":");
    push_u64_array(&mut out, &m.shard_depths);
    out.push_str(",\"shard_peak_queue_depths\":");
    push_u64_array(&mut out, &m.shard_peak_depths);
    let _ = write!(
        out,
        ",\"latency\":{{\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"sum_us\":{},\"count\":{},\"buckets\":[",
        m.p50_latency.as_micros(),
        m.p99_latency.as_micros(),
        m.p999_latency.as_micros(),
        m.latency_sum.as_micros(),
        m.latency_samples(),
    );
    for (i, (floor, count)) in m.histogram_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{floor},{count}]");
    }
    out.push_str("]}}");
    let c = &report.cache;
    let _ = write!(
        out,
        ",\"cache\":{{\"memory_hits\":{},\"disk_hits\":{},\"misses\":{},\"warm_hits\":{},\"store_loads\":{},\"evictions\":{},\"entries\":{}}}",
        c.memory_hits, c.disk_hits, c.misses, c.warm_hits, c.store_loads, c.evictions, c.entries,
    );
    out.push_str(",\"tenants\":[");
    for (i, t) in report.telemetry.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"tenant\":");
        push_str(&mut out, &t.tenant);
        for (key, v) in [
            ("eps_spent", t.eps_spent),
            ("eps_remaining", t.eps_remaining),
            ("delta_spent", t.delta_spent),
            ("delta_remaining", t.delta_remaining),
            ("eps_burn_per_sec", t.eps_burn_per_sec),
            ("delta_burn_per_sec", t.delta_burn_per_sec),
        ] {
            let _ = write!(out, ",\"{key}\":");
            push_f64(&mut out, v);
        }
        let _ = write!(out, ",\"burn_window_seconds\":");
        push_f64(&mut out, t.window.as_secs_f64());
        for (key, v) in [
            ("eps_exhaustion_seconds", t.eps_exhaustion),
            ("delta_exhaustion_seconds", t.delta_exhaustion),
        ] {
            let _ = write!(out, ",\"{key}\":");
            match v {
                Some(d) => push_f64(&mut out, d.as_secs_f64()),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerError};
    use crate::spec::QuerySpec;
    use lrm_dp::Epsilon;
    use lrm_workload::{Attribute, Schema};

    fn sample_report() -> ServerReport {
        let schema = Schema::single(Attribute::new("v", 0.0, 8.0, 8).unwrap());
        let server = Server::builder(schema, vec![1.0; 8])
            .seed(7)
            .workers(1)
            .build()
            .unwrap();
        server.register_tenant("acme \"lab\"", Epsilon::new(2.0).unwrap());
        let (outcome, report) = server.serve(|client| {
            let spec = QuerySpec::Ranges {
                attr: 0,
                ranges: vec![(0.0, 4.0), (4.0, 8.0)],
            };
            client
                .submit("acme \"lab\"", &spec, Epsilon::new(0.5).unwrap())
                .and_then(crate::server::Ticket::wait)
        });
        outcome.unwrap();
        report
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let report = sample_report();
        let text = prometheus(&report);
        assert!(text.contains("lrm_requests_submitted_total 1\n"));
        assert!(text.contains("lrm_requests_answered_total 1\n"));
        assert!(text.contains("# TYPE lrm_request_latency_seconds histogram"));
        assert!(text.contains("lrm_request_latency_seconds_count 1\n"));
        // One sample: the single occupied bucket is the +Inf line, and
        // the cumulative count equals the sample count.
        assert!(text.contains("lrm_request_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        // The tenant label is escaped, and spend shows the 0.5 debit.
        assert!(text.contains("lrm_tenant_eps_spent{tenant=\"acme \\\"lab\\\"\"} 0.5\n"));
        assert!(text.contains("lrm_tenant_eps_remaining{tenant=\"acme \\\"lab\\\"\"} 1.5\n"));
        // Every non-comment line is `name{labels} value` with a finite
        // or Inf/NaN value — the scrape contract.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable sample value in {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_bounded() {
        let report = sample_report();
        let text = prometheus(&report);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text
            .lines()
            .filter(|l| l.starts_with("lrm_request_latency_seconds_bucket"))
        {
            let count: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(count >= last, "cumulative counts must be monotone: {line}");
            last = count;
            bucket_lines += 1;
        }
        assert!(bucket_lines >= 1);
        assert_eq!(last, report.metrics.latency_samples());
    }

    #[test]
    fn json_exposition_matches_the_snapshot() {
        let report = sample_report();
        let doc = json(&report);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"requests_submitted\":1"));
        assert!(doc.contains("\"requests_answered\":1"));
        assert!(doc.contains(&format!("\"count\":{}", report.metrics.latency_samples())));
        assert!(doc.contains(&format!(
            "\"sum_us\":{}",
            report.metrics.latency_sum.as_micros()
        )));
        assert!(doc.contains("\"tenant\":\"acme \\\"lab\\\"\""));
        assert!(doc.contains("\"eps_spent\":0.5"));
        // Raw buckets survive the round trip.
        let (floor, count) = report.metrics.histogram_buckets().next().unwrap();
        assert!(doc.contains(&format!("\"buckets\":[[{floor},{count}]")));
        // Structurally balanced (the writer emits no stray braces; all
        // strings are escaped by the shared JSON helpers).
        let depth = doc.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn report_error_type_is_exported() {
        // Compile-time check that exposition composes with the public
        // API surface (the doc examples call these directly).
        fn _takes(_: &ServerReport) -> Result<(), ServerError> {
            Ok(())
        }
    }
}
