//! End-to-end trace audit: a real serve runs under a [`Memory`]
//! subscriber, then every span and event the lifecycle emitted is
//! checked three ways —
//!
//! 1. **Payload audit**: every field key is on the documented
//!    allowlist, every string value is a short label (never a data
//!    blob), and the rendered JSON lines contain no arrays. Together
//!    with `lrm_obs::Value` having no bulk `From` impls, this is the
//!    "span/event payloads carry only data-independent values"
//!    invariant, checked over the wire format.
//! 2. **Phase decomposition**: each `request.complete` event's
//!    coalesce/queue/compile/noise/settle phases sum exactly to its
//!    `total_ns`, and the totals across all requests agree with the
//!    metrics histogram's `latency_sum` within 5%.
//! 3. **Attribution**: every batch has a `batch.close` event with a
//!    valid close reason and a `batch.compile` span with a valid cache
//!    outcome on the same trace, and the ALM solver reported at least
//!    one iteration for the cold compile.
//!
//! The subscriber registry is process-global, so this file holds a
//! single test.

use lrm_core::engine::MechanismKind;
use lrm_dp::Epsilon;
use lrm_obs::{Memory, Record, Value};
use lrm_server::{QuerySpec, Server};
use lrm_workload::{Attribute, Schema};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Every field key the serving stack is allowed to emit. A new traced
/// field must be reviewed for data-independence and added here.
const ALLOWED_KEYS: &[&str] = &[
    // request lifecycle
    "tenant",
    "shard",
    "rows",
    "eps",
    "delta",
    "reason",
    "batch",
    "coalesce_ns",
    "queue_ns",
    "compile_ns",
    "noise_ns",
    "settle_ns",
    "total_ns",
    "degraded",
    // batch lifecycle
    "requests",
    "gaussian",
    "distinct_eps",
    // compile attribution
    "cache",
    "mechanism",
    "compile_seconds",
    "strategy_rank",
    "alm_iterations",
    "nesterov_iterations",
    "solved_cols",
    "warm_seed_fingerprint",
    "warm_profile_distance",
    // solver telemetry
    "outer",
    "tau",
    "beta",
];

const ALLOWED_NAMES: &[&str] = &[
    "request.submit",
    "request.reject",
    "request.complete",
    "batch.close",
    "batch.serve",
    "batch.compile",
    "batch.noise",
    "alm.iteration",
];

fn fields(record: &Record) -> &[(&'static str, Value)] {
    match record {
        Record::Span(s) => &s.fields,
        Record::Event(e) => &e.fields,
    }
}

fn trace_of(record: &Record) -> u64 {
    match record {
        Record::Span(s) => s.trace,
        Record::Event(e) => e.trace,
    }
}

fn get_u64(record: &Record, key: &str) -> Option<u64> {
    fields(record)
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(u) => Some(*u),
            _ => None,
        })
}

fn get_str<'a>(record: &'a Record, key: &str) -> Option<&'a str> {
    fields(record)
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        })
}

/// A payload string must be a short label (a mechanism name, a close
/// reason, a tenant id) — never serialized data.
fn is_short_label(s: &str) -> bool {
    s.len() <= 32
        && s.chars()
            .all(|c| c.is_alphanumeric() || "._-+γ".contains(c))
}

#[test]
fn serve_traces_decompose_latency_and_carry_no_data() {
    let schema = Schema::single(Attribute::new("v", 0.0, 32.0, 32).unwrap());
    let data: Vec<f64> = (0..32).map(|i| 40.0 + (i as f64) * 3.0).collect();
    let server = Server::builder(schema, data)
        .mechanism(MechanismKind::Lrm)
        .coalesce_window(Duration::from_millis(4))
        .max_batch(4)
        .workers(2)
        .seed(7)
        .build()
        .unwrap();
    server.register_tenant("acme", Epsilon::new(4.0).unwrap());

    let sink = Arc::new(Memory::default());
    lrm_obs::install(sink.clone());
    let (answered, report) = server.serve(|client| {
        let spec = QuerySpec::Ranges {
            attr: 0,
            ranges: vec![(0.0, 16.0), (16.0, 32.0)],
        };
        let eps = Epsilon::new(0.2).unwrap();
        let tickets: Vec<_> = (0..12)
            .map(|_| client.submit("acme", &spec, eps).unwrap())
            .collect();
        tickets.into_iter().filter_map(|t| t.wait().ok()).count() as u64
    });
    lrm_obs::uninstall();
    let records = sink.take();

    assert_eq!(answered, 12, "every submission must be answered");
    assert_eq!(report.metrics.answered, 12);
    assert!(!records.is_empty(), "tracing must have captured the serve");

    // ---- 1. Payload audit over the in-memory records and the JSON. ----
    for record in &records {
        let name = record.name();
        assert!(
            ALLOWED_NAMES.contains(&name),
            "unknown span/event name {name:?}"
        );
        for (key, value) in fields(record) {
            assert!(
                ALLOWED_KEYS.contains(key),
                "field {key:?} on {name:?} is not on the data-independence allowlist"
            );
            if let Value::Str(s) = value {
                assert!(
                    is_short_label(s),
                    "string payload {s:?} on {name:?}.{key} is not a short label"
                );
            }
        }
        // The wire format: one JSON object, scalar fields only. No '['
        // can appear — not in names (checked above), not in labels
        // (checked above), so none anywhere means no arrays anywhere.
        let line = lrm_obs::json::record_line(record);
        assert!(
            !line.contains('[') && !line.contains(']'),
            "rendered record may not contain an array: {line}"
        );
    }

    // ---- 2. Phase decomposition. ----
    let submits: Vec<&Record> = records
        .iter()
        .filter(|r| r.name() == "request.submit")
        .collect();
    let completes: Vec<&Record> = records
        .iter()
        .filter(|r| r.name() == "request.complete")
        .collect();
    assert_eq!(submits.len(), 12);
    assert_eq!(completes.len(), 12);
    let submit_traces: HashSet<u64> = submits.iter().map(|r| trace_of(r)).collect();
    assert_eq!(submit_traces.len(), 12, "every request gets its own trace");
    for submit in &submits {
        assert_eq!(get_str(submit, "tenant"), Some("acme"));
    }

    let mut total_sum_ns: u64 = 0;
    for complete in &completes {
        assert!(
            submit_traces.contains(&trace_of(complete)),
            "a completion must share its submission's trace"
        );
        let phases: u64 = [
            "coalesce_ns",
            "queue_ns",
            "compile_ns",
            "noise_ns",
            "settle_ns",
        ]
        .iter()
        .map(|k| get_u64(complete, k).expect("phase field present"))
        .sum();
        let total = get_u64(complete, "total_ns").expect("total_ns present");
        assert_eq!(phases, total, "phases must sum exactly to the total");
        assert!(total > 0, "a served request takes time");
        total_sum_ns += total;
    }
    // The traced totals and the histogram measure the same interval
    // (submit → respond) at slightly different capture points; they
    // must agree within 5% in aggregate.
    let histogram_ns = report.metrics.latency_sum.as_nanos() as f64;
    let diff = (total_sum_ns as f64 - histogram_ns).abs();
    assert!(
        diff <= 0.05 * histogram_ns + 1e6,
        "trace totals {total_sum_ns}ns vs histogram {histogram_ns}ns drift over 5%"
    );

    // ---- 3. Attribution. ----
    let closes: Vec<&Record> = records
        .iter()
        .filter(|r| r.name() == "batch.close")
        .collect();
    let compiles: Vec<&Record> = records
        .iter()
        .filter(|r| r.name() == "batch.compile")
        .collect();
    assert!(!closes.is_empty());
    let m = &report.metrics;
    let closed_counted = m.rank_closed_batches
        + m.window_closed_batches
        + m.ceiling_closed_batches
        + m.drain_closed_batches;
    assert_eq!(
        closes.len() as u64,
        closed_counted,
        "every close reason is counted exactly once"
    );
    let member_sum: u64 = closes
        .iter()
        .map(|r| get_u64(r, "requests").expect("requests field present"))
        .sum();
    assert_eq!(
        member_sum, 12,
        "batch members must account for every request"
    );
    for close in &closes {
        let reason = get_str(close, "reason").expect("reason field present");
        assert!(
            ["rank_growth", "window", "max_batch", "shutdown_drain"].contains(&reason),
            "unknown close reason {reason:?}"
        );
    }
    assert_eq!(
        compiles.len(),
        closes.len(),
        "every flushed batch compiles exactly once"
    );
    let close_traces: HashSet<u64> = closes.iter().map(|r| trace_of(r)).collect();
    for compile in &compiles {
        assert!(
            close_traces.contains(&trace_of(compile)),
            "a compile span must live on its batch's trace"
        );
        let cache = get_str(compile, "cache").expect("cache field present");
        assert!(
            ["miss", "warm_start", "memory_hit", "disk_hit"].contains(&cache),
            "unknown cache outcome {cache:?}"
        );
        assert!(get_str(compile, "mechanism").is_some());
        assert_eq!(
            get_u64(compile, "alm_iterations").is_some(),
            get_u64(compile, "solved_cols").is_some(),
            "every ALM solve reports the columns it solved over"
        );
        assert_eq!(
            get_u64(compile, "alm_iterations").is_some(),
            get_u64(compile, "nesterov_iterations").is_some(),
            "every ALM solve reports its inner iterations"
        );
    }
    assert!(
        records.iter().any(|r| r.name() == "alm.iteration"),
        "the cold compile must report solver iterations"
    );
}
