//! Scheduler rank-growth close and the server's cache report.
//!
//! * A batch closes as soon as a member stops growing the estimated
//!   combined rank — without waiting out the window and far below the
//!   `max_batch` ceiling — and the member that saturated it still rides
//!   along (shares the noise draw).
//! * With the close disabled, the same trace coalesces into one big
//!   batch at shutdown, exactly like a window-only scheduler.
//! * The engine's warm-start counters (warm hits / store loads /
//!   evictions) surface through `ServerReport::cache`.

use lrm_core::engine::MechanismKind;
use lrm_dp::Epsilon;
use lrm_server::{QuerySpec, Server};
use lrm_workload::{Attribute, Schema};
use std::time::Duration;

const SEED: u64 = 0xfa51_11e6;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn schema(n: usize) -> Schema {
    Schema::single(Attribute::new("v", 0.0, n as f64, n).unwrap())
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) % 97) as f64).collect()
}

/// The near-duplicate dashboard panel of the engine's warm-start tests,
/// as a value-range spec: `cuts` equal ranges plus four quarter rollups
/// plus the total, over `n` unit-width buckets.
fn panel_spec(n: usize, cuts: usize) -> QuerySpec {
    let mut ranges: Vec<(f64, f64)> = (0..cuts)
        .map(|c| ((c * n / cuts) as f64, ((c + 1) * n / cuts) as f64))
        .collect();
    for q in 0..4 {
        ranges.push(((q * n / 4) as f64, ((q + 1) * n / 4) as f64));
    }
    ranges.push((0.0, n as f64));
    QuerySpec::Ranges { attr: 0, ranges }
}

#[test]
fn rank_saturation_closes_batches_before_the_window() {
    let server = Server::builder(schema(32), data(32))
        .max_batch(100)
        .coalesce_window(Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));
    let spec = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 16.0), (16.0, 32.0)],
    };

    // Four identical submissions: each pair saturates the rank estimate
    // on its second member, so the scheduler closes two batches of two
    // immediately — the 60 s window never elapses, the test returning
    // quickly is itself the proof.
    let (tickets, report) = server.serve(|client| {
        (0..4)
            .map(|_| client.submit("a", &spec, eps(0.5)).unwrap())
            .collect::<Vec<_>>()
    });
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(report.metrics.batches, 2);
    assert_eq!(report.metrics.coalesced_batches, 2);
    assert_eq!(report.metrics.rank_closed_batches, 2);
    assert_eq!(report.metrics.max_occupancy, 2);
}

#[test]
fn disabling_the_rank_close_restores_window_batching() {
    let server = Server::builder(schema(32), data(32))
        .max_batch(100)
        .rank_close(false)
        .coalesce_window(Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));
    let spec = QuerySpec::Total;

    let (tickets, report) = server.serve(|client| {
        (0..4)
            .map(|_| client.submit("a", &spec, eps(0.5)).unwrap())
            .collect::<Vec<_>>()
    });
    for t in tickets {
        t.wait().unwrap();
    }
    // One open batch, flushed by shutdown with all four members.
    assert_eq!(report.metrics.batches, 1);
    assert_eq!(report.metrics.max_occupancy, 4);
    assert_eq!(report.metrics.rank_closed_batches, 0);
}

#[test]
fn members_that_grow_the_rank_keep_the_batch_open() {
    let server = Server::builder(schema(32), data(32))
        .max_batch(100)
        .coalesce_window(Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));

    // Each spec brings fresh boundary points: the rank estimate grows on
    // every member, so the batch stays open until the shutdown flush.
    let (tickets, report) = server.serve(|client| {
        vec![
            client
                .submit(
                    "a",
                    &QuerySpec::Ranges {
                        attr: 0,
                        ranges: vec![(0.0, 16.0)],
                    },
                    eps(0.5),
                )
                .unwrap(),
            client
                .submit(
                    "a",
                    &QuerySpec::Ranges {
                        attr: 0,
                        ranges: vec![(8.0, 24.0)],
                    },
                    eps(0.5),
                )
                .unwrap(),
            client
                .submit(
                    "a",
                    &QuerySpec::Ranges {
                        attr: 0,
                        ranges: vec![(4.0, 28.0)],
                    },
                    eps(0.5),
                )
                .unwrap(),
        ]
    });
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(report.metrics.batches, 1);
    assert_eq!(report.metrics.max_occupancy, 3);
    assert_eq!(report.metrics.rank_closed_batches, 0);
}

#[test]
fn warm_start_counters_surface_in_the_server_report() {
    let server = Server::builder(schema(64), data(64))
        .mechanism(MechanismKind::Lrm)
        .max_batch(1)
        .workers(1)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));

    // Two near-duplicate dashboard panels (33 vs 34 cuts in spirit; 15 vs
    // 16 here), answered one after the other: the second compile warm-
    // starts from the first through the engine's similarity index, and
    // the counters ride out through the report.
    let (result, report) = server.serve(|client| {
        let a = client
            .submit("a", &panel_spec(64, 15), eps(0.5))
            .unwrap()
            .wait();
        let b = client
            .submit("a", &panel_spec(64, 16), eps(0.5))
            .unwrap()
            .wait();
        (a, b)
    });
    let (a, b) = result;
    assert_eq!(a.unwrap().answers.len(), 20);
    assert_eq!(b.unwrap().answers.len(), 21);
    assert_eq!(report.cache.misses, 1);
    assert_eq!(report.cache.warm_hits, 1);
    assert_eq!(report.cache.store_loads, 0); // no spill dir configured
    assert_eq!(report.cache.evictions, 0);
    assert_eq!(report.metrics.answered, 2);
}
